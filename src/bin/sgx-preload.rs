//! `sgx-preload` — command-line front end for the reproduction.
//!
//! ```text
//! sgx-preload list
//! sgx-preload run --bench lbm --scheme dfp --scale dev
//! sgx-preload run --bench lbm --scheme dfp --jsonl lbm.jsonl --hist
//! sgx-preload campaign --scale dev --jobs 4
//! sgx-preload campaign --benches lbm,mcf --schemes baseline,dfp --json-out out.json
//! sgx-preload profile --bench deepsjeng --scale dev
//! sgx-preload trace record --bench kvstore --out kv.sgxt
//! sgx-preload trace convert --in kv.sgxt --out kv.csv
//! sgx-preload trace replay --trace kv.sgxt --scheme dfp --source-bench kvstore --diff
//! ```

use std::cell::RefCell;
use std::collections::HashMap;
use std::process::ExitCode;
use std::rc::Rc;

use sgx_preloading::kernel::{EventKind, LoggedEvent};
use sgx_preloading::prelude::*;
use sgx_preloading::sim::json::{self, Value};
use sgx_preloading::workloads::SGXT_MAGIC;
use sgx_preloading::{
    build_plan, effective_jobs, profile_stream, ChromeTraceSink, CycleAttribution, EpcSizing,
    HistogramSink, InstrumentationPlan, NotifyPlacement, RecordedTrace, SeriesFormat, SharedSink,
    StreamConfig, DEFAULT_TIMELINE_SERIES_INTERVAL,
};

const USAGE: &str = "\
sgx-preload — Regaining Lost Seconds, reproduced

USAGE:
    sgx-preload <COMMAND> [OPTIONS]

COMMANDS:
    list                       list benchmarks and schemes
    run                        run one benchmark under one scheme
    campaign                   run a benchmark × scheme campaign on one seed
                               (parallel), JSON telemetry
    profile                    profile a benchmark and show the SIP plan
    trace record               record a full access trace to the compact
                               binary .sgxt format (or CSV by extension)
    trace convert              convert a trace between .sgxt and CSV
    trace replay               replay a recorded trace file through the
                               simulator, optionally diffing the report
                               against the source generator's
    timeline                   run one benchmark and export its causal span
                               timeline (event table, Chrome trace, gauge
                               series, cycle attribution)
    contend                    co-run a victim with an aggressor enclave and
                               report per-tenant fairness telemetry
    leakage                    run the side-channel leakage observatory: for
                               each secret pair × scheme, replay both
                               secret-labelled variants past an untrusted-OS
                               observer and score how distinguishable they
                               are; exits 1 if any scheme leaks more than
                               baseline beyond --tolerance

COMMON OPTIONS:
    --scale <dev|quarter|full|N>   workload/EPC scale (default: dev)
    --seed <N>                     workload seed (default: 42); every
                                   campaign and leakage cell runs at it
    --predictor <name>             fault-driven predictor for DFP-style schemes:
                                   multi-stream (default) | next-line | stride |
                                   stride-confident | markov | leap
    --epc-ceiling <N>              EDMM committed-page ceiling per enclave for
                                   edmm/edmm+dfp-stop schemes (default: grow to
                                   physical EPC)

campaign OPTIONS:
    --benches <a,b,..>             comma-separated benchmarks (default: all)
    --schemes <a,b,..>             comma-separated schemes (default: all kernel
                                   schemes: baseline,dfp,dfp-stop,sip,hybrid;
                                   also: edmm, edmm+dfp-stop, user-level); with
                                   baseline among them, each other scheme's
                                   improvement over it is tabled per benchmark
    --jobs <N>                     worker threads (default: $SGX_PRELOAD_JOBS,
                                   else available parallelism); results are
                                   identical for every worker count
    --json-out <file>              write the full campaign report as JSON
    --trace-out <dir>              stream each cell's paging events to
                                   <dir>/<index>_<label>.jsonl
    --timeline-out <dir>           write each cell's Chrome trace + gauge series
                                   to <dir>/<index>_<label>.{chrome.json,series.csv}
    --hist                         print per-cell fault-latency and preload-lead
                                   percentiles (p50/p90/p99)
    --attr                         print per-cell cycle attribution (percent of
                                   total cycles per subsystem bucket)

run OPTIONS:
    --bench <name>                 benchmark name (see `list`)
    --scheme <name>                baseline | dfp | dfp-stop | sip | hybrid |
                                   user-level | edmm | edmm+dfp-stop
    --epc-pages <N>                override EPC capacity
    --load-length <N>              DFP LOADLENGTH (default 4)
    --list-len <N>                 DFP stream_list length (default 30)
    --threshold <F>                SIP irregular-ratio threshold (default 0.05)
    --early <N>                    SIP early-notify distance (default: conservative)
    --jsonl <file>                 stream the --scheme run's kernel paging
                                   events to <file> as JSON lines
    --hist                         print the --scheme run's cycle histograms
                                   (fault latency, preload lead, stream
                                   length, eviction scan cost)

profile OPTIONS:
    --bench <name>                 benchmark to profile on its train input
    --epc-pages <N>                EPC capacity the classifier assumes
    --threshold <F>                SIP irregular-ratio threshold of the plan
                                   (the classifier runs the paper's default
                                   stream settings, so profile takes no
                                   stream, predictor or EDMM flag)

trace record OPTIONS:
    --bench <name>                 benchmark to record (full Ref stream)
    -n <N>                         cap the recording at N accesses
    --scale, --seed                the stream's scale and seed; a recording
                                   runs no simulator, so it takes no other
                                   common option
    --out <file>                   output file (default <bench>.trace.sgxt;
                                   a .csv extension writes CSV instead)

trace convert OPTIONS:
    --in <file>  --out <file>      input is sniffed by its SGXT magic;
                                   output format follows the extension
                                   (.csv => CSV, anything else => .sgxt)

trace replay OPTIONS:
    --trace <file>                 .sgxt or CSV trace (sniffed by magic)
    --scheme <s>                   kernel or user-level scheme to replay under
    --source-bench <name>          declare the generator the trace was
                                   recorded from: the replay inherits its
                                   label, ELRANGE and SIP profile, making
                                   the report byte-identical to a direct run
    --diff                         re-run the source generator and exit 1
                                   unless the replayed report matches exactly

timeline OPTIONS:
    --bench <name> --scheme <s>    workload and scheme (scheme default: baseline)
    -n <N>                         events to print (default 40; 0 = none)
    --chrome-out <file>            write the run's Chrome trace-event JSON
                                   (load it at ui.perfetto.dev)
    --series-out <file>            sample kernel gauges into a time series
                                   (CSV, or JSON when the path ends in .json)
    --series-every <N>             sampling interval in cycles (default 100000;
                                   needs --series-out)
    --attr                         print the cycle-attribution table
    --json-out <file>              write a timeline summary (event/span counts,
                                   attribution, invariant checks) as JSON

leakage OPTIONS:
    --pairs <a,b,..>               secret pairs (default: all —
                                   branch-halves,lookup-order,dfp-echo)
    --schemes <a,b,..>             kernel schemes to observe (default:
                                   baseline,dfp,sip); every pair also gets an
                                   ORAM padded-access reference row
    --window <N>                   windowed-entropy window in faults
                                   (default 64)
    --tolerance <F>                max distinguishability increase over the
                                   baseline row before the gate fails
                                   (default 0.05)
    --jobs <N>                     worker threads; the canonical JSON is
                                   byte-identical for every worker count
    --json-out <file>              write the canonical campaign report JSON
                                   (excludes jobs/wall time)

contend OPTIONS:
    --victim <name>                victim benchmark (default: microbenchmark)
    --aggressor <name>             aggressor benchmark (default: mixed-blood)
    --scheme <s>                   kernel scheme (default: dfp)
    --policy <fair|none>           tenant policy (default: fair — equal DRR
                                   weights, equal soft EPC shares, admission
                                   control on; none = shared-everything)
    --weights <A:B>                override the victim:aggressor DRR weights
    --json-out <file>              write the contention report as JSON
";

struct Args {
    flags: HashMap<String, String>,
}

/// Flags that take no value; their presence means `true`.
const BOOL_FLAGS: [&str; 3] = ["hist", "attr", "diff"];

/// The flags [`Args::config`] reads, which every command that builds a
/// `SimConfig` accepts, space-separated.
const CONFIG_FLAGS: &str = "scale seed epc-pages load-length list-len threshold early predictor \
    epc-ceiling";

/// The output flags `campaign` and `leakage` share.
const GRID_FLAGS: &str = "jobs json-out trace-out timeline-out";

impl Args {
    /// Parses `command`'s flags, rejecting any flag not in one of the
    /// space-separated `known` lists — the flags its handler reads.
    fn parse(command: &str, known: &[&str], argv: &[String]) -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .or_else(|| a.strip_prefix('-'))
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            if !known.iter().flat_map(|l| l.split(' ')).any(|k| k == key) {
                return Err(format!("unknown flag {a} for `{command}`"));
            }
            if BOOL_FLAGS.contains(&key) {
                flags.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            flags.insert(key.to_string(), value.clone());
        }
        Ok(Args { flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<T>()
                .map(Some)
                .map_err(|e| format!("invalid --{key} {v:?}: {e}")),
        }
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.get("scale") {
            None | Some("dev") => Ok(Scale::DEV),
            Some("quarter") => Ok(Scale::QUARTER),
            Some("full") => Ok(Scale::FULL),
            Some(n) => n
                .parse::<u64>()
                .ok()
                .and_then(Scale::try_new)
                .ok_or_else(|| format!("invalid --scale {n:?}")),
        }
    }

    fn scheme(&self) -> Result<Scheme, String> {
        self.get("scheme")
            .unwrap_or("baseline")
            .parse::<Scheme>()
            .map_err(|e| e.to_string())
    }

    fn bench(&self) -> Result<Benchmark, String> {
        let name = self.get("bench").ok_or("missing --bench")?;
        Benchmark::from_name(name)
            .ok_or_else(|| format!("unknown benchmark {name:?} (try `sgx-preload list`)"))
    }

    fn jobs(&self) -> Result<usize, String> {
        Ok(effective_jobs(self.parsed::<usize>("jobs")?))
    }

    /// `--benches a,b,c`, defaulting to every benchmark.
    fn benches(&self) -> Result<Vec<Benchmark>, String> {
        match self.get("benches") {
            None => Ok(Benchmark::ALL.to_vec()),
            Some(list) => list
                .split(',')
                .map(|name| {
                    Benchmark::from_name(name.trim())
                        .ok_or_else(|| format!("unknown benchmark {name:?}"))
                })
                .collect(),
        }
    }

    /// `--schemes a,b,c`, defaulting to every kernel-level scheme.
    fn schemes(&self) -> Result<Vec<Scheme>, String> {
        match self.get("schemes") {
            None => Ok(Scheme::ALL.to_vec()),
            Some(list) => list
                .split(',')
                .map(|s| s.trim().parse::<Scheme>().map_err(|e| e.to_string()))
                .collect(),
        }
    }

    fn config(&self) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::at_scale(self.scale()?);
        if let Some(seed) = self.parsed::<u64>("seed")? {
            cfg = cfg.with_seed(seed);
        }
        if let Some(epc) = self.parsed::<u64>("epc-pages")? {
            if epc == 0 {
                return Err("--epc-pages must be positive".into());
            }
            cfg = cfg.with_epc_pages(epc);
        }
        // The predictor asserts both stream knobs positive, and sizes its
        // buffers by them: past the EPC they only grow without bound.
        let stream_knob = |key: &str| -> Result<Option<u64>, String> {
            match self.parsed::<u64>(key)? {
                Some(n) if n == 0 || n > cfg.epc_pages => Err(format!(
                    "--{key} must be between 1 and the EPC's {} pages",
                    cfg.epc_pages
                )),
                n => Ok(n),
            }
        };
        let mut stream = StreamConfig::paper_defaults();
        if let Some(ll) = stream_knob("load-length")? {
            stream = stream.with_load_length(ll);
        }
        if let Some(len) = stream_knob("list-len")? {
            stream = stream.with_list_len(len as usize);
        }
        cfg = cfg.with_stream(stream);
        if let Some(t) = self.parsed::<f64>("threshold")? {
            if !(0.0..=1.0).contains(&t) {
                return Err("--threshold must be in [0, 1]".into());
            }
            cfg = cfg.with_sip(cfg.sip.with_threshold(t));
        }
        if let Some(d) = self.parsed::<usize>("early")? {
            cfg = cfg.with_placement(NotifyPlacement::Early { distance: d });
        }
        if let Some(p) = self.get("predictor") {
            let kind: PredictorKind = p.parse().map_err(|e| format!("{e}"))?;
            cfg = cfg.with_predictor(kind);
        }
        if let Some(ceiling) = self.parsed::<u64>("epc-ceiling")? {
            cfg = cfg.with_epc_sizing(EpcSizing::physical().with_ceiling(ceiling));
        }
        Ok(cfg)
    }
}

fn write_json_out(args: &Args, json: &str) -> Result<(), String> {
    if let Some(path) = args.get("json-out") {
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_list() {
    println!("benchmarks:");
    for b in Benchmark::ALL {
        println!(
            "  {:<16} {:>5} MiB  {:?}{}",
            b.name(),
            b.footprint_pages() / 256,
            b.category(),
            if b.sip_supported() { "" } else { "  (no SIP)" }
        );
    }
    println!(
        "\nschemes: baseline, dfp, dfp-stop, sip, hybrid, user-level (§6 comparator), \
         edmm, edmm+dfp-stop (SGX2 dynamic-EPC rivals)"
    );
    print!("\npredictors (--predictor):");
    for kind in PredictorKind::ALL {
        print!(" {kind}");
    }
    println!();
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let bench = args.bench()?;
    let scheme = args.scheme()?;
    let jsonl = args.get("jsonl");
    if (jsonl.is_some() || args.flag("hist")) && scheme.is_user_level() {
        return Err("event tracing needs a kernel scheme; the user-level runtime has none".into());
    }
    // Streaming sinks attach to the --scheme run only, never to the
    // baseline reference run.
    let mut run = SimRun::new(&cfg).scheme(scheme).bench(bench);
    let jsonl = match jsonl {
        Some(path) => {
            let sink = JsonlWriterSink::create(path).map_err(|e| format!("--jsonl {path}: {e}"))?;
            let (shared, sink) = SharedSink::new(sink);
            run = run.sink(Box::new(shared));
            Some((path, sink))
        }
        None => None,
    };
    let hist = if args.flag("hist") {
        let (sink, h) = HistogramSink::new();
        run = run.sink(Box::new(sink));
        Some(h)
    } else {
        None
    };
    let r = run.run_one().map_err(|e| e.to_string())?;
    println!("{r}");
    if scheme != Scheme::Baseline {
        let base = SimRun::new(&cfg)
            .scheme(Scheme::Baseline)
            .bench(bench)
            .run_one()
            .map_err(|e| e.to_string())?;
        println!(
            "\nimprovement over baseline: {:+.2}% ({} -> {} cycles)",
            r.improvement_over(&base) * 100.0,
            base.total_cycles,
            r.total_cycles
        );
    }
    if let Some((path, sink)) = jsonl {
        sink.borrow_mut()
            .finish()
            .map_err(|e| format!("--jsonl {path}: {e}"))?;
        println!("streamed paging events -> {path}");
    }
    if let Some(h) = hist {
        let h = h.borrow();
        for (name, hist) in [
            ("fault service cycles", &h.fault_service),
            ("preload lead cycles", &h.preload_lead),
            ("predicted stream length", &h.stream_len),
            ("eviction scan length", &h.evict_scan),
        ] {
            println!("\n{name}: {}", hist.summary());
            for (lo, count) in hist.nonzero_buckets() {
                println!("  >= {lo:>12}: {count}");
            }
        }
    }
    Ok(())
}

/// Applies the shared `--trace-out` / `--timeline-out` options to a
/// campaign.
fn apply_trace_out(args: &Args, mut campaign: Campaign) -> Campaign {
    if let Some(dir) = args.get("trace-out") {
        campaign = campaign.with_trace_dir(dir);
    }
    if let Some(dir) = args.get("timeline-out") {
        campaign = campaign.with_timeline_dir(dir);
    }
    campaign
}

/// The `--hist` table: per-cell latency percentiles, derived from the
/// kernel's streamed histograms (deterministic for any worker count).
fn print_percentiles(report: &CampaignReport) {
    println!(
        "\n{:<32} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "cell", "fault p50", "fault p90", "fault p99", "lead p50", "lead p90", "lead p99"
    );
    for c in &report.cells {
        let r: &RunReport = &c.report;
        println!(
            "{:<32} {:>10} {:>10} {:>10} {:>12} {:>12} {:>12}",
            c.label,
            r.fault_service_p50.raw(),
            r.fault_service_p90.raw(),
            r.fault_service_p99.raw(),
            r.preload_lead_p50.raw(),
            r.preload_lead_p90.raw(),
            r.preload_lead_p99.raw(),
        );
    }
}

/// The `--attr` table: per-cell cycle attribution as percentages of each
/// cell's own total (the buckets sum to the total exactly).
fn print_attribution(report: &CampaignReport) {
    print!("\n{:<32}", "cell");
    for (name, _) in CycleAttribution::default().buckets() {
        print!(" {name:>8}");
    }
    println!();
    for c in &report.cells {
        let a = &c.report.attribution;
        let total = a.total().max(1) as f64;
        print!("{:<32}", c.label);
        for (name, v) in a.buckets() {
            let pct = format!("{:.1}%", v as f64 * 100.0 / total);
            print!(" {pct:>w$}", w = name.len().max(8));
        }
        println!();
    }
}

/// The improvement table: each scheme against the same benchmark's
/// baseline, one row per benchmark. Every cell runs at the campaign seed,
/// so each scheme sees its baseline's workload stream.
fn print_improvements(report: &CampaignReport, benches: &[Benchmark], schemes: &[Scheme]) {
    let others: Vec<Scheme> = schemes
        .iter()
        .copied()
        .filter(|&s| s != Scheme::Baseline)
        .collect();
    if !schemes.contains(&Scheme::Baseline) || others.is_empty() {
        return;
    }
    let width = |s: Scheme| s.name().len().max(9);
    print!("\n{:<16}", "benchmark");
    for &s in &others {
        print!(" {:>w$}", s.name(), w = width(s));
    }
    println!();
    for bench in benches {
        let cell = |s: Scheme| {
            &report
                .cell(&format!("{}/{}", bench.name(), s.name()))
                .expect("the grid holds every benchmark × scheme cell")
                .report
        };
        let base = cell(Scheme::Baseline);
        print!("{:<16}", bench.name());
        for &s in &others {
            let pct = format!("{:+.1}%", cell(s).improvement_over(base) * 100.0);
            print!(" {pct:>w$}", w = width(s));
        }
        println!();
    }
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let (benches, schemes) = (args.benches()?, args.schemes()?);
    let campaign = apply_trace_out(
        args,
        Campaign::grid("campaign", cfg.seed, &benches, &schemes, cfg),
    );
    let report = campaign
        .run_with_jobs(args.jobs()?)
        .map_err(|e| e.to_string())?;
    print!("{report}");
    print_improvements(&report, &benches, &schemes);
    if args.flag("hist") {
        print_percentiles(&report);
    }
    if args.flag("attr") {
        print_attribution(&report);
    }
    write_json_out(args, &report.to_json())?;
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let bench = args.bench()?;
    let profile = profile_stream(
        bench.build(InputSet::Train, cfg.scale, cfg.seed),
        cfg.epc_pages as usize,
    );
    println!(
        "{}: {} events over {} sites; class2 {:.1}%, class3 {:.1}%",
        bench.name(),
        profile.total_events(),
        profile.site_count(),
        profile.stream_share() * 100.0,
        profile.irregular_share() * 100.0
    );
    // The plan SIP would compile from the profile above; the paper's
    // prototype could not instrument the Fortran programs or omnetpp.
    let plan = if bench.sip_supported() {
        InstrumentationPlan::from_profile(&profile, cfg.sip)
    } else {
        InstrumentationPlan::none()
    };
    println!(
        "instrumentation plan at threshold {:.1}%: {} points (TCB ≈ {} LoC)",
        cfg.sip.threshold * 100.0,
        plan.len(),
        plan.tcb_loc_estimate()
    );
    let mut rows: Vec<_> = profile.sites().collect();
    rows.sort_by(|a, b| {
        b.1.irregular_ratio()
            .partial_cmp(&a.1.irregular_ratio())
            .expect("ratios are finite")
    });
    println!("\ntop sites by irregular ratio:");
    println!(
        "{:>8} {:>10} {:>8} {:>8} {:>8}  instrumented",
        "site", "events", "c1%", "c2%", "c3%"
    );
    for (id, s) in rows.into_iter().take(15) {
        let n = s.events().max(1) as f64;
        println!(
            "{:>8} {:>10} {:>7.1}% {:>7.1}% {:>7.1}%  {}",
            id.0,
            s.events(),
            s.class1 as f64 * 100.0 / n,
            s.class2 as f64 * 100.0 / n,
            s.class3 as f64 * 100.0 / n,
            plan.is_instrumented(id)
        );
    }
    Ok(())
}

/// Writes a trace in the format the path's extension selects: `.csv`
/// writes the text format, anything else the compact binary `.sgxt`.
fn write_trace(trace: &RecordedTrace, path: &str) -> Result<(), String> {
    if path.ends_with(".csv") {
        trace.write_csv(path)
    } else {
        trace.write_sgxt(path)
    }
    .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Loads a trace file, sniffing the format from its leading bytes: the
/// `SGXT` magic selects the binary parser, anything else is CSV.
fn load_trace(path: &str) -> Result<RecordedTrace, String> {
    use std::io::Read;
    let mut magic = [0u8; 4];
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sgxt = matches!(file.read(&mut magic), Ok(4)) && magic == SGXT_MAGIC;
    drop(file);
    if sgxt {
        RecordedTrace::read_sgxt(path)
    } else {
        RecordedTrace::read_csv(path)
    }
    .map_err(|e| e.to_string())
}

/// `trace record`: record a benchmark's full Ref-input access stream to
/// `.sgxt` (or CSV, by extension).
fn cmd_trace_record(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let bench = args.bench()?;
    let limit = args.parsed::<usize>("n")?.unwrap_or(usize::MAX);
    let out = args
        .get("out")
        .map(String::from)
        .unwrap_or_else(|| format!("{}.trace.sgxt", bench.name()));
    let trace = RecordedTrace::record(bench.build(InputSet::Ref, cfg.scale, cfg.seed), limit);
    write_trace(&trace, &out)?;
    println!(
        "recorded {} accesses over {} distinct pages -> {out}",
        trace.len(),
        trace.footprint_pages()
    );
    Ok(())
}

/// `trace convert`: CSV ⇄ `.sgxt`, both directions lossless.
fn cmd_trace_convert(args: &Args) -> Result<(), String> {
    let input = args.get("in").ok_or("missing --in")?;
    let out = args.get("out").ok_or("missing --out")?;
    let trace = load_trace(input)?;
    write_trace(&trace, out)?;
    println!("converted {input} -> {out} ({} accesses)", trace.len());
    Ok(())
}

/// `trace replay`: run a trace file through the simulator as a
/// first-class workload, optionally diffing against the generator run
/// it was recorded from.
fn cmd_trace_replay(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let scheme = args.scheme()?;
    let path = args.get("trace").ok_or("missing --trace")?;
    let trace = load_trace(path)?;
    if trace.is_empty() {
        return Err(format!("trace {path} is empty"));
    }
    let replay = match args.get("source-bench") {
        Some(name) => {
            let bench = Benchmark::from_name(name)
                .ok_or_else(|| format!("unknown benchmark {name:?} (try `sgx-preload list`)"))?;
            TraceReplay::of_benchmark(bench, trace)
        }
        None => TraceReplay::new(path.to_string(), trace),
    };
    let source = replay.source();
    let report = SimRun::new(&cfg)
        .scheme(scheme)
        .replay(replay)
        .run_one()
        .map_err(|e| e.to_string())?;
    println!("{report}");

    if args.flag("diff") {
        let bench =
            source.ok_or("--diff needs --source-bench so the generator run can be reproduced")?;
        let direct = SimRun::new(&cfg)
            .scheme(scheme)
            .bench(bench)
            .run_one()
            .map_err(|e| e.to_string())?;
        if direct != report {
            return Err(format!(
                "replayed report diverges from the {} generator run ({} vs {} cycles, {} vs {} faults)",
                bench.name(),
                report.total_cycles,
                direct.total_cycles,
                report.faults,
                direct.faults,
            ));
        }
        println!(
            "replay matches the {}/{} generator run exactly",
            bench.name(),
            scheme.name()
        );
    }
    Ok(())
}

/// Resolves `--policy` / `--weights` into a [`TenantPolicy`] for two
/// enclaves (victim = tenant 0, aggressor = tenant 1).
fn tenant_policy_arg(args: &Args, epc_pages: u64) -> Result<TenantPolicy, String> {
    let mut policy = match args.get("policy") {
        None | Some("fair") => TenantPolicy::fair(2, epc_pages),
        Some("none") => TenantPolicy::none(),
        Some(other) => return Err(format!("unknown --policy {other:?} (fair|none)")),
    };
    if let Some(w) = args.get("weights") {
        let (a, b) = w
            .split_once(':')
            .ok_or_else(|| format!("--weights wants A:B, got {w:?}"))?;
        let a: u32 = a
            .trim()
            .parse()
            .map_err(|_| format!("invalid weight {a:?}"))?;
        let b: u32 = b
            .trim()
            .parse()
            .map_err(|_| format!("invalid weight {b:?}"))?;
        policy = policy.with_weight(0, a).with_weight(1, b);
    }
    Ok(policy)
}

/// The multi-tenant contention demo: the victim solo, then the victim
/// co-run with the aggressor under the selected tenant policy, with the
/// per-tenant fairness telemetry printed side by side.
fn cmd_contend(args: &Args) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let cfg = args.config()?;
    let scheme = match args.get("scheme") {
        None => Scheme::Dfp,
        Some(_) => args.scheme()?,
    };
    if scheme.is_user_level() {
        return Err("contend measures kernel channel fairness; pick a kernel scheme".into());
    }
    let bench_arg = |key: &str, default: &str| -> Result<Benchmark, String> {
        let name = args.get(key).unwrap_or(default);
        Benchmark::from_name(name)
            .ok_or_else(|| format!("unknown benchmark {name:?} (try `sgx-preload list`)"))
    };
    let victim = bench_arg("victim", "microbenchmark")?;
    let aggressor = bench_arg("aggressor", "mixed-blood")?;
    let policy = tenant_policy_arg(args, cfg.epc_pages)?;
    // Each enclave runs its benchmark's SIP plan, as `SimRun::bench` gives
    // it, when the scheme instruments.
    let mk = |bench: Benchmark, label: &str, seed: u64| {
        AppSpec::new(
            label,
            bench.elrange_pages(cfg.scale),
            bench.build(InputSet::Ref, cfg.scale, seed),
        )
        .plan(build_plan(bench, &cfg, scheme))
        .build()
        .map_err(|e| e.to_string())
    };

    let solo = SimRun::new(&cfg)
        .scheme(scheme)
        .app(mk(victim, "victim", cfg.seed)?)
        .run_one()
        .map_err(|e| e.to_string())?;
    let pair_cfg = cfg.with_tenant_policy(policy);
    let pair = SimRun::new(&pair_cfg)
        .scheme(scheme)
        .apps([
            mk(victim, "victim", cfg.seed)?,
            mk(aggressor, "aggressor", cfg.seed + 1)?,
        ])
        .run()
        .map_err(|e| e.to_string())?;
    let (v, a) = (&pair[0], &pair[1]);

    println!(
        "contention under {} ({}), policy {}:",
        scheme.name(),
        victim.name(),
        if policy.is_none() {
            "none (shared-everything)".to_string()
        } else {
            format!(
                "weights {}:{}, soft shares {}/{} pages",
                policy.weight(0),
                policy.weight(1),
                policy.quota(0).soft_pages,
                policy.quota(1).soft_pages
            )
        }
    );
    println!(
        "{:<18} {:>16} {:>10} {:>16} {:>8} {:>10}",
        "run", "cycles", "faults", "channel wait", "shed", "res p50/99"
    );
    for (name, r) in [
        ("victim (solo)", &solo),
        ("victim", v),
        (&format!("aggressor ({})", aggressor.name()) as &str, a),
    ] {
        println!(
            "{:<18} {:>16} {:>10} {:>16} {:>8} {:>5}/{:<5}",
            name,
            r.total_cycles.raw(),
            r.faults,
            r.channel_wait_cycles.raw(),
            r.preloads_shed,
            r.residency_p50,
            r.residency_p99,
        );
    }
    let slowdown = v.total_cycles.raw() as f64 / solo.total_cycles.raw().max(1) as f64;
    let wait_delta = v.channel_wait_cycles.raw() as i128 - solo.channel_wait_cycles.raw() as i128;
    println!("victim slowdown {slowdown:.3}x; channel-wait delta {wait_delta:+} cycles");

    let mut json = String::new();
    json::obj(&mut json, |o| {
        o.field("scheme", scheme.name())
            .field("policy_active", !policy.is_none())
            .field("victim_slowdown", slowdown)
            .with("victim_solo", |out| solo.write_json(out))
            .with("victim", |out| v.write_json(out))
            .with("aggressor", |out| a.write_json(out))
            .field("wall_nanos", t0.elapsed().as_nanos() as u64);
    });
    write_json_out(args, &json)?;
    Ok(())
}

/// The default scheme panel for the leakage observatory: the baseline
/// fault channel plus the two preloading arms with opposite leakage
/// stories (DFP echoes the predictor, SIP masks faults).
const LEAKAGE_SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::Dfp, Scheme::Sip];

/// `leakage`: run every secret pair's two variants under every scheme
/// past the untrusted-OS observer, print the distinguishability table,
/// and gate on "no scheme leaks more than baseline + tolerance".
fn cmd_leakage(args: &Args) -> Result<(), String> {
    let cfg = args.config()?;
    let pairs: Vec<SecretPair> = match args.get("pairs") {
        None => SecretPair::ALL.to_vec(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse::<SecretPair>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?,
    };
    let schemes = if args.get("schemes").is_some() {
        args.schemes()?
    } else {
        LEAKAGE_SCHEMES.to_vec()
    };
    if let Some(s) = schemes.iter().find(|s| s.is_user_level()) {
        return Err(format!(
            "the observer watches kernel paging events; {} has none",
            s.name()
        ));
    }
    let window = args
        .parsed::<usize>("window")?
        .unwrap_or(sgx_preloading::observer::DEFAULT_WINDOW);
    if window == 0 {
        return Err("--window must be positive".into());
    }
    let tolerance = args.parsed::<f64>("tolerance")?.unwrap_or(0.05);
    if tolerance.is_nan() || tolerance < 0.0 {
        return Err("--tolerance must be non-negative".into());
    }

    let campaign = apply_trace_out(
        args,
        Campaign::leakage_grid("leakage", cfg.seed, &pairs, &schemes, cfg, window),
    );
    let report = campaign
        .run_with_jobs(args.jobs()?)
        .map_err(|e| e.to_string())?;

    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "pair/scheme", "faults", "H_fault", "H_win", "H_trans", "f_edit", "c_edit", "D"
    );
    for c in &report.cells {
        let l = c
            .leakage
            .as_ref()
            .expect("every leakage-grid cell carries a report");
        let a = &l.variants[0];
        println!(
            "{:<28} {:>8} {:>8.3} {:>8.3} {:>8.3} {:>8.4} {:>8.4} {:>8.4}",
            c.label,
            a.faults,
            a.fault_entropy,
            a.window_entropy_mean,
            a.transition_entropy,
            l.fault_edit_distance,
            l.channel_edit_distance,
            l.distinguishability(),
        );
    }

    // The gate: on every pair, no scheme may be more distinguishable
    // than that pair's baseline row by more than the tolerance.
    let mut violations: Vec<String> = Vec::new();
    for pair in &pairs {
        let Some(base) = report.cell(&format!("{}/baseline", pair.name())) else {
            continue;
        };
        let base_d = base
            .leakage
            .as_ref()
            .expect("leakage cell carries a report")
            .distinguishability();
        for scheme in &schemes {
            if *scheme == Scheme::Baseline {
                continue;
            }
            let label = format!("{}/{}", pair.name(), scheme.name());
            let Some(cell) = report.cell(&label) else {
                continue;
            };
            let d = cell
                .leakage
                .as_ref()
                .expect("leakage cell carries a report")
                .distinguishability();
            if d > base_d + tolerance {
                violations.push(format!(
                    "{label}: distinguishability {d:.4} exceeds baseline {base_d:.4} + {tolerance}"
                ));
            }
        }
    }

    if let Some(path) = args.get("json-out") {
        std::fs::write(path, report.to_canonical_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if !violations.is_empty() {
        return Err(format!("leakage gate failed: {}", violations.join("; ")));
    }
    println!(
        "leakage gate holds: no scheme exceeds its baseline row by more than {tolerance} \
         distinguishability"
    );
    Ok(())
}

/// [`Lineage::flags`] bit: an event carried the span id.
const EMITTED: u8 = 1;
/// [`Lineage::flags`] bit: a `preload-start` or `sip-prefetch-start` event
/// carried the span id.
const PRELOAD: u8 = 2;

/// The span-lineage checks `timeline` runs as the events stream past
/// (DESIGN.md §4.3): every parent span is emitted, every `fault-resolved`
/// parent is a preload span, and the stream ends with exactly one run
/// end. They read one flag byte per span id, as the Chrome sink's span
/// table does: a kernel allocates span ids densely from 1, so the table
/// stays near the event count.
#[derive(Default)]
struct Lineage {
    events: u64,
    run_ends: u64,
    /// The latest event's kind and value.
    last: Option<(EventKind, Option<u64>)>,
    /// [`EMITTED`] and [`PRELOAD`] bits by span id.
    flags: Vec<u8>,
    /// Links that failed their check as they streamed past, kept to be
    /// judged again at run end: a parent may appear after its child.
    deferred: Vec<LoggedEvent>,
}

impl Lineage {
    fn observe(&mut self, e: &LoggedEvent) {
        self.events += 1;
        let id = usize::try_from(e.span.raw()).expect("kernel span ids are dense");
        if id >= self.flags.len() {
            self.flags.resize(id + 1, 0);
        }
        let preload = matches!(
            e.what,
            EventKind::PreloadStart | EventKind::SipPrefetchStart
        );
        self.flags[id] |= if preload { EMITTED | PRELOAD } else { EMITTED };
        self.run_ends += u64::from(e.what == EventKind::RunEnd);
        if !self.check(e, &mut Vec::new()) {
            self.deferred.push(*e);
        }
        self.last = Some((e.what, e.value));
    }

    /// Checks `e`'s parent link against the spans seen so far, adding what
    /// it breaks to `violations`; whether it holds.
    fn check(&self, e: &LoggedEvent, violations: &mut Vec<String>) -> bool {
        let Some(p) = e.parent else { return true };
        let parent = usize::try_from(p.raw()).ok();
        let flags = parent.and_then(|i| self.flags.get(i)).map_or(0, |&f| f);
        let held = violations.len();
        if flags & EMITTED == 0 {
            violations.push(format!(
                "{} at {} has parent {p} which no event carries",
                e.what, e.at
            ));
        }
        if e.what == EventKind::FaultResolved && flags & PRELOAD == 0 {
            violations.push(format!(
                "fault-resolved at {} parents {p}, which is not a preload span",
                e.at
            ));
        }
        violations.len() == held
    }

    /// Distinct span ids seen.
    fn spans(&self) -> usize {
        self.flags.iter().filter(|&&f| f & EMITTED != 0).count()
    }

    /// What the whole stream breaks, once it has ended with a run of
    /// `total` cycles.
    fn violations(&self, total: Cycles) -> Vec<String> {
        let mut violations = Vec::new();
        for e in &self.deferred {
            self.check(e, &mut violations);
        }
        match self.last {
            Some((EventKind::RunEnd, value)) if self.run_ends == 1 => {
                if value != Some(total.raw()) {
                    violations.push(format!(
                        "run-end carries {value:?} cycles, report says {}",
                        total.raw()
                    ));
                }
            }
            _ => violations.push(format!(
                "expected the trace to end with exactly one run-end, saw {}",
                self.run_ends
            )),
        }
        violations
    }
}

fn cmd_timeline(args: &Args) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    let mut cfg = args.config()?;
    let bench = args.bench()?;
    let scheme = args.scheme()?;
    if scheme.is_user_level() {
        return Err(
            "timeline shows hardware-paging events; the user-level runtime has none".into(),
        );
    }
    let limit = args.parsed::<u64>("n")?.unwrap_or(40);
    let every = args.parsed::<u64>("series-every")?;
    let series_out = args.get("series-out");
    if every.is_some() && series_out.is_none() {
        return Err("--series-every needs --series-out".into());
    }
    if series_out.is_some() && cfg.series_interval == 0 {
        cfg = cfg.with_series_interval(every.unwrap_or(DEFAULT_TIMELINE_SERIES_INTERVAL));
    }

    let lineage = Rc::new(RefCell::new(Lineage::default()));
    let seen = Rc::clone(&lineage);
    let table = move |e: &LoggedEvent| {
        let mut lineage = seen.borrow_mut();
        if lineage.events < limit {
            println!(
                "{:>16}  {:<16} {:>8} {:>8}  {}",
                e.at.to_string(),
                e.what.to_string(),
                e.span.to_string(),
                e.parent.map(|p| p.to_string()).unwrap_or_default(),
                e.page.map(|p| p.to_string()).unwrap_or_default()
            );
        }
        lineage.observe(e);
    };
    let mut run = SimRun::new(&cfg)
        .scheme(scheme)
        .bench(bench)
        .sink(Box::new(table));
    // Both sinks write while the run goes on and keep their first write
    // error, which `finish` brings to the exit status after the run.
    let series = match series_out {
        Some(path) => {
            let format = if path.ends_with(".json") {
                SeriesFormat::Json
            } else {
                SeriesFormat::Csv
            };
            let sink = TimeSeriesSink::create(path, format)
                .map_err(|e| format!("--series-out {path}: {e}"))?;
            let (shared, sink) = SharedSink::new(sink);
            run = run.sink(Box::new(shared));
            Some((path, sink))
        }
        None => None,
    };
    let chrome = match args.get("chrome-out") {
        Some(path) => {
            let sink =
                ChromeTraceSink::create(path).map_err(|e| format!("--chrome-out {path}: {e}"))?;
            let (shared, sink) = SharedSink::new(sink);
            run = run.sink(Box::new(shared));
            Some((path, sink))
        }
        None => None,
    };
    if limit > 0 {
        println!(
            "{:>16}  {:<16} {:>8} {:>8}  page",
            "cycle", "event", "span", "parent"
        );
    }
    let report = run.run_one().map_err(|e| e.to_string())?;
    let lineage = lineage.borrow();
    if limit > 0 && lineage.events > limit {
        println!("  ... {} more events (raise -n)", lineage.events - limit);
    }

    let mut violations = lineage.violations(report.total_cycles);
    let reconciles = report.attribution.total() == report.total_cycles.raw();
    if !reconciles {
        violations.push(format!(
            "attribution buckets sum to {}, run total is {}",
            report.attribution.total(),
            report.total_cycles.raw()
        ));
    }

    println!(
        "{} events across {} spans; total {} cycles",
        lineage.events,
        lineage.spans(),
        report.total_cycles
    );
    if args.flag("attr") {
        let total = report.attribution.total().max(1) as f64;
        println!("cycle attribution (buckets sum to the total exactly):");
        for (name, v) in report.attribution.buckets() {
            println!(
                "  {:<16} {:>16} ({:>5.1}%)",
                name,
                v,
                v as f64 * 100.0 / total
            );
        }
    }
    if let Some((path, sink)) = series {
        sink.borrow_mut()
            .finish()
            .map_err(|e| format!("--series-out {path}: {e}"))?;
    }
    if let Some((path, sink)) = chrome {
        sink.borrow_mut()
            .finish()
            .map_err(|e| format!("--chrome-out {path}: {e}"))?;
        println!("chrome trace: {path} (open at ui.perfetto.dev)");
    }

    let mut json = String::new();
    json::obj(&mut json, |o| {
        o.field("bench", bench.name())
            .field("scheme", scheme.name())
            .field("total_cycles", report.total_cycles)
            .field("events", lineage.events)
            .field("spans", lineage.spans())
            .field("run_ends", lineage.run_ends)
            .field("reconciles", reconciles)
            .arr("violations", &violations, Value::write_value)
            .with("attribution", |out| report.attribution.write_json(out))
            .field("wall_nanos", t0.elapsed().as_nanos() as u64);
    });
    write_json_out(args, &json)?;

    if !violations.is_empty() {
        return Err(format!(
            "span invariants violated: {}",
            violations.join("; ")
        ));
    }
    println!("span invariants hold (lineage, run-end, attribution reconciles)");
    Ok(())
}

type Handler = fn(&Args) -> Result<(), String>;

/// Resolves a command name — for `trace`, the name plus its subcommand
/// (`trace record`) — to its handler and the lists of flags it reads.
fn handler(command: &str) -> Result<(Handler, &'static [&'static str]), String> {
    let command: (Handler, &[&str]) = match command {
        "list" => (
            |_| {
                cmd_list();
                Ok(())
            },
            &[],
        ),
        "run" => (cmd_run, &[CONFIG_FLAGS, "bench scheme jsonl hist"]),
        "campaign" => (
            cmd_campaign,
            &[CONFIG_FLAGS, GRID_FLAGS, "benches schemes hist attr"],
        ),
        // The classifier runs the paper's default stream settings, so the
        // stream, predictor and EDMM knobs mean nothing here.
        "profile" => (cmd_profile, &["scale seed epc-pages threshold bench"]),
        // A recording runs the generator alone: no simulator knob reaches it.
        "trace record" => (cmd_trace_record, &["scale seed bench n out"]),
        "trace convert" => (cmd_trace_convert, &["in out"]),
        "trace replay" => (
            cmd_trace_replay,
            &[CONFIG_FLAGS, "trace scheme source-bench diff"],
        ),
        "timeline" => (
            cmd_timeline,
            &[
                CONFIG_FLAGS,
                "bench scheme n chrome-out series-out series-every attr json-out",
            ],
        ),
        "contend" => (
            cmd_contend,
            &[
                CONFIG_FLAGS,
                "scheme victim aggressor policy weights json-out",
            ],
        ),
        "leakage" => (
            cmd_leakage,
            &[CONFIG_FLAGS, GRID_FLAGS, "pairs schemes window tolerance"],
        ),
        "help" | "--help" | "-h" => (
            |_| {
                print!("{USAGE}");
                Ok(())
            },
            &[],
        ),
        trace if trace == "trace" || trace.starts_with("trace ") => {
            return Err("trace needs a subcommand: record | convert | replay".into())
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    Ok(command)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match argv.as_slice() {
        [] => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
        [trace, sub, flags @ ..] if trace == "trace" => (format!("trace {sub}"), flags),
        [command, flags @ ..] => (command.clone(), flags),
    };
    let result = handler(&command).and_then(|(run, known)| {
        let args = Args::parse(&command, known, flags).map_err(|e| format!("{e}\n\n{USAGE}"))?;
        run(&args)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

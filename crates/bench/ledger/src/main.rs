//! `ledger` — the repository's one benchmark.
//!
//! ```text
//! ledger [--seed N] [--trace] [--append] [--compare]
//! ledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload` it runs every workload, each in a child process of
//! its own so `peak_rss_mb` belongs to one workload, prints every metric
//! with its median, min, max and sample count, and optionally appends the
//! results to `history.jsonl` (`--append`) or judges them against the
//! last recorded set (`--compare`, exit 1 on any regression).
//!
//! With `--workload` it runs that one workload in-process: set-up (timed
//! several times), one untimed warm-up pass, then closed-loop timed passes
//! with tracing off — a fixed count, or as many as fit in `--seconds`. With
//! `--trace` a serial traced pass follows and the per-layer metrics are
//! reported. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod history;
mod json;
mod layers;
mod stats;
mod suite;

use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sgx_workloads::Scale;

use crate::history::Record;
use crate::json::{quote, Json};
use crate::layers::{traced_pass, PER_LAYER};
use crate::stats::{median, quartiles, Better, Summary, Verdict};
use crate::suite::{paper_err_pp, Failure, Suite, Workload, JOBS};

/// A metric: its unit, direction, and how far it may worsen against the
/// last recorded median before `--compare` calls it a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// Regression bound as a share of the old median; 0 means exact.
    pub bound: f64,
    /// Absolute slack, in the metric's unit, that widens `bound` for
    /// medians so small that host noise alone moves them past the share.
    pub floor: f64,
}

impl MetricDef {
    /// The bound as a share of `old`, widened to cover [`MetricDef::floor`].
    pub fn share_bound(&self, old: f64) -> f64 {
        if self.bound == 0.0 {
            0.0
        } else {
            self.bound.max(self.floor / old.abs())
        }
    }
}

/// The metric names, units, directions and bounds, kept in one place:
/// `BENCHMARK.json` at the repository root.
const BENCHMARK_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../../BENCHMARK.json"
));

/// End-to-end metrics the ledger reports beyond `BENCHMARK.json`'s:
/// `paper_err_pp` exists on paper-grid only (see `suite::paper_err_pp`),
/// and `error_rate` travels on the result line as `failed`/`attempted`.
const LEDGER_ONLY: [(&str, &str); 2] = [("paper_err_pp", "pp"), ("error_rate", "fraction")];

/// Metrics `--compare` holds exact. It compares runs at one seed, where
/// simulated time and error counts move only with the code;
/// `BENCHMARK.json`'s runs vary the seed, so `sim_gcycles` carries a share
/// there.
const EXACT_AT_ONE_SEED: [&str; 3] = ["sim_gcycles", "paper_err_pp", "error_rate"];

/// `setup_s`'s absolute floor: its medians are 5–120 ms, and two runs of
/// one commit have put 40 ms between them.
const SETUP_FLOOR_S: f64 = 0.05;

/// The benchmark's metric definitions, read from [`BENCHMARK_JSON`].
#[derive(Debug)]
pub struct Spec {
    /// The end-to-end metrics, `BENCHMARK.json`'s then [`LEDGER_ONLY`], as
    /// `--compare` judges them. Only `BENCHMARK.json`'s go on the result
    /// line.
    pub end_to_end: Vec<MetricDef>,
    /// The per-layer metrics (no bound).
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let v = Json::parse(text)?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Json::arr)
                .ok_or_else(|| format!("BENCHMARK.json lacks list {key:?}"))
        };
        let text = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json entry lacks {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let name = text(m, "name")?;
                    let better = Better::from_name(&text(m, "better")?)
                        .ok_or_else(|| format!("{name}: bad \"better\""))?;
                    let bound = if EXACT_AT_ONE_SEED.contains(&name.as_str()) {
                        0.0
                    } else {
                        m.get("bound").and_then(Json::num).unwrap_or(0.0)
                    };
                    let floor = if name == "setup_s" {
                        SETUP_FLOOR_S
                    } else {
                        0.0
                    };
                    Ok(MetricDef {
                        unit: text(m, "unit")?,
                        name,
                        better,
                        bound,
                        floor,
                    })
                })
                .collect()
        };
        let mut end_to_end = metrics("end_to_end")?;
        end_to_end.extend(LEDGER_ONLY.iter().map(|&(name, unit)| MetricDef {
            name: name.to_string(),
            unit: unit.to_string(),
            better: Better::Lower,
            bound: 0.0,
            floor: 0.0,
        }));
        Ok(Spec {
            end_to_end,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The parsed [`BENCHMARK_JSON`].
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

/// The `SimConfig` default, so paper-grid reproduces the committed
/// `results/fig*.csv`.
const DEFAULT_SEED: u64 = 42;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;

const USAGE: &str = "usage: ledger [--seed N] [--trace] [--append] [--compare]\n       \
                     ledger --workload paper-grid|zoo-edmm|observe|contend [--seed N] \
                     [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    append: bool,
    compare: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        append: false,
        compare: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                o.workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                o.seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {v:?}"))?,
                );
            }
            "--trace" => {
                o.trace = true;
                if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                    o.trace = v == "1";
                }
            }
            "--append" => o.append = true,
            "--compare" => o.compare = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workload.is_some() && (o.append || o.compare) {
        return Err("--append/--compare work on a full run, not one --workload".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload {
        Some(w) => {
            let budget = match opts.seconds {
                Some(s) => Budget::Seconds(s),
                None => Budget::Passes(w.passes()),
            };
            let out = measure(w, Scale::FULL, opts.seed, budget, opts.trace);
            print!("{}", out.render(opts.trace));
            Ok(())
        }
        None => run_all(&opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// How many timed passes a run makes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many.
    Passes(usize),
    /// At least one, then another only while the median pass so far is
    /// expected to end within this many seconds of the first pass's start.
    Seconds(f64),
}

/// One workload's measured result.
#[derive(Debug, Clone)]
pub struct Outcome {
    workload: Workload,
    seed: u64,
    passes: usize,
    cells: usize,
    /// End-to-end samples, in [`Spec::end_to_end`] order (`paper_err_pp`
    /// only where defined).
    end_to_end: Vec<(&'static MetricDef, Vec<f64>)>,
    /// Per-layer values in [`PER_LAYER`] order, from a traced run.
    per_layer: Option<[f64; 30]>,
    attempted: u64,
    failures: Vec<Failure>,
    notes: Vec<String>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs one workload: a timed set-up, a warm-up pass, timed passes within
/// `budget`, and with `trace` the serial traced pass. Set-up is timed
/// [`SETUPS`] times in all: once before the warm-up, then after each timed
/// pass and, if passes run out first, at the end, so its samples span the
/// run's host conditions rather than one burst.
pub fn measure(w: Workload, scale: Scale, seed: u64, budget: Budget, trace: bool) -> Outcome {
    let setup = || timed(|| Suite::build(w, scale, seed)).1;
    let (suite, first_setup) = timed(|| Suite::build(w, scale, seed));
    let mut setups = vec![first_setup];
    eprintln!(
        "ledger: {}: {} cells per pass, warm-up",
        w.name(),
        suite.cell_count()
    );

    let warm = suite.run_pass(JOBS);
    let reference = warm.canonical();
    let mut failures = suite.check(&warm, 0, &reference);
    let mut attempted = warm.cells.len() as u64;
    drop(warm);

    let (mut walls, mut rates, mut sims, mut papers, mut pools) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    loop {
        let pass = suite.run_pass(JOBS);
        failures.extend(suite.check(&pass, walls.len() + 1, &reference));
        attempted += pass.cells.len() as u64;
        walls.push(pass.wall_s);
        rates.push(pass.accesses() as f64 / pass.wall_s);
        sims.push(pass.sim_gcycles());
        pools.push(pass.pool_efficiency());
        papers.extend(paper_err_pp(&pass));
        eprintln!(
            "ledger: {}: pass {} took {:.3}s",
            w.name(),
            walls.len(),
            pass.wall_s
        );
        if setups.len() < SETUPS {
            setups.push(setup());
        }
        let done = match budget {
            Budget::Passes(n) => walls.len() >= n,
            Budget::Seconds(s) => t0.elapsed().as_secs_f64() + median(&walls) > s,
        };
        if done {
            break;
        }
    }
    while setups.len() < SETUPS {
        setups.push(setup());
    }
    let peak_rss = peak_rss_mib();

    let mut notes = Vec::new();
    let mut per_layer = None;
    if trace {
        eprintln!("ledger: {}: traced pass", w.name());
        let traced = traced_pass(&suite, walls.len() + 1);
        failures.extend(suite.check(&traced.pass, walls.len() + 1, &reference));
        failures.extend(traced.failures.iter().cloned());
        attempted += traced.pass.cells.len() as u64;
        per_layer = Some(
            traced
                .layers
                .values(median(&pools), traced.wall_s / median(&walls)),
        );
        if traced.dfp_skipped {
            notes.push(format!(
                "dfp.predict_s and dfp.pages_predicted are 0 on {}: LoggedEvent carries no \
                 pid, so a multi-enclave fault stream is not replayed",
                w.name()
            ));
        }
    }

    let error_rate = failing_cells(&failures) as f64 / attempted as f64;
    let mut end_to_end = Vec::new();
    for def in &spec().end_to_end {
        let samples = match def.name.as_str() {
            "setup_s" => setups.clone(),
            "wall_s" => walls.clone(),
            "accesses_per_s" => rates.clone(),
            "peak_rss_mb" => vec![peak_rss],
            "sim_gcycles" => sims.clone(),
            "paper_err_pp" if papers.is_empty() => continue,
            "paper_err_pp" => papers.clone(),
            "error_rate" => vec![error_rate],
            other => panic!("BENCHMARK.json names {other:?}, which the ledger does not measure"),
        };
        end_to_end.push((def, samples));
    }
    Outcome {
        workload: w,
        seed,
        passes: walls.len(),
        cells: suite.cell_count(),
        end_to_end,
        per_layer,
        attempted,
        failures,
        notes,
    }
}

/// Failing cells, counting a cell once per pass however many checks it
/// failed there.
fn failing_cells(failures: &[Failure]) -> u64 {
    let cells: BTreeSet<(usize, &str)> = failures
        .iter()
        .map(|f| (f.pass, f.label.as_str()))
        .collect();
    cells.len() as u64
}

impl Outcome {
    /// The human-readable report, then the one-line JSON result: the
    /// end-to-end metrics, or with `trace` the per-layer ones.
    pub fn render(&self, trace: bool) -> String {
        let mut out = format!(
            "ledger {}: seed {}, {} cells/pass, {} timed passes after 1 warm-up, jobs {JOBS}, \
             nproc {}\n",
            self.workload.name(),
            self.seed,
            self.cells,
            self.passes,
            nproc()
        );
        let mut line = Vec::new();
        for (def, samples) in &self.end_to_end {
            let s = Summary::of(samples);
            let [q1, _, q3] = quartiles(samples);
            let iqr = if q3 == q1 {
                0.0
            } else {
                (q3 - q1) / s.median.abs()
            };
            out.push_str(&format!(
                "metric {} [{}] median {} min {} max {} n {} iqr {iqr:.4}\n",
                def.name, def.unit, s.median, s.min, s.max, s.n
            ));
            if !trace && !LEDGER_ONLY.iter().any(|&(name, _)| name == def.name) {
                line.push((def.name.as_str(), def.unit.as_str(), s.median));
            }
        }
        if let Some(values) = &self.per_layer {
            for (&name, &v) in PER_LAYER.iter().zip(values) {
                let def = spec().per_layer.iter().find(|d| d.name == name);
                let unit = def.map_or("-", |d| d.unit.as_str());
                out.push_str(&format!(
                    "metric {name} [{unit}] median {v} min {v} max {v} n 1\n"
                ));
                if trace && def.is_some() {
                    line.push((name, unit, v));
                }
            }
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!(
                "failure: pass {}: {}: {}\n",
                f.pass, f.label, f.why
            ));
        }
        let mut correct = self.failures.is_empty();
        let mut metrics = Vec::new();
        for (name, unit, v) in line {
            // JSON has no NaN; a non-finite metric is a broken run.
            correct &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                quote(name),
                quote(unit)
            ));
        }
        out.push_str(&format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.attempted,
            failing_cells(&self.failures),
            metrics.join(",")
        ));
        out
    }
}

/// The history file beside this package's manifest.
fn history_path() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/history.jsonl"))
}

/// Runs every workload in a child process of its own, prints their
/// reports, then compares with and/or appends to the history.
fn run_all(opts: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let run = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let commit = git_commit();
    let mut records = Vec::new();
    let mut incorrect = Vec::new();
    for w in Workload::ALL {
        let seed = opts.seed.to_string();
        let trace = if opts.trace { "1" } else { "0" };
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed, "--trace", trace])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
        for line in stdout.lines() {
            if let Some((metric, unit, summary)) = parse_metric_line(line) {
                records.push(Record {
                    run,
                    commit: commit.clone(),
                    nproc: nproc(),
                    seed: opts.seed,
                    workload: w.name().to_string(),
                    metric,
                    unit,
                    summary,
                });
            }
        }
        let result = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("{} printed nothing", w.name()))
            .and_then(Json::parse)?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            incorrect.push(w.name());
        }
    }

    let mut worse = Vec::new();
    if opts.compare {
        let history = history::load(history_path())?;
        println!(
            "compare against the last record at seed {}, nproc {} in {}:",
            opts.seed,
            nproc(),
            history_path().display()
        );
        for c in history::compare(&records, &history, &spec().end_to_end) {
            let old = c.old.map_or("-".to_string(), |o| o.to_string());
            let verdict = c.verdict.map_or("new".to_string(), |v| v.to_string());
            println!(
                "  {:<11} {:<15} {:>24} -> {:<24} {verdict}",
                c.workload, c.metric, old, c.new
            );
            if c.verdict == Some(Verdict::Worse) {
                worse.push(format!("{}/{}", c.workload, c.metric));
            }
        }
    }
    if opts.append {
        history::append(history_path(), &records)?;
        eprintln!(
            "ledger: appended {} records to {}",
            records.len(),
            history_path().display()
        );
    }
    if !incorrect.is_empty() {
        return Err(format!("output checks failed on {}", incorrect.join(", ")));
    }
    if !worse.is_empty() {
        return Err(format!("worse than the last record: {}", worse.join(", ")));
    }
    Ok(())
}

/// Parses `metric NAME [UNIT] median X min X max X n N ...`.
fn parse_metric_line(line: &str) -> Option<(String, String, Summary)> {
    let t: Vec<&str> = line.split_whitespace().collect();
    if t.len() < 11 || t[0] != "metric" || t[3] != "median" || t[9] != "n" {
        return None;
    }
    let unit = t[2].strip_prefix('[')?.strip_suffix(']')?;
    Some((
        t[1].to_string(),
        unit.to_string(),
        Summary {
            median: t[4].parse().ok()?,
            min: t[6].parse().ok()?,
            max: t[8].parse().ok()?,
            n: t[10].parse().ok()?,
        },
    ))
}

/// The commit this checkout is at, or `unknown` outside git.
fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process's peak resident set (`VmHWM`) in MiB; NaN where
/// `/proc/self/status` is unavailable, which fails the run's result.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_both_command_forms() {
        let o = parse_args(&args("--workload zoo-edmm --seed 7 --seconds 10 --trace 0")).unwrap();
        assert_eq!(o.workload, Some(Workload::ZooEdmm));
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(10.0), false));
        let o = parse_args(&args("--trace --append")).unwrap();
        assert!(o.trace && o.append && o.workload.is_none());
        assert_eq!(o.seed, DEFAULT_SEED);
        let o = parse_args(&args("--trace 1 --compare")).unwrap();
        assert!(o.trace && o.compare);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--bogus",
            "--workload observe --append",
        ] {
            assert!(
                parse_args(&args(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn metric_lines_round_trip() {
        let (name, unit, s) =
            parse_metric_line("metric wall_s [s] median 2.5 min 2 max 3 n 3 iqr 0.4000").unwrap();
        assert_eq!((name.as_str(), unit.as_str()), ("wall_s", "s"));
        assert_eq!(
            s,
            Summary {
                median: 2.5,
                min: 2.0,
                max: 3.0,
                n: 3
            }
        );
        assert!(parse_metric_line("note: metric wall_s").is_none());
    }

    #[test]
    fn failing_cells_count_once_per_pass() {
        let f = |pass, label| Failure::new(pass, label, "x");
        let failures = [f(1, "a"), f(1, "a"), f(1, "b"), f(2, "a")];
        assert_eq!(failing_cells(&failures), 3);
    }

    /// Every workload at scale 64, one timed pass, traced: every metric
    /// `BENCHMARK.json` names is emitted and finite, and no cell fails.
    #[test]
    fn smoke_all_workloads_emit_every_listed_metric() {
        let spec = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::arr)
                .expect("metric list")
                .iter()
                .map(|m| m.get("name").and_then(Json::str).expect("name").to_string())
                .collect()
        };
        let listed_workloads = names("workloads");
        assert_eq!(
            listed_workloads,
            Workload::ALL.map(|w| w.name().to_string()).to_vec()
        );
        for w in Workload::ALL {
            let out = measure(w, Scale::new(64), DEFAULT_SEED, Budget::Passes(1), true);
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let text = out.render(trace);
                let result = Json::parse(text.lines().last().unwrap()).unwrap();
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
                let metrics = result.get("metrics").and_then(Json::obj).unwrap();
                let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(emitted, names(key), "{} {key}", w.name());
                for (name, m) in metrics {
                    let v = m.get("value").and_then(Json::num).unwrap();
                    assert!(v.is_finite(), "{}: {name} = {v}", w.name());
                }
            }
            let error_rate = out.end_to_end.iter().find(|(d, _)| d.name == "error_rate");
            assert_eq!(error_rate.map(|(_, s)| s[0]), Some(0.0));
        }
    }

    /// The compare definitions come from `BENCHMARK.json`, with the
    /// ledger's own metrics after them and its fixed-seed overrides.
    #[test]
    fn spec_reads_benchmark_json_and_applies_the_overrides() {
        let def = |name: &str| {
            spec()
                .end_to_end
                .iter()
                .find(|d| d.name == name)
                .unwrap_or_else(|| panic!("no {name}"))
        };
        let setup = def("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        assert!(setup.bound > 0.0 && setup.floor == SETUP_FLOOR_S);
        // A 0.06 s median gets the floor's 83%, a 1 s one the plain share.
        assert!((setup.share_bound(0.06) - 0.05 / 0.06).abs() < 1e-12);
        assert_eq!(setup.share_bound(1.0), setup.bound);
        assert_eq!(def("accesses_per_s").better, Better::Higher);
        for exact in EXACT_AT_ONE_SEED {
            assert_eq!(def(exact).share_bound(1.0), 0.0, "{exact}");
        }
        let n = spec().end_to_end.len();
        let tail: Vec<&str> = spec().end_to_end[n - LEDGER_ONLY.len()..]
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(tail, LEDGER_ONLY.map(|(name, _)| name));
        let per_layer: Vec<&str> = spec().per_layer.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(per_layer, PER_LAYER);
        assert!(Spec::parse("{\"end_to_end\": [{\"name\": \"x\"}]}").is_err());
    }
}

//! The figure table: every table and figure of the paper's evaluation, plus
//! the ablations, as entries of one list, [`FIGURES`]. An entry declares the
//! cells it reads and turns the shared reports into its CSV table(s).
//!
//! [`run`] gathers the selected figures' cells into one [`Plan`] and runs
//! each distinct cell once, as one pass of [`SimRun`]s on the work-stealing
//! pool, under a [`HistogramSink`] where the distribution tables read its
//! histograms. Every cell runs on the base seed, so a scheme and its
//! baseline replay one access stream. A cell is labelled
//! `bench/scheme[/point]`; a [`Point`] that leaves the run unchanged (a
//! stream, SIP or placement knob under a baseline, or the paper default)
//! drops out of the label, so every figure reading a run reads one cell.
//! A figure reads only the cells it declared. Runs no cell expresses
//! (co-runs, victim policies, the outside-enclave model) stay in their
//! figure's builder.
//!
//! A figure also carries the paper's claims about it: each claim is a
//! predicate over the values its builder already reads, judged in the same
//! pass and returned as a [`Verdict`] with the figure's [`Output`]. No
//! claim runs a simulation of its own; a claim whose cells no table shows
//! declares them on its figure.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::path::Path;

use sgx_dfp::{MultiStreamPredictor, NoPredictor, Predictor, ProcessId, StreamConfig};
use sgx_epc::{usable_epc_pages, VictimPolicy, PAGE_SIZE_BYTES};
use sgx_kernel::{HistogramSink, Kernel, KernelConfig, TraceHistograms};
use sgx_observer::OramModel;
use sgx_preload_core::{
    build_plan, effective_jobs, run_indexed, AppSpec, PredictorKind, RunReport, Scheme, SimConfig,
    SimRun, TenantPolicy,
};
use sgx_sim::Cycles;
use sgx_sip::{
    profile_stream, InstrumentationPlan, NotifyPlacement, SipConfig, NOTIFY_FUNCTION_LOC,
};
use sgx_workloads::{
    AccessIter, Benchmark, Category, InputSet, PageRange, Scale, SequentialScan, SiteRange,
};

use crate::{norm, paper, pct, write_artifact, ResultTable};

use Benchmark::{
    Bwaves, Deepsjeng, Exchange2, Lbm, Leela, Mcf, Mcf2006, Microbenchmark, MixedBlood, Mser, Nab,
    Omnetpp, Roms, Sift, Wrf, Xz,
};
use Scheme::{Baseline, Dfp, DfpStop, Hybrid, Sip, UserLevel};

/// A named configuration away from the paper's: the optional third part of
/// a cell label. [`Point::config`] is the one place each name maps to its
/// [`SimConfig`] builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Point {
    /// The paper's configuration at the run's scale (no label suffix).
    Base,
    /// DFP's `stream_list` length (Fig. 6): `len=N`.
    ListLen(usize),
    /// DFP's `LOADLENGTH` (Fig. 7): `ll=N`.
    LoadLength(u64),
    /// SIP's irregular-ratio threshold (Fig. 9): `threshold=X%`.
    Threshold(f64),
    /// EPC capacity as a multiple of the scale's EPC (§6): `epc=Nx`.
    Epc(u64),
    /// SIP notification hoisting distance, 0 = conservative (§3.2): `d=N`.
    Distance(usize),
    /// The predictor of DFP schemes (§4.1): `pred=<kind>`.
    Predictor(PredictorKind),
}

impl Point {
    /// The label suffix (empty for [`Point::Base`]).
    pub fn name(self) -> String {
        match self {
            Point::Base => String::new(),
            Point::ListLen(n) => format!("len={n}"),
            Point::LoadLength(n) => format!("ll={n}"),
            Point::Threshold(t) => format!("threshold={:.1}%", t * 100.0),
            Point::Epc(m) => format!("epc={m}x"),
            Point::Distance(d) => format!("d={d}"),
            Point::Predictor(kind) => format!("pred={kind}"),
        }
    }

    /// The configuration the point names, applied to `base`.
    pub fn config(self, base: &SimConfig) -> SimConfig {
        match self {
            Point::Base | Point::Distance(0) => *base,
            Point::ListLen(n) => base.with_stream(StreamConfig::paper_defaults().with_list_len(n)),
            Point::LoadLength(n) => {
                base.with_stream(StreamConfig::paper_defaults().with_load_length(n))
            }
            Point::Threshold(t) => base.with_sip(SipConfig::paper_defaults().with_threshold(t)),
            Point::Epc(m) => base.with_epc_pages(base.epc_pages * m),
            Point::Distance(d) => base.with_placement(NotifyPlacement::Early { distance: d }),
            Point::Predictor(kind) => base.with_predictor(kind),
        }
    }

    /// Whether a baseline run reads the point. A baseline has an empty
    /// plan, no predictor and no valve, so no stream, SIP or placement
    /// setting reaches it.
    fn reaches_baseline(self) -> bool {
        matches!(self, Point::Base | Point::Epc(_))
    }
}

/// One distinct simulation: a benchmark under a scheme at a configuration.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    /// `bench/scheme[/point]`.
    pub label: String,
    /// The benchmark.
    pub bench: Benchmark,
    /// The scheme.
    pub scheme: Scheme,
    /// The full configuration.
    pub cfg: SimConfig,
    /// Whether the run carries a [`HistogramSink`] (the distribution
    /// tables read its histograms).
    pub histograms: bool,
}

/// The distinct cells a set of figures reads, in declaration order.
#[derive(Debug)]
pub struct Plan {
    base: SimConfig,
    cells: Vec<PlannedCell>,
    index: HashMap<String, usize>,
}

impl Plan {
    /// Gathers the cells `figures` declare, at the paper's configuration
    /// for `scale`.
    pub fn new(figures: &[&Figure], scale: Scale) -> Self {
        let mut plan = Plan {
            base: SimConfig::at_scale(scale),
            cells: Vec::new(),
            index: HashMap::new(),
        };
        for figure in figures {
            (figure.cells)(&mut plan);
        }
        plan
    }

    /// The distinct cells, in declaration order.
    pub fn cells(&self) -> &[PlannedCell] {
        &self.cells
    }

    /// Declares `benches × schemes` at the base configuration.
    pub fn grid(&mut self, benches: &[Benchmark], schemes: &[Scheme]) {
        self.sweep(benches, schemes, &[Point::Base]);
    }

    /// Declares `benches × schemes × points`.
    pub fn sweep(&mut self, benches: &[Benchmark], schemes: &[Scheme], points: &[Point]) {
        self.declare(benches, schemes, points, false);
    }

    /// Declares `benches × schemes` at the base configuration, run under a
    /// [`HistogramSink`].
    pub fn histograms(&mut self, benches: &[Benchmark], schemes: &[Scheme]) {
        self.declare(benches, schemes, &[Point::Base], true);
    }

    fn declare(&mut self, benches: &[Benchmark], schemes: &[Scheme], points: &[Point], hist: bool) {
        for &bench in benches {
            for &scheme in schemes {
                for &point in points {
                    self.register(bench, scheme, point, hist);
                }
            }
        }
    }

    /// The point a cell runs at: [`Point::Base`] when `point` leaves the
    /// run unchanged.
    fn canonical(&self, scheme: Scheme, point: Point) -> Point {
        let unchanged = (scheme == Baseline && !point.reaches_baseline())
            || format!("{:?}", point.config(&self.base)) == format!("{:?}", self.base);
        if unchanged {
            Point::Base
        } else {
            point
        }
    }

    fn label(&self, bench: Benchmark, scheme: Scheme, point: Point) -> String {
        match self.canonical(scheme, point) {
            Point::Base => format!("{}/{}", bench.name(), scheme.name()),
            point => format!("{}/{}/{}", bench.name(), scheme.name(), point.name()),
        }
    }

    /// Registers a cell once: a label registered again keeps its first
    /// cell, which carries a histogram sink if either registration asks.
    fn register(&mut self, bench: Benchmark, scheme: Scheme, point: Point, histograms: bool) {
        let label = self.label(bench, scheme, point);
        let cfg = self.canonical(scheme, point).config(&self.base);
        if let Some(&i) = self.index.get(&label) {
            let cell = &mut self.cells[i];
            debug_assert_eq!(
                format!("{:?}", cell.cfg),
                format!("{cfg:?}"),
                "cell {label} registered with two configs"
            );
            cell.histograms |= histograms;
            return;
        }
        self.index.insert(label.clone(), self.cells.len());
        self.cells.push(PlannedCell {
            label,
            bench,
            scheme,
            cfg,
            histograms,
        });
    }

    /// Runs every cell once, in one pass on the work-stealing pool, with a
    /// [`HistogramSink`] on the cells declared through
    /// [`Plan::histograms`].
    ///
    /// # Panics
    ///
    /// Panics if a cell fails to run (every figure cell is a kernel or
    /// user-level scheme on a known benchmark, so none does).
    fn execute(&self) -> HashMap<String, Run> {
        let runs = run_indexed(self.cells.len(), effective_jobs(None), |i| {
            let c = &self.cells[i];
            let mut run = SimRun::new(&c.cfg).scheme(c.scheme).bench(c.bench);
            let mut hists = None;
            if c.histograms {
                let (sink, shared) = HistogramSink::new();
                run = run.sink(Box::new(sink));
                hists = Some(shared);
            }
            let report = run.run_one().expect("every figure cell runs");
            (report, hists.map(|h| h.borrow().clone()))
        });
        let labels = self.cells.iter().map(|c| c.label.clone());
        labels.zip(runs).collect()
    }
}

/// One executed cell: its report, plus its histograms when it ran under a
/// [`HistogramSink`].
type Run = (RunReport, Option<TraceHistograms>);

/// A figure's view of the shared runs: only the cells it declared.
struct Reports<'a> {
    own: Plan,
    runs: &'a HashMap<String, Run>,
}

impl Reports<'_> {
    /// The paper's configuration at the run's scale.
    fn cfg(&self) -> &SimConfig {
        &self.own.base
    }

    /// The report of `bench` under `scheme` at the base configuration.
    fn get(&self, bench: Benchmark, scheme: Scheme) -> &RunReport {
        self.at(bench, scheme, Point::Base)
    }

    /// The report of `bench` under `scheme` at `point`; the figure must
    /// have declared the cell.
    fn at(&self, bench: Benchmark, scheme: Scheme, point: Point) -> &RunReport {
        &self.run(bench, scheme, point).0
    }

    /// The improvement of `bench` under `scheme` over its baseline.
    fn gain(&self, bench: Benchmark, scheme: Scheme) -> f64 {
        self.gain_at(bench, scheme, Point::Base)
    }

    /// The improvement of `bench` under `scheme` at `point` over its
    /// baseline at the same point.
    fn gain_at(&self, bench: Benchmark, scheme: Scheme, point: Point) -> f64 {
        self.at(bench, scheme, point)
            .improvement_over(self.at(bench, Baseline, point))
    }

    /// The histograms of a cell declared through [`Plan::histograms`].
    fn histograms(&self, bench: Benchmark, scheme: Scheme) -> &TraceHistograms {
        let hists = &self.run(bench, scheme, Point::Base).1;
        hists.as_ref().expect("cell declared with histograms")
    }

    fn run(&self, bench: Benchmark, scheme: Scheme, point: Point) -> &Run {
        let label = self.own.label(bench, scheme, point);
        assert!(
            self.own.index.contains_key(&label),
            "{label} is not a declared cell of this figure"
        );
        &self.runs[&label]
    }
}

/// One paper claim judged over a figure's own cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The id of the figure whose values the claim reads.
    pub figure: &'static str,
    /// The claim, with its bound.
    pub claim: &'static str,
    /// Whether the measured values meet the bound.
    pub holds: bool,
    /// The measured values the claim was judged on.
    pub measured: String,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let status = if self.holds { "holds" } else { "FAILS" };
        write!(
            f,
            "{}: {}: {status} ({})",
            self.figure, self.claim, self.measured
        )
    }
}

/// What one figure produces.
#[derive(Debug, Clone, Default)]
pub struct Output {
    /// Its tables, one CSV each.
    pub tables: Vec<ResultTable>,
    /// Footnote lines printed under the tables.
    pub notes: Vec<String>,
    /// Raw series written beside the tables: (file name, CSV contents).
    pub series: Vec<(String, String)>,
    /// One verdict per paper claim the figure carries.
    pub verdicts: Vec<Verdict>,
}

impl Output {
    fn of(tables: Vec<ResultTable>) -> Self {
        Output {
            tables,
            ..Output::default()
        }
    }

    fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Judges `claim` by `(holds, measured values)`; [`run`] fills in the
    /// figure id.
    fn claim(mut self, claim: &'static str, (holds, measured): (bool, String)) -> Self {
        self.verdicts.push(Verdict {
            figure: "",
            claim,
            holds,
            measured,
        });
        self
    }

    /// Prints the tables, notes and verdicts and writes every CSV into
    /// `dir`.
    pub fn write(&self, dir: &Path) {
        for (name, csv) in &self.series {
            write_artifact(dir, name, csv);
        }
        for table in &self.tables {
            table.finish(dir);
        }
        for note in &self.notes {
            println!("   {note}");
        }
        for verdict in &self.verdicts {
            println!("   claim {verdict}");
        }
    }
}

/// Judges a claim over several benchmarks, each judged as `(benchmark,
/// holds, measured values)`: it holds when it holds on every one, and its
/// measured values name each benchmark's.
fn all_of(judged: impl IntoIterator<Item = (Benchmark, bool, String)>) -> (bool, String) {
    let mut holds = true;
    let mut measured = Vec::new();
    for (bench, ok, values) in judged {
        holds &= ok;
        measured.push(format!("{} {values}", bench.name()));
    }
    (holds, measured.join("; "))
}

/// One entry of the figure table.
pub struct Figure {
    /// The CSV files its tables write, without `.csv`; the first is the
    /// figure's id.
    pub csvs: &'static [&'static str],
    cells: fn(&mut Plan),
    tables: fn(&Reports) -> Output,
}

impl Figure {
    /// The id the `figures` bench selects the figure by: its first CSV id.
    pub fn id(&self) -> &'static str {
        self.csvs[0]
    }
}

/// The figures whose ids are in `ids`, in table order; every figure when
/// `ids` is empty.
///
/// # Errors
///
/// An unknown id, with the list of valid ones.
pub fn select<S: AsRef<str>>(ids: &[S]) -> Result<Vec<&'static Figure>, String> {
    let valid: Vec<&str> = FIGURES.iter().map(Figure::id).collect();
    if let Some(bad) = ids.iter().map(AsRef::as_ref).find(|id| !valid.contains(id)) {
        let valid = valid.join(", ");
        return Err(format!("unknown figure id {bad:?}; valid ids: {valid}"));
    }
    let wanted = |f: &&Figure| ids.is_empty() || ids.iter().any(|id| id.as_ref() == f.id());
    Ok(FIGURES.iter().filter(wanted).collect())
}

/// Runs the cells of `figures` once and builds their tables and verdicts
/// at `scale`.
pub fn run(figures: &[&Figure], scale: Scale) -> Vec<Output> {
    let runs = Plan::new(figures, scale).execute();
    run_indexed(figures.len(), effective_jobs(None), |i| {
        // A figure sees only the cells it declares.
        let own = Plan::new(&figures[i..=i], scale);
        let mut output = (figures[i].tables)(&Reports { own, runs: &runs });
        for verdict in &mut output.verdicts {
            verdict.figure = figures[i].id();
        }
        output
    })
}

/// Declares [`FIGURES`]. An entry names its builder, whose name is the
/// figure id and its first CSV, then any further CSVs, then the cells it
/// reads.
macro_rules! figures {
    ($($tables:ident $(+ $csv:literal)* => $cells:expr;)*) => {
        /// Every table and figure, in the paper's order, then the ablations.
        pub const FIGURES: &[Figure] = &[$(Figure {
            csvs: &[stringify!($tables) $(, $csv)*],
            cells: $cells,
            tables: $tables,
        }),*];
    };
}

figures! {
    motivation => |p| p.grid(&[Microbenchmark], &[Baseline]);
    fig3_patterns => |_| {};
    table1_classification => |p| p.grid(&SMALL_WS_BENCHES, &[Baseline, Dfp, DfpStop, Sip, Hybrid]);
    fig6_streamlist_sweep =>
        |p| p.sweep(&FIG6_BENCHES, &[Baseline, Dfp], &FIG6_LENGTHS.map(Point::ListLen));
    fig7_loadlength_sweep =>
        |p| p.sweep(&FIG7_BENCHES, &[Baseline, Dfp], &FIG7_LOADLENGTHS.map(Point::LoadLength));
    fig8_dfp => |p| p.grid(&FIG8_BENCHES, &[Baseline, Dfp, DfpStop]);
    fig9_threshold_sweep =>
        |p| p.sweep(&FIG9_BENCHES, &[Baseline, Sip], &FIG9_THRESHOLDS.map(Point::Threshold));
    fig10_sip => |p| p.grid(&C_BENCHES, &[Baseline, Sip]);
    fig11_realworld => |p| p.grid(&[Sift, Mser], &[Baseline, DfpStop, Sip, Hybrid]);
    fig12_hybrid => |p| p.grid(&C_BENCHES, &[Baseline, Sip, DfpStop, Hybrid]);
    fig13_mixed_blood => |p| p.grid(&[MixedBlood], &[Baseline, Sip, DfpStop, Hybrid]);
    table2_tcb => |_| {};
    ablation_predictors =>
        |p| p.sweep(&PREDICTOR_BENCHES, &[Baseline, Dfp], &PREDICTORS.map(Point::Predictor));
    ablation_early_notify =>
        |p| p.sweep(&NOTIFY_BENCHES, &[Baseline, Sip], &NOTIFY_DISTANCES.map(Point::Distance));
    ablation_eviction => |p| p.grid(&EVICTION_BENCHES, &[Baseline, Dfp]);
    ablation_oram => |_| {};
    ablation_epc_size => |p| p.sweep(&[Lbm], &[Baseline, Dfp], &EPC_MULTIPLES.map(Point::Epc));
    ablation_contention => |p| p.grid(&[Lbm], &[Baseline, DfpStop]);
    ablation_threads => |_| {};
    comparison_userspace =>
        |p| p.grid(&USERSPACE_BENCHES, &[Baseline, DfpStop, Hybrid, UserLevel]);
    dist_fault_latency + "dist_fault_latency_buckets" =>
        |p| p.histograms(&LATENCY_BENCHES, &LATENCY_SCHEMES);
    dist_preload_lead => |p| p.histograms(&LEAD_BENCHES, &LEAD_SCHEMES);
    fairness_isolation => |_| {};
}

/// The paper reference for `name` in a `(name, value)` table, or `-`.
fn reference(table: &[(&str, f64)], name: &str) -> String {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| pct(*v))
        .unwrap_or_else(|| "-".into())
}

fn yes_no(fired: bool) -> String {
    if fired { "yes" } else { "no" }.to_string()
}

/// §1/§2: the ≈46× slowdown of a sequential 1 GiB scan moved into an
/// enclave, and the per-fault cost decomposition (AEX + ELDU + ERESUME
/// ≈ 64k cycles vs ≈2k outside).
fn motivation(r: &Reports) -> Output {
    let cfg = r.cfg();
    let bench = Microbenchmark;
    let outside = SimRun::new(cfg)
        .outside("outside", bench.build(InputSet::Ref, cfg.scale, cfg.seed))
        .run_one()
        .expect("outside-enclave run");
    let inside = r.get(bench, Baseline);
    let slowdown = inside.total_cycles.raw() as f64 / outside.total_cycles.raw() as f64;

    let mut t = ResultTable::new(
        "motivation",
        "sequential 1 GiB scan, in vs out of enclave",
        "≈46x slowdown; enclave fault 60k–64k cycles, regular fault ≈2k (§1–2)",
    );
    t.columns(vec!["cycles", "faults", "mean fault", "slowdown"]);
    t.row(
        "outside enclave",
        vec![
            outside.total_cycles.raw().to_string(),
            outside.faults.to_string(),
            cfg.costs.non_epc_fault.raw().to_string(),
            "1.0x".into(),
        ],
    );
    t.row(
        "inside enclave",
        vec![
            inside.total_cycles.raw().to_string(),
            inside.faults.to_string(),
            inside.fault_service_mean.raw().to_string(),
            format!("{slowdown:.1}x"),
        ],
    );
    t.row(
        "paper",
        vec![
            "-".into(),
            "-".into(),
            "60,000-64,000".into(),
            format!("{:.0}x", paper::MOTIVATION_SLOWDOWN),
        ],
    );
    let c = cfg.costs;
    let mean = inside.fault_service_mean.raw();
    Output::of(vec![t])
        .note(format!(
            "fault decomposition: AEX {} + handler {} + ELDU {} + ERESUME {} = {}",
            c.aex,
            c.os_fault_path,
            c.eldu,
            c.eresume,
            c.demand_fault_total()
        ))
        .claim(
            "the enclave slows the sequential scan by more than 15x and less than 60x",
            (
                slowdown > 15.0 && slowdown < 60.0,
                format!("{slowdown:.1}x"),
            ),
        )
        .claim(
            "an enclave fault costs 60,000-70,000 cycles on average (§2's 60k-64k plus the \
             handler)",
            (
                (60_000..70_000).contains(&mean),
                format!("mean {mean} cycles"),
            ),
        )
}

/// Accesses of each Fig. 3 series.
const FIG3_SAMPLES: usize = 20_000;

/// Fig. 3: page-level access patterns of bwaves, deepsjeng and lbm. The
/// page-vs-index series go to their own CSVs; the table summarises their
/// regularity: the share of +1-page steps and the Class-2/Class-3 shares.
fn fig3_patterns(r: &Reports) -> Output {
    let cfg = r.cfg();
    let mut t = ResultTable::new(
        "fig3_patterns",
        "page-access pattern characterisation",
        "bwaves/lbm evidently sequential, deepsjeng near-random (Fig. 3)",
    );
    t.columns(vec!["+1 steps", "class2", "class3", "series csv"]);
    let mut out = Output::default();
    for bench in [Bwaves, Deepsjeng, Lbm] {
        let stream = || {
            bench
                .build(InputSet::Ref, cfg.scale, cfg.seed)
                .take(FIG3_SAMPLES)
        };
        let pages: Vec<u64> = stream().map(|a| a.page.raw()).collect();
        let seq_steps = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
        let profile = profile_stream(stream(), cfg.epc_pages as usize);
        let mut csv = String::from("index,page\n");
        for (i, p) in pages.iter().enumerate() {
            let _ = writeln!(csv, "{i},{p}");
        }
        let name = format!("fig3_trace_{}.csv", bench.name());
        t.row(
            bench.name(),
            vec![
                format!(
                    "{:.1}%",
                    seq_steps as f64 * 100.0 / (pages.len() - 1) as f64
                ),
                format!("{:.1}%", profile.stream_share() * 100.0),
                format!("{:.1}%", profile.irregular_share() * 100.0),
                name.clone(),
            ],
        );
        out.series.push((name, csv));
    }
    out.tables.push(t);
    out
}

/// Table 1: the benchmark classification (small working set, large with
/// irregular access, large with regular access), measured from the models.
fn table1_classification(r: &Reports) -> Output {
    let cfg = r.cfg();
    let mut t = ResultTable::new(
        "table1_classification",
        "benchmark working sets and access regularity",
        "small WS: cactuBSSN, imagick, leela, nab, exchange2; large+irregular: roms, mcf, \
         deepsjeng, omnetpp, xz; large+regular: bwaves, lbm, wrf, microbenchmark (Table 1)",
    );
    t.columns(vec![
        "footprint",
        "vs EPC",
        "class2",
        "class3",
        "measured class",
        "paper class",
    ]);
    for bench in Benchmark::ALL {
        let fp = bench.footprint_pages();
        let profile = profile_stream(
            bench.build(InputSet::Ref, cfg.scale, cfg.seed).take(60_000),
            cfg.epc_pages as usize,
        );
        let measured = if fp <= usable_epc_pages() {
            "small WS"
        } else if profile.irregular_share() > profile.stream_share() {
            "large, irregular"
        } else {
            "large, regular"
        };
        let paper_class = match bench.category() {
            Category::SmallWorkingSet => "small WS",
            Category::LargeIrregular => "large, irregular",
            Category::LargeRegular => "large, regular",
            Category::RealWorld => "(real-world)",
            Category::Synthetic => "(synthetic)",
            Category::Diverse => "(diverse)",
        };
        t.row(
            bench.name(),
            vec![
                format!("{} MiB", fp * PAGE_SIZE_BYTES / (1 << 20)),
                format!("{:.1}x", fp as f64 / usable_epc_pages() as f64),
                format!("{:.0}%", profile.stream_share() * 100.0),
                format!("{:.0}%", profile.irregular_share() * 100.0),
                measured.to_string(),
                paper_class.to_string(),
            ],
        );
    }
    let small_ws = all_of(SMALL_WS_BENCHES.map(|bench| {
        let gains = [Dfp, DfpStop, Sip, Hybrid].map(|s| r.gain(bench, s));
        let cap = if bench == Leela { 0.08 } else { f64::INFINITY };
        let holds = gains.iter().all(|&g| g > -0.02 && g < cap);
        (bench, holds, gains.map(pct).join("/"))
    }));
    Output::of(vec![t]).claim(
        "preloading costs no small working set 2% or more under DFP, DFP-stop, SIP or the \
         hybrid (in that order), and moves leela by less than 8%",
        small_ws,
    )
}

/// Table 1's small-working-set programs that the claims run under every
/// scheme.
const SMALL_WS_BENCHES: [Benchmark; 3] = [Leela, Exchange2, Nab];

const FIG6_BENCHES: [Benchmark; 2] = [Lbm, Bwaves];
const FIG6_LENGTHS: [usize; 8] = [2, 4, 8, 16, 30, 40, 50, 64];

/// Fig. 6: DFP time of lbm and bwaves against the `stream_list` length,
/// motivating the paper's choice of 30.
fn fig6_streamlist_sweep(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig6_streamlist_sweep",
        "normalized time vs stream_list length (DFP)",
        "combined execution time of lbm+bwaves is shortest around length 30 (Fig. 6)",
    );
    t.columns(FIG6_LENGTHS.iter().map(|l| format!("len {l}")).collect());
    let mut combined = [0.0f64; FIG6_LENGTHS.len()];
    for bench in FIG6_BENCHES {
        let baseline = r.get(bench, Baseline);
        let mut cells = Vec::new();
        for (i, &len) in FIG6_LENGTHS.iter().enumerate() {
            let n = r
                .at(bench, Dfp, Point::ListLen(len))
                .normalized_time(baseline);
            combined[i] += n;
            cells.push(norm(n));
        }
        t.row(bench.name(), cells);
    }
    t.row(
        "combined",
        combined.iter().map(|x| norm(*x / 2.0)).collect(),
    );
    let best = FIG6_LENGTHS
        .iter()
        .zip(&combined)
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .expect("non-empty sweep");
    Output::of(vec![t]).note(format!(
        "best combined length here: {} (paper chooses 30)",
        best.0
    ))
}

const FIG7_BENCHES: [Benchmark; 7] = [Bwaves, Lbm, Wrf, Roms, Mcf, Deepsjeng, Omnetpp];
const FIG7_LOADLENGTHS: [u64; 5] = [1, 2, 4, 8, 16];

/// Fig. 7: DFP time when preloading 1–16 pages per prediction
/// (`LOADLENGTH`) on the seven large-footprint benchmarks. The paper fixes
/// 4 because larger values hurt the mispredicting programs.
fn fig7_loadlength_sweep(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig7_loadlength_sweep",
        "normalized time vs LOADLENGTH (DFP; baseline = no preloading)",
        "beyond 4 pages, mcf/deepsjeng-class programs lose substantially (Fig. 7)",
    );
    t.columns(FIG7_LOADLENGTHS.iter().map(|l| format!("LL={l}")).collect());
    for bench in FIG7_BENCHES {
        let baseline = r.get(bench, Baseline);
        let cells = FIG7_LOADLENGTHS
            .iter()
            .map(|&ll| {
                norm(
                    r.at(bench, Dfp, Point::LoadLength(ll))
                        .normalized_time(baseline),
                )
            })
            .collect();
        t.row(bench.name(), cells);
    }
    Output::of(vec![t]).note("the workspace default follows the paper: LOADLENGTH = 4")
}

const FIG8_BENCHES: [Benchmark; 9] = [
    Microbenchmark,
    Bwaves,
    Lbm,
    Wrf,
    Roms,
    Mcf,
    Deepsjeng,
    Omnetpp,
    Xz,
];

/// Fig. 8: DFP and DFP-stop improvement over the vanilla driver, plus the
/// §5.1 averages.
fn fig8_dfp(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig8_dfp",
        "DFP / DFP-stop improvement over baseline",
        "regular: micro +18.6%, lbm +13.3%, avg +11.4%; mispredictors regress up to 42%, \
         DFP-stop caps the average overhead at 2.82% (Fig. 8, §5.1)",
    );
    t.columns(vec!["DFP", "DFP-stop", "valve fired", "paper DFP"]);
    let mut regular_gains = Vec::new();
    let mut overhead_before = Vec::new();
    let mut overhead_after = Vec::new();
    for bench in FIG8_BENCHES {
        let g_dfp = r.gain(bench, Dfp);
        let g_stop = r.gain(bench, DfpStop);
        if bench.category() == Category::LargeRegular || bench == Microbenchmark {
            regular_gains.push(g_dfp);
        }
        if g_dfp < 0.0 {
            overhead_before.push(-g_dfp);
            overhead_after.push((-g_stop).max(0.0));
        }
        t.row(
            bench.name(),
            vec![
                pct(g_dfp),
                pct(g_stop),
                yes_no(r.get(bench, DfpStop).dfp_stopped_at.is_some()),
                reference(paper::FIG8_DFP, bench.name()),
            ],
        );
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let regular = all_of([Microbenchmark, Bwaves, Lbm, Wrf].map(|b| {
        let g = r.gain(b, Dfp);
        (b, (0.08..0.30).contains(&g), pct(g))
    }));
    let accuracy = r.get(Microbenchmark, Dfp).preload_accuracy();
    let regressions = all_of([Roms, Mcf, Omnetpp].map(|b| {
        let g = r.gain(b, Dfp);
        (b, g < if b == Roms { -0.02 } else { 0.0 }, pct(g))
    }));
    let capped = all_of([Roms, Mcf, Deepsjeng].map(|b| {
        let (plain, stop) = (r.get(b, Dfp), r.get(b, DfpStop));
        let g = r.gain(b, DfpStop);
        let holds = g > -0.05 && stop.total_cycles <= plain.total_cycles;
        (
            b,
            holds,
            format!("{} (DFP {})", pct(g), pct(r.gain(b, Dfp))),
        )
    }));
    let (plain, stop) = (r.get(Roms, Dfp), r.get(Roms, DfpStop));
    let fired = stop.dfp_stopped_at.is_some();
    let rescued = (
        fired && stop.total_cycles < plain.total_cycles,
        format!(
            "valve fired: {}, DFP-stop {} vs DFP {}",
            yes_no(fired),
            pct(r.gain(Roms, DfpStop)),
            pct(r.gain(Roms, Dfp))
        ),
    );
    Output::of(vec![t])
        .note(format!(
            "regular-benchmark DFP average: {} (paper {})",
            pct(mean(&regular_gains)),
            pct(paper::DFP_AVG_REGULAR)
        ))
        .note(format!(
            "mispredictor overhead: plain {} -> DFP-stop {} (paper {} -> {})",
            pct(mean(&overhead_before)),
            pct(mean(&overhead_after)),
            pct(paper::DFP_OVERHEAD_BEFORE_STOP),
            pct(paper::DFP_OVERHEAD_AFTER_STOP)
        ))
        .claim("DFP gains 8-30% on every regular program", regular)
        .claim(
            "DFP's microbenchmark preloads are more than 90% accurate",
            (accuracy > 0.9, format!("{:.1}%", accuracy * 100.0)),
        )
        .claim(
            "plain DFP loses on the mispredictors: more than 2% on roms, on mcf and omnetpp too",
            regressions,
        )
        .claim(
            "DFP-stop costs less than 5% on roms, mcf and deepsjeng and never runs slower than \
             plain DFP",
            capped,
        )
        .claim(
            "on roms the valve fires and DFP-stop beats plain DFP",
            rescued,
        )
}

const FIG9_BENCHES: [Benchmark; 2] = [Deepsjeng, Mcf];
const FIG9_THRESHOLDS: [f64; 8] = [0.005, 0.01, 0.03, 0.05, 0.10, 0.20, 0.40, 0.80];

/// Fig. 9: SIP time against the irregular-ratio instrumentation threshold.
/// The paper finds the sweet spot around 5% (also on mcf).
fn fig9_threshold_sweep(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig9_threshold_sweep",
        "normalized time & selected points vs SIP threshold",
        "deepsjeng is fastest around a 5% irregular-access threshold (Fig. 9)",
    );
    t.columns(vec!["deepsjeng time", "points", "mcf time", "points "]);
    let mut best = (f64::MAX, 0.0);
    for threshold in FIG9_THRESHOLDS {
        let mut cells = Vec::new();
        for bench in FIG9_BENCHES {
            let sip = r.at(bench, Sip, Point::Threshold(threshold));
            let n = sip.normalized_time(r.get(bench, Baseline));
            if bench == Deepsjeng && n < best.0 {
                best = (n, threshold);
            }
            cells.push(norm(n));
            cells.push(sip.instrumentation_points.to_string());
        }
        t.row(format!("{:.1}%", threshold * 100.0), cells);
    }
    Output::of(vec![t]).note(format!(
        "fastest deepsjeng at threshold {:.1}% (paper picks 5%)",
        best.1 * 100.0
    ))
}

/// The C/C++ benchmarks of Figs. 10 and 12 (the Fortran programs and
/// omnetpp are left out, as in the paper).
const C_BENCHES: [Benchmark; 8] = [Microbenchmark, Lbm, Mcf, Deepsjeng, Xz, Mcf2006, Sift, Mser];

/// Fig. 10: SIP's improvement, profiled on train and measured on ref.
fn fig10_sip(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig10_sip",
        "SIP improvement (train-input profile, ref-input measurement)",
        "deepsjeng +9.0%, mcf.2006 +4.9%, lbm/micro no opportunity, mcf a wash (Fig. 10, §5.2)",
    );
    t.columns(vec![
        "SIP",
        "points",
        "faults base",
        "faults SIP",
        "notifies",
        "paper",
    ]);
    for bench in C_BENCHES {
        let sip = r.get(bench, Sip);
        t.row(
            bench.name(),
            vec![
                pct(r.gain(bench, Sip)),
                sip.instrumentation_points.to_string(),
                r.get(bench, Baseline).faults.to_string(),
                sip.faults.to_string(),
                sip.sip_notifies.to_string(),
                reference(paper::FIG10_SIP, bench.name()),
            ],
        );
    }
    let helps = all_of([Deepsjeng, Xz, Mcf2006].map(|b| {
        let (lo, hi) = if b == Mcf2006 {
            (0.02, 0.12)
        } else {
            (0.05, 0.25)
        };
        let g = r.gain(b, Sip);
        (b, (lo..hi).contains(&g), pct(g))
    }));
    let (base, sip) = (r.get(Deepsjeng, Baseline), r.get(Deepsjeng, Sip));
    let deepsjeng = (
        sip.instrumentation_points > 0 && sip.sip_notifies > 0 && sip.faults * 10 < base.faults * 9,
        format!(
            "{} points, {} notifies, faults {} -> {}",
            sip.instrumentation_points, sip.sip_notifies, base.faults, sip.faults
        ),
    );
    let streaming = all_of([Microbenchmark, Lbm, Sift].map(|b| {
        let (points, g) = (r.get(b, Sip).instrumentation_points, r.gain(b, Sip));
        (
            b,
            points == 0 && g.abs() < 0.01,
            format!("{points} points, {}", pct(g)),
        )
    }));
    let (base, sip) = (r.get(Mcf, Baseline), r.get(Mcf, Sip));
    let g = sip.improvement_over(base);
    let points = sip.instrumentation_points;
    let wash = (
        g.abs() < 0.05 && points > 80 && sip.faults < base.faults / 3,
        format!(
            "{}, {points} points, {} faults against baseline's {} / 3 = {}",
            pct(g),
            sip.faults,
            base.faults,
            base.faults / 3
        ),
    );
    Output::of(vec![t])
        .note(
            "Fortran programs (bwaves, roms, wrf) and omnetpp are omitted, as in the paper (§5.2)",
        )
        .claim(
            "SIP helps the irregular C programs: deepsjeng and xz by 5-25%, mcf.2006 by 2-12%",
            helps,
        )
        .claim(
            "SIP instruments deepsjeng, notifies, and removes more than a tenth of its faults",
            deepsjeng,
        )
        .claim(
            "SIP finds no point in the streaming programs and moves each by less than 1%",
            streaming,
        )
        .claim(
            "mcf is SIP's wash: it moves less than 5% over more than 80 points, with fewer \
             than a third of baseline's faults",
            wash,
        )
}

/// Fig. 11: SIFT (DFP's case) and MSER (SIP's case) from SD-VBS.
fn fig11_realworld(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig11_realworld",
        "SIFT and MSER under their matching preloading schemes",
        "SIFT +9.5% with DFP, MSER +3.0% with SIP (Fig. 11, §5.3)",
    );
    t.columns(vec!["DFP", "SIP", "SIP+DFP", "points", "paper"]);
    for bench in [Sift, Mser] {
        let paper_ref = paper::FIG11
            .iter()
            .find(|(n, _, _)| *n == bench.name())
            .map(|(_, s, v)| format!("{} with {s}", pct(*v)))
            .unwrap_or_else(|| "-".into());
        t.row(
            bench.name(),
            vec![
                pct(r.gain(bench, DfpStop)),
                pct(r.gain(bench, Sip)),
                pct(r.gain(bench, Hybrid)),
                r.get(bench, Sip).instrumentation_points.to_string(),
                paper_ref,
            ],
        );
    }
    let (sift, sift_points) = (
        r.gain(Sift, DfpStop),
        r.get(Sift, Sip).instrumentation_points,
    );
    let mser = r.gain(Mser, Sip);
    Output::of(vec![t])
        .claim(
            "SIFT is DFP's case: DFP-stop gains more than 5% and SIP finds no point",
            (
                sift > 0.05 && sift_points == 0,
                format!("DFP-stop {}, {sift_points} SIP points", pct(sift)),
            ),
        )
        .claim(
            "MSER is SIP's case: SIP gains more than 1%",
            (mser > 0.01, pct(mser)),
        )
}

/// Fig. 12: SIP vs DFP vs the hybrid, which tracks the better single
/// scheme on single-class programs.
fn fig12_hybrid(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "fig12_hybrid",
        "normalized time: SIP vs DFP vs SIP+DFP",
        "hybrid ≈ best single scheme; worst case mcf ≈ 4.2% overhead (Fig. 12, §5.4)",
    );
    t.columns(vec!["SIP", "DFP", "SIP+DFP", "hybrid - best"]);
    let mut worst: (f64, &str) = (0.0, "-");
    for bench in C_BENCHES {
        let base = r.get(bench, Baseline);
        let [sip, dfp, hybrid] =
            [Sip, DfpStop, Hybrid].map(|s| r.get(bench, s).normalized_time(base));
        let gap = hybrid - sip.min(dfp);
        if hybrid - 1.0 > worst.0 {
            worst = (hybrid - 1.0, bench.name());
        }
        t.row(
            bench.name(),
            vec![norm(sip), norm(dfp), norm(hybrid), pct(-gap)],
        );
    }
    let tracks = all_of([Deepsjeng, Xz, Mser, Lbm].map(|b| {
        let [sip, dfp, hybrid] = [Sip, DfpStop, Hybrid].map(|s| r.gain(b, s));
        let best = dfp.max(sip);
        let values = format!("hybrid {} vs best {}", pct(hybrid), pct(best));
        (b, hybrid > best - 0.03, values)
    }));
    Output::of(vec![t])
        .note(format!(
            "worst hybrid case: {} at {} overhead (paper: mcf ≈ 4.2%)",
            worst.1,
            pct(worst.0)
        ))
        .claim(
            "the hybrid gains within 3 points of the better single scheme on deepsjeng, xz, \
             MSER and lbm",
            tracks,
        )
}

/// Fig. 13: the mixed-blood synthetic (a sequential image scan followed by
/// MSER), where neither scheme alone suffices and the hybrid beats both.
fn fig13_mixed_blood(r: &Reports) -> Output {
    let base = r.get(MixedBlood, Baseline);
    let mut t = ResultTable::new(
        "fig13_mixed_blood",
        "mixed-blood (sequential scan + MSER) under each scheme",
        "SIP +1.6%, DFP +6.0%, SIP+DFP +7.1% — the hybrid wins (Fig. 13, §5.4)",
    );
    t.columns(vec!["normalized", "improvement", "paper"]);
    t.row("baseline", vec![norm(1.0), pct(0.0), "-".to_string()]);
    for (scheme, paper_name) in [(Sip, "SIP"), (DfpStop, "DFP"), (Hybrid, "SIP+DFP")] {
        let run = r.get(MixedBlood, scheme);
        t.row(
            scheme.name(),
            vec![
                norm(run.normalized_time(base)),
                pct(run.improvement_over(base)),
                reference(paper::FIG13, paper_name),
            ],
        );
    }
    let [sip, dfp, hybrid] = [Sip, DfpStop, Hybrid].map(|s| r.gain(MixedBlood, s));
    Output::of(vec![t]).claim(
        "mixed-blood needs both schemes: SIP helps, DFP-stop helps more, and the hybrid gains at \
         least as much as either",
        (
            sip > 0.0 && dfp > sip && hybrid >= dfp.max(sip),
            format!(
                "SIP {}, DFP-stop {}, hybrid {}",
                pct(sip),
                pct(dfp),
                pct(hybrid)
            ),
        ),
    )
}

/// Table 2 + §5.5: SIP instrumentation points per benchmark and the
/// resulting TCB growth (the notify function is 23 LoC).
fn table2_tcb(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "table2_tcb",
        "SIP instrumentation points and TCB growth",
        "mcf.2006 114, mcf 99, xz 46, deepsjeng 35, lbm 0, MSER 54, SIFT 0, micro 0; \
         notify function is 23 LoC (Table 2, §5.5)",
    );
    t.columns(vec!["points", "paper", "TCB LoC estimate"]);
    let mut points = HashMap::new();
    for &(name, reference) in paper::TABLE2_POINTS {
        let bench = Benchmark::from_name(name).expect("paper name known");
        let plan = build_plan(bench, r.cfg(), Sip);
        t.row(
            name,
            vec![
                plan.len().to_string(),
                reference.to_string(),
                plan.tcb_loc_estimate().to_string(),
            ],
        );
        points.insert(bench, plan.len());
    }
    let n = |b: Benchmark| points[&b];
    let none = all_of([Lbm, Sift, Microbenchmark].map(|b| (b, n(b) == 0, n(b).to_string())));
    let (in_bands, counts) =
        all_of(TABLE2_BANDS.map(|(b, lo, hi)| (b, (lo..=hi).contains(&n(b)), n(b).to_string())));
    let [mcf2006, mcf, mser, xz, deepsjeng] = TABLE2_BANDS.map(|(b, ..)| n(b));
    Output::of(vec![t])
        .note(format!(
            "DFP adds zero TCB; SIP adds the {NOTIFY_FUNCTION_LOC}-line notify function plus \
             the inserted call sites (§5.5)"
        ))
        .claim(
            "lbm, SIFT and the microbenchmark get no instrumentation point",
            none,
        )
        .claim(
            "the point counts fall in their bands: mcf.2006 100-120, mcf 90-118, MSER 45-57, \
             xz 40-50, deepsjeng 30-45",
            (in_bands, counts.clone()),
        )
        .claim(
            "the point counts keep the paper's order: mcf.2006 >= mcf > MSER > xz > deepsjeng",
            (
                mcf2006 >= mcf && mcf > mser && mser > xz && xz > deepsjeng,
                counts,
            ),
        )
}

/// Table 2's point-count bands, from most to fewest points: (benchmark,
/// fewest, most).
const TABLE2_BANDS: [(Benchmark, usize, usize); 5] = [
    (Mcf2006, 100, 120),
    (Mcf, 90, 118),
    (Mser, 45, 57),
    (Xz, 40, 50),
    (Deepsjeng, 30, 45),
];

const PREDICTOR_BENCHES: [Benchmark; 5] = [Lbm, Bwaves, Roms, Deepsjeng, Sift];
const PREDICTORS: [PredictorKind; 4] = [
    PredictorKind::MultiStream,
    PredictorKind::NextLine,
    PredictorKind::Stride,
    PredictorKind::Markov,
];

/// Ablation: Algorithm 1's multiple-stream predictor against the §4.1
/// design space (next-line, stride, a first-order Markov table) under DFP.
fn ablation_predictors(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "ablation_predictors",
        "predictor design space vs Algorithm 1 (improvement over no preloading)",
        "the paper implements the multi-stream predictor and cites next-line/stride/ML \
         schemes as alternatives (§4.1)",
    );
    t.columns(PREDICTORS.iter().map(|k| k.name()).collect());
    for bench in PREDICTOR_BENCHES {
        let cells = PREDICTORS
            .iter()
            .map(|&k| pct(r.gain_at(bench, Dfp, Point::Predictor(k))))
            .collect();
        t.row(bench.name(), cells);
    }
    let sift = r.gain_at(Sift, Dfp, Point::Predictor(PredictorKind::MultiStream));
    Output::of(vec![t]).claim(
        "Algorithm 1's DFP gains 8-30% on SIFT",
        ((0.08..0.30).contains(&sift), pct(sift)),
    )
}

const NOTIFY_BENCHES: [Benchmark; 3] = [Deepsjeng, Mser, Mcf2006];
const NOTIFY_DISTANCES: [usize; 6] = [0, 1, 2, 4, 12, 32];

/// Ablation: §3.2's hoisted SIP notification, which lets the ≈44k-cycle
/// load overlap computation, swept over the hoisting distance.
fn ablation_early_notify(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "ablation_early_notify",
        "SIP improvement vs notification hoisting distance",
        "§3.2: the prototype is conservative (distance 0); hiding 44k cycles needs \
         distance × compute ≳ ELDU, and the serial channel still bounds throughput",
    );
    t.columns(NOTIFY_DISTANCES.iter().map(|d| format!("d={d}")).collect());
    for bench in NOTIFY_BENCHES {
        let cells = NOTIFY_DISTANCES
            .iter()
            .map(|&d| pct(r.gain_at(bench, Sip, Point::Distance(d))))
            .collect();
        t.row(bench.name(), cells);
    }
    Output::of(vec![t])
}

/// (total cycles, faults) of one kernel evicting by `policy`, which no
/// `SimConfig` field selects, so this ablation keeps its own run loop.
fn run_with_policy(
    bench: Benchmark,
    cfg: &SimConfig,
    policy: VictimPolicy,
    predictor: Box<dyn Predictor>,
) -> (u64, u64) {
    let mut kernel = Kernel::new(
        KernelConfig::new(cfg.epc_pages)
            .with_costs(cfg.costs)
            .with_victim_policy(policy),
        predictor,
    );
    let pid = ProcessId(0);
    kernel
        .register_enclave(pid, bench.elrange_pages(cfg.scale))
        .expect("fresh kernel");
    let mut now = Cycles::ZERO;
    for a in bench.build(InputSet::Ref, cfg.scale, cfg.seed) {
        now += a.compute;
        if kernel.app_access(now, pid, a.page).is_none() {
            now = kernel.page_fault(now, pid, a.page).resume_at;
        }
    }
    (now.raw(), kernel.stats().faults)
}

const EVICTION_BENCHES: [Benchmark; 3] = [Lbm, Deepsjeng, Mser];

/// Ablation: the driver's CLOCK victim selection (§4.2) against strict
/// LRU, FIFO and random eviction. CLOCK is the kernel's default, so its
/// columns read the shared baseline and DFP cells.
fn ablation_eviction(r: &Reports) -> Output {
    let cfg = r.cfg();
    let mut t = ResultTable::new(
        "ablation_eviction",
        "replacement policy: baseline faults and DFP gain",
        "the driver's CLOCK approximates LRU; preloading should be robust to the policy",
    );
    t.columns(vec![
        "clock flt",
        "lru flt",
        "fifo flt",
        "rand flt",
        "DFP@clock",
        "DFP@fifo",
    ]);
    let others = [
        VictimPolicy::Lru,
        VictimPolicy::Fifo,
        VictimPolicy::Random { seed: 99 },
    ];
    for bench in EVICTION_BENCHES {
        let base = others.map(|policy| run_with_policy(bench, cfg, policy, Box::new(NoPredictor)));
        let mut cells = vec![r.get(bench, Baseline).faults.to_string()];
        cells.extend(base.iter().map(|(_, faults)| faults.to_string()));
        cells.push(pct(r.gain(bench, Dfp)));
        let dfp = Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults()));
        let (cycles, _) = run_with_policy(bench, cfg, VictimPolicy::Fifo, dfp);
        let (fifo_cycles, _) = base[1];
        cells.push(pct(1.0 - cycles as f64 / fifo_cycles as f64));
        t.row(bench.name(), cells);
    }
    Output::of(vec![t])
}

/// One run of the ORAM-style pattern: 512 MiB of oblivious storage,
/// uniformly and independently accessed, re-randomized per `run_seed`.
fn run_oram(cfg: &SimConfig, scheme: Scheme, run_seed: u64) -> RunReport {
    let oram = OramModel::paper_defaults();
    let plan = if scheme.uses_sip() {
        // Profile a *different* run of the ORAM program, as the paper's
        // PGO flow would: page numbers do not transfer, sites do.
        let profile = profile_stream(oram.stream(cfg.scale, 7_777), cfg.epc_pages as usize);
        InstrumentationPlan::from_profile(&profile, cfg.sip)
    } else {
        InstrumentationPlan::none()
    };
    let app = AppSpec::new(
        "oram",
        oram.scaled_pages(cfg.scale),
        oram.stream(cfg.scale, run_seed),
    )
    .plan(plan)
    .build()
    .expect("non-empty ELRANGE");
    SimRun::new(cfg)
        .scheme(scheme)
        .app(app)
        .run_one()
        .expect("one report")
}

/// Ablation: §3.1's ORAM case, where fault history has nothing to learn
/// but instrumentation still applies.
fn ablation_oram(r: &Reports) -> Output {
    let cfg = r.cfg();
    let base = run_oram(cfg, Baseline, 1);
    let mut t = ResultTable::new(
        "ablation_oram",
        "ORAM-like run-varying random pattern",
        "§3.1: ORAM defeats history-based prediction; DFP-stop must bail out cleanly",
    );
    t.columns(vec![
        "improvement",
        "preload accuracy",
        "valve fired",
        "points",
    ]);
    for scheme in [Dfp, DfpStop, Sip] {
        let run = run_oram(cfg, scheme, 1);
        t.row(
            scheme.name(),
            vec![
                pct(run.improvement_over(&base)),
                format!("{:.1}%", run.preload_accuracy() * 100.0),
                yes_no(run.dfp_stopped_at.is_some()),
                run.instrumentation_points.to_string(),
            ],
        );
    }
    Output::of(vec![t]).note(
        "page-history prediction has nothing to learn here; site-level \
         instrumentation transfers because *which code* is irregular is stable",
    )
}

const EPC_MULTIPLES: [u64; 4] = [1, 2, 4, 8];

/// Ablation: §6's what-if, a larger EPC (VAULT, Morphable Counters), and
/// how much preloading still buys at each size.
fn ablation_epc_size(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "ablation_epc_size",
        "baseline time and DFP gain vs EPC capacity (lbm)",
        "§6: enlarging the EPC (VAULT, Morphable Counters) attacks the same problem \
         from the hardware side",
    );
    t.columns(vec!["baseline cycles", "faults", "DFP gain"]);
    for m in EPC_MULTIPLES {
        let base = r.at(Lbm, Baseline, Point::Epc(m));
        t.row(
            format!("{m}x EPC"),
            vec![
                base.total_cycles.raw().to_string(),
                base.faults.to_string(),
                pct(r.gain_at(Lbm, Dfp, Point::Epc(m))),
            ],
        );
    }
    Output::of(vec![t]).note(
        "once the working set fits, faults vanish and preloading has nothing \
         left to hide — the schemes are complementary to bigger EPCs",
    )
}

/// The co-run of `apps` on one kernel, under baseline and DFP-stop.
fn baseline_and_dfp_stop(cfg: &SimConfig, apps: impl Fn() -> Vec<AppSpec>) -> [Vec<RunReport>; 2] {
    [Baseline, DfpStop].map(|s| {
        SimRun::new(cfg)
            .scheme(s)
            .apps(apps())
            .run()
            .expect("co-run")
    })
}

/// `n` lbm enclaves on one kernel, each on its own seed.
fn lbm_enclaves(cfg: &SimConfig, n: usize) -> Vec<AppSpec> {
    (0..n)
        .map(|i| {
            AppSpec::new(
                format!("{}#{i}", Lbm.name()),
                Lbm.elrange_pages(cfg.scale),
                Lbm.build(InputSet::Ref, cfg.scale, cfg.seed + i as u64),
            )
            .build()
            .expect("non-empty ELRANGE")
        })
        .collect()
}

/// Ablation: §5.6's multi-enclave contention. Several enclaves share the
/// EPC and the exclusive load channel, each running its own DFP.
fn ablation_contention(r: &Reports) -> Output {
    let cfg = r.cfg();
    let mut t = ResultTable::new(
        "ablation_contention",
        "N enclaves sharing one EPC and load channel (lbm)",
        "§5.6: preloading works per enclave, but contention shrinks everyone's share; \
         fairness is deferred to cache-partitioning literature",
    );
    t.columns(vec![
        "baseline/app",
        "DFP/app",
        "DFP gain",
        "slowdown vs solo",
        "channel util",
    ]);
    let mean =
        |rs: &[RunReport]| rs.iter().map(|r| r.total_cycles.raw()).sum::<u64>() / rs.len() as u64;
    let mut solo = 0u64;
    for n in [1usize, 2, 4] {
        // One enclave is the shared lbm cell.
        let [base, dfp] = if n == 1 {
            [Baseline, DfpStop].map(|s| vec![r.get(Lbm, s).clone()])
        } else {
            baseline_and_dfp_stop(cfg, || lbm_enclaves(cfg, n))
        };
        let (b, d) = (mean(&base), mean(&dfp));
        if n == 1 {
            solo = b;
        }
        t.row(
            format!("N={n}"),
            vec![
                b.to_string(),
                d.to_string(),
                pct(1.0 - d as f64 / b as f64),
                format!("{:.2}x", b as f64 / solo as f64),
                format!("{:.0}%", base[0].channel_utilization * 100.0),
            ],
        );
    }
    Output::of(vec![t])
}

/// One enclave whose `threads` threads each sweep their own slice of an
/// lbm-class footprint.
fn threaded_app(cfg: &SimConfig, threads: usize) -> Vec<AppSpec> {
    let fp = cfg.scale.pages(410 * 256);
    let slice = fp / threads as u64;
    (0..threads)
        .map(|t| {
            let region = PageRange::new(t as u64 * slice, (t as u64 + 1) * slice);
            let workload: AccessIter = Box::new(SequentialScan::new(
                region,
                2,
                Cycles::new(1_200),
                SiteRange::single(t as u32),
            ));
            let app = AppSpec::new(format!("thread{t}"), fp, workload);
            let app = if t == 0 { app } else { app.thread_of(0) };
            app.build().expect("well-formed thread topology")
        })
        .collect()
}

/// Ablation: multi-threaded enclaves, whose fault history is kept per
/// thread (§3.1).
fn ablation_threads(r: &Reports) -> Output {
    let cfg = r.cfg();
    let mut t = ResultTable::new(
        "ablation_threads",
        "one enclave, T threads each sweeping a slice (lbm-class)",
        "§3.1: fault history is per thread, so interleaved per-thread streams keep predicting",
    );
    t.columns(vec!["baseline", "DFP", "DFP gain", "accuracy"]);
    // Wall time is the slowest thread's.
    let wall = |rs: &[RunReport]| rs.iter().map(|r| r.total_cycles.raw()).max().unwrap_or(0);
    for threads in [1usize, 2, 4, 8] {
        let [base, dfp] = baseline_and_dfp_stop(cfg, || threaded_app(cfg, threads));
        let (b, d) = (wall(&base), wall(&dfp));
        t.row(
            format!("T={threads}"),
            vec![
                b.to_string(),
                d.to_string(),
                pct(1.0 - d as f64 / b as f64),
                format!("{:.1}%", dfp[0].preload_accuracy() * 100.0),
            ],
        );
    }
    Output::of(vec![t]).note(
        "wall time is the slowest thread; the shared exclusive channel, not \
         prediction quality, is what erodes the gain as T grows",
    )
}

const USERSPACE_BENCHES: [Benchmark; 5] = [Microbenchmark, Lbm, Deepsjeng, Mcf, Mser];

/// §6's related work: Eleos/CoSMIX-style user-level paging, fast software
/// swaps bought with a check per access and the hardware's guarantees.
fn comparison_userspace(r: &Reports) -> Output {
    let mut t = ResultTable::new(
        "comparison_userspace",
        "hardware paging + preloading vs user-level paging (Eleos/CoSMIX class)",
        "§6: user-level paging is faster but enlarges the TCB and cannot keep the \
         hardware security guarantees; preloading composes with the hardware path",
    );
    t.columns(vec![
        "DFP-stop",
        "SIP+DFP",
        "user-level",
        "swaps",
        "checks/access",
    ]);
    for bench in USERSPACE_BENCHES {
        let user = r.get(bench, UserLevel);
        t.row(
            bench.name(),
            vec![
                pct(r.gain(bench, DfpStop)),
                pct(r.gain(bench, Hybrid)),
                pct(r.gain(bench, UserLevel)),
                user.faults.to_string(),
                format!(
                    "{:.1}",
                    user.sip_checks as f64 / user.accesses.max(1) as f64
                ),
            ],
        );
    }
    let speed = all_of([Lbm, Deepsjeng].map(|b| {
        let (user, hybrid) = (r.gain(b, UserLevel), r.gain(b, Hybrid));
        let values = format!("user-level {} vs hybrid {}", pct(user), pct(hybrid));
        (b, user > hybrid && user > 0.3, values)
    }));
    let checks = all_of([Lbm, Deepsjeng].map(|b| {
        let user = r.get(b, UserLevel);
        let values = format!("{} checks, {} executions", user.sip_checks, user.executions);
        (b, user.sip_checks == user.executions, values)
    }));
    Output::of(vec![t])
        .note(
            "the user-level runtime's raw speed comes from trading away the EWB/ELDU \
             hardware guarantees and enclave TCB minimality — the paper's §6 position",
        )
        .claim(
            "user-level paging gains more than 30% and more than the hybrid on lbm and deepsjeng",
            speed,
        )
        .claim("user-level paging checks every execution", checks)
}

const LATENCY_BENCHES: [Benchmark; 3] = [Microbenchmark, Lbm, Mcf];
const LATENCY_SCHEMES: [Scheme; 4] = [Baseline, Dfp, DfpStop, Hybrid];
const LEAD_BENCHES: [Benchmark; 4] = [Microbenchmark, Lbm, Bwaves, MixedBlood];
const LEAD_SCHEMES: [Scheme; 3] = [Dfp, DfpStop, Hybrid];

/// Log2 bucket lower bounds, 2^10 to 2^17 cycles: wide enough for every
/// fault-service outcome, from the resident-hit path to the demand load.
const LATENCY_BUCKETS: [u64; 8] = [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072];

/// The fault service-time distribution behind the means: §2's ≈64k-cycle
/// demand spike, and the cheap outcomes preloading shifts mass to.
fn dist_fault_latency(r: &Reports) -> Output {
    let mut summary = ResultTable::new(
        "dist_fault_latency",
        "fault service-time percentiles (cycles)",
        "§2: demand fault ≈64k cycles; preloading moves p50 toward the resident path",
    );
    summary.columns(vec!["faults", "mean", "p50", "p90", "p99", "max"]);
    let mut buckets = ResultTable::new(
        "dist_fault_latency_buckets",
        "fault service-time histogram (log2 buckets)",
        "bucket columns are cycle lower bounds; counts are resolved faults",
    );
    buckets.columns(LATENCY_BUCKETS.iter().map(|b| format!(">={b}")).collect());
    for bench in LATENCY_BENCHES {
        for scheme in LATENCY_SCHEMES {
            let h = &r.histograms(bench, scheme).fault_service;
            let s = h.summary();
            assert_eq!(
                s.count,
                r.get(bench, scheme).faults,
                "every fault resolves exactly once"
            );
            let mut counts = [0u64; LATENCY_BUCKETS.len()];
            for (lo, n) in h.nonzero_buckets() {
                // Below the table's range lands in the first column, above
                // it in the last.
                counts[LATENCY_BUCKETS.iter().rposition(|&b| b <= lo).unwrap_or(0)] += n;
            }
            let label = format!("{}/{}", bench.name(), scheme.name());
            let mut cells = vec![s.count.to_string()];
            cells.extend([s.mean, s.p50, s.p90, s.p99, s.max].map(|c| c.raw().to_string()));
            summary.row(label.clone(), cells);
            buckets.row(label, counts.iter().map(u64::to_string).collect());
        }
    }
    Output::of(vec![summary, buckets])
}

/// The head start each touched preload bought (0: the fault raced the
/// load) and the predicted stream lengths behind them (§4.2).
fn dist_preload_lead(r: &Reports) -> Output {
    let mut lead = ResultTable::new(
        "dist_preload_lead",
        "preload lead time at first touch (cycles) and predicted stream length",
        "DFP preloads land just ahead of a sequential walk: small leads, high hit counts",
    );
    lead.columns(vec![
        "hits", "lead p50", "lead p90", "lead p99", "streams", "len p50", "len p99",
    ]);
    for bench in LEAD_BENCHES {
        for scheme in LEAD_SCHEMES {
            let h = r.histograms(bench, scheme);
            let (l, len) = (h.preload_lead.summary(), h.stream_len.summary());
            assert!(
                l.count <= r.get(bench, scheme).preloads_touched,
                "a lead is recorded only for preloads that were touched"
            );
            let mut cells = vec![l.count.to_string()];
            cells.extend([l.p50, l.p90, l.p99].map(|c| c.raw().to_string()));
            cells.push(len.count.to_string());
            cells.extend([len.p50, len.p99].map(|c| c.raw().to_string()));
            lead.row(format!("{}/{}", bench.name(), scheme.name()), cells);
        }
    }
    Output::of(vec![lead])
}

/// The fairness victim: 40 sweeps, overlapping most of the aggressor's run,
/// of 40% of the EPC, comfortably inside a 1:1 share (50%).
fn victim(cfg: &SimConfig) -> AppSpec {
    let fp = cfg.epc_pages * 2 / 5;
    let workload: AccessIter = Box::new(SequentialScan::new(
        PageRange::first(fp),
        40,
        Cycles::new(20_000),
        SiteRange::single(0),
    ));
    AppSpec::new("victim", fp, workload)
        .build()
        .expect("non-empty ELRANGE")
}

/// The fairness aggressor: mixed-blood, streaming far past its share.
fn aggressor(cfg: &SimConfig) -> AppSpec {
    AppSpec::new(
        "aggressor",
        MixedBlood.elrange_pages(cfg.scale),
        MixedBlood.build(InputSet::Ref, cfg.scale, cfg.seed + 1),
    )
    .build()
    .expect("non-empty ELRANGE")
}

/// Fairness under an adversarial neighbour (DESIGN.md §4.2): unpartitioned
/// and under the fair 1:1 tenant policy.
fn fairness_isolation(r: &Reports) -> Output {
    let cfg = r.cfg();
    // Plain DFP, not DFP-stop: on mixed-blood the kernel-global valve would
    // silence the aggressor's preloads by itself, hiding the tenant layer.
    let scheme = Dfp;
    let solo = SimRun::new(cfg)
        .scheme(scheme)
        .app(victim(cfg))
        .run_one()
        .expect("solo victim");
    let shared = SimRun::new(cfg)
        .scheme(scheme)
        .apps(vec![victim(cfg), aggressor(cfg)])
        .run()
        .expect("unpartitioned pair");
    let fair_cfg = cfg.with_tenant_policy(TenantPolicy::fair(2, cfg.epc_pages));
    let fair = SimRun::new(&fair_cfg)
        .scheme(scheme)
        .apps(vec![victim(&fair_cfg), aggressor(&fair_cfg)])
        .run()
        .expect("fair pair");

    let solo_cycles = solo.total_cycles.raw();
    let cells = |r: &RunReport| {
        vec![
            r.total_cycles.raw().to_string(),
            r.faults.to_string(),
            r.channel_wait_cycles.raw().to_string(),
            r.preloads_shed.to_string(),
            format!("{}/{}", r.residency_p50, r.residency_p99),
            format!("{:.2}x", r.total_cycles.raw() as f64 / solo_cycles as f64),
        ]
    };
    let mut t = ResultTable::new(
        "fairness_isolation",
        "resweeping victim (40% EPC) vs mixed-blood aggressor, fair 1:1 policy",
        "§5.6 defers contention fairness to partitioning literature; \
         DESIGN.md §4.2 implements it",
    );
    t.columns(vec![
        "cycles",
        "faults",
        "channel wait",
        "shed",
        "res p50/p99",
        "vs solo",
    ]);
    t.row("victim solo", cells(&solo));
    t.row("victim (unpartitioned)", cells(&shared[0]));
    t.row("aggressor (unpartitioned)", cells(&shared[1]));
    t.row("victim (fair 1:1)", cells(&fair[0]));
    t.row("aggressor (fair 1:1)", cells(&fair[1]));

    let unfair = shared[0].total_cycles.raw() as f64 / solo_cycles as f64;
    let fairx = fair[0].total_cycles.raw() as f64 / solo_cycles as f64;
    Output::of(vec![t])
        .note(format!(
            "victim slowdown: {unfair:.2}x unpartitioned -> {fairx:.2}x under fair 1:1; \
             faults {} -> {}",
            shared[0].faults, fair[0].faults,
        ))
        .note(
            "the pinned bound lives in tests/fairness.rs; this table is the \
             figure behind it",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench` under `scheme` at `cfg`, run as a figure cell runs.
    fn cell(cfg: &SimConfig, bench: Benchmark, scheme: Scheme) -> RunReport {
        let run = SimRun::new(cfg).scheme(scheme).bench(bench);
        run.run_one().expect("dev run")
    }

    /// A baseline label drops every point `reaches_baseline` rejects, so
    /// the figures read one baseline for all of them: a baseline run at
    /// each such point a figure declares is the base run.
    #[test]
    fn baselines_ignore_the_points_their_labels_drop() {
        let cfg = SimConfig::at_scale(Scale::DEV);
        let declared = [
            &FIG6_LENGTHS.map(Point::ListLen)[..],
            &FIG7_LOADLENGTHS.map(Point::LoadLength),
            &FIG9_THRESHOLDS.map(Point::Threshold),
            &NOTIFY_DISTANCES.map(Point::Distance),
            &PREDICTORS.map(Point::Predictor),
            &EPC_MULTIPLES.map(Point::Epc),
        ]
        .concat();
        let dropped: Vec<Point> = declared
            .into_iter()
            .filter(|p| !p.reaches_baseline())
            .collect();
        assert_eq!(dropped.len(), 8 + 5 + 8 + 6 + 4);
        let base = cell(&cfg, Deepsjeng, Baseline);
        for point in dropped {
            let at = cell(&point.config(&cfg), Deepsjeng, Baseline);
            assert_eq!(at, base, "baseline at {}", point.name());
        }
    }

    /// ablation_eviction's CLOCK columns and ablation_contention's N=1 row
    /// read shared cells, beside columns and rows from runs built by hand
    /// (`run_with_policy`, `lbm_enclaves`). At a cell's settings, such a
    /// run is the cell's run.
    #[test]
    fn hand_built_runs_match_the_cells_beside_them() {
        let cfg = SimConfig::at_scale(Scale::DEV);
        for bench in EVICTION_BENCHES {
            let dfp = MultiStreamPredictor::new(StreamConfig::paper_defaults());
            let predictors: [(Scheme, Box<dyn Predictor>); 2] =
                [(Baseline, Box::new(NoPredictor)), (Dfp, Box::new(dfp))];
            for (scheme, predictor) in predictors {
                let c = cell(&cfg, bench, scheme);
                let clock = run_with_policy(bench, &cfg, VictimPolicy::Clock, predictor);
                assert_eq!(
                    clock,
                    (c.total_cycles.raw(), c.faults),
                    "{bench:?}/{scheme:?}"
                );
            }
        }
        let corun = baseline_and_dfp_stop(&cfg, || lbm_enclaves(&cfg, 1));
        for (scheme, mut reports) in [Baseline, DfpStop].into_iter().zip(corun) {
            let solo = cell(&cfg, Lbm, scheme);
            reports[0].label.clone_from(&solo.label);
            assert_eq!(reports, [solo], "one lbm enclave under {scheme:?}");
        }
    }
}

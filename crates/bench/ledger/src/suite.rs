//! The four workloads, one timed pass over each, and the output checks
//! every pass must satisfy.

use std::collections::HashMap;
use std::io;
use std::time::Instant;

use sgx_kernel::{
    ChromeTraceSink, CountingSink, EventCounts, HistogramSink, SeriesFormat, TimeSeriesSink,
};
use sgx_observer::{OramModel, DEFAULT_WINDOW};
use sgx_preload_core::{
    run_indexed, AppSpec, Campaign, CampaignReport, Cell, CellReport, CellWork, PredictorKind,
    RunReport, Scheme, SeedMode, SimConfig, SimError, SimRun, TenantPolicy,
    DEFAULT_TIMELINE_SERIES_INTERVAL,
};
use sgx_workloads::{AccessIter, Benchmark, InputSet, Scale, SecretBit, SecretPair};

/// Worker threads for every pool. Fixed rather than taken from the
/// machine, so a pass does the same work everywhere; two is also the core
/// count the ledger's recorded history was measured on.
pub const JOBS: usize = 2;

/// The benchmark's workloads. Their names are stable: the history file and
/// `BENCHMARK.json` refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own evaluation grid.
    PaperGrid,
    /// The diversity families under the predictor zoo and EDMM growth.
    ZooEdmm,
    /// Trace sinks, the Chrome render and the leakage observer.
    Observe,
    /// Two enclaves contending for one kernel.
    Contend,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ZooEdmm,
        Workload::Observe,
        Workload::Contend,
    ];

    /// The stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::ZooEdmm => "zoo-edmm",
            Workload::Observe => "observe",
            Workload::Contend => "contend",
        }
    }

    /// Looks a workload up by its stable name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed passes when no time budget is given: enough for a median,
    /// more where a pass is short.
    pub fn passes(self) -> usize {
        match self {
            Workload::Contend => 5,
            _ => 3,
        }
    }
}

/// The paper-grid benchmarks: every benchmark behind a Fig. 8/10/13
/// reference point, plus mcf and its 2006 twin for SIP's mixed results.
const PAPER_BENCHES: [Benchmark; 7] = [
    Benchmark::Microbenchmark,
    Benchmark::Lbm,
    Benchmark::Deepsjeng,
    Benchmark::Roms,
    Benchmark::Mcf,
    Benchmark::Mcf2006,
    Benchmark::MixedBlood,
];

const PAPER_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::Dfp,
    Scheme::DfpStop,
    Scheme::Sip,
    Scheme::Hybrid,
];

/// Where a cell's access stream comes from; drained once at set-up to
/// learn the access count each report must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Input {
    /// A benchmark's *ref* input at `(scale divisor, seed)`.
    Bench(Benchmark, u64, u64),
    /// One variant of a secret pair at `(scale divisor, seed)`.
    Secret(SecretPair, SecretBit, u64, u64),
    /// The ORAM-padded reference stream at `(scale divisor, seed)`.
    Oram(u64, u64),
}

impl Input {
    /// A fresh copy of the stream.
    pub fn stream(self) -> AccessIter {
        match self {
            Input::Bench(b, div, seed) => b.build(InputSet::Ref, Scale::new(div), seed),
            Input::Secret(pair, bit, div, seed) => pair.build(bit, Scale::new(div), seed),
            Input::Oram(div, seed) => OramModel::paper_defaults().stream(Scale::new(div), seed),
        }
    }
}

/// A victim (plus optional aggressor) run on one kernel.
#[derive(Debug, Clone)]
pub struct CoRun {
    /// Report label.
    pub label: String,
    /// Configuration, tenant policy included.
    pub cfg: SimConfig,
    /// The scheme both enclaves run under.
    pub scheme: Scheme,
    /// The enclaves, in registration order, with their workload seeds.
    pub apps: Vec<(Benchmark, u64)>,
}

impl CoRun {
    /// The enclaves' inputs, in registration order.
    pub fn inputs(&self) -> Vec<Input> {
        let div = self.cfg.scale.divisor();
        self.apps
            .iter()
            .map(|&(b, seed)| Input::Bench(b, div, seed))
            .collect()
    }

    /// Runs the co-run with `sinks` attached.
    pub fn run(
        &self,
        sinks: Vec<Box<dyn sgx_kernel::TraceSink>>,
    ) -> Result<Vec<RunReport>, SimError> {
        let mut apps = Vec::with_capacity(self.apps.len());
        for &(b, seed) in &self.apps {
            let stream = b.build(InputSet::Ref, self.cfg.scale, seed);
            apps.push(AppSpec::new(b.name(), b.elrange_pages(self.cfg.scale), stream).build()?);
        }
        let mut run = SimRun::new(&self.cfg).scheme(self.scheme).apps(apps);
        for sink in sinks {
            run = run.sink(sink);
        }
        run.run()
    }
}

/// One step of a pass, run through the entry point users call for it.
#[derive(Debug, Clone)]
pub enum Unit {
    /// A campaign on the work-stealing pool.
    Grid(Campaign),
    /// The timeline cell: one run with the Chrome-trace, counting,
    /// histogram and gauge-series sinks attached, output discarded.
    Timeline(Box<SimConfig>),
    /// Co-runs on the work-stealing pool (`run_indexed`).
    CoRuns(Vec<CoRun>),
}

/// The timeline cell's benchmark and scheme (the `throughput` CLI cell).
pub const TIMELINE_CELL: (Benchmark, Scheme) = (Benchmark::Microbenchmark, Scheme::Dfp);

/// One cell's outcome in a pass.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell's label.
    pub label: String,
    /// Deterministic serialisation: timing fields stripped, so it must be
    /// byte-identical across passes and worker counts.
    pub canonical: String,
    /// One report per enclave.
    pub reports: Vec<RunReport>,
    /// Event tallies from the cell's counting sink.
    pub events: EventCounts,
    /// Host seconds the cell took.
    pub wall_s: f64,
    /// Why the cell failed to run, if it did.
    pub error: Option<String>,
}

/// One pass over a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Every cell, in workload order.
    pub cells: Vec<CellRun>,
    /// Host seconds of the program calls (serialisation and checks
    /// excluded).
    pub wall_s: f64,
}

impl Pass {
    /// Simulated accesses across every report.
    pub fn accesses(&self) -> u64 {
        self.reports().map(|r| r.accesses).sum()
    }

    /// Simulated cycles across every report, in billions.
    pub fn sim_gcycles(&self) -> f64 {
        self.reports().map(|r| r.total_cycles.raw()).sum::<u64>() as f64 / 1e9
    }

    /// Σ cell time over the wall-clock the pool had: 1.0 means every worker
    /// was busy for the whole pass.
    pub fn pool_efficiency(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum::<f64>() / (JOBS as f64 * self.wall_s)
    }

    fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.cells.iter().flat_map(|c| &c.reports)
    }

    /// The canonical serialisation of every cell, in order.
    pub fn canonical(&self) -> Vec<String> {
        self.cells.iter().map(|c| c.canonical.clone()).collect()
    }
}

/// A workload ready to run: its units plus each cell's expected access
/// counts.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The steps of one pass.
    pub units: Vec<Unit>,
    /// Per cell in pass order, the access count each of its reports must
    /// show.
    expected: Vec<Vec<u64>>,
}

impl Suite {
    /// The benchmark's set-up: builds the workload's cells from `seed` and
    /// drains every distinct input stream once to record the access count
    /// each report must show.
    pub fn build(workload: Workload, scale: Scale, seed: u64) -> Suite {
        let units = units(workload, scale, seed);
        let mut lengths: HashMap<Input, u64> = HashMap::new();
        let expected = units
            .iter()
            .flat_map(unit_inputs)
            .map(|inputs| {
                inputs
                    .into_iter()
                    .map(|i| {
                        *lengths
                            .entry(i)
                            .or_insert_with(|| i.stream().count() as u64)
                    })
                    .collect()
            })
            .collect();
        Suite { units, expected }
    }

    /// Cells in one pass.
    pub fn cell_count(&self) -> usize {
        self.expected.len()
    }

    /// Runs one pass on a `jobs`-worker pool.
    pub fn run_pass(&self, jobs: usize) -> Pass {
        let mut cells = Vec::with_capacity(self.cell_count());
        let mut wall_s = 0.0;
        for unit in &self.units {
            let t0 = Instant::now();
            match unit {
                Unit::Grid(campaign) => {
                    let result = campaign.run_with_jobs(jobs);
                    wall_s += t0.elapsed().as_secs_f64();
                    match result {
                        Ok(report) => {
                            cells.extend(report.cells.iter().map(|c| grid_cell(&report, c)))
                        }
                        Err(e) => {
                            cells.extend(campaign.cells().iter().map(|c| failed(&c.label, &e)))
                        }
                    }
                }
                Unit::Timeline(cfg) => {
                    let result = run_timeline(cfg);
                    wall_s += t0.elapsed().as_secs_f64();
                    cells.push(timed_cell(timeline_label(), result));
                }
                Unit::CoRuns(runs) => {
                    let results = run_indexed(runs.len(), jobs, |i| timed_co_run(&runs[i]));
                    wall_s += t0.elapsed().as_secs_f64();
                    for (run, result) in runs.iter().zip(results) {
                        cells.push(timed_cell(run.label.clone(), result));
                    }
                }
            }
        }
        Pass { cells, wall_s }
    }

    /// The output checks for pass number `pass_no`: every cell ran, its
    /// serialisation equals `reference` (the warm-up pass's), each report
    /// covers exactly its generated input, and its attribution buckets sum
    /// to its total cycles. Returns one failure per failing cell.
    pub fn check(&self, pass: &Pass, pass_no: usize, reference: &[String]) -> Vec<Failure> {
        let mut failures = Vec::new();
        for (i, cell) in pass.cells.iter().enumerate() {
            if let Some(why) = check_cell(cell, reference.get(i), &self.expected[i]) {
                failures.push(Failure::new(pass_no, &cell.label, why));
            }
        }
        failures
    }
}

/// A cell that failed an output check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The pass: 0 is the warm-up, then the timed passes, then the traced
    /// pass.
    pub pass: usize,
    /// The cell's label.
    pub label: String,
    /// What went wrong.
    pub why: String,
}

impl Failure {
    /// A failure of `label` in pass `pass`.
    pub fn new(pass: usize, label: &str, why: impl Into<String>) -> Self {
        Failure {
            pass,
            label: label.to_string(),
            why: why.into(),
        }
    }
}

fn check_cell(cell: &CellRun, reference: Option<&String>, expected: &[u64]) -> Option<String> {
    if let Some(e) = &cell.error {
        return Some(format!("errored: {e}"));
    }
    if reference != Some(&cell.canonical) {
        return Some("canonical report differs from the reference pass".into());
    }
    let accesses: Vec<u64> = cell.reports.iter().map(|r| r.accesses).collect();
    if accesses != expected {
        return Some(format!(
            "simulated {accesses:?} accesses, inputs hold {expected:?}"
        ));
    }
    cell.reports.iter().find_map(|r| {
        (r.attribution.total() != r.total_cycles.raw()).then(|| {
            format!(
                "{}: attribution sums to {}, total is {}",
                r.label,
                r.attribution.total(),
                r.total_cycles.raw()
            )
        })
    })
}

/// The per-cell inputs of a unit, in cell order.
pub fn unit_inputs(unit: &Unit) -> Vec<Vec<Input>> {
    match unit {
        Unit::Grid(campaign) => campaign
            .cells()
            .iter()
            .enumerate()
            .map(|(i, cell)| vec![grid_input(cell, campaign.cell_seed(i))])
            .collect(),
        Unit::Timeline(cfg) => vec![vec![Input::Bench(
            TIMELINE_CELL.0,
            cfg.scale.divisor(),
            cfg.seed,
        )]],
        Unit::CoRuns(runs) => runs.iter().map(CoRun::inputs).collect(),
    }
}

/// The input behind a grid cell's report (variant A for a leakage cell,
/// whose report is variant A's run).
fn grid_input(cell: &Cell, seed: u64) -> Input {
    let div = cell.cfg.scale.divisor();
    match &cell.work {
        CellWork::Bench(b) => Input::Bench(*b, div, seed),
        CellWork::Leakage(spec) if spec.oram => Input::Oram(div, seed),
        CellWork::Leakage(spec) => Input::Secret(spec.pair, SecretBit::A, div, seed),
        CellWork::Replay(r) => unreachable!("the ledger runs no replays ({})", r.label()),
    }
}

fn units(workload: Workload, scale: Scale, seed: u64) -> Vec<Unit> {
    let cfg = SimConfig::at_scale(scale).with_seed(seed);
    match workload {
        Workload::PaperGrid => vec![Unit::Grid(
            Campaign::grid("paper-grid", seed, &PAPER_BENCHES, &PAPER_SCHEMES, cfg)
                .with_seed_mode(SeedMode::Shared),
        )],
        Workload::ZooEdmm => {
            // predictor_grid would repeat each predictor-free cell once per
            // predictor; those run once here.
            let mut c = Campaign::new("zoo-edmm", seed).with_seed_mode(SeedMode::Shared);
            for bench in Benchmark::DIVERSE {
                for scheme in [Scheme::Baseline, Scheme::Edmm] {
                    c.push(Cell::new(bench, scheme, cfg));
                }
                for scheme in [Scheme::DfpStop, Scheme::EdmmDfpStop] {
                    for kind in PredictorKind::ALL {
                        c.push(
                            Cell::new(bench, scheme, cfg.with_predictor(kind)).with_label(format!(
                                "{}/{}/pred={kind}",
                                bench.name(),
                                scheme.name()
                            )),
                        );
                    }
                }
            }
            vec![Unit::Grid(c)]
        }
        Workload::Observe => {
            // The leakage grid runs at a quarter of the workload's size, the
            // scale the observatory is exercised at.
            let leak = SimConfig::at_scale(Scale::new(scale.divisor() * 4)).with_seed(seed);
            vec![
                Unit::Timeline(Box::new(
                    cfg.with_series_interval(DEFAULT_TIMELINE_SERIES_INTERVAL),
                )),
                Unit::Grid(Campaign::leakage_grid(
                    "observe-leakage",
                    seed,
                    &SecretPair::ALL,
                    &[Scheme::Baseline, Scheme::Dfp, Scheme::Sip],
                    leak,
                    DEFAULT_WINDOW,
                )),
            ]
        }
        Workload::Contend => {
            let pairs = [
                (Benchmark::Microbenchmark, Benchmark::MixedBlood),
                (Benchmark::Lbm, Benchmark::Roms),
            ];
            let policies = [
                ("none", TenantPolicy::none()),
                ("fair2", TenantPolicy::fair(2, cfg.epc_pages)),
            ];
            let mut runs = Vec::new();
            for (victim, aggressor) in pairs {
                for scheme in [Scheme::Dfp, Scheme::DfpStop] {
                    runs.push(CoRun {
                        label: format!("{}/{}/solo", victim.name(), scheme.name()),
                        cfg,
                        scheme,
                        apps: vec![(victim, seed)],
                    });
                    for (name, policy) in policies {
                        runs.push(CoRun {
                            label: format!(
                                "{}+{}/{}/tenant={name}",
                                victim.name(),
                                aggressor.name(),
                                scheme.name()
                            ),
                            cfg: cfg.with_tenant_policy(policy),
                            scheme,
                            apps: vec![(victim, seed), (aggressor, seed.wrapping_add(1))],
                        });
                    }
                }
            }
            vec![Unit::CoRuns(runs)]
        }
    }
}

/// A grid cell as a pass outcome; its canonical form is the cell's own
/// entry in the campaign's canonical JSON.
pub fn grid_cell(report: &CampaignReport, cell: &CellReport) -> CellRun {
    let single = CampaignReport {
        name: report.name.clone(),
        campaign_seed: report.campaign_seed,
        jobs: 1,
        wall_nanos: 0,
        cells: vec![cell.clone()],
    };
    CellRun {
        label: cell.label.clone(),
        canonical: single.to_canonical_json(),
        reports: vec![cell.report.clone()],
        events: cell.events,
        wall_s: cell.wall_nanos as f64 / 1e9,
        error: None,
    }
}

/// A cell that did not run, with the reason.
pub fn failed(label: &str, e: &dyn std::fmt::Display) -> CellRun {
    CellRun {
        label: label.to_string(),
        canonical: String::new(),
        reports: Vec::new(),
        events: EventCounts::default(),
        wall_s: 0.0,
        error: Some(e.to_string()),
    }
}

/// The timeline cell's label.
pub fn timeline_label() -> String {
    format!(
        "{}/{}/timeline",
        TIMELINE_CELL.0.name(),
        TIMELINE_CELL.1.name()
    )
}

/// A finished run: reports, event tallies and host seconds.
pub type Timed = (Result<Vec<RunReport>, SimError>, EventCounts, f64);

/// Runs the timeline cell with every sink attached, as the `throughput`
/// command does.
pub fn run_timeline(cfg: &SimConfig) -> Timed {
    let t0 = Instant::now();
    let (counting, counts) = CountingSink::new();
    let (histogram, _hists) = HistogramSink::new();
    let result = SimRun::new(cfg)
        .scheme(TIMELINE_CELL.1)
        .bench(TIMELINE_CELL.0)
        .sink(Box::new(ChromeTraceSink::new(io::sink())))
        .sink(Box::new(counting))
        .sink(Box::new(histogram))
        .sink(Box::new(TimeSeriesSink::new(io::sink(), SeriesFormat::Csv)))
        .run();
    (result, counts.get(), t0.elapsed().as_secs_f64())
}

/// Runs a co-run with a counting sink, as a pool task.
pub fn timed_co_run(run: &CoRun) -> Timed {
    let t0 = Instant::now();
    let (counting, counts) = CountingSink::new();
    let result = run.run(vec![Box::new(counting)]);
    (result, counts.get(), t0.elapsed().as_secs_f64())
}

/// A timeline or co-run outcome; its canonical form is every report's JSON
/// plus the event tallies.
pub fn timed_cell(label: String, (result, events, wall_s): Timed) -> CellRun {
    match result {
        Ok(reports) => {
            let mut canonical = String::new();
            for r in &reports {
                r.write_json(&mut canonical);
            }
            events.write_json(&mut canonical);
            CellRun {
                label,
                canonical,
                reports,
                events,
                wall_s,
                error: None,
            }
        }
        Err(e) => failed(&label, &e),
    }
}

/// Mean absolute gap, in percentage points, between the measured
/// improvement over baseline and the paper's twelve reference points:
/// `sgx_bench::paper::FIG8_DFP` (plain DFP), `FIG10_SIP` (SIP) and `FIG13`
/// (mixed-blood, where the paper's "DFP" bar is DFP-stop).
///
/// The model's costs were calibrated on these same points, so this is a
/// fit error, not a validation against held-out data. `None` when the pass
/// lacks a cell the table needs (any workload but paper-grid).
pub fn paper_err_pp(pass: &Pass) -> Option<f64> {
    use sgx_bench::paper::{FIG10_SIP, FIG13, FIG8_DFP};
    let cycles = |bench: &str, scheme: &str| -> Option<f64> {
        let label = format!("{bench}/{scheme}");
        let cell = pass.cells.iter().find(|c| c.label == label)?;
        Some(cell.reports.first()?.total_cycles.raw() as f64)
    };
    let improvement = |bench: &str, scheme: &str| -> Option<f64> {
        Some(1.0 - cycles(bench, scheme)? / cycles(bench, Scheme::Baseline.name())?)
    };
    let mut points: Vec<(&str, &str, f64)> = Vec::new();
    points.extend(FIG8_DFP.iter().map(|&(b, v)| (b, Scheme::Dfp.name(), v)));
    points.extend(FIG10_SIP.iter().map(|&(b, v)| (b, Scheme::Sip.name(), v)));
    for &(bar, v) in FIG13 {
        let scheme = match bar {
            "DFP" => Scheme::DfpStop,
            other => other.parse::<Scheme>().ok()?,
        };
        points.push((Benchmark::MixedBlood.name(), scheme.name(), v));
    }
    let mut gap = 0.0;
    for &(bench, scheme, paper) in &points {
        gap += (improvement(bench, scheme)? - paper).abs();
    }
    Some(gap * 100.0 / points.len() as f64)
}

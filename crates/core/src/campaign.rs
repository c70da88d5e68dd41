//! The campaign engine: declarative benchmark × scheme × config grids
//! executed on a work-stealing thread pool with deterministic results.
//!
//! Every paper figure is a *campaign* — a cross-product of benchmarks,
//! schemes and parameter sweeps. This module turns that cross-product into
//! an explicit [`Campaign`] of [`Cell`]s, runs the cells on `jobs` worker
//! threads, and returns a [`CampaignReport`] whose cells appear in
//! enumeration order regardless of how the pool scheduled them.
//!
//! ## Determinism
//!
//! Three properties make parallel and serial campaign runs bit-identical:
//!
//! 1. **Cells are independent.** Each cell builds its own kernel, EPC and
//!    workload; nothing is shared between worker threads but the queue.
//! 2. **Every cell runs at the campaign seed.** A cell's workload depends
//!    only on the seed and the cell, never on scheduling, and every
//!    scheme and sweep point on a benchmark runs its baseline's stream, so
//!    scheme-vs-baseline comparisons measure the scheme alone.
//! 3. **Results are collected by index.** Workers write into a
//!    pre-sized slot table, so the report order is the cell order.
//!
//! Wall-clock time is recorded per cell but excluded from
//! [`CampaignReport::to_canonical_json`], which is the representation the
//! golden-report regression harness compares.
//!
//! # Examples
//!
//! ```
//! use sgx_preload_core::{Campaign, Scheme, SimConfig};
//! use sgx_workloads::{Benchmark, Scale};
//!
//! let cfg = SimConfig::at_scale(Scale::DEV);
//! let campaign = Campaign::grid(
//!     "doc",
//!     7,
//!     &[Benchmark::Microbenchmark],
//!     &[Scheme::Baseline, Scheme::Dfp],
//!     cfg,
//! );
//! let serial = campaign.run_serial()?;
//! let parallel = campaign.run_with_jobs(4)?;
//! assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
//! # Ok::<(), sgx_preload_core::CampaignError>(())
//! ```

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use sgx_kernel::{
    ChromeTraceSink, EventCounts, JsonlWriterSink, SeriesFormat, SharedSink, TimeSeriesSink,
    TraceSink,
};
use sgx_observer::{LeakageReport, ObserverSink, OramModel};
use sgx_sim::json;
use sgx_workloads::{AccessIter, Benchmark, PageRange, SecretBit, SecretPair};

use crate::replay::TraceReplay;
use crate::simulator::AppSpec;
use crate::{RunReport, Scheme, SimConfig, SimError, SimRun};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "SGX_PRELOAD_JOBS";

/// Resolves the worker count: explicit request, else [`JOBS_ENV`], else
/// the machine's available parallelism (min 1).
pub fn effective_jobs(requested: Option<usize>) -> usize {
    if let Some(j) = requested {
        return j.max(1);
    }
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(j) = v.parse::<usize>() {
            return j.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A cell that failed, with enough context to find it: the label and
/// enumeration index of the offending cell plus what failed. Returned by
/// the `Campaign::run*` family; when several cells fail in one parallel
/// run, the error reported is the failing cell with the lowest index, so
/// serial and parallel runs agree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Enumeration index of the failing cell.
    pub index: usize,
    /// Label of the failing cell.
    pub label: String,
    /// What went wrong inside the cell.
    pub source: CellError,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "campaign cell {} (index {}): {}",
            self.label, self.index, self.source
        )
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// What failed in a campaign cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellError {
    /// The simulation could not run.
    Sim(SimError),
    /// A trace or timeline file of the cell (or its directory) could not
    /// be created or written.
    Output {
        /// The file or directory.
        path: PathBuf,
        /// The I/O error, as text.
        error: String,
    },
}

impl CellError {
    fn output(path: &Path, error: &std::io::Error) -> Self {
        CellError::Output {
            path: path.to_path_buf(),
            error: error.to_string(),
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Sim(e) => e.fmt(f),
            CellError::Output { path, error } => {
                write!(f, "cannot write {}: {error}", path.display())
            }
        }
    }
}

impl Error for CellError {}

impl From<SimError> for CellError {
    fn from(e: SimError) -> Self {
        CellError::Sim(e)
    }
}

/// Locks a mutex, tolerating poison: a panicking sibling worker must not
/// cascade into a second panic while the first unwinds — the original
/// panic is the error the caller sees.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f(0..n)` on a `jobs`-worker work-stealing pool and returns the
/// results in index order regardless of scheduling. This is the pool
/// behind [`Campaign::run_with_jobs`] and the figure harness: per-worker
/// deques are round-robin seeded, and an idle worker steals from the back
/// of the fullest sibling. `f` must produce a result that depends only on
/// its index for parallel runs to stay deterministic.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w..n).step_by(jobs).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|w| {
                let (queues, slots, f) = (&queues, &slots, &f);
                scope.spawn(move || {
                    while let Some(i) = pop_or_steal(queues, w) {
                        *lock_clean(&slots[i]) = Some(f(i));
                    }
                })
            })
            .collect();
        // Join every worker instead of leaving it to the scope, which
        // returns once the closures finish while their threads may still be
        // exiting and holding their malloc arenas. The next pool's workers
        // would then open fresh arenas, and the peak resident set would
        // grow with host scheduling.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            lock_clean(&slot)
                .take()
                .expect("every queued index produced a result")
        })
        .collect()
}

/// How cells take their workload seeds: every cell runs at the campaign
/// seed. Kept, with [`Campaign::with_seed_mode`], only because the bench
/// ledger still names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedMode {
    /// Every cell runs with the campaign seed verbatim.
    Shared,
}

/// A leakage-observatory cell: both variants of one secret pair run
/// under the cell's scheme, watched by the untrusted-OS observer, and
/// the cell's result carries a [`LeakageReport`] comparing what the OS
/// saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeakageSpec {
    /// The secret pair to run (also supplies the ORAM row's footprint).
    pub pair: SecretPair,
    /// Windowed-entropy window, in faults.
    pub window: usize,
    /// When set, both secret labels run the **same** ORAM-style padded
    /// stream ([`OramModel`]) instead of the pair's secret-dependent
    /// variants — the known-private reference row (distinguishability
    /// exactly 0).
    pub oram: bool,
}

/// The workload a campaign cell runs: a synthetic benchmark model, a
/// recorded trace replayed through the simulator, or a secret-pair
/// leakage measurement.
#[derive(Debug, Clone)]
pub enum CellWork {
    /// A synthetic benchmark model.
    Bench(Benchmark),
    /// A recorded-trace replay (see [`TraceReplay`]).
    Replay(TraceReplay),
    /// A secret-pair leakage measurement (see [`LeakageSpec`]).
    Leakage(LeakageSpec),
}

impl CellWork {
    /// The workload's display name: the benchmark's paper name, the
    /// replay's label, or the secret pair's name.
    pub fn name(&self) -> &str {
        match self {
            CellWork::Bench(b) => b.name(),
            CellWork::Replay(r) => r.label(),
            CellWork::Leakage(spec) => spec.pair.name(),
        }
    }
}

impl From<Benchmark> for CellWork {
    fn from(bench: Benchmark) -> Self {
        CellWork::Bench(bench)
    }
}

impl From<TraceReplay> for CellWork {
    fn from(replay: TraceReplay) -> Self {
        CellWork::Replay(replay)
    }
}

/// One campaign cell: a workload, a scheme, and the full configuration
/// it runs under.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Display label (`work/scheme` by default, extendable for sweeps).
    pub label: String,
    /// The workload to run.
    pub work: CellWork,
    /// The scheme arming the kernel.
    pub scheme: Scheme,
    /// Full configuration; the campaign overrides its `seed` with the
    /// campaign seed.
    pub cfg: SimConfig,
}

impl Cell {
    /// A cell labeled `work/scheme`: a benchmark, or a recorded-trace
    /// replay. A source-declared replay ([`TraceReplay::of_benchmark`])
    /// is indistinguishable — label and report alike — from its
    /// benchmark's cell run on the recording's seed.
    pub fn new(work: impl Into<CellWork>, scheme: Scheme, cfg: SimConfig) -> Self {
        let work = work.into();
        Cell {
            label: format!("{}/{}", work.name(), scheme.name()),
            work,
            scheme,
            cfg,
        }
    }

    /// A leakage-observatory cell, labeled `pair/scheme` (or `pair/oram`
    /// for the reference row).
    pub fn leakage(spec: LeakageSpec, scheme: Scheme, cfg: SimConfig) -> Self {
        let label = if spec.oram {
            format!("{}/oram", spec.pair.name())
        } else {
            format!("{}/{}", spec.pair.name(), scheme.name())
        };
        Cell {
            label,
            work: CellWork::Leakage(spec),
            scheme,
            cfg,
        }
    }

    /// Replaces the label (sweep cells append their parameter, e.g.
    /// `deepsjeng/SIP/threshold=5%`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// A declarative set of cells plus the seed every cell runs at.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (report header and JSON `campaign` field).
    pub name: String,
    /// The workload seed of every cell.
    pub seed: u64,
    trace_dir: Option<PathBuf>,
    timeline_dir: Option<PathBuf>,
    cells: Vec<Cell>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Campaign {
            name: name.into(),
            seed,
            trace_dir: None,
            timeline_dir: None,
            cells: Vec::new(),
        }
    }

    /// The full `works × schemes` cross-product over one base config,
    /// enumerated work-major (all schemes of a workload are adjacent).
    /// The works are benchmarks or recorded-trace replays; source-declared
    /// replays recorded at the campaign seed reproduce the generator grid
    /// byte-for-byte.
    pub fn grid<W>(
        name: impl Into<String>,
        seed: u64,
        works: &[W],
        schemes: &[Scheme],
        cfg: SimConfig,
    ) -> Self
    where
        W: Clone + Into<CellWork>,
    {
        let mut c = Campaign::new(name, seed);
        for work in works {
            for &scheme in schemes {
                c.push(Cell::new(work.clone(), scheme, cfg));
            }
        }
        c
    }

    /// The `benches × schemes × points` sweep: [`Campaign::grid`]
    /// extended with a third axis of named configs — EPC sizes, tenant
    /// policies, predictors. Cells are labeled
    /// `bench/scheme/<axis>=<label>` and enumerated benchmark-major, then
    /// scheme, then point, so one bench/scheme pair's points are adjacent
    /// and A/B comparisons against a reference point (e.g. `tenant=none`)
    /// line up. Schemes a point does not affect (e.g.
    /// [`Scheme::Baseline`] on a predictor axis) still get one cell per
    /// point, so every comparison column is complete.
    pub fn sweep(
        name: impl Into<String>,
        seed: u64,
        benches: &[Benchmark],
        schemes: &[Scheme],
        axis: &str,
        points: &[(&str, SimConfig)],
    ) -> Self {
        let mut c = Campaign::new(name, seed);
        for &bench in benches {
            for &scheme in schemes {
                for &(label, cfg) in points {
                    let label = format!("{}/{}/{axis}={label}", bench.name(), scheme.name());
                    c.push(Cell::new(bench, scheme, cfg).with_label(label));
                }
            }
        }
        c
    }

    /// The `pairs × (schemes + oram)` leakage grid: for every secret
    /// pair, one leakage cell per scheme (labeled `pair/scheme`) plus
    /// the ORAM-style known-private reference row (`pair/oram`, run at
    /// the pair's footprint under [`Scheme::Baseline`]). Enumerated
    /// pair-major so one pair's scheme rows are adjacent, and every cell
    /// of a pair runs the same secret-dependent workload streams.
    pub fn leakage_grid(
        name: impl Into<String>,
        seed: u64,
        pairs: &[SecretPair],
        schemes: &[Scheme],
        cfg: SimConfig,
        window: usize,
    ) -> Self {
        let mut c = Campaign::new(name, seed);
        for &pair in pairs {
            for &scheme in schemes {
                c.push(Cell::leakage(
                    LeakageSpec {
                        pair,
                        window,
                        oram: false,
                    },
                    scheme,
                    cfg,
                ));
            }
            c.push(Cell::leakage(
                LeakageSpec {
                    pair,
                    window,
                    oram: true,
                },
                Scheme::Baseline,
                cfg,
            ));
        }
        c
    }

    /// Does nothing: every cell already runs at the campaign seed. Kept
    /// only because the bench ledger still calls it.
    pub fn with_seed_mode(self, _mode: SeedMode) -> Self {
        self
    }

    /// Streams every cell's paging events to
    /// `<dir>/<index>_<label>.jsonl` (one JSONL file per cell, labels
    /// sanitized to filename-safe characters). The directory is created on
    /// demand. A cell whose file cannot be created or written fails with a
    /// [`CellError::Output`] naming the path. Tracing never affects the
    /// measured results or the canonical JSON.
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Writes per-cell timeline artifacts into `dir`: a perfetto-loadable
    /// Chrome trace (`<index>_<label>.chrome.json`) and a gauge time
    /// series (`<index>_<label>.series.csv`). Cells whose config leaves
    /// [`SimConfig::series_interval`] at `0` sample every
    /// [`DEFAULT_TIMELINE_SERIES_INTERVAL`] cycles so the series is never
    /// empty. Like tracing, a file that cannot be created or written fails
    /// the cell, and timelines never affect measured results or canonical
    /// JSON.
    pub fn with_timeline_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.timeline_dir = Some(dir.into());
        self
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) -> &mut Self {
        self.cells.push(cell);
        self
    }

    /// The cells in enumeration order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the campaign has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The seed the cell at `index` will run with: the campaign seed, for
    /// every cell.
    pub fn cell_seed(&self, _index: usize) -> u64 {
        self.seed
    }

    /// Runs the campaign with [`effective_jobs`]`(None)` workers.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] for the lowest-indexed cell whose run failed.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        self.run_with_jobs(effective_jobs(None))
    }

    /// Runs every cell on the calling thread, in order (the reference
    /// execution the regression harness compares parallel runs against).
    ///
    /// # Errors
    ///
    /// [`CampaignError`] for the first cell whose run failed; later cells
    /// do not run.
    pub fn run_serial(&self) -> Result<CampaignReport, CampaignError> {
        let t0 = Instant::now();
        let mut cells = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            cells.push(run_cell(
                cell,
                i,
                self.seed,
                self.trace_dir.as_deref(),
                self.timeline_dir.as_deref(),
            )?);
        }
        Ok(self.assemble(cells, 1, t0))
    }

    /// Runs the campaign on a `jobs`-worker work-stealing pool (see
    /// [`run_indexed`]). Results are returned in cell order regardless of
    /// scheduling.
    ///
    /// # Errors
    ///
    /// [`CampaignError`] for the lowest-indexed cell whose run failed —
    /// the same cell a serial run would report first, so error behaviour
    /// is scheduling-independent too. Every queued cell still runs.
    pub fn run_with_jobs(&self, jobs: usize) -> Result<CampaignReport, CampaignError> {
        let jobs = jobs.max(1);
        if jobs == 1 || self.cells.len() <= 1 {
            let mut r = self.run_serial()?;
            r.jobs = jobs;
            return Ok(r);
        }
        let t0 = Instant::now();
        let results = run_indexed(self.cells.len(), jobs, |i| {
            run_cell(
                &self.cells[i],
                i,
                self.seed,
                self.trace_dir.as_deref(),
                self.timeline_dir.as_deref(),
            )
        });
        let cells = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(self.assemble(cells, jobs, t0))
    }

    fn assemble(&self, cells: Vec<CellReport>, jobs: usize, t0: Instant) -> CampaignReport {
        CampaignReport {
            name: self.name.clone(),
            campaign_seed: self.seed,
            jobs,
            wall_nanos: t0.elapsed().as_nanos() as u64,
            cells,
        }
    }
}

/// Pops from worker `w`'s own deque, else steals from the back of the
/// fullest non-empty sibling. Returns `None` when every deque is empty.
fn pop_or_steal(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(i) = lock_clean(&queues[w]).pop_front() {
        return Some(i);
    }
    loop {
        let mut victim: Option<(usize, usize)> = None; // (queue, len)
        for (q, queue) in queues.iter().enumerate() {
            if q == w {
                continue;
            }
            let len = lock_clean(queue).len();
            if len > 0 && victim.map(|(_, l)| len > l).unwrap_or(true) {
                victim = Some((q, len));
            }
        }
        let (q, _) = victim?;
        // The victim may have drained between the scan and this lock;
        // rescan in that case.
        if let Some(i) = lock_clean(&queues[q]).pop_back() {
            return Some(i);
        }
    }
}

/// Replaces anything that doesn't belong in a filename with `-`.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// The gauge-sampling interval (cycles) timeline cells fall back to when
/// their config leaves [`SimConfig::series_interval`] unset.
pub const DEFAULT_TIMELINE_SERIES_INTERVAL: u64 = 100_000;

/// A file a cell's sink streams to, and the handle that finishes the sink
/// after the run, bringing back its first write error.
type CellFile = (PathBuf, Box<dyn FnOnce() -> std::io::Result<()>>);

/// Creates the cell's JSONL trace (in `trace_dir`) and its Chrome trace and
/// gauge series (in `timeline_dir`), subscribes their sinks to `run`, and
/// returns the files to finish after it.
fn open_cell_files<'a>(
    mut run: SimRun<'a>,
    index: usize,
    label: &str,
    trace_dir: Option<&Path>,
    timeline_dir: Option<&Path>,
) -> Result<(SimRun<'a>, Vec<CellFile>), CellError> {
    /// Subscribes `created`, the sink created at `path`, to `run`.
    fn open<'a, S: TraceSink + 'static>(
        run: SimRun<'a>,
        files: &mut Vec<CellFile>,
        path: PathBuf,
        created: std::io::Result<S>,
        finish: fn(&mut S) -> std::io::Result<()>,
    ) -> Result<SimRun<'a>, CellError> {
        let sink = created.map_err(|e| CellError::output(&path, &e))?;
        let (shared, sink) = SharedSink::new(sink);
        files.push((path, Box::new(move || finish(&mut sink.borrow_mut()))));
        Ok(run.sink(Box::new(shared)))
    }
    let base = format!("{:03}_{}", index, sanitize_label(label));
    let mut files = Vec::new();
    for dir in trace_dir.iter().chain(&timeline_dir) {
        std::fs::create_dir_all(dir).map_err(|e| CellError::output(dir, &e))?;
    }
    if let Some(dir) = trace_dir {
        let path = dir.join(format!("{base}.jsonl"));
        let sink = JsonlWriterSink::create(&path);
        run = open(run, &mut files, path, sink, JsonlWriterSink::finish)?;
    }
    if let Some(dir) = timeline_dir {
        let path = dir.join(format!("{base}.chrome.json"));
        let sink = ChromeTraceSink::create(&path);
        run = open(run, &mut files, path, sink, ChromeTraceSink::finish)?;
        let path = dir.join(format!("{base}.series.csv"));
        let sink = TimeSeriesSink::create(&path, SeriesFormat::Csv);
        run = open(run, &mut files, path, sink, TimeSeriesSink::finish)?;
    }
    Ok((run, files))
}

/// Finishes each of a cell's files after its run; the first that fails
/// names its path.
fn finish_cell_files(files: Vec<CellFile>) -> Result<(), CellError> {
    files
        .into_iter()
        .try_for_each(|(path, finish)| finish().map_err(|e| CellError::output(&path, &e)))
}

/// Executes one cell: profiling (when SIP is armed), the measurement run,
/// and telemetry collection.
fn run_cell(
    cell: &Cell,
    index: usize,
    seed: u64,
    trace_dir: Option<&Path>,
    timeline_dir: Option<&Path>,
) -> Result<CellReport, CampaignError> {
    let mut cfg = cell.cfg.with_seed(seed);
    if timeline_dir.is_some() && cfg.series_interval == 0 {
        cfg = cfg.with_series_interval(DEFAULT_TIMELINE_SERIES_INTERVAL);
    }
    if let CellWork::Leakage(spec) = &cell.work {
        return run_leakage_cell(cell, *spec, &cfg, index, seed, trace_dir, timeline_dir);
    }
    let t0 = Instant::now();
    let fail = |source: CellError| CampaignError {
        index,
        label: cell.label.clone(),
        source,
    };
    let mut run = SimRun::new(&cfg).scheme(cell.scheme);
    run = match &cell.work {
        CellWork::Bench(bench) => run.bench(*bench),
        CellWork::Replay(replay) => run.replay(replay.clone()),
        CellWork::Leakage(_) => unreachable!("dispatched above"),
    };
    let (run, files) =
        open_cell_files(run, index, &cell.label, trace_dir, timeline_dir).map_err(fail)?;
    // A user-level cell bypasses the kernel: its report carries no events.
    let report = run.run_one().map_err(|e| fail(e.into()))?;
    finish_cell_files(files).map_err(fail)?;
    Ok(CellReport {
        index,
        label: cell.label.clone(),
        seed,
        events: report.events,
        report,
        leakage: None,
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

/// Executes one leakage cell: both secret labels of the pair run under
/// the cell's scheme on the cell seed, each watched by the untrusted-OS
/// [`ObserverSink`], and the two observations are compared into a
/// [`LeakageReport`].
///
/// The SIP plan (when the scheme instruments) is compiled from the
/// pair's *train* stream — variant A on a decorrelated seed — exactly
/// once per program, never per secret, mirroring the paper's PGO flow.
/// Trace/timeline artifacts, when requested, capture variant A's run.
fn run_leakage_cell(
    cell: &Cell,
    spec: LeakageSpec,
    cfg: &SimConfig,
    index: usize,
    seed: u64,
    trace_dir: Option<&Path>,
    timeline_dir: Option<&Path>,
) -> Result<CellReport, CampaignError> {
    let t0 = Instant::now();
    let fail = |source: CellError| CampaignError {
        index,
        label: cell.label.clone(),
        source,
    };
    let oram = OramModel::paper_defaults();
    let elrange = if spec.oram {
        oram.scaled_pages(cfg.scale)
    } else {
        spec.pair.elrange_pages(cfg.scale)
    };
    // The train stream does not depend on the secret, so one plan serves
    // both variants.
    let plan = if cell.scheme.uses_sip() {
        let train: AccessIter = if spec.oram {
            oram.stream(cfg.scale, sgx_sim::mix(seed, 0x5EC7))
        } else {
            spec.pair.train(cfg.scale, seed)
        };
        let profile = sgx_sip::profile_stream(train, cfg.epc_pages as usize);
        sgx_sip::InstrumentationPlan::from_profile(&profile, cfg.sip)
    } else {
        sgx_sip::InstrumentationPlan::none()
    };
    let mut first: Option<RunReport> = None;
    let mut observations = Vec::with_capacity(2);
    for (secret, plan) in SecretBit::BOTH.into_iter().zip([plan.clone(), plan]) {
        // The ORAM row feeds the *same* padded stream to both labels:
        // the observable pattern is secret-independent by construction.
        let stream: AccessIter = if spec.oram {
            oram.stream(cfg.scale, seed)
        } else {
            spec.pair.build(secret, cfg.scale, seed)
        };
        let (observer, obs) = ObserverSink::new();
        let observer = observer.with_enclave(cell.work.name(), PageRange::new(0, elrange.max(1)));
        let app = AppSpec::new(cell.work.name(), elrange, stream)
            .plan(plan)
            .build()
            .map_err(|e| fail(SimError::from(e).into()))?;
        let run = SimRun::new(cfg)
            .scheme(cell.scheme)
            .app(app)
            .sink(Box::new(observer));
        let (run, files) = if secret == SecretBit::A {
            open_cell_files(run, index, &cell.label, trace_dir, timeline_dir).map_err(fail)?
        } else {
            (run, Vec::new())
        };
        let report = run.run_one().map_err(|e| fail(e.into()))?;
        finish_cell_files(files).map_err(fail)?;
        first.get_or_insert(report);
        // The sink went with the run's kernel: move the observation out.
        observations.push(obs.take());
    }
    let leakage = LeakageReport::from_observations(
        spec.pair.name(),
        spec.window,
        spec.oram,
        &observations[0],
        &observations[1],
    );
    let report = first.expect("variant A ran");
    Ok(CellReport {
        index,
        label: cell.label.clone(),
        seed,
        events: report.events,
        report,
        leakage: Some(leakage),
        wall_nanos: t0.elapsed().as_nanos() as u64,
    })
}

/// One executed cell: the run report plus event telemetry and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Position in the campaign's cell enumeration.
    pub index: usize,
    /// The cell's label.
    pub label: String,
    /// The seed the cell actually ran with.
    pub seed: u64,
    /// The simulator's measurements. For a leakage cell, variant A's run
    /// (both variants are structurally identical; A is the reference).
    pub report: RunReport,
    /// Per-kind paging-event tallies: the report's kernel-derived
    /// [`RunReport::events`] (for a leakage cell, variant A's).
    pub events: EventCounts,
    /// What the untrusted-OS observer learned — present on leakage cells
    /// only, `null` in the JSON otherwise.
    pub leakage: Option<LeakageReport>,
    /// Host wall-clock nanoseconds the cell took (non-deterministic;
    /// excluded from canonical JSON).
    pub wall_nanos: u64,
}

impl CellReport {
    fn write_json(&self, out: &mut String, canonical: bool) {
        json::obj(out, |o| {
            o.field("index", self.index)
                .field("label", &self.label)
                .field("seed", self.seed)
                .with("report", |out| self.report.write_json(out))
                .with("events", |out| self.events.write_json(out))
                .with("leakage", |out| match &self.leakage {
                    Some(l) => l.write_json(out),
                    None => out.push_str("null"),
                });
            if !canonical {
                o.field("wall_nanos", self.wall_nanos);
            }
        });
    }
}

/// The outcome of a campaign run: every cell's report, in cell order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// The seed every cell ran with.
    pub campaign_seed: u64,
    /// Worker threads used (non-deterministic context; excluded from
    /// canonical JSON).
    pub jobs: usize,
    /// Host wall-clock nanoseconds for the whole campaign
    /// (non-deterministic; excluded from canonical JSON).
    pub wall_nanos: u64,
    /// Per-cell results, in cell-enumeration order.
    pub cells: Vec<CellReport>,
}

impl CampaignReport {
    /// The deterministic JSON representation: identical bytes for serial
    /// and parallel runs of the same campaign. Excludes worker count and
    /// wall-clock timing. This is what the golden-report harness pins.
    pub fn to_canonical_json(&self) -> String {
        self.to_json_inner(true)
    }

    /// The full JSON representation, including the worker count and
    /// per-cell/per-campaign wall-clock timings.
    pub fn to_json(&self) -> String {
        self.to_json_inner(false)
    }

    fn to_json_inner(&self, canonical: bool) -> String {
        let mut out = String::new();
        json::obj(&mut out, |o| {
            o.field("campaign", &self.name)
                .field("campaign_seed", self.campaign_seed);
            if !canonical {
                o.field("jobs", self.jobs)
                    .field("wall_nanos", self.wall_nanos);
            }
            o.arr("cells", &self.cells, |c, out| c.write_json(out, canonical));
        });
        out
    }

    /// Looks a cell up by label.
    pub fn cell(&self, label: &str) -> Option<&CellReport> {
        self.cells.iter().find(|c| c.label == label)
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign {} (seed {}, {} cells, {} workers, {:.2}s)",
            self.name,
            self.campaign_seed,
            self.cells.len(),
            self.jobs,
            self.wall_nanos as f64 / 1e9
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "  [{:>3}] {:<32} {:>16} cycles  {:>8} faults  {:>6} preloads  {:>5} events",
                c.index,
                c.label,
                c.report.total_cycles.to_string(),
                c.report.faults,
                c.report.preloads_started,
                c.events.total(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_kernel::TenantPolicy;
    use sgx_workloads::Scale;

    fn tiny_cfg() -> SimConfig {
        SimConfig::at_scale(Scale::new(64))
    }

    fn tiny_campaign() -> Campaign {
        Campaign::grid(
            "tiny",
            11,
            &[Benchmark::Microbenchmark, Benchmark::Leela],
            &[Scheme::Baseline, Scheme::Dfp],
            tiny_cfg(),
        )
    }

    #[test]
    fn grid_enumerates_benchmark_major() {
        let c = tiny_campaign();
        let labels: Vec<&str> = c.cells().iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "microbenchmark/baseline",
                "microbenchmark/DFP",
                "leela/baseline",
                "leela/DFP"
            ]
        );
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let c = tiny_campaign();
        let serial = c.run_serial().unwrap();
        let parallel = c.run_with_jobs(4).unwrap();
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
            assert_eq!(s.report, p.report, "cell {} diverged", s.label);
            assert_eq!(s.events, p.events, "cell {} telemetry diverged", s.label);
            assert_eq!(s.seed, p.seed);
        }
        assert_eq!(serial.to_canonical_json(), parallel.to_canonical_json());
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let mut c = Campaign::new("one", 3);
        c.push(Cell::new(
            Benchmark::Microbenchmark,
            Scheme::Baseline,
            tiny_cfg(),
        ));
        let r = c.run_with_jobs(8).unwrap();
        assert_eq!(r.cells.len(), 1);
        assert!(r.cells[0].report.accesses > 0);
    }

    #[test]
    fn canonical_json_hides_timing_but_full_json_has_it() {
        let mut c = Campaign::new("t", 1);
        c.push(Cell::new(
            Benchmark::Microbenchmark,
            Scheme::Baseline,
            tiny_cfg(),
        ));
        let r = c.run_serial().unwrap();
        let canon = r.to_canonical_json();
        let full = r.to_json();
        assert!(!canon.contains("wall_nanos"));
        assert!(!canon.contains("\"jobs\""));
        assert!(full.contains("wall_nanos"));
        assert!(full.contains("\"jobs\":1"));
    }

    #[test]
    fn sweep_adds_a_labelled_config_axis() {
        let cfg = tiny_cfg();
        let c = Campaign::sweep(
            "sweep",
            13,
            &[Benchmark::Microbenchmark],
            &[Scheme::Dfp],
            "epc",
            &[
                ("full", cfg),
                ("half", cfg.with_epc_pages(cfg.epc_pages / 2)),
            ],
        );
        let labels: Vec<&str> = c.cells().iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            ["microbenchmark/DFP/epc=full", "microbenchmark/DFP/epc=half"]
        );
        assert_eq!(c.cells()[1].cfg.epc_pages * 2, cfg.epc_pages);
        let r = c.run_serial().unwrap();
        // Same workload either way; the EPC size only perturbs the kernel.
        assert_eq!(r.cells[0].report.accesses, r.cells[1].report.accesses);

        let c = Campaign::sweep(
            "tenancy",
            17,
            &[Benchmark::Microbenchmark],
            &[Scheme::Dfp],
            "tenant",
            &[
                ("none", cfg),
                (
                    "fair2",
                    cfg.with_tenant_policy(TenantPolicy::fair(2, cfg.epc_pages)),
                ),
            ],
        );
        let labels: Vec<&str> = c.cells().iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "microbenchmark/DFP/tenant=none",
                "microbenchmark/DFP/tenant=fair2"
            ]
        );
        assert!(c.cells()[0].cfg.tenant.is_none());
        assert!(!c.cells()[1].cfg.tenant.is_none());
        let r = c.run_serial().unwrap();
        // Same workload either way; the policy only perturbs the kernel.
        assert_eq!(r.cells[0].report.accesses, r.cells[1].report.accesses);
        // A single-enclave cell under fair(2) stays within its share, so
        // the tenant fields serialize (zero wait, zero shed) either way.
        assert!(r.to_canonical_json().contains("\"channel_wait_cycles\":"));
    }

    #[test]
    fn replay_grid_reproduces_generator_grid() {
        use sgx_workloads::{InputSet, RecordedTrace};
        let cfg = tiny_cfg();
        let seed = 29;
        let benches = [Benchmark::Microbenchmark, Benchmark::Leela];
        let schemes = [Scheme::Baseline, Scheme::Dfp];
        let direct = Campaign::grid("replay_eq", seed, &benches, &schemes, cfg)
            .run_serial()
            .unwrap();
        // Record each bench's full ref stream at the campaign seed, then
        // drive the identical grid from the recordings.
        let replays: Vec<TraceReplay> = benches
            .iter()
            .map(|&b| {
                let trace =
                    RecordedTrace::record(b.build(InputSet::Ref, cfg.scale, seed), usize::MAX);
                TraceReplay::of_benchmark(b, trace)
            })
            .collect();
        let replayed = Campaign::grid("replay_eq", seed, &replays, &schemes, cfg)
            .run_with_jobs(4)
            .unwrap();
        assert_eq!(direct.to_canonical_json(), replayed.to_canonical_json());
    }

    #[test]
    fn traced_events_agree_with_report_counters() {
        let mut c = Campaign::new("ev", 5);
        c.push(Cell::new(
            Benchmark::Microbenchmark,
            Scheme::Dfp,
            tiny_cfg(),
        ));
        let r = c.run_serial().unwrap();
        let cell = &r.cells[0];
        assert_eq!(cell.events.faults, cell.report.faults);
        assert_eq!(cell.events.preload_starts, cell.report.preloads_started);
        assert!(cell.events.total() > 0);
    }

    #[test]
    fn failing_cell_error_names_the_lowest_indexed_cell() {
        // An EPC of zero pages fails kernel construction, so every cell
        // errors; serial and parallel must both blame cell 0.
        let bad = tiny_cfg().with_epc_pages(0);
        let c = Campaign::grid(
            "bad",
            7,
            &[Benchmark::Microbenchmark, Benchmark::Leela],
            &[Scheme::Baseline, Scheme::Dfp],
            bad,
        );
        let serial = c.run_serial().unwrap_err();
        let parallel = c.run_with_jobs(4).unwrap_err();
        assert_eq!(serial, parallel);
        assert_eq!(serial.index, 0);
        assert_eq!(serial.label, "microbenchmark/baseline");
        let msg = serial.to_string();
        assert!(msg.contains("microbenchmark/baseline"), "{msg}");
        use std::error::Error;
        assert!(serial.source().is_some());
    }

    #[test]
    fn leakage_grid_enumerates_pair_major_with_oram_rows() {
        let c = Campaign::leakage_grid(
            "leak",
            9,
            &[SecretPair::BranchHalves, SecretPair::DfpEcho],
            &[Scheme::Baseline, Scheme::Dfp],
            tiny_cfg(),
            64,
        );
        let labels: Vec<&str> = c.cells().iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "branch-halves/baseline",
                "branch-halves/DFP",
                "branch-halves/oram",
                "dfp-echo/baseline",
                "dfp-echo/DFP",
                "dfp-echo/oram",
            ]
        );
    }

    #[test]
    fn leakage_cells_carry_reports_and_oram_is_indistinguishable() {
        let c = Campaign::leakage_grid(
            "leak",
            9,
            &[SecretPair::LookupOrder],
            &[Scheme::Baseline],
            tiny_cfg(),
            64,
        );
        let r = c.run_serial().unwrap();
        let base = r.cells[0].leakage.as_ref().expect("leakage cell");
        assert!(!base.oram);
        assert!(
            base.distinguishability() > 0.5,
            "order pair leaks at baseline: {}",
            base.distinguishability()
        );
        let oram = r.cells[1].leakage.as_ref().expect("oram row");
        assert!(oram.oram);
        assert_eq!(
            oram.distinguishability(),
            0.0,
            "padded reference row is secret-independent"
        );
        // Schema: leakage serializes on every cell — null for plain runs.
        let json = r.to_canonical_json();
        assert!(json.contains("\"leakage\":{\"pair\":\"lookup-order\""));
        let plain = tiny_campaign().run_serial().unwrap();
        assert!(plain.to_canonical_json().contains("\"leakage\":null"));
    }

    #[test]
    fn run_indexed_serial_and_parallel_agree() {
        let serial = run_indexed(9, 1, |i| i * i);
        let parallel = run_indexed(9, 4, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..9).map(|i| i * i).collect::<Vec<_>>());
        assert!(run_indexed(0, 3, |i| i).is_empty());
    }

    #[test]
    fn run_indexed_returns_after_its_workers_exit() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                // Thread teardown that outlasts the worker's closure. The
                // delay only widens the window an unjoined pool returns
                // in; a joined pool passes without it.
                std::thread::sleep(std::time::Duration::from_millis(50));
                EXITED.fetch_add(1, SeqCst);
            }
        }
        thread_local!(static GUARD: OnExit = {
            STARTED.fetch_add(1, SeqCst);
            OnExit
        });
        run_indexed(4, 2, |i| GUARD.with(|_| i));
        assert!(STARTED.load(SeqCst) >= 1);
        assert_eq!(EXITED.load(SeqCst), STARTED.load(SeqCst));
    }

    #[test]
    #[should_panic(expected = "cell 5 failed")]
    fn run_indexed_rethrows_a_worker_panic() {
        run_indexed(8, 2, |i| {
            assert!(i != 5, "cell 5 failed");
            i
        });
    }

    #[test]
    fn effective_jobs_clamps_to_one() {
        assert_eq!(effective_jobs(Some(0)), 1);
        assert_eq!(effective_jobs(Some(5)), 5);
        assert!(effective_jobs(None) >= 1);
    }
}

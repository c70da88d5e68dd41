//! The unified simulation entry point.
//!
//! [`SimRun`] is one builder for every kind of run (the four historical
//! `run_*` entrypoints it replaced are gone): pick a scheme, add work
//! (prepared [`AppSpec`]s, whole [`Benchmark`]s, or outside-the-enclave
//! workloads), attach any number of streaming [`TraceSink`]s, and run. All enclave entries share one kernel, EPC and
//! load channel — the paper's multi-enclave contention scenario falls out
//! of adding more than one.

use std::error::Error;
use std::fmt;

use sgx_kernel::{KernelError, TraceSink};
use sgx_sip::InstrumentationPlan;
use sgx_workloads::{AccessIter, Benchmark, InputSet};

use crate::replay::{ElrangeError, TraceReplay};
use crate::simulator::{
    build_plan, run_kernel_apps, run_outside_model, AppSpec, ProfileMemo, SpecError,
};
use crate::{RunReport, Scheme, SimConfig};

/// Errors from [`SimRun::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The builder had no work added.
    NoApps,
    /// Kernel construction or enclave/thread registration failed.
    Kernel(KernelError),
    /// An [`AppSpec`] was malformed (bad `thread_of` topology); raised by
    /// the pre-kernel validation pass.
    Spec(SpecError),
    /// [`SimRun::run_one`] was called with a number of entries other
    /// than one.
    NotSingular(usize),
    /// A source-declared replay's trace does not fit its benchmark's
    /// ELRANGE at the run's scale; raised before any kernel is built.
    Elrange(ElrangeError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoApps => f.write_str("need at least one application"),
            SimError::Kernel(e) => write!(f, "kernel setup failed: {e}"),
            SimError::Spec(e) => write!(f, "bad app spec: {e}"),
            SimError::NotSingular(n) => {
                write!(f, "run_one expects exactly one entry, got {n} reports")
            }
            SimError::Elrange(e) => write!(f, "bad replay: {e}"),
        }
    }
}

impl Error for SimError {}

impl From<KernelError> for SimError {
    fn from(e: KernelError) -> Self {
        SimError::Kernel(e)
    }
}

impl From<SpecError> for SimError {
    fn from(e: SpecError) -> Self {
        SimError::Spec(e)
    }
}

impl From<ElrangeError> for SimError {
    fn from(e: ElrangeError) -> Self {
        SimError::Elrange(e)
    }
}

enum Entry {
    App(AppSpec),
    Bench(Benchmark),
    Replay(TraceReplay),
    Outside { label: String, workload: AccessIter },
}

/// Builder for one simulation run.
///
/// # Examples
///
/// ```
/// use sgx_preload_core::{Scheme, SimConfig, SimRun};
/// use sgx_workloads::{Benchmark, Scale};
///
/// let cfg = SimConfig::at_scale(Scale::DEV);
/// let base = SimRun::new(&cfg)
///     .bench(Benchmark::Microbenchmark)
///     .run_one()?;
/// let dfp = SimRun::new(&cfg)
///     .scheme(Scheme::Dfp)
///     .bench(Benchmark::Microbenchmark)
///     .run_one()?;
/// assert!(dfp.total_cycles < base.total_cycles, "DFP helps streaming");
/// # Ok::<(), sgx_preload_core::SimError>(())
/// ```
///
/// With a streaming sink:
///
/// ```
/// use sgx_kernel::CountingSink;
/// use sgx_preload_core::{Scheme, SimConfig, SimRun};
/// use sgx_workloads::{Benchmark, Scale};
///
/// let cfg = SimConfig::at_scale(Scale::DEV);
/// let (sink, counts) = CountingSink::new();
/// let report = SimRun::new(&cfg)
///     .scheme(Scheme::Dfp)
///     .bench(Benchmark::Microbenchmark)
///     .sink(Box::new(sink))
///     .run_one()?;
/// assert_eq!(counts.get().faults, report.faults);
/// # Ok::<(), sgx_preload_core::SimError>(())
/// ```
pub struct SimRun<'a> {
    cfg: &'a SimConfig,
    scheme: Scheme,
    entries: Vec<Entry>,
    sinks: Vec<Box<dyn TraceSink>>,
    profiles: Option<&'a ProfileMemo>,
}

impl<'a> SimRun<'a> {
    /// Starts a run under `cfg` with [`Scheme::Baseline`] and no work.
    pub fn new(cfg: &'a SimConfig) -> Self {
        SimRun {
            cfg,
            scheme: Scheme::Baseline,
            entries: Vec::new(),
            sinks: Vec::new(),
            profiles: None,
        }
    }

    /// Selects the paging scheme (default: baseline).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Adds a prepared application. All added apps share one kernel;
    /// [`AppSpec::thread_of`] indices count enclave entries (apps and
    /// non-user-level benches) in insertion order.
    pub fn app(mut self, app: AppSpec) -> Self {
        self.entries.push(Entry::App(app));
        self
    }

    /// Adds several prepared applications.
    pub fn apps(mut self, apps: impl IntoIterator<Item = AppSpec>) -> Self {
        self.entries.extend(apps.into_iter().map(Entry::App));
        self
    }

    /// Adds a benchmark end to end: profiling on the *train* input when the
    /// scheme instruments, then the measurement run on *ref*. Under a
    /// user-level scheme the benchmark runs on the userspace paging model
    /// instead of the kernel.
    pub fn bench(mut self, bench: Benchmark) -> Self {
        self.entries.push(Entry::Bench(bench));
        self
    }

    /// Adds a recorded trace as a workload. With a declared source
    /// benchmark ([`TraceReplay::of_benchmark`]) the entry behaves
    /// exactly like [`SimRun::bench`] — same label, ELRANGE, and SIP
    /// profiling pass — so a full recording replays to a byte-identical
    /// report. Anonymous replays size their ELRANGE from the trace and
    /// skip instrumentation.
    pub fn replay(mut self, replay: TraceReplay) -> Self {
        self.entries.push(Entry::Replay(replay));
        self
    }

    /// Adds a workload running *outside* any enclave: unlimited RAM,
    /// first-touch faults at the regular ≈2,000-cycle cost (the "without
    /// SGX" side of the paper's §1 motivation).
    pub fn outside(mut self, label: impl Into<String>, workload: AccessIter) -> Self {
        self.entries.push(Entry::Outside {
            label: label.into(),
            workload,
        });
        self
    }

    /// Reads the SIP profiles of benchmark entries, and of replays that
    /// declare a source benchmark, from `memo` instead of profiling each
    /// one afresh. The plans are the same either way.
    pub fn profiles(mut self, memo: &'a ProfileMemo) -> Self {
        self.profiles = Some(memo);
        self
    }

    /// Subscribes a streaming trace sink to the run's kernel. Sinks observe
    /// the merged event stream of all enclave entries; outside/user-level
    /// entries produce no kernel events.
    pub fn sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Runs everything and returns one report per entry, in insertion
    /// order.
    ///
    /// # Errors
    ///
    /// [`SimError::NoApps`] when nothing was added, [`SimError::Kernel`]
    /// when kernel construction or registration fails, and, caught before
    /// any kernel is built, [`SimError::Spec`] for a bad
    /// [`AppSpec::thread_of`] reference and [`SimError::Elrange`] for a
    /// replay whose trace does not fit its source benchmark's ELRANGE.
    pub fn run(self) -> Result<Vec<RunReport>, SimError> {
        if self.entries.is_empty() {
            return Err(SimError::NoApps);
        }
        let SimRun {
            cfg,
            scheme,
            entries,
            sinks,
            profiles,
        } = self;
        let plan = |bench| match profiles {
            Some(memo) => memo.plan(bench, cfg, scheme),
            None => build_plan(bench, cfg, scheme),
        };

        // Entries that bypass the kernel (outside model, user-level paging)
        // run immediately; enclave entries are gathered into one shared
        // kernel run and spliced back in order.
        enum Slot {
            Ready(Box<RunReport>),
            Kernel,
        }
        let mut slots = Vec::with_capacity(entries.len());
        let mut kernel_apps = Vec::new();
        for entry in entries {
            match entry {
                Entry::Outside { label, workload } => {
                    slots.push(Slot::Ready(Box::new(run_outside_model(
                        label, workload, cfg,
                    ))));
                }
                Entry::Bench(bench) if scheme.is_user_level() => {
                    slots.push(Slot::Ready(Box::new(crate::run_userspace_paging(
                        bench.name(),
                        bench.build(InputSet::Ref, cfg.scale, cfg.seed),
                        &cfg.user_paging,
                    ))));
                }
                Entry::Bench(bench) => {
                    let plan = plan(bench);
                    let app = AppSpec::new(
                        bench.name(),
                        bench.elrange_pages(cfg.scale),
                        bench.build(InputSet::Ref, cfg.scale, cfg.seed),
                    )
                    .plan(plan)
                    .build()?;
                    kernel_apps.push(app);
                    slots.push(Slot::Kernel);
                }
                Entry::Replay(replay) if scheme.is_user_level() => {
                    // No ELRANGE is registered here, but a declared source
                    // must still fit the trace.
                    replay.elrange_pages(cfg.scale)?;
                    slots.push(Slot::Ready(Box::new(crate::run_userspace_paging(
                        replay.label().to_string(),
                        replay.stream(),
                        &cfg.user_paging,
                    ))));
                }
                Entry::Replay(replay) => {
                    let plan = match replay.source() {
                        Some(bench) => plan(bench),
                        None => InstrumentationPlan::none(),
                    };
                    let app = AppSpec::new(
                        replay.label().to_string(),
                        replay.elrange_pages(cfg.scale)?,
                        replay.stream(),
                    )
                    .plan(plan)
                    .build()?;
                    kernel_apps.push(app);
                    slots.push(Slot::Kernel);
                }
                Entry::App(app) => {
                    kernel_apps.push(app);
                    slots.push(Slot::Kernel);
                }
            }
        }

        let mut kernel_reports = if kernel_apps.is_empty() {
            Vec::new()
        } else {
            run_kernel_apps(kernel_apps, cfg, scheme, sinks)?
        }
        .into_iter();

        Ok(slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Ready(r) => *r,
                Slot::Kernel => kernel_reports
                    .next()
                    .expect("one kernel report per kernel slot"),
            })
            .collect())
    }

    /// Runs a single-entry build and returns its report.
    ///
    /// # Errors
    ///
    /// Everything [`SimRun::run`] reports, plus [`SimError::NotSingular`]
    /// when the builder holds more or fewer than one entry.
    pub fn run_one(self) -> Result<RunReport, SimError> {
        let mut reports = self.run()?;
        if reports.len() != 1 {
            return Err(SimError::NotSingular(reports.len()));
        }
        Ok(reports.pop().expect("length checked above"))
    }
}

impl fmt::Debug for SimRun<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRun")
            .field("scheme", &self.scheme)
            .field("entries", &self.entries.len())
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_kernel::CountingSink;
    use sgx_workloads::Scale;

    fn cfg() -> SimConfig {
        SimConfig::at_scale(Scale::DEV)
    }

    #[test]
    fn empty_run_errors() {
        let c = cfg();
        assert_eq!(SimRun::new(&c).run(), Err(SimError::NoApps));
        assert!(SimError::NoApps
            .to_string()
            .contains("at least one application"));
    }

    #[test]
    fn run_one_rejects_multiple_entries() {
        let c = cfg();
        let r = SimRun::new(&c)
            .bench(Benchmark::Microbenchmark)
            .bench(Benchmark::Microbenchmark)
            .run_one();
        assert_eq!(r, Err(SimError::NotSingular(2)));
    }

    #[test]
    fn bad_thread_order_is_reported_before_any_kernel_exists() {
        let c = cfg();
        let app = AppSpec::new(
            "t",
            64,
            Benchmark::Microbenchmark.build(InputSet::Ref, c.scale, 1),
        )
        .thread_of(0)
        .build()
        .unwrap();
        let r = SimRun::new(&c).app(app).run();
        assert_eq!(r, Err(SimError::Spec(SpecError::ThreadOrder { app: 0 })));
        assert!(r.unwrap_err().to_string().contains("earlier app"));
    }

    #[test]
    fn empty_elrange_fails_at_build_time() {
        let c = cfg();
        let r = AppSpec::new(
            "t",
            0,
            Benchmark::Microbenchmark.build(InputSet::Ref, c.scale, 1),
        )
        .build();
        assert!(matches!(r, Err(SpecError::EmptyElrange)));
        // A thread entry has no ELRANGE of its own, so zero is fine there.
        let t = AppSpec::new(
            "t",
            0,
            Benchmark::Microbenchmark.build(InputSet::Ref, c.scale, 1),
        )
        .thread_of(0)
        .build();
        assert!(t.is_ok());
    }

    #[test]
    fn zero_epc_is_a_kernel_error() {
        let mut c = cfg();
        c.epc_pages = 0;
        let r = SimRun::new(&c).bench(Benchmark::Microbenchmark).run();
        assert_eq!(r, Err(SimError::Kernel(KernelError::NoEpc)));
    }

    #[test]
    fn mixed_entries_keep_input_order() {
        let c = cfg();
        let reports = SimRun::new(&c)
            .outside(
                "outside",
                Benchmark::Microbenchmark.build(InputSet::Ref, c.scale, 42),
            )
            .bench(Benchmark::Microbenchmark)
            .run()
            .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].label, "outside");
        assert_eq!(reports[1].label, Benchmark::Microbenchmark.name());
        // The enclave run is an order of magnitude slower (the paper's
        // motivation measurement).
        assert!(reports[1].total_cycles > reports[0].total_cycles);
    }

    #[test]
    fn sinks_observe_the_shared_kernel() {
        let c = cfg();
        let (sink, counts) = CountingSink::new();
        let report = SimRun::new(&c)
            .scheme(Scheme::Dfp)
            .bench(Benchmark::Microbenchmark)
            .sink(Box::new(sink))
            .run_one()
            .unwrap();
        let ev = counts.get();
        assert_eq!(ev.faults, report.faults);
        assert_eq!(ev.preload_starts, report.preloads_started);
        assert!(ev.preload_hits > 0, "streaming workload preloads pages");
    }

    #[test]
    fn replayed_recordings_match_generator_runs() {
        let c = cfg();
        for scheme in Scheme::ALL {
            let direct = SimRun::new(&c)
                .scheme(scheme)
                .bench(Benchmark::Lbm)
                .run_one()
                .unwrap();
            let trace = sgx_workloads::RecordedTrace::record(
                Benchmark::Lbm.build(InputSet::Ref, c.scale, c.seed),
                usize::MAX,
            );
            let replayed = SimRun::new(&c)
                .scheme(scheme)
                .replay(TraceReplay::of_benchmark(Benchmark::Lbm, trace))
                .run_one()
                .unwrap();
            assert_eq!(direct, replayed, "{scheme}: replay must be exact");
        }
    }

    #[test]
    fn percentiles_populated_for_faulting_runs() {
        let c = cfg();
        let r = SimRun::new(&c)
            .scheme(Scheme::Dfp)
            .bench(Benchmark::Microbenchmark)
            .run_one()
            .unwrap();
        assert!(r.fault_service_p50 > sgx_sim::Cycles::ZERO);
        assert!(r.fault_service_p50 <= r.fault_service_p99);
        assert!(r.preload_lead_p50 <= r.preload_lead_p99);
    }
}

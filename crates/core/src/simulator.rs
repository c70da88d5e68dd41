//! The simulator: applications executing inside enclaves over the
//! kernel/EPC substrate, under any [`Scheme`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use sgx_dfp::{NoPredictor, Predictor, ProcessId};
use sgx_kernel::{CycleAttribution, Kernel, KernelConfig, KernelError, TraceSink};
use sgx_sim::Cycles;
use sgx_sip::{profile_stream, InstrumentationPlan, Profile};
use sgx_workloads::{AccessIter, Benchmark, InputSet};

use crate::{RunReport, Scheme, SimConfig, SimError};

/// A spec-level validation error, reported by [`AppSpecBuilder::build`]
/// or by [`SimRun::run`]'s topology pass — always *before* any kernel is
/// built.
///
/// [`SimRun::run`]: crate::SimRun::run
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecError {
    /// A non-thread app declared a zero-page ELRANGE.
    EmptyElrange,
    /// An [`AppSpec::thread_of`] referenced its own entry or a later one;
    /// `app` is the offending index among the run's enclave entries.
    ThreadOrder {
        /// Index of the offending app among the enclave entries.
        app: usize,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyElrange => f.write_str("an enclave needs a non-empty ELRANGE"),
            SpecError::ThreadOrder { app } => {
                write!(f, "app {app}: thread_of must reference an earlier app")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// One application to simulate: its ELRANGE, access stream, and (for
/// SIP/Hybrid) instrumentation plan. Assembled by the [`AppSpecBuilder`]
/// that [`AppSpec::new`] returns.
pub struct AppSpec {
    /// Report label.
    pub label: String,
    /// Enclave virtual size in pages.
    pub elrange_pages: u64,
    /// The access stream (built from a workload generator).
    pub workload: AccessIter,
    /// Instrumented sites; empty unless [`AppSpecBuilder::plan`] attached
    /// one.
    pub plan: InstrumentationPlan,
    /// When `Some(i)`, this app is an additional *thread* of the `i`-th
    /// app's enclave: shared ELRANGE and presence bitmap, separate
    /// per-thread fault history (paper §3.1). `elrange_pages` is ignored.
    pub thread_of: Option<usize>,
}

impl AppSpec {
    /// Starts building an app without instrumentation. Finish with
    /// [`AppSpecBuilder::build`], which validates the spec so malformed
    /// topologies fail before a kernel exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use sgx_preload_core::AppSpec;
    /// use sgx_workloads::{Benchmark, InputSet, Scale};
    ///
    /// let stream = Benchmark::Microbenchmark.build(InputSet::Ref, Scale::DEV, 1);
    /// let app = AppSpec::new("micro", 64, stream).build()?;
    /// assert_eq!(app.label, "micro");
    /// # Ok::<(), sgx_preload_core::SpecError>(())
    /// ```
    #[allow(clippy::new_ret_no_self)] // `new` is the builder's entry point
    pub fn new(
        label: impl Into<String>,
        elrange_pages: u64,
        workload: AccessIter,
    ) -> AppSpecBuilder {
        AppSpecBuilder {
            label: label.into(),
            elrange_pages,
            workload,
            plan: InstrumentationPlan::none(),
            thread_of: None,
        }
    }
}

/// Builder for [`AppSpec`] (mirrors the [`SimRun`] naming:
/// `AppSpec::new(..).thread_of(..).build()?`).
///
/// [`SimRun`]: crate::SimRun
pub struct AppSpecBuilder {
    label: String,
    elrange_pages: u64,
    workload: AccessIter,
    plan: InstrumentationPlan,
    thread_of: Option<usize>,
}

impl AppSpecBuilder {
    /// Marks this app as a thread of the `index`-th app's enclave; `index`
    /// counts the run's enclave entries in insertion order and must
    /// reference an earlier entry (cross-checked when the run assembles
    /// its topology, still before any kernel is built).
    pub fn thread_of(mut self, index: usize) -> Self {
        self.thread_of = Some(index);
        self
    }

    /// Attaches a SIP instrumentation plan.
    pub fn plan(mut self, plan: InstrumentationPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Validates the spec and builds it.
    ///
    /// # Errors
    ///
    /// [`SpecError::EmptyElrange`] when a non-thread app declared a
    /// zero-page ELRANGE.
    pub fn build(self) -> Result<AppSpec, SpecError> {
        if self.thread_of.is_none() && self.elrange_pages == 0 {
            return Err(SpecError::EmptyElrange);
        }
        Ok(AppSpec {
            label: self.label,
            elrange_pages: self.elrange_pages,
            workload: self.workload,
            plan: self.plan,
            thread_of: self.thread_of,
        })
    }
}

/// Pulls the next access, maintaining the early-notify lookahead: while
/// refilling the window, hoisted notifications for instrumented accesses
/// are issued (one bitmap check + one notify each, then an asynchronous
/// kernel prefetch). With `distance == 0` this degenerates to a plain pull
/// and the conservative inline path in the main loop applies.
fn next_access(
    st: &mut AppState,
    kernel: &mut Kernel,
    cfg: &SimConfig,
    distance: usize,
) -> Option<sgx_workloads::Access> {
    if distance == 0 {
        return st.workload.next();
    }
    while st.lookahead.len() <= distance {
        let Some(a) = st.workload.next() else { break };
        if st.plan.is_instrumented(a.site) {
            // The hoisted notification runs once (it sits outside the hot
            // loop the access itself re-executes in).
            st.now += cfg.costs.bitmap_check;
            st.sip_checks += 1;
            if !kernel.sip_present(st.now, st.pid, a.page) {
                st.now += cfg.costs.notify;
                st.sip_notifies += 1;
                kernel.sip_prefetch(st.now, st.pid, a.page);
            }
        }
        st.lookahead.push_back(a);
    }
    st.lookahead.pop_front()
}

fn make_predictor(cfg: &SimConfig, scheme: Scheme) -> Box<dyn Predictor> {
    if scheme.uses_dfp() {
        cfg.predictor.build(cfg.stream)
    } else {
        Box::new(NoPredictor)
    }
}

/// Builds the kernel a [`SimRun`](crate::SimRun) drives for `cfg` under
/// `scheme`: EPC sizing, per-operation costs, the scheme's predictor, the
/// abort valve when the scheme uses one, plus any configured tenant
/// policy and gauge-sampling interval.
///
/// # Errors
///
/// [`KernelError`] when the configuration is unbuildable (e.g. zero EPC
/// pages).
fn build_kernel(cfg: &SimConfig, scheme: Scheme) -> Result<Kernel, KernelError> {
    let mut kcfg = KernelConfig::new(cfg.epc_pages).with_costs(cfg.costs);
    if scheme.uses_valve() {
        kcfg = kcfg.with_abort_policy(cfg.abort);
    }
    if scheme.uses_edmm() {
        kcfg = kcfg.with_edmm(cfg.epc_sizing);
    }
    if !cfg.tenant.is_none() {
        kcfg.tenant = Some(cfg.tenant);
    }
    let mut kernel = Kernel::try_new(kcfg, make_predictor(cfg, scheme))?;
    kernel.set_sample_interval(cfg.series_interval);
    Ok(kernel)
}

struct AppState {
    pid: ProcessId,
    label: String,
    workload: AccessIter,
    plan: InstrumentationPlan,
    lookahead: VecDeque<sgx_workloads::Access>,
    now: Cycles,
    done: bool,
    accesses: u64,
    executions: u64,
    epc_hits: u64,
    faults: u64,
    faults_waited: u64,
    faults_raced: u64,
    sip_checks: u64,
    sip_notifies: u64,
}

/// Runs one or more applications concurrently inside enclaves sharing one
/// EPC and load channel (the §5.6 multi-enclave scenario). The engine
/// behind [`SimRun`]; returns one report per app, in input order.
pub(crate) fn run_kernel_apps(
    apps: Vec<AppSpec>,
    cfg: &SimConfig,
    scheme: Scheme,
    sinks: Vec<Box<dyn TraceSink>>,
) -> Result<Vec<RunReport>, SimError> {
    assert!(!apps.is_empty(), "caller gathers at least one app");
    // Topology validation happens before the kernel exists: a bad
    // thread_of reference never half-registers a run.
    for (i, app) in apps.iter().enumerate() {
        if matches!(app.thread_of, Some(owner) if owner >= i) {
            return Err(SimError::Spec(crate::SpecError::ThreadOrder { app: i }));
        }
    }
    let mut kernel = build_kernel(cfg, scheme)?;
    for sink in sinks {
        kernel.subscribe(sink);
    }
    let mut states: Vec<AppState> = Vec::with_capacity(apps.len());
    for (i, app) in apps.into_iter().enumerate() {
        let pid = ProcessId(i as u32);
        match app.thread_of {
            None => kernel.register_enclave(pid, app.elrange_pages)?,
            Some(owner) => kernel.register_thread(ProcessId(owner as u32), pid)?,
        }
        states.push(AppState {
            pid,
            label: app.label,
            workload: app.workload,
            plan: app.plan,
            lookahead: VecDeque::new(),
            now: Cycles::ZERO,
            done: false,
            accesses: 0,
            executions: 0,
            epc_hits: 0,
            faults: 0,
            faults_waited: 0,
            faults_raced: 0,
            sip_checks: 0,
            sip_notifies: 0,
        });
    }

    let distance = cfg.placement.distance();

    // Round-robin by simulated time: always advance the app whose clock is
    // furthest behind, so kernel calls stay (near) monotonic — the same
    // interleaving a shared physical machine would produce.
    loop {
        let next = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by_key(|(_, s)| s.now)
            .map(|(i, _)| i);
        let Some(i) = next else { break };
        let st = &mut states[i];
        let Some(access) = next_access(st, &mut kernel, cfg, distance) else {
            st.done = true;
            continue;
        };
        st.now += access.compute;
        st.accesses += 1;
        st.executions += access.repeats as u64;

        if distance == 0 && st.plan.is_instrumented(access.site) {
            // Paper Fig. 5: every execution re-runs BIT_MAP_CHECK; the
            // page_loadin_function fires only when the bit is clear.
            st.now += cfg.costs.bitmap_check * access.repeats as u64;
            st.sip_checks += access.repeats as u64;
            if !kernel.sip_present(st.now, st.pid, access.page) {
                st.now += cfg.costs.notify;
                st.now = kernel.sip_load(st.now, st.pid, access.page);
                st.sip_notifies += 1;
            }
        }
        // The touch after a notification goes through `app_access` like
        // any other: residency is the kernel's to report, not assumed from
        // the load, so a page gone by the touch takes the demand path.
        match kernel.app_access(st.now, st.pid, access.page) {
            Some(_) => st.epc_hits += 1,
            None => {
                let r = kernel.page_fault(st.now, st.pid, access.page);
                st.faults += 1;
                match r.kind {
                    sgx_kernel::FaultServicing::WaitedForInflight => st.faults_waited += 1,
                    sgx_kernel::FaultServicing::FoundResident => st.faults_raced += 1,
                    sgx_kernel::FaultServicing::DemandLoaded => {}
                }
                st.now = r.resume_at;
            }
        }
    }

    let end = states
        .iter()
        .map(|s| s.now)
        .max()
        .expect("at least one app");
    // Closes the event stream: terminal RunEnd marker plus a final gauge
    // sample. Deliberately does not advance the channel — trailing
    // in-flight work stays unaccounted, exactly as before spans existed.
    kernel.finish(end);
    let epc = kernel.epc();
    let util = kernel.channel_utilization(end);
    Ok(states
        .into_iter()
        .map(|s| {
            // Each app reads its own enclave's ledger; threads share it.
            let t = kernel.tenant_index(s.pid).expect("every app registered");
            let ks = kernel.tenant_stats(t);
            let (fs, pl, rs) = (
                ks.fault_service.summary(),
                ks.preload_lead.summary(),
                ks.residency.summary(),
            );
            RunReport {
                label: s.label,
                scheme,
                total_cycles: s.now,
                accesses: s.accesses,
                executions: s.executions,
                epc_hits: s.epc_hits,
                faults: s.faults,
                faults_waited_inflight: s.faults_waited,
                faults_found_resident: s.faults_raced,
                sip_checks: s.sip_checks,
                sip_notifies: s.sip_notifies,
                instrumentation_points: s.plan.len(),
                preloads_started: ks.preloads_started,
                preloads_touched: epc.tenant_preloads_touched(t),
                preloads_wasted: epc.tenant_preloads_evicted_untouched(t),
                preloads_aborted: ks.preloads_aborted,
                background_evictions: ks.background_evictions,
                foreground_evictions: ks.foreground_evictions,
                dfp_stopped_at: ks.dfp_stopped_at,
                channel_utilization: util,
                fault_service_mean: fs.mean,
                fault_service_p50: fs.p50,
                fault_service_p90: fs.p90,
                fault_service_p99: fs.p99,
                preload_lead_mean: pl.mean,
                preload_lead_p50: pl.p50,
                preload_lead_p90: pl.p90,
                preload_lead_p99: pl.p99,
                channel_wait_cycles: ks.channel_wait_cycles,
                preloads_shed: ks.preloads_shed,
                residency_p50: rs.p50.raw(),
                residency_p99: rs.p99.raw(),
                attribution: kernel.tenant_attribution(t, s.now),
                events: kernel.tenant_events(t),
            }
        })
        .collect())
}

/// Builds the SIP instrumentation plan for a benchmark by profiling its
/// *train* input (the paper's PGO pipeline, §5.2). Returns an empty plan
/// when the scheme does not instrument or the paper's prototype could not
/// handle the program (Fortran, omnetpp). Every call profiles afresh; the
/// cells of one pass share their profiles through a [`ProfileMemo`].
pub fn build_plan(bench: Benchmark, cfg: &SimConfig, scheme: Scheme) -> InstrumentationPlan {
    if !instruments(bench, scheme) {
        return InstrumentationPlan::none();
    }
    // The paper's compiler always cedes Class-2-dominant sites to DFP
    // (§4.4) — DFP is an OS-side property the compiled binary can rely on,
    // whether or not this particular run arms it.
    InstrumentationPlan::from_profile(&train_profile(bench, cfg), cfg.sip)
}

/// Whether a run of `bench` under `scheme` carries a SIP plan.
fn instruments(bench: Benchmark, scheme: Scheme) -> bool {
    scheme.uses_sip() && bench.sip_supported()
}

/// The profile of `bench`'s train input that SIP's plan is selected from.
fn train_profile(bench: Benchmark, cfg: &SimConfig) -> Profile {
    profile_stream(
        bench.build(InputSet::Train, cfg.scale, cfg.seed),
        cfg.epc_pages as usize,
    )
}

/// Everything [`train_profile`] reads: benchmark, input set, scale divisor,
/// seed and EPC pages. The threshold, costs, scheme, predictor and notify
/// distance are read only by [`InstrumentationPlan::from_profile`] or the
/// run, so the cells that differ in them share one profile.
type ProfileKey = (Benchmark, InputSet, u64, u64, u64);

/// The SIP train profiles of one pass, each computed at most once.
///
/// In the paper a program's profile is a one-off compile step (§3.2,
/// §5.2): the cells of a pass that profile the same input read one
/// profile, and [`ProfileMemo::plan`] selects each cell's plan from it
/// under the cell's own threshold. Two workers asking for the same input
/// at once compute it once; the second waits for the first. A memo lives
/// as long as its owner's pass: each campaign run and each figure pass
/// makes its own, and [`build_plan`] never reads one.
///
/// # Examples
///
/// ```
/// use sgx_preload_core::{build_plan, ProfileMemo, Scheme, SimConfig};
/// use sgx_workloads::{Benchmark, Scale};
///
/// let cfg = SimConfig::at_scale(Scale::DEV);
/// let memo = ProfileMemo::new();
/// let sip = memo.plan(Benchmark::Deepsjeng, &cfg, Scheme::Sip);
/// let hybrid = memo.plan(Benchmark::Deepsjeng, &cfg, Scheme::Hybrid);
/// assert_eq!(memo.computed(), 1, "SIP and the hybrid share the profile");
/// assert_eq!(sip.sites(), hybrid.sites());
/// assert_eq!(sip.sites(), build_plan(Benchmark::Deepsjeng, &cfg, Scheme::Sip).sites());
/// ```
#[derive(Debug, Default)]
pub struct ProfileMemo {
    slots: Mutex<HashMap<ProfileKey, Arc<OnceLock<Profile>>>>,
    computed: AtomicUsize,
}

impl ProfileMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`build_plan`]'s plan, selected from the memo's profile of the
    /// train input, which the first call for that input computes.
    pub fn plan(&self, bench: Benchmark, cfg: &SimConfig, scheme: Scheme) -> InstrumentationPlan {
        if !instruments(bench, scheme) {
            return InstrumentationPlan::none();
        }
        let key = (
            bench,
            InputSet::Train,
            cfg.scale.divisor(),
            cfg.seed,
            cfg.epc_pages,
        );
        // The map lock is held only to find the slot, so different inputs
        // profile in parallel. A worker that panicked under the lock left
        // the map whole (it only ever gains an empty slot), so its poison
        // is cleared.
        let slot = Arc::clone(
            self.slots
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default(),
        );
        let profile = slot.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            train_profile(bench, cfg)
        });
        InstrumentationPlan::from_profile(profile, cfg.sip)
    }

    /// How many profiles the memo has computed: one per distinct input
    /// asked for.
    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::Relaxed)
    }
}

/// The outside-the-enclave model behind [`SimRun::outside`]: unlimited
/// RAM, first-touch faults at the regular ≈2,000-cycle cost. This is the
/// "same program without SGX" side of the paper's 46× motivation
/// measurement (§1).
pub(crate) fn run_outside_model(
    label: impl Into<String>,
    workload: AccessIter,
    cfg: &SimConfig,
) -> RunReport {
    let mut resident: HashSet<u64> = HashSet::new();
    let mut now = Cycles::ZERO;
    let mut accesses = 0u64;
    let mut executions = 0u64;
    let mut faults = 0u64;
    for a in workload {
        now += a.compute;
        accesses += 1;
        executions += a.repeats as u64;
        if resident.insert(a.page.raw()) {
            faults += 1;
            now += cfg.costs.non_epc_fault;
        }
    }
    RunReport {
        label: label.into(),
        total_cycles: now,
        accesses,
        executions,
        epc_hits: accesses - faults,
        faults,
        // Outside the enclave there is no paging machinery: the regular
        // first-touch faults are part of ordinary execution.
        attribution: CycleAttribution {
            app_compute: now.raw(),
            ..CycleAttribution::default()
        },
        ..RunReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRun;
    use sgx_workloads::Scale;

    fn cfg() -> SimConfig {
        SimConfig::at_scale(Scale::DEV)
    }

    fn run(bench: Benchmark, scheme: Scheme) -> RunReport {
        SimRun::new(&cfg())
            .scheme(scheme)
            .bench(bench)
            .run_one()
            .unwrap()
    }

    fn run_outside_of(bench: Benchmark) -> RunReport {
        let c = cfg();
        SimRun::new(&c)
            .outside("micro-outside", bench.build(InputSet::Ref, c.scale, 42))
            .run_one()
            .unwrap()
    }

    #[test]
    fn identical_configs_are_bit_deterministic() {
        let a = run(Benchmark::Deepsjeng, Scheme::Hybrid);
        let b = run(Benchmark::Deepsjeng, Scheme::Hybrid);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.sip_checks, b.sip_checks);
    }

    /// The memo keys a profile on everything the profile reads and nothing
    /// else, and selects the plans `build_plan` selects.
    #[test]
    fn profile_memo_keys_on_what_the_profile_reads() {
        use sgx_sip::SipConfig;
        let c = cfg();
        let memo = ProfileMemo::new();
        let asked = [
            (Benchmark::Deepsjeng, c, Scheme::Sip),
            (Benchmark::Deepsjeng, c, Scheme::Hybrid),
            (
                Benchmark::Deepsjeng,
                c.with_sip(SipConfig::paper_defaults().with_threshold(0.3)),
                Scheme::Sip,
            ),
            (Benchmark::Deepsjeng, c.with_seed(7), Scheme::Sip),
            (
                Benchmark::Deepsjeng,
                c.with_epc_pages(c.epc_pages / 2),
                Scheme::Sip,
            ),
            (Benchmark::Mser, c, Scheme::Hybrid),
            (Benchmark::Deepsjeng, c, Scheme::Dfp),
            (Benchmark::Bwaves, c, Scheme::Sip),
        ];
        for (bench, cfg, scheme) in asked {
            let shared = memo.plan(bench, &cfg, scheme);
            let fresh = build_plan(bench, &cfg, scheme);
            assert_eq!(shared.sites(), fresh.sites(), "{bench:?} {scheme:?}");
        }
        // Deepsjeng at the base, at seed 7 and at half the EPC, and MSER:
        // no profile for a threshold, a scheme, DFP or a Fortran program.
        assert_eq!(memo.computed(), 4);
    }

    #[test]
    fn sip_noops_on_fortran_benchmarks() {
        let base = run(Benchmark::Bwaves, Scheme::Baseline);
        let sip = run(Benchmark::Bwaves, Scheme::Sip);
        assert_eq!(sip.instrumentation_points, 0);
        assert_eq!(sip.sip_checks, 0);
        assert_eq!(sip.total_cycles, base.total_cycles);
    }

    #[test]
    fn outside_enclave_run_counts_first_touch_faults() {
        let r = run_outside_of(Benchmark::Microbenchmark);
        let fp = Benchmark::Microbenchmark.elrange_pages(Scale::DEV);
        assert_eq!(r.faults, fp, "one fault per distinct page");
        assert_eq!(r.accesses, fp * 3, "three passes");
    }

    #[test]
    fn two_enclaves_contend_for_the_channel() {
        let c = cfg();
        let mk = || {
            AppSpec::new(
                "micro",
                Benchmark::Microbenchmark.elrange_pages(c.scale),
                Benchmark::Microbenchmark.build(InputSet::Ref, c.scale, 1),
            )
            .build()
            .unwrap()
        };
        let solo = SimRun::new(&c).app(mk()).run_one().unwrap();
        let pair = SimRun::new(&c).apps([mk(), mk()]).run().unwrap();
        assert_eq!(pair.len(), 2);
        for r in &pair {
            assert!(
                r.total_cycles.raw() as f64 > solo.total_cycles.raw() as f64 * 1.3,
                "sharing the EPC must slow both apps: {} vs solo {}",
                r.total_cycles,
                solo.total_cycles
            );
        }
    }

    #[test]
    fn early_notify_reduces_blocking_on_compute_heavy_irregular_code() {
        // A compute-heavy irregular workload: with enough work between
        // accesses, a hoisted notification can hide most of the 44k-cycle
        // load the conservative placement must block on.
        use sgx_sip::NotifyPlacement;
        let c = cfg();
        let conservative = run(Benchmark::Deepsjeng, Scheme::Sip);
        let early_cfg = c.with_placement(NotifyPlacement::Early { distance: 24 });
        let early = SimRun::new(&early_cfg)
            .scheme(Scheme::Sip)
            .bench(Benchmark::Deepsjeng)
            .run_one()
            .unwrap();
        // Early placement must never lose catastrophically, and its
        // prefetches must actually run.
        assert!(early.sip_notifies > 0);
        let ratio = early.total_cycles.raw() as f64 / conservative.total_cycles.raw() as f64;
        assert!(
            ratio < 1.05,
            "early notify should be competitive, got {ratio:.3}x of conservative"
        );
    }

    #[test]
    fn early_notify_distance_zero_equals_conservative() {
        use sgx_sip::NotifyPlacement;
        let a = run(Benchmark::Mser, Scheme::Sip);
        let zero_cfg = cfg().with_placement(NotifyPlacement::Early { distance: 0 });
        let b = SimRun::new(&zero_cfg)
            .scheme(Scheme::Sip)
            .bench(Benchmark::Mser)
            .run_one()
            .unwrap();
        assert_eq!(a.total_cycles, b.total_cycles);
    }
}

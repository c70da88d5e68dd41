//! The untrusted-OS paging model.
//!
//! One [`Kernel`] owns everything the paper's modified SGX driver owns:
//! the EPC residency state, the exclusive non-preemptible load channel,
//! the background watermark reclaimer (the driver's `ksgxswapd`), the DFP
//! predictor hook and preload worker with its abort path, the DFP-stop
//! safety valve, and the SIP shared presence bitmaps.
//!
//! ## Timing model
//!
//! The application thread drives simulated time: it calls in with the
//! current instant `now`, and the kernel *lazily advances* the load channel
//! to `now`, starting/completing any background work (evictions, preloads)
//! that would have run while the application was computing. All channel
//! jobs are serial and non-preemptible (paper §3.1/§5.6); a demand fault
//! that arrives mid-preload must wait for the in-flight page.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use sgx_dfp::{AbortPolicy, AbortValve, Predictor, ProcessId};
use sgx_epc::{
    CostModel, Epc, EpcSizing, LoadOrigin, PresenceBitmap, TouchOutcome, VictimPolicy, VirtPage,
};
use sgx_sim::{Cycles, FastMap, Histogram};

use crate::span::SpanAlloc;
use crate::{
    ChaosSchedule, ChaosStats, CycleAttribution, EventCounts, FaultInjector, GaugeSample,
    PreloadQueue, SpanId, TenantPolicy, Watermarks,
};

/// Virtual-page gap between consecutive enclaves' ELRANGEs, so that no
/// stream prediction can run off the end of one enclave into the next.
const ENCLAVE_GUARD_PAGES: u64 = 1 << 24;

/// Enclave bases are laid out at guard-page strides, so a global page's
/// enclave index is its page number shifted right by this.
const ENCLAVE_SHIFT: u32 = ENCLAVE_GUARD_PAGES.trailing_zeros();

/// Static configuration of the kernel model.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// EPC capacity in pages (the paper's usable EPC is 24,576 pages).
    pub epc_pages: u64,
    /// Cycle costs of every paging event.
    pub costs: CostModel,
    /// Reclaimer watermarks; `None` selects driver defaults for the EPC
    /// size.
    pub watermarks: Option<Watermarks>,
    /// DFP-stop safety valve; `None` runs plain DFP (no valve).
    pub abort_policy: Option<AbortPolicy>,
    /// EPC victim-selection policy (driver default: CLOCK).
    pub victim_policy: VictimPolicy,
    /// Deterministic fault-injection schedule; `None` (or an all-zero
    /// schedule) leaves the run undisturbed.
    pub chaos: Option<ChaosSchedule>,
    /// Multi-tenant scheduling policy; `None` (or [`TenantPolicy::none`])
    /// keeps the shared-everything driver behaviour, bit-identically.
    pub tenant: Option<TenantPolicy>,
    /// EDMM-style dynamic EPC sizing; `None` keeps the SGX1 model (whole
    /// ELRANGE committed up front, swap-based reclamation from the first
    /// fault), bit-identically.
    pub edmm: Option<EpcSizing>,
}

impl KernelConfig {
    /// A configuration with the given EPC size and paper-default costs,
    /// driver-default watermarks, and no safety valve.
    pub fn new(epc_pages: u64) -> Self {
        KernelConfig {
            epc_pages,
            costs: CostModel::paper_defaults(),
            watermarks: None,
            abort_policy: None,
            victim_policy: VictimPolicy::Clock,
            chaos: None,
            tenant: None,
            edmm: None,
        }
    }

    /// Overrides the EPC victim-selection policy.
    pub fn with_victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Overrides the cost model.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides the reclaimer watermarks.
    pub fn with_watermarks(mut self, wm: Watermarks) -> Self {
        self.watermarks = Some(wm);
        self
    }

    /// Enables the DFP-stop safety valve.
    pub fn with_abort_policy(mut self, policy: AbortPolicy) -> Self {
        self.abort_policy = Some(policy);
        self
    }

    /// Enables EDMM-style dynamic EPC sizing (the EAUG grow-before-evict
    /// fault path).
    pub fn with_edmm(mut self, sizing: EpcSizing) -> Self {
        self.edmm = Some(sizing);
        self
    }
}

/// Errors constructing or configuring a [`Kernel`].
///
/// This is the single fallible-API error type: registration and
/// construction both report through it, so callers (and [`SimRun`] in
/// `sgx-preload-core`) propagate one error instead of matching panics.
///
/// [`SimRun`]: https://docs.rs/sgx-preload-core
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// The process already has an enclave.
    DuplicateProcess(ProcessId),
    /// The requested ELRANGE is empty.
    EmptyRange,
    /// The requested ELRANGE exceeds the per-enclave guard spacing.
    RangeTooLarge {
        /// Pages requested.
        requested: u64,
        /// Maximum supported pages per enclave.
        max: u64,
    },
    /// The configuration requested a zero-page EPC.
    NoEpc,
    /// `register_thread` named an owner with no registered enclave.
    UnknownOwner(ProcessId),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::DuplicateProcess(pid) => {
                write!(f, "{pid} already has a registered enclave")
            }
            KernelError::EmptyRange => f.write_str("enclave ELRANGE must be non-empty"),
            KernelError::RangeTooLarge { requested, max } => {
                write!(f, "ELRANGE of {requested} pages exceeds maximum {max}")
            }
            KernelError::NoEpc => f.write_str("EPC capacity must be non-zero"),
            KernelError::UnknownOwner(pid) => {
                write!(f, "{pid} has no enclave to attach a thread to")
            }
        }
    }
}

impl Error for KernelError {}

/// One streamed paging event, delivered to every subscribed
/// [`TraceSink`](crate::TraceSink): the raw material of the paper's
/// Fig. 2 / Fig. 4 time sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedEvent {
    /// When the event happened (job completions log their finish time).
    pub at: Cycles,
    /// What happened.
    pub what: EventKind,
    /// The page involved, if any.
    pub page: Option<VirtPage>,
    /// A kind-specific metric payload: service cycles for
    /// [`EventKind::FaultResolved`], lead cycles for
    /// [`EventKind::PreloadHit`], scan length for the eviction kinds,
    /// stream length for [`EventKind::StreamPredicted`], dropped-page
    /// count for the abort kinds, and total run cycles for
    /// [`EventKind::RunEnd`].
    pub value: Option<u64>,
    /// This event's causal span. Open/close pairs share one id (a `Fault`
    /// and its `FaultResolved`; a `PreloadStart`/`SipPrefetchStart` and
    /// its `PreloadDone`); every other event gets a fresh id.
    pub span: SpanId,
    /// The span this event was caused by, per the table in
    /// [`crate::span`]; `None` for autonomous events.
    pub parent: Option<SpanId>,
}

/// Event kinds streamed to trace sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A page fault arrived (AEX begins).
    Fault,
    /// A demand load completed on the channel.
    DemandLoaded,
    /// A background DFP preload started on the channel.
    PreloadStart,
    /// A background load (DFP preload or SIP prefetch) completed (page
    /// resident).
    PreloadDone,
    /// A page was evicted (EWB) in the background; `value` is the
    /// replacement policy's scan length.
    EvictBackground,
    /// A page was evicted (EWB) inside a blocking load; `value` is the
    /// replacement policy's scan length.
    EvictForeground,
    /// Queued preloads were aborted by the fault handler; `value` is the
    /// number of dropped pages.
    PreloadAbort,
    /// A SIP blocking load completed (no world switch).
    SipLoaded,
    /// The DFP-stop valve fired; `value` is the number of dropped pages.
    ValveStopped,
    /// An asynchronous SIP prefetch started on the channel.
    SipPrefetchStart,
    /// A fault's ERESUME fired (`at` is the resume instant); `value` is the
    /// end-to-end service time in cycles.
    FaultResolved,
    /// First touch of a DFP-preloaded page — a successful preload; `value`
    /// is the completion-to-touch lead time in cycles.
    PreloadHit,
    /// The DFP emitted a non-empty prediction; `value` is the number of
    /// predicted pages.
    StreamPredicted,
    /// The run ended; `value` is the run's total cycles. Emitted exactly
    /// once, by [`Kernel::finish`], so stream consumers can tell a
    /// truncated trace from a complete one.
    RunEnd,
}

impl EventKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    pub const ALL: [EventKind; 14] = [
        EventKind::Fault,
        EventKind::DemandLoaded,
        EventKind::PreloadStart,
        EventKind::PreloadDone,
        EventKind::EvictBackground,
        EventKind::EvictForeground,
        EventKind::PreloadAbort,
        EventKind::SipLoaded,
        EventKind::ValveStopped,
        EventKind::SipPrefetchStart,
        EventKind::FaultResolved,
        EventKind::PreloadHit,
        EventKind::StreamPredicted,
        EventKind::RunEnd,
    ];

    /// The kind's stable kebab-case name, as traces and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fault => "fault",
            EventKind::DemandLoaded => "demand-loaded",
            EventKind::PreloadStart => "preload-start",
            EventKind::PreloadDone => "preload-done",
            EventKind::EvictBackground => "evict-bg",
            EventKind::EvictForeground => "evict-fg",
            EventKind::PreloadAbort => "preload-abort",
            EventKind::SipLoaded => "sip-loaded",
            EventKind::ValveStopped => "valve-stopped",
            EventKind::SipPrefetchStart => "sip-prefetch-start",
            EventKind::FaultResolved => "fault-resolved",
            EventKind::PreloadHit => "preload-hit",
            EventKind::StreamPredicted => "stream-predicted",
            EventKind::RunEnd => "run-end",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a page fault was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultServicing {
    /// The page turned out to be resident by the time the handler ran (a
    /// preload completed during the AEX).
    FoundResident,
    /// The faulted page was the in-flight preload; the handler waited for
    /// it instead of issuing a new load.
    WaitedForInflight,
    /// A demand load was issued (queued preloads were aborted).
    DemandLoaded,
}

/// Result of servicing a page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultResolution {
    /// The instant the application resumes inside the enclave (after
    /// ERESUME).
    pub resume_at: Cycles,
    /// Which path the handler took.
    pub kind: FaultServicing,
}

/// One enclave's paging ledger: event counters, distributions, fairness
/// signals and overhead-cycle buckets.
///
/// The kernel keeps one per enclave ([`Kernel::tenant_stats`]; threads
/// share their enclave's) and bumps each counter once, billing the
/// *faulter* (or SIP caller) for its critical path — faults, demand
/// loads and aborts, stall buckets, foreground EWB cycles — and the
/// *page's owner* for work on its pages: preloads, evictions, leads and
/// the background buckets. [`Kernel::stats`] sums every enclave's.
#[derive(Debug, Clone)]
pub struct KernelStats {
    /// Enclave page faults observed.
    pub faults: u64,
    /// Faults that found the page already resident (preload race win).
    pub faults_found_resident: u64,
    /// Faults that waited for the in-flight preload of the same page.
    pub faults_waited_inflight: u64,
    /// Demand loads issued by the fault handler.
    pub demand_loads: u64,
    /// SIP preload requests received (absent-page notifications).
    pub sip_loads: u64,
    /// Asynchronous SIP prefetches accepted (early-notify placement).
    pub sip_prefetches: u64,
    /// Asynchronous SIP prefetch loads started on the channel.
    pub sip_prefetches_started: u64,
    /// SIP requests that found the page already resident/in-flight.
    pub sip_raced: u64,
    /// Pages accepted onto the preload queue.
    pub preloads_enqueued: u64,
    /// Preload loads actually started on the channel.
    pub preloads_started: u64,
    /// Queued pages dropped because they were already resident at pop time.
    pub preloads_skipped_resident: u64,
    /// Queued pages dropped by the abort path (demand-fault cancellations
    /// and the safety valve).
    pub preloads_aborted: u64,
    /// Predicted pages rejected for lying outside the enclave's ELRANGE.
    pub preloads_rejected_range: u64,
    /// EWB jobs run by the background reclaimer.
    pub background_evictions: u64,
    /// EWB jobs paid for inside a demand/SIP load (free pool exhausted).
    pub foreground_evictions: u64,
    /// Background loads (DFP preloads or SIP prefetches) completed.
    pub preload_dones: u64,
    /// Preload pages shed by tenant admission control.
    pub preloads_shed: u64,
    /// Cycles demand faults spent waiting for the load channel (another
    /// requester's in-flight job).
    pub channel_wait_cycles: Cycles,
    /// EPC residency (the enclave's pages) sampled at each fault.
    pub residency: Histogram,
    /// End-to-end fault service times (access to post-ERESUME).
    pub fault_service: Histogram,
    /// Preload-completion-to-first-touch lead times (DFP preloads only:
    /// SIP loads are demanded by the application, not speculated).
    pub preload_lead: Histogram,
    /// Replacement-policy scan lengths per eviction (CLOCK sweep cost).
    pub evict_scan: Histogram,
    /// Lengths of the DFP's non-empty stream predictions.
    pub stream_len: Histogram,
    /// When the kernel-global DFP-stop latch fired; every enclave
    /// registered at that instant records it.
    pub dfp_stopped_at: Option<Cycles>,
    /// The [`CycleAttribution`] buckets settled so far, one field each
    /// ([`Kernel::tenant_attribution`] adds unsettled channel work and the
    /// residual). This one: the OS fault path plus demand/SIP ELDU and
    /// EAUG cycles.
    pub demand_fault: u64,
    /// AEX + ERESUME cycles, per fault.
    pub aex_eresume: u64,
    /// Cycles blocked requesters waited on the channel: demand and SIP
    /// loads and in-flight completions (a superset of
    /// `channel_wait_cycles`).
    pub channel_wait: u64,
    /// Channel cycles of background loads whose page was touched.
    pub preload_work: u64,
    /// Channel cycles of background loads evicted untouched.
    pub wasted_preload: u64,
    /// Replacement-scan stall cycles.
    pub clock_scan: u64,
    /// EWB write-back cycles.
    pub eviction: u64,
}

impl KernelStats {
    /// Adds `o` into `self`: counters and buckets sum, histograms merge,
    /// and the stop instant is the earlier one.
    fn merge(&mut self, o: &KernelStats) {
        self.faults += o.faults;
        self.faults_found_resident += o.faults_found_resident;
        self.faults_waited_inflight += o.faults_waited_inflight;
        self.demand_loads += o.demand_loads;
        self.sip_loads += o.sip_loads;
        self.sip_prefetches += o.sip_prefetches;
        self.sip_prefetches_started += o.sip_prefetches_started;
        self.sip_raced += o.sip_raced;
        self.preloads_enqueued += o.preloads_enqueued;
        self.preloads_started += o.preloads_started;
        self.preloads_skipped_resident += o.preloads_skipped_resident;
        self.preloads_aborted += o.preloads_aborted;
        self.preloads_rejected_range += o.preloads_rejected_range;
        self.background_evictions += o.background_evictions;
        self.foreground_evictions += o.foreground_evictions;
        self.preload_dones += o.preload_dones;
        self.preloads_shed += o.preloads_shed;
        self.channel_wait_cycles += o.channel_wait_cycles;
        self.residency.merge(&o.residency);
        self.fault_service.merge(&o.fault_service);
        self.preload_lead.merge(&o.preload_lead);
        self.evict_scan.merge(&o.evict_scan);
        self.stream_len.merge(&o.stream_len);
        self.dfp_stopped_at = self
            .dfp_stopped_at
            .into_iter()
            .chain(o.dfp_stopped_at)
            .min();
        self.demand_fault += o.demand_fault;
        self.aex_eresume += o.aex_eresume;
        self.channel_wait += o.channel_wait;
        self.preload_work += o.preload_work;
        self.wasted_preload += o.wasted_preload;
        self.clock_scan += o.clock_scan;
        self.eviction += o.eviction;
    }
}

impl Default for KernelStats {
    fn default() -> Self {
        KernelStats {
            faults: 0,
            faults_found_resident: 0,
            faults_waited_inflight: 0,
            demand_loads: 0,
            sip_loads: 0,
            sip_prefetches: 0,
            sip_prefetches_started: 0,
            sip_raced: 0,
            preloads_enqueued: 0,
            preloads_started: 0,
            preloads_skipped_resident: 0,
            preloads_aborted: 0,
            preloads_rejected_range: 0,
            background_evictions: 0,
            foreground_evictions: 0,
            preload_dones: 0,
            preloads_shed: 0,
            channel_wait_cycles: Cycles::ZERO,
            residency: Histogram::new("residency"),
            fault_service: Histogram::new("fault_service"),
            preload_lead: Histogram::new("preload_lead"),
            evict_scan: Histogram::new("evict_scan"),
            stream_len: Histogram::new("stream_len"),
            dfp_stopped_at: None,
            demand_fault: 0,
            aex_eresume: 0,
            channel_wait: 0,
            preload_work: 0,
            wasted_preload: 0,
            clock_scan: 0,
            eviction: 0,
        }
    }
}

/// EDMM telemetry, exposed via [`Kernel::edmm_stats`] when dynamic EPC
/// sizing is configured. Kept apart from [`KernelStats`] (like
/// [`ChaosStats`]) so the streamed-event reconciliation — kernel counters
/// versus sink-reconstructed event counts — is untouched by the growth
/// bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdmmStats {
    /// Faults serviced by EAUG growth instead of a swap-in load.
    pub eaug_faults: u64,
    /// Cycles billed to EAUG/EACCEPT (folded into the `demand_fault`
    /// attribution bucket).
    pub eaug_cycles: u64,
    /// First-touch faults denied growth because the enclave's committed
    /// pages had reached the ceiling (serviced via the swap path).
    pub denied_at_ceiling: u64,
    /// Peak committed (distinct ever-resident) pages of any one enclave.
    pub committed_peak: u64,
}

#[derive(Debug, Clone, Copy)]
enum Job {
    /// A background ELDU; the page becomes resident at completion.
    Load { page: VirtPage, origin: LoadOrigin },
    /// A background EWB; state already changed at start, this only holds
    /// the channel. `owner` is the victim's enclave, billed its cycles.
    Evict { owner: usize },
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: Job,
    done_at: Cycles,
    /// The span opened at job start (its completion event closes it).
    span: SpanId,
    /// The prediction-batch span that queued this load, if any.
    parent: Option<SpanId>,
    /// Channel cycles attributable to this job as *background* work:
    /// starts at the job's cost and is reduced by any overlap with app
    /// stalls (those cycles are already billed to the stall buckets).
    billed: u64,
    /// The chaos scan-stall portion of an eviction's cost, so the billed
    /// remainder splits between `clock_scan` and `eviction`.
    scan_extra: u64,
}

impl InFlight {
    fn is_load_of(&self, page: VirtPage) -> bool {
        matches!(self.job, Job::Load { page: p, .. } if p == page)
    }

    /// An eviction's billed cycles as `(clock_scan, eviction)`.
    fn evict_split(&self) -> (u64, u64) {
        let scan = self.billed.min(self.scan_extra);
        (scan, self.billed - scan)
    }
}

/// One registered enclave, by registration order (the same index as the
/// EPC's tenant extents).
#[derive(Debug)]
struct EnclaveSlot {
    pid: ProcessId,
    base: u64,
    pages: u64,
    bitmap: PresenceBitmap,
    /// Everything billed to this enclave.
    stats: KernelStats,
}

/// A preload batch entry dropped by the chaos injector, waiting out its
/// backoff before re-entering the queue.
#[derive(Debug, Clone, Copy)]
struct RetryEntry {
    not_before: Cycles,
    page: VirtPage,
    /// Raw id of the prediction-batch span that queued the page (0 =
    /// none), preserved across the backoff so the retried load still
    /// parents the original batch.
    batch: u64,
}

/// The untrusted operating system: SGX driver, reclaimer, preload worker.
///
/// # Examples
///
/// ```
/// use sgx_dfp::{MultiStreamPredictor, ProcessId, StreamConfig};
/// use sgx_epc::VirtPage;
/// use sgx_kernel::{Kernel, KernelConfig};
/// use sgx_sim::Cycles;
///
/// let mut k = Kernel::new(
///     KernelConfig::new(1024),
///     Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
/// );
/// let pid = ProcessId(0);
/// k.register_enclave(pid, 1 << 20)?;
/// let r = k.page_fault(Cycles::ZERO, pid, VirtPage::new(0));
/// // AEX + handler + ELDU + ERESUME with paper costs.
/// assert_eq!(r.resume_at, Cycles::new(65_000));
/// # Ok::<(), sgx_kernel::KernelError>(())
/// ```
pub struct Kernel {
    costs: CostModel,
    wm: Watermarks,
    epc: Epc,
    /// Registered enclaves in registration order — the same index space as
    /// the EPC's tenant extents, and recoverable from any global page as
    /// `page >> ENCLAVE_SHIFT` because bases sit at guard-page strides.
    /// The tenant index *is* the enclave index.
    enclaves: Vec<EnclaveSlot>,
    /// Enclave-owner pid → index into `enclaves`.
    pid_index: FastMap,
    /// Threads aliasing another process's enclave (paper §3.1: fault
    /// history is collected *per thread*, so each thread gets its own
    /// ProcessId-keyed stream list while sharing the owner's ELRANGE).
    /// Keyed thread pid → owner pid.
    thread_owner: FastMap,
    next_base: u64,
    predictor: Box<dyn Predictor>,
    valve: Option<AbortValve>,
    /// The tenant-scheduling policy; [`TenantPolicy::none`] when unset.
    tenant_policy: TenantPolicy,
    /// Whether the policy configures anything. All tenant scheduling paths
    /// gate on this, so the zero policy is bit-identical to the
    /// shared-everything default.
    tenant_active: bool,
    /// Per-enclave preload queues, used instead of `preload_q` when the
    /// tenant policy is active; drained by weighted deficit round-robin.
    per_q: Vec<PreloadQueue>,
    /// DRR deficit counters (remaining quantum per tenant).
    drr_deficit: Vec<u64>,
    /// DRR scan position.
    drr_cursor: usize,
    preload_q: PreloadQueue,
    /// Early-notify SIP prefetches: explicit application requests, so they
    /// are *not* cancelled by the fault handler's abort path.
    sip_q: PreloadQueue,
    in_flight: Option<InFlight>,
    channel_free_at: Cycles,
    channel_busy: Cycles,
    reclaiming: bool,
    bg_evicted_last: bool,
    preload_stopped: bool,
    sinks: Vec<Box<dyn crate::TraceSink>>,
    /// Completion instants (raw cycles) of DFP preloads whose pages are
    /// resident but not yet touched, indexed by EPC slot (`u64::MAX` =
    /// none); consumed at first touch to compute the preload lead time,
    /// dropped on eviction.
    preload_done: Vec<u64>,
    /// The chaos layer, if installed. A `None` (or an injector with an
    /// all-zero schedule, which never draws) leaves every path identical
    /// to an uninjected run.
    injector: Option<FaultInjector>,
    /// Dropped preloads waiting out their retry backoff.
    retry_q: Vec<RetryEntry>,
    /// Retry attempts consumed per dropped page.
    retry_attempts: BTreeMap<VirtPage, u32>,
    /// Usable-EPC pages withheld by an active chaos pressure spike.
    chaos_reserved_pages: u64,
    /// When the active chaos pressure spike ends.
    chaos_reserved_until: Cycles,
    /// Monotonic span-id allocator; ids are assigned whether or not any
    /// sink is subscribed, so observation never perturbs a run.
    spans: SpanAlloc,
    /// Completed background loads not yet touched, indexed by EPC slot:
    /// the staging span's raw id (0 = none; span ids start at 1) and its
    /// billed channel cost. Moved to `preload_work` on first touch,
    /// `wasted_preload` on eviction or run end.
    staged_span: Vec<u64>,
    staged_cost: Vec<u64>,
    /// Scratch for the fault handler's abort path, reused across faults.
    abort_buf: Vec<(VirtPage, u64)>,
    /// Scratch for predictor output, reused across faults.
    pred_buf: Vec<VirtPage>,
    /// Scratch for expired chaos retries, reused across channel steps.
    due_buf: Vec<(VirtPage, u64)>,
    /// Events batched since the last flush; delivered to every sink, in
    /// order, at public entry-point boundaries and before gauge samples,
    /// so sinks observe exactly the unbatched call sequence.
    pending: Vec<LoggedEvent>,
    /// Start of the app stall currently being serviced, if any; channel
    /// completions inside it deduct the overlap from their billed cost.
    stall_from: Option<Cycles>,
    /// The previous app-stall window; channel jobs lazily dispatched into
    /// it deduct the overlap at dispatch.
    last_stall: Option<(Cycles, Cycles)>,
    /// EDMM dynamic sizing, if configured; `None` is the SGX1 model.
    edmm: Option<EpcSizing>,
    /// The resolved per-enclave committed-page ceiling (0 without EDMM).
    edmm_ceiling: u64,
    /// Per-enclave "ever resident" bitmaps (registration order): a set
    /// bit means the page was committed at some point, so a refault goes
    /// through the swap path, not EAUG. Zero-sized when EDMM is off.
    ever: Vec<PresenceBitmap>,
    /// Distinct pages ever committed per enclave (the EDMM growth
    /// budget's consumption; never decreases while the enclave lives).
    committed: Vec<u64>,
    /// Latched once any enclave reaches the ceiling: from then on the
    /// background reclaimer behaves exactly as in the SGX1 model.
    edmm_at_ceiling: bool,
    /// EDMM telemetry behind [`Kernel::edmm_stats`].
    edmm_stats: EdmmStats,
    /// Whether [`Kernel::finish`] already emitted the terminal event.
    finished: bool,
    /// Gauge-sampling interval in cycles (0 = off, the default).
    sample_every: u64,
    /// When the last gauge sample was emitted.
    last_sample_at: Cycles,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("epc_resident", &self.epc.resident_count())
            .field("epc_capacity", &self.epc.capacity())
            .field("predictor", &self.predictor.name())
            .field("preload_q", &self.preload_q.len())
            .field("channel_free_at", &self.channel_free_at)
            .finish()
    }
}

impl Kernel {
    /// Creates a kernel with the given configuration and DFP predictor.
    ///
    /// Use [`sgx_dfp::NoPredictor`] for the no-preloading baseline.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.epc_pages == 0`; use [`Kernel::try_new`] for a
    /// fallible construction.
    pub fn new(cfg: KernelConfig, predictor: Box<dyn Predictor>) -> Self {
        let wm = cfg
            .watermarks
            .unwrap_or_else(|| Watermarks::driver_defaults(cfg.epc_pages));
        let tenant_policy = cfg.tenant.unwrap_or_else(TenantPolicy::none);
        let tenant_active = !tenant_policy.is_none();
        Kernel {
            costs: cfg.costs,
            wm,
            epc: Epc::with_policy(cfg.epc_pages, cfg.victim_policy),
            enclaves: Vec::new(),
            pid_index: FastMap::new(),
            thread_owner: FastMap::new(),
            next_base: 0,
            predictor,
            valve: cfg.abort_policy.map(AbortValve::new),
            tenant_policy,
            tenant_active,
            per_q: Vec::new(),
            drr_deficit: Vec::new(),
            drr_cursor: 0,
            preload_q: PreloadQueue::new(),
            sip_q: PreloadQueue::new(),
            in_flight: None,
            channel_free_at: Cycles::ZERO,
            channel_busy: Cycles::ZERO,
            reclaiming: false,
            bg_evicted_last: false,
            preload_stopped: false,
            sinks: Vec::new(),
            preload_done: vec![u64::MAX; cfg.epc_pages as usize],
            injector: cfg.chaos.map(FaultInjector::new),
            retry_q: Vec::new(),
            retry_attempts: BTreeMap::new(),
            chaos_reserved_pages: 0,
            chaos_reserved_until: Cycles::ZERO,
            spans: SpanAlloc::default(),
            staged_span: vec![0; cfg.epc_pages as usize],
            staged_cost: vec![0; cfg.epc_pages as usize],
            abort_buf: Vec::new(),
            pred_buf: Vec::new(),
            due_buf: Vec::new(),
            pending: Vec::new(),
            stall_from: None,
            last_stall: None,
            edmm: cfg.edmm,
            edmm_ceiling: cfg.edmm.map_or(0, |s| s.ceiling_pages(cfg.epc_pages)),
            ever: Vec::new(),
            committed: Vec::new(),
            edmm_at_ceiling: false,
            edmm_stats: EdmmStats::default(),
            finished: false,
            sample_every: 0,
            last_sample_at: Cycles::ZERO,
        }
    }

    /// Fallible construction: like [`Kernel::new`] but reports a zero-page
    /// EPC as [`KernelError::NoEpc`] instead of panicking.
    ///
    /// # Errors
    ///
    /// Fails when `cfg.epc_pages == 0`.
    pub fn try_new(cfg: KernelConfig, predictor: Box<dyn Predictor>) -> Result<Self, KernelError> {
        if cfg.epc_pages == 0 {
            return Err(KernelError::NoEpc);
        }
        Ok(Self::new(cfg, predictor))
    }

    /// Registers `thread` as an additional thread of `owner`'s enclave:
    /// it shares the owner's ELRANGE and presence bitmap, but its page
    /// faults feed a *separate* per-thread stream list, as the paper's
    /// DFP does ("we collect the history of faulted pages in each
    /// thread", §3.1).
    ///
    /// # Errors
    ///
    /// Fails if `thread` is already registered (as enclave or thread) or
    /// `owner` has no enclave.
    pub fn register_thread(
        &mut self,
        owner: ProcessId,
        thread: ProcessId,
    ) -> Result<(), KernelError> {
        if self.pid_index.contains(thread.0 as u64) || self.thread_owner.contains(thread.0 as u64) {
            return Err(KernelError::DuplicateProcess(thread));
        }
        let owner = self.owner_pid(owner);
        let Some(idx) = self.pid_index.get(owner.0 as u64) else {
            return Err(KernelError::UnknownOwner(owner));
        };
        self.thread_owner.insert(thread.0 as u64, owner.0 as u64);
        // Threads resolve to their enclave in one probe on the hot path.
        self.pid_index.insert(thread.0 as u64, idx);
        Ok(())
    }

    /// Registers an enclave of `pages` virtual pages for `pid` and creates
    /// its shared presence bitmap.
    ///
    /// # Errors
    ///
    /// Fails on duplicate registration, an empty range, or a range larger
    /// than the guard spacing between enclaves.
    pub fn register_enclave(&mut self, pid: ProcessId, pages: u64) -> Result<(), KernelError> {
        if self.pid_index.contains(pid.0 as u64) && !self.thread_owner.contains(pid.0 as u64) {
            return Err(KernelError::DuplicateProcess(pid));
        }
        if pages == 0 {
            return Err(KernelError::EmptyRange);
        }
        if pages > ENCLAVE_GUARD_PAGES {
            return Err(KernelError::RangeTooLarge {
                requested: pages,
                max: ENCLAVE_GUARD_PAGES,
            });
        }
        if self.thread_owner.contains(pid.0 as u64) {
            return Err(KernelError::DuplicateProcess(pid));
        }
        let base = self.next_base;
        self.next_base += ENCLAVE_GUARD_PAGES;
        self.pid_index
            .insert(pid.0 as u64, self.enclaves.len() as u64);
        // Every enclave becomes an EPC tenant extent (telemetry is
        // unconditional); quotas only when the policy is active.
        let ten = self.epc.register_extent(VirtPage::new(base), pages);
        debug_assert_eq!(ten, self.enclaves.len(), "tenant index == enclave index");
        if self.tenant_active {
            self.epc.set_quota(ten, self.tenant_policy.quota(ten));
        }
        self.enclaves.push(EnclaveSlot {
            pid,
            base,
            pages,
            bitmap: PresenceBitmap::new(pages),
            stats: KernelStats::default(),
        });
        self.per_q.push(PreloadQueue::new());
        self.drr_deficit.push(0);
        // EDMM commit tracking (index-aligned with `enclaves`; zero-sized
        // placeholders keep the SGX1 configuration allocation-free).
        self.ever.push(if self.edmm.is_some() {
            PresenceBitmap::new(pages)
        } else {
            PresenceBitmap::new(0)
        });
        self.committed.push(0);
        Ok(())
    }

    /// Resolves a thread alias to the enclave-owning process.
    #[inline]
    fn owner_pid(&self, pid: ProcessId) -> ProcessId {
        match self.thread_owner.get(pid.0 as u64) {
            Some(owner) => ProcessId(owner as u32),
            None => pid,
        }
    }

    #[inline]
    fn slot(&self, pid: ProcessId) -> &EnclaveSlot {
        let idx = self
            .pid_index
            .get(pid.0 as u64)
            .unwrap_or_else(|| panic!("{pid} has no registered enclave"));
        &self.enclaves[idx as usize]
    }

    #[inline]
    fn global(&self, pid: ProcessId, local: VirtPage) -> VirtPage {
        let slot = self.slot(pid);
        assert!(
            local.raw() < slot.pages,
            "{pid} accessed {local} outside its {}-page ELRANGE",
            slot.pages
        );
        VirtPage::new(slot.base + local.raw())
    }

    /// The enclave (== tenant) index owning `page`, from the guard-stride
    /// base layout — no scan, no map probe.
    #[inline]
    fn enclave_of_page(&self, page: VirtPage) -> Option<usize> {
        let g = page.raw();
        let idx = (g >> ENCLAVE_SHIFT) as usize;
        match self.enclaves.get(idx) {
            Some(s) if g - s.base < s.pages => Some(idx),
            _ => None,
        }
    }

    /// The enclave billed for work on `page`: every page the kernel
    /// loads, queues or evicts lies inside a registered ELRANGE.
    #[inline]
    fn owner(&self, page: VirtPage) -> usize {
        self.enclave_of_page(page)
            .expect("kernel pages lie in a registered ELRANGE")
    }

    fn owner_of(&self, page: VirtPage) -> Option<(ProcessId, u64)> {
        let idx = self.enclave_of_page(page)?;
        let s = &self.enclaves[idx];
        Some((s.pid, page.raw() - s.base))
    }

    fn set_bitmap(&mut self, page: VirtPage, present: bool) {
        if let Some(idx) = self.enclave_of_page(page) {
            let slot = &mut self.enclaves[idx];
            let local = VirtPage::new(page.raw() - slot.base);
            if present {
                slot.bitmap.set_present(local);
            } else {
                slot.bitmap.clear_present(local);
            }
        }
    }

    /// EDMM bookkeeping at every EPC insert: the first time a page becomes
    /// resident it consumes one unit of its enclave's committed-page
    /// budget, whatever path loaded it (EAUG growth, demand swap-in, DFP
    /// preload, SIP prefetch) — so a preloaded-then-evicted page refaults
    /// through the swap path, never through a second EAUG.
    fn edmm_mark_committed(&mut self, page: VirtPage) {
        if self.edmm.is_none() {
            return;
        }
        let Some(idx) = self.enclave_of_page(page) else {
            return;
        };
        let local = VirtPage::new(page.raw() - self.enclaves[idx].base);
        if !self.ever[idx].is_present(local) {
            self.ever[idx].set_present(local);
            self.committed[idx] += 1;
            self.edmm_stats.committed_peak =
                self.edmm_stats.committed_peak.max(self.committed[idx]);
            if self.committed[idx] >= self.edmm_ceiling {
                self.edmm_at_ceiling = true;
            }
        }
    }

    /// EDMM grow-before-evict: while every enclave is still below its
    /// committed-page ceiling, the background reclaimer stays parked —
    /// free-pool pressure is expected (the EPC is filling with committed
    /// pages) and background eviction would only manufacture refaults.
    fn edmm_defers_reclaim(&self) -> bool {
        self.edmm.is_some() && !self.edmm_at_ceiling
    }

    /// The tenant index of `pid`'s enclave (resolving thread aliases).
    #[inline]
    fn tenant_of_pid(&self, pid: ProcessId) -> usize {
        // An unregistered pid is its own owner, so the message matches the
        // old resolve-then-probe path bit for bit.
        self.pid_index
            .get(pid.0 as u64)
            .unwrap_or_else(|| panic!("{pid} has no registered enclave")) as usize
    }

    /// Whether `page` sits on a preload queue (global or per-tenant).
    fn preload_queued(&self, page: VirtPage) -> bool {
        if self.tenant_active {
            self.enclave_of_page(page)
                .is_some_and(|t| self.per_q[t].contains(page))
        } else {
            self.preload_q.contains(page)
        }
    }

    /// Queues `page` for preloading on the owning tenant's queue (or the
    /// global queue when the policy is inactive). Returns `false` on a
    /// duplicate.
    fn preload_enqueue(&mut self, page: VirtPage, batch: u64) -> bool {
        if self.tenant_active {
            match self.enclave_of_page(page) {
                Some(t) => self.per_q[t].enqueue_tagged(page, batch),
                None => self.preload_q.enqueue_tagged(page, batch),
            }
        } else {
            self.preload_q.enqueue_tagged(page, batch)
        }
    }

    /// Whether any preload work is runnable (global queue, or any
    /// tenant's queue) while the valve is open.
    fn preload_pending(&self) -> bool {
        if self.preload_stopped {
            return false;
        }
        if self.tenant_active {
            self.per_q.iter().any(|q| !q.is_empty())
        } else {
            !self.preload_q.is_empty()
        }
    }

    /// Pops the next preload: FIFO from the global queue, or weighted
    /// deficit round-robin across the per-tenant queues when the policy is
    /// active. Each tenant spends a quantum of `weight` pops before the
    /// cursor moves on, so queued preloads from different enclaves
    /// interleave by configured weight instead of strict FIFO.
    fn preload_pop(&mut self) -> Option<(VirtPage, u64)> {
        if !self.tenant_active {
            return self.preload_q.pop_tagged();
        }
        let n = self.per_q.len();
        for _ in 0..n {
            let i = self.drr_cursor;
            if self.per_q[i].is_empty() {
                self.drr_deficit[i] = 0;
                self.drr_cursor = (self.drr_cursor + 1) % n;
                continue;
            }
            if self.drr_deficit[i] == 0 {
                self.drr_deficit[i] = self.tenant_policy.weight(i);
            }
            let page = self.per_q[i].pop_tagged();
            self.drr_deficit[i] -= 1;
            if self.per_q[i].is_empty() {
                self.drr_deficit[i] = 0;
            }
            if self.drr_deficit[i] == 0 {
                self.drr_cursor = (self.drr_cursor + 1) % n;
            }
            return page;
        }
        None
    }

    /// Drops queued preloads on a demand fault, appending the dropped
    /// pages to `out` (for batch-span lineage). With the tenant policy
    /// active only the *faulting* enclave's queue is cleared — one
    /// tenant's miss no longer cancels another's pipeline.
    fn abort_preloads_for(&mut self, ten: usize, out: &mut Vec<(VirtPage, u64)>) {
        if self.tenant_active {
            self.per_q[ten].abort_into(out)
        } else {
            self.preload_q.abort_into(out)
        }
    }

    /// Applies the state change of a completed channel job and frees the
    /// channel at its completion time. When the completion lands inside an
    /// app stall (`stall_from` set), the overlap is deducted from the
    /// job's billed background cost — those cycles are already billed to
    /// the stall buckets.
    fn apply_completion(&mut self, mut f: InFlight) {
        self.channel_free_at = f.done_at;
        if let Some(s) = self.stall_from {
            if f.done_at > s {
                f.billed -= f.billed.min(f.done_at.raw() - s.raw());
            }
        }
        match f.job {
            Job::Load { page, origin } => {
                let slot = self
                    .epc
                    .insert(page, origin)
                    .expect("background load started with a free slot reserved")
                    as usize;
                self.set_bitmap(page, true);
                self.edmm_mark_committed(page);
                if matches!(origin, LoadOrigin::Preload) {
                    self.preload_done[slot] = f.done_at.raw();
                }
                let t = self.owner(page);
                self.enclaves[t].stats.preload_dones += 1;
                self.staged_span[slot] = f.span.raw();
                self.staged_cost[slot] = f.billed;
                self.log(
                    f.done_at,
                    EventKind::PreloadDone,
                    Some(page),
                    None,
                    f.span,
                    f.parent,
                );
            }
            Job::Evict { owner } => {
                let (scan, ewb) = f.evict_split();
                let st = &mut self.enclaves[owner].stats;
                st.clock_scan += scan;
                st.eviction += ewb;
            }
        }
    }

    /// Kernel-side bookkeeping for an eviction the EPC already performed.
    fn note_eviction(&mut self, ev: &sgx_epc::Eviction) {
        self.set_bitmap(ev.page, false);
        let slot = ev.slot as usize;
        self.preload_done[slot] = u64::MAX;
        let t = self.owner(ev.page);
        // A staged page evicted before its first touch was wasted work.
        if self.staged_span[slot] != 0 {
            self.enclaves[t].stats.wasted_preload += self.staged_cost[slot];
            self.staged_span[slot] = 0;
            self.staged_cost[slot] = 0;
        }
        self.enclaves[t]
            .stats
            .evict_scan
            .record(Cycles::new(ev.scanned));
    }

    /// Evicts one victim *now* (state change at job start); returns it for
    /// event emission. With the tenant policy active the scan prefers
    /// victims from enclaves above their soft quota.
    fn evict_one_now(&mut self) -> sgx_epc::Eviction {
        let ev = if self.tenant_active {
            self.epc.evict_victim_quota_aware()
        } else {
            self.epc.evict_victim()
        }
        .expect("eviction requested on empty EPC");
        self.note_eviction(&ev);
        ev
    }

    /// Touches `g` in the EPC, emitting a [`EventKind::PreloadHit`] with
    /// the completion-to-touch lead time on the first touch of a
    /// DFP-preloaded page. `at` is the access instant.
    fn touch_tracked(&mut self, at: Cycles, g: VirtPage) -> TouchOutcome {
        let t = self.epc.touch(g);
        let Some(slot) = t.slot else {
            return t;
        };
        let slot = slot as usize;
        // First touch of a staged background load: its billed channel
        // cost becomes useful preload work.
        let mut staged = None;
        if self.staged_span[slot] != 0 {
            staged = Some(SpanId::new(self.staged_span[slot]));
            let owner = self.owner(g);
            self.enclaves[owner].stats.preload_work += self.staged_cost[slot];
            self.staged_span[slot] = 0;
            self.staged_cost[slot] = 0;
        }
        if t.first_touch_of_preload {
            let done = self.preload_done[slot];
            if done != u64::MAX {
                self.preload_done[slot] = u64::MAX;
                let lead = Cycles::new(at.raw().saturating_sub(done));
                let owner = self.owner(g);
                self.enclaves[owner].stats.preload_lead.record(lead);
                let hspan = self.spans.next();
                self.log(
                    at,
                    EventKind::PreloadHit,
                    Some(g),
                    Some(lead.raw()),
                    hspan,
                    staged,
                );
            }
        }
        t
    }

    /// Free EPC slots as the scheduler sees them: real free slots minus any
    /// pages withheld by an active chaos pressure spike. Real capacity is
    /// untouched — a load that reaches the channel always has a slot.
    fn usable_free_slots(&self, t: Cycles) -> u64 {
        let withheld = if t < self.chaos_reserved_until {
            self.chaos_reserved_pages
        } else {
            0
        };
        self.epc.free_slots().saturating_sub(withheld)
    }

    /// A popped preload batch entry was dropped by the injector: schedule a
    /// backoff retry, or abandon the page once its retry budget is spent.
    fn chaos_drop(&mut self, t: Cycles, page: VirtPage, batch: u64) {
        let attempt = self.retry_attempts.get(&page).copied().unwrap_or(0);
        let backoff = self
            .injector
            .as_mut()
            .and_then(|i| i.retry_backoff(attempt));
        match backoff {
            Some(b) => {
                self.retry_attempts.insert(page, attempt + 1);
                self.retry_q.push(RetryEntry {
                    not_before: t + b,
                    page,
                    batch,
                });
            }
            None => {
                self.retry_attempts.remove(&page);
            }
        }
    }

    /// Re-queues dropped preloads whose backoff has expired. Retries
    /// respect the valve latch: once preloading stops, every pending retry
    /// is discarded, due or not, rather than re-queued.
    fn chaos_release_retries(&mut self, t: Cycles) {
        if self.retry_q.is_empty() {
            return;
        }
        let mut due = std::mem::take(&mut self.due_buf);
        due.clear();
        let stopped = self.preload_stopped;
        self.retry_q.retain(|e| {
            if stopped || e.not_before <= t {
                due.push((e.page, e.batch));
                false
            } else {
                true
            }
        });
        for &(page, batch) in &due {
            if self.preload_stopped
                || self.epc.is_resident(page)
                || self.preload_queued(page)
                || matches!(self.in_flight, Some(f) if f.is_load_of(page))
            {
                self.retry_attempts.remove(&page);
                continue;
            }
            // Re-entry is not a new enqueue for the stats: the page was
            // already accounted for when first predicted, and it carries
            // the original batch tag so lineage survives the backoff.
            self.preload_enqueue(page, batch);
        }
        self.due_buf = due;
    }

    /// Lazily runs background channel work (reclaim, preloads) up to `now`.
    fn advance(&mut self, now: Cycles) {
        loop {
            if let Some(f) = self.in_flight {
                if f.done_at <= now {
                    self.in_flight = None;
                    self.apply_completion(f);
                    continue;
                }
                break;
            }
            if self.channel_free_at > now {
                break;
            }
            let t = self.channel_free_at;
            self.chaos_release_retries(t);
            let free = self.usable_free_slots(t);
            if self.wm.start_reclaim(free) && !self.edmm_defers_reclaim() {
                self.reclaiming = true;
            }
            if !self.wm.keep_reclaiming(free) {
                self.reclaiming = false;
            }
            let want_sip = !self.sip_q.is_empty();
            let want_preload = want_sip || self.preload_pending();
            // The reclaimer (ksgxswapd) and the preload worker are separate
            // kernel threads contending for the channel; when both have
            // work they alternate, except that a full EPC forces an evict
            // (a preload cannot insert without a free slot).
            let must_evict = want_preload && free == 0;
            let fair_evict =
                self.reclaiming && !(want_preload && free > 0 && !self.bg_evicted_last);
            if (must_evict || fair_evict) && self.epc.resident_count() > 0 {
                let ev = self.evict_one_now();
                let espan = self.spans.next();
                self.log(
                    t,
                    EventKind::EvictBackground,
                    Some(ev.page),
                    Some(ev.scanned),
                    espan,
                    None,
                );
                let owner = self.owner(ev.page);
                self.enclaves[owner].stats.background_evictions += 1;
                let mut ewb = self.costs.ewb;
                let mut scan_extra = 0u64;
                if let Some(extra) = self.injector.as_mut().and_then(|i| i.scan_stall()) {
                    ewb += extra;
                    scan_extra = extra.raw();
                }
                self.channel_busy += ewb;
                self.bg_evicted_last = true;
                let done = t + ewb;
                // Cycles overlapping the previous app stall are already
                // billed to the stall buckets.
                let billed = ewb.raw() - ewb.raw().min(self.past_stall_overlap(t, done));
                self.in_flight = Some(InFlight {
                    job: Job::Evict { owner },
                    done_at: done,
                    span: espan,
                    parent: None,
                    billed,
                    scan_extra,
                });
                continue;
            }
            if want_preload {
                // Explicit application prefetches outrank speculation.
                let (page, batch, origin) = if let Some(page) = self.sip_q.pop() {
                    (page, 0, LoadOrigin::Sip)
                } else if let Some((page, batch)) = self.preload_pop() {
                    (page, batch, LoadOrigin::Preload)
                } else {
                    break;
                };
                let owner = self.owner(page);
                if self.epc.is_resident(page) {
                    let st = &mut self.enclaves[owner].stats;
                    match origin {
                        LoadOrigin::Sip => st.sip_raced += 1,
                        _ => st.preloads_skipped_resident += 1,
                    }
                    continue;
                }
                // Chaos: only speculative (DFP) batches are droppable —
                // SIP requests are explicit application demands. A dropped
                // page keeps its batch tag so a backoff retry still
                // parents the original prediction batch.
                if matches!(origin, LoadOrigin::Preload)
                    && self.injector.as_mut().is_some_and(|i| i.drop_preload())
                {
                    self.chaos_drop(t, page, batch);
                    continue;
                }
                let (span, parent) = match origin {
                    LoadOrigin::Sip => {
                        self.enclaves[owner].stats.sip_prefetches_started += 1;
                        let span = self.spans.next();
                        self.log(t, EventKind::SipPrefetchStart, Some(page), None, span, None);
                        (span, None)
                    }
                    _ => {
                        self.retry_attempts.remove(&page);
                        self.enclaves[owner].stats.preloads_started += 1;
                        let parent = (batch != 0).then(|| SpanId::new(batch));
                        let span = self.spans.next();
                        self.log(t, EventKind::PreloadStart, Some(page), None, span, parent);
                        (span, parent)
                    }
                };
                self.bg_evicted_last = false;
                let mut eldu = self.costs.eldu;
                if matches!(origin, LoadOrigin::Preload) {
                    if let Some(extra) = self.injector.as_mut().and_then(|i| i.delay_preload()) {
                        eldu += extra;
                    }
                }
                self.channel_busy += eldu;
                let done = t + eldu;
                let billed = eldu.raw() - eldu.raw().min(self.past_stall_overlap(t, done));
                self.in_flight = Some(InFlight {
                    job: Job::Load { page, origin },
                    done_at: done,
                    span,
                    parent,
                    billed,
                    scan_extra: 0,
                });
                continue;
            }
            // An idle channel with a pending chaos retry: jump to the
            // earliest backoff expiry `now` has already passed so the
            // retry can start (the channel was idle in between anyway).
            // `nb > t` guarantees progress; a latched valve discarded
            // every retry above, so none can drive a jump.
            if let Some(next) = self
                .retry_q
                .iter()
                .map(|e| e.not_before)
                .filter(|&nb| nb > t && nb <= now)
                .min()
            {
                self.channel_free_at = next;
                continue;
            }
            break;
        }
    }

    /// Waits for the in-flight job (non-preemptible) and returns the
    /// earliest instant ≥ `from` at which the channel is ours.
    fn channel_acquire(&mut self, from: Cycles) -> Cycles {
        if let Some(f) = self.in_flight.take() {
            self.apply_completion(f);
        }
        from.max(self.channel_free_at)
    }

    /// Synchronously loads `page` through the channel for a blocked
    /// requester; returns the completion instant. `requester` (a tenant
    /// index) is billed the stall: channel wait, foreground EWB and ELDU
    /// cycles; `cause` (the demanding fault's or SIP load's span) parents
    /// any foreground eviction forced here.
    fn blocking_load(
        &mut self,
        from: Cycles,
        page: VirtPage,
        origin: LoadOrigin,
        requester: usize,
        cause: Option<SpanId>,
    ) -> Cycles {
        let mut t = self.channel_acquire(from);
        let st = &mut self.enclaves[requester].stats;
        st.channel_wait += t.raw() - from.raw();
        if matches!(origin, LoadOrigin::Demand) {
            st.channel_wait_cycles += t - from;
        }
        if self.usable_free_slots(t) == 0 && self.epc.resident_count() > 0 {
            let ev = self.evict_one_now();
            let espan = self.spans.next();
            self.log(
                t,
                EventKind::EvictForeground,
                Some(ev.page),
                Some(ev.scanned),
                espan,
                cause,
            );
            let victim = self.owner(ev.page);
            self.enclaves[victim].stats.foreground_evictions += 1;
            let mut ewb = self.costs.ewb;
            let mut extra_raw = 0u64;
            if let Some(extra) = self.injector.as_mut().and_then(|i| i.scan_stall()) {
                ewb += extra;
                extra_raw = extra.raw();
            }
            let st = &mut self.enclaves[requester].stats;
            st.clock_scan += extra_raw;
            st.eviction += self.costs.ewb.raw();
            self.channel_busy += ewb;
            t += ewb;
        }
        let done = t + self.costs.eldu;
        self.channel_free_at = done;
        self.channel_busy += self.costs.eldu;
        self.enclaves[requester].stats.demand_fault += self.costs.eldu.raw();
        // A chaos pressure spike only shrinks the scheduler's view of the
        // free pool, never real capacity, so a slot is always available
        // here (freed above, or hidden-but-real).
        self.epc
            .insert(page, origin)
            .expect("a real free slot exists");
        self.set_bitmap(page, true);
        self.edmm_mark_committed(page);
        done
    }

    /// The safety valve's counters are kernel-global (as in the driver,
    /// where the service thread owns them): in a multi-enclave run, one
    /// enclave's sustained mispredictions stop preloading for all.
    fn valve_check(&mut self, now: Cycles, cause: SpanId) {
        if self.preload_stopped {
            return;
        }
        if let Some(v) = &mut self.valve {
            if v.observe(
                now,
                self.epc.preloads_completed(),
                self.epc.preloads_touched(),
            ) {
                self.stop_preloading(now, cause);
            }
        }
    }

    /// Latches the DFP stop: aborts the queues and records the stop. Both
    /// the real valve and the chaos force-flap funnel through here, so the
    /// "once stopped, zero further preloads" invariant has a single owner.
    /// The latch names no enclave: each flushed page is billed to its
    /// owner, and every enclave records the stop.
    fn stop_preloading(&mut self, now: Cycles, cause: SpanId) {
        self.preload_stopped = true;
        let mut flushed = std::mem::take(&mut self.abort_buf);
        flushed.clear();
        self.preload_q.abort_into(&mut flushed);
        let mut dropped = flushed.len() as u64;
        for &(page, _) in &flushed {
            let owner = self.owner(page);
            self.enclaves[owner].stats.preloads_aborted += 1;
        }
        self.abort_buf = flushed;
        for (e, q) in self.enclaves.iter_mut().zip(&mut self.per_q) {
            let d = q.abort();
            dropped += d;
            e.stats.preloads_aborted += d;
            e.stats.dfp_stopped_at = Some(now);
        }
        let vspan = self.spans.next();
        self.log(
            now,
            EventKind::ValveStopped,
            None,
            Some(dropped),
            vspan,
            Some(cause),
        );
    }

    /// Per-fault chaos: EPC pressure spikes and forced valve trips. Runs
    /// right after the real valve check so a forced trip takes the same
    /// latch path (and the latch absorbs any further flap attempts).
    fn chaos_on_fault(&mut self, now: Cycles, cause: SpanId) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let spike = inj.epc_spike();
        let flap = !self.preload_stopped && inj.force_valve();
        if let Some((pages, duration)) = spike {
            self.chaos_reserved_pages = pages.min(self.epc.capacity().saturating_sub(1));
            self.chaos_reserved_until = now + duration;
        }
        if flap {
            self.stop_preloading(now, cause);
        }
    }

    fn enqueue_predictions(&mut self, pid: ProcessId, pred: &[VirtPage], batch: Option<SpanId>) {
        let ten = self.tenant_of_pid(pid);
        // Admission control: under memory pressure (free pool below the
        // reclaimer's low watermark) an enclave already above its soft
        // share may not queue more speculation — the whole batch is shed.
        if self.tenant_active
            && self.tenant_policy.admission_control
            && self.epc.free_slots() < self.wm.low()
            && self.epc.over_soft_quota(ten)
        {
            self.enclaves[ten].stats.preloads_shed += pred.len() as u64;
            return;
        }
        let (base, pages) = {
            let s = self.slot(pid);
            (s.base, s.pages)
        };
        for &page in pred {
            let g = page.raw();
            if g < base || g >= base + pages {
                self.enclaves[ten].stats.preloads_rejected_range += 1;
                continue;
            }
            if self.epc.is_resident(page)
                || self.preload_queued(page)
                || matches!(self.in_flight, Some(f) if f.is_load_of(page))
            {
                continue;
            }
            // A genuine batch tags the node for lineage; a chaos storm
            // (no batch) enqueues untagged so its loads don't inherit a
            // bogus parent.
            if self.preload_enqueue(page, batch.map_or(0, SpanId::raw)) {
                self.enclaves[ten].stats.preloads_enqueued += 1;
            }
        }
    }

    /// An application access at instant `now`. Returns the touch outcome on
    /// an EPC hit, `None` on a miss (the caller must then raise
    /// [`Kernel::page_fault`]).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn app_access(
        &mut self,
        now: Cycles,
        pid: ProcessId,
        local: VirtPage,
    ) -> Option<TouchOutcome> {
        let g = self.global(pid, local);
        self.advance(now);
        self.maybe_sample(now);
        let t = self.touch_tracked(now, g);
        self.flush_events();
        t.resident.then_some(t)
    }

    /// Services an enclave page fault raised at instant `now` (the AEX
    /// begins at `now`). Returns when the application resumes.
    ///
    /// This is the paper's full DFP pipeline: fault history → Algorithm 1
    /// prediction → asynchronous preloading, with queued-preload abort on a
    /// miss and the DFP-stop valve consulted on every fault.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn page_fault(&mut self, now: Cycles, pid: ProcessId, local: VirtPage) -> FaultResolution {
        let g = self.global(pid, local);
        let ten = self.tenant_of_pid(pid);
        let t = now + self.costs.aex;
        // The app is stalled from `now` until ERESUME: background channel
        // completions inside this window must not double-bill.
        self.stall_from = Some(now);
        self.advance(t);
        let resident_now = self.epc.tenant_resident(ten);
        let st = &mut self.enclaves[ten].stats;
        st.faults += 1;
        st.residency.record(Cycles::new(resident_now));
        st.aex_eresume += self.costs.aex.raw() + self.costs.eresume.raw();
        st.demand_fault += self.costs.os_fault_path.raw();
        let fspan = self.spans.next();
        // Fault lineage: the span of the background load that staged (or
        // is staging) this page; `None` means a cold fault.
        let cause = self
            .epc
            .slot_of(g)
            .map(|s| self.staged_span[s as usize])
            .filter(|&raw| raw != 0)
            .map(SpanId::new)
            .or(match &self.in_flight {
                Some(f) if f.is_load_of(g) => Some(f.span),
                _ => None,
            });
        self.log(now, EventKind::Fault, Some(g), None, fspan, cause);
        self.valve_check(t, fspan);
        self.chaos_on_fault(t, fspan);

        let (kind, handler_done) = if self.epc.is_resident(g) {
            self.enclaves[ten].stats.faults_found_resident += 1;
            self.touch_tracked(t, g);
            (FaultServicing::FoundResident, t + self.costs.os_fault_path)
        } else if matches!(self.in_flight, Some(f) if f.is_load_of(g)) {
            let f = self.in_flight.take().expect("matched above");
            let done = f.done_at;
            let st = &mut self.enclaves[ten].stats;
            st.faults_waited_inflight += 1;
            st.channel_wait += done.raw().saturating_sub(t.raw());
            self.apply_completion(f);
            self.touch_tracked(done.max(t), g);
            (
                FaultServicing::WaitedForInflight,
                done.max(t) + self.costs.os_fault_path,
            )
        } else if let Some(done) = self.try_eaug_grow(t, ten, g) {
            // EDMM growth: the page was EAUG'd directly in the fault
            // handler — no channel job, no ELDU, and no preload abort
            // (growth never contends with the preload pipeline).
            self.enclaves[ten].stats.demand_loads += 1;
            let dspan = self.spans.next();
            self.log(
                done,
                EventKind::DemandLoaded,
                Some(g),
                None,
                dspan,
                Some(fspan),
            );
            self.touch_tracked(done, g);
            (FaultServicing::DemandLoaded, done)
        } else {
            let mut pages = std::mem::take(&mut self.abort_buf);
            pages.clear();
            self.abort_preloads_for(ten, &mut pages);
            let dropped = pages.len() as u64;
            if dropped > 0 {
                let abort_parent = pages
                    .first()
                    .and_then(|&(_, b)| (b != 0).then(|| SpanId::new(b)));
                let aspan = self.spans.next();
                self.log(
                    t,
                    EventKind::PreloadAbort,
                    Some(g),
                    Some(dropped),
                    aspan,
                    abort_parent,
                );
            }
            self.abort_buf = pages;
            self.enclaves[ten].stats.preloads_aborted += dropped;
            let done = self.blocking_load(
                t + self.costs.os_fault_path,
                g,
                LoadOrigin::Demand,
                ten,
                Some(fspan),
            );
            self.enclaves[ten].stats.demand_loads += 1;
            let dspan = self.spans.next();
            self.log(
                done,
                EventKind::DemandLoaded,
                Some(g),
                None,
                dspan,
                Some(fspan),
            );
            self.touch_tracked(done, g);
            (FaultServicing::DemandLoaded, done)
        };

        if !self.preload_stopped {
            let mut pred = std::mem::take(&mut self.pred_buf);
            pred.clear();
            self.predictor.on_fault_into(t, pid, g, &mut pred);
            let predicted = pred.len() as u64;
            let mut batch = None;
            if predicted > 0 {
                self.enclaves[ten]
                    .stats
                    .stream_len
                    .record(Cycles::new(predicted));
                let b = self.spans.next();
                batch = Some(b);
                self.log(
                    t,
                    EventKind::StreamPredicted,
                    Some(g),
                    Some(predicted),
                    b,
                    Some(fspan),
                );
            }
            self.enqueue_predictions(pid, &pred, batch);
            self.pred_buf = pred;
            // Chaos: a spurious mispredict storm rides in with the genuine
            // prediction, through the same range/dedup/enqueue filter.
            if self.injector.is_some() {
                let (base, pages) = {
                    let s = self.slot(pid);
                    (s.base, s.pages)
                };
                let storm = self
                    .injector
                    .as_mut()
                    .map(|i| i.spurious_storm(base, pages))
                    .unwrap_or_default();
                if !storm.is_empty() {
                    self.enqueue_predictions(pid, &storm, None);
                }
            }
        }

        let resume_at = handler_done + self.costs.eresume;
        let service = resume_at - now;
        self.enclaves[ten].stats.fault_service.record(service);
        self.log(
            resume_at,
            EventKind::FaultResolved,
            Some(g),
            Some(service.raw()),
            fspan,
            cause,
        );
        self.absorb_inflight_overlap(now, resume_at);
        self.stall_from = None;
        self.last_stall = Some((now, resume_at));
        self.maybe_sample(resume_at);
        self.flush_events();
        FaultResolution { resume_at, kind }
    }

    /// Attempts to service a missing-page fault by EDMM growth: if the
    /// page was never committed, the enclave is below its ceiling, and a
    /// physical slot is free, the OS EAUGs a fresh page into the faulting
    /// address and the enclave EACCEPTs it — entirely inside the fault
    /// handler, without touching the load channel. Returns the
    /// handler-done instant, or `None` when the classic swap path must run
    /// instead.
    fn try_eaug_grow(&mut self, t: Cycles, ten: usize, g: VirtPage) -> Option<Cycles> {
        self.edmm?;
        let local = VirtPage::new(g.raw() - self.enclaves[ten].base);
        if self.ever[ten].is_present(local) {
            // Evicted-and-refaulted pages reload their content from swap;
            // EDMM only covers first-touch growth.
            return None;
        }
        if self.committed[ten] >= self.edmm_ceiling {
            self.edmm_stats.denied_at_ceiling += 1;
            return None;
        }
        // EAUG bypasses the load channel, so it must not consume the slot
        // an in-flight background load will insert into at completion.
        let reserved =
            matches!(self.in_flight, Some(f) if matches!(f.job, Job::Load { .. })) as u64;
        if self.usable_free_slots(t) <= reserved {
            return None;
        }
        let eaug = self.costs.eaug;
        self.enclaves[ten].stats.demand_fault += eaug.raw();
        self.edmm_stats.eaug_faults += 1;
        self.edmm_stats.eaug_cycles += eaug.raw();
        self.epc
            .insert(g, LoadOrigin::Demand)
            .expect("EAUG checked a free physical slot");
        self.set_bitmap(g, true);
        self.edmm_mark_committed(g);
        Some(t + self.costs.os_fault_path + eaug)
    }

    /// SIP: reads the shared presence bitmap for `local` (the
    /// `BIT_MAP_CHECK` of paper Fig. 5). The caller charges
    /// [`CostModel::bitmap_check`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn sip_present(&mut self, now: Cycles, pid: ProcessId, local: VirtPage) -> bool {
        let _ = self.global(pid, local); // range validation
        self.advance(now);
        self.flush_events();
        self.slot(pid).bitmap.is_present(local)
    }

    /// SIP: a blocking preload request from instrumented enclave code
    /// (`page_loadin_function` of paper Fig. 5). No AEX/ERESUME is paid;
    /// the caller charges [`CostModel::notify`]. Returns the completion
    /// instant.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn sip_load(&mut self, now: Cycles, pid: ProcessId, local: VirtPage) -> Cycles {
        let g = self.global(pid, local);
        let ten = self.tenant_of_pid(pid);
        self.advance(now);
        if self.epc.is_resident(g) {
            self.enclaves[ten].stats.sip_raced += 1;
            self.maybe_sample(now);
            self.flush_events();
            return now;
        }
        if matches!(self.in_flight, Some(f) if f.is_load_of(g)) {
            let f = self.in_flight.take().expect("matched above");
            let done = f.done_at;
            self.stall_from = Some(now);
            let st = &mut self.enclaves[ten].stats;
            st.sip_raced += 1;
            st.channel_wait += done.raw().saturating_sub(now.raw());
            self.apply_completion(f);
            self.stall_from = None;
            self.last_stall = Some((now, done.max(now)));
            self.maybe_sample(done.max(now));
            self.flush_events();
            return done.max(now);
        }
        self.stall_from = Some(now);
        let sspan = self.spans.next();
        let done = self.blocking_load(now, g, LoadOrigin::Sip, ten, Some(sspan));
        self.enclaves[ten].stats.sip_loads += 1;
        self.log(done, EventKind::SipLoaded, Some(g), None, sspan, None);
        self.stall_from = None;
        self.last_stall = Some((now, done));
        self.maybe_sample(done);
        self.flush_events();
        done
    }

    /// SIP early-notify placement: an *asynchronous* preload request issued
    /// ahead of the access (the hoisted variant of paper Fig. 4, which the
    /// paper deems hard because 44k cycles are difficult to hide). The
    /// application does not block; the kernel loads the page in background
    /// with priority over DFP speculation, and the request survives fault
    /// aborts (it is an explicit application demand, not a prediction).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn sip_prefetch(&mut self, now: Cycles, pid: ProcessId, local: VirtPage) {
        let g = self.global(pid, local);
        self.advance(now);
        if self.epc.is_resident(g)
            || self.sip_q.contains(g)
            || matches!(self.in_flight, Some(f) if f.is_load_of(g))
        {
            self.flush_events();
            return;
        }
        if self.sip_q.enqueue(g) {
            let ten = self.tenant_of_pid(pid);
            self.enclaves[ten].stats.sip_prefetches += 1;
        }
        // The request may start immediately if the channel is idle.
        self.advance(now);
        self.maybe_sample(now);
        self.flush_events();
    }

    #[inline]
    fn log(
        &mut self,
        at: Cycles,
        what: EventKind,
        page: Option<VirtPage>,
        value: Option<u64>,
        span: SpanId,
        parent: Option<SpanId>,
    ) {
        if self.sinks.is_empty() {
            return;
        }
        self.pending.push(LoggedEvent {
            at,
            what,
            page,
            value,
            span,
            parent,
        });
    }

    /// Delivers batched events to every sink, preserving the per-event
    /// sink order of unbatched delivery. Called at public entry-point
    /// boundaries and before any gauge sample, so each sink observes the
    /// exact `on_event`/`on_sample` interleaving of immediate delivery.
    fn flush_events(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        for event in &pending {
            for sink in &mut self.sinks {
                sink.on_event(event);
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Subscribes a streaming [`TraceSink`](crate::TraceSink): every
    /// subsequent paging event is delivered to it (and to any other
    /// subscribed sinks, in subscription order). With no subscribers the
    /// event path is a no-op — nothing is buffered.
    pub fn subscribe(&mut self, sink: Box<dyn crate::TraceSink>) {
        self.sinks.push(sink);
    }

    /// Chaos-injection telemetry, if an injector is installed. Kept apart
    /// from [`KernelStats`] so injection bookkeeping never disturbs the
    /// streamed-event reconciliation.
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.injector.as_ref().map(FaultInjector::stats)
    }

    /// Preload retries currently waiting out a chaos backoff.
    pub fn chaos_retry_queue_len(&self) -> usize {
        self.retry_q.len()
    }

    /// EDMM telemetry, if dynamic EPC sizing is configured. Kept apart
    /// from [`KernelStats`] so growth bookkeeping never disturbs the
    /// streamed-event reconciliation.
    pub fn edmm_stats(&self) -> Option<&EdmmStats> {
        self.edmm.map(|_| &self.edmm_stats)
    }

    /// Distinct pages ever committed for tenant `idx` (zero without EDMM
    /// or for an unknown index).
    pub fn edmm_committed(&self, idx: usize) -> u64 {
        self.committed.get(idx).copied().unwrap_or(0)
    }

    /// The kernel-wide ledger so far: every enclave's [`KernelStats`]
    /// summed.
    pub fn stats(&self) -> KernelStats {
        let mut s = KernelStats::default();
        for e in &self.enclaves {
            s.merge(&e.stats);
        }
        s
    }

    /// The EPC state (read-only).
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Pages currently waiting on the preload queues (global plus every
    /// per-tenant queue).
    pub fn preload_queue_len(&self) -> usize {
        self.preload_q.len() + self.per_q.iter().map(PreloadQueue::len).sum::<usize>()
    }

    /// The tenant-scheduling policy in effect ([`TenantPolicy::none`] when
    /// unconfigured).
    pub fn tenant_policy(&self) -> &TenantPolicy {
        &self.tenant_policy
    }

    /// Registered enclaves, in registration order (the tenant index
    /// space).
    pub fn tenant_count(&self) -> usize {
        self.enclaves.len()
    }

    /// Tenant index of `pid`'s enclave (resolving thread aliases), if
    /// registered.
    pub fn tenant_index(&self, pid: ProcessId) -> Option<usize> {
        self.pid_index.get(pid.0 as u64).map(|i| i as usize)
    }

    /// The ledger of tenant `idx` (registration order).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.tenant_count()`.
    pub fn tenant_stats(&self, idx: usize) -> &KernelStats {
        &self.enclaves[idx].stats
    }

    /// Tenant `idx`'s share of the event stream: the [`EventCounts`] a
    /// [`CountingSink`](crate::CountingSink) tallies from the events
    /// naming its pages, plus the two that name none — a kernel-global
    /// valve stop and the run end — which every enclave shares.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.tenant_count()`.
    pub fn tenant_events(&self, idx: usize) -> EventCounts {
        let s = &self.enclaves[idx].stats;
        EventCounts {
            faults: s.faults,
            demand_loads: s.demand_loads,
            preload_starts: s.preloads_started,
            preload_dones: s.preload_dones,
            background_evictions: s.background_evictions,
            foreground_evictions: s.foreground_evictions,
            preload_aborts: s.preloads_aborted,
            sip_loads: s.sip_loads,
            valve_stops: u64::from(self.preload_stopped),
            sip_prefetch_starts: s.sip_prefetches_started,
            faults_resolved: s.faults,
            preload_hits: s.preload_lead.count(),
            stream_predictions: s.stream_len.count(),
            run_ends: u64::from(self.finished),
        }
    }

    /// Whether the DFP-stop valve has fired.
    pub fn is_preload_stopped(&self) -> bool {
        self.preload_stopped
    }

    /// Ends the run at `now`: emits the terminal [`EventKind::RunEnd`]
    /// event (value = total cycles) exactly once — so stream consumers
    /// can tell a truncated trace from a complete one — plus a final
    /// gauge sample when time-series sampling is on. Idempotent.
    ///
    /// Deliberately does *not* run pending background work: trailing
    /// in-flight jobs stay unapplied, so finishing a run changes no
    /// statistic and observation never perturbs what it observes.
    pub fn finish(&mut self, now: Cycles) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.sample_every > 0 && !self.sinks.is_empty() {
            self.emit_sample(now);
        }
        let span = self.spans.next();
        self.log(now, EventKind::RunEnd, None, Some(now.raw()), span, None);
        self.flush_events();
    }

    /// Sets the gauge-sampling interval: one
    /// [`TraceSink::on_sample`](crate::TraceSink::on_sample) delivery per
    /// `every` simulated cycles, taken at the public entry points. `0`
    /// (the default) disables sampling.
    pub fn set_sample_interval(&mut self, every: u64) {
        self.sample_every = every;
    }

    /// Spans allocated so far (the raw id of the newest span).
    pub fn span_count(&self) -> u64 {
        self.spans.count()
    }

    /// Splits tenant `idx`'s run of `total` cycles into
    /// [`CycleAttribution`] buckets.
    ///
    /// The overhead buckets are the enclave's own ledger plus the
    /// unsettled work on its pages; `app_compute` is the residual, so the
    /// buckets always sum exactly to `total`. Its staged-but-untouched
    /// pages and a trailing in-flight load of its page count as wasted
    /// speculation. If bookkeeping ever over-bills (rare corner cases of
    /// the stall-overlap deduction), the excess is clipped from the
    /// most-speculative buckets first, preserving the invariant
    /// unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.tenant_count()`.
    pub fn tenant_attribution(&self, idx: usize, total: Cycles) -> CycleAttribution {
        let s = &self.enclaves[idx].stats;
        let mine = |page: VirtPage| self.owner(page) == idx;
        let (mut wasted, mut scan, mut evict) = (s.wasted_preload, s.clock_scan, s.eviction);
        for (slot, &span) in self.staged_span.iter().enumerate() {
            // A staged page is resident until touched or evicted.
            if span != 0 && self.epc.page_in_slot(slot as u32).is_some_and(mine) {
                wasted += self.staged_cost[slot];
            }
        }
        if let Some(f) = &self.in_flight {
            match f.job {
                Job::Load { page, .. } if mine(page) => wasted += f.billed,
                Job::Evict { owner } if owner == idx => {
                    let (stall, ewb) = f.evict_split();
                    scan += stall;
                    evict += ewb;
                }
                _ => {}
            }
        }
        let mut buckets = [
            wasted,
            s.preload_work,
            evict,
            scan,
            s.channel_wait,
            s.demand_fault,
            s.aex_eresume,
        ];
        let mut excess = buckets.iter().sum::<u64>().saturating_sub(total.raw());
        for b in &mut buckets {
            let cut = excess.min(*b);
            *b -= cut;
            excess -= cut;
        }
        let [wasted_preload, preload_work, eviction, clock_scan, channel_wait, demand_fault, aex_eresume] =
            buckets;
        let overhead = buckets.iter().sum::<u64>();
        CycleAttribution {
            app_compute: total.raw().saturating_sub(overhead),
            demand_fault,
            aex_eresume,
            channel_wait,
            preload_work,
            wasted_preload,
            clock_scan,
            eviction,
        }
    }

    /// Overlap of `[start, done]` with the previous app-stall window:
    /// channel cycles a lazily-dispatched job spent inside it are already
    /// billed to the stall buckets.
    fn past_stall_overlap(&self, start: Cycles, done: Cycles) -> u64 {
        match self.last_stall {
            Some((s, e)) => {
                let lo = start.max(s).raw();
                let hi = done.min(e).raw();
                hi.saturating_sub(lo)
            }
            None => 0,
        }
    }

    /// Deducts from the in-flight job's billed cost its overlap with the
    /// app-stall window `[from, to]` just ended (the job keeps running
    /// past the stall, so the completion-side deduction will not see it).
    fn absorb_inflight_overlap(&mut self, from: Cycles, to: Cycles) {
        if let Some(f) = &mut self.in_flight {
            let start = f.done_at.raw().saturating_sub(f.billed);
            let lo = start.max(from.raw());
            let hi = f.done_at.min(to).raw();
            f.billed -= f.billed.min(hi.saturating_sub(lo));
        }
    }

    /// Emits a gauge sample if sampling is on, a sink is listening, and
    /// at least one interval has elapsed since the last sample.
    fn maybe_sample(&mut self, now: Cycles) {
        if self.sample_every == 0 || self.sinks.is_empty() {
            return;
        }
        if now.raw().saturating_sub(self.last_sample_at.raw()) < self.sample_every {
            return;
        }
        self.emit_sample(now);
    }

    fn emit_sample(&mut self, now: Cycles) {
        self.flush_events();
        self.last_sample_at = now;
        let (mut faults, mut preloads_started) = (0, 0);
        for e in &self.enclaves {
            faults += e.stats.faults;
            preloads_started += e.stats.preloads_started;
        }
        let sample = GaugeSample {
            at: now,
            epc_resident: self.epc.resident_count(),
            epc_free: self.epc.free_slots(),
            queue_depth: self.preload_queue_len() as u64,
            sip_queue_depth: self.sip_q.len() as u64,
            live_streams: self.predictor.live_streams(),
            valve_stops: u64::from(self.preload_stopped),
            channel_busy: self.channel_busy,
            faults,
            preloads_started,
            scan_steps: self.epc.scan_steps_total(),
            tenant_resident: self.epc.residency_snapshot(),
        };
        for sink in &mut self.sinks {
            sink.on_sample(&sample);
        }
    }

    /// Load-channel utilization over `[0, now]`.
    pub fn channel_utilization(&self, now: Cycles) -> f64 {
        if now == Cycles::ZERO {
            0.0
        } else {
            self.channel_busy.raw() as f64 / now.raw() as f64
        }
    }

    /// Checks the internal invariant that every enclave's shared bitmap
    /// agrees with EPC residency. Used by tests and debug assertions.
    pub fn bitmap_consistent(&self) -> bool {
        for slot in &self.enclaves {
            for local in slot.bitmap.iter_present() {
                if !self.epc.is_resident(VirtPage::new(slot.base + local.raw())) {
                    return false;
                }
            }
        }
        // And the reverse: every resident page owned by an enclave is set.
        for page in self.epc.resident_pages() {
            if let Some((pid, local)) = self.owner_of(page) {
                if !self.slot(pid).bitmap.is_present(VirtPage::new(local)) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_dfp::{MultiStreamPredictor, NextLinePredictor, NoPredictor, StreamConfig};

    fn tiny_costs() -> CostModel {
        CostModel::paper_defaults()
            .with_aex(Cycles::new(10))
            .with_eldu(Cycles::new(100))
            .with_eresume(Cycles::new(10))
            .with_ewb(Cycles::new(20))
            .with_os_fault_path(Cycles::new(5))
            .with_bitmap_check(Cycles::new(1))
            .with_notify(Cycles::new(2))
    }

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    const PID: ProcessId = ProcessId(1);

    fn kernel_with(epc: u64, predictor: Box<dyn Predictor>) -> Kernel {
        let mut k = Kernel::new(KernelConfig::new(epc).with_costs(tiny_costs()), predictor);
        k.register_enclave(PID, 1 << 20).unwrap();
        k
    }

    #[test]
    fn cold_fault_pays_full_demand_path() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::new(1_000), PID, p(0));
        // aex 10 + os 5 + eldu 100 + eresume 10 = 125.
        assert_eq!(r.resume_at, Cycles::new(1_125));
        assert_eq!(r.kind, FaultServicing::DemandLoaded);
        assert_eq!(k.stats().faults, 1);
        assert_eq!(k.stats().demand_loads, 1);
        assert!(k.app_access(r.resume_at, PID, p(0)).is_some());
    }

    #[test]
    fn hit_after_load_is_free() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(7));
        let touch = k.app_access(r.resume_at, PID, p(7)).unwrap();
        assert!(touch.resident);
        assert!(!touch.first_touch_of_preload);
    }

    #[test]
    fn preload_runs_in_background_and_fault_waits_for_inflight() {
        // Next-line degree 1: the fault on page 0 queues page 1.
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        assert_eq!(r0.resume_at, Cycles::new(125));
        // The preload of page 1 starts when the channel frees (t=115) and
        // completes at 215. Faulting on page 1 right after resume waits.
        let r1 = k.page_fault(r0.resume_at, PID, p(1));
        assert_eq!(r1.kind, FaultServicing::WaitedForInflight);
        // done 215 + os 5 + eresume 10 = 230.
        assert_eq!(r1.resume_at, Cycles::new(230));
        assert_eq!(k.stats().preloads_started, 1);
        assert_eq!(k.stats().faults_waited_inflight, 1);
    }

    #[test]
    fn fault_after_preload_completion_finds_page_resident() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        // Preload of page 1 completes at 215; access it much later.
        let touch = k.app_access(Cycles::new(500), PID, p(1)).unwrap();
        assert!(touch.resident);
        assert!(touch.first_touch_of_preload, "preload accuracy counted");
        assert_eq!(k.epc().preloads_touched(), 1);
        let _ = r0;
    }

    #[test]
    fn racing_fault_during_aex_finds_resident() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        let _ = r0;
        // Preload of page 1 completes at 215. Fault raised at 210: by the
        // time the AEX finishes (220) the page is resident.
        let r1 = k.page_fault(Cycles::new(210), PID, p(1));
        assert_eq!(r1.kind, FaultServicing::FoundResident);
        // 210 + aex 10 + os 5 + eresume 10.
        assert_eq!(r1.resume_at, Cycles::new(235));
    }

    #[test]
    fn mispredicting_fault_aborts_queued_preloads() {
        // Degree 3: fault on 0 queues 1, 2, 3.
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(3)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        assert_eq!(k.preload_queue_len(), 3);
        // Fault on unrelated page 1000 while page 1 is mid-flight: pages 2
        // and 3 are aborted; page 1 (in flight, non-preemptible) completes.
        let r1 = k.page_fault(r0.resume_at, PID, p(1_000));
        assert_eq!(r1.kind, FaultServicing::DemandLoaded);
        assert_eq!(k.stats().preloads_aborted, 2);
        // Demand had to wait for the in-flight page-1 load (done at 215).
        // 215 + os already included: resume = max(135,215)... demand starts
        // after channel acquire: aex at 125→135; channel free 215; eldu 100
        // → done 315 (+ wait for os path before acquire).
        assert!(r1.resume_at > Cycles::new(315));
        // New prediction for 1001..1003 was queued after the abort.
        assert_eq!(k.preload_queue_len(), 3);
        // Page 1 still became resident (its load was not preempted). This
        // access also advances the channel, putting 1001 in flight.
        assert!(k.app_access(r1.resume_at, PID, p(1)).is_some());
        assert_eq!(k.preload_queue_len(), 2);
    }

    #[test]
    fn eviction_kicks_in_when_epc_full() {
        let mut k = kernel_with(4, Box::new(NoPredictor));
        let mut t = Cycles::ZERO;
        for n in 0..16 {
            let r = k.page_fault(t, PID, p(n));
            t = r.resume_at + Cycles::new(1);
        }
        assert_eq!(k.epc().resident_count() + k.epc().free_slots(), 4);
        let st = k.stats();
        assert!(
            st.background_evictions + st.foreground_evictions >= 12,
            "evictions: bg={} fg={}",
            st.background_evictions,
            st.foreground_evictions
        );
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn background_reclaimer_keeps_free_pool() {
        // Watermarks low=2, high=4 on an EPC of 16.
        let mut k = Kernel::new(
            KernelConfig::new(16)
                .with_costs(tiny_costs())
                .with_watermarks(Watermarks::new(2, 4, 16).unwrap()),
            Box::new(NoPredictor),
        );
        k.register_enclave(PID, 1 << 20).unwrap();
        let mut t = Cycles::ZERO;
        for n in 0..64 {
            let r = k.page_fault(t, PID, p(n));
            // Give the reclaimer idle channel time between faults.
            t = r.resume_at + Cycles::new(500);
        }
        assert!(k.stats().background_evictions > 0);
        // With generous idle time the demand path never pays the EWB.
        assert_eq!(k.stats().foreground_evictions, 0);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn dfp_stop_valve_halts_wasteful_preloading() {
        // Next-line on a scattered fault pattern: preloads never touched.
        let mut k = Kernel::new(
            KernelConfig::new(256)
                .with_costs(tiny_costs())
                .with_abort_policy(
                    AbortPolicy::paper_defaults()
                        .with_slack(5)
                        .with_check_interval(Cycles::new(1_000)),
                ),
            Box::new(NextLinePredictor::new(4)),
        );
        k.register_enclave(PID, 1 << 20).unwrap();
        let mut t = Cycles::ZERO;
        // Stride 100: predictions (n+1..n+4) are never accessed.
        for i in 0..200u64 {
            let r = k.page_fault(t, PID, p(i * 100));
            t = r.resume_at + Cycles::new(200);
        }
        assert!(k.is_preload_stopped(), "valve should have fired");
        let stopped_at = k.stats().dfp_stopped_at.expect("stop time recorded");
        assert!(stopped_at <= t);
        let started_at_stop = k.stats().preloads_started;
        // Further faults must not start new preloads.
        for i in 200..260u64 {
            let r = k.page_fault(t, PID, p(i * 100));
            t = r.resume_at + Cycles::new(200);
        }
        assert_eq!(k.stats().preloads_started, started_at_stop);
        assert_eq!(k.preload_queue_len(), 0);
    }

    #[test]
    fn plain_dfp_without_valve_never_stops() {
        let mut k = kernel_with(256, Box::new(NextLinePredictor::new(4)));
        let mut t = Cycles::ZERO;
        for i in 0..200u64 {
            let r = k.page_fault(t, PID, p(i * 100));
            t = r.resume_at + Cycles::new(200);
        }
        assert!(!k.is_preload_stopped());
        assert!(k.stats().dfp_stopped_at.is_none());
    }

    #[test]
    fn sip_load_skips_world_switch() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let done = k.sip_load(Cycles::new(1_000), PID, p(5));
        // No AEX/ERESUME: just the (idle) channel load.
        assert_eq!(done, Cycles::new(1_100));
        assert_eq!(k.stats().sip_loads, 1);
        assert_eq!(k.stats().faults, 0);
        assert!(k.sip_present(done, PID, p(5)));
    }

    #[test]
    fn sip_load_on_resident_page_is_instant() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        k.page_fault(Cycles::ZERO, PID, p(5));
        let done = k.sip_load(Cycles::new(500), PID, p(5));
        assert_eq!(done, Cycles::new(500));
        assert_eq!(k.stats().sip_raced, 1);
        assert_eq!(k.stats().sip_loads, 0);
    }

    #[test]
    fn sip_load_waits_for_matching_inflight_preload() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        // Page 1 preload in flight (115..215); SIP request for it at 130.
        let done = k.sip_load(r0.resume_at + Cycles::new(5), PID, p(1));
        assert_eq!(done, Cycles::new(215));
        assert_eq!(k.stats().sip_raced, 1);
    }

    #[test]
    fn bitmap_tracks_presence_through_sip_view() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        assert!(!k.sip_present(Cycles::ZERO, PID, p(9)));
        let r = k.page_fault(Cycles::ZERO, PID, p(9));
        assert!(k.sip_present(r.resume_at, PID, p(9)));
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn multi_enclave_streams_do_not_bleed() {
        let mut k = Kernel::new(
            KernelConfig::new(256).with_costs(tiny_costs()),
            Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
        );
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        // Enclave A faults sequentially at 10, 11 — a stream.
        let r = k.page_fault(Cycles::ZERO, a, p(10));
        let r = k.page_fault(r.resume_at, a, p(11));
        assert!(k.stats().preloads_enqueued > 0);
        // Enclave B faulting at its local 12 must not extend A's stream
        // (different pid and a guarded global range).
        let before = k.stats().preloads_enqueued;
        let _ = k.page_fault(r.resume_at, b, p(12));
        assert_eq!(k.stats().preloads_enqueued, before);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn threads_share_the_enclave_but_not_the_fault_history() {
        let mut k = Kernel::new(
            KernelConfig::new(256).with_costs(tiny_costs()),
            Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
        );
        let (owner, t2) = (ProcessId(1), ProcessId(2));
        k.register_enclave(owner, 1 << 16).unwrap();
        k.register_thread(owner, t2).unwrap();

        // Thread 2 faults a page; the owner thread then *hits* it — same
        // ELRANGE, same EPC residency.
        let r = k.page_fault(Cycles::ZERO, t2, p(500));
        assert!(k.app_access(r.resume_at, owner, p(500)).is_some());

        // Sequential faults interleaved across threads: each thread's
        // stream list sees only its own faults, so a cross-thread
        // successor does NOT extend the other thread's stream.
        let before = k.stats().preloads_enqueued;
        let r = k.page_fault(r.resume_at, owner, p(1_000));
        let r = k.page_fault(r.resume_at, t2, p(1_001)); // not owner's stream
        assert_eq!(k.stats().preloads_enqueued, before);
        // But the same thread continuing its own stream does predict.
        let _ = k.page_fault(r.resume_at, owner, p(1_001 + 9_000)); // miss, new stream
        let r2 = k.page_fault(Cycles::new(10_000_000), owner, p(1_000 + 1));
        let _ = r2;
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn thread_registration_errors() {
        let mut k = kernel_with(16, Box::new(NoPredictor));
        assert_eq!(
            k.register_thread(ProcessId(9), ProcessId(10)),
            Err(KernelError::UnknownOwner(ProcessId(9)))
        );
        k.register_thread(PID, ProcessId(10)).unwrap();
        assert_eq!(
            k.register_thread(PID, ProcessId(10)),
            Err(KernelError::DuplicateProcess(ProcessId(10)))
        );
        // A thread id cannot also become an enclave owner.
        assert_eq!(
            k.register_enclave(ProcessId(10), 16),
            Err(KernelError::DuplicateProcess(ProcessId(10)))
        );
        // Threads chain to the root owner.
        k.register_thread(ProcessId(10), ProcessId(11)).unwrap();
        let r = k.page_fault(Cycles::ZERO, ProcessId(11), p(3));
        assert!(k.app_access(r.resume_at, PID, p(3)).is_some());
        assert!(KernelError::UnknownOwner(ProcessId(9))
            .to_string()
            .contains("no enclave"));
    }

    #[test]
    fn register_errors() {
        let mut k = kernel_with(16, Box::new(NoPredictor));
        assert_eq!(
            k.register_enclave(PID, 10),
            Err(KernelError::DuplicateProcess(PID))
        );
        assert_eq!(
            k.register_enclave(ProcessId(9), 0),
            Err(KernelError::EmptyRange)
        );
        assert!(matches!(
            k.register_enclave(ProcessId(9), u64::MAX),
            Err(KernelError::RangeTooLarge { .. })
        ));
        assert!(KernelError::EmptyRange.to_string().contains("non-empty"));
    }

    #[test]
    #[should_panic(expected = "outside its")]
    fn out_of_elrange_access_panics() {
        let mut k = Kernel::new(
            KernelConfig::new(16).with_costs(tiny_costs()),
            Box::new(NoPredictor),
        );
        k.register_enclave(PID, 8).unwrap();
        let _ = k.page_fault(Cycles::ZERO, PID, p(8));
    }

    #[test]
    fn predictions_outside_elrange_are_rejected() {
        let mut k = Kernel::new(
            KernelConfig::new(64).with_costs(tiny_costs()),
            Box::new(NextLinePredictor::new(4)),
        );
        k.register_enclave(PID, 10).unwrap();
        // Faulting the last page predicts pages 10..13, all out of range.
        let _ = k.page_fault(Cycles::ZERO, PID, p(9));
        assert_eq!(k.stats().preloads_rejected_range, 4);
        assert_eq!(k.preload_queue_len(), 0);
    }

    #[test]
    fn trace_stream_captures_the_fig2_sequence() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        let _ = k.page_fault(r0.resume_at, PID, p(1)); // waits for in-flight
        let kinds: Vec<EventKind> = events.borrow().iter().map(|e| e.what).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Fault,           // page 0 faults
                EventKind::DemandLoaded,    // page 0 loaded
                EventKind::StreamPredicted, // page 1 predicted
                EventKind::FaultResolved,   // page 0's ERESUME
                EventKind::PreloadStart,    // page 1's preload starts
                EventKind::Fault,           // page 1 faults mid-preload
                EventKind::PreloadDone,     // the in-flight load satisfies it
                EventKind::PreloadHit,      // ...and is touched on arrival
                EventKind::StreamPredicted, // page 2 predicted
                EventKind::FaultResolved,   // page 1's ERESUME
            ],
            "got {:?}",
            events.borrow()
        );
        // The fault-resolved payload is the recorded service time.
        let resolved: Vec<u64> = events
            .borrow()
            .iter()
            .filter(|e| e.what == EventKind::FaultResolved)
            .map(|e| e.value.unwrap())
            .collect();
        assert_eq!(resolved.len(), 2);
        assert_eq!(
            resolved.iter().sum::<u64>() as u128,
            k.stats().fault_service.sum()
        );
        // The second fault's page arrived exactly at its touch: zero lead.
        let hit = events.borrow()[7];
        assert_eq!(hit.page, Some(p(1)));
        assert_eq!(hit.value, Some(0));
        assert_eq!(k.stats().preload_lead.count(), 1);
    }

    #[test]
    fn sinks_see_nothing_until_subscribed() {
        let mut k = kernel_with(16, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(0));
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        assert!(events.borrow().is_empty());
        let _ = k.page_fault(r.resume_at, PID, p(1));
        // Fault, DemandLoaded, FaultResolved (NoPredictor: no stream).
        assert_eq!(events.borrow().len(), 3);
    }

    #[test]
    fn counting_sink_matches_kernel_stats() {
        let mut k = kernel_with(8, Box::new(NextLinePredictor::new(3)));
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        let mut now = Cycles::ZERO;
        for i in 0..200u64 {
            let page = p(i % 24);
            if k.app_access(now, PID, page).is_none() {
                now = k.page_fault(now, PID, page).resume_at;
            }
            now += Cycles::new(50);
        }
        let c = counts.get();
        let s = k.stats();
        assert_eq!(c.faults, s.faults);
        assert_eq!(c.preload_aborts, s.preloads_aborted);
        assert_eq!(c.faults_resolved, s.faults);
        assert_eq!(c.demand_loads, s.demand_loads);
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.background_evictions, s.background_evictions);
        assert_eq!(c.foreground_evictions, s.foreground_evictions);
        assert_eq!(c.preload_hits, s.preload_lead.count());
        assert_eq!(c.stream_predictions, s.stream_len.count());
        assert_eq!(
            (c.background_evictions + c.foreground_evictions),
            s.evict_scan.count()
        );
        assert!(c.faults > 0 && c.preload_starts > 0, "workload too tame");
    }

    #[test]
    fn channel_utilization_accounting() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(0));
        // One 100-cycle load in 125 cycles of wall time.
        let u = k.channel_utilization(r.resume_at);
        assert!((u - 100.0 / 125.0).abs() < 1e-9, "utilization {u}");
        assert_eq!(k.channel_utilization(Cycles::ZERO), 0.0);
    }

    #[test]
    fn sip_prefetch_loads_in_background() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        k.sip_prefetch(Cycles::new(100), PID, p(5));
        assert_eq!(k.stats().sip_prefetches, 1);
        // Load runs 100..200; at 250 the page is resident, no fault paid.
        let touch = k.app_access(Cycles::new(250), PID, p(5));
        assert!(touch.is_some(), "prefetched page should be resident");
        assert_eq!(k.stats().sip_prefetches_started, 1);
        assert_eq!(k.stats().faults, 0);
    }

    #[test]
    fn sip_prefetch_survives_fault_abort() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        // Two prefetches queued; the first goes in flight immediately.
        k.sip_prefetch(Cycles::ZERO, PID, p(5));
        k.sip_prefetch(Cycles::ZERO, PID, p(6));
        // An unrelated fault aborts DFP predictions, not SIP requests.
        let r = k.page_fault(Cycles::new(1), PID, p(900));
        assert_eq!(k.stats().preloads_aborted, 0);
        // Eventually both prefetched pages arrive.
        let late = r.resume_at + Cycles::new(500);
        assert!(k.app_access(late, PID, p(5)).is_some());
        assert!(k.app_access(late, PID, p(6)).is_some());
    }

    #[test]
    fn sip_prefetch_dedupes_and_skips_resident() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(7));
        k.sip_prefetch(r.resume_at, PID, p(7)); // already resident
        assert_eq!(k.stats().sip_prefetches, 0);
        k.sip_prefetch(r.resume_at, PID, p(8));
        k.sip_prefetch(r.resume_at, PID, p(8)); // in flight already
        assert_eq!(k.stats().sip_prefetches, 1);
    }

    #[test]
    fn fault_on_inflight_sip_prefetch_waits() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        k.sip_prefetch(Cycles::ZERO, PID, p(5)); // in flight 0..100
        let r = k.page_fault(Cycles::new(10), PID, p(5));
        assert_eq!(r.kind, FaultServicing::WaitedForInflight);
        // done 100 + os 5 + eresume 10.
        assert_eq!(r.resume_at, Cycles::new(115));
    }

    #[test]
    fn duplicate_predictions_not_double_enqueued() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(4)));
        let r = k.page_fault(Cycles::ZERO, PID, p(0)); // queues 1..4
        let q0 = k.preload_queue_len();
        // Fault on page 2... wait, that's queued; it misses EPC and is not
        // in flight... it IS eventually. Use page 3 after 1 is in flight:
        // fault on 3 aborts the queue; then prediction 4..7 re-queued.
        let r2 = k.page_fault(r.resume_at, PID, p(3));
        let _ = (q0, r2);
        assert!(k.bitmap_consistent());
        // No duplicates: queue members unique by construction.
        assert!(k.preload_queue_len() <= 4);
    }

    fn chaos_kernel(epc: u64, predictor: Box<dyn Predictor>, sched: ChaosSchedule) -> Kernel {
        let mut cfg = KernelConfig::new(epc).with_costs(tiny_costs());
        cfg.chaos = Some(sched);
        let mut k = Kernel::new(cfg, predictor);
        k.register_enclave(PID, 1 << 20).unwrap();
        k
    }

    /// Drives `k` over a fixed strided access pattern and returns the
    /// final instant.
    fn drive(k: &mut Kernel, accesses: u64, stride: u64, span: u64) -> Cycles {
        let mut now = Cycles::ZERO;
        for i in 0..accesses {
            let page = p((i * stride) % span);
            if k.app_access(now, PID, page).is_none() {
                now = k.page_fault(now, PID, page).resume_at;
            }
            now += Cycles::new(50);
        }
        now
    }

    #[test]
    fn zero_chaos_schedule_is_bit_identical_to_no_injector() {
        let mut plain = kernel_with(16, Box::new(NextLinePredictor::new(3)));
        let mut chaos = chaos_kernel(
            16,
            Box::new(NextLinePredictor::new(3)),
            ChaosSchedule::none().with_seed(12345),
        );
        let end_a = drive(&mut plain, 300, 3, 64);
        let end_b = drive(&mut chaos, 300, 3, 64);
        assert_eq!(end_a, end_b, "zero schedule must not change timing");
        let (a, b) = (plain.stats(), chaos.stats());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.preloads_started, b.preloads_started);
        assert_eq!(a.preloads_aborted, b.preloads_aborted);
        assert_eq!(a.background_evictions, b.background_evictions);
        assert_eq!(a.foreground_evictions, b.foreground_evictions);
        assert_eq!(a.fault_service.sum(), b.fault_service.sum());
        assert_eq!(chaos.chaos_stats(), Some(&crate::ChaosStats::default()));
    }

    #[test]
    fn dropped_preloads_retry_with_backoff_then_abandon() {
        // Certain drop: every popped preload is dropped; two retries each.
        let sched = ChaosSchedule::none()
            .with_seed(1)
            .with_drop(1.0)
            .with_retry(2, Cycles::new(100));
        let mut k = chaos_kernel(64, Box::new(NextLinePredictor::new(1)), sched);
        let r = k.page_fault(Cycles::ZERO, PID, p(0)); // queues p1
                                                       // Idle time lets the drop → backoff → redrop cycle play out.
        assert!(k
            .app_access(r.resume_at + Cycles::new(5_000), PID, p(0))
            .is_some());
        assert_eq!(k.stats().preloads_started, 0, "every preload was dropped");
        let cs = *k.chaos_stats().unwrap();
        assert_eq!(cs.preloads_dropped, 3, "initial pop + two retries");
        assert_eq!(cs.retries_scheduled, 2);
        assert_eq!(cs.retries_abandoned, 1);
        assert_eq!(k.chaos_retry_queue_len(), 0);
        // The page is still loadable on demand — degradation, not loss.
        let r1 = k.page_fault(Cycles::new(10_000), PID, p(1));
        assert_eq!(r1.kind, FaultServicing::DemandLoaded);
    }

    #[test]
    fn forced_valve_flap_latches_like_the_real_valve() {
        let sched = ChaosSchedule::none().with_seed(2).with_valve_flap(1.0);
        let mut k = chaos_kernel(256, Box::new(NextLinePredictor::new(4)), sched);
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 100, 7, 4096);
        assert!(k.is_preload_stopped(), "first fault force-trips the valve");
        assert!(k.stats().dfp_stopped_at.is_some());
        assert_eq!(
            k.stats().preloads_started,
            0,
            "no preload survives the trip"
        );
        let c = counts.get();
        assert_eq!(c.valve_stops, 1, "the latch absorbs further flaps");
        assert_eq!(c.preload_starts, 0);
        assert_eq!(k.chaos_stats().unwrap().valve_trips, 1);
        // Stats reconcile with the stream under injection.
        assert_eq!(c.faults, k.stats().faults);
        assert_eq!(c.preload_aborts, k.stats().preloads_aborted);
    }

    #[test]
    fn epc_spike_withholds_usable_slots() {
        // Spike deeper than the EPC on every fault: the scheduler sees
        // zero usable slots and pays foreground evictions even though
        // real capacity is never full.
        let sched =
            ChaosSchedule::none()
                .with_seed(3)
                .with_epc_spike(1.0, 1 << 20, Cycles::new(1_000_000));
        let mut k = chaos_kernel(64, Box::new(NoPredictor), sched);
        let mut now = Cycles::ZERO;
        for i in 0..20 {
            now = k.page_fault(now, PID, p(i)).resume_at + Cycles::new(10);
        }
        let evictions = k.stats().background_evictions + k.stats().foreground_evictions;
        assert!(evictions > 0, "spike forces evictions");
        assert!(
            k.epc().resident_count() < k.epc().capacity(),
            "real EPC never filled"
        );
        assert!(k.chaos_stats().unwrap().epc_spikes > 0);
        assert!(k.bitmap_consistent());
        // Every faulted page still ended resident at its load: contents
        // were never lost, only time.
        assert_eq!(k.stats().faults, 20);
        assert_eq!(k.stats().demand_loads, 20);
    }

    #[test]
    fn delayed_preloads_complete_late_but_complete() {
        let sched = ChaosSchedule::none()
            .with_seed(4)
            .with_delay(1.0, Cycles::new(1_000));
        let mut k = chaos_kernel(64, Box::new(NextLinePredictor::new(1)), sched);
        let _ = k.page_fault(Cycles::ZERO, PID, p(0)); // preload p1 at 115
                                                       // Undelayed the preload lands at 215; delayed it lands at 1215.
        assert!(k.app_access(Cycles::new(500), PID, p(1)).is_none());
        let r = k.page_fault(Cycles::new(500), PID, p(1));
        assert_eq!(r.kind, FaultServicing::WaitedForInflight);
        assert_eq!(k.chaos_stats().unwrap().preloads_delayed, 1);
        assert!(k.app_access(r.resume_at, PID, p(1)).is_some());
    }

    #[test]
    fn scan_stalls_slow_evictions_without_losing_pages() {
        let sched = ChaosSchedule::none()
            .with_seed(5)
            .with_scan_stall(1.0, Cycles::new(500));
        let mut k = chaos_kernel(4, Box::new(NoPredictor), sched);
        drive(&mut k, 32, 1, 16);
        let cs = *k.chaos_stats().unwrap();
        assert!(cs.scan_stalls > 0, "every eviction stalls");
        assert_eq!(cs.stall_cycles, cs.scan_stalls * 500);
        assert_eq!(k.epc().resident_count() + k.epc().free_slots(), 4);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn spurious_storms_flow_through_the_normal_enqueue_filter() {
        let sched = ChaosSchedule::none().with_seed(6).with_spurious(1.0, 8);
        let mut k = chaos_kernel(256, Box::new(NoPredictor), sched);
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 60, 11, 4096);
        let cs = *k.chaos_stats().unwrap();
        assert!(cs.spurious_pages > 0, "storms fired");
        // Storm pages become ordinary queued preloads: started or aborted
        // or skipped, all reconciling with the event stream.
        let c = counts.get();
        let s = k.stats();
        assert!(s.preloads_enqueued > 0, "storm pages entered the queue");
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.preload_aborts, s.preloads_aborted);
        assert_eq!(c.faults, s.faults);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn heavy_chaos_preserves_accounting_and_terminates() {
        let mut k = chaos_kernel(
            32,
            Box::new(NextLinePredictor::new(4)),
            ChaosSchedule::heavy(77).with_valve_flap(0.01),
        );
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 500, 3, 128);
        let c = counts.get();
        let s = k.stats();
        assert_eq!(c.faults, s.faults);
        assert_eq!(c.faults_resolved, s.faults);
        assert_eq!(c.demand_loads, s.demand_loads);
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.preload_aborts, s.preloads_aborted);
        assert_eq!(c.background_evictions, s.background_evictions);
        assert_eq!(c.foreground_evictions, s.foreground_evictions);
        assert_eq!(c.valve_stops, u64::from(s.dfp_stopped_at.is_some()));
        assert!(k.chaos_stats().unwrap().total_injections() > 0);
        assert!(k.bitmap_consistent());
    }

    // ---- multi-tenant scheduling ----

    use sgx_epc::TenantQuota;

    fn tenant_kernel(epc: u64, predictor: Box<dyn Predictor>, policy: TenantPolicy) -> Kernel {
        let mut cfg = KernelConfig::new(epc).with_costs(tiny_costs());
        cfg.tenant = Some(policy);
        Kernel::new(cfg, predictor)
    }

    #[test]
    fn zero_tenant_policy_is_bit_identical_to_default() {
        let mut plain = kernel_with(16, Box::new(NextLinePredictor::new(3)));
        let mut tenanted = tenant_kernel(
            16,
            Box::new(NextLinePredictor::new(3)),
            TenantPolicy::none(),
        );
        tenanted.register_enclave(PID, 1 << 20).unwrap();
        let end_a = drive(&mut plain, 300, 3, 64);
        let end_b = drive(&mut tenanted, 300, 3, 64);
        assert_eq!(end_a, end_b, "zero policy must not change timing");
        let (a, b) = (plain.stats(), tenanted.stats());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.preloads_started, b.preloads_started);
        assert_eq!(a.preloads_aborted, b.preloads_aborted);
        assert_eq!(a.background_evictions, b.background_evictions);
        assert_eq!(a.foreground_evictions, b.foreground_evictions);
        assert_eq!(a.fault_service.sum(), b.fault_service.sum());
        // Telemetry is collected even with no policy.
        let ts = tenanted.tenant_stats(0);
        assert_eq!(ts.faults, b.faults);
        assert_eq!(ts.demand_loads, b.demand_loads);
        assert_eq!(ts.residency.count(), ts.faults);
        assert_eq!(tenanted.tenant_index(PID), Some(0));
        assert_eq!(tenanted.tenant_count(), 1);
    }

    #[test]
    fn drr_interleaves_preloads_and_scopes_demand_aborts() {
        let policy = TenantPolicy::none().with_weight(0, 1).with_weight(1, 1);
        let mut k = tenant_kernel(256, Box::new(NextLinePredictor::new(4)), policy);
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let ra = k.page_fault(Cycles::ZERO, a, p(0)); // queues a's 1..=4
                                                      // B's demand fault clears only B's (empty) queue: A's queued
                                                      // preloads survive a neighbour's miss.
        let _rb = k.page_fault(ra.resume_at + Cycles::new(1), b, p(0));
        assert_eq!(k.stats().preloads_aborted, 0);
        // Drain with idle time; starts must alternate A,B,A,B,…
        let _ = k.app_access(Cycles::new(1_000_000), a, p(0));
        let owners: Vec<u8> = events
            .borrow()
            .iter()
            .filter(|e| e.what == EventKind::PreloadStart)
            .map(|e| u8::from(e.page.unwrap().raw() >= (1 << 24)))
            .collect();
        assert_eq!(owners, vec![0, 1, 0, 1, 0, 1, 0, 1]);
        // B's demand fault waited for A's in-flight preload and billed it.
        assert!(k.tenant_stats(1).channel_wait_cycles.raw() > 0);
        assert_eq!(k.tenant_stats(0).faults, 1);
        assert_eq!(k.tenant_stats(1).faults, 1);
        assert_eq!(
            k.tenant_stats(0).preloads_started + k.tenant_stats(1).preloads_started,
            k.stats().preloads_started
        );
    }

    #[test]
    fn drr_weights_bias_the_preload_interleave() {
        let policy = TenantPolicy::none().with_weight(0, 2).with_weight(1, 1);
        let mut k = tenant_kernel(256, Box::new(NextLinePredictor::new(4)), policy);
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let ra = k.page_fault(Cycles::ZERO, a, p(0));
        let _rb = k.page_fault(ra.resume_at + Cycles::new(1), b, p(0));
        let _ = k.app_access(Cycles::new(1_000_000), a, p(0));
        let owners: Vec<u8> = events
            .borrow()
            .iter()
            .filter(|e| e.what == EventKind::PreloadStart)
            .map(|e| u8::from(e.page.unwrap().raw() >= (1 << 24)))
            .collect();
        // Weight 2:1 — A spends a two-pop quantum per turn.
        assert_eq!(owners, vec![0, 0, 1, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn admission_control_sheds_over_share_batches_under_pressure() {
        let policy = TenantPolicy::fair(2, 16);
        let mut cfg = KernelConfig::new(16)
            .with_costs(tiny_costs())
            .with_watermarks(Watermarks::new(4, 8, 16).unwrap());
        cfg.tenant = Some(policy);
        let mut k = Kernel::new(cfg, Box::new(NextLinePredictor::new(4)));
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        let mut now = Cycles::ZERO;
        for i in 0..40u64 {
            now = k.page_fault(now, a, p(i)).resume_at + Cycles::new(10);
        }
        assert!(
            k.tenant_stats(0).preloads_shed > 0,
            "over-share batches shed under pressure"
        );
        assert_eq!(k.tenant_stats(1).preloads_shed, 0);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn quota_aware_reclaim_prefers_the_over_share_tenant() {
        // A tiny EPC shared 12/4: A's soft share 4 is exceeded while B
        // stays within its own, so background reclaim should bleed A.
        let policy = TenantPolicy::none()
            .with_quota(0, TenantQuota { soft_pages: 4 })
            .with_quota(1, TenantQuota { soft_pages: 8 });
        let mut cfg = KernelConfig::new(16)
            .with_costs(tiny_costs())
            .with_watermarks(Watermarks::new(2, 4, 16).unwrap());
        cfg.tenant = Some(policy);
        let mut k = Kernel::new(cfg, Box::new(NoPredictor));
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        // B loads 4 pages (within share), then A churns far past its own.
        let mut now = Cycles::ZERO;
        for i in 0..4u64 {
            now = k.page_fault(now, b, p(i)).resume_at + Cycles::new(500);
        }
        for i in 0..32u64 {
            now = k.page_fault(now, a, p(i)).resume_at + Cycles::new(500);
        }
        let evicted_from_a =
            k.tenant_stats(0).background_evictions + k.tenant_stats(0).foreground_evictions;
        let evicted_from_b =
            k.tenant_stats(1).background_evictions + k.tenant_stats(1).foreground_evictions;
        assert!(
            evicted_from_a > evicted_from_b,
            "reclaim should prefer the over-quota tenant: a={evicted_from_a} b={evicted_from_b}"
        );
        assert_eq!(
            k.epc().tenant_resident(0) + k.epc().tenant_resident(1),
            k.epc().resident_count()
        );
        assert!(k.bitmap_consistent());
    }
}

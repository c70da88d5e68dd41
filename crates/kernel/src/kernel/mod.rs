//! The untrusted-OS paging model.
//!
//! One [`Kernel`] owns everything the paper's modified SGX driver owns:
//! the EPC residency state, the exclusive non-preemptible load channel,
//! the background watermark reclaimer (the driver's `ksgxswapd`), the DFP
//! predictor hook and preload worker with its abort path, the DFP-stop
//! safety valve, and the SIP shared presence bitmaps.
//!
//! Each decision has one owner: `arbiter` decides what the channel loads
//! next, `channel` runs it and evicts, `ledger` bills it, `edmm` grows
//! enclaves and `event` streams it all to sinks. This module keeps the
//! fault handler, SIP requests and enclave registration.
//!
//! ## Timing model
//!
//! The application thread drives simulated time: it calls in with the
//! current instant `now`, and the kernel *lazily advances* the load channel
//! to `now`, starting/completing any background work (evictions, preloads)
//! that would have run while the application was computing. All channel
//! jobs are serial and non-preemptible (paper §3.1/§5.6); a demand fault
//! that arrives mid-preload must wait for the in-flight page.

mod arbiter;
mod channel;
mod edmm;
mod event;
mod ledger;

use std::error::Error;
use std::fmt;

use sgx_dfp::{AbortPolicy, AbortValve, Predictor, ProcessId};
use sgx_epc::{
    CostModel, Epc, EpcSizing, LoadOrigin, PresenceBitmap, TouchOutcome, VictimPolicy, VirtPage,
};
use sgx_sim::{Cycles, FastMap};

pub use self::edmm::EdmmStats;
pub use self::event::{EventKind, LoggedEvent};
pub use self::ledger::KernelStats;
use self::{arbiter::Arbiter, channel::InFlight, edmm::Edmm, ledger::Ledger};
use crate::span::SpanAlloc;
use crate::{SpanId, TenantPolicy, TraceSink, Watermarks};

/// Virtual-page gap between consecutive enclaves' ELRANGEs, so that no
/// stream prediction can run off the end of one enclave into the next.
const ENCLAVE_GUARD_PAGES: u64 = 1 << 24;

/// Enclave bases are laid out at guard-page strides, so a global page's
/// enclave index is its page number shifted right by this.
const ENCLAVE_SHIFT: u32 = ENCLAVE_GUARD_PAGES.trailing_zeros();

/// A global page's enclave index and its page within that enclave, read
/// off the guard-stride layout. Only meaningful for a page inside a
/// registered ELRANGE, as every page the kernel inserts is.
#[inline]
fn locate(page: VirtPage) -> (usize, VirtPage) {
    let g = page.raw();
    (
        (g >> ENCLAVE_SHIFT) as usize,
        VirtPage::new(g & (ENCLAVE_GUARD_PAGES - 1)),
    )
}

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

/// One registered enclave, by registration order (the same index as the
/// EPC's tenant extents).
#[derive(Debug)]
struct EnclaveSlot {
    base: u64,
    pages: u64,
    bitmap: PresenceBitmap,
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
    /// the EPC's tenant extents and the ledger, and recoverable from any
    /// global page as `page >> ENCLAVE_SHIFT` because enclave `i`'s base is
    /// `i * ENCLAVE_GUARD_PAGES`. The tenant index *is* the enclave index.
    enclaves: Vec<EnclaveSlot>,
    /// Enclave-owner pid → index into `enclaves`.
    pid_index: FastMap,
    /// Threads aliasing another process's enclave (paper §3.1: fault
    /// history is collected *per thread*, so each thread gets its own
    /// ProcessId-keyed stream list while sharing the owner's ELRANGE).
    /// Keyed thread pid → owner pid.
    thread_owner: FastMap,
    predictor: Box<dyn Predictor>,
    valve: Option<AbortValve>,
    /// The DFP-stop latch, set by the valve.
    preload_stopped: bool,
    arbiter: Arbiter,
    in_flight: Option<InFlight>,
    channel_free_at: Cycles,
    channel_busy: Cycles,
    reclaiming: bool,
    bg_evicted_last: bool,
    ledger: Ledger,
    /// EDMM dynamic sizing, if configured; `None` is the SGX1 model.
    edmm: Option<Edmm>,
    /// Monotonic span-id allocator; ids are assigned whether or not any
    /// sink is subscribed, so observation never perturbs a run.
    spans: SpanAlloc,
    /// Scratch for predictor output, reused across faults.
    pred_buf: Vec<VirtPage>,
    sinks: Vec<Box<dyn TraceSink>>,
    /// Events batched since the last flush; delivered to every sink, in
    /// order, at public entry-point boundaries and before gauge samples,
    /// so sinks observe exactly the unbatched call sequence.
    pending: Vec<LoggedEvent>,
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
            .field("preload_queue_len", &self.preload_queue_len())
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
        Kernel {
            costs: cfg.costs,
            wm,
            epc: Epc::with_policy(cfg.epc_pages, cfg.victim_policy),
            enclaves: Vec::new(),
            pid_index: FastMap::new(),
            thread_owner: FastMap::new(),
            predictor,
            valve: cfg.abort_policy.map(AbortValve::new),
            preload_stopped: false,
            arbiter: Arbiter::new(cfg.tenant.unwrap_or_default()),
            in_flight: None,
            channel_free_at: Cycles::ZERO,
            channel_busy: Cycles::ZERO,
            reclaiming: false,
            bg_evicted_last: false,
            ledger: Ledger::new(cfg.epc_pages),
            edmm: cfg.edmm.map(|s| Edmm::new(s, cfg.epc_pages)),
            spans: SpanAlloc::default(),
            pred_buf: Vec::new(),
            sinks: Vec::new(),
            pending: Vec::new(),
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
        // Threads chain to the enclave-owning process.
        let owner = self
            .thread_owner
            .get(owner.0 as u64)
            .map_or(owner, |o| ProcessId(o as u32));
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
        let base = self.enclaves.len() as u64 * ENCLAVE_GUARD_PAGES;
        self.pid_index
            .insert(pid.0 as u64, self.enclaves.len() as u64);
        // Every enclave becomes an EPC tenant extent with its policy's
        // quota (the inert policy's is `TenantQuota::NONE`).
        let ten = self.epc.register_extent(VirtPage::new(base), pages);
        debug_assert_eq!(ten, self.enclaves.len(), "tenant index == enclave index");
        self.epc.set_quota(ten, self.arbiter.policy.quota(ten));
        self.enclaves.push(EnclaveSlot {
            base,
            pages,
            bitmap: PresenceBitmap::new(pages),
        });
        self.ledger.stats.push(KernelStats::default());
        self.arbiter.add_enclave();
        if let Some(e) = &mut self.edmm {
            e.add_enclave(pages);
        }
        Ok(())
    }

    /// The tenant index of `pid`'s enclave (resolving thread aliases) and
    /// the global page of its `local` page.
    #[inline]
    fn resolve(&self, pid: ProcessId, local: VirtPage) -> (usize, VirtPage) {
        let ten = self
            .tenant_index(pid)
            .unwrap_or_else(|| panic!("{pid} has no registered enclave"));
        let slot = &self.enclaves[ten];
        assert!(
            local.raw() < slot.pages,
            "{pid} accessed {local} outside its {}-page ELRANGE",
            slot.pages
        );
        (ten, VirtPage::new(slot.base + local.raw()))
    }

    /// The enclave (== tenant) index owning `page`, from the guard-stride
    /// base layout — no scan, no map probe.
    #[inline]
    fn enclave_of_page(&self, page: VirtPage) -> Option<usize> {
        let (idx, local) = locate(page);
        let slot = self.enclaves.get(idx)?;
        (local.raw() < slot.pages).then_some(idx)
    }

    /// The enclave billed for work on `page`: every page the kernel
    /// loads, queues or evicts lies inside a registered ELRANGE.
    #[inline]
    fn owner(&self, page: VirtPage) -> usize {
        self.enclave_of_page(page)
            .expect("kernel pages lie in a registered ELRANGE")
    }

    /// Publishes a page just inserted into the EPC: sets its SIP presence
    /// bit and, under EDMM, books its commit.
    #[inline]
    fn mark_resident(&mut self, page: VirtPage) {
        let (ten, local) = locate(page);
        self.enclaves[ten].bitmap.set_present(local);
        if let Some(e) = &mut self.edmm {
            e.commit(ten, local);
        }
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

    /// Latches the DFP stop: aborts the queues and records the stop, so
    /// the "once stopped, zero further preloads" invariant has a single
    /// owner. The latch names no enclave: each flushed page is billed to
    /// its owner, and every enclave records the stop.
    fn stop_preloading(&mut self, now: Cycles, cause: SpanId) {
        self.preload_stopped = true;
        let mut flushed = Vec::new();
        self.arbiter.abort_all(&mut flushed);
        for &(page, _) in &flushed {
            let owner = self.owner(page);
            self.ledger.stats[owner].preloads_aborted += 1;
        }
        let dropped = flushed.len() as u64;
        for s in &mut self.ledger.stats {
            s.dfp_stopped_at = Some(now);
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

    fn enqueue_predictions(&mut self, ten: usize, pred: &[VirtPage], batch: SpanId) {
        // Admission control: under memory pressure (free pool below the
        // reclaimer's low watermark) an enclave already above its soft
        // share may not queue more speculation — the whole batch is shed.
        if self.arbiter.policy.admission_control
            && self.epc.free_slots() < self.wm.low()
            && self.epc.over_soft_quota(ten)
        {
            self.ledger.stats[ten].preloads_shed += pred.len() as u64;
            return;
        }
        for &page in pred {
            if self.enclave_of_page(page) != Some(ten) {
                self.ledger.stats[ten].preloads_rejected_range += 1;
                continue;
            }
            if self.epc.is_resident(page)
                || self.arbiter.queued(page)
                || matches!(self.in_flight, Some(f) if f.is_load_of(page))
            {
                continue;
            }
            // The batch tags the node for lineage.
            if self.arbiter.enqueue(page, batch.raw()) {
                self.ledger.stats[ten].preloads_enqueued += 1;
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
        let (_, g) = self.resolve(pid, local);
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
        let (ten, g) = self.resolve(pid, local);
        let t = now + self.costs.aex;
        self.begin_stall(now);
        self.advance(t);
        let resident_now = self.epc.tenant_resident(ten);
        let st = &mut self.ledger.stats[ten];
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
            .and_then(|s| self.ledger.staged(s as usize))
            .or(match &self.in_flight {
                Some(f) if f.is_load_of(g) => Some(f.span),
                _ => None,
            });
        self.log(now, EventKind::Fault, Some(g), None, fspan, cause);
        self.valve_check(t, fspan);

        let (kind, handler_done) = if self.epc.is_resident(g) {
            self.ledger.stats[ten].faults_found_resident += 1;
            self.touch_tracked(t, g);
            (FaultServicing::FoundResident, t + self.costs.os_fault_path)
        } else if matches!(self.in_flight, Some(f) if f.is_load_of(g)) {
            self.ledger.stats[ten].faults_waited_inflight += 1;
            let done = self.await_inflight(t, ten);
            self.touch_tracked(done, g);
            (
                FaultServicing::WaitedForInflight,
                done + self.costs.os_fault_path,
            )
        } else {
            // EDMM growth EAUGs the page inside the handler: no channel
            // job, no ELDU and no preload abort (growth never contends
            // with the preload pipeline). Otherwise the demand load aborts
            // the queued preloads it cancels.
            let done = match self.try_eaug_grow(t, ten, g) {
                Some(done) => done,
                None => {
                    let (dropped, batch) = self.arbiter.abort_for(ten);
                    if dropped > 0 {
                        let aspan = self.spans.next();
                        let parent = Some(SpanId::new(batch));
                        let value = Some(dropped);
                        self.log(t, EventKind::PreloadAbort, Some(g), value, aspan, parent);
                    }
                    self.ledger.stats[ten].preloads_aborted += dropped;
                    let from = t + self.costs.os_fault_path;
                    self.blocking_load(from, g, LoadOrigin::Demand, ten, fspan)
                }
            };
            self.ledger.stats[ten].demand_loads += 1;
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
            if !pred.is_empty() {
                let predicted = pred.len() as u64;
                self.ledger.stats[ten]
                    .stream_len
                    .record(Cycles::new(predicted));
                let batch = self.spans.next();
                self.log(
                    t,
                    EventKind::StreamPredicted,
                    Some(g),
                    Some(predicted),
                    batch,
                    Some(fspan),
                );
                self.enqueue_predictions(ten, &pred, batch);
            }
            self.pred_buf = pred;
        }

        let resume_at = handler_done + self.costs.eresume;
        let service = resume_at - now;
        self.ledger.stats[ten].fault_service.record(service);
        self.log(
            resume_at,
            EventKind::FaultResolved,
            Some(g),
            Some(service.raw()),
            fspan,
            cause,
        );
        self.end_stall(now, resume_at);
        self.maybe_sample(resume_at);
        self.flush_events();
        FaultResolution { resume_at, kind }
    }

    /// SIP: reads the shared presence bitmap for `local` (the
    /// `BIT_MAP_CHECK` of paper Fig. 5). The caller charges
    /// [`CostModel::bitmap_check`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is unregistered or `local` lies outside its ELRANGE.
    pub fn sip_present(&mut self, now: Cycles, pid: ProcessId, local: VirtPage) -> bool {
        let (ten, _) = self.resolve(pid, local);
        self.advance(now);
        self.flush_events();
        self.enclaves[ten].bitmap.is_present(local)
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
        let (ten, g) = self.resolve(pid, local);
        self.advance(now);
        if self.epc.is_resident(g) {
            self.ledger.stats[ten].sip_raced += 1;
            self.maybe_sample(now);
            self.flush_events();
            return now;
        }
        self.begin_stall(now);
        let done = if matches!(self.in_flight, Some(f) if f.is_load_of(g)) {
            self.ledger.stats[ten].sip_raced += 1;
            self.await_inflight(now, ten)
        } else {
            let sspan = self.spans.next();
            let done = self.blocking_load(now, g, LoadOrigin::Sip, ten, sspan);
            self.ledger.stats[ten].sip_loads += 1;
            self.log(done, EventKind::SipLoaded, Some(g), None, sspan, None);
            done
        };
        self.end_stall(now, done);
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
        let (ten, g) = self.resolve(pid, local);
        self.advance(now);
        if self.epc.is_resident(g)
            || self.arbiter.sip.contains(g)
            || matches!(self.in_flight, Some(f) if f.is_load_of(g))
        {
            self.flush_events();
            return;
        }
        if self.arbiter.sip.enqueue(g) {
            self.ledger.stats[ten].sip_prefetches += 1;
        }
        // The request may start immediately if the channel is idle.
        self.advance(now);
        self.maybe_sample(now);
        self.flush_events();
    }

    /// The EPC state (read-only).
    pub fn epc(&self) -> &Epc {
        &self.epc
    }

    /// The cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Pages currently waiting on the preload queues.
    pub fn preload_queue_len(&self) -> usize {
        self.arbiter.queued_len()
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

    /// Whether the DFP-stop valve has fired.
    pub fn is_preload_stopped(&self) -> bool {
        self.preload_stopped
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
        self.epc.resident_pages().into_iter().all(|page| {
            let (idx, local) = locate(page);
            self.enclave_of_page(page).is_none() || self.enclaves[idx].bitmap.is_present(local)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! Helpers and imports shared by every kernel test module.

    pub(crate) use super::*;
    pub(crate) use crate::Watermarks;
    pub(crate) use sgx_dfp::{
        MultiStreamPredictor, NextLinePredictor, NoPredictor, Predictor, StreamConfig,
    };
    pub(crate) use sgx_epc::TenantQuota;

    pub(crate) fn tiny_costs() -> CostModel {
        CostModel::paper_defaults()
            .with_aex(Cycles::new(10))
            .with_eldu(Cycles::new(100))
            .with_eresume(Cycles::new(10))
            .with_ewb(Cycles::new(20))
            .with_os_fault_path(Cycles::new(5))
            .with_bitmap_check(Cycles::new(1))
            .with_notify(Cycles::new(2))
    }

    pub(crate) fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    pub(crate) const PID: ProcessId = ProcessId(1);

    pub(crate) fn kernel_with(epc: u64, predictor: Box<dyn Predictor>) -> Kernel {
        let mut k = Kernel::new(KernelConfig::new(epc).with_costs(tiny_costs()), predictor);
        k.register_enclave(PID, 1 << 20).unwrap();
        k
    }

    pub(crate) fn tenant_kernel(
        epc: u64,
        predictor: Box<dyn Predictor>,
        policy: TenantPolicy,
    ) -> Kernel {
        let mut cfg = KernelConfig::new(epc).with_costs(tiny_costs());
        cfg.tenant = Some(policy);
        Kernel::new(cfg, predictor)
    }

    /// Drives `k` over a fixed strided access pattern and returns the
    /// final instant.
    pub(crate) fn drive(k: &mut Kernel, accesses: u64, stride: u64, span: u64) -> Cycles {
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
}

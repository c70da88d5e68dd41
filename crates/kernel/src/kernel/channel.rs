//! The exclusive, non-preemptible EPC load channel: lazy advance through
//! background work (reclaim, preloads), blocking loads for stalled
//! requesters, job completion, and eviction.

use sgx_epc::{LoadOrigin, VirtPage};
use sgx_sim::Cycles;

use super::edmm::Edmm;
use super::{locate, EventKind, Kernel};
use crate::chaos::Chaos;
use crate::SpanId;

#[derive(Debug, Clone, Copy)]
pub(super) enum Job {
    /// A background ELDU; the page becomes resident at completion.
    Load { page: VirtPage, origin: LoadOrigin },
    /// A background EWB; state already changed at start, this only holds
    /// the channel. `owner` is the victim's enclave, billed its cycles.
    Evict { owner: usize },
}

#[derive(Debug, Clone, Copy)]
pub(super) struct InFlight {
    pub(super) job: Job,
    pub(super) done_at: Cycles,
    /// The span opened at job start (its completion event closes it).
    pub(super) span: SpanId,
    /// The prediction-batch span that queued this load, if any.
    parent: Option<SpanId>,
    /// Channel cycles attributable to this job as *background* work:
    /// starts at the job's cost and is reduced by any overlap with app
    /// stalls (those cycles are already billed to the stall buckets).
    pub(super) billed: u64,
    /// The chaos scan-stall portion of an eviction's cost, so the billed
    /// remainder splits between `clock_scan` and `eviction`.
    scan_extra: u64,
}

impl InFlight {
    #[inline]
    pub(super) fn is_load_of(&self, page: VirtPage) -> bool {
        matches!(self.job, Job::Load { page: p, .. } if p == page)
    }

    /// An eviction's billed cycles as `(clock_scan, eviction)`.
    pub(super) fn evict_split(&self) -> (u64, u64) {
        let scan = self.billed.min(self.scan_extra);
        (scan, self.billed - scan)
    }
}

impl Kernel {
    /// Lazily runs background channel work (reclaim, preloads) up to `now`.
    pub(super) fn advance(&mut self, now: Cycles) {
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
            self.release_retries(t);
            let free = self.usable_free_slots(t);
            if self.wm.start_reclaim(free) && !self.edmm.as_ref().is_some_and(Edmm::defers_reclaim)
            {
                self.reclaiming = true;
            }
            if !self.wm.keep_reclaiming(free) {
                self.reclaiming = false;
            }
            let want_preload = self.arbiter.has_work(self.preload_stopped);
            // The reclaimer (ksgxswapd) and the preload worker are separate
            // kernel threads contending for the channel; when both have
            // work they alternate, except that a full EPC forces an evict
            // (a preload cannot insert without a free slot).
            let must_evict = want_preload && free == 0;
            let fair_evict =
                self.reclaiming && !(want_preload && free > 0 && !self.bg_evicted_last);
            if (must_evict || fair_evict) && self.epc.resident_count() > 0 {
                let (owner, span, stall) = self.evict(t, EventKind::EvictBackground, None);
                self.ledger.stats[owner].background_evictions += 1;
                self.bg_evicted_last = true;
                let done = t + self.costs.ewb + stall;
                self.in_flight = Some(InFlight {
                    job: Job::Evict { owner },
                    done_at: done,
                    span,
                    parent: None,
                    billed: self.dispatch_billed(t, done),
                    scan_extra: stall.raw(),
                });
                continue;
            }
            if want_preload {
                let (page, batch, origin) = self.arbiter.next().expect("the arbiter has work");
                let owner = self.owner(page);
                if self.epc.is_resident(page) {
                    let st = &mut self.ledger.stats[owner];
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
                let preload = matches!(origin, LoadOrigin::Preload);
                if preload
                    && self
                        .chaos
                        .as_mut()
                        .is_some_and(|c| c.drop_preload(t, page, batch))
                {
                    continue;
                }
                let span = self.spans.next();
                let mut eldu = self.costs.eldu;
                let parent = if preload {
                    if let Some(c) = &mut self.chaos {
                        c.forget(page);
                        eldu += c.injector.delay_preload().unwrap_or(Cycles::ZERO);
                    }
                    self.ledger.stats[owner].preloads_started += 1;
                    let parent = (batch != 0).then(|| SpanId::new(batch));
                    self.log(t, EventKind::PreloadStart, Some(page), None, span, parent);
                    parent
                } else {
                    self.ledger.stats[owner].sip_prefetches_started += 1;
                    self.log(t, EventKind::SipPrefetchStart, Some(page), None, span, None);
                    None
                };
                self.bg_evicted_last = false;
                self.channel_busy += eldu;
                let done = t + eldu;
                self.in_flight = Some(InFlight {
                    job: Job::Load { page, origin },
                    done_at: done,
                    span,
                    parent,
                    billed: self.dispatch_billed(t, done),
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
                .chaos
                .as_ref()
                .and_then(Chaos::next_retry)
                .filter(|&nb| nb > t && nb <= now)
            {
                self.channel_free_at = next;
                continue;
            }
            break;
        }
    }

    /// Re-queues dropped preloads whose backoff has expired. Retries
    /// respect the valve latch: once preloading stops, every pending retry
    /// is discarded, due or not, rather than re-queued.
    fn release_retries(&mut self, t: Cycles) {
        let Some(chaos) = &mut self.chaos else {
            return;
        };
        let (epc, arbiter, in_flight) = (&self.epc, &mut self.arbiter, self.in_flight);
        let stopped = self.preload_stopped;
        // Re-entry is not a new enqueue for the stats: the page was
        // already accounted for when first predicted, and it carries the
        // original batch tag so lineage survives the backoff.
        chaos.release(t, stopped, |page, batch| {
            !(stopped
                || epc.is_resident(page)
                || arbiter.queued(page)
                || matches!(in_flight, Some(f) if f.is_load_of(page)))
                && arbiter.enqueue(page, batch)
        });
    }

    /// Free EPC slots as the scheduler sees them: real free slots minus any
    /// pages withheld by an active chaos pressure spike. Real capacity is
    /// untouched — a load that reaches the channel always has a slot.
    #[inline]
    pub(super) fn usable_free_slots(&self, t: Cycles) -> u64 {
        let free = self.epc.free_slots();
        self.chaos.as_ref().map_or(free, |c| c.usable(free, t))
    }

    /// Waits from `from` for the in-flight load a blocked `requester`
    /// asked for (non-preemptible), billing the wait; returns when the
    /// page is resident.
    pub(super) fn await_inflight(&mut self, from: Cycles, requester: usize) -> Cycles {
        let f = self
            .in_flight
            .take()
            .expect("a load of the page is in flight");
        self.ledger.stats[requester].channel_wait += f.done_at.raw().saturating_sub(from.raw());
        self.apply_completion(f);
        f.done_at.max(from)
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
    pub(super) fn blocking_load(
        &mut self,
        from: Cycles,
        page: VirtPage,
        origin: LoadOrigin,
        requester: usize,
        cause: SpanId,
    ) -> Cycles {
        let mut t = self.channel_acquire(from);
        let st = &mut self.ledger.stats[requester];
        st.channel_wait += t.raw() - from.raw();
        if matches!(origin, LoadOrigin::Demand) {
            st.channel_wait_cycles += t - from;
        }
        if self.usable_free_slots(t) == 0 && self.epc.resident_count() > 0 {
            let (victim, _, stall) = self.evict(t, EventKind::EvictForeground, Some(cause));
            self.ledger.stats[victim].foreground_evictions += 1;
            let st = &mut self.ledger.stats[requester];
            st.clock_scan += stall.raw();
            st.eviction += self.costs.ewb.raw();
            t += self.costs.ewb + stall;
        }
        let done = t + self.costs.eldu;
        self.channel_free_at = done;
        self.channel_busy += self.costs.eldu;
        self.ledger.stats[requester].demand_fault += self.costs.eldu.raw();
        // A chaos pressure spike only shrinks the scheduler's view of the
        // free pool, never real capacity, so a slot is always available
        // here (freed above, or hidden-but-real).
        self.epc
            .insert(page, origin)
            .expect("a real free slot exists");
        self.mark_resident(page);
        done
    }

    /// Applies the state change of a completed channel job and frees the
    /// channel at its completion time. When the completion lands inside an
    /// app stall, the overlap is deducted from the job's billed background
    /// cost — those cycles are already billed to the stall buckets.
    pub(super) fn apply_completion(&mut self, mut f: InFlight) {
        self.channel_free_at = f.done_at;
        self.deduct_stall(&mut f);
        match f.job {
            Job::Load { page, origin } => {
                let slot = self
                    .epc
                    .insert(page, origin)
                    .expect("background load started with a free slot reserved")
                    as usize;
                self.mark_resident(page);
                self.stage(slot, page, &f, matches!(origin, LoadOrigin::Preload));
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
                let st = &mut self.ledger.stats[owner];
                st.clock_scan += scan;
                st.eviction += ewb;
            }
        }
    }

    /// Evicts the replacement policy's victim now (state change at job
    /// start) for the reclaimer or, parented by `cause`, inside a blocking
    /// load. Logs it as `kind`, settles the victim's staging and bills the
    /// channel its EWB. Returns the victim's enclave, the eviction's span
    /// and any chaos scan stall, which lengthens the job.
    fn evict(
        &mut self,
        t: Cycles,
        kind: EventKind,
        cause: Option<SpanId>,
    ) -> (usize, SpanId, Cycles) {
        let ev = self
            .epc
            .evict_victim()
            .expect("eviction requested on empty EPC");
        let (owner, local) = locate(ev.page);
        self.enclaves[owner].bitmap.clear_present(local);
        self.settle_eviction(ev.slot as usize, owner, ev.scanned);
        let span = self.spans.next();
        self.log(t, kind, Some(ev.page), Some(ev.scanned), span, cause);
        let stall = self
            .chaos
            .as_mut()
            .and_then(|c| c.injector.scan_stall())
            .unwrap_or(Cycles::ZERO);
        self.channel_busy += self.costs.ewb + stall;
        (owner, span, stall)
    }

    /// Load-channel utilization over `[0, now]`.
    pub fn channel_utilization(&self, now: Cycles) -> f64 {
        if now == Cycles::ZERO {
            0.0
        } else {
            self.channel_busy.raw() as f64 / now.raw() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::tests::*;

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
    fn channel_utilization_accounting() {
        let mut k = kernel_with(64, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(0));
        // One 100-cycle load in 125 cycles of wall time.
        let u = k.channel_utilization(r.resume_at);
        assert!((u - 100.0 / 125.0).abs() < 1e-9, "utilization {u}");
        assert_eq!(k.channel_utilization(Cycles::ZERO), 0.0);
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

//! The exclusive, non-preemptible EPC load channel: lazy advance through
//! background work (reclaim, preloads), blocking loads for stalled
//! requesters, job completion, and eviction.

use sgx_epc::{LoadOrigin, VirtPage};
use sgx_sim::Cycles;

use super::edmm::Edmm;
use super::{locate, EventKind, Kernel};
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
}

impl InFlight {
    #[inline]
    pub(super) fn is_load_of(&self, page: VirtPage) -> bool {
        matches!(self.job, Job::Load { page: p, .. } if p == page)
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
            let free = self.epc.free_slots();
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
                let (owner, span) = self.evict(t, EventKind::EvictBackground, None);
                self.ledger.stats[owner].background_evictions += 1;
                self.bg_evicted_last = true;
                let done = t + self.costs.ewb;
                self.in_flight = Some(InFlight {
                    job: Job::Evict { owner },
                    done_at: done,
                    span,
                    parent: None,
                    billed: self.dispatch_billed(t, done),
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
                let span = self.spans.next();
                let parent = if matches!(origin, LoadOrigin::Preload) {
                    self.ledger.stats[owner].preloads_started += 1;
                    let parent = Some(SpanId::new(batch));
                    self.log(t, EventKind::PreloadStart, Some(page), None, span, parent);
                    parent
                } else {
                    self.ledger.stats[owner].sip_prefetches_started += 1;
                    self.log(t, EventKind::SipPrefetchStart, Some(page), None, span, None);
                    None
                };
                self.bg_evicted_last = false;
                self.channel_busy += self.costs.eldu;
                let done = t + self.costs.eldu;
                self.in_flight = Some(InFlight {
                    job: Job::Load { page, origin },
                    done_at: done,
                    span,
                    parent,
                    billed: self.dispatch_billed(t, done),
                });
                continue;
            }
            break;
        }
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
        if self.epc.free_slots() == 0 && self.epc.resident_count() > 0 {
            let (victim, _) = self.evict(t, EventKind::EvictForeground, Some(cause));
            self.ledger.stats[victim].foreground_evictions += 1;
            self.ledger.stats[requester].eviction += self.costs.ewb.raw();
            t += self.costs.ewb;
        }
        let done = t + self.costs.eldu;
        self.channel_free_at = done;
        self.channel_busy += self.costs.eldu;
        self.ledger.stats[requester].demand_fault += self.costs.eldu.raw();
        // Either a slot was free or the eviction above freed one.
        self.epc.insert(page, origin).expect("a free slot exists");
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
            Job::Evict { owner } => self.ledger.stats[owner].eviction += f.billed,
        }
    }

    /// Evicts the replacement policy's victim now (state change at job
    /// start) for the reclaimer or, parented by `cause`, inside a blocking
    /// load. Logs it as `kind`, settles the victim's staging and bills the
    /// channel its EWB. Returns the victim's enclave and the eviction's
    /// span.
    fn evict(&mut self, t: Cycles, kind: EventKind, cause: Option<SpanId>) -> (usize, SpanId) {
        let ev = self
            .epc
            .evict_victim()
            .expect("eviction requested on empty EPC");
        let (owner, local) = locate(ev.page);
        self.enclaves[owner].bitmap.clear_present(local);
        self.settle_eviction(ev.slot as usize, owner, ev.scanned);
        let span = self.spans.next();
        self.log(t, kind, Some(ev.page), Some(ev.scanned), span, cause);
        self.channel_busy += self.costs.ewb;
        (owner, span)
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

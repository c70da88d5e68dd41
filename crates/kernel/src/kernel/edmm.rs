//! EDMM-style dynamic EPC sizing: first-touch faults grow the enclave by
//! EAUG inside the fault handler until its committed-page budget runs out,
//! and the background reclaimer stays parked until then.

use sgx_epc::{EpcSizing, LoadOrigin, PresenceBitmap, VirtPage};
use sgx_sim::Cycles;

use super::channel::Job;
use super::{locate, Kernel};

/// EDMM telemetry, exposed via [`Kernel::edmm_stats`] when dynamic EPC
/// sizing is configured. Kept apart from [`KernelStats`](crate::KernelStats)
/// so the streamed-event reconciliation — kernel counters versus
/// sink-reconstructed event counts — is untouched by the growth
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

/// The per-enclave committed-page budget.
#[derive(Debug)]
pub(super) struct Edmm {
    /// The resolved per-enclave committed-page ceiling.
    ceiling: u64,
    /// Per-enclave "ever resident" bitmaps (registration order): a set
    /// bit means the page was committed at some point, so a refault goes
    /// through the swap path, not EAUG.
    ever: Vec<PresenceBitmap>,
    /// Distinct pages ever committed per enclave (the budget's
    /// consumption; never decreases while the enclave lives).
    committed: Vec<u64>,
    /// Latched once any enclave reaches the ceiling: from then on the
    /// background reclaimer behaves exactly as in the SGX1 model.
    at_ceiling: bool,
    stats: EdmmStats,
}

impl Edmm {
    pub(super) fn new(sizing: EpcSizing, epc_pages: u64) -> Self {
        Edmm {
            ceiling: sizing.ceiling_pages(epc_pages),
            ever: Vec::new(),
            committed: Vec::new(),
            at_ceiling: false,
            stats: EdmmStats::default(),
        }
    }

    pub(super) fn add_enclave(&mut self, pages: u64) {
        self.ever.push(PresenceBitmap::new(pages));
        self.committed.push(0);
    }

    /// Books an EPC insert of enclave `ten`'s page `local`: the first time
    /// a page becomes resident it consumes one unit of the budget, whatever
    /// path loaded it (EAUG growth, demand swap-in, DFP preload, SIP
    /// prefetch) — so a preloaded-then-evicted page refaults through the
    /// swap path, never through a second EAUG.
    pub(super) fn commit(&mut self, ten: usize, local: VirtPage) {
        if !self.ever[ten].is_present(local) {
            self.ever[ten].set_present(local);
            self.committed[ten] += 1;
            self.stats.committed_peak = self.stats.committed_peak.max(self.committed[ten]);
            if self.committed[ten] >= self.ceiling {
                self.at_ceiling = true;
            }
        }
    }

    /// Grow-before-evict: while every enclave is still below its ceiling,
    /// the background reclaimer stays parked — free-pool pressure is
    /// expected (the EPC is filling with committed pages) and background
    /// eviction would only manufacture refaults.
    pub(super) fn defers_reclaim(&self) -> bool {
        !self.at_ceiling
    }

    /// Whether a fault on enclave `ten`'s page `local` grows by EAUG: only
    /// a never-committed page below the ceiling, with a physical slot
    /// free, grows. Books the growth, or a denial at the ceiling.
    fn grow(&mut self, ten: usize, local: VirtPage, slot_free: bool, eaug: Cycles) -> bool {
        if self.ever[ten].is_present(local) {
            // Evicted-and-refaulted pages reload their content from swap;
            // EDMM only covers first-touch growth.
            return false;
        }
        if self.committed[ten] >= self.ceiling {
            self.stats.denied_at_ceiling += 1;
            return false;
        }
        if slot_free {
            self.stats.eaug_faults += 1;
            self.stats.eaug_cycles += eaug.raw();
        }
        slot_free
    }
}

impl Kernel {
    /// Attempts to service a missing-page fault by EDMM growth: if the
    /// page was never committed, the enclave is below its ceiling, and a
    /// physical slot is free, the OS EAUGs a fresh page into the faulting
    /// address and the enclave EACCEPTs it — entirely inside the fault
    /// handler, without touching the load channel. Returns the
    /// handler-done instant, or `None` when the classic swap path must run
    /// instead.
    pub(super) fn try_eaug_grow(&mut self, t: Cycles, ten: usize, g: VirtPage) -> Option<Cycles> {
        // EAUG bypasses the load channel, so it must not consume the slot
        // an in-flight background load will insert into at completion.
        let reserved =
            matches!(self.in_flight, Some(f) if matches!(f.job, Job::Load { .. })) as u64;
        let slot_free = self.epc.free_slots() > reserved;
        let eaug = self.costs.eaug;
        if !self.edmm.as_mut()?.grow(ten, locate(g).1, slot_free, eaug) {
            return None;
        }
        self.ledger.stats[ten].demand_fault += eaug.raw();
        self.epc
            .insert(g, LoadOrigin::Demand)
            .expect("EAUG checked a free physical slot");
        self.mark_resident(g);
        Some(t + self.costs.os_fault_path + eaug)
    }

    /// EDMM telemetry, if dynamic EPC sizing is configured. Kept apart
    /// from [`KernelStats`](crate::KernelStats) so growth bookkeeping
    /// never disturbs the streamed-event reconciliation.
    pub fn edmm_stats(&self) -> Option<&EdmmStats> {
        self.edmm.as_ref().map(|e| &e.stats)
    }

    /// Distinct pages ever committed for tenant `idx` (zero without EDMM
    /// or for an unknown index).
    pub fn edmm_committed(&self, idx: usize) -> u64 {
        self.edmm
            .as_ref()
            .and_then(|e| e.committed.get(idx).copied())
            .unwrap_or(0)
    }
}

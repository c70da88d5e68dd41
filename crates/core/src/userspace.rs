//! The user-level paging comparator (Eleos / CoSMIX class, paper §6).
//!
//! The paper's main competitors avoid enclave page faults entirely: a
//! runtime *inside* the enclave instruments every memory access, keeps a
//! software page table (with a software TLB to cheapen the common case),
//! and swaps pages between an EPC-resident cache and encrypted untrusted
//! memory with ordinary loads/stores — no AEX, no EWB/ELDU, no world
//! switch. The trade-offs the paper holds against this design:
//!
//! * every access pays an instrumentation check (CoSMIX reports this is
//!   why they need the software TLB);
//! * the swap code re-implements the EPC crypto in software, losing the
//!   hardware's confidentiality/integrity/freshness guarantees;
//! * the runtime + its page table live in the enclave, growing the TCB
//!   and eating EPC.
//!
//! This module implements that design faithfully enough to reproduce the
//! performance side of the comparison (the `comparison_userspace` bench);
//! the security/TCB side is qualitative and documented here and in
//! EXPERIMENTS.md.

use sgx_epc::{Epc, LoadOrigin, VictimPolicy};
use sgx_sim::Cycles;
use sgx_workloads::AccessIter;

use crate::{RunReport, Scheme};

/// Cost model of the in-enclave paging runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserPagingConfig {
    /// Pages of EPC the runtime's cache manages (its share of the 96 MiB,
    /// minus what the runtime itself occupies).
    pub cache_pages: u64,
    /// Software-TLB hit: the instrumented check on every executed access.
    pub check_hit: Cycles,
    /// Software-TLB miss (page still cached): walk the software table.
    pub check_miss: Cycles,
    /// Swap a page in: copy 4 KiB from untrusted memory + AES-GCM decrypt.
    pub swap_in: Cycles,
    /// Swap a page out: encrypt + copy out (paid when evicting dirty
    /// pages; this model treats all pages as dirty, as Eleos' write-back
    /// cache does for its working sets).
    pub swap_out: Cycles,
    /// Fraction of accesses that hit the software TLB when the page is
    /// cached (Eleos reports high hit rates; misses walk the table).
    pub stlb_hit_rate: f64,
}

impl UserPagingConfig {
    /// Defaults calibrated to the published Eleos/CoSMIX figures: checks
    /// of a few tens of cycles with a software TLB, ≈8k-cycle software
    /// swaps (4 KiB AES-GCM at ~1.5 cycles/byte plus two copies) versus
    /// the hardware's ≈64k-cycle fault.
    pub fn defaults_for(epc_pages: u64) -> Self {
        UserPagingConfig {
            // The runtime, its page table and the sTLB cost ~5% of EPC.
            cache_pages: (epc_pages * 95 / 100).max(1),
            check_hit: Cycles::new(30),
            check_miss: Cycles::new(220),
            swap_in: Cycles::new(8_000),
            swap_out: Cycles::new(8_000),
            stlb_hit_rate: 0.95,
        }
    }

    /// Overrides the cache size.
    pub fn with_cache_pages(mut self, pages: u64) -> Self {
        self.cache_pages = pages;
        self
    }

    /// Overrides the per-access check costs.
    pub fn with_check(mut self, hit: Cycles, miss: Cycles) -> Self {
        self.check_hit = hit;
        self.check_miss = miss;
        self
    }

    /// Overrides the swap costs.
    pub fn with_swap(mut self, swap_in: Cycles, swap_out: Cycles) -> Self {
        self.swap_in = swap_in;
        self.swap_out = swap_out;
        self
    }
}

/// Runs a workload under the user-level paging runtime.
///
/// Deterministic: the software-TLB hit/miss choice is derived from the
/// access stream itself (page number parity hashing), not an RNG.
///
/// # Panics
///
/// Panics if `cfg.cache_pages == 0`.
pub fn run_userspace_paging(
    label: impl Into<String>,
    workload: AccessIter,
    cfg: &UserPagingConfig,
) -> RunReport {
    assert!(cfg.cache_pages > 0, "cache must hold at least one page");
    let mut cache = Epc::with_policy(cfg.cache_pages, VictimPolicy::Lru);
    let mut now = Cycles::ZERO;
    let mut accesses = 0u64;
    let mut executions = 0u64;
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut swap_outs = 0u64;

    // Deterministic sTLB model: a hash of (page, executions) lands below
    // the hit-rate threshold.
    let threshold = (cfg.stlb_hit_rate.clamp(0.0, 1.0) * u32::MAX as f64) as u32;

    for a in workload {
        now += a.compute;
        accesses += 1;
        executions += a.repeats as u64;
        // Every executed access is instrumented.
        for k in 0..a.repeats as u64 {
            let h = (a.page.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (executions + k))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9) as u32;
            now += if h < threshold {
                cfg.check_hit
            } else {
                cfg.check_miss
            };
        }
        if cache.touch(a.page).resident {
            hits += 1;
        } else {
            misses += 1;
            if cache.free_slots() == 0 {
                cache.evict_victim().expect("cache non-empty when full");
                now += cfg.swap_out;
                swap_outs += 1;
            }
            now += cfg.swap_in;
            cache
                .insert(a.page, LoadOrigin::Demand)
                .expect("slot freed above");
        }
    }

    RunReport {
        label: label.into(),
        scheme: Scheme::UserLevel,
        total_cycles: now,
        accesses,
        executions,
        epc_hits: hits,
        faults: misses, // software "page faults": swaps, not AEX events
        sip_checks: executions,
        foreground_evictions: swap_outs,
        fault_service_mean: match (swap_outs * cfg.swap_out.raw()).checked_div(misses) {
            None => Cycles::ZERO,
            Some(amortized_ewb) => cfg.swap_in + Cycles::new(amortized_ewb),
        },
        // The runtime's swaps are its only paging overhead; the per-access
        // checks are instrumentation compiled into the application.
        attribution: {
            let swaps = misses * cfg.swap_in.raw() + swap_outs * cfg.swap_out.raw();
            sgx_kernel::CycleAttribution {
                app_compute: now.raw().saturating_sub(swaps),
                demand_fault: swaps.min(now.raw()),
                ..Default::default()
            }
        },
        ..RunReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_epc::VirtPage;
    use sgx_workloads::{Access, SiteId};

    fn stream(pages: &[u64], compute: u64) -> AccessIter {
        let v: Vec<Access> = pages
            .iter()
            .map(|&p| Access::new(VirtPage::new(p), Cycles::new(compute), SiteId(0)))
            .collect();
        Box::new(v.into_iter())
    }

    fn cfg(cache: u64) -> UserPagingConfig {
        UserPagingConfig::defaults_for(cache)
            .with_cache_pages(cache)
            .with_check(Cycles::new(10), Cycles::new(100))
            .with_swap(Cycles::new(1_000), Cycles::new(1_000))
    }

    #[test]
    fn all_hits_cost_only_checks_and_compute() {
        let mut c = cfg(8);
        c.stlb_hit_rate = 1.0;
        let r = run_userspace_paging("t", stream(&[1, 2, 1, 2, 1, 2], 50), &c);
        // Two cold misses (swap-in only: cache not full), four hits.
        assert_eq!(r.faults, 2);
        assert_eq!(r.epc_hits, 4);
        assert_eq!(r.total_cycles, Cycles::new(6 * 50 + 6 * 10 + 2 * 1_000));
    }

    #[test]
    fn capacity_misses_pay_swap_out_and_in() {
        let mut c = cfg(2);
        c.stlb_hit_rate = 1.0;
        // Cycle over 3 pages with a 2-page cache: everything misses after
        // warmup (LRU on a cyclic pattern).
        let r = run_userspace_paging("t", stream(&[1, 2, 3, 1, 2, 3], 0), &c);
        assert_eq!(r.faults, 6);
        assert_eq!(r.foreground_evictions, 4, "swap-outs after the cache fills");
        assert_eq!(r.total_cycles, Cycles::new(6 * 10 + 6 * 1_000 + 4 * 1_000));
    }

    #[test]
    fn stlb_misses_make_checks_dearer() {
        let mut all_hit = cfg(64);
        all_hit.stlb_hit_rate = 1.0;
        let mut all_miss = cfg(64);
        all_miss.stlb_hit_rate = 0.0;
        let pages: Vec<u64> = (0..64).collect();
        let fast = run_userspace_paging("t", stream(&pages, 0), &all_hit);
        let slow = run_userspace_paging("t", stream(&pages, 0), &all_miss);
        assert_eq!(
            slow.total_cycles - fast.total_cycles,
            Cycles::new(64 * (100 - 10))
        );
    }

    #[test]
    fn deterministic() {
        let c = UserPagingConfig::defaults_for(512);
        let pages: Vec<u64> = (0..1_000).map(|i| (i * i * 13) % 2_048).collect();
        let a = run_userspace_paging("t", stream(&pages, 100), &c);
        let b = run_userspace_paging("t", stream(&pages, 100), &c);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.faults, b.faults);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_cache_rejected() {
        let c = UserPagingConfig::defaults_for(16).with_cache_pages(0);
        let _ = run_userspace_paging("t", stream(&[1], 0), &c);
    }
}

//! EDMM dynamic-EPC invariants (DESIGN.md §7).
//!
//! The grow-before-evict contract: while every enclave is below its
//! committed-page ceiling the background reclaimer stays parked and
//! first-touch faults are serviced by EAUG instead of the swap path;
//! every EAUG cycle lands in the demand-fault attribution bucket and the
//! books still sum to the run total; the streamed event counts still
//! reconcile with `KernelStats` under growth; and configurations that do
//! not opt into EDMM are bit-identical to a kernel that has never heard
//! of it.

use sgx_preloading::epc::EpcSizing;
use sgx_preloading::kernel::{Kernel, KernelConfig, Watermarks};
use sgx_preloading::{
    Benchmark, CountingSink, Cycles, NoPredictor, ProcessId, Scale, Scheme, SimConfig, SimRun,
    VirtPage,
};

const DIVERSE: [Benchmark; 4] = [
    Benchmark::KvStore,
    Benchmark::PhaseShift,
    Benchmark::GraphFrontier,
    Benchmark::MlInference,
];

/// A small kernel whose watermarks force the baseline reclaimer to work:
/// 64 EPC pages, reclaim starts below 16 free and runs until 32.
fn small_kernel(edmm: Option<EpcSizing>) -> Kernel {
    let mut cfg = KernelConfig::new(64)
        .with_watermarks(Watermarks::new(16, 32, 64).expect("low < high <= capacity"));
    if let Some(sizing) = edmm {
        cfg = cfg.with_edmm(sizing);
    }
    Kernel::new(cfg, Box::new(NoPredictor))
}

/// Faults every page of `[0, pages)` in order and returns the clock.
fn touch_all(kernel: &mut Kernel, pages: u64) -> Cycles {
    let pid = ProcessId(0);
    let mut now = Cycles::ZERO;
    for p in 0..pages {
        let g = VirtPage::new(p);
        if kernel.app_access(now, pid, g).is_none() {
            now = kernel.page_fault(now, pid, g).resume_at;
        }
    }
    now
}

#[test]
fn no_evictions_below_the_ceiling_where_baseline_reclaims() {
    // 60 pages into a 64-page EPC: the baseline crosses the 16-free
    // watermark and starts evicting; EDMM stays below its physical
    // ceiling, so the reclaimer never wakes and every fault is an EAUG.
    let mut base = small_kernel(None);
    base.register_enclave(ProcessId(0), 60).unwrap();
    touch_all(&mut base, 60);
    assert!(
        base.stats().background_evictions > 0,
        "the baseline watermark reclaimer must have worked"
    );
    assert!(
        base.edmm_stats().is_none(),
        "no EDMM telemetry without EDMM"
    );

    let mut edmm = small_kernel(Some(EpcSizing::physical()));
    edmm.register_enclave(ProcessId(0), 60).unwrap();
    touch_all(&mut edmm, 60);
    assert_eq!(
        edmm.stats().background_evictions,
        0,
        "reclaimer stays parked"
    );
    assert_eq!(edmm.stats().foreground_evictions, 0);
    let stats = *edmm.edmm_stats().expect("EDMM telemetry present");
    assert_eq!(stats.eaug_faults, 60, "every first touch grows");
    assert_eq!(stats.denied_at_ceiling, 0);
    assert_eq!(stats.committed_peak, 60);
    assert_eq!(edmm.edmm_committed(0), 60);
    assert_eq!(edmm.stats().demand_loads, 60, "EAUGs count as demand loads");
}

#[test]
fn growth_stops_at_the_configured_ceiling_and_swap_takes_over() {
    let mut k = small_kernel(Some(EpcSizing::physical().with_ceiling(16)));
    k.register_enclave(ProcessId(0), 60).unwrap();
    touch_all(&mut k, 60);
    let stats = *k.edmm_stats().unwrap();
    assert_eq!(stats.eaug_faults, 16, "exactly the ceiling grows by EAUG");
    assert_eq!(
        stats.denied_at_ceiling, 44,
        "each remaining first touch is denied exactly once"
    );
    // Once at the ceiling the classic watermark reclaimer resumes.
    assert!(
        k.stats().background_evictions > 0,
        "swap-based reclamation must take over at the ceiling"
    );
    assert_eq!(stats.eaug_cycles, 16 * k.costs().eaug.raw());
}

#[test]
fn zero_ceiling_disables_growth_and_matches_costs() {
    let mut k = small_kernel(Some(EpcSizing::physical().with_ceiling(0)));
    k.register_enclave(ProcessId(0), 60).unwrap();
    touch_all(&mut k, 60);
    let stats = *k.edmm_stats().unwrap();
    assert_eq!(stats.eaug_faults, 0);
    assert_eq!(stats.eaug_cycles, 0);
    assert!(stats.denied_at_ceiling >= 60, "every first touch is denied");
}

#[test]
fn refaults_after_eviction_reload_from_swap_not_eaug() {
    // Ceiling 16 on a 64-page EPC with an 80-page walk done twice: the
    // second pass refaults evicted pages, and none of those refaults may
    // EAUG again — growth is first-touch only.
    let mut k = Kernel::new(
        KernelConfig::new(24)
            .with_watermarks(Watermarks::new(4, 8, 24).unwrap())
            .with_edmm(EpcSizing::physical().with_ceiling(16)),
        Box::new(NoPredictor),
    );
    k.register_enclave(ProcessId(0), 80).unwrap();
    let pid = ProcessId(0);
    let mut now = Cycles::ZERO;
    for _ in 0..2 {
        for p in 0..80 {
            let g = VirtPage::new(p);
            if k.app_access(now, pid, g).is_none() {
                now = k.page_fault(now, pid, g).resume_at;
            }
        }
    }
    let stats = *k.edmm_stats().unwrap();
    assert_eq!(stats.eaug_faults, 16, "EAUG never fires twice for a page");
    assert_eq!(k.edmm_committed(0), 80, "all 80 pages were resident once");
    assert_eq!(stats.committed_peak, 80);
}

#[test]
fn eaug_cycles_land_in_demand_fault_attribution_and_books_sum() {
    let mut k = small_kernel(Some(EpcSizing::physical()));
    k.register_enclave(ProcessId(0), 60).unwrap();
    let end = touch_all(&mut k, 60);
    let stats = *k.edmm_stats().unwrap();
    assert!(stats.eaug_cycles > 0);
    let attr = k.tenant_attribution(0, end);
    assert!(
        attr.demand_fault >= stats.eaug_cycles,
        "EAUG is billed to the demand-fault bucket"
    );
    assert_eq!(attr.total(), end.raw(), "books must sum to the run total");
}

#[test]
fn edmm_scheme_attribution_reconciles_on_every_diversity_family() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    for bench in DIVERSE {
        for scheme in [Scheme::Edmm, Scheme::EdmmDfpStop] {
            let r = SimRun::new(&cfg)
                .scheme(scheme)
                .bench(bench)
                .run_one()
                .unwrap();
            assert_eq!(
                r.attribution.total(),
                r.total_cycles.raw(),
                "{}/{}: attribution must sum to total",
                bench.name(),
                scheme.name()
            );
        }
    }
}

#[test]
fn stream_counts_reconcile_with_kernel_stats_under_edmm() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    for scheme in [Scheme::Edmm, Scheme::EdmmDfpStop] {
        for bench in DIVERSE {
            let (sink, counts) = CountingSink::new();
            let r = SimRun::new(&cfg)
                .scheme(scheme)
                .bench(bench)
                .sink(Box::new(sink))
                .run_one()
                .unwrap();
            let ev = counts.get();
            let ctx = format!("{}/{}", bench.name(), scheme.name());
            assert_eq!(ev.faults, r.faults, "{ctx}: faults");
            assert_eq!(ev.faults_resolved, r.faults, "{ctx}: every fault resolves");
            assert_eq!(
                ev.background_evictions, r.background_evictions,
                "{ctx}: background evictions"
            );
            assert_eq!(
                ev.foreground_evictions, r.foreground_evictions,
                "{ctx}: foreground evictions"
            );
            assert!(
                ev.demand_loads <= ev.faults,
                "{ctx}: demand loads (EAUG included) are a subset of faults"
            );
        }
    }
}

#[test]
fn non_edmm_schemes_ignore_the_sizing_knob_bit_identically() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    let capped = cfg.with_epc_sizing(EpcSizing::physical().with_ceiling(8));
    for scheme in [Scheme::Baseline, Scheme::DfpStop, Scheme::Hybrid] {
        for bench in [Benchmark::KvStore, Benchmark::Lbm] {
            let plain = SimRun::new(&cfg)
                .scheme(scheme)
                .bench(bench)
                .run_one()
                .unwrap();
            let knobbed = SimRun::new(&capped)
                .scheme(scheme)
                .bench(bench)
                .run_one()
                .unwrap();
            let (mut a, mut b) = (String::new(), String::new());
            plain.write_json(&mut a);
            knobbed.write_json(&mut b);
            assert_eq!(
                a,
                b,
                "{}/{}: sizing must be inert off the edmm schemes",
                bench.name(),
                scheme.name()
            );
        }
    }
}

#[test]
fn edmm_beats_baseline_on_a_growth_friendly_family() {
    // Growth-friendly provisioning: EPC doubled so the kvstore footprint
    // nearly fits. The static watermark reclaimer still evicts eagerly;
    // EDMM defers reclaim until the committed budget is exhausted.
    let base_cfg = SimConfig::at_scale(Scale::new(32));
    let cfg = base_cfg.with_epc_pages(base_cfg.epc_pages * 2);
    let base = SimRun::new(&cfg)
        .scheme(Scheme::Baseline)
        .bench(Benchmark::KvStore)
        .run_one()
        .unwrap();
    let edmm = SimRun::new(&cfg)
        .scheme(Scheme::Edmm)
        .bench(Benchmark::KvStore)
        .run_one()
        .unwrap();
    let both = SimRun::new(&cfg)
        .scheme(Scheme::EdmmDfpStop)
        .bench(Benchmark::KvStore)
        .run_one()
        .unwrap();
    assert!(
        edmm.background_evictions + edmm.foreground_evictions
            < base.background_evictions + base.foreground_evictions,
        "growth must replace evictions: edmm {}+{} vs baseline {}+{}",
        edmm.background_evictions,
        edmm.foreground_evictions,
        base.background_evictions,
        base.foreground_evictions
    );
    assert!(
        both.total_cycles < edmm.total_cycles,
        "composing DFP-stop on top must pay for itself: {} vs {}",
        both.total_cycles,
        edmm.total_cycles
    );
}

//! Acceptance bar for the multi-tenant EPC scheduling layer (DESIGN.md
//! §4.2). A sequential victim resweeps a working set that fits inside its
//! 1:1 share while a mixed-blood aggressor streams far past its own.
//! Unpartitioned, global CLOCK evicts the victim's set between sweeps;
//! under `TenantPolicy::fair` the quota-aware reclaimer takes pages from
//! the over-share aggressor instead. The bounds pinned here are the
//! regression contract behind the `fairness_isolation` figure
//! (`crates/bench/src/figures.rs`).

use sgx_preloading::prelude::*;
use sgx_preloading::workloads::{AccessIter, PageRange, SequentialScan, SiteRange};

fn cfg() -> SimConfig {
    SimConfig::at_scale(Scale::new(32))
}

/// The victim resweeps 40% of the EPC — comfortably inside a 1:1 soft
/// share (50%) — slowly enough that its pages cool between sweeps.
fn victim(c: &SimConfig) -> AppSpec {
    let fp = c.epc_pages * 2 / 5;
    let workload: AccessIter = Box::new(SequentialScan::new(
        PageRange::first(fp),
        40,
        Cycles::new(20_000),
        SiteRange::single(0),
    ));
    AppSpec::new("victim", fp, workload)
        .build()
        .expect("non-empty ELRANGE")
}

fn aggressor(c: &SimConfig) -> AppSpec {
    let bench = Benchmark::MixedBlood;
    AppSpec::new(
        "aggressor",
        bench.elrange_pages(c.scale),
        bench.build(InputSet::Ref, c.scale, c.seed + 1),
    )
    .build()
    .expect("non-empty ELRANGE")
}

/// Weights 1:1: the victim's fault cycles and channel wait stay inside
/// pinned bounds of its solo run, while the over-share aggressor absorbs
/// the eviction and admission pressure.
#[test]
fn fair_policy_pins_victim_interference_to_its_solo_run() {
    let c = cfg();
    let scheme = Scheme::Dfp;
    let solo = SimRun::new(&c)
        .scheme(scheme)
        .app(victim(&c))
        .run_one()
        .expect("solo victim");
    let shared = SimRun::new(&c)
        .scheme(scheme)
        .apps(vec![victim(&c), aggressor(&c)])
        .run()
        .expect("unpartitioned pair");
    let fc = c.with_tenant_policy(TenantPolicy::fair(2, c.epc_pages));
    let fair = SimRun::new(&fc)
        .scheme(scheme)
        .apps(vec![victim(&fc), aggressor(&fc)])
        .run()
        .expect("fair pair");

    // The problem exists: unpartitioned, the aggressor evicts the victim's
    // working set between sweeps and the victim re-faults on it.
    assert!(
        shared[0].faults > solo.faults,
        "unpartitioned victim re-faults ({} vs {} solo)",
        shared[0].faults,
        solo.faults
    );

    // Quota-aware reclamation restores the victim's set exactly: cold
    // faults only, as in the solo run.
    assert_eq!(
        fair[0].faults, solo.faults,
        "fair 1:1 keeps the victim at its cold-fault minimum"
    );

    // Pinned bound on fault cycles: within 8% of solo (measured 5.3%).
    assert!(
        fair[0].total_cycles.raw() * 100 <= solo.total_cycles.raw() * 108,
        "victim fault cycles {} exceed the pinned 1.08x of solo {}",
        fair[0].total_cycles,
        solo.total_cycles
    );
    assert!(
        fair[0].total_cycles <= shared[0].total_cycles,
        "the policy never leaves the victim worse than unpartitioned"
    );

    // Pinned bound on channel wait: at most 1% of the solo run's cycles
    // (measured 0.36%); solo waits are zero, so the bound is absolute.
    assert_eq!(solo.channel_wait_cycles, Cycles::ZERO, "solo never queues");
    assert!(
        fair[0].channel_wait_cycles.raw() <= solo.total_cycles.raw() / 100,
        "victim channel wait {} exceeds the pinned bound",
        fair[0].channel_wait_cycles
    );

    // The pressure lands on the over-share tenant: admission control sheds
    // only aggressor speculation, and its residency is clamped to the soft
    // share while the unpartitioned run let it take the whole EPC.
    assert_eq!(fair[0].preloads_shed, 0, "victim speculation is never shed");
    assert!(fair[1].preloads_shed > 0, "aggressor speculation is shed");
    let soft = c.epc_pages / 2;
    assert!(
        fair[1].residency_p99 <= soft,
        "aggressor residency p99 {} clamped to its soft share {soft}",
        fair[1].residency_p99
    );
    assert!(
        shared[1].residency_p99 > soft,
        "unpartitioned aggressor residency p99 {} overruns the share",
        shared[1].residency_p99
    );
}

/// Each co-run report counts only its own enclave's preloads: touched
/// plus wasted never exceeds what the enclave started, and the apps'
/// touched counts sum to the kernel-wide first touches of preloaded
/// pages (one `PreloadHit` each). The wasted partition is pinned on the
/// EPC's per-extent counters directly.
#[test]
fn co_run_preload_counters_are_each_enclaves_own() {
    let c = cfg();
    let (sink, whole) = CountingSink::new();
    let reports = SimRun::new(&c)
        .scheme(Scheme::Dfp)
        .apps(vec![victim(&c), aggressor(&c)])
        .sink(Box::new(sink))
        .run()
        .expect("unpartitioned pair");
    for r in &reports {
        assert!(
            r.preloads_touched + r.preloads_wasted <= r.preloads_started,
            "{}: touched {} + wasted {} exceed its {} started preloads",
            r.label,
            r.preloads_touched,
            r.preloads_wasted,
            r.preloads_started
        );
    }
    let touched: u64 = reports.iter().map(|r| r.preloads_touched).sum();
    assert!(touched > 0, "the pair preloads useful pages");
    assert_eq!(touched, whole.get().preload_hits);
}

/// An unset policy is the status quo, byte for byte: the tenant layer is
/// pure opt-in and `TenantPolicy::none` never perturbs a run.
#[test]
fn zero_policy_is_bit_identical_to_the_seed_behaviour() {
    let c = cfg();
    let none = c.with_tenant_policy(TenantPolicy::none());
    for scheme in [Scheme::Baseline, Scheme::Dfp, Scheme::Hybrid] {
        let plain = SimRun::new(&c)
            .scheme(scheme)
            .apps(vec![victim(&c), aggressor(&c)])
            .run()
            .expect("plain pair");
        let zeroed = SimRun::new(&none)
            .scheme(scheme)
            .apps(vec![victim(&none), aggressor(&none)])
            .run()
            .expect("zero-policy pair");
        assert_eq!(
            plain,
            zeroed,
            "{}: zero policy must be inert",
            scheme.name()
        );
    }
}

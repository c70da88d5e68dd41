//! Integration checks for the §6 user-level paging comparator.

use sgx_preloading::{Benchmark, Cycles, Scale, Scheme, SimConfig, SimRun, UserPagingConfig};

#[test]
fn user_level_check_cost_can_erase_the_win() {
    // Without the software TLB (CoSMIX's point), per-access checks get
    // expensive enough to matter on check-heavy code.
    let cfg = SimConfig::at_scale(Scale::DEV);
    let cheap = SimRun::new(&cfg)
        .scheme(Scheme::UserLevel)
        .bench(Benchmark::Mcf)
        .run_one()
        .unwrap();
    let pricey_cfg = cfg.with_user_paging(
        UserPagingConfig::defaults_for(cfg.epc_pages)
            .with_check(Cycles::new(400), Cycles::new(400)),
    );
    let pricey = SimRun::new(&pricey_cfg)
        .scheme(Scheme::UserLevel)
        .bench(Benchmark::Mcf)
        .run_one()
        .unwrap();
    assert!(
        pricey.total_cycles > cheap.total_cycles,
        "higher check costs must show up"
    );
}

#[test]
fn user_level_is_deterministic_and_fault_free() {
    let cfg = SimConfig::at_scale(Scale::DEV);
    let a = SimRun::new(&cfg)
        .scheme(Scheme::UserLevel)
        .bench(Benchmark::Mser)
        .run_one()
        .unwrap();
    let b = SimRun::new(&cfg)
        .scheme(Scheme::UserLevel)
        .bench(Benchmark::Mser)
        .run_one()
        .unwrap();
    assert_eq!(a.total_cycles, b.total_cycles);
    // "Faults" here are software swaps; no AEX-style fault service exists.
    assert_eq!(a.faults_waited_inflight, 0);
    assert_eq!(a.preloads_started, 0);
}

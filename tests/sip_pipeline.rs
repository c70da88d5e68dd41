//! The SIP profile-then-instrument pipeline across crates: train-input
//! profiles must transfer to ref-input runs. Table 2's point counts are
//! claims of the `table2_tcb` figure (`sgx_bench::figures`).

use sgx_preloading::{build_plan, profile_stream, Benchmark, InputSet, Scale, Scheme, SimConfig};
use sgx_sip::{InstrumentationPlan, SipConfig};

fn cfg() -> SimConfig {
    SimConfig::at_scale(Scale::DEV)
}

#[test]
fn fortran_and_omnetpp_get_empty_plans() {
    let c = cfg();
    for b in [
        Benchmark::Bwaves,
        Benchmark::Roms,
        Benchmark::Wrf,
        Benchmark::Omnetpp,
    ] {
        assert!(
            build_plan(b, &c, Scheme::Sip).is_empty(),
            "{b}: the paper's prototype cannot instrument it"
        );
    }
}

#[test]
fn plans_are_empty_for_non_sip_schemes() {
    let c = cfg();
    for scheme in [Scheme::Baseline, Scheme::Dfp, Scheme::DfpStop] {
        assert!(build_plan(Benchmark::Deepsjeng, &c, scheme).is_empty());
    }
}

#[test]
fn train_profile_transfers_to_ref_input() {
    // Sites selected on the train input must still be the faulting sites
    // on the ref input: the ref-run fault reduction proves the transfer.
    let c = cfg();
    let plan = build_plan(Benchmark::Deepsjeng, &c, Scheme::Sip);
    assert!(!plan.is_empty());

    // Profile the *ref* input independently and compare selections.
    let ref_profile = profile_stream(
        Benchmark::Deepsjeng.build(InputSet::Ref, c.scale, c.seed),
        c.epc_pages as usize,
    );
    let ref_plan = InstrumentationPlan::from_profile(&ref_profile, c.sip);
    let train_sites = plan.sites();
    let ref_sites = ref_plan.sites();
    let overlap = train_sites.iter().filter(|s| ref_sites.contains(s)).count();
    assert!(
        overlap * 10 >= train_sites.len() * 8,
        "only {overlap}/{} train-selected sites remain hot on ref",
        train_sites.len()
    );
}

#[test]
fn threshold_sweep_has_the_fig9_shape() {
    // Fig. 9: too-aggressive thresholds instrument hot loops (check
    // overhead), too-conservative ones miss irregular sites. The selected
    // point count must decrease monotonically with the threshold.
    let c = cfg();
    let profile = profile_stream(
        Benchmark::Deepsjeng.build(InputSet::Train, c.scale, c.seed),
        c.epc_pages as usize,
    );
    let mut last = usize::MAX;
    for threshold in [0.0, 0.01, 0.05, 0.2, 0.5, 0.99] {
        let plan = InstrumentationPlan::from_profile(
            &profile,
            SipConfig::paper_defaults().with_threshold(threshold),
        );
        assert!(
            plan.len() <= last,
            "selection must shrink as the threshold rises"
        );
        last = plan.len();
    }
    assert_eq!(last, 0, "a ≈100% threshold instruments nothing");
}

#[test]
fn tcb_growth_is_small() {
    // §5.5: the notify function is 23 LoC; per-benchmark TCB growth is the
    // function plus the inserted call sites.
    let c = cfg();
    let plan = build_plan(Benchmark::Deepsjeng, &c, Scheme::Sip);
    let loc = plan.tcb_loc_estimate();
    assert!(loc >= sgx_sip::NOTIFY_FUNCTION_LOC);
    assert!(
        loc < 500,
        "TCB growth must stay tiny ({loc} LoC) — the paper's core argument vs Eleos/CoSMIX"
    );
}

//! Integration tests for the side-channel leakage observatory.
//!
//! Pins the observer's core promises: it is *blind* to enclave-private
//! events, its reports are byte-identical for any worker count, the
//! secret-pair grid reproduces the paper-level directional claims (SIP
//! masks the fault channel, plain DFP amplifies the echo pair, the ORAM
//! reference is exactly indistinguishable), and the canonical grid JSON
//! matches the checked-in golden under `tests/golden/`.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! SGX_GOLDEN_UPDATE=1 cargo test --test leakage
//! ```

use std::path::PathBuf;

use sgx_preloading::prelude::*;
use sgx_preloading::EventCounts;

/// Environment variable that switches the golden harness from compare
/// to regenerate.
const UPDATE_ENV: &str = "SGX_GOLDEN_UPDATE";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// The fixed leakage grid the golden file pins: all three secret pairs
/// across the baseline/DFP/SIP panel (plus the per-pair ORAM reference
/// rows the grid adds itself), shared seeding, window 64.
fn leakage_campaign() -> Campaign {
    Campaign::leakage_grid(
        "golden_leakage",
        2020,
        &SecretPair::ALL,
        &[Scheme::Baseline, Scheme::Dfp, Scheme::Sip],
        SimConfig::at_scale(Scale::new(64)),
        64,
    )
}

fn leakage_of<'a>(report: &'a CampaignReport, label: &str) -> &'a LeakageReport {
    report
        .cell(label)
        .unwrap_or_else(|| panic!("grid has no cell {label:?}"))
        .leakage
        .as_ref()
        .unwrap_or_else(|| panic!("cell {label:?} carries no leakage report"))
}

/// The observer sees exactly the OS-visible subset of the event stream:
/// its counts equal the full tally with `preload_hits` (the only
/// enclave-private kind — a first touch of an already-resident page
/// causes no AEX) zeroed out, and every suppressed event is accounted
/// for in `private_suppressed`.
#[test]
fn observer_reconstructs_exactly_the_os_visible_counts() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    let (observer, obs) = ObserverSink::new();
    let (counting, full) = CountingSink::new();
    SimRun::new(&cfg)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
        .sink(Box::new(observer))
        .sink(Box::new(counting))
        .run_one()
        .expect("DFP run failed");
    let full: EventCounts = full.get();
    let obs = obs.borrow();
    assert!(
        full.preload_hits > 0,
        "the DFP cell must produce preload hits for blindness to be testable"
    );
    let mut visible = full;
    visible.preload_hits = 0;
    assert_eq!(
        obs.counts, visible,
        "observer counts must be the full tally minus the private kind"
    );
    assert_eq!(obs.counts.preload_hits, 0, "observer saw a private event");
    assert_eq!(
        obs.private_suppressed, full.preload_hits,
        "every suppressed event must be tallied"
    );
    assert_eq!(obs.observed_events(), full.total() - full.preload_hits);
}

/// The leakage grid is deterministic: serial and 4-worker runs agree
/// field-for-field and byte-for-byte in canonical JSON.
#[test]
fn leakage_report_is_identical_for_any_worker_count() {
    let campaign = leakage_campaign();
    let serial = campaign.run_serial().expect("serial leakage run failed");
    let parallel = campaign
        .run_with_jobs(4)
        .expect("parallel leakage run failed");
    assert_eq!(serial.cells.len(), 12, "3 pairs x (3 schemes + oram row)");
    for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.leakage, p.leakage, "cell {} leakage diverged", s.label);
    }
    assert_eq!(
        serial.to_canonical_json(),
        parallel.to_canonical_json(),
        "canonical JSON must be byte-identical regardless of worker count"
    );
}

/// The paper-level directional claims, pinned:
///
/// * on `branch-halves` the baseline fault channel identifies the
///   secret, and SIP's blocking loads close that channel (faults no
///   longer depend on the secret half);
/// * on `dfp-echo` plain DFP *amplifies* distinguishability over
///   baseline — the predictor echoes the secret stream as preload
///   requests while stripping the predictable cover traffic;
/// * every ORAM reference row is exactly indistinguishable (both
///   labels replay the same padded stream).
#[test]
fn schemes_mask_and_amplify_as_pinned() {
    let report = leakage_campaign()
        .run_with_jobs(4)
        .expect("leakage grid failed");

    // SIP masks the fault channel on branch-halves.
    let base = leakage_of(&report, "branch-halves/baseline");
    let sip = leakage_of(&report, "branch-halves/SIP");
    assert!(
        base.fault_distinguishability() > 0.5,
        "baseline branch-halves fault channel must leak clearly, got {:.4}",
        base.fault_distinguishability()
    );
    assert!(
        sip.fault_distinguishability() < 0.05,
        "SIP must close the branch-halves fault channel, got {:.4}",
        sip.fault_distinguishability()
    );
    assert!(
        sip.variants[0].faults < base.variants[0].faults / 4,
        "SIP's blocking loads must remove most faults ({} vs {})",
        sip.variants[0].faults,
        base.variants[0].faults
    );

    // Plain DFP amplifies the echo pair.
    let echo_base = leakage_of(&report, "dfp-echo/baseline");
    let echo_dfp = leakage_of(&report, "dfp-echo/DFP");
    assert!(
        echo_dfp.distinguishability() > echo_base.distinguishability(),
        "DFP must amplify dfp-echo distinguishability ({:.4} vs baseline {:.4})",
        echo_dfp.distinguishability(),
        echo_base.distinguishability()
    );

    // The ORAM reference rows are perfectly private.
    for pair in SecretPair::ALL {
        let oram = leakage_of(&report, &format!("{}/oram", pair.name()));
        assert!(oram.oram);
        assert_eq!(
            oram.distinguishability(),
            0.0,
            "{}/oram must be exactly indistinguishable",
            pair.name()
        );
        assert_eq!(oram.variants[0].faults, oram.variants[1].faults);
    }
}

/// The canonical leakage-grid JSON matches the checked-in golden.
#[test]
fn leakage_grid_matches_golden() {
    let report = leakage_campaign()
        .run_with_jobs(2)
        .expect("leakage grid failed");
    let got = report.to_canonical_json();
    let path = golden_path("campaign_leakage.json");
    if std::env::var_os(UPDATE_ENV).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, &got).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `{UPDATE_ENV}=1 cargo test --test leakage` to generate it",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "leakage grid drifted from the golden; if intentional, regenerate \
         with `{UPDATE_ENV}=1 cargo test --test leakage`"
    );
}

//! Differential equivalence battery for the hot-path engine rewrite.
//!
//! The rewritten inner loop (struct-of-arrays page tables, word-at-a-time
//! CLOCK scans, slab/arena buffers, event batching, the no-sink fast
//! path) is pinned by the goldens that predate it: every campaign cell
//! must render byte-identically to the checked-in reports, serially and
//! under a worker pool. Unlike the per-suite golden harnesses, this
//! battery has no regenerate switch — a mismatch here means the engine
//! computes other bits than the goldens, which change only in a
//! deliberate regeneration by their own harnesses.

use std::path::PathBuf;

use sgx_preloading::prelude::*;
use sgx_preloading::{render_chrome_trace, CollectingSink};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} must exist ({e})", path.display()))
}

/// The exact campaign `tests/golden/campaign_small.json` pins.
fn small_campaign() -> Campaign {
    Campaign::grid(
        "golden_small",
        2020,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Baseline, Scheme::DfpStop, Scheme::Sip],
        SimConfig::at_scale(Scale::new(64)),
    )
}

#[test]
fn campaign_golden_bits_survive_the_rewrite_at_jobs_1_and_4() {
    let want = golden("campaign_small.json");
    let campaign = small_campaign();
    for jobs in [1, 4] {
        assert_eq!(
            campaign
                .run_with_jobs(jobs)
                .expect("campaign run failed")
                .to_canonical_json(),
            want,
            "campaign_small.json diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn timeline_golden_bits_survive_the_rewrite() {
    let cfg = SimConfig::at_scale(Scale::new(16_384));
    let (sink, collected) = CollectingSink::new();
    SimRun::new(&cfg)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
        .sink(Box::new(sink))
        .run_one()
        .expect("DFP on the microbenchmark");
    let events = collected.borrow().clone();
    assert_eq!(
        render_chrome_trace(&events),
        golden("timeline_small.chrome.json"),
        "timeline_small.chrome.json diverged"
    );
}

/// Every workload × kernel scheme × EPC size × tenant policy, run
/// serially and with four workers: the two reports must agree bit for
/// bit (stats, attribution, percentiles, tenant telemetry — the whole
/// canonical rendering). The tiny scale keeps the 540-cell grid cheap;
/// the axes, not the resolution, are what the rewrite must survive. The
/// EPC axis halves the EPC twice, so each workload meets three reclaim
/// pressures.
#[test]
fn full_grid_is_byte_identical_serial_vs_parallel() {
    let cfg = SimConfig::at_scale(Scale::new(256));
    let schemes = [
        Scheme::Baseline,
        Scheme::Dfp,
        Scheme::DfpStop,
        Scheme::Sip,
        Scheme::Hybrid,
    ];
    for fair in [false, true] {
        // Each EPC size gets its own fair shares.
        let point = |pages: u64| {
            let cfg = cfg.with_epc_pages(pages);
            if fair {
                cfg.with_tenant_policy(TenantPolicy::fair(2, pages))
            } else {
                cfg
            }
        };
        let campaign = Campaign::sweep(
            "equivalence_full",
            2026,
            &Benchmark::ALL,
            &schemes,
            "epc",
            &[("96", point(96)), ("48", point(48)), ("24", point(24))],
        );
        let serial = campaign
            .run_with_jobs(1)
            .expect("serial campaign run failed")
            .to_canonical_json();
        let parallel = campaign
            .run_with_jobs(4)
            .expect("parallel campaign run failed")
            .to_canonical_json();
        assert_eq!(
            serial, parallel,
            "fair={fair}: serial and 4-worker grids diverged"
        );
    }
}

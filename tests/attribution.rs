//! Property tests for the per-subsystem cycle attribution (DESIGN.md §4.3).
//!
//! The contract: the eight buckets are non-negative (they are `u64` by
//! construction) and sum *exactly* to the run's total cycles — no cycle is
//! counted twice and none goes missing — on every workload × scheme
//! combination. Schemes that never preload never bill the preload
//! buckets, and every resolved fault's causal parent is a preload span.
//! `tests/random_runs.rs` checks the same books on random traces, EPC
//! sizes, cost models and co-runs.

use std::collections::BTreeSet;

use sgx_preloading::kernel::EventKind;
use sgx_preloading::{Benchmark, CollectingSink, Scale, Scheme, SimConfig, SimRun};

fn cfg() -> SimConfig {
    SimConfig::at_scale(Scale::new(64))
}

#[test]
fn buckets_sum_to_total_on_every_workload_and_scheme() {
    for bench in Benchmark::ALL {
        for scheme in Scheme::ALL {
            let r = SimRun::new(&cfg())
                .scheme(scheme)
                .bench(bench)
                .run_one()
                .expect("kernel scheme on a known benchmark");
            let a = &r.attribution;
            assert_eq!(
                a.total(),
                r.total_cycles.raw(),
                "{}/{}: buckets must sum to the run total",
                bench.name(),
                scheme.name(),
            );
            // `buckets()` walks every field exactly once: the table view
            // and the struct agree.
            let by_hand: u64 = a.buckets().iter().map(|&(_, v)| v).sum();
            assert_eq!(by_hand, a.total());
        }
    }
}

#[test]
fn baseline_never_bills_preload_buckets() {
    for bench in Benchmark::ALL {
        let r = SimRun::new(&cfg())
            .bench(bench)
            .run_one()
            .expect("baseline on a known benchmark");
        assert_eq!(r.scheme, Scheme::Baseline);
        assert_eq!(
            r.attribution.wasted_preload,
            0,
            "{}: no predictor, nothing to waste",
            bench.name()
        );
        assert_eq!(r.attribution.preload_work, 0, "{}", bench.name());
    }
}

#[test]
fn user_level_attribution_reconciles_too() {
    let r = SimRun::new(&SimConfig::at_scale(Scale::new(64)))
        .scheme(Scheme::UserLevel)
        .bench(Benchmark::Lbm)
        .run_one()
        .expect("user-level runtime on a known benchmark");
    assert_eq!(r.attribution.total(), r.total_cycles.raw());
    assert_eq!(r.attribution.preload_work, 0);
}

/// Every `FaultResolved` event either has no parent (a cold fault the
/// predictor never saw coming) or parents the `PreloadStart` /
/// `SipPrefetchStart` span whose page the fault collided with.
#[test]
fn fault_resolved_parents_are_preload_spans() {
    for scheme in Scheme::ALL {
        let (sink, collected) = CollectingSink::new();
        let _ = SimRun::new(&cfg())
            .scheme(scheme)
            .bench(Benchmark::MixedBlood)
            .sink(Box::new(sink))
            .run_one()
            .expect("kernel scheme on a known benchmark");
        let events = collected.borrow();
        let preload_spans: BTreeSet<u64> = events
            .iter()
            .filter(|e| {
                matches!(
                    e.what,
                    EventKind::PreloadStart | EventKind::SipPrefetchStart
                )
            })
            .map(|e| e.span.raw())
            .collect();
        let mut linked = 0u64;
        for e in events.iter() {
            if e.what != EventKind::FaultResolved {
                continue;
            }
            if let Some(p) = e.parent {
                assert!(
                    preload_spans.contains(&p.raw()),
                    "{}: fault-resolved at {} parents {p}, not a preload",
                    scheme.name(),
                    e.at,
                );
                linked += 1;
            }
        }
        // SIP alone serves instrumented pages with blocking loads, so its
        // faults rarely collide with in-flight work; the DFP family must
        // race at least once on this workload.
        if scheme.uses_dfp() {
            assert!(
                linked > 0,
                "{}: a DFP scheme should race at least one fault \
                 against an in-flight preload on this workload",
                scheme.name()
            );
        }
    }
}

/// Per-enclave books on a shared kernel: in 2- and 3-enclave co-runs
/// under every preloading arm, each app's buckets sum to its own total,
/// its world switches are its own faults', and its channel-wait bucket
/// covers its demand-fault channel wait.
#[test]
fn every_app_balances_its_own_books_on_a_shared_kernel() {
    let benches = [
        Benchmark::Microbenchmark,
        Benchmark::MixedBlood,
        Benchmark::Deepsjeng,
    ];
    for n in [2, 3] {
        for scheme in [
            Scheme::Baseline,
            Scheme::Dfp,
            Scheme::DfpStop,
            Scheme::Hybrid,
        ] {
            let c = cfg();
            let reports = benches[..n]
                .iter()
                .fold(SimRun::new(&c).scheme(scheme), |run, &b| run.bench(b))
                .run()
                .expect("co-run of known benchmarks");
            let switch = c.costs.aex.raw() + c.costs.eresume.raw();
            for r in &reports {
                let ctx = format!("{n} apps/{scheme}/{}", r.label);
                let a = &r.attribution;
                assert_eq!(a.total(), r.total_cycles.raw(), "{ctx}: sums to its total");
                assert_eq!(
                    a.aex_eresume,
                    r.faults * switch,
                    "{ctx}: its world switches"
                );
                assert!(
                    a.channel_wait >= r.channel_wait_cycles.raw(),
                    "{ctx}: channel wait"
                );
            }
        }
    }
}

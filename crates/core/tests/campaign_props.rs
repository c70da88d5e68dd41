//! Property tests for the campaign engine: any small random campaign
//! produces the identical report sequence under 1, 2 and 4 workers.

use proptest::prelude::*;

use sgx_preload_core::{Campaign, Cell, Scheme, SimConfig};
use sgx_workloads::{Benchmark, Scale};

/// The cheap benchmarks the random campaigns draw from; large-footprint
/// programs would dominate the property-test budget without exercising
/// any additional engine behavior.
const BENCHMARK_POOL: [Benchmark; 4] = [
    Benchmark::Microbenchmark,
    Benchmark::Leela,
    Benchmark::Exchange2,
    Benchmark::Nab,
];

const SCHEME_POOL: [Scheme; 4] = [Scheme::Baseline, Scheme::Dfp, Scheme::DfpStop, Scheme::Sip];

fn arb_cell() -> impl Strategy<Value = Cell> {
    (0usize..BENCHMARK_POOL.len(), 0usize..SCHEME_POOL.len()).prop_map(|(b, s)| {
        Cell::new(
            BENCHMARK_POOL[b],
            SCHEME_POOL[s],
            SimConfig::at_scale(Scale::new(64)),
        )
    })
}

fn arb_campaign() -> impl Strategy<Value = Campaign> {
    (any::<u64>(), proptest::collection::vec(arb_cell(), 1..5)).prop_map(|(seed, cells)| {
        let mut c = Campaign::new("prop", seed);
        for cell in cells {
            c.push(cell);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine's core guarantee: worker count is invisible in the
    /// results. Every cell's RunReport, telemetry and seed is identical
    /// under 1, 2 and 4 workers, and so is the canonical JSON.
    #[test]
    fn worker_count_never_changes_reports(campaign in arb_campaign()) {
        let serial = campaign.run_serial().expect("serial campaign run failed");
        for jobs in [1usize, 2, 4] {
            let parallel = campaign.run_with_jobs(jobs).expect("parallel campaign run failed");
            prop_assert_eq!(serial.cells.len(), parallel.cells.len());
            for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
                prop_assert_eq!(s.index, p.index);
                prop_assert_eq!(&s.label, &p.label);
                prop_assert_eq!(s.seed, p.seed);
                prop_assert_eq!(&s.report, &p.report);
                prop_assert_eq!(&s.events, &p.events);
            }
            prop_assert_eq!(
                serial.to_canonical_json(),
                parallel.to_canonical_json()
            );
        }
    }
}

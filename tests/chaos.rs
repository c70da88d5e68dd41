//! The differential degradation battery for the chaos layer.
//!
//! Every workload runs under every kernel scheme with seeded
//! fault-injection schedules, and the battery asserts the
//! graceful-degradation contract: injection may change *when* things
//! happen (cycle counts, preload mix), but never *what* the run computes
//! (access count, termination), never the accounting (the counters in
//! [`sgx_preloading::RunReport`] must still equal the tallies a
//! [`CountingSink`] reconstructs from the event stream), and never the
//! valve's latch semantics (once stopped, zero further preloads). An
//! all-zero schedule must be a strict no-op: bit-identical reports,
//! byte-identical golden campaign JSON.
//!
//! The chaos golden file regenerates like the campaign one:
//!
//! ```text
//! SGX_GOLDEN_UPDATE=1 cargo test --test chaos
//! ```

use std::path::PathBuf;

use sgx_preloading::kernel::EventKind;
use sgx_preloading::prelude::*;
use sgx_preloading::CollectingSink;

const UPDATE_ENV: &str = "SGX_GOLDEN_UPDATE";

/// Slowdown ceiling for the battery's schedules: the paper's DFP-stop
/// argument (§4) is that bounded misprediction keeps overhead bounded;
/// with drop rates ≤ 0.25 and stalls in the tens of kilocycles the
/// injected run must stay well under this multiple of the clean run.
const MAX_SLOWDOWN: f64 = 3.0;

const KERNEL_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::Dfp,
    Scheme::DfpStop,
    Scheme::Sip,
    Scheme::Hybrid,
];

fn cfg() -> SimConfig {
    SimConfig::at_scale(Scale::new(48))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs one bench/scheme with the given chaos schedule, counting events.
fn run_counted(
    cfg: &SimConfig,
    bench: Benchmark,
    scheme: Scheme,
    chaos: ChaosSchedule,
) -> (sgx_preloading::RunReport, sgx_preloading::EventCounts) {
    let (sink, counts) = CountingSink::new();
    let r = SimRun::new(&cfg.with_chaos(chaos))
        .scheme(scheme)
        .bench(bench)
        .sink(Box::new(sink))
        .run_one()
        .unwrap_or_else(|e| panic!("{}/{}: {e}", bench.name(), scheme.name()));
    (r, counts.get())
}

/// The tentpole battery: every workload × kernel scheme × schedule. No
/// panics, stats/stream agreement, workload preserved, slowdown bounded.
#[test]
fn battery_every_workload_scheme_and_schedule_degrades_gracefully() {
    let c = cfg();
    for bench in Benchmark::ALL {
        for scheme in KERNEL_SCHEMES {
            let clean = SimRun::new(&c)
                .scheme(scheme)
                .bench(bench)
                .run_one()
                .unwrap();
            for (name, sched) in [
                ("light", ChaosSchedule::light(0xC0FFEE)),
                ("heavy", ChaosSchedule::heavy(0xBADCAB)),
            ] {
                let ctx = format!("{}/{}/{name}", bench.name(), scheme.name());
                let (r, ev) = run_counted(&c, bench, scheme, sched);
                // The workload itself is untouched: same accesses, and
                // the run terminated (or we would not be here).
                assert_eq!(r.accesses, clean.accesses, "{ctx}: accesses");
                // Accounting: stats must equal the stream reconstruction.
                assert_eq!(ev.faults, r.faults, "{ctx}: faults");
                assert_eq!(ev.faults_resolved, r.faults, "{ctx}: resolutions");
                assert_eq!(ev.preload_starts, r.preloads_started, "{ctx}: preloads");
                assert_eq!(ev.preload_aborts, r.preloads_aborted, "{ctx}: aborts");
                assert_eq!(
                    ev.background_evictions, r.background_evictions,
                    "{ctx}: bg evictions"
                );
                assert_eq!(
                    ev.foreground_evictions, r.foreground_evictions,
                    "{ctx}: fg evictions"
                );
                assert_eq!(
                    ev.valve_stops,
                    u64::from(r.dfp_stopped_at.is_some()),
                    "{ctx}: valve"
                );
                assert!(ev.preload_hits <= r.preloads_touched, "{ctx}: preload hits");
                // Bounded degradation (the paper's §4 envelope).
                let slowdown = r.total_cycles.raw() as f64 / clean.total_cycles.raw() as f64;
                assert!(
                    slowdown < MAX_SLOWDOWN,
                    "{ctx}: slowdown {slowdown:.2}x exceeds {MAX_SLOWDOWN}x"
                );
            }
        }
    }
}

/// The all-zero schedule is a strict no-op: the full report — including
/// the p50/p90/p99 latency percentiles — is bit-identical to a run with
/// no injector installed, for every kernel scheme. (`RunReport` derives
/// `PartialEq` over every field, so one assert covers them all.)
#[test]
fn zero_schedule_reports_are_bit_identical_to_uninjected() {
    let c = cfg();
    for scheme in KERNEL_SCHEMES {
        let plain = SimRun::new(&c)
            .scheme(scheme)
            .bench(Benchmark::Deepsjeng)
            .run_one()
            .unwrap();
        let zeroed = SimRun::new(&c.with_chaos(ChaosSchedule::none().with_seed(0xDEAD)))
            .scheme(scheme)
            .bench(Benchmark::Deepsjeng)
            .run_one()
            .unwrap();
        assert_eq!(
            plain,
            zeroed,
            "{}: zero chaos perturbed the run",
            scheme.name()
        );
    }
}

/// A zero-chaos config reproduces `tests/golden/campaign_small.json`
/// byte-for-byte — the chaos layer cannot shift the pinned numbers.
#[test]
fn zero_chaos_campaign_matches_the_existing_golden_report() {
    let campaign = Campaign::grid(
        "golden_small",
        2020,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Baseline, Scheme::DfpStop, Scheme::Sip],
        SimConfig::at_scale(Scale::new(64)).with_chaos(ChaosSchedule::none().with_seed(31337)),
    );
    let got = campaign
        .run_with_jobs(2)
        .expect("campaign run failed")
        .to_canonical_json();
    let want = std::fs::read_to_string(golden_path("campaign_small.json"))
        .expect("golden campaign report exists");
    assert_eq!(
        got, want,
        "zero-chaos campaign drifted from the golden file"
    );
}

/// Same schedule seed, same decisions: two injected runs of the same cell
/// are field-identical, and a different chaos seed leaves the workload
/// stream (access count) alone.
#[test]
fn chaos_runs_are_deterministic_in_the_schedule_seed() {
    let c = cfg();
    let sched = ChaosSchedule::heavy(7);
    let (a, ev_a) = run_counted(&c, Benchmark::Mcf, Scheme::Dfp, sched);
    let (b, ev_b) = run_counted(&c, Benchmark::Mcf, Scheme::Dfp, sched);
    assert_eq!(a, b, "same chaos seed must reproduce the run exactly");
    assert_eq!(ev_a, ev_b, "and the event stream tallies with it");
    let (other, _) = run_counted(&c, Benchmark::Mcf, Scheme::Dfp, ChaosSchedule::heavy(8));
    assert_eq!(
        a.accesses, other.accesses,
        "the chaos seed only perturbs the kernel, never the workload"
    );
}

/// Valve semantics under forced flapping: once a `ValveStopped` event is
/// streamed — real or chaos-forced — not a single further `PreloadStart`
/// may appear, on any preloading scheme.
#[test]
fn valve_latch_admits_no_preload_after_stopping() {
    let c = cfg();
    let flappy = ChaosSchedule::heavy(41).with_valve_flap(0.02);
    for scheme in [Scheme::Dfp, Scheme::DfpStop, Scheme::Hybrid] {
        for bench in [Benchmark::Microbenchmark, Benchmark::Lbm, Benchmark::Xz] {
            let (sink, events) = CollectingSink::new();
            SimRun::new(&c.with_chaos(flappy))
                .scheme(scheme)
                .bench(bench)
                .sink(Box::new(sink))
                .run_one()
                .unwrap();
            let events = events.borrow();
            let Some(stop) = events
                .iter()
                .position(|e| e.what == EventKind::ValveStopped)
            else {
                continue;
            };
            assert!(
                !events[stop..]
                    .iter()
                    .any(|e| e.what == EventKind::PreloadStart),
                "{}/{}: preload started after the valve latched",
                bench.name(),
                scheme.name()
            );
        }
    }
}

/// The pinned chaos campaign: a `none`/`light`/`heavy` schedule axis over
/// two benchmarks and two preloading schemes, byte-compared against
/// `tests/golden/campaign_chaos_small.json`. Regenerate with
/// `SGX_GOLDEN_UPDATE=1 cargo test --test chaos`.
#[test]
fn chaos_campaign_matches_golden_report() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    let campaign = Campaign::sweep(
        "chaos_small",
        2021,
        &[Benchmark::Microbenchmark, Benchmark::Deepsjeng],
        &[Scheme::Dfp, Scheme::DfpStop],
        "chaos",
        &[
            ("none", cfg.with_chaos(ChaosSchedule::none())),
            ("light", cfg.with_chaos(ChaosSchedule::light(9))),
            ("heavy", cfg.with_chaos(ChaosSchedule::heavy(9))),
        ],
    );
    let serial = campaign
        .run_serial()
        .expect("serial campaign run failed")
        .to_canonical_json();
    let parallel = campaign
        .run_with_jobs(4)
        .expect("parallel campaign run failed")
        .to_canonical_json();
    assert_eq!(
        serial, parallel,
        "chaos campaign must parallelize deterministically"
    );
    let path = golden_path("campaign_chaos_small.json");
    if std::env::var_os(UPDATE_ENV).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, &serial).expect("write golden file");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run `{UPDATE_ENV}=1 cargo test --test chaos` to generate it",
            path.display()
        )
    });
    assert_eq!(
        serial, want,
        "chaos campaign drifted from the golden report; if intentional, \
         regenerate with `{UPDATE_ENV}=1 cargo test --test chaos`"
    );
}

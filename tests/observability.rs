//! Integration tests for the streaming observability layer: trace sinks
//! subscribed through [`SimRun`], the histogram percentiles surfaced in
//! [`RunReport`], and their agreement with the simulator's own counters.

use sgx_preloading::prelude::*;
use sgx_preloading::{CollectingSink, HistogramSink};

fn cfg() -> SimConfig {
    SimConfig::at_scale(Scale::new(64))
}

const KERNEL_SCHEMES: [Scheme; 5] = [
    Scheme::Baseline,
    Scheme::Dfp,
    Scheme::DfpStop,
    Scheme::Sip,
    Scheme::Hybrid,
];

/// The acceptance bar for the sink layer: on every benchmark × kernel
/// scheme, the tallies a `CountingSink` reconstructs from the event stream
/// must match the counters the simulator reports — nothing is emitted
/// twice, nothing is dropped — and its total is the number of events a
/// sink saw.
#[test]
fn counting_sink_matches_report_counters_on_every_workload() {
    use sgx_preloading::kernel::{EventKind, LoggedEvent};
    use std::{cell::Cell, rc::Rc};
    let c = cfg();
    for bench in Benchmark::ALL {
        for scheme in KERNEL_SCHEMES {
            let (sink, counts) = CountingSink::new();
            // Events seen, and the pages the abort and valve events drop.
            let seen = Rc::new(Cell::new((0, 0)));
            let tally = Rc::clone(&seen);
            let r = SimRun::new(&c)
                .scheme(scheme)
                .bench(bench)
                .sink(Box::new(sink))
                .sink(Box::new(move |e: &LoggedEvent| {
                    let drops = matches!(e.what, EventKind::PreloadAbort | EventKind::ValveStopped);
                    let (n, pages) = tally.get();
                    tally.set((
                        n + 1,
                        pages + drops.then_some(e.value).flatten().unwrap_or(0),
                    ));
                }))
                .run_one()
                .unwrap();
            let ev = counts.get();
            let ctx = format!("{}/{}", bench.name(), scheme.name());
            let (events, dropped) = seen.get();
            assert_eq!(ev.total(), events, "{ctx}: one count per event");
            assert_eq!(r.events.total(), events, "{ctx}: the report's count");
            assert_eq!(ev, r.events, "{ctx}: kernel-derived events");
            assert_eq!(ev.faults, r.faults, "{ctx}: faults");
            assert_eq!(ev.faults_resolved, r.faults, "{ctx}: every fault resolves");
            assert_eq!(ev.preload_starts, r.preloads_started, "{ctx}: preloads");
            assert_eq!(dropped, r.preloads_aborted, "{ctx}: aborted pages");
            assert_eq!(
                ev.background_evictions, r.background_evictions,
                "{ctx}: background evictions"
            );
            assert_eq!(
                ev.foreground_evictions, r.foreground_evictions,
                "{ctx}: foreground evictions"
            );
            assert_eq!(
                ev.valve_stops,
                u64::from(r.dfp_stopped_at.is_some()),
                "{ctx}: valve"
            );
            assert!(
                ev.demand_loads <= ev.faults,
                "{ctx}: demand loads are a subset of faults"
            );
            assert!(
                ev.preload_hits <= r.preloads_touched,
                "{ctx}: a lead is recorded only for touched preloads"
            );
        }
    }
}

/// Every subscribed sink observes the same stream, in the same order.
#[test]
fn all_sinks_see_the_same_stream_in_order() {
    let c = cfg();
    let (first, a) = CollectingSink::new();
    let (second, b) = CollectingSink::new();
    SimRun::new(&c)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Lbm)
        .sink(Box::new(first))
        .sink(Box::new(second))
        .run_one()
        .unwrap();
    let a = a.borrow();
    assert!(!a.is_empty(), "a faulting run emits events");
    assert_eq!(*a, *b.borrow());
}

/// A sink-free run produces byte-identical results to a fully observed
/// one: observation never perturbs the simulation.
#[test]
fn sinks_do_not_perturb_the_simulation() {
    let c = cfg();
    let plain = SimRun::new(&c)
        .scheme(Scheme::Hybrid)
        .bench(Benchmark::Deepsjeng)
        .run_one()
        .unwrap();
    let (counting, _counts) = CountingSink::new();
    let (hist, _h) = HistogramSink::new();
    let observed = SimRun::new(&c)
        .scheme(Scheme::Hybrid)
        .bench(Benchmark::Deepsjeng)
        .sink(Box::new(counting))
        .sink(Box::new(hist))
        .run_one()
        .unwrap();
    assert_eq!(plain, observed);
}

/// Fault-latency percentiles surface in the report, are ordered, and are
/// identical for 1, 2 and 4 campaign workers (the figure-determinism
/// acceptance bar).
#[test]
fn percentiles_are_ordered_and_deterministic_across_jobs() {
    use sgx_preloading::Campaign;
    let campaign = Campaign::grid(
        "pctl",
        42,
        &[Benchmark::Microbenchmark, Benchmark::Lbm],
        &[Scheme::Baseline, Scheme::Dfp],
        cfg(),
    );
    let one = campaign.run_with_jobs(1).expect("campaign run failed");
    let two = campaign.run_with_jobs(2).expect("campaign run failed");
    let four = campaign.run_with_jobs(4).expect("campaign run failed");
    assert_eq!(one.to_canonical_json(), two.to_canonical_json());
    assert_eq!(one.to_canonical_json(), four.to_canonical_json());
    assert!(one.to_canonical_json().contains("\"fault_service_p50\""));
    for cell in &one.cells {
        let r = &cell.report;
        assert!(r.faults > 0, "{}: these workloads fault", cell.label);
        assert!(r.fault_service_p50 > Cycles::ZERO, "{}", cell.label);
        assert!(r.fault_service_p50 <= r.fault_service_p90, "{}", cell.label);
        assert!(r.fault_service_p90 <= r.fault_service_p99, "{}", cell.label);
    }
}

/// The terminal `RunEnd` event is emitted exactly once, last, with the
/// run's total cycles as its value — a stream consumer can tell a complete
/// trace from a truncated one and reconcile it against the report without
/// ever seeing the report.
#[test]
fn run_end_is_emitted_once_last_and_reconciles_with_the_report() {
    use sgx_preloading::kernel::EventKind;
    for scheme in KERNEL_SCHEMES {
        let (sink, collected) = CollectingSink::new();
        let r = SimRun::new(&cfg())
            .scheme(scheme)
            .bench(Benchmark::Microbenchmark)
            .sink(Box::new(sink))
            .run_one()
            .expect("kernel scheme on the microbenchmark");
        let events = collected.borrow();
        let ends: Vec<_> = events
            .iter()
            .filter(|e| e.what == EventKind::RunEnd)
            .collect();
        assert_eq!(ends.len(), 1, "{}: exactly one run-end", scheme.name());
        assert_eq!(
            ends[0].value,
            Some(r.total_cycles.raw()),
            "{}: run-end carries the total",
            scheme.name()
        );
        assert!(ends[0].parent.is_none(), "{}", scheme.name());
        assert_eq!(
            events.last().expect("stream non-empty").what,
            EventKind::RunEnd,
            "{}: run-end is the final event",
            scheme.name()
        );
    }
}

/// `Campaign::with_trace_dir` drops one parseable JSONL file per cell.
#[test]
fn campaign_trace_dir_streams_one_jsonl_file_per_cell() {
    use sgx_preloading::Campaign;
    let dir = std::env::temp_dir().join("sgx_obs_trace_dir_test");
    let _ = std::fs::remove_dir_all(&dir);
    let campaign = Campaign::grid(
        "traced",
        7,
        &[Benchmark::Microbenchmark],
        &[Scheme::Baseline, Scheme::Dfp],
        cfg(),
    )
    .with_trace_dir(&dir);
    let report = campaign.run_with_jobs(2).expect("campaign run failed");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("trace dir created")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(
        files,
        [
            "000_microbenchmark-baseline.jsonl",
            "001_microbenchmark-DFP.jsonl"
        ]
    );
    for (file, cell) in files.iter().zip(&report.cells) {
        let text = std::fs::read_to_string(dir.join(file)).unwrap();
        let faults = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"fault\","))
            .count() as u64;
        assert_eq!(faults, cell.events.faults, "{file}: fault lines");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "{file}: {line}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-enclave telemetry is reconstructible from the event stream alone:
/// on a 3-enclave contention run, partitioning the stream by ELRANGE
/// owner and tallying [`EventCounts`] per enclave reproduces the kernel's
/// own per-tenant counters exactly. Faults, demand loads and aborts
/// attribute to the faulting enclave; preload starts, completions and
/// evictions to the page's owner — both reduce to the page's ELRANGE
/// because tenant mode scopes demand aborts to the faulter's queue.
#[test]
fn per_enclave_event_counts_match_tenant_stats_under_contention() {
    use sgx_preloading::kernel::{Kernel, KernelConfig};
    use sgx_preloading::{
        EventCounts, InputSet, MultiStreamPredictor, ProcessId, StreamConfig, TenantPolicy,
    };

    // Consecutive ELRANGEs are 2^24 pages apart, so an event's enclave is
    // its page's high bits (the same rule `Epc::owner_of` applies).
    const STRIDE_SHIFT: u32 = 24;

    let c = cfg();
    let mut kcfg = KernelConfig::new(c.epc_pages).with_costs(c.costs);
    kcfg.tenant = Some(TenantPolicy::fair(3, c.epc_pages));
    let mut k = Kernel::new(
        kcfg,
        Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
    );
    let (sink, events) = CollectingSink::new();
    k.subscribe(Box::new(sink));

    let pids = [ProcessId(0), ProcessId(1), ProcessId(2)];
    for pid in pids {
        k.register_enclave(pid, Benchmark::Lbm.elrange_pages(c.scale))
            .unwrap();
    }
    // The same min-next-instant interleave the SimRun engine uses.
    let mut streams: Vec<_> = (0..3u64)
        .map(|i| Benchmark::Lbm.build(InputSet::Ref, c.scale, c.seed + i))
        .collect();
    let mut clocks = [Cycles::ZERO; 3];
    let mut pending: Vec<_> = streams.iter_mut().map(|s| s.next()).collect();
    while let Some(i) = (0..3)
        .filter(|&i| pending[i].is_some())
        .min_by_key(|&i| clocks[i] + pending[i].as_ref().unwrap().compute)
    {
        let a = pending[i].take().unwrap();
        let now = clocks[i] + a.compute;
        clocks[i] = match k.app_access(now, pids[i], a.page) {
            Some(_) => now,
            None => k.page_fault(now, pids[i], a.page).resume_at,
        };
        pending[i] = streams[i].next();
    }

    let mut per = vec![EventCounts::default(); 3];
    for e in events.borrow().iter() {
        let page = e.page.expect("every event of a DFP run names a page");
        per[(page.raw() >> STRIDE_SHIFT) as usize].bump(e.what);
    }
    for (i, counts) in per.iter().enumerate() {
        assert!(counts.faults > 0, "enclave {i}: contention faults");
        assert_eq!(*counts, k.tenant_events(i), "enclave {i}");
    }
}

/// The same partition rule ties the stream to the public [`SimRun`]
/// surface: each app's `events` is its enclave's share of the stream
/// (the page-less run end belongs to every app), and the additive
/// tallies summed over apps equal a kernel-wide `CountingSink`.
/// `tests/random_runs.rs` checks the same partition over random co-runs
/// under every kernel scheme.
#[test]
fn stream_partition_agrees_with_per_app_reports_on_contention() {
    use sgx_preloading::kernel::EventKind;
    use sgx_preloading::{AppSpec, EventCounts, InputSet, TenantPolicy};
    let c = cfg().with_tenant_policy(TenantPolicy::fair(3, cfg().epc_pages));
    let mk = |i: u64| {
        AppSpec::new(
            format!("lbm#{i}"),
            Benchmark::Lbm.elrange_pages(c.scale),
            Benchmark::Lbm.build(InputSet::Ref, c.scale, c.seed + i),
        )
        .build()
        .unwrap()
    };
    let (sink, events) = CollectingSink::new();
    let (counting, whole) = CountingSink::new();
    let reports = SimRun::new(&c)
        .scheme(Scheme::Dfp)
        .apps(vec![mk(0), mk(1), mk(2)])
        .sink(Box::new(sink))
        .sink(Box::new(counting))
        .run()
        .unwrap();
    let mut per = vec![EventCounts::default(); 3];
    for e in events.borrow().iter() {
        match e.page {
            Some(page) => per[(page.raw() >> 24) as usize].bump(e.what),
            None => {
                assert_eq!(e.what, EventKind::RunEnd, "no valve in this run");
                per.iter_mut().for_each(|p| p.bump(e.what));
            }
        }
    }
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.events, per[i], "app {i}: its share of the stream");
        assert_eq!(r.events.faults, r.faults, "app {i}: faults");
    }
    let whole = whole.get();
    let additive: [fn(&EventCounts) -> u64; 12] = [
        |e| e.faults,
        |e| e.demand_loads,
        |e| e.preload_starts,
        |e| e.preload_dones,
        |e| e.background_evictions,
        |e| e.foreground_evictions,
        |e| e.preload_aborts,
        |e| e.sip_loads,
        |e| e.sip_prefetch_starts,
        |e| e.faults_resolved,
        |e| e.preload_hits,
        |e| e.stream_predictions,
    ];
    for (k, tally) in additive.iter().enumerate() {
        let summed: u64 = reports.iter().map(|r| tally(&r.events)).sum();
        assert_eq!(summed, tally(&whole), "additive tally #{k}");
    }
}

/// The JSONL writer agrees with the collecting sink on the same run.
#[test]
fn jsonl_sink_agrees_with_collector() {
    let c = cfg();
    let path = std::env::temp_dir().join("sgx_obs_jsonl_test.jsonl");
    let _ = std::fs::remove_file(&path);
    let (collector, events) = CollectingSink::new();
    let writer = JsonlWriterSink::create(&path).unwrap();
    SimRun::new(&c)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
        .sink(Box::new(collector))
        .sink(Box::new(writer))
        .run_one()
        .unwrap();
    let events = events.borrow();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), events.len());
    let _ = std::fs::remove_file(&path);
}

//! The record/replay differential battery.
//!
//! Every paper benchmark is recorded in full, round-tripped through the
//! compact binary `.sgxt` format *on disk*, and replayed through the
//! campaign engine under every kernel scheme. The replayed grid's
//! canonical JSON must be byte-identical to the generator grid's — at
//! one worker and at four.

use sgx_preloading::prelude::*;

/// Records each paper benchmark's full Ref stream, writes it to `.sgxt`
/// on disk, reads it back, and wraps it for replay.
fn roundtripped_replays(dir: &std::path::Path, cfg: &SimConfig) -> Vec<TraceReplay> {
    Benchmark::PAPER
        .iter()
        .map(|&bench| {
            let trace =
                RecordedTrace::record(bench.build(InputSet::Ref, cfg.scale, cfg.seed), usize::MAX);
            let path = dir.join(format!("{}.sgxt", bench.name()));
            trace.write_sgxt(&path).expect("write .sgxt");
            let loaded = RecordedTrace::read_sgxt(&path).expect("read .sgxt back");
            assert_eq!(
                loaded.accesses(),
                trace.accesses(),
                "{} did not survive the .sgxt disk round-trip",
                bench.name()
            );
            TraceReplay::of_benchmark(bench, loaded)
        })
        .collect()
}

#[test]
fn replayed_sgxt_grids_match_generator_grids_at_any_worker_count() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    let dir = std::env::temp_dir().join("sgx_trace_replay_battery");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let replays = roundtripped_replays(&dir, &cfg);

    // Every cell runs at the campaign seed, the seed the traces were
    // recorded at.
    let generator = Campaign::grid("battery", cfg.seed, &Benchmark::PAPER, &Scheme::ALL, cfg)
        .run_serial()
        .expect("generator grid")
        .to_canonical_json();

    let replay_campaign = Campaign::grid("battery", cfg.seed, &replays, &Scheme::ALL, cfg);
    let replayed_serial = replay_campaign
        .run_serial()
        .expect("replay grid, serial")
        .to_canonical_json();
    let replayed_parallel = replay_campaign
        .run_with_jobs(4)
        .expect("replay grid, 4 workers")
        .to_canonical_json();

    assert_eq!(
        generator, replayed_serial,
        "serial replay diverged from the generator grid"
    );
    assert_eq!(
        generator, replayed_parallel,
        "4-worker replay diverged from the generator grid"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// The CSV leg of the losslessness contract at engine level: a trace
/// converted `.sgxt` → CSV → `.sgxt` replays to the identical report.
#[test]
fn csv_converted_traces_replay_identically() {
    let cfg = SimConfig::at_scale(Scale::new(64));
    let bench = Benchmark::KvStore;
    let trace = RecordedTrace::record(bench.build(InputSet::Ref, cfg.scale, cfg.seed), usize::MAX);
    let via_csv = RecordedTrace::from_csv(&trace.to_csv()).expect("csv round-trip");
    let via_sgxt = RecordedTrace::from_sgxt(&via_csv.to_sgxt()).expect("sgxt round-trip");
    let direct = SimRun::new(&cfg)
        .scheme(Scheme::Hybrid)
        .bench(bench)
        .run_one()
        .expect("direct run");
    let replayed = SimRun::new(&cfg)
        .scheme(Scheme::Hybrid)
        .replay(TraceReplay::of_benchmark(bench, via_sgxt))
        .run_one()
        .expect("replayed run");
    assert_eq!(direct, replayed);
}

/// A source-declared trace with one page past its benchmark's ELRANGE
/// fails the run before any kernel exists, under every kind of scheme,
/// and fails a campaign cell the same way; anonymous, it runs.
#[test]
fn a_trace_outside_its_source_elrange_is_a_structured_error() {
    let cfg = SimConfig::at_scale(Scale::DEV);
    let bench = Benchmark::Mcf;
    let mut trace = RecordedTrace::record(bench.build(InputSet::Ref, cfg.scale, cfg.seed), 500)
        .accesses()
        .to_vec();
    let mut stray = trace[0];
    stray.page = sgx_preloading::VirtPage::new(20_000);
    trace.push(stray);
    let trace = RecordedTrace::from_accesses(trace);
    let want = SimError::Elrange(sgx_preloading::ElrangeError {
        page: 20_000,
        bench,
        elrange_pages: bench.elrange_pages(cfg.scale),
    });
    let replay = TraceReplay::of_benchmark(bench, trace.clone());
    for scheme in [Scheme::Baseline, Scheme::Hybrid, Scheme::UserLevel] {
        let got = SimRun::new(&cfg)
            .scheme(scheme)
            .replay(replay.clone())
            .run_one();
        assert_eq!(got.err(), Some(want), "{scheme}");
    }
    let err = Campaign::grid("elrange", 7, &[replay], &[Scheme::Dfp], cfg)
        .run()
        .expect_err("the replay cell fails");
    assert_eq!(err.source, want);
    SimRun::new(&cfg)
        .replay(TraceReplay::new("capture", trace))
        .run_one()
        .expect("an anonymous replay sizes its ELRANGE to fit");
}

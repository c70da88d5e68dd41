//! Chrome-trace export regression tests (DESIGN.md §4.3).
//!
//! Three rendered traces are pinned as golden files under `tests/golden/`
//! (regenerate with `SGX_GOLDEN_UPDATE=1 cargo test --test chrome_trace`):
//! one fixed small run; a small two-enclave SIP+DFP run; and a hand-built
//! stream with the shapes a kernel never emits. `ChromeTraceSink`'s render
//! thread writes each record as soon as the stream decides it, in memory
//! and streamed to a writer that takes a few bytes per call. Campaign timeline files are
//! byte-identical regardless of worker count, and every flow arrow the
//! renderer draws references two emitted spans.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use sgx_preloading::kernel::{EventKind, LoggedEvent};
use sgx_preloading::prelude::*;
use sgx_preloading::{
    render_chrome_trace, ChromeTraceSink, CollectingSink, SpanId, TraceSink, VirtPage,
};

const UPDATE_ENV: &str = "SGX_GOLDEN_UPDATE";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Runs `run` with a collecting sink and returns its event stream.
fn events_of(run: SimRun<'_>) -> Vec<LoggedEvent> {
    let (sink, collected) = CollectingSink::new();
    run.sink(Box::new(sink)).run().expect("the run succeeds");
    let events = collected.borrow().clone();
    events
}

/// The fixed small run the golden trace pins: DFP on the microbenchmark,
/// tiny scale — a few hundred events with faults, preloads and hits.
fn small_run(cfg: &SimConfig) -> SimRun<'_> {
    SimRun::new(cfg)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
}

fn small_run_events() -> Vec<LoggedEvent> {
    events_of(small_run(&SimConfig::at_scale(Scale::new(16_384))))
}

/// A small two-enclave SIP+DFP run: deepsjeng and mcf share one kernel,
/// so the trace has two enclave lanes, and SIP's blocking loads evict.
fn two_enclave_run_events() -> Vec<LoggedEvent> {
    let cfg = SimConfig::at_scale(Scale::new(16_384));
    events_of(
        SimRun::new(&cfg)
            .scheme(Scheme::Hybrid)
            .bench(Benchmark::Deepsjeng)
            .bench(Benchmark::Mcf),
    )
}

/// Compares `got` with the golden `name`, or rewrites the golden when
/// [`UPDATE_ENV`] is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os(UPDATE_ENV).is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, got).expect("write golden trace");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {path:?} ({e}); regenerate with {UPDATE_ENV}=1")
    });
    assert!(
        got == want,
        "{name} diverged from the golden; if intentional, regenerate with \
         {UPDATE_ENV}=1"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    assert_golden(
        "timeline_small.chrome.json",
        &render_chrome_trace(&small_run_events()),
    );
}

/// The two-enclave run's `sip_load` allocates its `SipLoaded` span before
/// the blocking load evicts, so an `evict-fg` with a larger id, whose
/// parent is that span, precedes the `sip-loaded` it served: span ids
/// appear out of order, and the eviction's record waits for its parent.
#[test]
fn two_enclave_sip_dfp_trace_matches_golden() {
    let events = two_enclave_run_events();
    let (evict, loaded) = events
        .windows(2)
        .find(|w| {
            w[0].what == EventKind::EvictForeground
                && w[1].what == EventKind::SipLoaded
                && w[0].parent == Some(w[1].span)
                && w[0].span > w[1].span
        })
        .map(|w| (w[0], w[1]))
        .expect("a SIP load evicts before it logs");
    let lanes: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.page.map(|p| p.raw() >> 24))
        .collect();
    assert_eq!(lanes, [0, 1].into(), "both enclaves fault");
    let json = render_chrome_trace(&events);
    // The arrow leaves the `sip-loaded` span, logged after its child, on
    // the enclave's lane, and lands on the eviction in the channel lane.
    let (id, lane) = (
        evict.span.raw(),
        1 + (loaded.page.expect("a page").raw() >> 24),
    );
    let arrow = format!(
        "{{\"ph\":\"s\",\"pid\":1,\"tid\":{lane},\"ts\":{},\"id\":{id},\"name\":\"cause\",\
         \"cat\":\"flow\"}},\n{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":0,\"ts\":{},\"id\":{id},",
        loaded.at.raw(),
        evict.at.raw()
    );
    assert!(json.contains(&arrow), "no arrow from span {}", loaded.span);
    assert_golden("timeline_two_enclave.chrome.json", &json);
}

/// A kernel allocates span ids from one counter starting at 1 and logs
/// every id it allocates, so no id exceeds the stream's event count.
#[test]
fn kernel_span_ids_never_exceed_the_event_count() {
    for events in [small_run_events(), two_enclave_run_events()] {
        let max = events.iter().map(|e| e.span.raw()).max().expect("events");
        assert!(max >= 1 && max <= events.len() as u64, "{max}");
    }
}

/// A hand-built stream with what a kernel never emits: span ids above
/// the event count (1000 is emitted and is a parent; 77777 is only ever
/// a parent), ids out of first-appearance order, span id 0, dangling
/// parents, closes with no opener, a second close, a close before its
/// opener, and pages in two enclaves, the second one seen first.
fn foreign_events() -> Vec<LoggedEvent> {
    let e1 = 1u64 << 24; // enclave 1's ELRANGE base
    [
        (2, EventKind::PreloadHit, Some(e1 + 12), Some(1), 11, None),
        (5, EventKind::Fault, Some(3), None, 4, None),
        (6, EventKind::StreamPredicted, Some(3), Some(2), 2, Some(4)),
        (7, EventKind::PreloadStart, Some(4), None, 1000, Some(2)),
        (8, EventKind::PreloadStart, Some(5), None, 3, Some(2)),
        (9, EventKind::FaultResolved, Some(3), Some(4), 4, None),
        (20, EventKind::PreloadDone, Some(4), None, 1000, Some(2)),
        (21, EventKind::PreloadHit, Some(4), Some(1), 7, Some(1000)),
        (
            22,
            EventKind::FaultResolved,
            Some(e1 + 9),
            Some(50),
            6,
            None,
        ),
        (
            23,
            EventKind::DemandLoaded,
            Some(e1 + 9),
            None,
            5,
            Some(77_777),
        ),
        (24, EventKind::Fault, Some(e1 + 10), None, 0, Some(9)),
        (
            30,
            EventKind::FaultResolved,
            Some(e1 + 10),
            Some(6),
            0,
            None,
        ),
        (
            31,
            EventKind::FaultResolved,
            Some(e1 + 10),
            Some(7),
            0,
            None,
        ),
        (
            35,
            EventKind::EvictBackground,
            Some(e1 + 11),
            Some(3),
            1 << 40,
            None,
        ),
        (36, EventKind::PreloadDone, Some(5), None, 3, Some(2)),
        (50, EventKind::PreloadDone, Some(6), None, 10, None),
        (51, EventKind::PreloadStart, Some(6), None, 10, None),
        (60, EventKind::RunEnd, None, Some(60), 8, None),
    ]
    .into_iter()
    .map(|(at, what, page, value, span, parent)| LoggedEvent {
        at: Cycles::new(at),
        what,
        page: page.map(VirtPage::new),
        value,
        span: SpanId::new(span),
        parent: parent.map(SpanId::new),
    })
    .collect()
}

#[test]
fn foreign_stream_trace_matches_golden() {
    let events = foreign_events();
    assert!(events.iter().any(|e| e.span.raw() > events.len() as u64));
    assert_golden(
        "timeline_foreign.chrome.json",
        &render_chrome_trace(&events),
    );
}

/// A writer that takes at most 7 bytes per call, so every record is split
/// across many short writes.
struct Trickle(Vec<u8>);

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(7);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The 7-byte trickle behind a shared handle, so a sink subscribed to a
/// run, whose render thread owns its writer, leaves bytes the test can
/// read back.
struct SharedTrickle(Arc<Mutex<Trickle>>);

impl Write for SharedTrickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("no writer panics").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink subscribed to the small run itself, as `timeline --chrome-out`
/// subscribes one, streams the golden bytes through the 7-byte trickle.
#[test]
fn streamed_render_through_short_writes_matches_golden() {
    let out = Arc::new(Mutex::new(Trickle(Vec::new())));
    let sink = Rc::new(RefCell::new(ChromeTraceSink::new(SharedTrickle(
        Arc::clone(&out),
    ))));
    let feed = Rc::clone(&sink);
    small_run(&SimConfig::at_scale(Scale::new(16_384)))
        .sink(Box::new(move |e: &LoggedEvent| {
            feed.borrow_mut().on_event(e)
        }))
        .run_one()
        .expect("the run succeeds");
    sink.borrow_mut().finish().expect("a trickle never fails");
    let want = std::fs::read(golden_path("timeline_small.chrome.json")).expect("golden trace");
    assert!(
        out.lock().unwrap().0 == want,
        "streamed chrome trace diverged from the golden"
    );
}

/// The render streams its records to the writer: every golden stream fed
/// through the sink into the 7-byte trickle gives the golden bytes.
#[test]
fn sink_render_matches_every_golden() {
    for (name, events) in [
        ("timeline_small.chrome.json", small_run_events()),
        ("timeline_two_enclave.chrome.json", two_enclave_run_events()),
        ("timeline_foreign.chrome.json", foreign_events()),
    ] {
        let want = std::fs::read(golden_path(name)).expect("golden trace");
        let mut sink = ChromeTraceSink::new(Trickle(Vec::new()));
        for e in &events {
            sink.on_event(e);
        }
        let trickle = sink.into_inner().expect("a trickle never fails");
        assert!(
            trickle.0 == want,
            "{name}: the sink's trickled render diverged"
        );
    }
}

/// A writer whose every write fails (its flush succeeds, so only the
/// render's own error can reach the caller).
struct Broken;

impl Write for Broken {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("disk full"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn chrome_sink_reports_a_failing_writer_without_panicking() {
    let mut sink = ChromeTraceSink::new(Broken);
    for e in &small_run_events() {
        sink.on_event(e);
    }
    let err = sink.finish().expect_err("the writer fails");
    assert_eq!(err.to_string(), "disk full");
    sink.finish().expect("a second finish is a no-op");
    drop(sink);
}

/// Pulls the `"id":N` field out of a rendered flow-arrow line.
fn flow_id(line: &str) -> u64 {
    let at = line.find("\"id\":").expect("flow line carries an id") + 5;
    line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("id is a number")
}

#[test]
fn every_flow_arrow_references_two_emitted_spans() {
    let events = small_run_events();
    let emitted: BTreeSet<u64> = events.iter().map(|e| e.span.raw()).collect();
    let json = render_chrome_trace(&events);

    let mut starts: Vec<u64> = Vec::new();
    let mut finishes: Vec<u64> = Vec::new();
    for line in json.lines() {
        if line.contains("\"ph\":\"s\"") {
            starts.push(flow_id(line));
        } else if line.contains("\"ph\":\"f\"") {
            finishes.push(flow_id(line));
        }
    }
    assert!(!starts.is_empty(), "a DFP run draws causal arrows");
    assert_eq!(
        starts, finishes,
        "every flow start pairs with a finish carrying the same id, in order"
    );
    for id in &starts {
        // The arrow's id is the child span; it and its parent were both
        // emitted (the renderer drops links to spans absent from the
        // stream).
        assert!(emitted.contains(id), "flow id {id} was never emitted");
        let child = events
            .iter()
            .find(|e| e.span.raw() == *id && e.parent.is_some())
            .unwrap_or_else(|| panic!("flow id {id} has no event with a parent"));
        let parent = child.parent.expect("filtered above").raw();
        assert!(
            emitted.contains(&parent),
            "flow {id} parent {parent} missing"
        );
    }
}

/// The golden run's event stream itself is well-formed: it ends with the
/// one and only `RunEnd`, and every parent link resolves.
#[test]
fn small_run_stream_is_well_formed() {
    let events = small_run_events();
    let emitted: BTreeSet<u64> = events.iter().map(|e| e.span.raw()).collect();
    for e in &events {
        if let Some(p) = e.parent {
            assert!(emitted.contains(&p.raw()), "{} parent unresolved", e.what);
        }
    }
    let run_ends = events
        .iter()
        .filter(|e| e.what == EventKind::RunEnd)
        .count();
    assert_eq!(run_ends, 1);
    assert_eq!(events.last().expect("non-empty").what, EventKind::RunEnd);
}

fn timeline_campaign(dir: &Path) -> Campaign {
    Campaign::grid(
        "timelined",
        11,
        &[Benchmark::Microbenchmark],
        &[Scheme::Baseline, Scheme::Dfp],
        SimConfig::at_scale(Scale::new(16_384)),
    )
    .with_timeline_dir(dir)
}

/// `Campaign::with_timeline_dir` drops one chrome trace and one gauge
/// series per cell, named by cell index + label, with identical bytes no
/// matter how many workers ran the grid.
#[test]
fn campaign_timeline_files_are_stable_under_jobs() {
    let base =
        std::env::temp_dir().join(format!("sgx_chrome_trace_jobs_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let serial_dir = base.join("serial");
    let jobs_dir = base.join("jobs");
    timeline_campaign(&serial_dir)
        .run_serial()
        .expect("serial campaign run failed");
    timeline_campaign(&jobs_dir)
        .run_with_jobs(4)
        .expect("parallel campaign run failed");

    let names = |dir: &Path| -> Vec<String> {
        let mut v: Vec<String> = std::fs::read_dir(dir)
            .expect("timeline dir created")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        v.sort();
        v
    };
    let serial = names(&serial_dir);
    assert_eq!(
        serial,
        [
            "000_microbenchmark-baseline.chrome.json",
            "000_microbenchmark-baseline.series.csv",
            "001_microbenchmark-DFP.chrome.json",
            "001_microbenchmark-DFP.series.csv",
        ]
    );
    assert_eq!(serial, names(&jobs_dir));
    for name in &serial {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(jobs_dir.join(name)).unwrap();
        assert_eq!(a, b, "{name}: bytes diverged between serial and 4 workers");
        if name.ends_with(".chrome.json") {
            let text = String::from_utf8(a).expect("trace is UTF-8");
            assert!(text.starts_with("{\"displayTimeUnit\""), "{name}");
            assert!(text.trim_end().ends_with("]}"), "{name}: truncated");
        } else {
            let text = String::from_utf8(a).expect("series is UTF-8");
            assert!(text.starts_with("at,epc_resident,"), "{name}: header");
            assert!(text.lines().count() > 1, "{name}: no samples");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

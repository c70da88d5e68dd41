//! Property tests of the Chrome trace export over random hand-built
//! streams: span and parent ids at 0 and `u64::MAX` and far past the event
//! count, `at`, `page` and `value` at both extremes, timestamps that go
//! backwards, closes before their opens and repeated closes, dangling and
//! forward parents, and pages in several ELRANGEs.
//!
//! `ChromeTraceSink`'s log decodes to exactly the events it was fed, and
//! the sink renders what a plainly written reference render of the format
//! says.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use proptest::prelude::*;

use sgx_epc::VirtPage;
use sgx_kernel::{ChromeTraceSink, EventKind, LoggedEvent, SpanId, TraceSink};
use sgx_sim::Cycles;

/// Span ids: mostly a small pool, so one span's opens, closes and child
/// links meet in random order; then ids a flat table reaches only once the
/// stream is long, ids far past any event count, and both extremes.
fn span_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..24,
        0u64..24,
        0u64..24,
        1_000u64..1_300,
        (1u64 << 40)..(1u64 << 40) + 4,
        Just(0),
        Just(u64::MAX),
    ]
}

/// A value at either extreme or anywhere, else small.
fn edgy(small: u64) -> impl Strategy<Value = u64> {
    prop_oneof![0..small, 0..small, Just(0), Just(u64::MAX), any::<u64>()]
}

/// Every kind, weighted towards the ones that open and close spans.
fn kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0..EventKind::ALL.len()).prop_map(|i| EventKind::ALL[i]),
        Just(EventKind::Fault),
        Just(EventKind::FaultResolved),
        Just(EventKind::PreloadStart),
        Just(EventKind::PreloadDone),
    ]
}

/// A page in one of four ELRANGEs (spaced 2^24 pages apart), or at either
/// extreme, or none.
fn page() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        (0u64..4, 0u64..64).prop_map(|(range, at)| Some((range << 24) + at)),
        (0u64..4, 0u64..64).prop_map(|(range, at)| Some((range << 24) + at)),
        Just(Some(0)),
        Just(Some(u64::MAX)),
    ]
}

fn event() -> impl Strategy<Value = LoggedEvent> {
    (
        edgy(64),
        kind(),
        page(),
        prop_oneof![Just(None), edgy(100_000).prop_map(Some)],
        span_id(),
        prop_oneof![Just(None), span_id().prop_map(Some)],
    )
        .prop_map(|(at, what, page, value, span, parent)| LoggedEvent {
            at: Cycles::new(at),
            what,
            page: page.map(VirtPage::new),
            value,
            span: SpanId::new(span),
            parent: parent.map(SpanId::new),
        })
}

/// The Chrome trace of `events`, written plainly from the format's
/// definition (DESIGN.md §4.3): sorted lanes in the header, an opening
/// event as a duration to its span's first close, that close folded into
/// it, and one flow arrow per link to an emitted parent, anchored at the
/// parent's first event.
fn reference_render(events: &[LoggedEvent]) -> String {
    use EventKind::*;
    let lane = |e: &LoggedEvent| match e.what {
        PreloadStart | PreloadDone | SipPrefetchStart | EvictBackground | EvictForeground => 0,
        _ => e.page.map_or(0, |p| 1 + (p.raw() >> 24)),
    };
    let opens = |k| matches!(k, Fault | PreloadStart | SipPrefetchStart);
    let closes = |k| matches!(k, FaultResolved | PreloadDone);

    let mut lanes = BTreeSet::from([0]);
    let mut anchor = BTreeMap::new();
    let mut first_close = BTreeMap::new();
    let mut opened = BTreeSet::new();
    for e in events {
        let s = e.span.raw();
        lanes.insert(lane(e));
        anchor.entry(s).or_insert((e.at.raw(), lane(e)));
        if opens(e.what) {
            opened.insert(s);
        }
        if closes(e.what) {
            first_close.entry(s).or_insert(e.at.raw());
        }
    }

    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}}",
    );
    for &l in &lanes {
        let name = match l {
            0 => "load channel".to_string(),
            _ => format!("enclave {}", l - 1),
        };
        write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{l},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
        .unwrap();
    }
    for e in events {
        let (s, at, l) = (e.span.raw(), e.at.raw(), lane(e));
        let close = first_close.get(&s).copied();
        if closes(e.what) && close == Some(at) && opened.contains(&s) {
            continue;
        }
        match close.filter(|_| opens(e.what)) {
            Some(done) => write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{l},\"ts\":{at},\"dur\":{}",
                done.saturating_sub(at)
            ),
            None => write!(
                out,
                ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{l},\"ts\":{at},\"s\":\"t\""
            ),
        }
        .unwrap();
        write!(
            out,
            ",\"name\":\"{}\",\"args\":{{\"span\":{s}",
            e.what.name()
        )
        .unwrap();
        if let Some(p) = e.parent {
            write!(out, ",\"parent\":{}", p.raw()).unwrap();
        }
        if let Some(p) = e.page {
            write!(out, ",\"page\":{}", p.raw()).unwrap();
        }
        if let Some(v) = e.value {
            write!(out, ",\"value\":{v}").unwrap();
        }
        out.push_str("}}");
        if let Some((pts, ptid)) = e.parent.and_then(|p| anchor.get(&p.raw())) {
            write!(
                out,
                ",\n{{\"ph\":\"s\",\"pid\":1,\"tid\":{ptid},\"ts\":{pts},\"id\":{s},\
                 \"name\":\"cause\",\"cat\":\"flow\"}},\n\
                 {{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":{l},\"ts\":{at},\"id\":{s},\
                 \"name\":\"cause\",\"cat\":\"flow\"}}"
            )
            .unwrap();
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders `events` through a sink, checking on the way that the sink's
/// log gives the events back.
fn check_stream(events: &[LoggedEvent]) -> Result<(), TestCaseError> {
    let mut from_sink = Vec::new();
    let mut sink = ChromeTraceSink::new(&mut from_sink);
    for e in events {
        sink.on_event(e);
    }
    let logged: Vec<LoggedEvent> = sink.events().collect();
    prop_assert!(logged == events, "the log decodes to other events");
    sink.finish().expect("a Vec never fails");
    drop(sink);
    let want = reference_render(events);
    prop_assert_eq!(String::from_utf8(from_sink).expect("UTF-8"), want);
    Ok(())
}

proptest! {
    #[test]
    fn sink_renders_what_the_reference_says(
        events in proptest::collection::vec(event(), 0..160),
    ) {
        check_stream(&events)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Long streams cross the log's and the span table's chunk
    /// boundaries. Span ids run near the event index, as a kernel's do,
    /// so the table reaches past its first chunk of 65,536 ids; one event
    /// in sixteen takes a random id instead.
    #[test]
    fn long_streams_cross_chunk_boundaries(
        events in proptest::collection::vec((event(), 0u64..16), 70_000..70_001),
    ) {
        let events: Vec<LoggedEvent> = events
            .into_iter()
            .zip(1u64..)
            .map(|((mut e, jitter), i)| {
                if jitter != 0 {
                    e.span = SpanId::new(i + jitter);
                    e.parent = e.parent.map(|_| SpanId::new(i.saturating_sub(jitter)));
                }
                e
            })
            .collect();
        check_stream(&events)?;
    }
}

//! Property tests of the Chrome trace export over random hand-built
//! streams: span and parent ids at 0 and `u64::MAX` and far past the event
//! count, `at`, `page` and `value` at both extremes, timestamps that go
//! backwards, closes before their opens and repeated closes, dangling and
//! forward parents, and pages in several ELRANGEs or anywhere.
//!
//! `ChromeTraceSink`, whose render thread writes each record as soon as
//! the stream decides it, renders what a plainly written reference render
//! of the whole stream says.

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
/// extreme, or anywhere (a lane of its own, so long streams use hundreds
/// of lanes), or none.
fn page() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        (0u64..4, 0u64..64).prop_map(|(range, at)| Some((range << 24) + at)),
        (0u64..4, 0u64..64).prop_map(|(range, at)| Some((range << 24) + at)),
        Just(Some(0)),
        Just(Some(u64::MAX)),
        any::<u64>().prop_map(Some),
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
/// definition (DESIGN.md §4.3) over the whole stream: one record per
/// event in stream order, after the process record and the load channel's
/// name, with every other lane named just before the first record on it;
/// an opener as a duration to the next close of its span; a close that
/// finds an opener of its span waiting (one that no close has followed)
/// folded into it; every other event as an instant; and one flow arrow
/// per link to a parent that appears anywhere in the stream, anchored at
/// the parent's first event.
fn reference_render(events: &[LoggedEvent]) -> String {
    use EventKind::*;
    let lane = |e: &LoggedEvent| match e.what {
        PreloadStart | PreloadDone | SipPrefetchStart | EvictBackground | EvictForeground => 0,
        _ => e.page.map_or(0, |p| 1 + (p.raw() >> 24)),
    };
    let opens = |k| matches!(k, Fault | PreloadStart | SipPrefetchStart);
    let closes = |k| matches!(k, FaultResolved | PreloadDone);

    let mut anchor = BTreeMap::new();
    for e in events {
        anchor.entry(e.span.raw()).or_insert((e.at.raw(), lane(e)));
    }
    // Each opener's next close of its span, from the stream's end back.
    let mut next_close = BTreeMap::new();
    let mut close_of = vec![None; events.len()];
    for (i, e) in events.iter().enumerate().rev() {
        if closes(e.what) {
            next_close.insert(e.span.raw(), e.at.raw());
        } else if opens(e.what) {
            close_of[i] = next_close.get(&e.span.raw()).copied();
        }
    }

    let mut out = String::from(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}},\n\
         {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"load channel\"}}",
    );
    let mut named = BTreeSet::from([0]);
    let mut name = |out: &mut String, l: u64| {
        if named.insert(l) {
            write!(
                out,
                ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{l},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"enclave {}\"}}}}",
                l - 1
            )
            .unwrap();
        }
    };
    let mut waiting = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        let (s, at, l) = (e.span.raw(), e.at.raw(), lane(e));
        if opens(e.what) {
            waiting.insert(s);
        }
        if closes(e.what) && waiting.remove(&s) {
            continue;
        }
        name(&mut out, l);
        match close_of[i] {
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
        if let Some(&(pts, ptid)) = e.parent.and_then(|p| anchor.get(&p.raw())) {
            name(&mut out, ptid);
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

/// Renders `events` through a sink and compares the bytes with the
/// reference render.
fn check_stream(events: &[LoggedEvent]) -> Result<(), TestCaseError> {
    let mut sink = ChromeTraceSink::new(Vec::new());
    for e in events {
        sink.on_event(e);
    }
    let from_sink = sink.into_inner().expect("a Vec never fails");
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

    /// Long streams cross the anchor table's chunks of 4,096 ids, widen
    /// some chunks' timestamps, and use more lanes than the table's byte
    /// per id can name. Span ids run near the event index, as a kernel's
    /// do, so the table reaches far past its first chunk; one event in
    /// sixteen takes a random id instead.
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

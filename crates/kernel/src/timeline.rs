//! Timeline exports over the causal span stream: per-subsystem cycle
//! attribution, Chrome trace-event JSON (perfetto-loadable), and periodic
//! gauge sampling into a compact series.
//!
//! Everything here consumes the same [`LoggedEvent`] stream every other
//! sink sees — the kernel computes nothing extra for an unobserved run —
//! plus, for [`TimeSeriesSink`], the [`GaugeSample`] callbacks the kernel
//! emits when a sampling interval is configured
//! ([`Kernel::set_sample_interval`](crate::Kernel::set_sample_interval)).

use std::io::{self, Write};

use sgx_sim::json::{self, Value};
use sgx_sim::Cycles;

use crate::{EventKind, LoggedEvent, TraceSink};

/// A run's total cycles split into named buckets, one per paging
/// subsystem, with the invariant that the buckets sum exactly to the
/// run's total cycles (`app_compute` is the residual).
///
/// The stall-side buckets (`demand_fault`, `aex_eresume`, `channel_wait`)
/// partition the cycles the application spent blocked in fault handling
/// and blocking SIP loads; the channel-side buckets (`preload_work`,
/// `wasted_preload`, `clock_scan`, `eviction`) count background channel
/// cycles *clipped* of any portion an application stall already paid for,
/// so no cycle is counted twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleAttribution {
    /// Residual: cycles the application spent computing inside the
    /// enclave (total minus every overhead bucket).
    pub app_compute: u64,
    /// Blocking load service on the application's critical path: the OS
    /// fault path plus demand/SIP ELDU cycles.
    pub demand_fault: u64,
    /// World-switch overhead: AEX + ERESUME, per fault.
    pub aex_eresume: u64,
    /// Cycles a blocked application waited for the non-preemptible load
    /// channel (in-flight completions and channel acquisition).
    pub channel_wait: u64,
    /// Channel cycles spent on preloads/prefetches whose page was touched
    /// (useful speculation).
    pub preload_work: u64,
    /// Channel cycles spent on preloads/prefetches evicted or abandoned
    /// untouched (wasted speculation).
    pub wasted_preload: u64,
    /// Replacement-scan stall cycles (zero under the paper's cost model,
    /// which prices CLOCK sweeps at zero; chaos scan stalls land here).
    pub clock_scan: u64,
    /// EWB cycles spent writing victims back (foreground and background).
    pub eviction: u64,
}

impl CycleAttribution {
    /// Sum of every bucket; equals the run's total cycles by construction.
    pub fn total(&self) -> u64 {
        self.buckets().iter().map(|&(_, v)| v).sum()
    }

    /// Every named overhead bucket as `(name, cycles)`, in schema order
    /// (`app_compute` first).
    pub fn buckets(&self) -> [(&'static str, u64); 8] {
        [
            ("app_compute", self.app_compute),
            ("demand_fault", self.demand_fault),
            ("aex_eresume", self.aex_eresume),
            ("channel_wait", self.channel_wait),
            ("preload_work", self.preload_work),
            ("wasted_preload", self.wasted_preload),
            ("clock_scan", self.clock_scan),
            ("eviction", self.eviction),
        ]
    }

    /// Appends the attribution as a JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            for (name, v) in self.buckets() {
                o.field(name, v);
            }
        });
    }
}

impl std::fmt::Display for CycleAttribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total().max(1);
        let pct = |v: u64| 100.0 * v as f64 / total as f64;
        write!(
            f,
            "compute {:.1}% | demand-fault {:.1}% | aex/eresume {:.1}% | \
             channel-wait {:.1}% | preload {:.1}% | wasted {:.1}% | \
             scan {:.1}% | evict {:.1}%",
            pct(self.app_compute),
            pct(self.demand_fault),
            pct(self.aex_eresume),
            pct(self.channel_wait),
            pct(self.preload_work),
            pct(self.wasted_preload),
            pct(self.clock_scan),
            pct(self.eviction),
        )
    }
}

/// A point-in-time snapshot of the kernel's gauges, delivered to
/// [`TraceSink::on_sample`] every configured sampling interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// The simulated instant of the sample.
    pub at: Cycles,
    /// EPC pages resident.
    pub epc_resident: u64,
    /// EPC slots free.
    pub epc_free: u64,
    /// Pages waiting on the DFP preload queues (global + per-tenant).
    pub queue_depth: u64,
    /// Pages waiting on the SIP early-notify queue.
    pub sip_queue_depth: u64,
    /// Live prediction streams tracked by the predictor.
    pub live_streams: u64,
    /// Whether the kernel-global DFP-stop valve has latched (0 or 1).
    pub valve_stops: u64,
    /// Cumulative load-channel busy cycles.
    pub channel_busy: Cycles,
    /// Cumulative fault count.
    pub faults: u64,
    /// Cumulative preload starts.
    pub preloads_started: u64,
    /// Cumulative replacement-policy scan steps.
    pub scan_steps: u64,
    /// Resident pages per tenant extent, in registration order.
    pub tenant_resident: Vec<u64>,
}

impl GaugeSample {
    /// Every scalar gauge as `(name, value)`, in series column order.
    fn gauges(&self) -> [(&'static str, u64); 11] {
        [
            ("at", self.at.raw()),
            ("epc_resident", self.epc_resident),
            ("epc_free", self.epc_free),
            ("queue_depth", self.queue_depth),
            ("sip_queue_depth", self.sip_queue_depth),
            ("live_streams", self.live_streams),
            ("valve_stops", self.valve_stops),
            ("channel_busy", self.channel_busy.raw()),
            ("faults", self.faults),
            ("preloads_started", self.preloads_started),
            ("scan_steps", self.scan_steps),
        ]
    }
}

/// Output encoding for [`TimeSeriesSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesFormat {
    /// One CSV row per sample, header first; `tenant_resident` is a
    /// `|`-joined list in the last column.
    Csv,
    /// A JSON array of sample objects.
    Json,
}

/// Streams [`GaugeSample`]s into a compact CSV or JSON series.
///
/// Ignores ordinary events; only sampled gauges are written. The JSON
/// array is closed by [`TimeSeriesSink::finish`] (called from `Drop` if
/// not called explicitly). Write errors are latched: the first failure
/// stops further output and is reported by `finish`.
pub struct TimeSeriesSink<W: Write> {
    out: Option<W>,
    format: SeriesFormat,
    samples: u64,
    error: Option<io::Error>,
    // One row's bytes, reused across samples.
    row: String,
}

impl TimeSeriesSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams samples into it.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>, format: SeriesFormat) -> io::Result<Self> {
        Ok(Self::new(
            io::BufWriter::new(std::fs::File::create(path)?),
            format,
        ))
    }
}

impl<W: Write> TimeSeriesSink<W> {
    /// Wraps `out`; samples are appended in `format`.
    pub fn new(out: W, format: SeriesFormat) -> Self {
        TimeSeriesSink {
            out: Some(out),
            format,
            samples: 0,
            error: None,
            row: String::new(),
        }
    }

    /// Samples written so far.
    pub fn written(&self) -> u64 {
        self.samples
    }

    fn try_write(&mut self, sample: &GaugeSample) -> io::Result<()> {
        use std::fmt::Write as _;

        let Some(out) = self.out.as_mut() else {
            return Ok(());
        };
        let row = &mut self.row;
        row.clear();
        match self.format {
            SeriesFormat::Csv => {
                if self.samples == 0 {
                    for (name, _) in sample.gauges() {
                        row.push_str(name);
                        row.push(',');
                    }
                    row.push_str("tenant_resident\n");
                }
                for (_, v) in sample.gauges() {
                    let _ = write!(row, "{v},");
                }
                for (i, t) in sample.tenant_resident.iter().enumerate() {
                    let _ = write!(row, "{}{t}", if i == 0 { "" } else { "|" });
                }
                row.push('\n');
            }
            SeriesFormat::Json => {
                row.push_str(if self.samples == 0 { "[\n" } else { ",\n" });
                json::obj(row, |o| {
                    for (name, v) in sample.gauges() {
                        o.field(name, v);
                    }
                    o.arr(
                        "tenant_resident",
                        &sample.tenant_resident,
                        Value::write_value,
                    );
                });
            }
        }
        out.write_all(row.as_bytes())?;
        self.samples += 1;
        Ok(())
    }

    /// Closes the series (terminates the JSON array) and flushes.
    ///
    /// # Errors
    ///
    /// Reports the first latched write error, if any.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            self.out = None;
            return Err(e);
        }
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        if matches!(self.format, SeriesFormat::Json) {
            out.write_all(if self.samples == 0 { b"[]\n" } else { b"\n]\n" })?;
        }
        out.flush()
    }
}

impl<W: Write> TraceSink for TimeSeriesSink<W> {
    fn on_event(&mut self, _event: &LoggedEvent) {}

    fn on_sample(&mut self, sample: &GaugeSample) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_write(sample) {
            self.error = Some(e);
            self.out = None;
        }
    }
}

impl<W: Write> Drop for TimeSeriesSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Lane assignment for the Chrome trace: channel-side events share one
/// lane, everything else goes to its enclave's lane (ELRANGE index + 1).
fn chrome_lane(e: &LoggedEvent) -> u64 {
    match e.what {
        EventKind::PreloadStart
        | EventKind::PreloadDone
        | EventKind::SipPrefetchStart
        | EventKind::EvictBackground
        | EventKind::EvictForeground => 0,
        _ => match e.page {
            // ELRANGEs are spaced 2^24 pages apart (the kernel's guard
            // stride), so the lane is the page's high bits.
            Some(p) => 1 + (p.raw() >> 24),
            None => 0,
        },
    }
}

/// Whether this kind opens a duration span closed by a later event with
/// the same [`SpanId`].
fn opens_span(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fault | EventKind::PreloadStart | EventKind::SipPrefetchStart
    )
}

/// Whether this kind closes the duration span its [`SpanId`] opened.
fn closes_span(kind: EventKind) -> bool {
    matches!(kind, EventKind::FaultResolved | EventKind::PreloadDone)
}

/// Buffers the event stream and renders Chrome trace-event JSON
/// (loadable in `ui.perfetto.dev` or `chrome://tracing`) on
/// [`ChromeTraceSink::finish`] / drop.
///
/// Layout: one lane per enclave plus a load-channel lane (`tid 0`).
/// Open/close pairs sharing a span id (`fault`→`fault-resolved`,
/// `preload-start`/`sip-prefetch-start`→`preload-done`) become complete
/// (`"X"`) duration events; everything else is an instant. Every causal
/// `parent` link whose parent span was emitted becomes a flow arrow
/// (`"s"`/`"f"` pair, `id` = the child span). Timestamps are simulated
/// cycles, rendered as the trace's microsecond unit.
pub struct ChromeTraceSink<W: Write> {
    out: Option<W>,
    buf: Vec<LoggedEvent>,
}

impl ChromeTraceSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and renders the trace into it at the
    /// end of the run.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps `out`; the trace is rendered when the run finishes.
    pub fn new(out: W) -> Self {
        ChromeTraceSink {
            out: Some(out),
            buf: Vec::new(),
        }
    }

    /// Events buffered so far.
    pub fn event_count(&self) -> usize {
        self.buf.len()
    }

    /// Renders the buffered stream and flushes. Idempotent: the second
    /// call is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(&mut self) -> io::Result<()> {
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        write_chrome_trace(&self.buf, &mut out)?;
        out.flush()
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.buf.push(*event);
    }
}

impl<W: Write> Drop for ChromeTraceSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Renders `events` (one run's stream, in emission order) as a Chrome
/// trace-event JSON document held in memory; see [`write_chrome_trace`],
/// which streams the same bytes to a writer.
pub fn render_chrome_trace(events: &[LoggedEvent]) -> String {
    let mut out = Vec::new();
    write_chrome_trace(events, &mut out).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("the render writes only UTF-8")
}

/// Bytes the streaming render collects before handing them to its writer.
const CHROME_FLUSH_BYTES: usize = 64 * 1024;

/// Writes `events` (one run's stream, in emission order) to `w` as a
/// Chrome trace-event JSON document. Deterministic: a byte-identical stream
/// renders to byte-identical JSON. Records reach `w` in 64 KiB chunks, so
/// the render holds one chunk of the document, never all of it; `w` is not
/// flushed.
///
/// # Errors
///
/// Propagates writer errors; the document is then incomplete.
pub fn write_chrome_trace(events: &[LoggedEvent], w: &mut impl Write) -> io::Result<()> {
    /// What the render needs to know about one span.
    struct Span {
        /// The span's first event `(ts, lane)`: the flow-arrow anchor.
        anchor: (u64, u64),
        /// Its first closing event's timestamp, if any: an opening event
        /// renders as a duration ending there.
        close_at: Option<u64>,
        /// Whether an opening event appears anywhere in the stream.
        opened: bool,
    }

    // One linear indexing pass; the records are then written straight
    // into one reused chunk buffer.
    let mut index = SpanIndex::new(events.len());
    let mut spans: Vec<Span> = Vec::new();
    let mut lanes: Vec<u64> = vec![0]; // sorted; a kernel stream has one per enclave, plus 0
    for e in events {
        let lane = chrome_lane(e);
        if let Err(at) = lanes.binary_search(&lane) {
            lanes.insert(at, lane);
        }
        let i = index.get_or_insert(e.span.raw(), spans.len());
        if i == spans.len() {
            spans.push(Span {
                anchor: (e.at.raw(), lane),
                close_at: None,
                opened: false,
            });
        }
        let span = &mut spans[i];
        span.opened |= opens_span(e.what);
        if closes_span(e.what) && span.close_at.is_none() {
            span.close_at = Some(e.at.raw());
        }
    }

    // One record per line: the frame and its `,\n` separators are the
    // file's layout; each record is one JSON object, written as constant
    // key fragments around its values. The process record comes first, so
    // every later record opens with its separator.
    let mut out = String::with_capacity(CHROME_FLUSH_BYTES + 1024);
    out.push_str(
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
         {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}}",
    );
    for &lane in &lanes {
        out.push_str(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
        json::push_u64(&mut out, lane);
        out.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
        match lane {
            0 => json::push_str(&mut out, "load channel"),
            _ => json::push_str(&mut out, &format!("enclave {}", lane - 1)),
        }
        out.push_str("}}");
    }

    for e in events {
        if out.len() >= CHROME_FLUSH_BYTES {
            w.write_all(out.as_bytes())?;
            out.clear();
        }
        let lane = chrome_lane(e);
        let s = e.span.raw();
        let at = e.at.raw();
        let span = &spans[index.get(s).expect("every span is indexed")];
        if closes_span(e.what) && span.close_at == Some(at) && span.opened {
            // Rendered as the duration of its opening event; closes with
            // no opener (foreign stream) fall through to an instant.
            continue;
        }
        let done = span.close_at.filter(|_| opens_span(e.what));
        out.push_str(match done {
            Some(_) => ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":",
            None => ",\n{\"ph\":\"i\",\"pid\":1,\"tid\":",
        });
        json::push_u64(&mut out, lane);
        out.push_str(",\"ts\":");
        json::push_u64(&mut out, at);
        match done {
            Some(done) => {
                out.push_str(",\"dur\":");
                json::push_u64(&mut out, done.saturating_sub(at));
            }
            None => out.push_str(",\"s\":\"t\""),
        }
        out.push_str(",\"name\":");
        json::push_str(&mut out, e.what.name());
        out.push_str(",\"args\":{\"span\":");
        json::push_u64(&mut out, s);
        if let Some(p) = e.parent {
            out.push_str(",\"parent\":");
            json::push_u64(&mut out, p.raw());
        }
        if let Some(p) = e.page {
            out.push_str(",\"page\":");
            json::push_u64(&mut out, p.raw());
        }
        if let Some(v) = e.value {
            out.push_str(",\"value\":");
            json::push_u64(&mut out, v);
        }
        out.push_str("}}");
        // One flow arrow per causal link, anchored at the parent span's
        // first event. Links to spans absent from the stream draw nothing
        // — a rendered arrow always references two emitted spans.
        if let Some(i) = e.parent.and_then(|p| index.get(p.raw())) {
            let (pts, ptid) = spans[i].anchor;
            out.push_str(",\n{\"ph\":\"s\",\"pid\":1,\"tid\":");
            json::push_u64(&mut out, ptid);
            out.push_str(",\"ts\":");
            json::push_u64(&mut out, pts);
            out.push_str(",\"id\":");
            json::push_u64(&mut out, s);
            out.push_str(
                ",\"name\":\"cause\",\"cat\":\"flow\"},\n\
                 {\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":",
            );
            json::push_u64(&mut out, lane);
            out.push_str(",\"ts\":");
            json::push_u64(&mut out, at);
            out.push_str(",\"id\":");
            json::push_u64(&mut out, s);
            out.push_str(",\"name\":\"cause\",\"cat\":\"flow\"}");
        }
    }
    out.push_str("\n]}\n");
    w.write_all(out.as_bytes())
}

/// Span id → position in the render's span table.
///
/// A kernel allocates span ids from one counter that starts at 1, and logs
/// every id it allocates, so a kernel stream's ids never exceed its event
/// count: they index `flat` directly and the stream never hashes. Larger
/// ids come only from hand-built streams and go to `spill`. Correctness
/// never depends on that id property, and memory stays bounded by the
/// event count for any input.
struct SpanIndex {
    /// `flat[id]` is 1 + span `id`'s position, or 0 while it is unseen.
    /// Its `events + 1` entries cover ids `0..=events`.
    flat: Vec<u32>,
    /// Positions of ids past `flat`.
    spill: sgx_sim::FastMap,
}

impl SpanIndex {
    fn new(events: usize) -> Self {
        // Positions are below `events`, so they fit the `u32` slots
        // whenever the flat table is used at all.
        let flat = if events < u32::MAX as usize {
            vec![0; events + 1]
        } else {
            Vec::new()
        };
        SpanIndex {
            flat,
            spill: sgx_sim::FastMap::new(),
        }
    }

    /// The position of span `id`, if it was seen.
    #[inline]
    fn get(&self, id: u64) -> Option<usize> {
        match usize::try_from(id).ok().and_then(|i| self.flat.get(i)) {
            Some(&slot) => (slot as usize).checked_sub(1),
            None => self.spill.get(id).map(|i| i as usize),
        }
    }

    /// The position of span `id`, recording `next` as its position if it
    /// is new.
    #[inline]
    fn get_or_insert(&mut self, id: u64, next: usize) -> usize {
        match usize::try_from(id).ok().and_then(|i| self.flat.get_mut(i)) {
            Some(slot) => {
                if *slot == 0 {
                    *slot = u32::try_from(next + 1)
                        .expect("the flat table exists only below u32::MAX events");
                }
                *slot as usize - 1
            }
            None => match self.spill.get(id) {
                Some(i) => i as usize,
                None => {
                    self.spill.insert(id, next as u64);
                    next
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;
    use sgx_epc::VirtPage;

    fn ev(
        at: u64,
        what: EventKind,
        page: Option<u64>,
        value: Option<u64>,
        span: u64,
        parent: Option<u64>,
    ) -> LoggedEvent {
        LoggedEvent {
            at: Cycles::new(at),
            what,
            page: page.map(VirtPage::new),
            value,
            span: SpanId::new(span),
            parent: parent.map(SpanId::new),
        }
    }

    #[test]
    fn attribution_total_sums_every_bucket() {
        let a = CycleAttribution {
            app_compute: 100,
            demand_fault: 20,
            aex_eresume: 3,
            channel_wait: 4,
            preload_work: 5,
            wasted_preload: 6,
            clock_scan: 7,
            eviction: 8,
        };
        assert_eq!(a.total(), 153);
        assert_eq!(a.buckets()[0], ("app_compute", 100));
        let mut json = String::new();
        a.write_json(&mut json);
        assert!(json.starts_with("{\"app_compute\":100,"));
        assert!(json.ends_with("\"eviction\":8}"));
        assert!(a.to_string().contains("demand-fault"));
    }

    #[test]
    fn chrome_trace_pairs_open_close_into_durations() {
        let events = [
            ev(10, EventKind::Fault, Some(7), None, 1, None),
            ev(90, EventKind::FaultResolved, Some(7), Some(80), 1, None),
        ];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":10,\"dur\":80"));
        // The close event itself is folded into the duration.
        assert!(!json.contains("fault-resolved"));
        assert!(json.contains("\"thread_name\""));
    }

    #[test]
    fn chrome_trace_draws_flows_only_between_emitted_spans() {
        let events = [
            ev(10, EventKind::Fault, Some(7), None, 1, None),
            ev(11, EventKind::StreamPredicted, Some(7), Some(2), 2, Some(1)),
            // Parent span 99 was never emitted: no arrow may reference it.
            ev(12, EventKind::PreloadStart, Some(8), None, 3, Some(99)),
        ];
        let json = render_chrome_trace(&events);
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        assert!(json.contains("\"id\":2"), "flow id is the child span");
        assert!(!json.contains("\"id\":3"), "dangling parent draws nothing");
    }

    #[test]
    fn chrome_trace_separates_channel_and_enclave_lanes() {
        let enclave1_page = (1u64 << 24) + 5;
        let events = [
            ev(10, EventKind::Fault, Some(enclave1_page), None, 1, None),
            ev(
                20,
                EventKind::PreloadStart,
                Some(enclave1_page + 1),
                None,
                2,
                None,
            ),
        ];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"name\":\"load channel\""));
        assert!(json.contains("\"name\":\"enclave 1\""));
        assert!(
            json.contains("\"tid\":0,\"ts\":20"),
            "preload on channel lane"
        );
    }

    #[test]
    fn chrome_render_reaches_its_writer_in_bounded_chunks() {
        /// Records the length of every write call.
        struct Calls(Vec<usize>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // ~2,000 instant records: several chunks' worth of JSON.
        let events: Vec<_> = (0..2_000)
            .map(|i| ev(i, EventKind::Fault, Some(i), None, i + 1, None))
            .collect();
        let mut w = Calls(Vec::new());
        write_chrome_trace(&events, &mut w).unwrap();
        let (last, chunks) = w.0.split_last().unwrap();
        assert!(chunks.len() >= 2, "{:?}", w.0);
        // A chunk goes out once it reaches the flush size, so it overshoots
        // by less than one event's records.
        let bounded = CHROME_FLUSH_BYTES..CHROME_FLUSH_BYTES + 1024;
        assert!(chunks.iter().all(|n| bounded.contains(n)), "{:?}", w.0);
        assert!(*last < bounded.end);
        assert_eq!(
            w.0.iter().sum::<usize>(),
            render_chrome_trace(&events).len()
        );
    }

    #[test]
    fn time_series_csv_emits_header_then_rows() {
        let mut buf = Vec::new();
        {
            let mut sink = TimeSeriesSink::new(&mut buf, SeriesFormat::Csv);
            let sample = GaugeSample {
                at: Cycles::new(500),
                epc_resident: 3,
                epc_free: 1,
                queue_depth: 2,
                sip_queue_depth: 0,
                live_streams: 1,
                valve_stops: 0,
                channel_busy: Cycles::new(40),
                faults: 6,
                preloads_started: 2,
                scan_steps: 9,
                tenant_resident: vec![2, 1],
            };
            sink.on_sample(&sample);
            sink.on_sample(&sample);
            assert_eq!(sink.written(), 2);
            sink.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("at,epc_resident"));
        assert_eq!(lines.next().unwrap(), "500,3,1,2,0,1,0,40,6,2,9,2|1");
        assert_eq!(text.lines().count(), 3, "header + two samples");
    }

    #[test]
    fn time_series_json_is_a_closed_array() {
        let mut buf = Vec::new();
        {
            let mut sink = TimeSeriesSink::new(&mut buf, SeriesFormat::Json);
            sink.on_sample(&GaugeSample {
                at: Cycles::new(1),
                epc_resident: 0,
                epc_free: 4,
                queue_depth: 0,
                sip_queue_depth: 0,
                live_streams: 0,
                valve_stops: 0,
                channel_busy: Cycles::ZERO,
                faults: 0,
                preloads_started: 0,
                scan_steps: 0,
                tenant_resident: vec![0],
            });
        } // drop finishes
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"tenant_resident\":[0]"));
    }

    #[test]
    fn empty_json_series_still_closes() {
        let mut buf = Vec::new();
        TimeSeriesSink::new(&mut buf, SeriesFormat::Json)
            .finish()
            .unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().trim(), "[]");
    }
}

//! Timeline exports over the causal span stream: per-subsystem cycle
//! attribution, Chrome trace-event JSON (perfetto-loadable), and periodic
//! gauge sampling into a compact series.
//!
//! Everything here consumes the same [`LoggedEvent`] stream every other
//! sink sees — the kernel computes nothing extra for an unobserved run —
//! plus, for [`TimeSeriesSink`], the [`GaugeSample`] callbacks the kernel
//! emits when a sampling interval is configured
//! ([`Kernel::set_sample_interval`](crate::Kernel::set_sample_interval)).

use std::collections::HashMap;
use std::io::{self, Write};

use sgx_epc::VirtPage;
use sgx_sim::json::{self, Value};
use sgx_sim::varint::{self, unzigzag, zigzag};
use sgx_sim::Cycles;

use crate::{EventKind, LoggedEvent, SpanId, TraceSink};

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
    /// Replacement-scan stall cycles. Always 0: the cost model prices
    /// CLOCK sweeps at zero and nothing else stalls a scan. The key stays
    /// so the report schema keeps its shape until its next version bump.
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

/// Logs the event stream compactly as it arrives and renders it as Chrome
/// trace-event JSON (loadable in `ui.perfetto.dev` or `chrome://tracing`)
/// on [`ChromeTraceSink::finish`] / drop.
///
/// Layout: one lane per enclave plus a load-channel lane (`tid 0`).
/// Open/close pairs sharing a span id (`fault`→`fault-resolved`,
/// `preload-start`/`sip-prefetch-start`→`preload-done`) become complete
/// (`"X"`) duration events; everything else is an instant. Every causal
/// `parent` link whose parent span was emitted becomes a flow arrow
/// (`"s"`/`"f"` pair, `id` = the child span). Timestamps are simulated
/// cycles, rendered as the trace's microsecond unit.
///
/// The sink never holds whole events: each one is logged as a header byte
/// plus a few varint deltas, and each span keeps only the facts its
/// records read (where it starts, where it first closes, whether it
/// opens). The output is byte-identical to [`write_chrome_trace`] over the
/// same stream.
pub struct ChromeTraceSink<W: Write> {
    out: Option<W>,
    log: EventLog,
    index: TraceIndex,
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
            log: EventLog::default(),
            index: TraceIndex::new(),
        }
    }

    /// The events logged so far, decoded in emission order.
    pub fn events(&self) -> impl Iterator<Item = LoggedEvent> + '_ {
        self.log.iter()
    }

    /// Renders the logged stream and flushes. Idempotent: the second call
    /// is a no-op.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(&mut self) -> io::Result<()> {
        let Some(mut out) = self.out.take() else {
            return Ok(());
        };
        self.index.write(self.log.iter(), &mut out)?;
        out.flush()
    }

    /// Bytes the log and the index hold, counted by capacity.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        self.log.bytes() + self.index.bytes()
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.index.observe(event);
        self.log.push(event);
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
    let mut index = TraceIndex::new();
    for e in events {
        index.observe(e);
    }
    index.write(events.iter().copied(), w)
}

/// [`Span::flags`] bit: the span's id appeared in the stream.
const SEEN: u8 = 1;
/// [`Span::flags`] bit: an opening event of the span appears in the
/// stream.
const OPENED: u8 = 2;
/// [`Span::flags`] bit: a closing event of the span has appeared, and
/// [`Span::close_at`] holds the first one's timestamp.
const CLOSED: u8 = 4;

/// What the render needs to know about one span.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    /// The span's first event's timestamp: the flow-arrow anchor.
    anchor_at: u64,
    /// The span's first event's lane, as a position in
    /// [`TraceIndex::lane_ids`].
    anchor_lane: u32,
    /// The span's first closing event's timestamp, once [`CLOSED`]: an
    /// opening event renders as a duration ending there.
    close_at: u64,
    /// [`SEEN`], [`OPENED`] and [`CLOSED`] bits.
    flags: u8,
}

impl Span {
    /// Folds one more event of this span, of kind `what` at `at`, into its
    /// facts.
    fn note(&mut self, what: EventKind, at: u64) {
        if let Some(close) = note_flags(&mut self.flags, what, at) {
            self.close_at = close;
        }
    }
}

/// Folds an event of kind `what` at `at` into a span's `flags`; returns
/// `at` if the event is the span's first close, whose timestamp the span
/// then records.
fn note_flags(flags: &mut u8, what: EventKind, at: u64) -> Option<u64> {
    if opens_span(what) {
        *flags |= OPENED;
    }
    (closes_span(what) && *flags & CLOSED == 0).then(|| {
        *flags |= CLOSED;
        at
    })
}

/// What the render needs to know about a stream, gathered one event at a
/// time: the lanes it uses and the facts of every span.
/// [`ChromeTraceSink`] fills it as events arrive, [`write_chrome_trace`]
/// in one pass over its slice; [`TraceIndex::write`] then renders the
/// stream for both.
///
/// A kernel allocates span ids from one counter that starts at 1 and logs
/// every id it allocates, so its ids are dense and stay near the count of
/// events seen so far: `flat` holds their facts by id, and the stream
/// never hashes. `flat` reaches ids up to twice the events seen plus
/// [`FLAT_SLACK`]; larger ids come only from hand-built streams and go to
/// `spill`, where they stay if `flat` later grows past them. Correctness
/// never depends on that id property, and memory stays bounded by the
/// event count for any input.
struct TraceIndex {
    /// Lanes seen, sorted (the header lists them in this order), each
    /// with its position in `lane_ids`. Lane 0, the load channel, is
    /// always listed.
    lanes: Vec<(u64, u32)>,
    /// Lanes by first appearance: what [`Span::anchor_lane`] indexes.
    lane_ids: Vec<u64>,
    /// Span facts by id, for the ids below its length.
    flat: SpanTable,
    /// Facts of the span ids `flat` did not reach when they first
    /// appeared.
    spill: HashMap<u64, Span>,
    /// Events observed.
    events: u64,
}

/// How far past twice the events seen [`TraceIndex::flat`] reaches.
const FLAT_SLACK: u64 = 1024;

impl TraceIndex {
    fn new() -> Self {
        TraceIndex {
            lanes: vec![(0, 0)],
            lane_ids: vec![0],
            flat: SpanTable::default(),
            spill: HashMap::new(),
            events: 0,
        }
    }

    /// The facts of span `id`, if it appeared.
    #[inline]
    fn span(&self, id: u64) -> Option<Span> {
        usize::try_from(id)
            .ok()
            .and_then(|i| self.flat.get(i))
            .or_else(|| self.spill.get(&id).copied())
    }

    /// Folds the stream's next event into the index.
    fn observe(&mut self, e: &LoggedEvent) {
        self.events += 1;
        let lane = chrome_lane(e);
        let lane = match self.lanes.binary_search_by_key(&lane, |&(l, _)| l) {
            Ok(i) => self.lanes[i].1,
            Err(i) => {
                let at = u32::try_from(self.lane_ids.len()).expect("under 2^32 lanes");
                self.lanes.insert(i, (lane, at));
                self.lane_ids.push(lane);
                at
            }
        };
        let (id, at) = (e.span.raw(), e.at.raw());
        let flat = usize::try_from(id).ok();
        if let Some(i) = flat.filter(|&i| self.flat.seen(i)) {
            self.flat.note(i, e.what, at);
        } else if let Some(span) = self.spill.get_mut(&id) {
            span.note(e.what, at);
        } else {
            let mut span = Span {
                anchor_at: at,
                anchor_lane: lane,
                close_at: 0,
                flags: SEEN,
            };
            span.note(e.what, at);
            let reach = self.events.saturating_mul(2).saturating_add(FLAT_SLACK);
            match flat {
                Some(i) if id <= reach => self.flat.push_at(i, span),
                _ => {
                    self.spill.insert(id, span);
                }
            }
        }
    }

    /// Writes `events`, the stream this index observed, to `w` as a Chrome
    /// trace-event JSON document, in [`CHROME_FLUSH_BYTES`] chunks.
    fn write(
        &self,
        events: impl IntoIterator<Item = LoggedEvent>,
        w: &mut impl Write,
    ) -> io::Result<()> {
        // One record per line: the frame and its `,\n` separators are the
        // file's layout; each record is one JSON object, written as
        // constant key fragments around its values. The process record
        // comes first, so every later record opens with its separator.
        // The header and each kind's quoted name (with the keys around
        // it) are formatted once; records go into a byte buffer, where
        // an integer's digits go in with one copy.
        let mut head = String::from(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
             {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}}",
        );
        for &(lane, _) in &self.lanes {
            head.push_str(",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
            json::push_u64(&mut head, lane);
            head.push_str(",\"name\":\"thread_name\",\"args\":{\"name\":");
            match lane {
                0 => json::push_str(&mut head, "load channel"),
                _ => json::push_str(&mut head, &format!("enclave {}", lane - 1)),
            }
            head.push_str("}}");
        }
        let names = EventKind::ALL.map(|kind| {
            let mut s = String::from(",\"name\":");
            json::push_str(&mut s, kind.name());
            s.push_str(",\"args\":{\"span\":");
            s.into_bytes()
        });
        let mut out = Vec::with_capacity(CHROME_FLUSH_BYTES + 1024);
        out.extend_from_slice(head.as_bytes());
        for e in events {
            if out.len() >= CHROME_FLUSH_BYTES {
                w.write_all(&out)?;
                out.clear();
            }
            let lane = chrome_lane(&e);
            let s = e.span.raw();
            let at = e.at.raw();
            let (opens, closes) = (opens_span(e.what), closes_span(e.what));
            let mut done = None;
            if opens || closes {
                let span = self.span(s).expect("every span is indexed");
                let close_at = (span.flags & CLOSED != 0).then_some(span.close_at);
                if closes && close_at == Some(at) && span.flags & OPENED != 0 {
                    // Rendered as the duration of its opening event;
                    // closes with no opener (foreign stream) fall through
                    // to an instant.
                    continue;
                }
                done = close_at.filter(|_| opens);
            }
            out.extend_from_slice(match done {
                Some(_) => b",\n{\"ph\":\"X\",\"pid\":1,\"tid\":",
                None => b",\n{\"ph\":\"i\",\"pid\":1,\"tid\":",
            });
            json::push_u64_bytes(&mut out, lane);
            out.extend_from_slice(b",\"ts\":");
            json::push_u64_bytes(&mut out, at);
            match done {
                Some(done) => {
                    out.extend_from_slice(b",\"dur\":");
                    json::push_u64_bytes(&mut out, done.saturating_sub(at));
                }
                None => out.extend_from_slice(b",\"s\":\"t\""),
            }
            out.extend_from_slice(&names[e.what as usize]);
            json::push_u64_bytes(&mut out, s);
            if let Some(p) = e.parent {
                out.extend_from_slice(b",\"parent\":");
                json::push_u64_bytes(&mut out, p.raw());
            }
            if let Some(p) = e.page {
                out.extend_from_slice(b",\"page\":");
                json::push_u64_bytes(&mut out, p.raw());
            }
            if let Some(v) = e.value {
                out.extend_from_slice(b",\"value\":");
                json::push_u64_bytes(&mut out, v);
            }
            out.extend_from_slice(b"}}");
            // One flow arrow per causal link, anchored at the parent span's
            // first event. Links to spans absent from the stream draw
            // nothing — a rendered arrow always references two emitted
            // spans.
            if let Some(p) = e.parent.and_then(|p| self.span(p.raw())) {
                out.extend_from_slice(b",\n{\"ph\":\"s\",\"pid\":1,\"tid\":");
                json::push_u64_bytes(&mut out, self.lane_ids[p.anchor_lane as usize]);
                out.extend_from_slice(b",\"ts\":");
                json::push_u64_bytes(&mut out, p.anchor_at);
                out.extend_from_slice(b",\"id\":");
                json::push_u64_bytes(&mut out, s);
                out.extend_from_slice(
                    b",\"name\":\"cause\",\"cat\":\"flow\"},\n\
                     {\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":",
                );
                json::push_u64_bytes(&mut out, lane);
                out.extend_from_slice(b",\"ts\":");
                json::push_u64_bytes(&mut out, at);
                out.extend_from_slice(b",\"id\":");
                json::push_u64_bytes(&mut out, s);
                out.extend_from_slice(b",\"name\":\"cause\",\"cat\":\"flow\"}");
            }
        }
        out.extend_from_slice(b"\n]}\n");
        w.write_all(&out)
    }

    /// Bytes the index holds, counted by capacity.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.lanes.capacity() * size_of::<(u64, u32)>()
            + self.lane_ids.capacity() * size_of::<u64>()
            + self.flat.bytes()
            + self.spill.capacity() * size_of::<(u64, Span)>()
    }
}

/// Span facts by id, one chunked column per field; an id that has not
/// appeared has no [`SEEN`] bit.
#[derive(Default)]
struct SpanTable {
    anchor_at: Column<u64>,
    anchor_lane: Column<u32>,
    close_at: Column<u64>,
    flags: Column<u8>,
}

impl SpanTable {
    /// Whether id `i` appeared.
    #[inline]
    fn seen(&self, i: usize) -> bool {
        self.flags.get(i).is_some_and(|&f| f & SEEN != 0)
    }

    /// The facts stored for id `i`, if that id appeared.
    #[inline]
    fn get(&self, i: usize) -> Option<Span> {
        self.seen(i).then(|| Span {
            anchor_at: self.anchor_at[i],
            anchor_lane: self.anchor_lane[i],
            close_at: self.close_at[i],
            flags: self.flags[i],
        })
    }

    /// Folds one more event of id `i`, which appeared before, into its
    /// facts; see [`Span::note`].
    #[inline]
    fn note(&mut self, i: usize, what: EventKind, at: u64) {
        if let Some(close) = note_flags(&mut self.flags[i], what, at) {
            self.close_at[i] = close;
        }
    }

    /// Stores `span` as the facts of id `i`, which has not appeared,
    /// growing the table to reach it.
    fn push_at(&mut self, i: usize, span: Span) {
        while self.flags.len() < i {
            self.push(Span::default());
        }
        if i == self.flags.len() {
            self.push(span);
        } else {
            self.anchor_at[i] = span.anchor_at;
            self.anchor_lane[i] = span.anchor_lane;
            self.close_at[i] = span.close_at;
            self.flags[i] = span.flags;
        }
    }

    fn push(&mut self, span: Span) {
        self.anchor_at.push(span.anchor_at);
        self.anchor_lane.push(span.anchor_lane);
        self.close_at.push(span.close_at);
        self.flags.push(span.flags);
    }

    /// Bytes the table holds, counted by capacity.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.anchor_at.bytes()
            + self.anchor_lane.bytes()
            + self.close_at.bytes()
            + self.flags.bytes()
    }
}

/// Entries per [`Column`] chunk.
const CHUNK: usize = 1 << 16;

/// An append-only column stored in fixed-size chunks: it grows without
/// ever moving what it holds, so a long stream never pays a reallocation's
/// copy or its transient double footprint. A chunk is allocated whole, but
/// its pages become resident only as entries fill them.
struct Column<T> {
    /// Every chunk but the last holds exactly [`CHUNK`] entries.
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column { chunks: Vec::new() }
    }
}

impl<T> Column<T> {
    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |c| (self.chunks.len() - 1) * CHUNK + c.len())
    }

    fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push(v),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(v);
                self.chunks.push(chunk);
            }
        }
    }

    #[inline]
    fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Bytes the column holds, counted by capacity.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        let entries: usize = self.chunks.iter().map(Vec::capacity).sum();
        entries * std::mem::size_of::<T>() + self.chunks.capacity() * std::mem::size_of::<Vec<T>>()
    }
}

impl<T> std::ops::Index<usize> for Column<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T> std::ops::IndexMut<usize> for Column<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// Bytes per [`EventLog`] chunk.
const LOG_CHUNK: usize = 1 << 16;
/// The longest encoding of one event: the header byte and five varints.
const MAX_EVENT_BYTES: usize = 1 + 5 * varint::MAX_BYTES;
/// Header bits below the presence bits: the kind's index in
/// [`EventKind::ALL`].
const KIND_BITS: u8 = 0x0F;
/// Header bit: a `page` varint follows.
const HAS_PAGE: u8 = 0x10;
/// Header bit: a `value` varint follows.
const HAS_VALUE: u8 = 0x20;
/// Header bit: a `parent` varint follows.
const HAS_PARENT: u8 = 0x40;
const _: () = assert!(EventKind::ALL.len() <= KIND_BITS as usize + 1);

/// An append-only event stream, a few bytes per event.
///
/// Each event is one header byte (the kind's index, plus presence bits for
/// `page`, `value` and `parent`) followed by LEB128 varints: the zigzag
/// deltas of `at` and `span` from the previous event and of `page` from
/// the previous page, the raw `value`, and the zigzag of `span − parent`.
/// Like a [`Column`], the log grows in fixed-size chunks, so it never moves
/// what it holds; a chunk takes a new event only while it has room for the
/// longest one, so an event never straddles two chunks.
#[derive(Default)]
struct EventLog {
    chunks: Vec<Vec<u8>>,
    /// What the next event's deltas are taken from.
    prev: Deltas,
}

/// The delta bases of an [`EventLog`]: the previous event's `at` and
/// `span`, and the previous page.
#[derive(Clone, Copy, Default)]
struct Deltas {
    at: u64,
    span: u64,
    page: u64,
}

impl EventLog {
    fn push(&mut self, e: &LoggedEvent) {
        if self
            .chunks
            .last()
            .is_none_or(|c| c.len() + MAX_EVENT_BYTES > LOG_CHUNK)
        {
            self.chunks.push(Vec::with_capacity(LOG_CHUNK));
        }
        let out = self.chunks.last_mut().expect("a chunk with room");
        let flag = |present: bool, bit: u8| if present { bit } else { 0 };
        out.push(
            e.what as u8
                | flag(e.page.is_some(), HAS_PAGE)
                | flag(e.value.is_some(), HAS_VALUE)
                | flag(e.parent.is_some(), HAS_PARENT),
        );
        let (at, span) = (e.at.raw(), e.span.raw());
        varint::push(out, zigzag(at.wrapping_sub(self.prev.at)));
        varint::push(out, zigzag(span.wrapping_sub(self.prev.span)));
        if let Some(p) = e.page {
            varint::push(out, zigzag(p.raw().wrapping_sub(self.prev.page)));
            self.prev.page = p.raw();
        }
        if let Some(v) = e.value {
            varint::push(out, v);
        }
        if let Some(p) = e.parent {
            varint::push(out, zigzag(span.wrapping_sub(p.raw())));
        }
        self.prev.at = at;
        self.prev.span = span;
    }

    /// The logged events, decoded in order.
    fn iter(&self) -> LogIter<'_> {
        LogIter {
            chunks: &self.chunks,
            pos: 0,
            prev: Deltas::default(),
        }
    }

    /// Bytes the log holds, counted by capacity.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum::<usize>()
            + self.chunks.capacity() * std::mem::size_of::<Vec<u8>>()
    }
}

/// Decodes an [`EventLog`].
struct LogIter<'a> {
    /// The chunk being decoded, then the rest.
    chunks: &'a [Vec<u8>],
    /// The next event's offset in `chunks[0]`.
    pos: usize,
    prev: Deltas,
}

impl Iterator for LogIter<'_> {
    type Item = LoggedEvent;

    fn next(&mut self) -> Option<LoggedEvent> {
        while self.pos == self.chunks.first()?.len() {
            self.chunks = &self.chunks[1..];
            self.pos = 0;
        }
        let bytes = &self.chunks[0][..];
        let mut pos = self.pos;
        let head = bytes[pos];
        pos += 1;
        let mut read = || varint::read(bytes, &mut pos);
        let at = self.prev.at.wrapping_add(unzigzag(read()));
        let span = self.prev.span.wrapping_add(unzigzag(read()));
        let page = (head & HAS_PAGE != 0).then(|| {
            self.prev.page = self.prev.page.wrapping_add(unzigzag(read()));
            VirtPage::new(self.prev.page)
        });
        let value = (head & HAS_VALUE != 0).then(&mut read);
        let parent =
            (head & HAS_PARENT != 0).then(|| SpanId::new(span.wrapping_sub(unzigzag(read()))));
        self.pos = pos;
        self.prev.at = at;
        self.prev.span = span;
        Some(LoggedEvent {
            at: Cycles::new(at),
            what: EventKind::ALL[usize::from(head & KIND_BITS)],
            page,
            value,
            span: SpanId::new(span),
            parent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn event_kinds_are_numbered_in_declaration_order() {
        for (i, &kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    /// The dev-scale microbenchmark under DFP, driven as `SimRun` drives
    /// it: three sequential sweeps of 16,384 pages, 1,400 compute cycles
    /// apart, through a 1,536-page EPC.
    fn dev_microbenchmark_dfp_events() -> Vec<LoggedEvent> {
        use crate::{CollectingSink, Kernel, KernelConfig};
        use sgx_dfp::{MultiStreamPredictor, ProcessId, StreamConfig};

        let mut kernel = Kernel::new(
            KernelConfig::new(1_536),
            Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
        );
        let (sink, events) = CollectingSink::new();
        kernel.subscribe(Box::new(sink));
        let pid = ProcessId(0);
        kernel
            .register_enclave(pid, 16_384)
            .expect("the ELRANGE fits");
        let mut now = Cycles::ZERO;
        for page in (0..3).flat_map(|_| 0..16_384).map(VirtPage::new) {
            now += Cycles::new(1_400);
            if kernel.app_access(now, pid, page).is_none() {
                now = kernel.page_fault(now, pid, page).resume_at;
            }
        }
        kernel.finish(now);
        drop(kernel);
        events.take()
    }

    /// The sink keeps a few bytes per event, never the events themselves.
    /// Buffering the 72-byte events, plus the 40-byte record per span the
    /// render then built, took about 103 bytes per event on this stream.
    #[test]
    fn chrome_sink_retains_a_few_bytes_per_event() {
        let events = dev_microbenchmark_dfp_events();
        assert!(events.len() > 300_000, "{} events", events.len());
        let mut sink = ChromeTraceSink::new(io::sink());
        for e in &events {
            sink.on_event(e);
        }
        let per_event = sink.retained_bytes() as f64 / events.len() as f64;
        eprintln!("{} events, {per_event:.2} bytes per event", events.len());
        assert!(per_event < 32.0, "{per_event:.1} bytes per event");
        assert!(sink.events().eq(events.iter().copied()));
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

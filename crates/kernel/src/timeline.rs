//! Timeline exports over the causal span stream: per-subsystem cycle
//! attribution, Chrome trace-event JSON (perfetto-loadable), and periodic
//! gauge sampling into a compact series.
//!
//! Everything here consumes the same [`LoggedEvent`] stream every other
//! sink sees — the kernel computes nothing extra for an unobserved run —
//! plus, for [`TimeSeriesSink`], the [`GaugeSample`] callbacks the kernel
//! emits when a sampling interval is configured
//! ([`Kernel::set_sample_interval`](crate::Kernel::set_sample_interval)).

use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::JoinHandle;

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
/// `wasted_preload`, `eviction`) count background channel
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
    pub fn buckets(&self) -> [(&'static str, u64); 7] {
        [
            ("app_compute", self.app_compute),
            ("demand_fault", self.demand_fault),
            ("aex_eresume", self.aex_eresume),
            ("channel_wait", self.channel_wait),
            ("preload_work", self.preload_work),
            ("wasted_preload", self.wasted_preload),
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
             evict {:.1}%",
            pct(self.app_compute),
            pct(self.demand_fault),
            pct(self.aex_eresume),
            pct(self.channel_wait),
            pct(self.preload_work),
            pct(self.wasted_preload),
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
/// the same [`SpanId`](crate::SpanId).
fn opens_span(kind: EventKind) -> bool {
    matches!(
        kind,
        EventKind::Fault | EventKind::PreloadStart | EventKind::SipPrefetchStart
    )
}

/// Whether this kind closes the duration span its [`SpanId`](crate::SpanId)
/// opened.
fn closes_span(kind: EventKind) -> bool {
    matches!(kind, EventKind::FaultResolved | EventKind::PreloadDone)
}

/// Streams the run's events as Chrome trace-event JSON (loadable in
/// `ui.perfetto.dev` or `chrome://tracing`) while the run goes on, and
/// renders them on a thread of its own, so the render overlaps the run.
///
/// The sink is a front and a render thread. The front copies each event
/// into a batch of 4,096 events and sends each full batch over a channel
/// that holds two, then takes an emptied batch back. Four batches exist:
/// the one the front fills, two in flight and the one the thread renders,
/// so the sink never holds the stream. The render thread, one per sink,
/// owns the writer, which is why `W` must be `Send + 'static`.
/// [`ChromeTraceSink::finish`] (called from `Drop` if not called
/// explicitly) sends the last batch and joins the thread;
/// [`ChromeTraceSink::into_inner`] does the same and returns the writer.
///
/// The thread writes each record, in stream order, as soon as the events
/// seen so far decide it, and closes the document once the last batch is
/// in. Layout: one lane per enclave plus a load-channel lane (`tid 0`);
/// each enclave lane is named just before the first record on it. An
/// opening event (`fault`, `preload-start`, `sip-prefetch-start`) waits
/// for the next close (`fault-resolved`, `preload-done`) of its span and
/// becomes a complete (`"X"`) duration event ending there; that close
/// folds into every opener of its span still waiting and writes nothing. A
/// close no opener waits for, an opener no close follows, and every other
/// event is an instant. Every causal `parent` link becomes a flow arrow
/// (`"s"`/`"f"` pair, `id` = the child span) from the parent span's first
/// event: the child waits until its parent appears, and draws nothing if
/// it never does. Timestamps are simulated cycles, rendered as the trace's
/// microsecond unit.
///
/// The render holds no event it has written. Per span it keeps only an
/// anchor, the span's first timestamp and lane, in five bytes (nine where
/// nearby spans' timestamps spread past an `i32`); beyond that it holds
/// the events a record still waits on, with the decided ones behind them.
/// The first write error stops the render. `finish` reports it, a failed
/// spawn or a panic on the render thread as an [`io::Error`].
pub struct ChromeTraceSink<W: Write + Send + 'static> {
    /// The batch being filled; it has no capacity between sending a batch
    /// and taking an emptied one.
    batch: Vec<LoggedEvent>,
    /// Full batches to the render thread, until `finish` or the thread
    /// stops taking them.
    full: Option<SyncSender<Vec<LoggedEvent>>>,
    /// Batches the render thread has emptied, for the front to fill.
    empty: Receiver<Vec<LoggedEvent>>,
    /// The render thread until `finish` joins it, or the error that kept
    /// it from starting.
    render: Option<io::Result<JoinHandle<io::Result<W>>>>,
    /// The writer, once a render that succeeded handed it back.
    out: Option<W>,
}

impl ChromeTraceSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) `path` and streams the trace into it as the
    /// run goes on.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> io::Result<Self> {
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send + 'static> ChromeTraceSink<W> {
    /// Starts the render thread on `out`; records reach it in 64 KiB chunks
    /// as the events decide them.
    pub fn new(out: W) -> Self {
        let (full, batches) = mpsc::sync_channel::<Vec<LoggedEvent>>(CHROME_IN_FLIGHT);
        let (emptied, empty) = mpsc::sync_channel(CHROME_BATCHES);
        let render = std::thread::Builder::new()
            .name("chrome-render".into())
            .spawn(move || {
                // The thread allocates the batches, so they share the heap
                // of the render's own tables, which the allocator returns
                // once the render ends; on the run's thread they stayed
                // resident after the run.
                for _ in 0..CHROME_BATCHES {
                    let _ = emptied.send(Vec::with_capacity(CHROME_BATCH));
                }
                let mut render = ChromeRender::new(out);
                for mut batch in batches {
                    for e in &batch {
                        render.on_event(e);
                    }
                    if render.out.is_none() {
                        // The writer failed: dropping `batches` tells the
                        // front to stop sending.
                        break;
                    }
                    batch.clear();
                    // Never waits: after `finish` the front takes no batch
                    // back, and its last one may come on top of the four.
                    let _ = emptied.try_send(batch);
                }
                render.finish()
            });
        ChromeTraceSink {
            batch: Vec::new(),
            full: render.is_ok().then_some(full),
            empty,
            render: Some(render),
            out: None,
        }
    }

    /// Sends the last batch, waits for the render thread to write every
    /// record still held, close the document and flush, and keeps the
    /// writer. Idempotent: the second call is a no-op.
    ///
    /// # Errors
    ///
    /// Reports the first write error, whether the run or this call met
    /// it, or why the render thread did not start or did not end.
    pub fn finish(&mut self) -> io::Result<()> {
        let Some(render) = self.render.take() else {
            return Ok(());
        };
        if let Some(full) = self.full.take() {
            // A failed send means the thread stopped on a write error or
            // a panic, which the join returns.
            let _ = full.send(std::mem::take(&mut self.batch));
        }
        self.out = Some(render?.join().map_err(render_panicked)??);
        Ok(())
    }

    /// Finishes the trace and returns the writer, for renders into
    /// memory.
    ///
    /// # Errors
    ///
    /// Everything [`ChromeTraceSink::finish`] reports; after an earlier
    /// `finish` reported an error, there is no writer to return.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish()?;
        self.out
            .take()
            .ok_or_else(|| io::Error::other("the Chrome trace's writer failed earlier"))
    }
}

/// The error a panic on the render thread comes back as.
fn render_panicked(payload: Box<dyn std::any::Any + Send>) -> io::Error {
    let why = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    io::Error::other(format!("the Chrome trace render panicked: {why}"))
}

impl<W: Write + Send + 'static> TraceSink for ChromeTraceSink<W> {
    fn on_event(&mut self, e: &LoggedEvent) {
        let Some(full) = &self.full else {
            return;
        };
        if self.batch.capacity() == 0 {
            // Waits while the thread holds every batch. A closed channel
            // means the thread stopped, and `finish` reports why.
            let Ok(batch) = self.empty.recv() else {
                self.full = None;
                return;
            };
            self.batch = batch;
        }
        self.batch.push(*e);
        if self.batch.len() == CHROME_BATCH && full.send(std::mem::take(&mut self.batch)).is_err() {
            self.full = None;
        }
    }
}

impl<W: Write + Send + 'static> Drop for ChromeTraceSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

/// Events per batch the front of a [`ChromeTraceSink`] sends its render
/// thread.
const CHROME_BATCH: usize = 4096;

/// Full batches a [`ChromeTraceSink`]'s channel holds before the front
/// waits for its render thread.
const CHROME_IN_FLIGHT: usize = 2;

/// The batches of a [`ChromeTraceSink`]: the one the front fills, those in
/// flight and the one the render thread renders.
const CHROME_BATCHES: usize = CHROME_IN_FLIGHT + 2;

/// The streaming renderer a [`ChromeTraceSink`]'s thread runs: it writes
/// each record once the events seen so far decide it, through a 64 KiB
/// buffer, and latches the first write error.
struct ChromeRender<W: Write> {
    out: Option<W>,
    /// The first write error, which `finish` reports.
    error: Option<io::Error>,
    /// Records not yet handed to `out`.
    buf: Vec<u8>,
    /// Each kind's quoted name with the keys around it, formatted once.
    names: [Vec<u8>; EventKind::ALL.len()],
    lanes: Lanes,
    anchors: Anchors,
    /// Events whose records are not written yet, in stream order: the
    /// front one is undecided.
    held: VecDeque<Held>,
    /// The position of `held[0]` among the events ever held.
    first_held: u64,
    /// The position of the last held opener of each span still waiting
    /// for a close, by span id; it links to any earlier one. It holds a few
    /// entries at a time on a kernel stream.
    waiting: HashMap<u64, u64>,
    /// Events seen.
    events: u64,
}

/// An event whose record is not written yet.
struct Held {
    event: LoggedEvent,
    /// The event's lane, as a position in [`Lanes::ids`].
    lane: u32,
    /// For an opener, the timestamp of its span's close, once one came.
    close: Option<u64>,
    /// The position of the previous held opener of this span still
    /// waiting for a close when this one arrived.
    prev_opener: Option<u64>,
}

impl Held {
    /// Whether the record waits for its span's close.
    fn waits_close(&self) -> bool {
        opens_span(self.event.what) && self.close.is_none()
    }
}

impl<W: Write> ChromeRender<W> {
    /// Wraps `out`; records reach it in 64 KiB chunks as the events decide
    /// them.
    fn new(out: W) -> Self {
        // One record per line: the frame and its `,\n` separators are the
        // file's layout; each record is one JSON object, written as
        // constant key fragments around its values. The process record
        // comes first, so every later record opens with its separator.
        let mut buf = Vec::with_capacity(CHROME_FLUSH_BYTES + 1024);
        buf.extend_from_slice(
            b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
              {\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"sgx-preload\"}},\n\
              {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"load channel\"}}",
        );
        let names = EventKind::ALL.map(|kind| {
            let mut s = String::from(",\"name\":");
            json::push_str(&mut s, kind.name());
            s.push_str(",\"args\":{\"span\":");
            s.into_bytes()
        });
        ChromeRender {
            out: Some(out),
            error: None,
            buf,
            names,
            lanes: Lanes::new(),
            anchors: Anchors::default(),
            held: VecDeque::new(),
            first_held: 0,
            waiting: HashMap::new(),
            events: 0,
        }
    }

    /// Writes every record still held, closes the document, flushes and
    /// returns the writer.
    ///
    /// # Errors
    ///
    /// Reports the first write error, whether the run or this call met
    /// it.
    fn finish(mut self) -> io::Result<W> {
        if self.out.is_some() {
            while let Some(h) = self.held.pop_front() {
                self.write_record(&h);
            }
            self.buf.extend_from_slice(b"\n]}\n");
            self.write_out();
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut out = self.out.expect("the writer goes only with an error");
        out.flush()?;
        Ok(out)
    }

    /// Takes the stream's next event and writes the records it decides.
    fn on_event(&mut self, e: &LoggedEvent) {
        if self.out.is_none() {
            return;
        }
        self.events += 1;
        let lane = self.lanes.position(chrome_lane(e));
        let (span, at) = (e.span.raw(), e.at.raw());
        let reach = self.events.saturating_mul(2).saturating_add(FLAT_SLACK);
        self.anchors.note(span, at, lane, reach);
        if !(closes_span(e.what) && self.fold_close(span, at)) {
            let pos = self.first_held + self.held.len() as u64;
            let prev_opener = if opens_span(e.what) {
                self.waiting.insert(span, pos)
            } else {
                None
            };
            self.held.push_back(Held {
                event: *e,
                lane,
                close: None,
                prev_opener,
            });
        }
        self.release();
    }

    /// Folds a close of `span` at `at` into every held opener of that
    /// span still waiting; false if none waits.
    fn fold_close(&mut self, span: u64, at: u64) -> bool {
        let Some(mut pos) = self.waiting.remove(&span) else {
            return false;
        };
        loop {
            let opener = &mut self.held[(pos - self.first_held) as usize];
            opener.close = Some(at);
            match opener.prev_opener {
                Some(prev) => pos = prev,
                None => return true,
            }
        }
    }

    /// Writes the held records the events seen so far decide, in stream
    /// order, up to the first one they do not.
    fn release(&mut self) {
        while let Some(h) = self.held.front() {
            let parent_waits = h.event.parent.is_some_and(|p| !self.anchors.seen(p.raw()));
            if h.waits_close() || parent_waits {
                return;
            }
            let h = self.held.pop_front().expect("the front is held");
            self.first_held += 1;
            self.write_record(&h);
        }
    }

    /// Writes `h`'s record and, if its parent appeared, its flow arrow;
    /// hands the buffer to the writer once it reaches the flush size.
    fn write_record(&mut self, h: &Held) {
        let e = &h.event;
        let lane = self.lanes.name(h.lane, &mut self.buf);
        let (s, at) = (e.span.raw(), e.at.raw());
        let out = &mut self.buf;
        out.extend_from_slice(match h.close {
            Some(_) => b",\n{\"ph\":\"X\",\"pid\":1,\"tid\":",
            None => b",\n{\"ph\":\"i\",\"pid\":1,\"tid\":",
        });
        json::push_u64_bytes(out, lane);
        out.extend_from_slice(b",\"ts\":");
        json::push_u64_bytes(out, at);
        match h.close {
            Some(done) => {
                out.extend_from_slice(b",\"dur\":");
                json::push_u64_bytes(out, done.saturating_sub(at));
            }
            None => out.extend_from_slice(b",\"s\":\"t\""),
        }
        out.extend_from_slice(&self.names[e.what as usize]);
        json::push_u64_bytes(out, s);
        if let Some(p) = e.parent {
            out.extend_from_slice(b",\"parent\":");
            json::push_u64_bytes(out, p.raw());
        }
        if let Some(p) = e.page {
            out.extend_from_slice(b",\"page\":");
            json::push_u64_bytes(out, p.raw());
        }
        if let Some(v) = e.value {
            out.extend_from_slice(b",\"value\":");
            json::push_u64_bytes(out, v);
        }
        out.extend_from_slice(b"}}");
        // One flow arrow per causal link, anchored at the parent span's
        // first event. Links to spans absent from the stream draw nothing:
        // a rendered arrow always references two emitted spans.
        if let Some((p_at, p_lane)) = e.parent.and_then(|p| self.anchors.get(p.raw())) {
            let p_lane = self.lanes.name(p_lane, &mut self.buf);
            let out = &mut self.buf;
            out.extend_from_slice(b",\n{\"ph\":\"s\",\"pid\":1,\"tid\":");
            json::push_u64_bytes(out, p_lane);
            out.extend_from_slice(b",\"ts\":");
            json::push_u64_bytes(out, p_at);
            out.extend_from_slice(b",\"id\":");
            json::push_u64_bytes(out, s);
            out.extend_from_slice(
                b",\"name\":\"cause\",\"cat\":\"flow\"},\n\
                  {\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":",
            );
            json::push_u64_bytes(out, lane);
            out.extend_from_slice(b",\"ts\":");
            json::push_u64_bytes(out, at);
            out.extend_from_slice(b",\"id\":");
            json::push_u64_bytes(out, s);
            out.extend_from_slice(b",\"name\":\"cause\",\"cat\":\"flow\"}");
        }
        if self.buf.len() >= CHROME_FLUSH_BYTES {
            self.write_out();
        }
    }

    /// Hands the buffered records to the writer, latching its first error.
    fn write_out(&mut self) {
        if let Some(out) = self.out.as_mut() {
            if let Err(e) = out.write_all(&self.buf) {
                self.error = Some(e);
                self.out = None;
            }
        }
        self.buf.clear();
    }

    /// Bytes the render holds besides its output buffer, counted by
    /// capacity.
    #[cfg(test)]
    fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        self.lanes.bytes()
            + self.anchors.bytes()
            + self.held.capacity() * size_of::<Held>()
            + self.waiting.capacity() * size_of::<(u64, u64)>()
    }
}

/// Renders `events` (one run's stream, in emission order) as a Chrome
/// trace-event JSON document held in memory, by feeding them through a
/// [`ChromeTraceSink`]. Deterministic: a byte-identical stream renders to
/// byte-identical JSON.
pub fn render_chrome_trace(events: &[LoggedEvent]) -> String {
    let mut sink = ChromeTraceSink::new(Vec::new());
    for e in events {
        sink.on_event(e);
    }
    let out = sink
        .into_inner()
        .expect("a render into memory fails only if its thread cannot start");
    String::from_utf8(out).expect("the render writes only UTF-8")
}

/// Bytes the render collects before handing them to its writer.
const CHROME_FLUSH_BYTES: usize = 64 * 1024;

/// The trace's lanes, each with its position by first appearance and
/// whether its `thread_name` record is written.
struct Lanes {
    /// Lanes seen, sorted, each with its position in `ids`.
    sorted: Vec<(u64, u32)>,
    /// Lanes by first appearance, each with whether it is named. Lane 0,
    /// the load channel, comes first and is named in the document's
    /// header.
    ids: Vec<(u64, bool)>,
}

impl Lanes {
    fn new() -> Self {
        Lanes {
            sorted: vec![(0, 0)],
            ids: vec![(0, true)],
        }
    }

    /// The position of `lane`, which it takes now if it is new.
    fn position(&mut self, lane: u64) -> u32 {
        match self.sorted.binary_search_by_key(&lane, |&(l, _)| l) {
            Ok(i) => self.sorted[i].1,
            Err(i) => {
                let at = u32::try_from(self.ids.len()).expect("under 2^32 lanes");
                self.sorted.insert(i, (lane, at));
                self.ids.push((lane, false));
                at
            }
        }
    }

    /// The lane at `pos`; the first time a record uses it, its
    /// `thread_name` record goes into `out` first.
    fn name(&mut self, pos: u32, out: &mut Vec<u8>) -> u64 {
        let (lane, named) = &mut self.ids[pos as usize];
        if !*named {
            *named = true;
            out.extend_from_slice(b",\n{\"ph\":\"M\",\"pid\":1,\"tid\":");
            json::push_u64_bytes(out, *lane);
            out.extend_from_slice(b",\"name\":\"thread_name\",\"args\":{\"name\":\"enclave ");
            json::push_u64_bytes(out, *lane - 1);
            out.extend_from_slice(b"\"}}");
        }
        *lane
    }

    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.sorted.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.ids.capacity() * std::mem::size_of::<(u64, bool)>()
    }
}

/// Span ids per [`AnchorChunk`].
const ANCHOR_CHUNK: u64 = 1 << 12;

/// How far past twice the events seen [`Anchors::flat`] reaches.
const FLAT_SLACK: u64 = 1024;

/// Where each span starts: its first event's timestamp and lane, the point
/// its children's flow arrows leave from.
///
/// A kernel allocates span ids from one counter that starts at 1 and logs
/// every id it allocates, so its ids are dense and stay near the count of
/// events seen so far: `flat` holds their anchors by id, and the stream
/// never hashes them. `flat` takes ids up to twice the events seen plus
/// [`FLAT_SLACK`], on lanes at positions below 255; anything else comes
/// only from hand-built streams and goes to `spill`, where it stays if
/// `flat` later grows past it. Correctness never depends on that id
/// property, and memory stays bounded by the event count for any input.
#[derive(Default)]
struct Anchors {
    /// The anchors of ids `k * ANCHOR_CHUNK..(k + 1) * ANCHOR_CHUNK` in
    /// `flat[k]`, once one of them appeared.
    flat: Vec<Option<AnchorChunk>>,
    /// The anchors `flat` could not take, as (timestamp, lane position).
    spill: HashMap<u64, (u64, u32)>,
}

/// The (chunk, index) of span `id` in [`Anchors::flat`], if it fits a
/// `usize`.
fn flat_slot(id: u64) -> Option<(usize, usize)> {
    let chunk = usize::try_from(id / ANCHOR_CHUNK).ok()?;
    Some((chunk, (id % ANCHOR_CHUNK) as usize))
}

impl Anchors {
    /// The anchor of span `id` as (timestamp, lane position), if it
    /// appeared.
    #[inline]
    fn get(&self, id: u64) -> Option<(u64, u32)> {
        flat_slot(id)
            .and_then(|(chunk, i)| self.flat.get(chunk)?.as_ref()?.get(i))
            .or_else(|| {
                if self.spill.is_empty() {
                    None
                } else {
                    self.spill.get(&id).copied()
                }
            })
    }

    /// Whether span `id` appeared.
    #[inline]
    fn seen(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Takes (`at`, `lane`) as the anchor of span `id` unless it has one.
    /// `flat` takes it if `id` is at most `reach`.
    fn note(&mut self, id: u64, at: u64, lane: u32, reach: u64) {
        if self.seen(id) {
            return;
        }
        match flat_slot(id).filter(|_| id <= reach && lane < u32::from(u8::MAX)) {
            Some((chunk, i)) => {
                if self.flat.len() <= chunk {
                    self.flat.resize_with(chunk + 1, || None);
                }
                match &mut self.flat[chunk] {
                    Some(anchors) => anchors.set(i, at, lane),
                    slot @ None => *slot = Some(AnchorChunk::new(i, at, lane)),
                }
            }
            None => {
                self.spill.insert(id, (at, lane));
            }
        }
    }

    /// Bytes the anchors hold, counted by capacity.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.flat.capacity() * size_of::<Option<AnchorChunk>>()
            + self
                .flat
                .iter()
                .flatten()
                .map(AnchorChunk::bytes)
                .sum::<usize>()
            + self.spill.capacity() * size_of::<(u64, (u64, u32))>()
    }
}

/// The anchors of [`ANCHOR_CHUNK`] consecutive span ids: five bytes per
/// id, nine once the chunk's timestamps widen.
struct AnchorChunk {
    /// Each id's lane position plus one; 0 for an id that has not
    /// appeared.
    lanes: Box<[u8]>,
    times: Times,
}

/// The timestamps of an [`AnchorChunk`].
enum Times {
    /// Offsets from `base`, the chunk's first anchor's timestamp, each
    /// read as an `i32`.
    Narrow { base: u64, offsets: Box<[u32]> },
    /// Whole timestamps, once an offset did not fit.
    Wide(Box<[u64]>),
}

impl AnchorChunk {
    /// A chunk whose first anchor is (`at`, `lane`), at index `i`.
    fn new(i: usize, at: u64, lane: u32) -> Self {
        let mut chunk = AnchorChunk {
            lanes: vec![0; ANCHOR_CHUNK as usize].into_boxed_slice(),
            times: Times::Narrow {
                base: at,
                offsets: vec![0; ANCHOR_CHUNK as usize].into_boxed_slice(),
            },
        };
        chunk.set(i, at, lane);
        chunk
    }

    #[inline]
    fn get(&self, i: usize) -> Option<(u64, u32)> {
        let lane = self.lanes[i].checked_sub(1)?;
        let at = match &self.times {
            Times::Narrow { base, offsets } => widen(*base, offsets[i]),
            Times::Wide(at) => at[i],
        };
        Some((at, u32::from(lane)))
    }

    /// Stores (`at`, `lane`) at index `i`; `lane` is below 255.
    fn set(&mut self, i: usize, at: u64, lane: u32) {
        self.lanes[i] = u8::try_from(lane + 1).expect("flat lanes fit a byte");
        match &mut self.times {
            Times::Narrow { base, offsets } => {
                let offset = at.wrapping_sub(*base);
                if offset.wrapping_add(1 << 31) < 1 << 32 {
                    offsets[i] = offset as u32;
                } else {
                    let mut wide: Box<[u64]> = offsets.iter().map(|&o| widen(*base, o)).collect();
                    wide[i] = at;
                    self.times = Times::Wide(wide);
                }
            }
            Times::Wide(times) => times[i] = at,
        }
    }

    #[cfg(test)]
    fn bytes(&self) -> usize {
        self.lanes.len()
            + match &self.times {
                Times::Narrow { offsets, .. } => offsets.len() * 4,
                Times::Wide(times) => times.len() * 8,
            }
    }
}

/// The timestamp `offset` (an `i32`'s bits) past `base`.
#[inline]
fn widen(base: u64, offset: u32) -> u64 {
    base.wrapping_add(offset as i32 as u64)
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
            eviction: 8,
        };
        assert_eq!(a.total(), 146);
        assert_eq!(a.buckets().len(), 7);
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
        let mut sink = ChromeTraceSink::new(Calls(Vec::new()));
        for e in &events {
            sink.on_event(e);
        }
        let w = sink.into_inner().unwrap();
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

    /// `n` events telling one fault's story per seven: the fault, the
    /// prediction it causes, the preload that causes, an eviction, the two
    /// closes and a hit. Spans open and close, a flow arrow points two
    /// stories back, the prediction waits for the next story's fault, and
    /// stories alternate between two enclave lanes, so records wait on
    /// closes and parents across batch boundaries.
    fn story_events(n: u64) -> Vec<LoggedEvent> {
        use EventKind::*;
        (0..n)
            .map(|i| {
                let story = i / 7;
                let f = 1 + 5 * story;
                let (kind, span, parent) = match i % 7 {
                    0 => (Fault, f, story.checked_sub(2).map(|_| f - 10)),
                    1 => (StreamPredicted, f + 2, Some(f + 5)),
                    2 => (PreloadStart, f + 1, Some(f + 2)),
                    3 => (EvictBackground, f + 3, None),
                    4 => (PreloadDone, f + 1, None),
                    5 => (FaultResolved, f, None),
                    _ => (PreloadHit, f + 4, Some(f + 1)),
                };
                let page = ((story % 2) << 24) | (i % 97);
                ev(10 * i, kind, Some(page), Some(i), span, parent)
            })
            .collect()
    }

    /// The renderer driven on the calling thread.
    fn render_here(events: &[LoggedEvent]) -> Vec<u8> {
        let mut render = ChromeRender::new(Vec::new());
        for e in events {
            render.on_event(e);
        }
        render.finish().unwrap()
    }

    #[test]
    fn sink_renders_the_same_bytes_across_batch_boundaries() {
        let batch = CHROME_BATCH as u64;
        for n in [batch - 1, batch, batch + 1, 2 * batch + 1] {
            let events = story_events(n);
            let mut sink = ChromeTraceSink::new(Vec::new());
            for e in &events {
                sink.on_event(e);
            }
            let got = sink.into_inner().unwrap();
            assert!(got == render_here(&events), "{n} events");
        }
    }

    #[test]
    fn a_panic_on_the_render_thread_comes_back_as_an_error() {
        /// A writer that panics on its first write.
        struct Panics;
        impl Write for Panics {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                panic!("the writer gave up");
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = ChromeTraceSink::new(Panics);
        for e in &story_events(3 * CHROME_BATCH as u64) {
            sink.on_event(e);
        }
        let err = sink.finish().expect_err("the render panicked");
        assert!(err.to_string().contains("the writer gave up"), "{err}");
        sink.finish().expect("a second finish is a no-op");
    }

    #[test]
    fn dropping_the_sink_closes_the_document() {
        /// A writer the test reads back after the sink is gone.
        struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().expect("no writer panics").write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let events = story_events(CHROME_BATCH as u64 + 5);
        let out = std::sync::Arc::default();
        let mut sink = ChromeTraceSink::new(Shared(std::sync::Arc::clone(&out)));
        for e in &events {
            sink.on_event(e);
        }
        drop(sink);
        let got = out.lock().unwrap();
        assert!(got.ends_with(b"\n]}\n"), "an unclosed document");
        assert!(*got == render_here(&events));
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

    /// The render keeps an anchor of a few bytes per span and a short
    /// window of undecided events, never the stream: a kernel stream
    /// decides each record within a few events. Buffering the 72-byte
    /// events, plus the 40-byte record per span the render then built, took
    /// about 103 bytes per event on this stream; a varint log plus per-span
    /// close facts took under 32.
    #[test]
    fn chrome_render_keeps_anchors_and_a_short_window() {
        let events = dev_microbenchmark_dfp_events();
        assert!(events.len() > 300_000, "{} events", events.len());
        let spans: std::collections::BTreeSet<u64> = events.iter().map(|e| e.span.raw()).collect();
        let mut sink = ChromeRender::new(io::sink());
        let mut window = 0;
        for e in &events {
            sink.on_event(e);
            window = window.max(sink.held.len());
        }
        let per_span = sink.retained_bytes() as f64 / spans.len() as f64;
        eprintln!(
            "{} events, {} spans: {per_span:.2} bytes per span, window of {window}",
            events.len(),
            spans.len()
        );
        assert!(per_span <= 8.0, "{per_span:.2} bytes per span");
        assert!(window <= 32, "{window} events held at once");
        assert!(
            sink.anchors.spill.is_empty(),
            "a kernel stream never spills"
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

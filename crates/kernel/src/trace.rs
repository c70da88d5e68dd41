//! Streaming observability: trace sinks over the kernel's paging events.
//!
//! The kernel no longer buffers a `Vec<LoggedEvent>`; instead any number of
//! [`TraceSink`]s subscribe via [`Kernel::subscribe`](crate::Kernel::subscribe)
//! and see every event as it is emitted. The built-in sinks cover the common
//! needs: [`CountingSink`] (per-kind tallies), [`HistogramSink`] (log2-bucketed
//! cycle distributions), [`CollectingSink`] (the old buffer-everything
//! behavior, opt-in) and [`JsonlWriterSink`] (streaming JSON-lines to a
//! file).
//!
//! Sinks hand out shared [`Rc`] handles at construction so the caller can
//! read results after the boxed sink has been moved into the kernel. The
//! kernel is single-threaded by design (campaign workers each build their
//! own), so no `Send` bound is required.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use sgx_sim::{json, Cycles, Histogram};

use crate::{EventKind, GaugeSample, LoggedEvent};

/// A streaming consumer of kernel paging events.
///
/// Implementations must be cheap: `on_event` runs inline on the simulated
/// fault path. Sinks are invoked in subscription order.
pub trait TraceSink {
    /// Observes one event. Events within a single kernel call are emitted
    /// in causal order; timestamps across calls are monotone per call site
    /// but completions may be logged at their (future) finish instant.
    fn on_event(&mut self, event: &LoggedEvent);

    /// Observes one periodic gauge sample. Only delivered when the kernel
    /// has a sampling interval configured
    /// ([`Kernel::set_sample_interval`](crate::Kernel::set_sample_interval));
    /// the default implementation ignores samples, so existing sinks are
    /// unaffected.
    fn on_sample(&mut self, _sample: &GaugeSample) {}
}

impl<F: FnMut(&LoggedEvent)> TraceSink for F {
    fn on_event(&mut self, event: &LoggedEvent) {
        self(event)
    }
}

/// Forwards a run's events and samples to a sink its creator keeps a
/// handle to, so that after the run the creator can `finish` a file sink
/// and report its first write error.
pub struct SharedSink<S>(Rc<RefCell<S>>);

impl<S> SharedSink<S> {
    /// Wraps `sink`; subscribe the first half and keep the second.
    pub fn new(sink: S) -> (Self, Rc<RefCell<S>>) {
        let shared = Rc::new(RefCell::new(sink));
        (SharedSink(Rc::clone(&shared)), shared)
    }
}

impl<S: TraceSink> TraceSink for SharedSink<S> {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.0.borrow_mut().on_event(event);
    }

    fn on_sample(&mut self, sample: &GaugeSample) {
        self.0.borrow_mut().on_sample(sample);
    }
}

/// Per-kind tallies of the kernel's paging events — the event-level
/// telemetry a campaign cell derives from a [`CountingSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Page faults (AEX entries).
    pub faults: u64,
    /// Demand loads completed on the channel.
    pub demand_loads: u64,
    /// Background DFP preloads started.
    pub preload_starts: u64,
    /// Background loads (DFP preloads or SIP prefetches) completed.
    pub preload_dones: u64,
    /// Background (reclaimer) evictions.
    pub background_evictions: u64,
    /// Foreground (inside a blocking load) evictions.
    pub foreground_evictions: u64,
    /// Demand-fault aborts of queued preloads, one per abort event; the
    /// pages they drop are `KernelStats::preloads_aborted`.
    pub preload_aborts: u64,
    /// SIP blocking loads completed.
    pub sip_loads: u64,
    /// DFP-stop valve firings (0 or 1 per run).
    pub valve_stops: u64,
    /// Asynchronous SIP prefetch loads started.
    pub sip_prefetch_starts: u64,
    /// Fault resolutions (ERESUME; one per fault).
    pub faults_resolved: u64,
    /// First touches of preloaded pages (successful preloads).
    pub preload_hits: u64,
    /// Non-empty stream predictions emitted by the DFP.
    pub stream_predictions: u64,
    /// Terminal run-end markers (exactly one per complete stream).
    pub run_ends: u64,
}

impl EventCounts {
    /// Tallies one event of `kind`. Every event counts once, whatever its
    /// `value`, so [`EventCounts::total`] is the number of events seen.
    pub fn bump(&mut self, kind: EventKind) {
        *match kind {
            EventKind::Fault => &mut self.faults,
            EventKind::DemandLoaded => &mut self.demand_loads,
            EventKind::PreloadStart => &mut self.preload_starts,
            EventKind::PreloadDone => &mut self.preload_dones,
            EventKind::EvictBackground => &mut self.background_evictions,
            EventKind::EvictForeground => &mut self.foreground_evictions,
            EventKind::PreloadAbort => &mut self.preload_aborts,
            EventKind::SipLoaded => &mut self.sip_loads,
            EventKind::ValveStopped => &mut self.valve_stops,
            EventKind::SipPrefetchStart => &mut self.sip_prefetch_starts,
            EventKind::FaultResolved => &mut self.faults_resolved,
            EventKind::PreloadHit => &mut self.preload_hits,
            EventKind::StreamPredicted => &mut self.stream_predictions,
            EventKind::RunEnd => &mut self.run_ends,
        } += 1;
    }

    /// Every tally as `(name, count)`, in schema order.
    fn tallies(&self) -> [(&'static str, u64); 14] {
        [
            ("faults", self.faults),
            ("demand_loads", self.demand_loads),
            ("preload_starts", self.preload_starts),
            ("preload_dones", self.preload_dones),
            ("background_evictions", self.background_evictions),
            ("foreground_evictions", self.foreground_evictions),
            ("preload_aborts", self.preload_aborts),
            ("sip_loads", self.sip_loads),
            ("valve_stops", self.valve_stops),
            ("sip_prefetch_starts", self.sip_prefetch_starts),
            ("faults_resolved", self.faults_resolved),
            ("preload_hits", self.preload_hits),
            ("stream_predictions", self.stream_predictions),
            ("run_ends", self.run_ends),
        ]
    }

    /// Total events tallied: one per event.
    pub fn total(&self) -> u64 {
        self.tallies().iter().map(|&(_, n)| n).sum()
    }

    /// Appends this tally as a JSON object.
    pub fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            for (name, n) in self.tallies() {
                o.field(name, n);
            }
        });
    }
}

/// A sink that tallies events per kind into a shared [`EventCounts`].
///
/// # Examples
///
/// ```
/// use sgx_kernel::{CountingSink, EventKind, LoggedEvent, SpanId};
/// use sgx_sim::Cycles;
///
/// let (sink, counts) = CountingSink::new();
/// let mut sink = sink; // normally boxed into Kernel::subscribe
/// use sgx_kernel::TraceSink;
/// sink.on_event(&LoggedEvent {
///     at: Cycles::ZERO,
///     what: EventKind::Fault,
///     page: None,
///     value: None,
///     span: SpanId::new(1),
///     parent: None,
/// });
/// assert_eq!(counts.get().faults, 1);
/// ```
#[derive(Debug)]
pub struct CountingSink {
    counts: Rc<Cell<EventCounts>>,
}

impl CountingSink {
    /// Creates the sink plus the shared handle the caller keeps.
    pub fn new() -> (Self, Rc<Cell<EventCounts>>) {
        let counts = Rc::new(Cell::new(EventCounts::default()));
        (
            CountingSink {
                counts: Rc::clone(&counts),
            },
            counts,
        )
    }
}

impl TraceSink for CountingSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        let mut c = self.counts.get();
        c.bump(event.what);
        self.counts.set(c);
    }
}

/// The cycle histograms a [`HistogramSink`] accumulates.
#[derive(Debug, Clone)]
pub struct TraceHistograms {
    /// End-to-end fault service time (`FaultResolved.value`).
    pub fault_service: Histogram,
    /// Preload-completion-to-first-touch lead time (`PreloadHit.value`).
    pub preload_lead: Histogram,
    /// Predicted stream lengths (`StreamPredicted.value`).
    pub stream_len: Histogram,
    /// Replacement-policy scan lengths per eviction (`Evict*.value`).
    pub evict_scan: Histogram,
}

impl TraceHistograms {
    fn new() -> Self {
        TraceHistograms {
            fault_service: Histogram::new("fault_service"),
            preload_lead: Histogram::new("preload_lead"),
            stream_len: Histogram::new("stream_len"),
            evict_scan: Histogram::new("evict_scan"),
        }
    }

    /// Clears every histogram, keeping the allocation. Lets benchmarks
    /// reuse one subscribed sink across iterations instead of rebuilding
    /// the kernel's sink list per measurement.
    pub fn reset(&mut self) {
        *self = TraceHistograms::new();
    }
}

impl Default for TraceHistograms {
    fn default() -> Self {
        Self::new()
    }
}

/// A sink that folds the event stream's metric payloads into log2-bucketed
/// [`Histogram`]s: fault latency, preload lead time, stream length, and
/// eviction scan cost.
///
/// Cloning yields a second sink sharing the same histograms, so one can be
/// subscribed while the caller keeps draining the other's handle.
#[derive(Debug, Clone)]
pub struct HistogramSink {
    hists: Rc<RefCell<TraceHistograms>>,
}

impl HistogramSink {
    /// Creates the sink plus the shared handle the caller keeps.
    pub fn new() -> (Self, Rc<RefCell<TraceHistograms>>) {
        let hists = Rc::new(RefCell::new(TraceHistograms::new()));
        (
            HistogramSink {
                hists: Rc::clone(&hists),
            },
            hists,
        )
    }
}

impl TraceSink for HistogramSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        let v = Cycles::new(event.value.unwrap_or(0));
        let mut h = self.hists.borrow_mut();
        match event.what {
            EventKind::FaultResolved => h.fault_service.record(v),
            EventKind::PreloadHit => h.preload_lead.record(v),
            EventKind::StreamPredicted => h.stream_len.record(v),
            EventKind::EvictBackground | EventKind::EvictForeground => h.evict_scan.record(v),
            _ => {}
        }
    }
}

/// A sink that buffers every event — the old `take_event_log` behavior,
/// now opt-in.
#[derive(Debug)]
pub struct CollectingSink {
    events: Rc<RefCell<Vec<LoggedEvent>>>,
}

impl CollectingSink {
    /// Creates the sink plus the shared buffer handle.
    pub fn new() -> (Self, Rc<RefCell<Vec<LoggedEvent>>>) {
        let events = Rc::new(RefCell::new(Vec::new()));
        (
            CollectingSink {
                events: Rc::clone(&events),
            },
            events,
        )
    }
}

impl TraceSink for CollectingSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.events.borrow_mut().push(*event);
    }
}

/// A sink that streams events as JSON lines (one object per event) to any
/// writer, typically a buffered file.
///
/// Write errors are latched rather than panicking mid-simulation: the first
/// failure stops further writes (the simulation result is still valid, the
/// trace file is just truncated) and [`JsonlWriterSink::finish`] reports
/// it; `Drop` flushes and surfaces nothing.
pub struct JsonlWriterSink<W: Write> {
    // Taken by into_inner despite Drop, and dropped on the first error.
    out: Option<W>,
    /// The first write error, which `finish` reports.
    error: Option<io::Error>,
    written: u64,
    // One line's bytes, reused across events.
    line: String,
}

impl JsonlWriterSink<BufWriter<File>> {
    /// Creates (truncates) `path` and streams events to it through a
    /// buffer.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlWriterSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlWriterSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlWriterSink {
            out: Some(out),
            error: None,
            written: 0,
            line: String::with_capacity(96),
        }
    }

    /// Number of events successfully serialized so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes the writer. Idempotent once it has reported an error.
    ///
    /// # Errors
    ///
    /// Reports the first write error the run met, or the flush's.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.as_mut().map_or(Ok(()), Write::flush)
    }

    /// Flushes and returns the writer (for in-memory writers in tests).
    ///
    /// # Errors
    ///
    /// Everything [`JsonlWriterSink::finish`] reports; after an earlier
    /// `finish` reported an error, there is no writer to return.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.finish()?;
        self.out
            .take()
            .ok_or_else(|| io::Error::other("the JSONL writer failed earlier"))
    }
}

impl<W: Write> std::fmt::Debug for JsonlWriterSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlWriterSink")
            .field("failed", &self.out.is_none())
            .field("written", &self.written)
            .finish()
    }
}

impl<W: Write> TraceSink for JsonlWriterSink<W> {
    fn on_event(&mut self, event: &LoggedEvent) {
        let Some(out) = self.out.as_mut() else {
            return;
        };
        let line = &mut self.line;
        line.clear();
        json::obj(line, |o| {
            o.field("at", event.at).field("kind", event.what.name());
            if let Some(p) = event.page {
                o.field("page", p.raw());
            }
            if let Some(v) = event.value {
                o.field("value", v);
            }
            o.field("span", event.span.raw());
            if let Some(p) = event.parent {
                o.field("parent", p.raw());
            }
        });
        line.push('\n');
        if let Err(e) = out.write_all(line.as_bytes()) {
            self.error = Some(e);
            self.out = None;
            return;
        }
        self.written += 1;
    }
}

impl<W: Write> Drop for JsonlWriterSink<W> {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_epc::VirtPage;

    fn ev(at: u64, what: EventKind) -> LoggedEvent {
        LoggedEvent {
            at: Cycles::new(at),
            what,
            page: Some(VirtPage::new(7)),
            value: Some(at),
            span: crate::SpanId::new(at),
            parent: None,
        }
    }

    #[test]
    fn counting_sink_tallies_every_kind() {
        let (mut sink, counts) = CountingSink::new();
        let kinds = EventKind::ALL;
        for k in kinds {
            sink.on_event(&ev(5, k));
        }
        let c = counts.get();
        // Every event counts once, whatever its `value`.
        assert_eq!(c.total(), kinds.len() as u64);
        assert_eq!(c.faults, 1);
        assert_eq!(c.valve_stops, 1);
        assert_eq!(c.preload_aborts, 1);
        assert_eq!(c.stream_predictions, 1);
        assert_eq!(c.run_ends, 1);
    }

    #[test]
    fn histogram_sink_routes_values() {
        let (mut sink, hists) = HistogramSink::new();
        sink.on_event(&ev(60_000, EventKind::FaultResolved));
        sink.on_event(&ev(2_000, EventKind::FaultResolved));
        sink.on_event(&ev(500, EventKind::PreloadHit));
        sink.on_event(&ev(3, EventKind::StreamPredicted));
        sink.on_event(&ev(4, EventKind::EvictBackground));
        sink.on_event(&ev(2, EventKind::EvictForeground));
        sink.on_event(&ev(1, EventKind::Fault)); // no payload routed
        let h = hists.borrow();
        assert_eq!(h.fault_service.count(), 2);
        assert_eq!(h.preload_lead.count(), 1);
        assert_eq!(h.stream_len.count(), 1);
        assert_eq!(h.evict_scan.count(), 2);
    }

    #[test]
    fn jsonl_sink_serializes_optional_fields() {
        let mut sink = JsonlWriterSink::new(Vec::new());
        sink.on_event(&ev(5, EventKind::Fault));
        sink.on_event(&LoggedEvent {
            at: Cycles::new(9),
            what: EventKind::ValveStopped,
            page: None,
            value: None,
            span: crate::SpanId::new(2),
            parent: Some(crate::SpanId::new(5)),
        });
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(sink.into_inner().unwrap()).unwrap();
        assert_eq!(
            text,
            "{\"at\":5,\"kind\":\"fault\",\"page\":7,\"value\":5,\"span\":5}\n\
             {\"at\":9,\"kind\":\"valve-stopped\",\"span\":2,\"parent\":5}\n"
        );
    }

    #[test]
    fn jsonl_sink_latches_write_errors() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlWriterSink::new(Failing);
        sink.on_event(&ev(1, EventKind::Fault));
        sink.on_event(&ev(2, EventKind::Fault));
        assert_eq!(sink.written(), 0);
        let err = sink.finish().expect_err("the writer fails");
        assert_eq!(err.to_string(), "disk full");
        sink.finish().expect("a second finish is a no-op");
    }

    #[test]
    fn closures_are_sinks() {
        let mut n = 0u64;
        {
            let mut f = |_: &LoggedEvent| n += 1;
            TraceSink::on_event(&mut f, &ev(1, EventKind::Fault));
        }
        assert_eq!(n, 1);
    }
}

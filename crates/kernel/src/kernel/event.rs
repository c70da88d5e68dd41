//! The paging event stream: what the kernel logs, its batched delivery to
//! subscribed [`TraceSink`]s, and gauge sampling.

use sgx_epc::VirtPage;
use sgx_sim::Cycles;

use super::Kernel;
use crate::{GaugeSample, SpanId, TraceSink};

/// One streamed paging event, delivered to every subscribed
/// [`TraceSink`](crate::TraceSink): the raw material of the paper's
/// Fig. 2 / Fig. 4 time sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedEvent {
    /// When the event happened (job completions log their finish time).
    pub at: Cycles,
    /// What happened.
    pub what: EventKind,
    /// The page involved, if any.
    pub page: Option<VirtPage>,
    /// A kind-specific metric payload: service cycles for
    /// [`EventKind::FaultResolved`], lead cycles for
    /// [`EventKind::PreloadHit`], scan length for the eviction kinds,
    /// stream length for [`EventKind::StreamPredicted`], dropped-page
    /// count for the abort kinds, and total run cycles for
    /// [`EventKind::RunEnd`].
    pub value: Option<u64>,
    /// This event's causal span. Open/close pairs share one id (a `Fault`
    /// and its `FaultResolved`; a `PreloadStart`/`SipPrefetchStart` and
    /// its `PreloadDone`); every other event gets a fresh id.
    pub span: SpanId,
    /// The span this event was caused by, per the table in
    /// [`crate::span`]; `None` for autonomous events.
    pub parent: Option<SpanId>,
}

/// Event kinds streamed to trace sinks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A page fault arrived (AEX begins).
    Fault,
    /// A demand load completed on the channel.
    DemandLoaded,
    /// A background DFP preload started on the channel.
    PreloadStart,
    /// A background load (DFP preload or SIP prefetch) completed (page
    /// resident).
    PreloadDone,
    /// A page was evicted (EWB) in the background; `value` is the
    /// replacement policy's scan length.
    EvictBackground,
    /// A page was evicted (EWB) inside a blocking load; `value` is the
    /// replacement policy's scan length.
    EvictForeground,
    /// Queued preloads were aborted by the fault handler; `value` is the
    /// number of dropped pages.
    PreloadAbort,
    /// A SIP blocking load completed (no world switch).
    SipLoaded,
    /// The DFP-stop valve fired; `value` is the number of dropped pages.
    ValveStopped,
    /// An asynchronous SIP prefetch started on the channel.
    SipPrefetchStart,
    /// A fault's ERESUME fired (`at` is the resume instant); `value` is the
    /// end-to-end service time in cycles.
    FaultResolved,
    /// First touch of a DFP-preloaded page — a successful preload; `value`
    /// is the completion-to-touch lead time in cycles.
    PreloadHit,
    /// The DFP emitted a non-empty prediction; `value` is the number of
    /// predicted pages.
    StreamPredicted,
    /// The run ended; `value` is the run's total cycles. Emitted exactly
    /// once, by [`Kernel::finish`], so stream consumers can tell a
    /// truncated trace from a complete one.
    RunEnd,
}

impl EventKind {
    /// Every kind, in declaration order: `ALL[k as usize] == k`.
    pub const ALL: [EventKind; 14] = [
        EventKind::Fault,
        EventKind::DemandLoaded,
        EventKind::PreloadStart,
        EventKind::PreloadDone,
        EventKind::EvictBackground,
        EventKind::EvictForeground,
        EventKind::PreloadAbort,
        EventKind::SipLoaded,
        EventKind::ValveStopped,
        EventKind::SipPrefetchStart,
        EventKind::FaultResolved,
        EventKind::PreloadHit,
        EventKind::StreamPredicted,
        EventKind::RunEnd,
    ];

    /// The kind's stable kebab-case name, as traces and reports print it.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Fault => "fault",
            EventKind::DemandLoaded => "demand-loaded",
            EventKind::PreloadStart => "preload-start",
            EventKind::PreloadDone => "preload-done",
            EventKind::EvictBackground => "evict-bg",
            EventKind::EvictForeground => "evict-fg",
            EventKind::PreloadAbort => "preload-abort",
            EventKind::SipLoaded => "sip-loaded",
            EventKind::ValveStopped => "valve-stopped",
            EventKind::SipPrefetchStart => "sip-prefetch-start",
            EventKind::FaultResolved => "fault-resolved",
            EventKind::PreloadHit => "preload-hit",
            EventKind::StreamPredicted => "stream-predicted",
            EventKind::RunEnd => "run-end",
        }
    }
}

impl std::fmt::Display for EventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Kernel {
    #[inline]
    pub(super) fn log(
        &mut self,
        at: Cycles,
        what: EventKind,
        page: Option<VirtPage>,
        value: Option<u64>,
        span: SpanId,
        parent: Option<SpanId>,
    ) {
        if self.sinks.is_empty() {
            return;
        }
        self.pending.push(LoggedEvent {
            at,
            what,
            page,
            value,
            span,
            parent,
        });
    }

    /// Delivers batched events to every sink, preserving the per-event
    /// sink order of unbatched delivery. Called at public entry-point
    /// boundaries and before any gauge sample, so each sink observes the
    /// exact `on_event`/`on_sample` interleaving of immediate delivery.
    pub(super) fn flush_events(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        for event in &pending {
            for sink in &mut self.sinks {
                sink.on_event(event);
            }
        }
        pending.clear();
        self.pending = pending;
    }

    /// Subscribes a streaming [`TraceSink`]: every subsequent paging event
    /// is delivered to it (and to any other subscribed sinks, in
    /// subscription order). With no subscribers the event path is a no-op
    /// — nothing is buffered.
    pub fn subscribe(&mut self, sink: Box<dyn TraceSink>) {
        self.sinks.push(sink);
    }

    /// Ends the run at `now`: emits the terminal [`EventKind::RunEnd`]
    /// event (value = total cycles) exactly once — so stream consumers
    /// can tell a truncated trace from a complete one — plus a final
    /// gauge sample when time-series sampling is on. Idempotent.
    ///
    /// Deliberately does *not* run pending background work: trailing
    /// in-flight jobs stay unapplied, so finishing a run changes no
    /// statistic and observation never perturbs what it observes.
    pub fn finish(&mut self, now: Cycles) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.sample_every > 0 && !self.sinks.is_empty() {
            self.emit_sample(now);
        }
        let span = self.spans.next();
        self.log(now, EventKind::RunEnd, None, Some(now.raw()), span, None);
        self.flush_events();
    }

    /// Sets the gauge-sampling interval: one
    /// [`TraceSink::on_sample`] delivery per `every` simulated cycles,
    /// taken at the public entry points. `0` (the default) disables
    /// sampling.
    pub fn set_sample_interval(&mut self, every: u64) {
        self.sample_every = every;
    }

    /// Emits a gauge sample if sampling is on, a sink is listening, and
    /// at least one interval has elapsed since the last sample.
    pub(super) fn maybe_sample(&mut self, now: Cycles) {
        if self.sample_every == 0 || self.sinks.is_empty() {
            return;
        }
        if now.raw().saturating_sub(self.last_sample_at.raw()) < self.sample_every {
            return;
        }
        self.emit_sample(now);
    }

    fn emit_sample(&mut self, now: Cycles) {
        self.flush_events();
        self.last_sample_at = now;
        let (mut faults, mut preloads_started) = (0, 0);
        for s in &self.ledger.stats {
            faults += s.faults;
            preloads_started += s.preloads_started;
        }
        let sample = GaugeSample {
            at: now,
            epc_resident: self.epc.resident_count(),
            epc_free: self.epc.free_slots(),
            queue_depth: self.preload_queue_len() as u64,
            sip_queue_depth: self.arbiter.sip.len() as u64,
            live_streams: self.predictor.live_streams(),
            valve_stops: u64::from(self.preload_stopped),
            channel_busy: self.channel_busy,
            faults,
            preloads_started,
            scan_steps: self.epc.scan_steps_total(),
            tenant_resident: self.epc.residency_snapshot(),
        };
        for sink in &mut self.sinks {
            sink.on_sample(&sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::tests::*;

    #[test]
    fn trace_stream_captures_the_fig2_sequence() {
        let mut k = kernel_with(64, Box::new(NextLinePredictor::new(1)));
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let r0 = k.page_fault(Cycles::ZERO, PID, p(0));
        let _ = k.page_fault(r0.resume_at, PID, p(1)); // waits for in-flight
        let kinds: Vec<EventKind> = events.borrow().iter().map(|e| e.what).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Fault,           // page 0 faults
                EventKind::DemandLoaded,    // page 0 loaded
                EventKind::StreamPredicted, // page 1 predicted
                EventKind::FaultResolved,   // page 0's ERESUME
                EventKind::PreloadStart,    // page 1's preload starts
                EventKind::Fault,           // page 1 faults mid-preload
                EventKind::PreloadDone,     // the in-flight load satisfies it
                EventKind::PreloadHit,      // ...and is touched on arrival
                EventKind::StreamPredicted, // page 2 predicted
                EventKind::FaultResolved,   // page 1's ERESUME
            ],
            "got {:?}",
            events.borrow()
        );
        // The fault-resolved payload is the recorded service time.
        let resolved: Vec<u64> = events
            .borrow()
            .iter()
            .filter(|e| e.what == EventKind::FaultResolved)
            .map(|e| e.value.unwrap())
            .collect();
        assert_eq!(resolved.len(), 2);
        assert_eq!(
            resolved.iter().sum::<u64>() as u128,
            k.stats().fault_service.sum()
        );
        // The second fault's page arrived exactly at its touch: zero lead.
        let hit = events.borrow()[7];
        assert_eq!(hit.page, Some(p(1)));
        assert_eq!(hit.value, Some(0));
        assert_eq!(k.stats().preload_lead.count(), 1);
    }

    #[test]
    fn sinks_see_nothing_until_subscribed() {
        let mut k = kernel_with(16, Box::new(NoPredictor));
        let r = k.page_fault(Cycles::ZERO, PID, p(0));
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        assert!(events.borrow().is_empty());
        let _ = k.page_fault(r.resume_at, PID, p(1));
        // Fault, DemandLoaded, FaultResolved (NoPredictor: no stream).
        assert_eq!(events.borrow().len(), 3);
    }

    #[test]
    fn counting_sink_matches_kernel_stats() {
        let mut k = kernel_with(8, Box::new(NextLinePredictor::new(3)));
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        // The abort events carry the pages they drop.
        let (sink, events) = crate::CollectingSink::new();
        k.subscribe(Box::new(sink));
        let mut now = Cycles::ZERO;
        for i in 0..200u64 {
            let page = p(i % 24);
            if k.app_access(now, PID, page).is_none() {
                now = k.page_fault(now, PID, page).resume_at;
            }
            now += Cycles::new(50);
        }
        let c = counts.get();
        let s = k.stats();
        assert_eq!(c.faults, s.faults);
        assert_eq!(c.preload_aborts, s.preload_abort_events);
        let events = events.borrow();
        let aborts = events.iter().filter(|e| e.what == EventKind::PreloadAbort);
        assert_eq!(
            aborts.filter_map(|e| e.value).sum::<u64>(),
            s.preloads_aborted
        );
        assert!(c.preload_aborts > 0, "no abort to count");
        assert_eq!(c.faults_resolved, s.faults);
        assert_eq!(c.demand_loads, s.demand_loads);
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.background_evictions, s.background_evictions);
        assert_eq!(c.foreground_evictions, s.foreground_evictions);
        assert_eq!(c.preload_hits, s.preload_lead.count());
        assert_eq!(c.stream_predictions, s.stream_len.count());
        assert_eq!(
            (c.background_evictions + c.foreground_evictions),
            s.evict_scan.count()
        );
        assert!(c.faults > 0 && c.preload_starts > 0, "workload too tame");
    }
}

//! The observer sink: the untrusted OS's filtered view of the event
//! stream.

use std::cell::RefCell;
use std::rc::Rc;

use sgx_kernel::{EventCounts, EventKind, LoggedEvent, TraceSink};
use sgx_workloads::PageRange;

/// Whether the untrusted OS can observe an event of this kind.
///
/// The visibility contract, kind by kind:
///
/// * `Fault` / `FaultResolved` — the AEX lands in the OS fault handler
///   and ERESUME goes back through the OS: visible, with the page.
/// * `DemandLoaded`, `PreloadStart`, `PreloadDone`, `SipPrefetchStart`,
///   `SipLoaded` — every (pre)load is an ELDU the OS itself performs on
///   the memory channel: visible, with the page. Preloads are the
///   predictor's *echo*: the OS learns pages the enclave never faulted
///   on.
/// * `EvictBackground` / `EvictForeground` — EWB runs in the OS
///   reclaimer: visible.
/// * `PreloadAbort`, `ValveStopped`, `StreamPredicted` — DFP and its
///   safety valve run inside the untrusted kernel driver: visible.
/// * `RunEnd` — process teardown: visible.
/// * `PreloadHit` — the **only private kind**: the first touch of an
///   already-resident preloaded page raises no AEX and crosses no
///   enclave boundary, so the OS never learns it happened. This is
///   precisely the event preloading removes from the channel.
pub fn is_os_visible(kind: EventKind) -> bool {
    !matches!(kind, EventKind::PreloadHit)
}

/// Which observation channel an OS-visible paged event lands in.
///
/// * The **fault channel** is the classic page-fault side channel: the
///   sequence of faulting pages, in order.
/// * The **load channel** is everything whose page the OS serves or
///   reclaims on the memory channel: demand loads, preload requests,
///   SIP blocking loads and prefetches, evictions. Preload requests are
///   included at *start* (the request names the page; `PreloadDone`
///   would double-count it), demand loads at completion (they have no
///   separate start event).
fn channel_of(kind: EventKind) -> Option<Channel> {
    match kind {
        EventKind::Fault => Some(Channel::Fault),
        EventKind::DemandLoaded
        | EventKind::PreloadStart
        | EventKind::SipPrefetchStart
        | EventKind::SipLoaded
        | EventKind::EvictBackground
        | EventKind::EvictForeground => Some(Channel::Load),
        _ => None,
    }
}

enum Channel {
    Fault,
    Load,
}

/// Everything the untrusted OS accumulated while watching one run.
#[derive(Debug, Clone, Default)]
pub struct Observation {
    /// Per-kind tallies of the **OS-visible** events only. By the
    /// visibility contract, `counts.preload_hits` is always zero.
    pub counts: EventCounts,
    /// Enclave-private events the filter suppressed (the blindness
    /// ledger: what a full-stream sink saw that the OS did not).
    pub private_suppressed: u64,
    /// The page-fault side channel: faulting pages in fault order.
    pub fault_pages: Vec<u64>,
    /// The load channel: every page the OS served or reclaimed, in
    /// channel order (see [`is_os_visible`] for which kinds land here).
    pub channel_pages: Vec<u64>,
    /// Registered enclaves: label plus OS-view (global) page range. The
    /// OS legitimately knows every ELRANGE it mapped.
    enclaves: Vec<(String, PageRange)>,
    /// Fault sequences split per registered enclave, parallel to
    /// `enclaves`.
    per_enclave_faults: Vec<Vec<u64>>,
}

impl Observation {
    /// Total OS-visible events recorded.
    pub fn observed_events(&self) -> u64 {
        self.counts.total()
    }

    /// Iterates registered enclaves as `(label, fault page sequence)`.
    pub fn enclave_faults(&self) -> impl Iterator<Item = (&str, &[u64])> {
        self.enclaves
            .iter()
            .zip(&self.per_enclave_faults)
            .map(|((label, _), seq)| (label.as_str(), seq.as_slice()))
    }

    fn record(&mut self, event: &LoggedEvent) {
        if !is_os_visible(event.what) {
            self.private_suppressed += 1;
            return;
        }
        self.counts.bump(event.what);
        let Some(page) = event.page else { return };
        let raw = page.raw();
        match channel_of(event.what) {
            Some(Channel::Fault) => {
                self.fault_pages.push(raw);
                for (i, (_, range)) in self.enclaves.iter().enumerate() {
                    if range.contains(page) {
                        self.per_enclave_faults[i].push(raw);
                    }
                }
            }
            Some(Channel::Load) => self.channel_pages.push(raw),
            None => {}
        }
    }
}

/// A [`TraceSink`] that models the untrusted OS: it drops enclave-private
/// events and accumulates the two observable page sequences plus the
/// OS-visible [`EventCounts`] into a shared [`Observation`].
///
/// Follows the sink idiom of `sgx_kernel::trace`: the constructor returns
/// the sink (moved into `Kernel::subscribe`) plus the [`Rc`] handle the
/// caller keeps to read results afterwards.
#[derive(Debug)]
pub struct ObserverSink {
    obs: Rc<RefCell<Observation>>,
}

impl ObserverSink {
    /// Creates the sink plus the shared observation handle.
    pub fn new() -> (Self, Rc<RefCell<Observation>>) {
        let obs = Rc::new(RefCell::new(Observation::default()));
        (
            ObserverSink {
                obs: Rc::clone(&obs),
            },
            obs,
        )
    }

    /// Registers an enclave's OS-view page range so its faults are also
    /// attributed per-enclave. Returns `self` for chaining at
    /// construction.
    pub fn with_enclave(self, label: impl Into<String>, range: PageRange) -> Self {
        {
            let mut o = self.obs.borrow_mut();
            o.enclaves.push((label.into(), range));
            o.per_enclave_faults.push(Vec::new());
        }
        self
    }
}

impl TraceSink for ObserverSink {
    fn on_event(&mut self, event: &LoggedEvent) {
        self.obs.borrow_mut().record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_epc::VirtPage;
    use sgx_kernel::SpanId;
    use sgx_sim::Cycles;

    fn ev(what: EventKind, page: u64) -> LoggedEvent {
        LoggedEvent {
            at: Cycles::ZERO,
            what,
            page: Some(VirtPage::new(page)),
            value: Some(1),
            span: SpanId::new(1),
            parent: None,
        }
    }

    #[test]
    fn only_preload_hit_is_private() {
        let kinds = EventKind::ALL;
        let private: Vec<EventKind> = kinds
            .iter()
            .copied()
            .filter(|&k| !is_os_visible(k))
            .collect();
        assert_eq!(private, [EventKind::PreloadHit]);
    }

    #[test]
    fn sink_filters_and_splits_channels() {
        let (mut sink, obs) = ObserverSink::new();
        sink.on_event(&ev(EventKind::Fault, 3));
        sink.on_event(&ev(EventKind::DemandLoaded, 3));
        sink.on_event(&ev(EventKind::PreloadStart, 4));
        sink.on_event(&ev(EventKind::PreloadHit, 4)); // private
        sink.on_event(&ev(EventKind::EvictForeground, 9));
        let o = obs.borrow();
        assert_eq!(o.fault_pages, [3]);
        assert_eq!(o.channel_pages, [3, 4, 9]);
        assert_eq!(o.private_suppressed, 1);
        assert_eq!(o.counts.preload_hits, 0);
        assert_eq!(o.counts.faults, 1);
        assert_eq!(o.observed_events(), 4);
    }

    #[test]
    fn per_enclave_attribution_uses_registered_ranges() {
        let (mut sink, obs) = {
            let (s, o) = ObserverSink::new();
            (
                s.with_enclave("left", PageRange::new(0, 10))
                    .with_enclave("right", PageRange::new(10, 20)),
                o,
            )
        };
        sink.on_event(&ev(EventKind::Fault, 5));
        sink.on_event(&ev(EventKind::Fault, 15));
        sink.on_event(&ev(EventKind::Fault, 7));
        let o = obs.borrow();
        let got: Vec<(&str, Vec<u64>)> = o.enclave_faults().map(|(l, s)| (l, s.to_vec())).collect();
        assert_eq!(got, [("left", vec![5, 7]), ("right", vec![15])]);
        assert_eq!(o.fault_pages, [5, 15, 7]);
    }
}

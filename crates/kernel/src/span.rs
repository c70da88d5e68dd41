//! Causal span identities for the paging-event stream.
//!
//! Every paging activity the kernel logs — a fault being serviced, a
//! prediction batch, a channel load, an eviction, a valve decision — is
//! identified by a [`SpanId`] assigned from a single monotonic counter.
//! Events that open and close the same activity (a `Fault` and its
//! `FaultResolved`, a `PreloadStart` and its `PreloadDone`) share one id,
//! so a consumer can pair them into duration spans; everything else gets a
//! fresh id per event.
//!
//! Causality is carried by `LoggedEvent::parent`:
//!
//! | event | parent |
//! |---|---|
//! | `Fault` / `FaultResolved` | the preload/prefetch span that staged the page, or `None` (cold fault) |
//! | `StreamPredicted` (the batch span) | the triggering fault's span |
//! | `PreloadStart` / `PreloadDone` | the prediction-batch span (`None` for SIP prefetches) |
//! | `PreloadHit` | the staging load's span |
//! | `DemandLoaded` | the fault's span |
//! | `PreloadAbort` | the aborted batch's span |
//! | `ValveStopped` | the fault whose accuracy check tripped the valve |
//! | `EvictForeground` | the blocking load that forced it |
//! | `EvictBackground`, `SipLoaded`, `SipPrefetchStart`, `RunEnd` | `None` (autonomous) |
//!
//! Ids are assigned whether or not any sink is subscribed, so observation
//! never changes the numbering (or anything else) of an observed run.

use std::fmt;

/// Identity of one causal span in a run's event stream.
///
/// Ids start at 1 and increase monotonically in emission order; 0 is never
/// assigned, so serialized traces can use it as a sentinel.
///
/// # Examples
///
/// ```
/// use sgx_kernel::SpanId;
///
/// let a = SpanId::new(1);
/// let b = SpanId::new(2);
/// assert!(a < b);
/// assert_eq!(a.raw(), 1);
/// assert_eq!(format!("{a}"), "s1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Wraps a raw id (tests and deserializers; the kernel allocates its
    /// own).
    pub fn new(raw: u64) -> Self {
        SpanId(raw)
    }

    /// The raw id.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The kernel's monotonic span allocator.
#[derive(Debug, Default, Clone)]
pub(crate) struct SpanAlloc {
    next: u64,
}

impl SpanAlloc {
    /// Allocates the next id (1, 2, 3, …).
    pub(crate) fn next(&mut self) -> SpanId {
        self.next += 1;
        SpanId(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_monotonic_from_one() {
        let mut a = SpanAlloc::default();
        let first = a.next();
        assert_eq!(first, SpanId::new(1));
        let second = a.next();
        assert!(first < second);
        assert_eq!(second.raw(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(SpanId::new(41).to_string(), "s41");
    }
}

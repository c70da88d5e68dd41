//! Recorded traces as first-class workloads.
//!
//! A [`TraceReplay`] packages a loaded [`RecordedTrace`] so it plugs into
//! [`SimRun`](crate::SimRun) and [`Campaign`](crate::Campaign) exactly
//! like a synthetic [`Benchmark`] — through `AppSpec`, tenant policy,
//! and the user-level scheme alike.
//!
//! The replay contract: a trace recorded from
//! `bench.build(InputSet::Ref, cfg.scale, cfg.seed)` and replayed with
//! [`TraceReplay::of_benchmark`] under the same `cfg` produces a
//! [`RunReport`](crate::RunReport) *byte-identical* (in canonical JSON)
//! to running the generator directly: the label, ELRANGE, access stream,
//! and — because `of_benchmark` remembers the source — the SIP
//! profiling pass are all reconstructed exactly. Anonymous replays
//! ([`TraceReplay::new`]) have no train input to profile, so they run
//! uninstrumented under SIP schemes. A source-declared trace must fit its
//! benchmark's ELRANGE at the run's scale; one that does not fails the
//! run with an [`ElrangeError`].

use std::fmt;
use std::sync::Arc;

use sgx_workloads::{Access, AccessIter, Benchmark, RecordedTrace, Scale};

/// A recorded access trace ready to run through the simulator. Cloning is
/// cheap (the trace is shared), so one loaded recording can fan out
/// across a whole campaign grid.
#[derive(Clone)]
pub struct TraceReplay {
    label: String,
    trace: Arc<RecordedTrace>,
    source: Option<Benchmark>,
}

/// A source-declared replay whose trace touches a page outside its
/// benchmark's ELRANGE at the run's scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElrangeError {
    /// The trace's largest page.
    pub page: u64,
    /// The declared source benchmark.
    pub bench: Benchmark,
    /// The benchmark's ELRANGE at the run's scale, in pages.
    pub elrange_pages: u64,
}

impl fmt::Display for ElrangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace page {} lies outside {}'s {}-page ELRANGE",
            self.page,
            self.bench.name(),
            self.elrange_pages
        )
    }
}

impl std::error::Error for ElrangeError {}

impl TraceReplay {
    /// Wraps an anonymous trace (e.g. captured on real hardware) under
    /// the given label. The enclave's ELRANGE is sized from the trace
    /// itself, and SIP schemes run it uninstrumented (there is no train
    /// input to profile).
    pub fn new(label: impl Into<String>, trace: RecordedTrace) -> Self {
        TraceReplay {
            label: label.into(),
            trace: Arc::new(trace),
            source: None,
        }
    }

    /// Wraps a trace recorded from `bench`, inheriting its label and
    /// ELRANGE and re-running its SIP profiling pass — this is what makes
    /// a replayed recording byte-identical to the generator run.
    pub fn of_benchmark(bench: Benchmark, trace: RecordedTrace) -> Self {
        TraceReplay {
            label: bench.name().to_string(),
            trace: Arc::new(trace),
            source: Some(bench),
        }
    }

    /// The label reports run under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The benchmark this trace was recorded from, if declared.
    pub fn source(&self) -> Option<Benchmark> {
        self.source
    }

    /// The wrapped trace.
    pub fn trace(&self) -> &RecordedTrace {
        &self.trace
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// ELRANGE to register at the given scale: the source benchmark's
    /// (so replays match generator runs exactly), or the smallest range
    /// containing the trace for anonymous replays.
    ///
    /// # Errors
    ///
    /// [`ElrangeError`] when the trace has a page outside its source
    /// benchmark's ELRANGE at `scale`.
    pub fn elrange_pages(&self, scale: Scale) -> Result<u64, ElrangeError> {
        let needed = self.trace.elrange_pages();
        let Some(bench) = self.source else {
            return Ok(needed);
        };
        let pages = bench.elrange_pages(scale);
        if needed > pages {
            return Err(ElrangeError {
                page: needed - 1,
                bench,
                elrange_pages: pages,
            });
        }
        Ok(pages)
    }

    /// A fresh access stream over the shared trace (no copy of the
    /// accesses is made).
    pub fn stream(&self) -> AccessIter {
        Box::new(ArcTraceIter {
            trace: Arc::clone(&self.trace),
            idx: 0,
        })
    }
}

impl fmt::Debug for TraceReplay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceReplay")
            .field("label", &self.label)
            .field("accesses", &self.trace.len())
            .field("source", &self.source)
            .finish()
    }
}

/// Iterates a shared trace by index, so streams borrow nothing and cost
/// no per-stream copy.
struct ArcTraceIter {
    trace: Arc<RecordedTrace>,
    idx: usize,
}

impl Iterator for ArcTraceIter {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        let a = self.trace.accesses().get(self.idx).copied()?;
        self.idx += 1;
        Some(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_workloads::InputSet;

    #[test]
    fn streams_are_independent_and_share_storage() {
        let trace = RecordedTrace::record(Benchmark::Lbm.build(InputSet::Ref, Scale::DEV, 1), 200);
        let replay = TraceReplay::new("lbm-capture", trace.clone());
        assert_eq!(replay.label(), "lbm-capture");
        assert_eq!(replay.len(), 200);
        assert!(replay.source().is_none());
        let a: Vec<_> = replay.stream().collect();
        let b: Vec<_> = replay.stream().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
        assert_eq!(a, trace.accesses());
    }

    #[test]
    fn of_benchmark_inherits_label_and_elrange() {
        let trace = RecordedTrace::record(Benchmark::Mcf.build(InputSet::Ref, Scale::DEV, 2), 100);
        let anon_elrange = trace.elrange_pages();
        let replay = TraceReplay::of_benchmark(Benchmark::Mcf, trace);
        assert_eq!(replay.label(), "mcf");
        assert_eq!(replay.source(), Some(Benchmark::Mcf));
        assert_eq!(
            replay.elrange_pages(Scale::DEV),
            Ok(Benchmark::Mcf.elrange_pages(Scale::DEV))
        );
        assert!(anon_elrange <= Benchmark::Mcf.elrange_pages(Scale::DEV));
    }

    #[test]
    fn a_page_past_the_source_elrange_is_an_error() {
        let range = Benchmark::Mcf.elrange_pages(Scale::DEV);
        let mut accesses =
            RecordedTrace::record(Benchmark::Mcf.build(InputSet::Ref, Scale::DEV, 2), 100)
                .accesses()
                .to_vec();
        let mut last = accesses[0];
        last.page = sgx_epc::VirtPage::new(range - 1);
        accesses.push(last);
        let fits = TraceReplay::of_benchmark(
            Benchmark::Mcf,
            RecordedTrace::from_accesses(accesses.clone()),
        );
        assert_eq!(fits.elrange_pages(Scale::DEV), Ok(range));

        last.page = sgx_epc::VirtPage::new(range);
        accesses.push(last);
        let trace = RecordedTrace::from_accesses(accesses);
        let err = ElrangeError {
            page: range,
            bench: Benchmark::Mcf,
            elrange_pages: range,
        };
        let replay = TraceReplay::of_benchmark(Benchmark::Mcf, trace.clone());
        assert_eq!(replay.elrange_pages(Scale::DEV), Err(err));
        assert_eq!(
            err.to_string(),
            format!("trace page {range} lies outside mcf's {range}-page ELRANGE")
        );
        // Anonymous, the same trace sizes its own ELRANGE.
        let anon = TraceReplay::new("capture", trace);
        assert_eq!(anon.elrange_pages(Scale::DEV), Ok(range + 1));
    }
}

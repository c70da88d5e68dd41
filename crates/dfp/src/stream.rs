//! The paper's multiple-stream predictor (Algorithm 1).
//!
//! A fixed-length, LRU-managed list of *streams*; each entry remembers the
//! stream's tail page number (`stpn`). A new fault (`npn`) that is
//! "sequential to" some `stpn` extends that stream and triggers a preload of
//! the following `LOADLENGTH` pages; otherwise it replaces the least
//! recently used stream.
//!
//! ## Interpretation choices (documented deviations)
//!
//! The paper leaves two details open:
//!
//! * **"npn is sequential to stpn"** — a strict successor test would break a
//!   stream every `LOADLENGTH` pages (preloaded pages fault less often, so
//!   the next fault lands `LOADLENGTH` ahead, like Linux readahead). We use
//!   a *window* test, `stpn < npn ≤ stpn + LOADLENGTH`, which keeps a
//!   correctly predicted stream alive.
//! * **Preload range** — the paper's prose has an off-by-one between
//!   "page(npn+LOADLENGTH−1)" and its own worked example; we preload
//!   `npn+1 ..= npn+LOADLENGTH` (`LOADLENGTH` pages beyond the demand-loaded
//!   fault page).
//!
//! Algorithm 1 passes a `direction`; descending streams (backward scans) are
//! recognized by the same window test below `stpn`.

use std::collections::VecDeque;

use sgx_epc::VirtPage;
use sgx_sim::Cycles;

use crate::{Prediction, Predictor, ProcessId};

/// Direction of a detected stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Ascending page numbers.
    Forward,
    /// Descending page numbers.
    Backward,
}

/// Tuning parameters of the multiple-stream predictor.
///
/// Defaults are the paper's chosen operating point: `stream_list` length 30
/// (Fig. 6) and `LOADLENGTH` 4 (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Length of the `stream_list` (paper Fig. 6; default 30).
    pub list_len: usize,
    /// Pages preloaded per detected stream extension (`LOADLENGTH`,
    /// paper Fig. 7; default 4).
    pub load_length: u64,
}

impl StreamConfig {
    /// The paper's operating point: list length 30, `LOADLENGTH` 4.
    pub const fn paper_defaults() -> Self {
        StreamConfig {
            list_len: 30,
            load_length: 4,
        }
    }

    /// Overrides the stream-list length.
    pub fn with_list_len(mut self, n: usize) -> Self {
        self.list_len = n;
        self
    }

    /// Overrides `LOADLENGTH`.
    pub fn with_load_length(mut self, n: u64) -> Self {
        self.load_length = n;
        self
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[derive(Debug, Clone, Copy)]
struct StreamEntry {
    /// Stream tail page number — the most recent fault in this stream.
    stpn: VirtPage,
    dir: Direction,
}

/// One process's `stream_list`: the core of Algorithm 1.
#[derive(Debug, Clone)]
pub struct StreamList {
    cfg: StreamConfig,
    /// Front = most recently used.
    entries: VecDeque<StreamEntry>,
    matches: u64,
    misses: u64,
}

impl StreamList {
    /// Creates an empty stream list.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.list_len == 0` or `cfg.load_length == 0`.
    pub fn new(cfg: StreamConfig) -> Self {
        assert!(cfg.list_len > 0, "stream_list length must be positive");
        assert!(cfg.load_length > 0, "LOADLENGTH must be positive");
        StreamList {
            cfg,
            entries: VecDeque::with_capacity(cfg.list_len),
            matches: 0,
            misses: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// Number of streams currently tracked (≤ `list_len`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no streams are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Faults that extended an existing stream.
    pub fn matches(&self) -> u64 {
        self.matches
    }

    /// Faults that started a new stream.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn detect(&self, entry: &StreamEntry, npn: VirtPage) -> Option<Direction> {
        let w = self.cfg.load_length;
        if npn.within_forward_window(entry.stpn, w) {
            Some(Direction::Forward)
        } else if npn.raw() < entry.stpn.raw() && entry.stpn.raw() - npn.raw() <= w {
            Some(Direction::Backward)
        } else {
            None
        }
    }

    /// Algorithm 1: processes fault `npn`, returns the pages to preload.
    ///
    /// On a stream match the entry's `stpn` advances to `npn`, the entry
    /// moves to the list head, and `LOADLENGTH` pages beyond `npn` (in the
    /// stream's direction) are predicted. On a miss the LRU entry is
    /// replaced by a new stream seeded at `npn` and nothing is predicted.
    pub fn on_fault(&mut self, npn: VirtPage) -> Prediction {
        let mut pages = Vec::new();
        self.on_fault_into(npn, &mut pages);
        Prediction::of(pages)
    }

    /// Allocation-free form of [`StreamList::on_fault`]: appends the pages
    /// to preload to `out` (in the same order `on_fault` returns them).
    pub fn on_fault_into(&mut self, npn: VirtPage, out: &mut Vec<VirtPage>) {
        let hit = self
            .entries
            .iter()
            .enumerate()
            .find_map(|(i, e)| self.detect(e, npn).map(|d| (i, d)));
        match hit {
            Some((i, dir)) => {
                self.matches += 1;
                let mut e = self.entries.remove(i).expect("index from enumerate");
                e.stpn = npn;
                e.dir = dir;
                self.entries.push_front(e);
                for k in 1..=self.cfg.load_length {
                    match dir {
                        Direction::Forward => out.push(npn.offset(k)),
                        Direction::Backward => {
                            if npn.raw() >= k {
                                out.push(VirtPage::new(npn.raw() - k));
                            }
                        }
                    }
                }
            }
            None => {
                self.misses += 1;
                if self.entries.len() == self.cfg.list_len {
                    self.entries.pop_back();
                }
                self.entries.push_front(StreamEntry {
                    stpn: npn,
                    dir: Direction::Forward,
                });
            }
        }
    }

    /// Clears all tracked streams and statistics.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.matches = 0;
        self.misses = 0;
    }
}

/// The paper's DFP predictor: one [`StreamList`] per process
/// (Algorithm 1's `find_stream_list(ID)`).
///
/// # Examples
///
/// ```
/// use sgx_dfp::{MultiStreamPredictor, Predictor, ProcessId, StreamConfig};
/// use sgx_epc::VirtPage;
/// use sgx_sim::Cycles;
///
/// let mut dfp = MultiStreamPredictor::new(StreamConfig::paper_defaults());
/// let pid = ProcessId(1);
/// // First fault seeds a stream, predicting nothing…
/// assert!(dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(100)).is_empty());
/// // …the sequential follow-up extends it and predicts LOADLENGTH pages.
/// let p = dfp.on_fault(Cycles::ZERO, pid, VirtPage::new(101));
/// assert_eq!(
///     p.pages,
///     vec![102, 103, 104, 105].into_iter().map(VirtPage::new).collect::<Vec<_>>(),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct MultiStreamPredictor {
    cfg: StreamConfig,
    // Few processes fault per run, so a first-fault-ordered Vec with a
    // linear probe beats hashing every fault (and stays deterministic).
    per_process: Vec<(ProcessId, StreamList)>,
}

impl MultiStreamPredictor {
    /// Creates the predictor with the given stream configuration.
    pub fn new(cfg: StreamConfig) -> Self {
        MultiStreamPredictor {
            cfg,
            per_process: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> StreamConfig {
        self.cfg
    }

    /// The stream list of `pid`, if that process has faulted.
    pub fn stream_list(&self, pid: ProcessId) -> Option<&StreamList> {
        self.per_process
            .iter()
            .find(|(p, _)| *p == pid)
            .map(|(_, l)| l)
    }

    /// The stream list of `pid`, creating it on first fault.
    fn list_mut(&mut self, pid: ProcessId) -> &mut StreamList {
        let idx = match self.per_process.iter().position(|(p, _)| *p == pid) {
            Some(i) => i,
            None => {
                self.per_process.push((pid, StreamList::new(self.cfg)));
                self.per_process.len() - 1
            }
        };
        &mut self.per_process[idx].1
    }

    /// Total stream matches across processes.
    pub fn total_matches(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.matches()).sum()
    }

    /// Total stream misses across processes.
    pub fn total_misses(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.misses()).sum()
    }
}

impl Default for MultiStreamPredictor {
    fn default() -> Self {
        Self::new(StreamConfig::paper_defaults())
    }
}

impl Predictor for MultiStreamPredictor {
    fn on_fault_into(
        &mut self,
        _now: Cycles,
        pid: ProcessId,
        npn: VirtPage,
        out: &mut Vec<VirtPage>,
    ) {
        self.list_mut(pid).on_fault_into(npn, out)
    }

    fn name(&self) -> &'static str {
        "multi-stream"
    }

    fn reset(&mut self) {
        self.per_process.clear();
    }

    fn live_streams(&self) -> u64 {
        self.per_process.iter().map(|(_, l)| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    fn pages(ns: &[u64]) -> Vec<VirtPage> {
        ns.iter().map(|&n| p(n)).collect()
    }

    fn list(cfg: StreamConfig) -> StreamList {
        StreamList::new(cfg)
    }

    #[test]
    fn first_fault_seeds_without_prediction() {
        let mut s = list(StreamConfig::paper_defaults());
        assert!(s.on_fault(p(10)).is_empty());
        assert_eq!(s.len(), 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.matches(), 0);
    }

    #[test]
    fn sequential_fault_extends_and_predicts_loadlength_pages() {
        let mut s = list(StreamConfig::paper_defaults().with_load_length(8));
        s.on_fault(p(1));
        let pred = s.on_fault(p(2));
        assert_eq!(pred.pages, pages(&[3, 4, 5, 6, 7, 8, 9, 10]));
        assert_eq!(s.matches(), 1);
    }

    #[test]
    fn windowed_match_keeps_stream_alive_across_preloaded_range() {
        // LOADLENGTH 4: after a fault at 2 the pages 3–6 are preloaded, so
        // the next fault lands at 6 or 7; the window must still match.
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(2));
        s.on_fault(p(3)); // match, stpn = 3
        let pred = s.on_fault(p(7)); // within window 4 of stpn 3
        assert_eq!(pred.pages, pages(&[8, 9, 10, 11]));
        assert_eq!(s.matches(), 2);
    }

    #[test]
    fn backward_stream_detected_and_predicts_descending() {
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(100));
        let pred = s.on_fault(p(99));
        assert_eq!(pred.pages, pages(&[98, 97, 96, 95]));
    }

    #[test]
    fn backward_prediction_clamps_at_page_zero() {
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(3));
        let pred = s.on_fault(p(2));
        // Only pages 1 and 0 exist below 2.
        assert_eq!(pred.pages, pages(&[1, 0]));
    }

    #[test]
    fn lru_replacement_evicts_oldest_stream() {
        let cfg = StreamConfig::paper_defaults().with_list_len(2);
        let mut s = list(cfg);
        s.on_fault(p(1000)); // stream A
        s.on_fault(p(2000)); // stream B
        s.on_fault(p(3000)); // stream C replaces A (LRU)
        assert_eq!(s.len(), 2);
        // A's successor no longer matches anything.
        assert!(s.on_fault(p(1001)).is_empty());
        // That miss replaced B; C is still alive.
        assert!(!s.on_fault(p(3001)).is_empty());
    }

    #[test]
    fn matching_stream_moves_to_head() {
        let cfg = StreamConfig::paper_defaults().with_list_len(2);
        let mut s = list(cfg);
        s.on_fault(p(1000)); // A (head: A)
        s.on_fault(p(2000)); // B (head: B, A)
        s.on_fault(p(1001)); // extends A (head: A, B)
        s.on_fault(p(5000)); // new stream replaces LRU = B
        assert!(!s.on_fault(p(1002)).is_empty(), "A must have survived");
    }

    #[test]
    fn interleaved_streams_all_tracked() {
        // The "multiple" in multiple-stream: two interleaved sequential
        // walks both keep matching.
        let mut s = list(StreamConfig::paper_defaults());
        s.on_fault(p(10));
        s.on_fault(p(5_000));
        let a = s.on_fault(p(11));
        let b = s.on_fault(p(5_001));
        assert_eq!(a.pages[0], p(12));
        assert_eq!(b.pages[0], p(5_002));
        assert_eq!(s.matches(), 2);
    }

    #[test]
    fn per_process_isolation() {
        let mut m = MultiStreamPredictor::default();
        let (p1, p2) = (ProcessId(1), ProcessId(2));
        m.on_fault(Cycles::ZERO, p1, p(10));
        // Process 2 faulting at 11 must NOT extend process 1's stream.
        assert!(m.on_fault(Cycles::ZERO, p2, p(11)).is_empty());
        assert!(!m.on_fault(Cycles::ZERO, p1, p(11)).is_empty());
        assert_eq!(m.total_matches(), 1);
        assert_eq!(m.total_misses(), 2);
        assert!(m.stream_list(p1).is_some());
        assert!(m.stream_list(ProcessId(9)).is_none());
    }

    #[test]
    fn reset_clears_learned_state() {
        let mut m = MultiStreamPredictor::default();
        m.on_fault(Cycles::ZERO, ProcessId(1), p(10));
        m.on_fault(Cycles::ZERO, ProcessId(1), p(11));
        m.reset();
        assert_eq!(m.total_matches(), 0);
        assert!(m.on_fault(Cycles::ZERO, ProcessId(1), p(12)).is_empty());
    }

    #[test]
    #[should_panic(expected = "LOADLENGTH must be positive")]
    fn zero_loadlength_rejected() {
        let _ = StreamList::new(StreamConfig::paper_defaults().with_load_length(0));
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_list_len_rejected() {
        let _ = StreamList::new(StreamConfig::paper_defaults().with_list_len(0));
    }
}

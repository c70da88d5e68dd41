//! The preload worker's page queue.
//!
//! Predicted pages wait here until the load channel is idle. A demand fault
//! that misses both EPC and the in-flight load aborts *everything still
//! queued* (paper §4.1: "all the remaining pages yet to be preloaded …
//! will be aborted"); the dropped `(page, batch)` pairs come back in queue
//! order so the kernel can bill each one to the batch that queued it.
//!
//! Each queue node carries the raw id of the prediction-batch span that
//! queued it (0 = none, as for SIP prefetches), so batch lineage travels with
//! the node instead of through a side table probed on every transition.
//! The membership map doubles as the tag store: one probe answers both
//! "is it queued?" and "which batch?".
//!
//! An abort runs on every swap-path fault, so it removes exactly the pages
//! it drains. The membership map never shrinks (under EDMM growth it keeps
//! tens of thousands of slots after the queue's peak), so an abort must
//! cost O(queued pages), never O(table size).

use std::collections::VecDeque;

use sgx_epc::VirtPage;
use sgx_sim::FastMap;

/// FIFO queue of pages awaiting preload, with O(1) membership tests and
/// whole-queue abort.
///
/// # Examples
///
/// ```
/// use sgx_kernel::PreloadQueue;
/// use sgx_epc::VirtPage;
///
/// let mut q = PreloadQueue::new();
/// q.enqueue(VirtPage::new(3));
/// q.enqueue(VirtPage::new(4));
/// assert!(q.contains(VirtPage::new(4)));
/// assert_eq!(q.abort(), 2); // a mispredicting fault cancels the rest
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PreloadQueue {
    queue: VecDeque<(VirtPage, u64)>,
    /// page → batch-span raw id (0 = untagged). Presence = queued.
    members: FastMap,
}

impl PreloadQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether `page` is queued.
    #[inline]
    pub fn contains(&self, page: VirtPage) -> bool {
        self.members.get(page.raw()).is_some()
    }

    /// Appends `page` with no batch tag. Returns `true` if enqueued.
    #[inline]
    pub fn enqueue(&mut self, page: VirtPage) -> bool {
        self.enqueue_tagged(page, 0)
    }

    /// Appends `page` carrying `batch` (raw span id of the prediction
    /// batch, 0 = none) unless already queued. Returns `true` if enqueued.
    #[inline]
    pub fn enqueue_tagged(&mut self, page: VirtPage, batch: u64) -> bool {
        if self.members.get(page.raw()).is_some() {
            return false;
        }
        self.members.insert(page.raw(), batch);
        self.queue.push_back((page, batch));
        true
    }

    /// Pops the next page to preload.
    #[inline]
    pub fn pop(&mut self) -> Option<VirtPage> {
        self.pop_tagged().map(|(page, _)| page)
    }

    /// Pops the next page together with its batch tag (0 = untagged).
    #[inline]
    pub fn pop_tagged(&mut self) -> Option<(VirtPage, u64)> {
        let (page, batch) = self.queue.pop_front()?;
        self.members.remove(page.raw());
        Some((page, batch))
    }

    /// Cancels everything queued; returns how many pages were dropped.
    pub fn abort(&mut self) -> u64 {
        let dropped = self.queue.len() as u64;
        for (page, _) in self.queue.drain(..) {
            self.members.remove(page.raw());
        }
        dropped
    }

    /// Cancels everything queued, appending the dropped `(page, batch)`
    /// pairs in queue order to `out` (callers reuse one scratch buffer
    /// across faults and attribute each page to the batch that queued it).
    pub fn abort_into(&mut self, out: &mut Vec<(VirtPage, u64)>) {
        for &(page, _) in &self.queue {
            self.members.remove(page.raw());
        }
        out.extend(self.queue.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn fifo_order() {
        let mut q = PreloadQueue::new();
        for n in [3u64, 1, 2] {
            assert!(q.enqueue(p(n)));
        }
        assert_eq!(q.pop(), Some(p(3)));
        assert_eq!(q.pop(), Some(p(1)));
        assert_eq!(q.pop(), Some(p(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn duplicate_enqueue_rejected() {
        let mut q = PreloadQueue::new();
        assert!(q.enqueue(p(5)));
        assert!(!q.enqueue(p(5)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn membership_tracks_pop() {
        let mut q = PreloadQueue::new();
        q.enqueue(p(5));
        q.pop();
        assert!(!q.contains(p(5)));
        assert!(q.enqueue(p(5)), "page can be re-queued after pop");
    }

    #[test]
    fn batch_tag_travels_with_the_node() {
        let mut q = PreloadQueue::new();
        assert!(q.enqueue_tagged(p(7), 41));
        assert!(q.enqueue(p(8)));
        assert!(!q.enqueue_tagged(p(7), 99), "tag not rewritten on dup");
        assert_eq!(q.pop_tagged(), Some((p(7), 41)));
        assert_eq!(q.pop_tagged(), Some((p(8), 0)));
    }

    #[test]
    fn abort_clears_and_counts() {
        let mut q = PreloadQueue::new();
        for n in 0..5 {
            q.enqueue(p(n));
        }
        assert_eq!(q.abort(), 5);
        assert!(q.is_empty());
        assert!(!q.contains(p(0)));
        assert_eq!(q.abort(), 0);
        assert!(q.enqueue(p(0)), "page can be re-queued after abort");
    }

    #[test]
    fn abort_yields_tags_in_queue_order() {
        let mut q = PreloadQueue::new();
        q.enqueue_tagged(p(1), 10);
        q.enqueue_tagged(p(2), 10);
        q.enqueue(p(3));
        let mut out = vec![(p(9), 9)];
        q.abort_into(&mut out);
        assert_eq!(out, vec![(p(9), 9), (p(1), 10), (p(2), 10), (p(3), 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn peak_sized_abort_drains_in_order_and_requeues_fifo() {
        // 40,000 members grow the map to a 64k-slot table (load ≤ 3/4);
        // the abort must leave none of them behind.
        const N: u64 = 40_000;
        let page = |n: u64| p(n * 7 + 3);
        let mut q = PreloadQueue::new();
        for n in 0..N {
            assert!(q.enqueue_tagged(page(n), n + 1));
        }
        let mut out = Vec::new();
        q.abort_into(&mut out);
        assert!(out.iter().copied().eq((0..N).map(|n| (page(n), n + 1))));
        assert!(q.is_empty());
        assert!((0..N).all(|n| !q.contains(page(n))), "a member survived");
        for n in 0..N {
            assert!(q.enqueue_tagged(page(n), n + 1), "page {n} not re-queued");
        }
        for n in 0..N {
            assert_eq!(q.pop_tagged(), Some((page(n), n + 1)));
        }
        assert_eq!(q.pop_tagged(), None);
    }
}

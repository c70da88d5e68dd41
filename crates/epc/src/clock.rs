//! CLOCK page-replacement queue.
//!
//! The Intel SGX driver selects eviction victims with a CLOCK-style scan
//! over page-table access bits (paper §4.2). Earlier revisions modeled the
//! hand as a slab-backed circular doubly-linked list; the engine rewrite
//! replaced it with [`ClockRing`], a flat ring of dense tokens whose
//! access bits live in per-position bitmaps, so the sweep runs
//! word-at-a-time (`u64::trailing_zeros` / `count_ones` over whole words)
//! instead of chasing one pointer per visited entry.
//!
//! The two representations are *visit-order isomorphic*: the circular
//! list's order from the hand equals the ring's position order from
//! `head`, insertion behind the hand equals appending at `tail`, and a
//! sweep that gives skipped entries their second chance equals rotating
//! the skipped block to the back. Every victim choice and every sweep
//! count is bit-identical to the old list — the golden reports pin this.

use sgx_sim::FastMap;

use crate::VirtPage;

/// Sentinel in `pos_of` for tokens not currently in the ring.
const NO_POS: u64 = u64::MAX;

/// Smallest ring buffer. Keeping it a multiple of 64 aligns the physical
/// ring to bitmap words, so a scan segment never straddles a word *and*
/// the wrap point at once.
const MIN_CAP: usize = 64;

/// Mask of the low `n` bits (`n ≤ 64`).
#[inline]
fn low_bits(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A CLOCK second-chance ring over dense `u32` tokens.
///
/// Callers key the ring by whatever dense id they already have — the EPC
/// uses its page-table slot index, [`ClockQueue`] allocates tokens per
/// page — and the ring tracks hand order, access bits and sweep counts.
///
/// Internally: logical positions grow monotonically (`head..tail` is the
/// live window); a position's physical slot is `pos & (cap - 1)`; `live`
/// and `referenced` bitmaps are indexed by physical slot. The sweep finds
/// the victim with word scans over `live & !referenced`, counts visited
/// entries with `count_ones`, and rotates the skipped (second-chance)
/// block to the back in order — exactly the linked-list semantics.
#[derive(Debug, Clone)]
pub(crate) struct ClockRing {
    /// Token stored at each physical slot (valid where `live` is set).
    buf: Vec<u32>,
    /// Occupancy bitmap over physical slots.
    live: Vec<u64>,
    /// CLOCK access bits over physical slots; always a subset of `live`.
    referenced: Vec<u64>,
    /// Logical position of each token (`NO_POS` when absent).
    pos_of: Vec<u64>,
    /// Logical position of the hand.
    head: u64,
    /// One past the last logical position in use.
    tail: u64,
    /// Live tokens in the window.
    len: usize,
    /// Visit count of the most recent successful eviction.
    last_sweep: u64,
    /// Scratch for sweep rotation; kept allocated across evictions.
    rotate: Vec<u32>,
}

impl Default for ClockRing {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockRing {
    pub(crate) fn new() -> Self {
        ClockRing {
            buf: vec![0; MIN_CAP],
            live: vec![0; MIN_CAP / 64],
            referenced: vec![0; MIN_CAP / 64],
            pos_of: Vec::new(),
            head: 0,
            tail: 0,
            len: 0,
            last_sweep: 0,
            rotate: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn last_sweep(&self) -> u64 {
        self.last_sweep
    }

    /// High-water mark of the ring buffer (tests pin boundedness).
    #[cfg(test)]
    fn ring_capacity(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn mask(&self) -> u64 {
        self.buf.len() as u64 - 1
    }

    #[inline]
    fn phys(&self, pos: u64) -> usize {
        (pos & self.mask()) as usize
    }

    #[inline]
    fn bit_is_set(words: &[u64], phys: usize) -> bool {
        words[phys >> 6] & (1u64 << (phys & 63)) != 0
    }

    #[inline]
    fn set_bit(words: &mut [u64], phys: usize) {
        words[phys >> 6] |= 1u64 << (phys & 63);
    }

    #[inline]
    fn clear_bit(words: &mut [u64], phys: usize) {
        words[phys >> 6] &= !(1u64 << (phys & 63));
    }

    /// Whether `token` is in the ring.
    pub(crate) fn contains(&self, token: u32) -> bool {
        self.pos_of
            .get(token as usize)
            .is_some_and(|&p| p != NO_POS)
    }

    /// Appends `token` at the back of the hand order (the position the
    /// hand reaches last — the classic insert-behind-the-hand point).
    ///
    /// # Panics
    ///
    /// Panics if the token is already tracked.
    pub(crate) fn insert(&mut self, token: u32, referenced: bool) {
        assert!(!self.contains(token), "token {token} already in clock ring");
        if self.tail - self.head == self.buf.len() as u64 {
            self.compact(self.len == self.buf.len());
        }
        if self.pos_of.len() <= token as usize {
            self.pos_of.resize(token as usize + 1, NO_POS);
        }
        let pos = self.tail;
        let ph = self.phys(pos);
        self.buf[ph] = token;
        Self::set_bit(&mut self.live, ph);
        if referenced {
            Self::set_bit(&mut self.referenced, ph);
        } else {
            Self::clear_bit(&mut self.referenced, ph);
        }
        self.pos_of[token as usize] = pos;
        self.tail += 1;
        self.len += 1;
    }

    /// Sets the access bit. Returns `false` for untracked tokens.
    #[inline]
    pub(crate) fn touch(&mut self, token: u32) -> bool {
        match self.pos_of.get(token as usize) {
            Some(&pos) if pos != NO_POS => {
                let ph = self.phys(pos);
                Self::set_bit(&mut self.referenced, ph);
                true
            }
            _ => false,
        }
    }

    /// Reads the access bit, if tracked.
    pub(crate) fn is_referenced(&self, token: u32) -> Option<bool> {
        match self.pos_of.get(token as usize) {
            Some(&pos) if pos != NO_POS => Some(Self::bit_is_set(&self.referenced, self.phys(pos))),
            _ => None,
        }
    }

    /// Removes `token` (the quota sweep's fallback victim).
    /// Lazy: the position goes dead in place; sweeps skip it silently —
    /// exactly as the old list's unlink-and-advance behaved.
    pub(crate) fn remove(&mut self, token: u32) -> bool {
        match self.pos_of.get(token as usize) {
            Some(&pos) if pos != NO_POS => {
                let ph = self.phys(pos);
                Self::clear_bit(&mut self.live, ph);
                Self::clear_bit(&mut self.referenced, ph);
                self.pos_of[token as usize] = NO_POS;
                self.len -= 1;
                if self.len == 0 {
                    self.head = self.tail;
                }
                true
            }
            _ => false,
        }
    }

    /// First logical position in `[from, to)` whose physical slot has a set
    /// bit in `live & mask_fn` — the word-at-a-time scan primitive.
    #[inline]
    fn scan_from(&self, from: u64, to: u64, want_cold: bool) -> Option<u64> {
        let mut l = from;
        while l < to {
            let ph = self.phys(l);
            let wi = ph >> 6;
            let bit = (ph & 63) as u64;
            let word = if want_cold {
                self.live[wi] & !self.referenced[wi]
            } else {
                self.live[wi]
            };
            let span = (64 - bit).min(to - l);
            let candidates = (word >> bit) & low_bits(span);
            if candidates != 0 {
                return Some(l + candidates.trailing_zeros() as u64);
            }
            l += span;
        }
        None
    }

    /// Live positions in `[from, to)`, counted word-at-a-time.
    #[inline]
    fn count_live(&self, from: u64, to: u64) -> u64 {
        let mut n = 0u64;
        let mut l = from;
        while l < to {
            let ph = self.phys(l);
            let wi = ph >> 6;
            let bit = (ph & 63) as u64;
            let span = (64 - bit).min(to - l);
            n += ((self.live[wi] >> bit) & low_bits(span)).count_ones() as u64;
            l += span;
        }
        n
    }

    /// Clears every live position's bits in `[from, to)` from both maps.
    fn clear_range(&mut self, from: u64, to: u64) {
        let mut l = from;
        while l < to {
            let ph = self.phys(l);
            let wi = ph >> 6;
            let bit = (ph & 63) as u64;
            let span = (64 - bit).min(to - l);
            let m = !(low_bits(span) << bit);
            self.live[wi] &= m;
            self.referenced[wi] &= m;
            l += span;
        }
    }

    /// Clears the access bits of `[from, to)` without touching occupancy.
    fn clear_referenced_range(&mut self, from: u64, to: u64) {
        let mut l = from;
        while l < to {
            let ph = self.phys(l);
            let wi = ph >> 6;
            let bit = (ph & 63) as u64;
            let span = (64 - bit).min(to - l);
            self.referenced[wi] &= !(low_bits(span) << bit);
            l += span;
        }
    }

    /// The CLOCK sweep: clears access bits from the hand forward, evicts
    /// the first cold token, and leaves the hand just past the victim.
    /// Visit counts match the linked-list sweep exactly (referenced
    /// entries visited once each, plus the victim; an all-referenced ring
    /// costs `len + 1` with the old hand entry evicted second time round).
    pub(crate) fn evict(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        match self.scan_from(self.head, self.tail, true) {
            Some(victim_pos) => {
                // Everything live in [head, victim) was referenced: that
                // block gets its second chance — access bits cleared, block
                // rotated behind the rest in original order.
                self.last_sweep = self.count_live(self.head, victim_pos + 1);
                self.rotate.clear();
                let mut l = self.head;
                while let Some(pos) = self.scan_from(l, victim_pos, false) {
                    self.rotate.push(self.buf[self.phys(pos)]);
                    l = pos + 1;
                }
                let victim = self.buf[self.phys(victim_pos)];
                self.clear_range(self.head, victim_pos + 1);
                self.head = victim_pos + 1;
                self.pos_of[victim as usize] = NO_POS;
                self.len -= self.rotate.len() + 1;
                let mut give_second_chance = std::mem::take(&mut self.rotate);
                for &t in &give_second_chance {
                    self.pos_of[t as usize] = NO_POS;
                    self.insert(t, false);
                }
                give_second_chance.clear();
                self.rotate = give_second_chance;
                if self.len == 0 {
                    self.head = self.tail;
                }
                Some(victim)
            }
            None => {
                // Every live entry is referenced: one full lap clears all
                // bits, then the entry under the hand (visited twice) goes.
                self.last_sweep = self.len as u64 + 1;
                self.clear_referenced_range(self.head, self.tail);
                let victim_pos = self
                    .scan_from(self.head, self.tail, false)
                    .expect("len > 0 means a live position exists");
                let victim_ph = self.phys(victim_pos);
                let victim = self.buf[victim_ph];
                Self::clear_bit(&mut self.live, victim_ph);
                self.pos_of[victim as usize] = NO_POS;
                self.head = victim_pos + 1;
                self.len -= 1;
                if self.len == 0 {
                    self.head = self.tail;
                }
                Some(victim)
            }
        }
    }

    /// Tracked tokens in hand order with their access bits.
    pub(crate) fn iter_sweep(&self) -> Vec<(u32, bool)> {
        let mut out = Vec::with_capacity(self.len);
        let mut l = self.head;
        while let Some(pos) = self.scan_from(l, self.tail, false) {
            let ph = self.phys(pos);
            out.push((self.buf[ph], Self::bit_is_set(&self.referenced, ph)));
            l = pos + 1;
        }
        out
    }

    /// Rebuilds the window at the front of the (possibly doubled) buffer,
    /// dropping dead positions and preserving hand order. Runs only when
    /// the window fills the buffer, so its cost amortizes to O(1)/insert.
    fn compact(&mut self, grow: bool) {
        let mut tokens: Vec<(u32, bool)> = Vec::with_capacity(self.len);
        let mut l = self.head;
        while let Some(pos) = self.scan_from(l, self.tail, false) {
            let ph = self.phys(pos);
            tokens.push((self.buf[ph], Self::bit_is_set(&self.referenced, ph)));
            l = pos + 1;
        }
        let cap = if grow {
            (self.buf.len() * 2).max(MIN_CAP)
        } else {
            self.buf.len()
        };
        self.buf = vec![0; cap];
        self.live = vec![0; cap / 64];
        self.referenced = vec![0; cap / 64];
        self.head = 0;
        self.tail = 0;
        self.len = 0;
        for (t, r) in tokens {
            self.pos_of[t as usize] = NO_POS;
            let pos = self.tail;
            let ph = self.phys(pos);
            self.buf[ph] = t;
            Self::set_bit(&mut self.live, ph);
            if r {
                Self::set_bit(&mut self.referenced, ph);
            }
            self.pos_of[t as usize] = pos;
            self.tail += 1;
            self.len += 1;
        }
    }
}

/// A CLOCK replacement queue over resident pages.
///
/// A thin page-keyed wrapper around the internal `ClockRing`: pages map
/// to dense tokens through a flat hash index, and all hand-order state
/// lives in the ring.
///
/// # Examples
///
/// ```
/// use sgx_epc::{ClockQueue, VirtPage};
///
/// let mut clock = ClockQueue::new();
/// clock.insert(VirtPage::new(1), true);
/// clock.insert(VirtPage::new(2), false);
/// clock.touch(VirtPage::new(1));
/// // Page 2 is cold, page 1 was touched: 2 is evicted first.
/// assert_eq!(clock.evict(), Some(VirtPage::new(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClockQueue {
    ring: ClockRing,
    /// page number → token.
    index: FastMap,
    /// token → page number.
    pages: Vec<u64>,
    free: Vec<u32>,
}

impl ClockQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ClockQueue::default()
    }

    /// Number of entries the hand visited during the most recent successful
    /// [`ClockQueue::evict`] (1 = the victim was cold immediately). Models
    /// the access-bit scan cost the paper attributes to the driver's
    /// reclaimer; 0 before any eviction.
    pub fn last_sweep(&self) -> u64 {
        self.ring.last_sweep()
    }

    /// Number of resident pages tracked.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// `true` if `page` is tracked.
    pub fn contains(&self, page: VirtPage) -> bool {
        self.index.contains(page.raw())
    }

    /// Inserts a page with the given initial access-bit state.
    ///
    /// Demand-loaded pages enter hot (`referenced = true`, they were just
    /// accessed); preloaded pages enter cold (`referenced = false`) so that
    /// mispredicted preloads are the first eviction victims.
    ///
    /// # Panics
    ///
    /// Panics if the page is already tracked — residency bookkeeping would
    /// otherwise silently diverge from the EPC map.
    pub fn insert(&mut self, page: VirtPage, referenced: bool) {
        assert!(
            !self.index.contains(page.raw()),
            "{page} already in clock queue"
        );
        let token = match self.free.pop() {
            Some(t) => {
                self.pages[t as usize] = page.raw();
                t
            }
            None => {
                let t = u32::try_from(self.pages.len()).expect("clock queue exceeds u32 tokens");
                self.pages.push(page.raw());
                t
            }
        };
        self.index.insert(page.raw(), u64::from(token));
        self.ring.insert(token, referenced);
    }

    /// Sets the access bit of `page`. Returns `false` if the page is not
    /// tracked.
    pub fn touch(&mut self, page: VirtPage) -> bool {
        match self.index.get(page.raw()) {
            Some(token) => self.ring.touch(token as u32),
            None => false,
        }
    }

    /// Reads the access bit of `page`, if tracked.
    pub fn is_referenced(&self, page: VirtPage) -> Option<bool> {
        let token = self.index.get(page.raw())?;
        self.ring.is_referenced(token as u32)
    }

    /// Selects and removes an eviction victim: sweeps the hand, giving
    /// referenced pages a second chance (their bit is cleared), and evicts
    /// the first cold page. Returns `None` when empty.
    ///
    /// Termination: after at most one full sweep every bit is clear, so the
    /// second pass must find a victim.
    pub fn evict(&mut self) -> Option<VirtPage> {
        let token = self.ring.evict()?;
        let page = self.pages[token as usize];
        self.index.remove(page);
        self.free.push(token);
        Some(VirtPage::new(page))
    }

    /// Removes a specific page. Returns `true` if it was tracked.
    pub fn remove(&mut self, page: VirtPage) -> bool {
        match self.index.get(page.raw()) {
            Some(token) => {
                self.ring.remove(token as u32);
                self.index.remove(page.raw());
                self.free.push(token as u32);
                true
            }
            None => false,
        }
    }

    /// Iterates over tracked pages in hand order (the order the sweep would
    /// visit them), with their access bits. Primarily for the service-thread
    /// scan model and for tests.
    pub fn iter_sweep(&self) -> Vec<(VirtPage, bool)> {
        self.ring
            .iter_sweep()
            .into_iter()
            .map(|(t, r)| (VirtPage::new(self.pages[t as usize]), r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> VirtPage {
        VirtPage::new(n)
    }

    #[test]
    fn last_sweep_counts_visited_entries() {
        let mut c = ClockQueue::new();
        assert_eq!(c.last_sweep(), 0);
        c.insert(p(0), true);
        c.insert(p(1), true);
        c.insert(p(2), false);
        // Hand clears bits on 0 and 1, then evicts 2: three entries visited.
        assert_eq!(c.evict(), Some(p(2)));
        assert_eq!(c.last_sweep(), 3);
        // Both survivors are now cold: immediate hit.
        assert_eq!(c.evict(), Some(p(0)));
        assert_eq!(c.last_sweep(), 1);
    }

    #[test]
    fn evicts_fifo_when_all_cold() {
        let mut c = ClockQueue::new();
        for n in 0..5 {
            c.insert(p(n), false);
        }
        for n in 0..5 {
            assert_eq!(c.evict(), Some(p(n)));
        }
        assert_eq!(c.evict(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn referenced_pages_get_second_chance() {
        let mut c = ClockQueue::new();
        c.insert(p(0), true);
        c.insert(p(1), false);
        c.insert(p(2), false);
        // Hand starts at 0 (referenced → bit cleared, skipped), evicts 1.
        assert_eq!(c.evict(), Some(p(1)));
        // Page 0's bit is now clear; next victim depends on hand position
        // (at 2 after the sweep): 2 is cold → evicted.
        assert_eq!(c.evict(), Some(p(2)));
        assert_eq!(c.evict(), Some(p(0)));
    }

    #[test]
    fn touch_protects_until_one_sweep() {
        let mut c = ClockQueue::new();
        for n in 0..4 {
            c.insert(p(n), false);
        }
        assert!(c.touch(p(0)));
        assert_eq!(c.evict(), Some(p(1)));
        assert!(c.touch(p(0)));
        assert_eq!(c.evict(), Some(p(2)));
        // 0 keeps surviving as long as it keeps being touched.
        assert!(c.touch(p(0)));
        assert_eq!(c.evict(), Some(p(3)));
        assert_eq!(c.evict(), Some(p(0)));
    }

    #[test]
    fn touch_unknown_page_returns_false() {
        let mut c = ClockQueue::new();
        assert!(!c.touch(p(9)));
        assert_eq!(c.is_referenced(p(9)), None);
    }

    #[test]
    fn remove_specific_page() {
        let mut c = ClockQueue::new();
        for n in 0..3 {
            c.insert(p(n), false);
        }
        assert!(c.remove(p(1)));
        assert!(!c.remove(p(1)));
        assert!(!c.contains(p(1)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.evict(), Some(p(0)));
        assert_eq!(c.evict(), Some(p(2)));
    }

    #[test]
    fn remove_hand_element_advances_hand() {
        let mut c = ClockQueue::new();
        for n in 0..3 {
            c.insert(p(n), false);
        }
        assert!(c.remove(p(0))); // hand was at 0
        assert_eq!(c.evict(), Some(p(1)));
    }

    #[test]
    #[should_panic(expected = "already in clock queue")]
    fn double_insert_panics() {
        let mut c = ClockQueue::new();
        c.insert(p(1), false);
        c.insert(p(1), false);
    }

    #[test]
    fn ring_reuse_after_churn() {
        let mut c = ClockQueue::new();
        for round in 0..10u64 {
            for n in 0..100 {
                c.insert(p(round * 100 + n), n % 2 == 0);
            }
            for _ in 0..100 {
                assert!(c.evict().is_some());
            }
        }
        assert!(c.is_empty());
        // Neither the ring nor the token table grows unboundedly: dead
        // positions compact away and tokens recycle through the free list.
        assert!(
            c.ring.ring_capacity() <= 512,
            "ring grew to {}",
            c.ring.ring_capacity()
        );
        assert!(
            c.pages.len() <= 200,
            "token table grew to {}",
            c.pages.len()
        );
    }

    #[test]
    fn iter_sweep_lists_all_pages() {
        let mut c = ClockQueue::new();
        for n in 0..4 {
            c.insert(p(n), n == 2);
        }
        let sweep = c.iter_sweep();
        assert_eq!(sweep.len(), 4);
        assert!(sweep.contains(&(p(2), true)));
        assert!(sweep.contains(&(p(0), false)));
    }

    #[test]
    fn iter_sweep_is_in_hand_order_after_sweeps() {
        let mut c = ClockQueue::new();
        for n in 0..4 {
            c.insert(p(n), false);
        }
        c.touch(p(0));
        c.touch(p(1));
        // Sweep clears 0 and 1, evicts 2; hand lands on 3; the skipped
        // block [0, 1] rotates behind it in order.
        assert_eq!(c.evict(), Some(p(2)));
        let order: Vec<u64> = c.iter_sweep().iter().map(|(pg, _)| pg.raw()).collect();
        assert_eq!(order, vec![3, 0, 1]);
        assert!(c.iter_sweep().iter().all(|&(_, r)| !r));
    }

    #[test]
    fn wraparound_keeps_order_across_many_generations() {
        // Push the logical window far past several physical wraps and
        // check FIFO order survives.
        let mut c = ClockQueue::new();
        let mut next = 0u64;
        let mut expect = std::collections::VecDeque::new();
        for _ in 0..50 {
            for _ in 0..37 {
                c.insert(p(next), false);
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..37 {
                assert_eq!(c.evict(), Some(p(expect.pop_front().unwrap())));
            }
        }
        assert!(c.is_empty());
    }
}

//! Page-granular address types.
//!
//! SGX clears the bottom 12 bits of faulting addresses before the OS sees
//! them (paper §3.1), so the entire reproduction works in units of 4 KiB
//! virtual pages. [`VirtPage`] is a newtype over the virtual page number to
//! keep page numbers from mixing with counters, slot indices or cycle counts.

use std::fmt;

/// Bytes per page. SGX EPC pages are 4 KiB.
pub const PAGE_SIZE_BYTES: u64 = 4096;

/// A virtual page number inside an enclave's ELRANGE.
///
/// # Examples
///
/// ```
/// use sgx_epc::VirtPage;
///
/// let p = VirtPage::new(100);
/// assert_eq!(p.next(), VirtPage::new(101));
/// assert_eq!(p.offset(3), VirtPage::new(103));
/// assert!(VirtPage::new(101).follows(p));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtPage(u64);

impl VirtPage {
    /// Creates a page number.
    #[inline]
    pub const fn new(n: u64) -> Self {
        VirtPage(n)
    }

    /// The raw page number.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The immediately following page.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow (an ELRANGE can never be that large).
    #[inline]
    pub fn next(self) -> VirtPage {
        VirtPage(self.0.checked_add(1).expect("page number overflow"))
    }

    /// The page `delta` pages later.
    #[inline]
    pub fn offset(self, delta: u64) -> VirtPage {
        VirtPage(self.0.checked_add(delta).expect("page number overflow"))
    }

    /// `true` when `self` is exactly the page after `other`.
    #[inline]
    pub fn follows(self, other: VirtPage) -> bool {
        other.0.checked_add(1) == Some(self.0)
    }

    /// Absolute distance in pages between two page numbers.
    #[inline]
    pub fn distance(self, other: VirtPage) -> u64 {
        self.0.abs_diff(other.0)
    }

    /// `true` when `self` lies in `(after, after + window]` — the windowed
    /// "is sequential to" test used by the stream predictor (see
    /// `sgx-dfp`).
    #[inline]
    pub fn within_forward_window(self, after: VirtPage, window: u64) -> bool {
        self.0 > after.0 && self.0 - after.0 <= window
    }

    /// The first byte address of this page.
    #[inline]
    pub fn base_address(self) -> u64 {
        self.0 * PAGE_SIZE_BYTES
    }

    /// The page containing byte address `addr`.
    #[inline]
    pub fn containing(addr: u64) -> VirtPage {
        VirtPage(addr / PAGE_SIZE_BYTES)
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpage:{}", self.0)
    }
}

impl From<u64> for VirtPage {
    #[inline]
    fn from(n: u64) -> Self {
        VirtPage(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_and_offset() {
        let p = VirtPage::new(7);
        assert_eq!(p.next().raw(), 8);
        assert_eq!(p.offset(0), p);
        assert_eq!(p.offset(5).raw(), 12);
    }

    #[test]
    fn follows_is_strict_successor() {
        assert!(VirtPage::new(8).follows(VirtPage::new(7)));
        assert!(!VirtPage::new(9).follows(VirtPage::new(7)));
        assert!(!VirtPage::new(7).follows(VirtPage::new(7)));
        assert!(!VirtPage::new(6).follows(VirtPage::new(7)));
        // No wraparound at the top of the address space.
        assert!(!VirtPage::new(0).follows(VirtPage::new(u64::MAX)));
    }

    #[test]
    fn forward_window_semantics() {
        let base = VirtPage::new(100);
        assert!(!base.within_forward_window(base, 4));
        assert!(VirtPage::new(101).within_forward_window(base, 4));
        assert!(VirtPage::new(104).within_forward_window(base, 4));
        assert!(!VirtPage::new(105).within_forward_window(base, 4));
        assert!(!VirtPage::new(99).within_forward_window(base, 4));
    }

    #[test]
    fn distance_is_symmetric() {
        let a = VirtPage::new(3);
        let b = VirtPage::new(10);
        assert_eq!(a.distance(b), 7);
        assert_eq!(b.distance(a), 7);
        assert_eq!(a.distance(a), 0);
    }

    #[test]
    fn address_mapping_roundtrips() {
        let p = VirtPage::new(5);
        assert_eq!(p.base_address(), 5 * 4096);
        assert_eq!(VirtPage::containing(p.base_address()), p);
        assert_eq!(VirtPage::containing(p.base_address() + 4095), p);
        assert_eq!(VirtPage::containing(p.base_address() + 4096), p.next());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(VirtPage::new(3).to_string(), "vpage:3");
    }
}

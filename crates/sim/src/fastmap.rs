//! A deterministic open-addressing hash map for the simulator's hot paths.
//!
//! The kernel's inner loop does millions of page-number lookups per
//! simulated run; `std::collections::HashMap`'s SipHash dominates that
//! profile, and `BTreeMap` trades hashing for pointer chasing. [`FastMap`]
//! replaces both on the hot paths with a flat, linear-probing table using
//! Fibonacci multiplicative hashing — a few arithmetic ops per probe, no
//! per-instance random state, and therefore the same behavior on every
//! run (determinism is the workspace's correctness contract).
//!
//! Deliberate restrictions keep it honest and fast:
//!
//! * keys are `u64` and the value `u64::MAX` is reserved as the empty
//!   marker (page numbers, slot indices and ids never reach it);
//! * no iteration API — iteration order over a hash table is layout
//!   dependent, and forbidding it structurally prevents the map from ever
//!   leaking layout into simulated results;
//! * deletion uses backward-shift compaction instead of tombstones, so
//!   long-lived maps (a whole campaign cell) never degrade.

/// Reserved key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// Fibonacci multiplicative hash: odd multiplier, high bits taken by the
/// caller via shift. Good avalanche on sequential keys (page numbers).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A flat `u64 → u64` hash map with deterministic layout and no
/// per-event allocation once warmed up.
///
/// # Examples
///
/// ```
/// use sgx_sim::FastMap;
///
/// let mut m = FastMap::new();
/// m.insert(7, 42);
/// assert_eq!(m.get(7), Some(42));
/// assert_eq!(m.remove(7), Some(42));
/// assert!(m.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FastMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    /// `keys.len() - 1`; the table size is always a power of two.
    mask: usize,
    /// Right-shift mapping a spread hash onto the table: `64 - log2(size)`.
    shift: u32,
}

impl Default for FastMap {
    fn default() -> Self {
        Self::new()
    }
}

impl FastMap {
    /// Creates an empty map (smallest table; grows on demand).
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    /// Creates a map that can hold `cap` entries before its first rehash.
    pub fn with_capacity(cap: usize) -> Self {
        let size = (cap.max(4) * 2).next_power_of_two();
        FastMap {
            keys: vec![EMPTY; size],
            vals: vec![0; size],
            len: 0,
            mask: size - 1,
            shift: 64 - size.trailing_zeros(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn ideal(&self, key: u64) -> usize {
        (spread(key) >> self.shift) as usize
    }

    /// Looks up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.ideal(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts or overwrites; returns the previous value if the key was
    /// present.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `key` is the reserved `u64::MAX`.
    #[inline]
    pub fn insert(&mut self, key: u64, val: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the reserved empty marker");
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mut i = self.ideal(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value. Backward-shift compaction keeps
    /// probe chains tombstone-free.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY);
        let mut i = self.ideal(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return None;
            }
            if k == key {
                break;
            }
            i = (i + 1) & self.mask;
        }
        let out = self.vals[i];
        self.len -= 1;
        // Backward shift: walk the cluster after the hole; any entry whose
        // ideal slot lies outside the (cyclic) gap..probe range can move
        // back into the hole.
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == EMPTY {
                break;
            }
            let ideal = self.ideal(k);
            let in_gap = if hole <= j {
                ideal > hole && ideal <= j
            } else {
                ideal > hole || ideal <= j
            };
            if !in_gap {
                self.keys[hole] = k;
                self.vals[hole] = self.vals[j];
                hole = j;
            }
        }
        self.keys[hole] = EMPTY;
        Some(out)
    }

    fn grow(&mut self) {
        let old_keys = std::mem::take(&mut self.keys);
        let old_vals = std::mem::take(&mut self.vals);
        let size = old_keys.len() * 2;
        self.keys = vec![EMPTY; size];
        self.vals = vec![0; size];
        self.mask = size - 1;
        self.shift = 64 - size.trailing_zeros();
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }
}

/// A set of `u64` keys over the same flat table as [`FastMap`].
///
/// # Examples
///
/// ```
/// use sgx_sim::FastSet;
///
/// let mut s = FastSet::new();
/// assert!(s.insert(9));
/// assert!(!s.insert(9));
/// assert!(s.remove(9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FastSet {
    map: FastMap,
}

impl FastSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        FastSet::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no members are present.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is a member.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains(key)
    }

    /// Adds `key`; `true` if it was not already a member.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, 0).is_none()
    }

    /// Removes `key`; `true` if it was a member.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FastMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m = FastMap::with_capacity(4);
        for k in 0..1000u64 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(m.get(k), Some(k * 2), "key {k}");
        }
    }

    #[test]
    fn matches_std_hashmap_under_churn() {
        // Deterministic pseudo-random workload exercising collisions and
        // backward-shift deletion.
        let mut m = FastMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut x = 0x12345678u64;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 512; // small key space forces reuse
            match x % 3 {
                0 | 1 => {
                    assert_eq!(m.insert(key, step), reference.insert(key, step));
                }
                _ => {
                    assert_eq!(m.remove(key), reference.remove(&key));
                }
            }
            assert_eq!(m.len(), reference.len());
        }
        for (k, v) in &reference {
            assert_eq!(m.get(*k), Some(*v));
        }
    }

    #[test]
    fn set_semantics() {
        let mut s = FastSet::new();
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.len(), 1);
        assert!(s.contains(3));
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(s.is_empty());
    }

    #[test]
    fn adversarial_cluster_removal() {
        // Keys engineered to collide keep resolving after removals from
        // the middle of the cluster.
        let mut m = FastMap::with_capacity(8);
        let keys: Vec<u64> = (0..12).map(|i| i * 16).collect();
        for &k in &keys {
            m.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(2) {
            assert_eq!(m.remove(k), Some(k + 1));
        }
        for &k in keys.iter().skip(1).step_by(2) {
            assert_eq!(m.get(k), Some(k + 1), "key {k} lost after compaction");
        }
    }
}

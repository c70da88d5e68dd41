//! Property tests for the simulation substrate, checked against naive
//! reference models.

use proptest::prelude::*;

use sgx_sim::{json, Cycles, DetRng, Histogram};

proptest! {
    /// `json::push_u64` prints exactly `Display`'s digits. The shift
    /// spreads the cases over every digit count, not just 19–20.
    #[test]
    fn push_u64_matches_display(v in any::<u64>(), shift in 0u32..64) {
        let v = v >> shift;
        let mut out = String::from("[");
        json::push_u64(&mut out, v);
        prop_assert_eq!(out, format!("[{v}"));
    }

    /// Distribution helpers stay within their support for arbitrary seeds.
    #[test]
    fn rng_outputs_in_support(seed in any::<u64>(), n in 1u64..100_000, s in 0.1f64..3.0) {
        let mut rng = DetRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.uniform(n) < n);
            prop_assert!(rng.zipf(n, s) < n);
            let g = rng.geometric(0.3);
            prop_assert!(g >= 1);
            let u = rng.unit();
            prop_assert!((0.0..1.0).contains(&u));
        }
    }

    /// Histograms conserve count and sum, and mean stays within [min, max].
    #[test]
    fn histogram_conservation(values in proptest::collection::vec(0u64..1u64 << 48, 1..300)) {
        let mut h = Histogram::new("prop");
        for &v in &values {
            h.record(Cycles::new(v));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().map(|&v| v as u128).sum::<u128>());
        let mean = h.mean();
        prop_assert!(mean >= h.min().unwrap());
        prop_assert!(mean <= h.max().unwrap());
        let p100 = h.quantile(1.0).unwrap();
        let p0 = h.quantile(0.0).unwrap();
        prop_assert!(p0 <= p100);
    }

    /// Forked RNGs with distinct salts never alias the parent stream.
    #[test]
    fn forks_are_reproducible(seed in any::<u64>(), salt in any::<u64>()) {
        let root = DetRng::seed_from(seed);
        let mut a = root.fork(salt);
        let mut b = root.fork(salt);
        for _ in 0..16 {
            prop_assert_eq!(a.uniform(1 << 40), b.uniform(1 << 40));
        }
    }
}

//! Property tests for the simulation substrate, checked against naive
//! reference models.

use proptest::prelude::*;

use sgx_sim::{json, Cycles, DetRng, Histogram, Zipf};

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

    /// A [`Zipf`] built once draws the ranks the per-call formula draws,
    /// and leaves the generator where the formula leaves it.
    #[test]
    fn zipf_sampler_matches_the_per_call_formula(
        seed in any::<u64>(),
        n in prop_oneof![1u64..4, 4u64..1_000, 1_000u64..2_000_000],
        s in prop_oneof![Just(1.0f64), 0.1f64..3.0],
    ) {
        assert_same_zipf_draws(seed, n, s, 200)?;
    }
}

/// `DetRng::zipf` as it was when every draw recomputed `H(1.5)` and
/// `H(n + 0.5)`: the reference [`Zipf`] must match bit for bit.
fn zipf_per_call(rng: &mut DetRng, n: u64, s: f64) -> u64 {
    assert!(n > 0, "zipf over empty support");
    assert!(s > 0.0, "zipf exponent must be positive");
    if n == 1 {
        return 0;
    }
    let h = |x: f64| -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    };
    let h_inv = |y: f64| -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            y.exp()
        } else {
            (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
        }
    };
    let nf = n as f64;
    let h_x1 = h(1.5) - 1.0;
    let h_n = h(nf + 0.5);
    loop {
        let u = h_x1 + rng.unit() * (h_n - h_x1);
        let x = h_inv(u);
        let k = x.round().clamp(1.0, nf);
        if u >= h(k + 0.5) - k.powf(-s) {
            return k as u64 - 1;
        }
    }
}

/// Draws `draws` ranks at `(n, s)` through the per-call formula, through
/// `DetRng::zipf` and through one `Zipf`, from one seed, and requires the
/// same ranks and the same generator state afterwards.
fn assert_same_zipf_draws(seed: u64, n: u64, s: f64, draws: usize) -> Result<(), TestCaseError> {
    let zipf = Zipf::new(n, s);
    let mut reference = DetRng::seed_from(seed);
    let mut per_call = DetRng::seed_from(seed);
    let mut built_once = DetRng::seed_from(seed);
    for i in 0..draws {
        let want = zipf_per_call(&mut reference, n, s);
        prop_assert_eq!(per_call.zipf(n, s), want, "draw {} at n {} s {}", i, n, s);
        prop_assert_eq!(
            zipf.sample(&mut built_once),
            want,
            "draw {} at n {} s {}",
            i,
            n,
            s
        );
    }
    let next = reference.uniform(u64::MAX);
    prop_assert_eq!(per_call.uniform(u64::MAX), next);
    prop_assert_eq!(built_once.uniform(u64::MAX), next);
    Ok(())
}

/// The branches the property might sample rarely: the `ln` branch at
/// exactly `s = 1` and just inside its tolerance, a one-rank support that
/// draws nothing, two ranks, and the generators' large regions.
#[test]
fn zipf_sampler_matches_the_per_call_formula_at_the_edges() {
    for (n, s) in [
        (1, 1.0),
        (1, 0.9),
        (2, 1.0),
        (2, 2.5),
        (1_000, 1.0),
        (1_000, 1.0 + 5e-10),
        (100_000, 0.9),
        (1_000_000, 1.1),
        (1_000_000, 1.0),
    ] {
        for seed in [0, 1, 42, u64::MAX] {
            assert_same_zipf_draws(seed, n, s, 2_000).unwrap();
        }
    }
}

//! Deterministic random-number utilities.
//!
//! All randomness in the reproduction flows through [`DetRng`]: a
//! xoshiro256++ generator seeded through SplitMix64 ([`mix`]), with the
//! distribution helpers the workload generators need (uniform, Bernoulli,
//! geometric, Zipf). It is platform-independent and needs no external
//! crate. Identical seeds produce identical simulations — a property the
//! integration suite asserts.

/// SplitMix64-style mix of `(seed, salt)` into a new 64-bit seed.
///
/// This is the one seed-derivation function of the workspace: [`DetRng::fork`]
/// uses it to give workload phases independent streams, and the campaign
/// engine uses it for positional per-cell seeds. Keeping them on one
/// function means a seed printed anywhere reproduces everywhere.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random source.
///
/// # Examples
///
/// ```
/// use sgx_sim::DetRng;
///
/// let mut a = DetRng::seed_from(7);
/// let mut b = DetRng::seed_from(7);
/// let xs: Vec<u64> = (0..8).map(|_| a.uniform(1000)).collect();
/// let ys: Vec<u64> = (0..8).map(|_| b.uniform(1000)).collect();
/// assert_eq!(xs, ys);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    /// xoshiro256++ state.
    s: [u64; 4],
    seed: u64,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed. The state is four
    /// consecutive SplitMix64 outputs, which are [`mix`] at salts 0–3.
    pub fn seed_from(seed: u64) -> Self {
        DetRng {
            s: [mix(seed, 0), mix(seed, 1), mix(seed, 2), mix(seed, 3)],
            seed,
        }
    }

    /// The next 64-bit word of the xoshiro256++ stream.
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator; `salt` distinguishes siblings.
    ///
    /// Used to give each workload phase / site its own stream so that adding
    /// a phase does not perturb the draws of another.
    pub fn fork(&self, salt: u64) -> DetRng {
        DetRng::seed_from(mix(self.seed, salt))
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform(0) is meaningless");
        // Widening-multiply range reduction (Lemire) with a rejection pass
        // to remove the residual bias.
        let zone = n.wrapping_neg() % n; // (2^64 - n) mod n
        loop {
            let m = u128::from(self.next_u64()) * u128::from(n);
            if (m as u64) >= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.uniform(hi - lo)
    }

    /// Uniform float in `[0, 1)`: the high 53 bits of one word, at the
    /// usual 2^-53 granularity.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Geometric draw: the number of trials until the first success
    /// (support `1, 2, 3, …`), for success probability `p in (0, 1]`.
    ///
    /// The mean of the returned distribution is `1 / p`; workload burst
    /// lengths use this.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric probability out of (0,1]");
        if p >= 1.0 {
            return 1;
        }
        let u = self.unit();
        // Inverse CDF; `1 - u` avoids ln(0) since `u < 1`.
        let k = ((1.0 - u).ln() / (1.0 - p).ln()).floor() as u64 + 1;
        k.max(1)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s > 0`, rank 0 being
    /// the most popular: one draw of [`Zipf::new`]`(n, s)`. A generator
    /// drawing many ranks at one `(n, s)` builds the [`Zipf`] once instead.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        Zipf::new(n, s).sample(self)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.uniform(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A Zipf sampler over ranks `[0, n)` with exponent `s > 0`, rank 0 being
/// the most popular.
///
/// Implemented with rejection-inversion (Hörmann & Derflinger), which is
/// O(1) per sample and needs no per-`n` table — important because
/// workloads draw from regions holding hundreds of thousands of pages. The
/// constants that depend only on `(n, s)` are computed once, here, so a
/// draw costs the inversion and the acceptance test alone.
///
/// # Examples
///
/// ```
/// use sgx_sim::{DetRng, Zipf};
///
/// let zipf = Zipf::new(1_000, 1.1);
/// let (mut a, mut b) = (DetRng::seed_from(3), DetRng::seed_from(3));
/// for _ in 0..100 {
///     assert_eq!(zipf.sample(&mut a), b.zipf(1_000, 1.1));
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Zipf {
    n: u64,
    /// `-s`, the exponent of the acceptance test's `k^-s`.
    neg_s: f64,
    /// `s == 1` (within 1e-9): H is `ln` and its inverse `exp`.
    log: bool,
    /// `1 - s`, the power in H.
    one_minus_s: f64,
    /// `1 / (1 - s)`, the power in H's inverse.
    inv_one_minus_s: f64,
    /// `H(1.5) - 1`: the lower end of the inversion interval.
    h_x1: f64,
    /// `H(n + 0.5) - H(1.5) + 1`: the inversion interval's width.
    span: f64,
}

impl Zipf {
    /// A sampler over `[0, n)` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(s > 0.0, "zipf exponent must be positive");
        let mut zipf = Zipf {
            n,
            neg_s: -s,
            log: (s - 1.0).abs() < 1e-9,
            one_minus_s: 1.0 - s,
            inv_one_minus_s: 1.0 / (1.0 - s),
            h_x1: 0.0,
            span: 0.0,
        };
        zipf.h_x1 = zipf.h(1.5) - 1.0;
        zipf.span = zipf.h(n as f64 + 0.5) - zipf.h_x1;
        zipf
    }

    /// H(x), the integral of x^-s (`ln` at s == 1).
    fn h(&self, x: f64) -> f64 {
        if self.log {
            x.ln()
        } else {
            (x.powf(self.one_minus_s) - 1.0) / self.one_minus_s
        }
    }

    /// The inverse of [`Zipf::h`].
    fn h_inv(&self, y: f64) -> f64 {
        if self.log {
            y.exp()
        } else {
            (1.0 + y * self.one_minus_s).powf(self.inv_one_minus_s)
        }
    }

    /// Draws one rank from `rng`. A one-rank support draws nothing.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        if self.n == 1 {
            return 0;
        }
        let nf = self.n as f64;
        loop {
            let u = self.h_x1 + rng.unit() * self.span;
            let x = self.h_inv(u);
            let k = x.round().clamp(1.0, nf);
            // Acceptance test.
            if u >= self.h(k + 0.5) - k.powf(self.neg_s) {
                return k as u64 - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from(123);
        let mut b = DetRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.uniform(1_000_000), b.uniform(1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from(1);
        let mut b = DetRng::seed_from(2);
        let same = (0..64).filter(|_| a.uniform(100) == b.uniform(100)).count();
        assert!(same < 16, "streams should differ; {same}/64 collided");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let root = DetRng::seed_from(99);
        let mut c1 = root.fork(0);
        let mut c1_again = root.fork(0);
        let mut c2 = root.fork(1);
        assert_eq!(c1.uniform(1 << 30), c1_again.uniform(1 << 30));
        // Not a strict guarantee, but forks with different salts should not
        // start identically.
        assert_ne!(
            (0..4).map(|_| c1.uniform(1 << 30)).collect::<Vec<_>>(),
            (0..4).map(|_| c2.uniform(1 << 30)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = DetRng::seed_from(5);
        for _ in 0..1000 {
            assert!(r.uniform(17) < 17);
            let v = r.uniform_range(40, 50);
            assert!((40..50).contains(&v));
        }
    }

    #[test]
    fn stream_is_pinned() {
        // The workload generators and every golden depend on this exact
        // stream; a change to seeding or sampling shows up here first.
        let mut r = DetRng::seed_from(2020);
        let u: Vec<u64> = (0..4).map(|_| r.uniform(1_000_000)).collect();
        assert_eq!(u, [272_507, 552_505, 792_859, 730_964]);
        assert_eq!([r.uniform_range(40, 50), r.uniform_range(40, 50)], [40, 49]);
        assert_eq!(r.unit(), 0.24801341784888464);
        assert_eq!(r.uniform(u64::MAX), 10_671_691_389_112_962_095);
        assert_eq!(r.uniform(u64::MAX), 2_425_572_341_293_521_777);
    }

    #[test]
    fn uniform_is_roughly_uniform() {
        let mut r = DetRng::seed_from(99);
        let mut buckets = [0u32; 10];
        for _ in 0..100_000 {
            buckets[r.uniform(10) as usize] += 1;
        }
        for &b in &buckets {
            assert!(
                (8_000..12_000).contains(&b),
                "bucket count {b} far from uniform"
            );
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn geometric_mean_close_to_inverse_p() {
        let mut r = DetRng::seed_from(11);
        let p = 0.25;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 4.0).abs() < 0.25,
            "geometric mean {mean} far from 4.0"
        );
    }

    #[test]
    fn geometric_p_one_is_always_one() {
        let mut r = DetRng::seed_from(11);
        for _ in 0..32 {
            assert_eq!(r.geometric(1.0), 1);
        }
    }

    #[test]
    fn zipf_stays_in_support_and_skews_low() {
        let mut r = DetRng::seed_from(42);
        let n = 10_000u64;
        let draws = 50_000;
        let mut low = 0u64;
        for _ in 0..draws {
            let k = r.zipf(n, 1.0);
            assert!(k < n);
            if k < n / 10 {
                low += 1;
            }
        }
        // For s = 1 the first decile carries ~ln(n/10)/ln(n) ≈ 75% of mass.
        assert!(
            low > draws * 6 / 10,
            "zipf not skewed: {low}/{draws} in first decile"
        );
    }

    #[test]
    fn zipf_single_element_support() {
        let mut r = DetRng::seed_from(1);
        assert_eq!(r.zipf(1, 1.2), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed_from(3);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }
}

//! Irregular access generators.
//!
//! These model the paper's Fig. 3(b) (*deepsjeng*) class: page accesses with
//! little or no sequential structure — hash probes, pointer chasing,
//! skewed object graphs — plus the Class-1/Class-3 site mixture that makes
//! *mcf* a wash under SIP (paper §5.2).

use sgx_epc::VirtPage;
use sgx_sim::{Cycles, DetRng, Zipf};

use crate::{Access, PageRange, SiteRange};

/// A large odd multiplier for the index-scrambling permutation used by
/// [`ZipfRandom`]; odd ⇒ invertible mod 2^64, so distinct ranks map to
/// distinct offsets.
const SCRAMBLE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Uniformly random page touches over a region — a transposition-table
/// probe stream (*deepsjeng*).
#[derive(Debug, Clone)]
pub struct UniformRandom {
    region: PageRange,
    remaining: u64,
    compute: Cycles,
    sites: SiteRange,
    rng: DetRng,
}

impl UniformRandom {
    /// Emits `total` uniform accesses over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn new(
        region: PageRange,
        total: u64,
        compute: Cycles,
        sites: SiteRange,
        rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        UniformRandom {
            region,
            remaining: total,
            compute,
            sites,
            rng,
        }
    }
}

impl Iterator for UniformRandom {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let page = VirtPage::new(self.rng.uniform_range(self.region.start, self.region.end));
        Some(Access::new(page, self.compute, self.sites.next_site()))
    }
}

/// Zipf-skewed random accesses with ranks scrambled across the region, so
/// popularity does not accidentally create sequential adjacency — the
/// *omnetpp*-like object-graph shape.
#[derive(Debug, Clone)]
pub struct ZipfRandom {
    region: PageRange,
    remaining: u64,
    /// Rank sampler over the region, built once.
    zipf: Zipf,
    compute: Cycles,
    sites: SiteRange,
    rng: DetRng,
}

impl ZipfRandom {
    /// Emits `total` Zipf(`exponent`)-distributed accesses over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or `exponent <= 0`.
    pub fn new(
        region: PageRange,
        total: u64,
        exponent: f64,
        compute: Cycles,
        sites: SiteRange,
        rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        assert!(exponent > 0.0, "zipf exponent must be positive");
        ZipfRandom {
            region,
            remaining: total,
            zipf: Zipf::new(region.len(), exponent),
            compute,
            sites,
            rng,
        }
    }
}

impl Iterator for ZipfRandom {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let n = self.region.len();
        let rank = self.zipf.sample(&mut self.rng);
        // Scramble rank → offset so hot pages scatter across the region.
        let offset = rank.wrapping_mul(SCRAMBLE) % n;
        let page = VirtPage::new(self.region.start + offset);
        Some(Access::new(page, self.compute, self.sites.next_site()))
    }
}

/// A pointer chase with spatial locality: with probability `p_local` the
/// next page is within ±`window` of the current one, otherwise a uniform
/// jump — the *mcf* network-traversal shape.
#[derive(Debug, Clone)]
pub struct PointerChase {
    region: PageRange,
    remaining: u64,
    cur: u64,
    p_local: f64,
    window: u64,
    compute: Cycles,
    sites: SiteRange,
    rng: DetRng,
}

impl PointerChase {
    /// Emits `total` chained accesses over `region`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`, `window == 0`, or `p_local` outside `[0,1]`.
    pub fn new(
        region: PageRange,
        total: u64,
        p_local: f64,
        window: u64,
        compute: Cycles,
        sites: SiteRange,
        mut rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        assert!(window > 0, "locality window must be positive");
        assert!((0.0..=1.0).contains(&p_local), "p_local outside [0,1]");
        let cur = rng.uniform_range(region.start, region.end);
        PointerChase {
            region,
            remaining: total,
            cur,
            p_local,
            window,
            compute,
            sites,
            rng,
        }
    }
}

impl Iterator for PointerChase {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let page = VirtPage::new(self.cur);
        self.cur = if self.rng.chance(self.p_local) {
            let delta = self.rng.uniform_range(1, self.window + 1) as i64;
            let sign = if self.rng.chance(0.5) { 1 } else { -1 };
            let next = self.cur as i64 + sign * delta;
            (next.max(self.region.start as i64) as u64).min(self.region.end - 1)
        } else {
            self.rng.uniform_range(self.region.start, self.region.end)
        };
        Some(Access::new(page, self.compute, self.sites.next_site()))
    }
}

/// The *mcf* dilemma generator (paper §5.2): each site mixes Class-1
/// accesses (a hot region that stays EPC-resident) with Class-3 accesses
/// (cold uniform jumps), in a per-site ratio drawn from
/// `[cold_ratio_lo, cold_ratio_hi]`. Instrumenting such a site saves the
/// world switch on its cold accesses but pays the bitmap check on all its
/// hot ones.
#[derive(Debug, Clone)]
pub struct HotColdSites {
    hot: PageRange,
    cold: PageRange,
    remaining: u64,
    compute: Cycles,
    site_cold_ratio: Vec<f64>,
    sites: SiteRange,
    hot_repeats: u32,
    rng: DetRng,
}

impl HotColdSites {
    /// Emits `total` accesses; site `i` jumps cold with its own fixed
    /// probability drawn deterministically from
    /// `[cold_ratio_lo, cold_ratio_hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or the ratio bounds are not
    /// `0 ≤ lo ≤ hi ≤ 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        hot: PageRange,
        cold: PageRange,
        total: u64,
        cold_ratio_lo: f64,
        cold_ratio_hi: f64,
        compute: Cycles,
        sites: SiteRange,
        rng: DetRng,
    ) -> Self {
        assert!(total > 0, "need at least one access");
        assert!(
            (0.0..=1.0).contains(&cold_ratio_lo)
                && (0.0..=1.0).contains(&cold_ratio_hi)
                && cold_ratio_lo <= cold_ratio_hi,
            "cold ratio bounds must satisfy 0 <= lo <= hi <= 1"
        );
        // Per-site ratios must be identical across runs (profile vs.
        // measure), so derive them from a fork keyed by site index only.
        let site_cold_ratio = (0..sites.count())
            .map(|i| {
                let mut r = rng.fork(0xC01D_0000 + i as u64);
                cold_ratio_lo + r.unit() * (cold_ratio_hi - cold_ratio_lo)
            })
            .collect();
        HotColdSites {
            hot,
            cold,
            remaining: total,
            compute,
            site_cold_ratio,
            sites,
            hot_repeats: 1,
            rng,
        }
    }

    /// Sets how many consecutive executions a *hot* touch stands for —
    /// the inner-loop re-execution count that makes instrumented Class-1
    /// accesses expensive (the mcf dilemma, paper §5.2).
    ///
    /// # Panics
    ///
    /// Panics if `repeats == 0`.
    pub fn with_hot_repeats(mut self, repeats: u32) -> Self {
        assert!(repeats > 0, "hot repeats must be at least 1");
        self.hot_repeats = repeats;
        self
    }

    /// The fixed cold-access probability of site index `i`.
    pub fn cold_ratio_of(&self, i: u32) -> f64 {
        self.site_cold_ratio[(i % self.sites.count()) as usize]
    }
}

impl Iterator for HotColdSites {
    type Item = Access;

    fn next(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let site = self.sites.next_site();
        let idx = (site.0 - self.sites.base()) as usize;
        let cold = self.rng.chance(self.site_cold_ratio[idx]);
        let region = if cold { self.cold } else { self.hot };
        let page = VirtPage::new(self.rng.uniform_range(region.start, region.end));
        let repeats = if cold { 1 } else { self.hot_repeats };
        Some(Access::with_repeats(page, self.compute, site, repeats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(it: impl Iterator<Item = Access>) -> Vec<u64> {
        it.map(|a| a.page.raw()).collect()
    }

    #[test]
    fn uniform_random_stays_in_region_and_spreads() {
        let region = PageRange::new(500, 1_500);
        let ps = pages(UniformRandom::new(
            region,
            10_000,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(3),
        ));
        assert_eq!(ps.len(), 10_000);
        assert!(ps.iter().all(|&p| (500..1_500).contains(&p)));
        // Sequential steps should be rare (~1/1000).
        let seq = ps.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(seq < 100, "uniform stream too sequential: {seq}");
    }

    #[test]
    fn zipf_concentrates_on_few_pages() {
        let region = PageRange::first(10_000);
        let ps = pages(ZipfRandom::new(
            region,
            20_000,
            1.1,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(4),
        ));
        let mut counts = std::collections::HashMap::new();
        for p in &ps {
            *counts.entry(*p).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = freqs.iter().take(100).sum();
        assert!(
            top100 > 20_000 / 2,
            "top-100 pages carry only {top100}/20000"
        );
    }

    #[test]
    fn pointer_chase_has_locality_but_jumps() {
        let region = PageRange::first(100_000);
        let ps = pages(PointerChase::new(
            region,
            20_000,
            0.8,
            8,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(5),
        ));
        let near = ps.windows(2).filter(|w| w[0].abs_diff(w[1]) <= 8).count() as f64 / 19_999.0;
        assert!(
            (0.7..0.9).contains(&near),
            "local-step fraction {near} outside [0.7, 0.9]"
        );
    }

    #[test]
    fn pointer_chase_clamps_at_region_edges() {
        let region = PageRange::new(10, 20);
        let ps = pages(PointerChase::new(
            region,
            5_000,
            1.0,
            100, // window larger than region: clamping exercised constantly
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(6),
        ));
        assert!(ps.iter().all(|&p| (10..20).contains(&p)));
    }

    #[test]
    fn hot_cold_sites_have_stable_per_site_ratios() {
        let make = || {
            HotColdSites::new(
                PageRange::first(100),
                PageRange::new(10_000, 200_000),
                60_000,
                0.02,
                0.3,
                Cycles::ZERO,
                SiteRange::new(0, 6),
                DetRng::seed_from(7),
            )
        };
        let g = make();
        // Ratios derive from site index, not from stream consumption.
        let r0 = g.cold_ratio_of(0);
        let r1 = g.cold_ratio_of(1);
        assert!(r0 != r1, "sites should get distinct ratios");
        assert_eq!(make().cold_ratio_of(0), r0);

        // Empirical cold fraction per site tracks its configured ratio.
        let mut cold_counts = [0u64; 6];
        let mut totals = [0u64; 6];
        for a in make() {
            let idx = a.site.0 as usize;
            totals[idx] += 1;
            if a.page.raw() >= 10_000 {
                cold_counts[idx] += 1;
            }
        }
        for i in 0..6 {
            let emp = cold_counts[i] as f64 / totals[i] as f64;
            let want = g.cold_ratio_of(i as u32);
            assert!(
                (emp - want).abs() < 0.03,
                "site {i}: empirical {emp:.3} vs configured {want:.3}"
            );
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mk = |seed| {
            pages(ZipfRandom::new(
                PageRange::first(1_000),
                100,
                1.0,
                Cycles::ZERO,
                SiteRange::single(0),
                DetRng::seed_from(seed),
            ))
        };
        assert_eq!(mk(11), mk(11));
        assert_ne!(mk(11), mk(12));
    }

    #[test]
    #[should_panic(expected = "p_local outside")]
    fn pointer_chase_validates_probability() {
        let _ = PointerChase::new(
            PageRange::first(10),
            1,
            1.5,
            1,
            Cycles::ZERO,
            SiteRange::single(0),
            DetRng::seed_from(0),
        );
    }
}

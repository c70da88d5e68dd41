//! Lightweight statistics used by the simulator's reports.

use std::fmt;

use crate::Cycles;

/// A power-of-two bucketed latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 additionally
/// holds zero. 64 buckets cover the entire `u64` range, so recording can
/// never lose a sample.
///
/// # Examples
///
/// ```
/// use sgx_sim::{Cycles, Histogram};
///
/// let mut h = Histogram::new("fault_latency");
/// h.record(Cycles::new(64_000));
/// h.record(Cycles::new(2_000));
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.mean(), Cycles::new(33_000));
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Cycles) {
        let raw = v.raw();
        let idx = if raw == 0 {
            0
        } else {
            63 - raw.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += raw as u128;
        self.min = self.min.min(raw);
        self.max = self.max.max(raw);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or [`Cycles::ZERO`] when empty.
    pub fn mean(&self) -> Cycles {
        if self.count == 0 {
            Cycles::ZERO
        } else {
            Cycles::new((self.sum / self.count as u128) as u64)
        }
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<Cycles> {
        (self.count > 0).then(|| Cycles::new(self.min))
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<Cycles> {
        (self.count > 0).then(|| Cycles::new(self.max))
    }

    /// Folds another histogram into this one, bucket by bucket. Campaign
    /// aggregation uses this to combine per-cell distributions.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The non-empty buckets as `(lower_bound, count)` pairs, ascending.
    /// Bucket `i` spans `[2^i, 2^(i+1))` (bucket 0 also holds zero), so the
    /// lower bound is `1 << i`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (1u64 << i, b))
    }

    /// The percentile summary reports embed: count, mean, min/max, and the
    /// p50/p90/p99 bucket bounds. All fields are zero for an empty
    /// histogram.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min().unwrap_or(Cycles::ZERO),
            max: self.max().unwrap_or(Cycles::ZERO),
            p50: self.quantile(0.50).unwrap_or(Cycles::ZERO),
            p90: self.quantile(0.90).unwrap_or(Cycles::ZERO),
            p99: self.quantile(0.99).unwrap_or(Cycles::ZERO),
        }
    }

    /// An approximate quantile (`q in [0, 1]`) from bucket boundaries.
    ///
    /// Resolution is a factor of two — sufficient for distinguishing "2k-cycle
    /// fault" from "64k-cycle fault" regimes in reports.
    pub fn quantile(&self, q: f64) -> Option<Cycles> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(Cycles::new(1u64 << i));
            }
        }
        Some(Cycles::new(self.max))
    }

    /// Histogram name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Point-in-time percentile digest of a [`Histogram`].
///
/// Percentiles are bucket lower bounds (factor-of-two resolution), which is
/// what makes them stable across runs and cheap to compare in golden files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (zero when empty).
    pub mean: Cycles,
    /// Smallest sample (zero when empty).
    pub min: Cycles,
    /// Largest sample (zero when empty).
    pub max: Cycles,
    /// Median bucket bound.
    pub p50: Cycles,
    /// 90th-percentile bucket bound.
    pub p90: Cycles,
    /// 99th-percentile bucket bound.
    pub p99: Cycles,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max,
        )
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: n={} mean={} min={} max={}",
            self.name,
            self.count,
            self.mean(),
            self.min().unwrap_or(Cycles::ZERO),
            self.max().unwrap_or(Cycles::ZERO),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new("h");
        for v in [10u64, 20, 30] {
            h.record(Cycles::new(v));
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Cycles::new(20));
        assert_eq!(h.min(), Some(Cycles::new(10)));
        assert_eq!(h.max(), Some(Cycles::new(30)));
    }

    #[test]
    fn empty_histogram_is_well_behaved() {
        let h = Histogram::new("h");
        assert_eq!(h.mean(), Cycles::ZERO);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn zero_sample_lands_in_first_bucket() {
        let mut h = Histogram::new("h");
        h.record(Cycles::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), Some(Cycles::ZERO));
    }

    #[test]
    fn quantile_orders_buckets() {
        let mut h = Histogram::new("h");
        for _ in 0..90 {
            h.record(Cycles::new(2_000));
        }
        for _ in 0..10 {
            h.record(Cycles::new(64_000));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 < Cycles::new(8_192));
        assert!(p99 >= Cycles::new(32_768));
    }

    #[test]
    fn bucket_edges_zero_one_and_max() {
        let mut h = Histogram::new("h");
        h.record(Cycles::ZERO);
        h.record(Cycles::new(1));
        h.record(Cycles::new(u64::MAX));
        // 0 and 1 share bucket 0; u64::MAX lands in the top bucket.
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (1u64 << 63, 1)]);
        assert_eq!(h.quantile(0.0), Some(Cycles::new(1)));
        assert_eq!(h.quantile(1.0), Some(Cycles::new(1u64 << 63)));
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Cycles::ZERO);
        assert_eq!(s.max, Cycles::new(u64::MAX));
        assert_eq!(s.p50, Cycles::new(1));
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new("a");
        let mut b = Histogram::new("b");
        a.record(Cycles::new(4));
        b.record(Cycles::new(1_000));
        b.record(Cycles::new(2));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 1_006);
        assert_eq!(a.min(), Some(Cycles::new(2)));
        assert_eq!(a.max(), Some(Cycles::new(1_000)));
        // Merging an empty histogram changes nothing.
        let before = a.summary();
        a.merge(&Histogram::new("empty"));
        assert_eq!(a.summary(), before);
    }

    #[test]
    fn summary_of_empty_histogram_is_zeroed() {
        let s = Histogram::new("h").summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                mean: Cycles::ZERO,
                min: Cycles::ZERO,
                max: Cycles::ZERO,
                p50: Cycles::ZERO,
                p90: Cycles::ZERO,
                p99: Cycles::ZERO,
            }
        );
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new("h");
        h.record(Cycles::new(u64::MAX));
        h.record(Cycles::new(u64::MAX));
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(Cycles::new(u64::MAX)));
        assert_eq!(h.mean(), Cycles::new(u64::MAX));
    }
}

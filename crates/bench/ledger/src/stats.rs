//! Order statistics over repeated measurements and the noise-aware verdict
//! rule `--compare` applies to them.

use std::fmt;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, errors).
    Lower,
    /// Larger values are better (throughput, efficiency).
    Higher,
}

impl Better {
    /// Parses the `BENCHMARK.json` spelling, `lower` or `higher`.
    pub fn from_name(name: &str) -> Option<Better> {
        match name {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the ledger's spreads match ones computed from raw runs
/// with Python. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // May be negative for tiny samples: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *q = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    out
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistics need at least one value");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// One metric's repeated measurements, reduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Reduces the samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(xs: &[f64]) -> Self {
        let s = sorted(xs);
        Summary {
            median: median(&s),
            min: s[0],
            max: s[s.len() - 1],
            n: s.len(),
        }
    }

    /// Full range as a share of the median: the spread `--compare` holds
    /// against a bound (0 when the median is 0 and every sample agrees).
    pub fn spread(&self) -> f64 {
        let range = self.max - self.min;
        if range == 0.0 {
            0.0
        } else {
            range / self.median.abs()
        }
    }
}

/// The outcome of comparing a fresh measurement with the last record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound, or every new sample beats every
    /// old one.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// The samples spread wider than the bound, so no verdict is possible.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Judges `new` against `old` for a metric whose `better` direction and
/// regression `bound` (a share of the old median) are given.
///
/// A bound of 0 marks an exact metric (simulated cycles, error counts):
/// any change is a verdict. Otherwise a median that moved by more than the
/// bound is `Worse` or `Better`, and one within it is `Same` — unless
/// either side's spread is wider than the bound, which makes the verdict
/// `Unresolved`, or `Better` when every new sample beats every old one.
pub fn verdict(old: &Summary, new: &Summary, bound: f64, better: Better) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (new.median - old.median);
    if bound == 0.0 {
        return if worsening > 0.0 {
            Verdict::Worse
        } else if worsening < 0.0 {
            Verdict::Better
        } else {
            Verdict::Same
        };
    }
    if old.spread().max(new.spread()) > bound {
        let dominates = match better {
            Better::Lower => new.max < old.min,
            Better::Higher => new.min > old.max,
        };
        return if dominates {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let share = worsening / old.median.abs().max(f64::MIN_POSITIVE);
    if share > bound {
        Verdict::Worse
    } else if share < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            min,
            max,
            n: 3,
        }
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn summary_reduces_and_measures_spread() {
        let sm = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!(sm, s(11.0, 10.0, 12.0));
        assert!((sm.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn verdicts_respect_direction_and_bound() {
        let old = s(1.00, 0.99, 1.01);
        let lower = Better::Lower;
        assert_eq!(
            verdict(&old, &s(1.05, 1.04, 1.06), 0.10, lower),
            Verdict::Same
        );
        assert_eq!(
            verdict(&old, &s(1.20, 1.19, 1.21), 0.10, lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&old, &s(0.80, 0.79, 0.81), 0.10, lower),
            Verdict::Better
        );
        // The same numbers read the other way round for a higher-is-better
        // metric.
        let higher = Better::Higher;
        assert_eq!(
            verdict(&old, &s(1.20, 1.19, 1.21), 0.10, higher),
            Verdict::Better
        );
        assert_eq!(
            verdict(&old, &s(0.80, 0.79, 0.81), 0.10, higher),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let old = s(1.00, 0.80, 1.30);
        // A 20% median slowdown inside a 50%-wide spread proves nothing.
        assert_eq!(
            verdict(&old, &s(1.20, 1.10, 1.25), 0.10, Better::Lower),
            Verdict::Unresolved
        );
        // Every new sample beats every old one: better despite the noise.
        assert_eq!(
            verdict(&old, &s(0.60, 0.50, 0.70), 0.10, Better::Lower),
            Verdict::Better
        );
        // Tight samples that all beat the old ones by less than the bound
        // are still the same.
        let tight = s(1.00, 0.99, 1.01);
        assert_eq!(
            verdict(&tight, &s(0.95, 0.94, 0.96), 0.10, Better::Lower),
            Verdict::Same
        );
    }

    #[test]
    fn exact_metrics_judge_any_change() {
        let old = s(5.0, 5.0, 5.0);
        assert_eq!(verdict(&old, &old, 0.0, Better::Lower), Verdict::Same);
        assert_eq!(
            verdict(&old, &s(5.000001, 5.000001, 5.000001), 0.0, Better::Lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&old, &s(4.0, 4.0, 4.0), 0.0, Better::Lower),
            Verdict::Better
        );
    }
}

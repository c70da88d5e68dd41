//! Information-theoretic metrics over observed page sequences.
//!
//! Everything here is deterministic bit-for-bit and near-linear in the
//! sequence length. A histogram is a sorted run list: the symbols (or
//! adjacent pairs) are sorted and each run of equal keys is one bin, so
//! counts come out in ascending key order and every floating-point
//! reduction runs in that fixed order. No randomness or hashing is
//! involved — a requirement for the campaign goldens, which pin leakage
//! reports byte-identical across worker counts.
//!
//! Entropies are in bits (log base 2).

use std::cmp::Ordering;

/// Sequences are truncated to this many symbols before the edit distance
/// compares them. The cap is part of the metric's definition: the
/// goldens and the CLI gate pin scores computed under it, so changing it
/// moves every score whose sequences run past it.
pub const EDIT_DISTANCE_CAP: usize = 4096;

/// Shannon entropy (bits) of the empirical symbol distribution of `seq`.
/// An empty sequence has zero entropy.
pub fn shannon_entropy(seq: &[u64]) -> f64 {
    sorted_entropy(&mut seq.to_vec())
}

/// Sorts `buf` and returns the Shannon entropy of its symbols.
fn sorted_entropy(buf: &mut [u64]) -> f64 {
    buf.sort_unstable();
    let runs = buf.chunk_by(|x, y| x == y).map(|run| run.len() as u64);
    entropy_of_counts(runs, buf.len() as f64)
}

/// Windowed entropy summary over non-overlapping windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowedEntropy {
    /// Mean per-window entropy (bits); 0 when no window completes.
    pub mean: f64,
    /// Maximum per-window entropy (bits); 0 when no window completes.
    pub max: f64,
    /// Number of full windows summarized (a trailing partial window is
    /// dropped — a short remainder would bias the mean low).
    pub windows: u64,
}

/// Per-window Shannon entropy over non-overlapping windows of `window`
/// symbols — the time-resolved view: a program can have high global
/// entropy yet leak through low-entropy (predictable) phases.
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn windowed_entropy(seq: &[u64], window: usize) -> WindowedEntropy {
    assert!(window > 0, "window must be non-empty");
    let mut sum = 0.0;
    let mut max: f64 = 0.0;
    let mut n = 0u64;
    let mut buf = Vec::new();
    for chunk in seq.chunks_exact(window) {
        buf.clear();
        buf.extend_from_slice(chunk);
        let h = sorted_entropy(&mut buf);
        sum += h;
        max = max.max(h);
        n += 1;
    }
    WindowedEntropy {
        mean: if n == 0 { 0.0 } else { sum / n as f64 },
        max,
        windows: n,
    }
}

/// Bigram conditional entropy H(next | prev) of the sequence, in bits:
/// the chain-rule difference H(pairs) − H(singletons over prefixes).
/// Captures *order* information a plain symbol histogram misses — two
/// runs touching the same pages ascending vs descending have equal
/// symbol entropy but both have near-zero conditional entropy, while a
/// random walk keeps it high.
pub fn bigram_conditional_entropy(seq: &[u64]) -> f64 {
    if seq.len() < 2 {
        return 0.0;
    }
    let pairs = transition_histogram(seq);
    let total = (seq.len() - 1) as f64;
    let h_pairs = entropy_of_counts(pairs.iter().map(|&(_, c)| c), total);
    // Every prefix symbol opens exactly one pair, and the pairs are sorted
    // by it first: summing each group of equal `prev` gives its histogram,
    // in ascending order.
    let prev = pairs
        .chunk_by(|x, y| x.0 .0 == y.0 .0)
        .map(|group| group.iter().map(|&(_, c)| c).sum());
    let h_prev = entropy_of_counts(prev, total);
    (h_pairs - h_prev).max(0.0)
}

/// The page-transition histogram: counts of adjacent `(prev, next)`
/// pairs, one entry per distinct pair in ascending order, so downstream
/// reductions are order-deterministic.
pub fn transition_histogram(seq: &[u64]) -> Vec<((u64, u64), u64)> {
    let mut pairs: Vec<(u64, u64)> = seq.windows(2).map(|w| (w[0], w[1])).collect();
    pairs.sort_unstable();
    pairs
        .chunk_by(|x, y| x == y)
        .map(|run| (run[0], run.len() as u64))
        .collect()
}

/// Smoothed symmetrized Kullback–Leibler divergence (bits) between two
/// transition histograms as [`transition_histogram`] returns them:
/// KL(P‖Q) + KL(Q‖P) with add-half smoothing over the union support, so
/// disjoint supports stay finite. Zero iff the histograms are identical.
pub fn symmetrized_kl(a: &[((u64, u64), u64)], b: &[((u64, u64), u64)]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let k = union_counts(a, b).count() as f64;
    let ta = a.iter().map(|&(_, c)| c).sum::<u64>() as f64 + 0.5 * k;
    let tb = b.iter().map(|&(_, c)| c).sum::<u64>() as f64 + 0.5 * k;
    let mut kl = 0.0;
    for (ca, cb) in union_counts(a, b) {
        let p = (ca as f64 + 0.5) / ta;
        let q = (cb as f64 + 0.5) / tb;
        kl += p * (p / q).log2() + q * (q / p).log2();
    }
    kl.max(0.0)
}

/// Merge-joins two ascending histograms: each key of the union support in
/// ascending order, as its `(count in a, count in b)` with 0 where absent.
fn union_counts<'h, K: Ord>(
    a: &'h [(K, u64)],
    b: &'h [(K, u64)],
) -> impl Iterator<Item = (u64, u64)> + 'h {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let order = match (a.get(i), b.get(j)) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.0.cmp(&y.0),
        };
        Some(match order {
            Ordering::Less => {
                i += 1;
                (a[i - 1].1, 0)
            }
            Ordering::Greater => {
                j += 1;
                (0, b[j - 1].1)
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
                (a[i - 1].1, b[j - 1].1)
            }
        })
    })
}

/// Normalized Levenshtein edit distance between two symbol sequences, in
/// `[0, 1]`: 0 for identical sequences, 1 for nothing in common. Inputs
/// are truncated to [`EDIT_DISTANCE_CAP`] symbols first, and the distance
/// is normalized by the longer truncated length; both sides truncate
/// identically, so the comparison stays fair.
pub fn normalized_edit_distance(a: &[u64], b: &[u64]) -> f64 {
    let a = &a[..a.len().min(EDIT_DISTANCE_CAP)];
    let b = &b[..b.len().min(EDIT_DISTANCE_CAP)];
    let denom = a.len().max(b.len());
    if denom == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / denom as f64
}

/// The exact Levenshtein distance. The common prefix is stripped first,
/// then the common suffix of what remains; neither changes the distance.
/// Myers's bit-parallel recurrence, in Hyyrö's block form, then runs the
/// longer remainder (length n) against the shorter (length m), one bit per
/// symbol of the shorter: O(n·⌈m/64⌉) word operations.
fn levenshtein(a: &[u64], b: &[u64]) -> usize {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let words = short.len().div_ceil(64);
    // Peq: for each distinct symbol of `short`, sorted so a symbol finds
    // its row by binary search, the mask of the positions it occupies.
    // The extra last row stays zero for symbols `short` lacks.
    let mut alphabet = short.to_vec();
    alphabet.sort_unstable();
    alphabet.dedup();
    let row_of = |x: &u64| alphabet.binary_search(x).unwrap_or(alphabet.len());
    let mut peq = vec![0u64; (alphabet.len() + 1) * words];
    for (i, x) in short.iter().enumerate() {
        peq[row_of(x) * words + i / 64] |= 1 << (i % 64);
    }
    // Column 0 is D[i][0] = i: every vertical delta is +1. The last
    // word's bits past row m only take carries from the rows below them,
    // so they never disturb rows 1..=m.
    let mut vp = vec![u64::MAX; words];
    let mut vn = vec![0u64; words];
    let last_row = 1u64 << ((short.len() - 1) % 64);
    let mut dist = short.len();
    for x in long {
        let row = row_of(x) * words;
        // Row 0 is D[0][j] = j: the top word's horizontal carry is +1.
        let mut carry = (1, 0);
        let mut h = (0, 0);
        for ((&eq, vp), vn) in peq[row..row + words].iter().zip(&mut vp).zip(&mut vn) {
            h = advance_word(eq, vp, vn, carry);
            carry = (h.0 >> 63, h.1 >> 63);
        }
        if h.0 & last_row != 0 {
            dist += 1;
        } else if h.1 & last_row != 0 {
            dist -= 1;
        }
    }
    dist
}

/// Advances one 64-row word of the edit-distance column by one symbol of
/// the longer sequence. `eq` marks the rows whose symbol matches it;
/// `vp`/`vn` hold the rows' +1/−1 vertical deltas; `carry` is the
/// (+1, −1) horizontal delta entering from the row above the word, as bit
/// 0. Returns the word's horizontal deltas as (HP, HN) masks: bit 63 is
/// the next word's carry, and the last word's bit for row m is the change
/// in D[m].
fn advance_word(eq: u64, vp: &mut u64, vn: &mut u64, (hp_in, hn_in): (u64, u64)) -> (u64, u64) {
    let xv = eq | *vn;
    // A −1 entering from above propagates like a match in row 0.
    let eq = eq | hn_in;
    // The carry out of bit 63 is dropped: `hn_in` carries it instead.
    let xh = ((eq & *vp).wrapping_add(*vp) ^ *vp) | eq;
    let hp = *vn | !(xh | *vp);
    let hn = *vp & xh;
    let hp_shifted = (hp << 1) | hp_in;
    let hn_shifted = (hn << 1) | hn_in;
    *vp = hn_shifted | !(xv | hp_shifted);
    *vn = hp_shifted & xv;
    (hp, hn)
}

fn entropy_of_counts(counts: impl Iterator<Item = u64>, total: f64) -> f64 {
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for c in counts {
        if c == 0 {
            continue;
        }
        let p = c as f64 / total;
        h -= p * p.log2();
    }
    h.max(0.0)
}

/// The implementations the sorted runs and the bit-parallel edit distance
/// replaced — `BTreeMap` histograms and the two-row dynamic program —
/// kept as oracles the fast versions must match bit for bit.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{entropy_of_counts, WindowedEntropy};

    pub fn shannon_entropy(seq: &[u64]) -> f64 {
        let mut hist: BTreeMap<u64, u64> = BTreeMap::new();
        for &s in seq {
            *hist.entry(s).or_insert(0) += 1;
        }
        entropy_of_counts(hist.values().copied(), seq.len() as f64)
    }

    pub fn windowed_entropy(seq: &[u64], window: usize) -> WindowedEntropy {
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let mut n = 0u64;
        for chunk in seq.chunks_exact(window) {
            let h = shannon_entropy(chunk);
            sum += h;
            max = max.max(h);
            n += 1;
        }
        WindowedEntropy {
            mean: if n == 0 { 0.0 } else { sum / n as f64 },
            max,
            windows: n,
        }
    }

    pub fn bigram_conditional_entropy(seq: &[u64]) -> f64 {
        if seq.len() < 2 {
            return 0.0;
        }
        let pairs = transition_histogram(seq);
        let total = (seq.len() - 1) as f64;
        let h_pairs = entropy_of_counts(pairs.values().copied(), total);
        let mut prev: BTreeMap<u64, u64> = BTreeMap::new();
        for &s in &seq[..seq.len() - 1] {
            *prev.entry(s).or_insert(0) += 1;
        }
        let h_prev = entropy_of_counts(prev.values().copied(), total);
        (h_pairs - h_prev).max(0.0)
    }

    pub fn transition_histogram(seq: &[u64]) -> BTreeMap<(u64, u64), u64> {
        let mut hist = BTreeMap::new();
        for w in seq.windows(2) {
            *hist.entry((w[0], w[1])).or_insert(0) += 1;
        }
        hist
    }

    pub fn symmetrized_kl(a: &BTreeMap<(u64, u64), u64>, b: &BTreeMap<(u64, u64), u64>) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let mut support: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
        for (&k, &v) in a {
            support.entry(k).or_insert((0, 0)).0 = v;
        }
        for (&k, &v) in b {
            support.entry(k).or_insert((0, 0)).1 = v;
        }
        let k = support.len() as f64;
        let ta = a.values().sum::<u64>() as f64 + 0.5 * k;
        let tb = b.values().sum::<u64>() as f64 + 0.5 * k;
        let mut kl = 0.0;
        for &(ca, cb) in support.values() {
            let p = (ca as f64 + 0.5) / ta;
            let q = (cb as f64 + 0.5) / tb;
            kl += p * (p / q).log2() + q * (q / p).log2();
        }
        kl.max(0.0)
    }

    pub fn levenshtein(a: &[u64], b: &[u64]) -> usize {
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur = vec![0usize; short.len() + 1];
        for (i, &x) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &y) in short.iter().enumerate() {
                let sub = prev[j] + usize::from(x != y);
                cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use sgx_sim::DetRng;

    use super::*;

    /// Spreads a small alphabet over the whole `u64` range, so sorted
    /// order differs from first-appearance order.
    fn spread(raw: Vec<u64>, alphabet: u64) -> Vec<u64> {
        raw.into_iter()
            .map(|x| (x % alphabet).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    }

    fn random_seq(rng: &mut DetRng, len: usize, alphabet: u64) -> Vec<u64> {
        (0..len).map(|_| rng.uniform(alphabet)).collect()
    }

    fn same_bits(fast: f64, slow: f64) -> Result<(), TestCaseError> {
        prop_assert_eq!(fast.to_bits(), slow.to_bits(), "{} vs {}", fast, slow);
        Ok(())
    }

    /// Every histogram function against its `BTreeMap` reference, bit
    /// for bit.
    fn histograms_match(a: &[u64], b: &[u64], window: usize) -> Result<(), TestCaseError> {
        for seq in [a, b] {
            same_bits(shannon_entropy(seq), reference::shannon_entropy(seq))?;
            same_bits(
                bigram_conditional_entropy(seq),
                reference::bigram_conditional_entropy(seq),
            )?;
            let (fast, slow) = (
                windowed_entropy(seq, window),
                reference::windowed_entropy(seq, window),
            );
            prop_assert_eq!(fast.windows, slow.windows);
            same_bits(fast.mean, slow.mean)?;
            same_bits(fast.max, slow.max)?;
            let slow: Vec<_> = reference::transition_histogram(seq).into_iter().collect();
            prop_assert_eq!(transition_histogram(seq), slow);
        }
        same_bits(
            symmetrized_kl(&transition_histogram(a), &transition_histogram(b)),
            reference::symmetrized_kl(
                &reference::transition_histogram(a),
                &reference::transition_histogram(b),
            ),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn levenshtein_matches_the_dynamic_program(
            alphabet in 1u64..9,
            a in proptest::collection::vec(any::<u64>(), 0..301),
            b in proptest::collection::vec(any::<u64>(), 0..301),
        ) {
            let (a, b) = (spread(a, alphabet), spread(b, alphabet));
            prop_assert_eq!(levenshtein(&a, &b), reference::levenshtein(&a, &b));
        }

        #[test]
        fn histograms_match_their_btreemap_references(
            alphabet in 1u64..40,
            a in proptest::collection::vec(any::<u64>(), 0..300),
            b in proptest::collection::vec(any::<u64>(), 0..300),
            window in 1usize..70,
        ) {
            histograms_match(&spread(a, alphabet), &spread(b, alphabet), window)?;
        }
    }

    #[test]
    fn histograms_match_on_tiny_inputs() {
        let tiny: [&[u64]; 7] = [
            &[],
            &[5],
            &[5, 5],
            &[5, 9],
            &[9, 5],
            &[u64::MAX, 0],
            &[0, 0, 0],
        ];
        for a in tiny {
            for b in tiny {
                for window in [1, 2, 3] {
                    histograms_match(a, b, window).unwrap();
                }
            }
        }
        // A window that does not divide the length drops the tail.
        let mut rng = DetRng::seed_from(3);
        let seq = random_seq(&mut rng, 1000, 17);
        histograms_match(&seq, &seq[1..], 64).unwrap();
    }

    #[test]
    fn levenshtein_matches_at_word_boundaries() {
        let mut rng = DetRng::seed_from(11);
        let lens = [1, 2, 63, 64, 65, 127, 128, 129];
        for &m in &lens {
            for &n in &lens {
                for alphabet in [2, 4, 64] {
                    let a = random_seq(&mut rng, m, alphabet);
                    let b = random_seq(&mut rng, n, alphabet);
                    assert_eq!(
                        levenshtein(&a, &b),
                        reference::levenshtein(&a, &b),
                        "{m} x {n} over {alphabet}"
                    );
                }
            }
        }
    }

    #[test]
    fn levenshtein_matches_at_the_cap() {
        let mut rng = DetRng::seed_from(5);
        // 4,000 rows end mid-word; 4,096 rows fill the last word.
        for (m, n) in [
            (EDIT_DISTANCE_CAP, 4000),
            (EDIT_DISTANCE_CAP, EDIT_DISTANCE_CAP),
        ] {
            let a = random_seq(&mut rng, m, 8);
            let b = random_seq(&mut rng, n, 8);
            let d = reference::levenshtein(&a, &b);
            assert_eq!(levenshtein(&a, &b), d, "{m} x {n}");
            assert_eq!(levenshtein(&b, &a), d, "{n} x {m}");
        }
        // Past the cap, both sides truncate to full 64-symbol words.
        let a = random_seq(&mut rng, EDIT_DISTANCE_CAP + 900, 3);
        let b = random_seq(&mut rng, EDIT_DISTANCE_CAP + 10, 3);
        let d = reference::levenshtein(&a[..EDIT_DISTANCE_CAP], &b[..EDIT_DISTANCE_CAP]);
        assert_eq!(
            normalized_edit_distance(&a, &b),
            d as f64 / EDIT_DISTANCE_CAP as f64
        );
    }

    #[test]
    fn levenshtein_strips_shared_affixes_exactly() {
        let mut rng = DetRng::seed_from(9);
        let shared = random_seq(&mut rng, 700, 4);
        let x = random_seq(&mut rng, 90, 4);
        let y = random_seq(&mut rng, 150, 4);
        let cases = [
            ([&shared[..], &x].concat(), [&shared[..], &y].concat()),
            ([&x, &shared[..]].concat(), [&y, &shared[..]].concat()),
            (
                [&shared[..300], &x, &shared[300..]].concat(),
                [&shared[..300], &y, &shared[300..]].concat(),
            ),
            (shared.clone(), [&shared[..], &shared[..200]].concat()),
            ([&shared[..], &x].concat(), shared.clone()),
        ];
        for (a, b) in &cases {
            assert_eq!(levenshtein(a, b), reference::levenshtein(a, b));
            assert_eq!(levenshtein(b, a), reference::levenshtein(b, a));
        }
        // Prefix and suffix overlap here: stripping both from the
        // unstripped inputs would remove the one 1 twice.
        assert_eq!(levenshtein(&[1, 1], &[1]), 1);
        assert_eq!(levenshtein(&[1], &[1, 1]), 1);
        assert_eq!(levenshtein(&[2, 1, 2], &[2]), 2);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[7, 7, 7, 7]), 0.0);
        let h = shannon_entropy(&[0, 1, 2, 3]);
        assert!((h - 2.0).abs() < 1e-12, "uniform over 4 symbols: {h}");
    }

    #[test]
    fn windowed_entropy_summarizes_full_windows_only() {
        // Two full windows (one constant, one uniform) + a partial tail.
        let seq = [5, 5, 5, 5, 0, 1, 2, 3, 9];
        let w = windowed_entropy(&seq, 4);
        assert_eq!(w.windows, 2);
        assert!((w.max - 2.0).abs() < 1e-12);
        assert!((w.mean - 1.0).abs() < 1e-12);
        let none = windowed_entropy(&[1, 2], 4);
        assert_eq!((none.mean, none.max, none.windows), (0.0, 0.0, 0));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_window_panics() {
        let _ = windowed_entropy(&[1], 0);
    }

    #[test]
    fn conditional_entropy_sees_order() {
        let asc: Vec<u64> = (0..64).collect();
        let desc: Vec<u64> = (0..64).rev().collect();
        // Deterministic successor ⇒ zero conditional entropy, either way.
        assert!(bigram_conditional_entropy(&asc) < 1e-9);
        assert!(bigram_conditional_entropy(&desc) < 1e-9);
        // ...while symbol entropy is maximal and identical.
        assert_eq!(shannon_entropy(&asc), shannon_entropy(&desc));
        // A shuffled-ish walk keeps successors uncertain.
        let scrambled: Vec<u64> = (0..64u64).map(|i| (i * 29) % 64).chain(0..64).collect();
        assert!(bigram_conditional_entropy(&scrambled) > 0.5);
    }

    #[test]
    fn kl_zero_iff_identical() {
        let a = transition_histogram(&[1, 2, 3, 1, 2, 3]);
        let b = transition_histogram(&[1, 2, 3, 1, 2, 3]);
        assert_eq!(symmetrized_kl(&a, &b), 0.0);
        let c = transition_histogram(&[3, 2, 1, 3, 2, 1]);
        assert!(symmetrized_kl(&a, &c) > 1.0, "reversed transitions differ");
        assert_eq!(symmetrized_kl(&[], &[]), 0.0);
    }

    #[test]
    fn edit_distance_normalization() {
        assert_eq!(normalized_edit_distance(&[], &[]), 0.0);
        assert_eq!(normalized_edit_distance(&[1, 2, 3], &[1, 2, 3]), 0.0);
        assert_eq!(normalized_edit_distance(&[1, 1, 1], &[2, 2, 2]), 1.0);
        let d = normalized_edit_distance(&[1, 2, 3, 4], &[1, 9, 3, 4]);
        assert_eq!(d, 0.25);
        // Symmetry.
        assert_eq!(
            normalized_edit_distance(&[1, 2], &[1, 2, 3, 4]),
            normalized_edit_distance(&[1, 2, 3, 4], &[1, 2]),
        );
    }

    #[test]
    fn edit_distance_caps_input_length() {
        let long: Vec<u64> = (0..EDIT_DISTANCE_CAP as u64 + 50_000).collect();
        let d = normalized_edit_distance(&long, &long[..10]);
        assert!(d > 0.99, "cap applies to both sides: {d}");
    }
}

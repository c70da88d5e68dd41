//! Property tests for the simulation substrate, checked against naive
//! reference models.

use proptest::prelude::*;

use sgx_sim::{json, Cycles, DetRng, EventQueue, Histogram, Resource};

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

    /// The event queue is a stable min-sort: equal timestamps pop in
    /// insertion order.
    #[test]
    fn event_queue_matches_stable_sort(times in proptest::collection::vec(0u64..1_000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycles::new(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        reference.sort_by_key(|&(t, i)| (t, i)); // stable by construction
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.raw(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// pop_due never returns events from the future, and interleaving
    /// pop_due with pushes still drains everything exactly once.
    #[test]
    fn pop_due_respects_time(
        items in proptest::collection::vec((0u64..500, 0u64..500), 1..100),
    ) {
        let mut q = EventQueue::new();
        let mut drained = 0usize;
        for &(at, probe) in &items {
            q.push(Cycles::new(at), at);
            while let Some((t, _)) = q.pop_due(Cycles::new(probe)) {
                prop_assert!(t.raw() <= probe);
                drained += 1;
            }
        }
        while q.pop().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, items.len());
    }

    /// A serial resource's grants never overlap and never start before
    /// the request.
    #[test]
    fn resource_grants_are_serial(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut r = Resource::new("prop");
        let mut requested = 0u64;
        let mut last_end = Cycles::ZERO;
        let mut busy = 0u64;
        for &(from_delta, dur) in &jobs {
            requested = requested.saturating_add(from_delta);
            let g = r.occupy(Cycles::new(requested), Cycles::new(dur));
            prop_assert!(g.start >= Cycles::new(requested));
            prop_assert!(g.start >= last_end, "grants overlapped");
            prop_assert_eq!(g.end, g.start + Cycles::new(dur));
            last_end = g.end;
            busy += dur;
        }
        prop_assert_eq!(r.busy_total(), Cycles::new(busy));
        prop_assert_eq!(r.jobs(), jobs.len() as u64);
        prop_assert!(r.utilization(last_end.max(Cycles::new(1))) <= 1.0 + 1e-12);
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

#[derive(Debug, Clone)]
enum SlabOp {
    Alloc(u64),
    /// Frees the n-th live slot (mod the live count); no-op when empty.
    Free(usize),
}

fn slab_op() -> impl Strategy<Value = SlabOp> {
    prop_oneof![
        any::<u64>().prop_map(SlabOp::Alloc),
        (0usize..64).prop_map(SlabOp::Free),
    ]
}

proptest! {
    /// The slab never hands a live index to two owners: under random
    /// alloc/free interleavings its view matches a naive map keyed by
    /// slot index, and every `alloc` lands on a slot the map says is
    /// dead.
    #[test]
    fn slab_never_reissues_a_live_index(
        ops in proptest::collection::vec(slab_op(), 1..400),
    ) {
        use std::collections::BTreeMap;

        use sgx_sim::Slab;

        let mut slab: Slab<u64> = Slab::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                SlabOp::Alloc(v) => {
                    let idx = slab.alloc(v);
                    prop_assert!(
                        !model.contains_key(&idx),
                        "slot {} was still live when re-issued",
                        idx
                    );
                    model.insert(idx, v);
                }
                SlabOp::Free(n) => {
                    if model.is_empty() {
                        continue;
                    }
                    let idx = *model.keys().nth(n % model.len()).unwrap();
                    let expect = model.remove(&idx).unwrap();
                    prop_assert_eq!(slab.free(idx), expect);
                }
            }
            prop_assert_eq!(slab.len(), model.len());
            for (&idx, &v) in &model {
                prop_assert_eq!(slab.get(idx), Some(&v));
            }
        }
    }

    /// Span records stored in recycled slab slots keep monotonic ids:
    /// reusing a slot never resurrects an old span id, so a recycled
    /// slot's id never collides with any open span (the kernel's
    /// unconditional-span-allocation contract).
    #[test]
    fn recycled_slots_never_collide_with_open_spans(
        ops in proptest::collection::vec(slab_op(), 1..400),
    ) {
        use std::collections::{BTreeMap, BTreeSet};

        use sgx_sim::Slab;

        let mut slab: Slab<u64> = Slab::new();
        let mut open: BTreeMap<u32, u64> = BTreeMap::new();
        let mut closed: BTreeSet<u64> = BTreeSet::new();
        let mut next_span = 0u64;
        for op in &ops {
            match *op {
                SlabOp::Alloc(_) => {
                    next_span += 1; // ids start at 1, 0 is the sentinel
                    let idx = slab.alloc(next_span);
                    prop_assert!(
                        !open.values().any(|&s| s == next_span),
                        "fresh span id {} collides with an open span",
                        next_span
                    );
                    prop_assert!(
                        !closed.contains(&next_span),
                        "span id {} was recycled",
                        next_span
                    );
                    open.insert(idx, next_span);
                }
                SlabOp::Free(n) => {
                    if open.is_empty() {
                        continue;
                    }
                    let idx = *open.keys().nth(n % open.len()).unwrap();
                    let span = open.remove(&idx).unwrap();
                    prop_assert_eq!(slab.free(idx), span);
                    closed.insert(span);
                }
            }
            // Every live slot holds a distinct, never-closed id.
            let live: BTreeSet<u64> = open.values().copied().collect();
            prop_assert_eq!(live.len(), open.len());
            prop_assert!(live.intersection(&closed).next().is_none());
        }
    }
}

//! Property tests for the predictors.

use proptest::prelude::*;

use sgx_dfp::{
    AbortPolicy, MarkovPredictor, MultiStreamPredictor, NextLinePredictor, Prediction, Predictor,
    ProcessId, StreamConfig, StridePredictor,
};
use sgx_epc::VirtPage;
use sgx_sim::Cycles;

const PID: ProcessId = ProcessId(1);

fn feed(p: &mut dyn Predictor, faults: &[u64]) -> Vec<Prediction> {
    faults
        .iter()
        .map(|&f| p.on_fault(Cycles::ZERO, PID, VirtPage::new(f)))
        .collect()
}

proptest! {
    /// No shipped predictor ever predicts the faulting page itself, and
    /// all respect their degree bound.
    #[test]
    fn predictors_never_predict_the_fault_itself(
        faults in proptest::collection::vec(0u64..1u64 << 32, 1..200),
        degree in 1u64..12,
    ) {
        let mut preds: Vec<Box<dyn Predictor>> = vec![
            Box::new(MultiStreamPredictor::new(
                StreamConfig::paper_defaults().with_load_length(degree),
            )),
            Box::new(NextLinePredictor::new(degree)),
            Box::new(StridePredictor::new(degree)),
            Box::new(MarkovPredictor::new(degree, 1 << 14)),
        ];
        for p in preds.iter_mut() {
            for (i, out) in feed(p.as_mut(), &faults).into_iter().enumerate() {
                prop_assert!(
                    out.pages.len() <= degree as usize,
                    "{} exceeded its degree",
                    p.name()
                );
                prop_assert!(
                    !out.pages.contains(&VirtPage::new(faults[i])),
                    "{} predicted the fault page",
                    p.name()
                );
            }
        }
    }

    /// Predictors are pure functions of their fault history: replaying
    /// the identical history yields identical predictions.
    #[test]
    fn predictors_are_deterministic(
        faults in proptest::collection::vec(0u64..100_000, 1..150),
    ) {
        let run = || -> Vec<Vec<u64>> {
            let mut p = MultiStreamPredictor::new(StreamConfig::paper_defaults());
            feed(&mut p, &faults)
                .into_iter()
                .map(|o| o.pages.iter().map(|pg| pg.raw()).collect())
                .collect()
        };
        prop_assert_eq!(run(), run());
    }

    /// reset() restores a predictor to its freshly constructed behaviour.
    #[test]
    fn reset_restores_initial_behaviour(
        warmup in proptest::collection::vec(0u64..10_000, 0..100),
        probe in proptest::collection::vec(0u64..10_000, 1..50),
    ) {
        let mut seasoned = MultiStreamPredictor::new(StreamConfig::paper_defaults());
        feed(&mut seasoned, &warmup);
        seasoned.reset();
        let mut fresh = MultiStreamPredictor::new(StreamConfig::paper_defaults());
        prop_assert_eq!(feed(&mut seasoned, &probe), feed(&mut fresh, &probe));
    }

    /// A pure ascending walk keeps exactly one stream alive and predicts
    /// on every fault after the first.
    #[test]
    fn ascending_walk_is_one_stream(start in 0u64..1u64 << 40, len in 2usize..200) {
        let faults: Vec<u64> = (0..len as u64).map(|i| start + i).collect();
        let mut p = MultiStreamPredictor::new(StreamConfig::paper_defaults());
        let outs = feed(&mut p, &faults);
        prop_assert!(outs[0].is_empty());
        for out in &outs[1..] {
            prop_assert!(!out.is_empty());
        }
        let list = p.stream_list(PID).unwrap();
        prop_assert_eq!(list.len(), 1);
        prop_assert_eq!(list.matches(), len as u64 - 1);
    }

    /// The abort formula is monotone: if it stops at accuracy a, it also
    /// stops at any lower accuracy with the same totals.
    #[test]
    fn abort_formula_is_monotone(total in 0u64..1u64 << 40, acc in 0u64..1u64 << 40, slack in 0u64..1u64 << 20) {
        let policy = AbortPolicy::paper_defaults().with_slack(slack);
        if policy.should_stop(total, acc) {
            prop_assert!(policy.should_stop(total, acc.saturating_sub(1)));
            prop_assert!(policy.should_stop(total + 2, acc));
        }
    }

    /// Capacity invariant: whatever fault sequence arrives — including
    /// uniformly random page soup — the `stream_list` never exceeds its
    /// configured length, and every fault is accounted as exactly one
    /// match or one miss.
    #[test]
    fn stream_list_never_exceeds_capacity(
        faults in proptest::collection::vec(0u64..1u64 << 32, 1..400),
        list_len in 1usize..32,
        load_length in 1u64..9,
    ) {
        let cfg = StreamConfig::paper_defaults()
            .with_list_len(list_len)
            .with_load_length(load_length);
        let mut m = MultiStreamPredictor::new(cfg);
        for (i, &f) in faults.iter().enumerate() {
            m.on_fault(Cycles::ZERO, PID, VirtPage::new(f));
            let list = m.stream_list(PID).expect("PID has faulted");
            prop_assert!(
                list.len() <= list_len,
                "after fault {i}: {} streams > capacity {list_len}",
                list.len()
            );
            prop_assert_eq!(list.matches() + list.misses(), i as u64 + 1);
        }
    }

    /// LRU eviction order: seed `n` well-separated streams in sequence
    /// into a list of capacity `cap`; exactly the `cap` most recently
    /// seeded survive, and probing a head's successor predicts iff its
    /// stream survived. Each probe runs on a clone so it cannot disturb
    /// the list under test.
    #[test]
    fn lru_evicts_exactly_the_oldest_streams(
        n in 2usize..16,
        cap_raw in 1usize..16,
        load_length in 1u64..9,
    ) {
        let cap = 1 + cap_raw % (n - 1).max(1); // 1 ..= n-1
        let cfg = StreamConfig::paper_defaults()
            .with_list_len(cap)
            .with_load_length(load_length);
        let mut m = MultiStreamPredictor::new(cfg);
        // Heads 10_000 apart: far beyond any match window, so each seed
        // fault starts a distinct stream.
        let head = |i: usize| (i as u64 + 1) * 10_000;
        for i in 0..n {
            prop_assert!(m.on_fault(Cycles::ZERO, PID, VirtPage::new(head(i))).is_empty());
        }
        prop_assert_eq!(m.stream_list(PID).unwrap().len(), cap);
        for i in 0..n {
            let mut probe = m.clone();
            let pred = probe.on_fault(Cycles::ZERO, PID, VirtPage::new(head(i) + 1));
            let survived = i >= n - cap;
            prop_assert_eq!(
                !pred.is_empty(),
                survived,
                "stream {i} of {n} (cap {cap}): expected survived={survived}"
            );
        }
    }

    /// Stream-tail monotonicity: an ascending walk whose strides stay
    /// within the match window keeps predicting, and its first predicted
    /// page is strictly increasing — even with up to `list_len - 1`
    /// self-advancing interloper streams interleaved arbitrarily (the
    /// shape one loop walking several arrays at once produces).
    #[test]
    fn walk_tail_is_monotone_under_interleaved_streams(
        schedule in proptest::collection::vec((0usize..8, 1u64..5), 1..300),
    ) {
        let cfg = StreamConfig::paper_defaults(); // window 4, list 30
        let mut m = MultiStreamPredictor::new(cfg);
        let walk_base = 1u64 << 30;
        let mut walk_pos = walk_base;
        // Interlopers live a megapage apart; each advances by one per
        // fault, so nothing ever strays into another stream's window.
        let mut noise_pos = [0u64; 8];
        prop_assert!(m.on_fault(Cycles::ZERO, PID, VirtPage::new(walk_pos)).is_empty());
        let mut last_first: Option<u64> = None;
        for &(lane, step) in &schedule {
            if lane == 0 {
                walk_pos += step; // 1..=4 = within the window
                let pred = m.on_fault(Cycles::ZERO, PID, VirtPage::new(walk_pos));
                prop_assert!(!pred.is_empty(), "in-window stride {step} must match");
                let first = pred.pages[0].raw();
                prop_assert_eq!(first, walk_pos + 1);
                if let Some(prev) = last_first {
                    prop_assert!(first > prev, "tail went backwards: {prev} -> {first}");
                }
                last_first = Some(first);
            } else {
                let base = lane as u64 * 1_000_000;
                let fault = base + noise_pos[lane];
                noise_pos[lane] += 1;
                m.on_fault(Cycles::ZERO, PID, VirtPage::new(fault));
            }
        }
    }
}

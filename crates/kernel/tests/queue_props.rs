//! Model-based property test of the preload queue: every interleaving of
//! enqueue, pop, abort and membership probes matches a `VecDeque` of
//! `(page, batch)` pairs plus a `HashMap` of members.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use sgx_epc::VirtPage;
use sgx_kernel::PreloadQueue;

/// Page-number space: small enough that duplicates and re-queues after
/// pops and aborts are common.
const PAGES: u64 = 256;

#[derive(Debug, Clone)]
enum Op {
    Enqueue(u64, u64),
    Pop,
    Abort,
    Contains(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let enqueue = || (0..PAGES, 0u64..4).prop_map(|(page, batch)| Op::Enqueue(page, batch));
    prop_oneof![
        enqueue(),
        enqueue(),
        enqueue(),
        Just(Op::Pop),
        Just(Op::Abort),
        (0..PAGES).prop_map(Op::Contains),
    ]
}

proptest! {
    /// The queue agrees with the model after every operation. A prefix of
    /// `peak` enqueues first grows the membership table, so later aborts
    /// run against a table much larger than the queue they drain.
    #[test]
    fn queue_matches_vecdeque_and_hashmap_model(
        peak in 0..PAGES,
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut q = PreloadQueue::new();
        let mut order: VecDeque<(u64, u64)> = VecDeque::new();
        let mut members: HashMap<u64, u64> = HashMap::new();
        let prefix = (0..peak).map(|page| Op::Enqueue(page, page % 4));
        for op in prefix.chain(ops) {
            match op {
                Op::Enqueue(page, batch) => {
                    let fresh = !members.contains_key(&page);
                    prop_assert_eq!(q.enqueue_tagged(VirtPage::new(page), batch), fresh);
                    if fresh {
                        members.insert(page, batch);
                        order.push_back((page, batch));
                    }
                }
                Op::Pop => {
                    let got = q.pop_tagged().map(|(page, batch)| (page.raw(), batch));
                    prop_assert_eq!(got, order.pop_front());
                    if let Some((page, batch)) = got {
                        prop_assert_eq!(members.remove(&page), Some(batch));
                    }
                }
                Op::Abort => {
                    let mut got = Vec::new();
                    q.abort_into(&mut got);
                    let got: Vec<(u64, u64)> =
                        got.into_iter().map(|(page, batch)| (page.raw(), batch)).collect();
                    let want: Vec<(u64, u64)> = order.drain(..).collect();
                    prop_assert_eq!(got, want);
                    members.clear();
                    for page in 0..PAGES {
                        prop_assert!(!q.contains(VirtPage::new(page)), "{} survived", page);
                    }
                }
                Op::Contains(page) => {
                    prop_assert_eq!(q.contains(VirtPage::new(page)), members.contains_key(&page));
                }
            }
            prop_assert_eq!(q.len(), order.len());
            prop_assert_eq!(q.is_empty(), order.is_empty());
        }
        for (page, batch) in order {
            prop_assert_eq!(q.pop_tagged(), Some((VirtPage::new(page), batch)));
        }
        prop_assert_eq!(q.pop_tagged(), None);
    }
}

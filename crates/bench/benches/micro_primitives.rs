//! Criterion micro-benchmarks over the hot primitives: the per-fault and
//! per-access costs of the reproduction itself (not of simulated SGX).
//!
//! These guard the simulator's own performance — the figure table replays
//! millions of events, so the predictor update, bitmap check, CLOCK
//! eviction and classifier must stay cheap.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use sgx_dfp::{MultiStreamPredictor, Predictor, ProcessId, StreamConfig};
use sgx_epc::{ClockQueue, Epc, LoadOrigin, PresenceBitmap, VirtPage};
use sgx_kernel::{Kernel, KernelConfig};
use sgx_sim::{Cycles, DetRng};
use sgx_sip::Classifier;

fn bench_stream_predictor(c: &mut Criterion) {
    c.bench_function("dfp/multi_stream_on_fault", |b| {
        let mut p = MultiStreamPredictor::new(StreamConfig::paper_defaults());
        let pid = ProcessId(0);
        let mut n = 0u64;
        b.iter(|| {
            // Alternate a stream hit and a random miss: the two paths.
            n += 1;
            let page = if n.is_multiple_of(2) {
                n / 2
            } else {
                n * 7_919
            };
            black_box(p.on_fault(Cycles::ZERO, pid, VirtPage::new(page)))
        });
    });
}

fn bench_bitmap(c: &mut Criterion) {
    c.bench_function("epc/presence_bitmap_check", |b| {
        let mut bm = PresenceBitmap::new(1 << 20);
        for i in (0..1 << 20).step_by(3) {
            bm.set_present(VirtPage::new(i));
        }
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 12_345) & ((1 << 20) - 1);
            black_box(bm.is_present(VirtPage::new(n)))
        });
    });
}

fn bench_clock(c: &mut Criterion) {
    c.bench_function("epc/clock_touch_evict_insert", |b| {
        let mut clock = ClockQueue::new();
        for i in 0..4_096u64 {
            clock.insert(VirtPage::new(i), i % 2 == 0);
        }
        let mut next = 4_096u64;
        b.iter(|| {
            clock.touch(VirtPage::new(next % 4_096));
            let v = clock.evict().expect("non-empty");
            clock.insert(VirtPage::new(next), false);
            next += 1;
            black_box(v)
        });
    });
}

fn bench_epc_touch(c: &mut Criterion) {
    c.bench_function("epc/touch_resident", |b| {
        let mut epc = Epc::new(8_192);
        for i in 0..8_192u64 {
            epc.insert(VirtPage::new(i), LoadOrigin::Demand).unwrap();
        }
        let mut n = 0u64;
        b.iter(|| {
            n = (n + 4_097) % 8_192;
            black_box(epc.touch(VirtPage::new(n)))
        });
    });
}

fn bench_classifier(c: &mut Criterion) {
    c.bench_function("sip/classifier_classify", |b| {
        let mut rng = DetRng::seed_from(1);
        let mut cl = Classifier::new(24_576);
        b.iter(|| {
            let page = rng.uniform(1 << 18);
            black_box(cl.classify(VirtPage::new(page)))
        });
    });
}

fn bench_fault_path(c: &mut Criterion) {
    c.bench_function("kernel/page_fault_end_to_end", |b| {
        b.iter_batched(
            || {
                let mut k = Kernel::new(
                    KernelConfig::new(1_024),
                    Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
                );
                k.register_enclave(ProcessId(0), 1 << 20).unwrap();
                k
            },
            |mut k| {
                let mut now = Cycles::ZERO;
                for i in 0..512u64 {
                    let r = k.page_fault(now, ProcessId(0), VirtPage::new(i));
                    now = r.resume_at;
                }
                black_box(k.stats().faults)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_zipf(c: &mut Criterion) {
    c.bench_function("sim/zipf_sample", |b| {
        let mut rng = DetRng::seed_from(7);
        b.iter(|| black_box(rng.zipf(1 << 20, 0.9)));
    });
}

criterion_group!(
    benches,
    bench_stream_predictor,
    bench_bitmap,
    bench_clock,
    bench_epc_touch,
    bench_classifier,
    bench_fault_path,
    bench_zipf,
);
criterion_main!(benches);

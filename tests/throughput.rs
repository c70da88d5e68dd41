//! Throughput floor smoke for the hot-path engine rewrite.
//!
//! The timeline microbenchmark cell (DFP at scale 48 with the
//! Chrome-trace sink attached) must clear a conservative wall-clock
//! events/sec floor, so a performance regression — in particular
//! anything super-linear in the event stream, like the pre-rewrite
//! quadratic trace render — fails CI instead of rotting silently.
//!
//! The floors sit far below the measured rates (~8.7M events/sec in
//! release and ~550k in debug on a 2-core container; ~2.1–2.8M and ~290k
//! before the render's flat span index, and 48k before the rewrite) so
//! machine noise cannot trip them, while a return to the quadratic render
//! (tens of kilo-events/sec) still fails by an order of magnitude.

use sgx_preloading::{Benchmark, ChromeTraceSink, CountingSink, Scale, Scheme, SimConfig, SimRun};

/// Conservative floor, build-profile aware: tier-1 runs this in debug.
const FLOOR_EVENTS_PER_SEC: f64 = if cfg!(debug_assertions) {
    60_000.0
} else {
    400_000.0
};

#[test]
fn timeline_cell_clears_the_events_per_sec_floor() {
    let cfg = SimConfig::at_scale(Scale::new(48));
    let (counter, counts) = CountingSink::new();
    let t0 = std::time::Instant::now();
    SimRun::new(&cfg)
        .scheme(Scheme::Dfp)
        .bench(Benchmark::Microbenchmark)
        .sink(Box::new(ChromeTraceSink::new(std::io::sink())))
        .sink(Box::new(counter))
        .run_one()
        .expect("DFP on the microbenchmark");
    let secs = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    let events = counts.get().total();
    assert!(events > 100_000, "cell shrank: only {events} events");
    let rate = events as f64 / secs;
    assert!(
        rate >= FLOOR_EVENTS_PER_SEC,
        "throughput regression: {rate:.0} events/sec is below the \
         {FLOOR_EVENTS_PER_SEC:.0} floor ({events} events in {secs:.3}s)"
    );
}

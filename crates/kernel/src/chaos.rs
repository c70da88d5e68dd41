//! Deterministic fault injection — the chaos layer.
//!
//! The paper's safety story (§4: the two-level abort plus the DFP-stop
//! valve) claims mispredictions cost at most a *bounded* overhead. The
//! [`FaultInjector`] exists to attack that claim on purpose: driven by a
//! seeded [`ChaosSchedule`], it can drop or delay queued preload batches,
//! inject spurious mispredict storms, spike EPC pressure by withholding
//! usable slots, stall CLOCK scans, and force-flap the DFP-stop valve.
//!
//! Two properties are load-bearing and guarded by `tests/chaos.rs`:
//!
//! 1. **Graceful degradation.** Injection may change cycle counts, never
//!    page contents or termination: every demand fault still ends with the
//!    page resident, `KernelStats` still reconciles with the streamed
//!    event counts, and the valve stays latched once stopped.
//! 2. **Zero schedule == no injector.** Every capability draws through
//!    [`DetRng::chance`], which returns `false` *without consuming a
//!    draw* when the rate is `0.0`; an all-zero schedule therefore leaves
//!    the simulation bit-identical to a run with no injector installed.
//!
//! Each capability owns an independent forked RNG (see [`sgx_sim::mix`]),
//! so enabling one capability never perturbs the draw stream of another.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use sgx_epc::VirtPage;
use sgx_sim::{json, mix, Cycles, DetRng};

/// A seeded description of what to break and how often.
///
/// Rates are per-opportunity Bernoulli probabilities in `[0, 1]`: drop and
/// delay rates apply per preload popped off the queue, scan-stall per
/// eviction, and the spurious / EPC-spike / valve-flap rates per page
/// fault. All-zero rates (see [`ChaosSchedule::none`]) make the injector a
/// strict no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSchedule {
    /// Root seed for the injector's independent draw streams.
    pub seed: u64,
    /// Probability that a popped preload batch entry is dropped.
    pub drop_rate: f64,
    /// Retries granted to a dropped preload before it is abandoned.
    pub max_retries: u32,
    /// Base backoff before a dropped preload re-enters the queue; doubles
    /// per attempt.
    pub retry_backoff: Cycles,
    /// Probability that a started preload is delayed.
    pub delay_rate: f64,
    /// Extra channel occupancy added to a delayed preload.
    pub delay_cycles: Cycles,
    /// Probability that a fault triggers a spurious mispredict storm.
    pub spurious_rate: f64,
    /// Pages injected per spurious storm.
    pub spurious_burst: u64,
    /// Probability that a fault triggers an EPC pressure spike.
    pub epc_spike_rate: f64,
    /// Usable-EPC pages withheld during a spike.
    pub epc_spike_pages: u64,
    /// How long a spike withholds its pages.
    pub epc_spike_cycles: Cycles,
    /// Probability that an eviction's CLOCK scan stalls.
    pub scan_stall_rate: f64,
    /// Extra channel occupancy added to a stalled eviction.
    pub scan_stall_cycles: Cycles,
    /// Probability that a fault force-trips the DFP-stop valve.
    pub valve_flap_rate: f64,
}

impl ChaosSchedule {
    /// The all-zero schedule: an injector built from it never draws and
    /// never perturbs the run.
    pub fn none() -> Self {
        ChaosSchedule {
            seed: 0,
            drop_rate: 0.0,
            max_retries: 0,
            retry_backoff: Cycles::ZERO,
            delay_rate: 0.0,
            delay_cycles: Cycles::ZERO,
            spurious_rate: 0.0,
            spurious_burst: 0,
            epc_spike_rate: 0.0,
            epc_spike_pages: 0,
            epc_spike_cycles: Cycles::ZERO,
            scan_stall_rate: 0.0,
            scan_stall_cycles: Cycles::ZERO,
            valve_flap_rate: 0.0,
        }
    }

    /// A mild preset: occasional drops (with retries), short delays and
    /// stalls, small storms. Degradation should stay well inside the
    /// paper's bounded-misprediction envelope.
    pub fn light(seed: u64) -> Self {
        ChaosSchedule::none()
            .with_seed(seed)
            .with_drop(0.05)
            .with_retry(3, Cycles::new(10_000))
            .with_delay(0.05, Cycles::new(20_000))
            .with_spurious(0.02, 4)
            .with_epc_spike(0.01, 64, Cycles::new(500_000))
            .with_scan_stall(0.05, Cycles::new(5_000))
    }

    /// An aggressive preset: frequent drops with few retries, long delays,
    /// large storms, deep EPC spikes and heavy scan stalls.
    pub fn heavy(seed: u64) -> Self {
        ChaosSchedule::none()
            .with_seed(seed)
            .with_drop(0.25)
            .with_retry(2, Cycles::new(20_000))
            .with_delay(0.2, Cycles::new(50_000))
            .with_spurious(0.1, 16)
            .with_epc_spike(0.05, 256, Cycles::new(2_000_000))
            .with_scan_stall(0.2, Cycles::new(20_000))
    }

    /// `true` when every rate is zero — the schedule cannot perturb a run.
    pub fn is_none(&self) -> bool {
        self.drop_rate == 0.0
            && self.delay_rate == 0.0
            && self.spurious_rate == 0.0
            && self.epc_spike_rate == 0.0
            && self.scan_stall_rate == 0.0
            && self.valve_flap_rate == 0.0
    }

    /// Overrides the injector seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the preload drop rate.
    pub fn with_drop(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the retry budget and base backoff for dropped preloads.
    pub fn with_retry(mut self, max_retries: u32, backoff: Cycles) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff = backoff;
        self
    }

    /// Sets the preload delay rate and magnitude.
    pub fn with_delay(mut self, rate: f64, cycles: Cycles) -> Self {
        self.delay_rate = rate;
        self.delay_cycles = cycles;
        self
    }

    /// Sets the spurious-storm rate and burst size.
    pub fn with_spurious(mut self, rate: f64, burst: u64) -> Self {
        self.spurious_rate = rate;
        self.spurious_burst = burst;
        self
    }

    /// Sets the EPC-spike rate, depth and duration.
    pub fn with_epc_spike(mut self, rate: f64, pages: u64, cycles: Cycles) -> Self {
        self.epc_spike_rate = rate;
        self.epc_spike_pages = pages;
        self.epc_spike_cycles = cycles;
        self
    }

    /// Sets the eviction scan-stall rate and magnitude.
    pub fn with_scan_stall(mut self, rate: f64, cycles: Cycles) -> Self {
        self.scan_stall_rate = rate;
        self.scan_stall_cycles = cycles;
        self
    }

    /// Sets the valve force-flap rate. The valve latches: only the first
    /// successful flap has any effect, after which preloading stays off.
    pub fn with_valve_flap(mut self, rate: f64) -> Self {
        self.valve_flap_rate = rate;
        self
    }

    /// Appends the schedule as a JSON object to `out`.
    pub fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            o.field("seed", self.seed)
                .field("drop_rate", self.drop_rate)
                .field("max_retries", self.max_retries)
                .field("retry_backoff", self.retry_backoff)
                .field("delay_rate", self.delay_rate)
                .field("delay_cycles", self.delay_cycles)
                .field("spurious_rate", self.spurious_rate)
                .field("spurious_burst", self.spurious_burst)
                .field("epc_spike_rate", self.epc_spike_rate)
                .field("epc_spike_pages", self.epc_spike_pages)
                .field("epc_spike_cycles", self.epc_spike_cycles)
                .field("scan_stall_rate", self.scan_stall_rate)
                .field("scan_stall_cycles", self.scan_stall_cycles)
                .field("valve_flap_rate", self.valve_flap_rate);
        });
    }
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        ChaosSchedule::none()
    }
}

/// The named chaos presets — a parseable handle for the three
/// [`ChaosSchedule`] starting points (`none`, [`ChaosSchedule::light`],
/// [`ChaosSchedule::heavy`]). CLI flags and campaign axes go through this
/// type so the names round-trip: `parse(preset.to_string()) == preset`.
///
/// # Examples
///
/// ```
/// use sgx_kernel::ChaosPreset;
///
/// let p: ChaosPreset = "light".parse()?;
/// assert_eq!(p, ChaosPreset::Light);
/// assert_eq!(p.to_string(), "light");
/// assert!(!p.schedule(7).is_none());
/// # Ok::<(), sgx_kernel::ParseChaosPresetError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosPreset {
    /// The all-zero schedule: no injection.
    None,
    /// The mild preset ([`ChaosSchedule::light`]).
    Light,
    /// The aggressive preset ([`ChaosSchedule::heavy`]).
    Heavy,
}

impl ChaosPreset {
    /// Every preset, mildest first.
    pub const ALL: [ChaosPreset; 3] = [ChaosPreset::None, ChaosPreset::Light, ChaosPreset::Heavy];

    /// The preset's canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosPreset::None => "none",
            ChaosPreset::Light => "light",
            ChaosPreset::Heavy => "heavy",
        }
    }

    /// Builds the preset's schedule under `seed` (ignored by
    /// [`ChaosPreset::None`], whose schedule never draws).
    pub fn schedule(self, seed: u64) -> ChaosSchedule {
        match self {
            ChaosPreset::None => ChaosSchedule::none(),
            ChaosPreset::Light => ChaosSchedule::light(seed),
            ChaosPreset::Heavy => ChaosSchedule::heavy(seed),
        }
    }
}

impl fmt::Display for ChaosPreset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The error [`ChaosPreset`]'s `FromStr` impl reports for an unknown name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseChaosPresetError(String);

impl fmt::Display for ParseChaosPresetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown chaos preset {:?} (none|light|heavy)", self.0)
    }
}

impl std::error::Error for ParseChaosPresetError {}

impl std::str::FromStr for ChaosPreset {
    type Err = ParseChaosPresetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(ChaosPreset::None),
            "light" => Ok(ChaosPreset::Light),
            "heavy" => Ok(ChaosPreset::Heavy),
            _ => Err(ParseChaosPresetError(s.to_string())),
        }
    }
}

/// What the injector actually did, kept apart from [`KernelStats`] so the
/// streamed-event reconciliation (`KernelStats == EventCounts`) is
/// untouched by injection bookkeeping.
///
/// [`KernelStats`]: crate::KernelStats
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Preload batch entries dropped off the queue.
    pub preloads_dropped: u64,
    /// Dropped entries re-queued after their backoff.
    pub retries_scheduled: u64,
    /// Dropped entries abandoned after exhausting their retries.
    pub retries_abandoned: u64,
    /// Started preloads that were delayed.
    pub preloads_delayed: u64,
    /// Total extra channel cycles added by delays.
    pub delay_cycles: u64,
    /// Spurious pages pushed at the prediction queue.
    pub spurious_pages: u64,
    /// EPC pressure spikes triggered.
    pub epc_spikes: u64,
    /// Evictions whose scan was stalled.
    pub scan_stalls: u64,
    /// Total extra channel cycles added by scan stalls.
    pub stall_cycles: u64,
    /// Successful forced valve trips (at most one: the valve latches).
    pub valve_trips: u64,
}

impl ChaosStats {
    /// Total number of injected disturbances of any kind.
    pub fn total_injections(&self) -> u64 {
        self.preloads_dropped
            + self.preloads_delayed
            + self.spurious_pages
            + self.epc_spikes
            + self.scan_stalls
            + self.valve_trips
    }
}

/// Fork salts for the per-capability draw streams.
const SALT_DROP: u64 = 1;
const SALT_DELAY: u64 = 2;
const SALT_STALL: u64 = 3;
const SALT_SPIKE: u64 = 4;
const SALT_VALVE: u64 = 5;
const SALT_STORM: u64 = 6;

/// The deterministic fault injector the kernel builds from the
/// `KernelConfig::chaos` schedule.
pub struct FaultInjector {
    schedule: ChaosSchedule,
    drop_rng: DetRng,
    delay_rng: DetRng,
    stall_rng: DetRng,
    spike_rng: DetRng,
    valve_rng: DetRng,
    storm_rng: DetRng,
    stats: ChaosStats,
}

impl FaultInjector {
    /// Builds an injector from a schedule; each capability forks its own
    /// independent draw stream off `schedule.seed`.
    pub fn new(schedule: ChaosSchedule) -> Self {
        let fork = |salt| DetRng::seed_from(mix(schedule.seed, salt));
        FaultInjector {
            schedule,
            drop_rng: fork(SALT_DROP),
            delay_rng: fork(SALT_DELAY),
            stall_rng: fork(SALT_STALL),
            spike_rng: fork(SALT_SPIKE),
            valve_rng: fork(SALT_VALVE),
            storm_rng: fork(SALT_STORM),
            stats: ChaosStats::default(),
        }
    }

    /// The schedule driving this injector.
    pub fn schedule(&self) -> &ChaosSchedule {
        &self.schedule
    }

    /// What has been injected so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Per popped preload: should this batch entry be dropped?
    pub fn drop_preload(&mut self) -> bool {
        if self.drop_rng.chance(self.schedule.drop_rate) {
            self.stats.preloads_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Backoff before retry `attempt` (0-based) of a dropped preload, or
    /// `None` once the retry budget is spent. The backoff doubles per
    /// attempt and is always at least one cycle so a retried page cannot
    /// re-enter the queue at the drop instant (which would livelock the
    /// advance loop under `drop_rate == 1.0`).
    pub fn retry_backoff(&mut self, attempt: u32) -> Option<Cycles> {
        if attempt >= self.schedule.max_retries {
            self.stats.retries_abandoned += 1;
            return None;
        }
        self.stats.retries_scheduled += 1;
        let shift = attempt.min(32);
        let raw = self.schedule.retry_backoff.raw() << shift;
        Some(Cycles::new(raw.max(1)))
    }

    /// Per started preload: extra channel occupancy, if this one is
    /// delayed.
    pub fn delay_preload(&mut self) -> Option<Cycles> {
        if self.delay_rng.chance(self.schedule.delay_rate) {
            self.stats.preloads_delayed += 1;
            self.stats.delay_cycles += self.schedule.delay_cycles.raw();
            Some(self.schedule.delay_cycles)
        } else {
            None
        }
    }

    /// Per eviction: extra scan occupancy, if this CLOCK sweep stalls.
    pub fn scan_stall(&mut self) -> Option<Cycles> {
        if self.stall_rng.chance(self.schedule.scan_stall_rate) {
            self.stats.scan_stalls += 1;
            self.stats.stall_cycles += self.schedule.scan_stall_cycles.raw();
            Some(self.schedule.scan_stall_cycles)
        } else {
            None
        }
    }

    /// Per fault: pages-to-withhold and duration, if a pressure spike
    /// fires.
    pub fn epc_spike(&mut self) -> Option<(u64, Cycles)> {
        if self.spike_rng.chance(self.schedule.epc_spike_rate) {
            self.stats.epc_spikes += 1;
            Some((
                self.schedule.epc_spike_pages,
                self.schedule.epc_spike_cycles,
            ))
        } else {
            None
        }
    }

    /// Per fault (while preloading is live): force-trip the valve?
    pub fn force_valve(&mut self) -> bool {
        if self.valve_rng.chance(self.schedule.valve_flap_rate) {
            self.stats.valve_trips += 1;
            true
        } else {
            false
        }
    }

    /// Per fault (while preloading is live): a spurious mispredict storm —
    /// `spurious_burst` pages drawn uniformly from the faulting enclave's
    /// `[base, base + pages)` ELRANGE. Empty when the storm does not fire.
    pub fn spurious_storm(&mut self, base: u64, pages: u64) -> Vec<VirtPage> {
        if pages == 0 || !self.storm_rng.chance(self.schedule.spurious_rate) {
            return Vec::new();
        }
        let burst = self.schedule.spurious_burst;
        self.stats.spurious_pages += burst;
        (0..burst)
            .map(|_| VirtPage::new(base + self.storm_rng.uniform(pages)))
            .collect()
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector")
            .field("schedule", &self.schedule)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The chaos layer's state inside a kernel: the injector plus what its
/// injections leave pending — dropped preloads waiting out their backoff,
/// and the usable-EPC pages a pressure spike withholds.
#[derive(Debug)]
pub(crate) struct Chaos {
    pub(crate) injector: FaultInjector,
    /// Dropped preloads waiting out their backoff as `(due, drop order,
    /// page, batch)`, earliest due on top. The drop order is the count of
    /// retries scheduled so far; `batch` is the raw id of the
    /// prediction-batch span that queued the page (0 = none), so the
    /// retried load still parents the original batch.
    retries: BinaryHeap<Reverse<(Cycles, u64, VirtPage, u64)>>,
    /// Retry attempts consumed per dropped page.
    attempts: BTreeMap<VirtPage, u32>,
    /// Usable-EPC pages withheld by an active pressure spike.
    withheld: u64,
    /// When the active pressure spike ends.
    withheld_until: Cycles,
    /// Scratch for the retries one release lets out, reused.
    due: Vec<(u64, VirtPage, u64)>,
}

impl Chaos {
    pub(crate) fn new(schedule: ChaosSchedule) -> Self {
        Chaos {
            injector: FaultInjector::new(schedule),
            retries: BinaryHeap::new(),
            attempts: BTreeMap::new(),
            withheld: 0,
            withheld_until: Cycles::ZERO,
            due: Vec::new(),
        }
    }

    /// `free` EPC slots as the scheduler sees them at `t`: minus the pages
    /// an active pressure spike withholds.
    #[inline]
    pub(crate) fn usable(&self, free: u64, t: Cycles) -> u64 {
        let withheld = if t < self.withheld_until {
            self.withheld
        } else {
            0
        };
        free.saturating_sub(withheld)
    }

    /// Per popped preload at `t`: whether the injector drops it. A dropped
    /// page waits out a backoff retry, or is abandoned once its retry
    /// budget is spent.
    pub(crate) fn drop_preload(&mut self, t: Cycles, page: VirtPage, batch: u64) -> bool {
        if !self.injector.drop_preload() {
            return false;
        }
        let attempt = self.attempts.get(&page).copied().unwrap_or(0);
        match self.injector.retry_backoff(attempt) {
            Some(backoff) => {
                self.attempts.insert(page, attempt + 1);
                let order = self.injector.stats.retries_scheduled;
                self.retries
                    .push(Reverse((t + backoff, order, page, batch)));
            }
            None => self.forget(page),
        }
        true
    }

    /// Clears `page`'s retry attempts: its preload started, or its retry
    /// was discarded.
    pub(crate) fn forget(&mut self, page: VirtPage) {
        self.attempts.remove(&page);
    }

    /// Lets out the retries due at `t` — every pending retry once
    /// preloading has `stopped` — in drop order, offering each
    /// `(page, batch)` to `requeue`. A page it declines forfeits its
    /// remaining attempts.
    pub(crate) fn release(
        &mut self,
        t: Cycles,
        stopped: bool,
        mut requeue: impl FnMut(VirtPage, u64) -> bool,
    ) {
        while let Some(&Reverse((at, order, page, batch))) = self.retries.peek() {
            if at > t && !stopped {
                break;
            }
            self.retries.pop();
            self.due.push((order, page, batch));
        }
        self.due.sort_unstable();
        for (_, page, batch) in self.due.drain(..) {
            if !requeue(page, batch) {
                self.attempts.remove(&page);
            }
        }
    }

    /// When the earliest pending retry falls due.
    pub(crate) fn next_retry(&self) -> Option<Cycles> {
        self.retries.peek().map(|r| r.0 .0)
    }

    /// Retries currently waiting out a backoff.
    pub(crate) fn pending_retries(&self) -> usize {
        self.retries.len()
    }

    /// Per fault at `now`: a pressure spike may start withholding pages
    /// (never all `capacity` of them); returns whether the valve is
    /// force-tripped, which a `stopped` valve never is.
    pub(crate) fn on_fault(&mut self, now: Cycles, capacity: u64, stopped: bool) -> bool {
        if let Some((pages, duration)) = self.injector.epc_spike() {
            self.withheld = pages.min(capacity.saturating_sub(1));
            self.withheld_until = now + duration;
        }
        !stopped && self.injector.force_valve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::*;

    #[test]
    fn zero_schedule_never_fires_and_never_draws() {
        let mut inj = FaultInjector::new(ChaosSchedule::none().with_seed(99));
        for _ in 0..100 {
            assert!(!inj.drop_preload());
            assert!(inj.delay_preload().is_none());
            assert!(inj.scan_stall().is_none());
            assert!(inj.epc_spike().is_none());
            assert!(!inj.force_valve());
            assert!(inj.spurious_storm(0, 1 << 20).is_empty());
        }
        assert_eq!(*inj.stats(), ChaosStats::default());
        assert_eq!(inj.stats().total_injections(), 0);
    }

    #[test]
    fn certain_rates_always_fire() {
        let sched = ChaosSchedule::none()
            .with_seed(7)
            .with_drop(1.0)
            .with_delay(1.0, Cycles::new(5))
            .with_scan_stall(1.0, Cycles::new(3))
            .with_epc_spike(1.0, 10, Cycles::new(50))
            .with_valve_flap(1.0)
            .with_spurious(1.0, 4);
        let mut inj = FaultInjector::new(sched);
        assert!(inj.drop_preload());
        assert_eq!(inj.delay_preload(), Some(Cycles::new(5)));
        assert_eq!(inj.scan_stall(), Some(Cycles::new(3)));
        assert_eq!(inj.epc_spike(), Some((10, Cycles::new(50))));
        assert!(inj.force_valve());
        let storm = inj.spurious_storm(1000, 16);
        assert_eq!(storm.len(), 4);
        assert!(storm.iter().all(|p| (1000..1016).contains(&p.raw())));
        let s = inj.stats();
        assert_eq!(s.preloads_dropped, 1);
        assert_eq!(s.preloads_delayed, 1);
        assert_eq!(s.scan_stalls, 1);
        assert_eq!(s.epc_spikes, 1);
        assert_eq!(s.valve_trips, 1);
        assert_eq!(s.spurious_pages, 4);
        assert_eq!(s.total_injections(), 9);
    }

    #[test]
    fn same_seed_same_decisions() {
        let sched = ChaosSchedule::light(42);
        let mut a = FaultInjector::new(sched);
        let mut b = FaultInjector::new(sched);
        for _ in 0..500 {
            assert_eq!(a.drop_preload(), b.drop_preload());
            assert_eq!(a.delay_preload(), b.delay_preload());
            assert_eq!(a.spurious_storm(64, 4096), b.spurious_storm(64, 4096));
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn retry_backoff_doubles_then_abandons() {
        let mut inj = FaultInjector::new(ChaosSchedule::none().with_retry(3, Cycles::new(100)));
        assert_eq!(inj.retry_backoff(0), Some(Cycles::new(100)));
        assert_eq!(inj.retry_backoff(1), Some(Cycles::new(200)));
        assert_eq!(inj.retry_backoff(2), Some(Cycles::new(400)));
        assert_eq!(inj.retry_backoff(3), None);
        assert_eq!(inj.stats().retries_scheduled, 3);
        assert_eq!(inj.stats().retries_abandoned, 1);
    }

    #[test]
    fn retry_backoff_is_never_zero() {
        let mut inj = FaultInjector::new(ChaosSchedule::none().with_retry(1, Cycles::ZERO));
        assert_eq!(inj.retry_backoff(0), Some(Cycles::new(1)));
    }

    #[test]
    fn presets_are_active_and_none_is_not() {
        assert!(ChaosSchedule::none().is_none());
        assert!(!ChaosSchedule::light(1).is_none());
        assert!(!ChaosSchedule::heavy(1).is_none());
        // A zero schedule with a nonzero seed is still inert.
        assert!(ChaosSchedule::none().with_seed(77).is_none());
    }

    #[test]
    fn preset_names_round_trip() {
        for p in ChaosPreset::ALL {
            assert_eq!(p.to_string().parse::<ChaosPreset>(), Ok(p));
        }
        assert_eq!("HEAVY".parse::<ChaosPreset>(), Ok(ChaosPreset::Heavy));
        let err = "medium".parse::<ChaosPreset>().unwrap_err();
        assert!(err.to_string().contains("unknown chaos preset"));
        assert!(ChaosPreset::None.schedule(9).is_none());
        assert_eq!(ChaosPreset::Light.schedule(9), ChaosSchedule::light(9));
        assert_eq!(ChaosPreset::Heavy.schedule(9), ChaosSchedule::heavy(9));
    }

    #[test]
    fn schedule_json_is_an_object() {
        let mut s = String::new();
        ChaosSchedule::heavy(3).write_json(&mut s);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"drop_rate\":0.25"));
        // A non-finite rate set through the library still writes valid JSON.
        s.clear();
        ChaosSchedule::none().with_drop(f64::NAN).write_json(&mut s);
        assert!(s.contains("\"drop_rate\":0,"), "{s}");
    }

    // ---- the chaos layer inside a kernel ----

    fn chaos_kernel(epc: u64, predictor: Box<dyn Predictor>, sched: ChaosSchedule) -> Kernel {
        let mut cfg = KernelConfig::new(epc).with_costs(tiny_costs());
        cfg.chaos = Some(sched);
        let mut k = Kernel::new(cfg, predictor);
        k.register_enclave(PID, 1 << 20).unwrap();
        k
    }

    #[test]
    fn zero_chaos_schedule_is_bit_identical_to_no_injector() {
        let mut plain = kernel_with(16, Box::new(NextLinePredictor::new(3)));
        let mut chaos = chaos_kernel(
            16,
            Box::new(NextLinePredictor::new(3)),
            ChaosSchedule::none().with_seed(12345),
        );
        let end_a = drive(&mut plain, 300, 3, 64);
        let end_b = drive(&mut chaos, 300, 3, 64);
        assert_eq!(end_a, end_b, "zero schedule must not change timing");
        let (a, b) = (plain.stats(), chaos.stats());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.preloads_started, b.preloads_started);
        assert_eq!(a.preloads_aborted, b.preloads_aborted);
        assert_eq!(a.background_evictions, b.background_evictions);
        assert_eq!(a.foreground_evictions, b.foreground_evictions);
        assert_eq!(a.fault_service.sum(), b.fault_service.sum());
        assert_eq!(chaos.chaos_stats(), Some(&ChaosStats::default()));
    }

    #[test]
    fn dropped_preloads_retry_with_backoff_then_abandon() {
        // Certain drop: every popped preload is dropped; two retries each.
        let sched = ChaosSchedule::none()
            .with_seed(1)
            .with_drop(1.0)
            .with_retry(2, Cycles::new(100));
        let mut k = chaos_kernel(64, Box::new(NextLinePredictor::new(1)), sched);
        let r = k.page_fault(Cycles::ZERO, PID, p(0)); // queues p1
                                                       // Idle time lets the drop → backoff → redrop cycle play out.
        assert!(k
            .app_access(r.resume_at + Cycles::new(5_000), PID, p(0))
            .is_some());
        assert_eq!(k.stats().preloads_started, 0, "every preload was dropped");
        let cs = *k.chaos_stats().unwrap();
        assert_eq!(cs.preloads_dropped, 3, "initial pop + two retries");
        assert_eq!(cs.retries_scheduled, 2);
        assert_eq!(cs.retries_abandoned, 1);
        assert_eq!(k.chaos_retry_queue_len(), 0);
        // The page is still loadable on demand — degradation, not loss.
        let r1 = k.page_fault(Cycles::new(10_000), PID, p(1));
        assert_eq!(r1.kind, FaultServicing::DemandLoaded);
    }

    #[test]
    fn forced_valve_flap_latches_like_the_real_valve() {
        let sched = ChaosSchedule::none().with_seed(2).with_valve_flap(1.0);
        let mut k = chaos_kernel(256, Box::new(NextLinePredictor::new(4)), sched);
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 100, 7, 4096);
        assert!(k.is_preload_stopped(), "first fault force-trips the valve");
        assert!(k.stats().dfp_stopped_at.is_some());
        assert_eq!(
            k.stats().preloads_started,
            0,
            "no preload survives the trip"
        );
        let c = counts.get();
        assert_eq!(c.valve_stops, 1, "the latch absorbs further flaps");
        assert_eq!(c.preload_starts, 0);
        assert_eq!(k.chaos_stats().unwrap().valve_trips, 1);
        // Stats reconcile with the stream under injection.
        assert_eq!(c.faults, k.stats().faults);
        assert_eq!(c.preload_aborts, k.stats().preloads_aborted);
    }

    #[test]
    fn epc_spike_withholds_usable_slots() {
        // Spike deeper than the EPC on every fault: the scheduler sees
        // zero usable slots and pays foreground evictions even though
        // real capacity is never full.
        let sched =
            ChaosSchedule::none()
                .with_seed(3)
                .with_epc_spike(1.0, 1 << 20, Cycles::new(1_000_000));
        let mut k = chaos_kernel(64, Box::new(NoPredictor), sched);
        let mut now = Cycles::ZERO;
        for i in 0..20 {
            now = k.page_fault(now, PID, p(i)).resume_at + Cycles::new(10);
        }
        let evictions = k.stats().background_evictions + k.stats().foreground_evictions;
        assert!(evictions > 0, "spike forces evictions");
        assert!(
            k.epc().resident_count() < k.epc().capacity(),
            "real EPC never filled"
        );
        assert!(k.chaos_stats().unwrap().epc_spikes > 0);
        assert!(k.bitmap_consistent());
        // Every faulted page still ended resident at its load: contents
        // were never lost, only time.
        assert_eq!(k.stats().faults, 20);
        assert_eq!(k.stats().demand_loads, 20);
    }

    #[test]
    fn delayed_preloads_complete_late_but_complete() {
        let sched = ChaosSchedule::none()
            .with_seed(4)
            .with_delay(1.0, Cycles::new(1_000));
        let mut k = chaos_kernel(64, Box::new(NextLinePredictor::new(1)), sched);
        let _ = k.page_fault(Cycles::ZERO, PID, p(0)); // preload p1 at 115
                                                       // Undelayed the preload lands at 215; delayed it lands at 1215.
        assert!(k.app_access(Cycles::new(500), PID, p(1)).is_none());
        let r = k.page_fault(Cycles::new(500), PID, p(1));
        assert_eq!(r.kind, FaultServicing::WaitedForInflight);
        assert_eq!(k.chaos_stats().unwrap().preloads_delayed, 1);
        assert!(k.app_access(r.resume_at, PID, p(1)).is_some());
    }

    #[test]
    fn scan_stalls_slow_evictions_without_losing_pages() {
        let sched = ChaosSchedule::none()
            .with_seed(5)
            .with_scan_stall(1.0, Cycles::new(500));
        let mut k = chaos_kernel(4, Box::new(NoPredictor), sched);
        drive(&mut k, 32, 1, 16);
        let cs = *k.chaos_stats().unwrap();
        assert!(cs.scan_stalls > 0, "every eviction stalls");
        assert_eq!(cs.stall_cycles, cs.scan_stalls * 500);
        assert_eq!(k.epc().resident_count() + k.epc().free_slots(), 4);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn spurious_storms_flow_through_the_normal_enqueue_filter() {
        let sched = ChaosSchedule::none().with_seed(6).with_spurious(1.0, 8);
        let mut k = chaos_kernel(256, Box::new(NoPredictor), sched);
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 60, 11, 4096);
        let cs = *k.chaos_stats().unwrap();
        assert!(cs.spurious_pages > 0, "storms fired");
        // Storm pages become ordinary queued preloads: started or aborted
        // or skipped, all reconciling with the event stream.
        let c = counts.get();
        let s = k.stats();
        assert!(s.preloads_enqueued > 0, "storm pages entered the queue");
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.preload_aborts, s.preloads_aborted);
        assert_eq!(c.faults, s.faults);
        assert!(k.bitmap_consistent());
    }

    #[test]
    fn heavy_chaos_preserves_accounting_and_terminates() {
        let mut k = chaos_kernel(
            32,
            Box::new(NextLinePredictor::new(4)),
            ChaosSchedule::heavy(77).with_valve_flap(0.01),
        );
        let (sink, counts) = crate::CountingSink::new();
        k.subscribe(Box::new(sink));
        drive(&mut k, 500, 3, 128);
        let c = counts.get();
        let s = k.stats();
        assert_eq!(c.faults, s.faults);
        assert_eq!(c.faults_resolved, s.faults);
        assert_eq!(c.demand_loads, s.demand_loads);
        assert_eq!(c.preload_starts, s.preloads_started);
        assert_eq!(c.preload_aborts, s.preloads_aborted);
        assert_eq!(c.background_evictions, s.background_evictions);
        assert_eq!(c.foreground_evictions, s.foreground_evictions);
        assert_eq!(c.valve_stops, u64::from(s.dfp_stopped_at.is_some()));
        assert!(k.chaos_stats().unwrap().total_injections() > 0);
        assert!(k.bitmap_consistent());
    }
}

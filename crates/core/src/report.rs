//! Run reports: the measurements every figure is built from.

use std::fmt;

use sgx_kernel::{CycleAttribution, EventCounts};
use sgx_sim::{json, Cycles};

use crate::Scheme;

/// The outcome of one simulated run (one application under one scheme).
/// In a co-run, each kernel counter is this application's enclave's own
/// (threads share their enclave's) unless marked kernel-wide.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Human label (benchmark name or custom).
    pub label: String,
    /// The scheme that ran.
    pub scheme: Scheme,
    /// End-to-end simulated time.
    pub total_cycles: Cycles,
    /// Page-touch events executed.
    pub accesses: u64,
    /// Dynamic executions (events weighted by their `repeats`).
    pub executions: u64,
    /// Accesses that hit the EPC directly.
    pub epc_hits: u64,
    /// Enclave page faults this application raised.
    pub faults: u64,
    /// Faults resolved by waiting on an in-flight preload.
    pub faults_waited_inflight: u64,
    /// Faults that found the page already preloaded (race win).
    pub faults_found_resident: u64,
    /// SIP bitmap checks executed.
    pub sip_checks: u64,
    /// SIP notifications sent (absent page at an instrumented site).
    pub sip_notifies: u64,
    /// Instrumentation points active during the run (paper Table 2).
    pub instrumentation_points: usize,
    /// Preloads started on the channel.
    pub preloads_started: u64,
    /// Preloaded pages later touched (this enclave's slice of
    /// `AccPreloadCounter`).
    pub preloads_touched: u64,
    /// Preloaded pages evicted untouched — confirmed wasted work.
    pub preloads_wasted: u64,
    /// Queued preloads cancelled by the abort path.
    pub preloads_aborted: u64,
    /// Background (reclaimer) evictions.
    pub background_evictions: u64,
    /// Foreground (demand-path) evictions.
    pub foreground_evictions: u64,
    /// When the DFP-stop valve fired, if it did.
    pub dfp_stopped_at: Option<Cycles>,
    /// Load-channel utilization over the run (kernel-wide: every enclave
    /// shares the channel).
    pub channel_utilization: f64,
    /// Mean end-to-end fault service time.
    pub fault_service_mean: Cycles,
    /// Median fault service time (log2-bucket lower bound; zero when the
    /// run had no faults).
    pub fault_service_p50: Cycles,
    /// 90th-percentile fault service time (bucket lower bound).
    pub fault_service_p90: Cycles,
    /// 99th-percentile fault service time (bucket lower bound).
    pub fault_service_p99: Cycles,
    /// Mean preload-completion-to-first-touch lead time (zero when no
    /// preload was ever touched).
    pub preload_lead_mean: Cycles,
    /// Median preload lead time (bucket lower bound).
    pub preload_lead_p50: Cycles,
    /// 90th-percentile preload lead time (bucket lower bound).
    pub preload_lead_p90: Cycles,
    /// 99th-percentile preload lead time (bucket lower bound).
    pub preload_lead_p99: Cycles,
    /// Cycles this application's demand faults spent waiting for the load
    /// channel (another requester's in-flight job) — the fairness signal
    /// of the multi-tenant scheduler.
    pub channel_wait_cycles: Cycles,
    /// Preload pages shed by tenant admission control (zero without a
    /// tenant policy).
    pub preloads_shed: u64,
    /// Median EPC residency (pages) sampled at this application's faults.
    pub residency_p50: u64,
    /// 99th-percentile EPC residency (pages) at this application's faults.
    pub residency_p99: u64,
    /// Per-subsystem cycle attribution: the run's `total_cycles` split into
    /// named buckets (`sum(buckets) == total_cycles`).
    pub attribution: CycleAttribution,
    /// Per-kind paging-event tallies: on a single-enclave run, exactly
    /// what a `CountingSink` counts. Not written by
    /// [`RunReport::write_json`] (campaign cells serialize them).
    pub events: EventCounts,
}

impl RunReport {
    /// Execution time normalized to a baseline run (the y-axis of
    /// Figs. 7–13): `< 1.0` is faster than baseline.
    ///
    /// # Panics
    ///
    /// Panics if the baseline took zero cycles.
    pub fn normalized_time(&self, baseline: &RunReport) -> f64 {
        assert!(
            baseline.total_cycles > Cycles::ZERO,
            "baseline must have run"
        );
        self.total_cycles.raw() as f64 / baseline.total_cycles.raw() as f64
    }

    /// Performance improvement over a baseline, as a fraction: `0.114`
    /// means 11.4% faster; negative values are regressions.
    pub fn improvement_over(&self, baseline: &RunReport) -> f64 {
        1.0 - self.normalized_time(baseline)
    }

    /// Fault-rate per 1,000 accesses.
    pub fn faults_per_kilo_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.faults as f64 * 1_000.0 / self.accesses as f64
        }
    }

    /// Share of completed preloads that were eventually used.
    pub fn preload_accuracy(&self) -> f64 {
        let denom = self.preloads_touched + self.preloads_wasted;
        if denom == 0 {
            0.0
        } else {
            self.preloads_touched as f64 / denom as f64
        }
    }

    /// Appends this report as a JSON object. Every field is deterministic
    /// for a fixed configuration and seed, so serial and parallel campaign
    /// runs emit byte-identical output.
    pub fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            o.field("label", &self.label)
                .field("scheme", self.scheme.name())
                .field("total_cycles", self.total_cycles)
                .field("accesses", self.accesses)
                .field("executions", self.executions)
                .field("epc_hits", self.epc_hits)
                .field("faults", self.faults)
                .field("faults_waited_inflight", self.faults_waited_inflight)
                .field("faults_found_resident", self.faults_found_resident)
                .field("sip_checks", self.sip_checks)
                .field("sip_notifies", self.sip_notifies)
                .field("instrumentation_points", self.instrumentation_points)
                .field("preloads_started", self.preloads_started)
                .field("preloads_touched", self.preloads_touched)
                .field("preloads_wasted", self.preloads_wasted)
                .field("preloads_aborted", self.preloads_aborted)
                .field("background_evictions", self.background_evictions)
                .field("foreground_evictions", self.foreground_evictions)
                .field("dfp_stopped_at", self.dfp_stopped_at)
                .field("channel_utilization", self.channel_utilization)
                .field("fault_service_mean", self.fault_service_mean)
                .field("fault_service_p50", self.fault_service_p50)
                .field("fault_service_p90", self.fault_service_p90)
                .field("fault_service_p99", self.fault_service_p99)
                .field("preload_lead_mean", self.preload_lead_mean)
                .field("preload_lead_p50", self.preload_lead_p50)
                .field("preload_lead_p90", self.preload_lead_p90)
                .field("preload_lead_p99", self.preload_lead_p99)
                .field("channel_wait_cycles", self.channel_wait_cycles)
                .field("preloads_shed", self.preloads_shed)
                .field("residency_p50", self.residency_p50)
                .field("residency_p99", self.residency_p99)
                .with("attribution", |out| self.attribution.write_json(out))
                .field("preload_accuracy", self.preload_accuracy())
                .field("faults_per_kilo_access", self.faults_per_kilo_access());
        });
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} [{}]: {} cycles over {} accesses",
            self.label, self.scheme, self.total_cycles, self.accesses
        )?;
        writeln!(
            f,
            "  faults={} (inflight-wait={}, raced={}), hits={}, mean fault={}",
            self.faults,
            self.faults_waited_inflight,
            self.faults_found_resident,
            self.epc_hits,
            self.fault_service_mean
        )?;
        writeln!(
            f,
            "  fault cycles p50/p90/p99={}/{}/{}; preload lead mean={} p50/p90/p99={}/{}/{}",
            self.fault_service_p50,
            self.fault_service_p90,
            self.fault_service_p99,
            self.preload_lead_mean,
            self.preload_lead_p50,
            self.preload_lead_p90,
            self.preload_lead_p99
        )?;
        writeln!(
            f,
            "  preloads: started={} touched={} wasted={} aborted={} accuracy={:.1}%",
            self.preloads_started,
            self.preloads_touched,
            self.preloads_wasted,
            self.preloads_aborted,
            self.preload_accuracy() * 100.0
        )?;
        writeln!(
            f,
            "  sip: points={} checks={} notifies={}; channel util={:.1}%{}",
            self.instrumentation_points,
            self.sip_checks,
            self.sip_notifies,
            self.channel_utilization * 100.0,
            match self.dfp_stopped_at {
                Some(t) => format!("; DFP stopped at {t}"),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "  tenancy: channel wait={} shed={} residency p50/p99={}/{}",
            self.channel_wait_cycles, self.preloads_shed, self.residency_p50, self.residency_p99
        )?;
        write!(f, "  cycles: {}", self.attribution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> RunReport {
        RunReport {
            label: "t".into(),
            total_cycles: Cycles::new(cycles),
            accesses: 100,
            executions: 100,
            epc_hits: 50,
            faults: 50,
            preloads_started: 10,
            preloads_touched: 8,
            preloads_wasted: 2,
            preloads_aborted: 1,
            channel_utilization: 0.5,
            fault_service_mean: Cycles::new(64_000),
            fault_service_p50: Cycles::new(32_768),
            fault_service_p90: Cycles::new(65_536),
            fault_service_p99: Cycles::new(65_536),
            preload_lead_mean: Cycles::new(1_200),
            preload_lead_p50: Cycles::new(1_024),
            preload_lead_p90: Cycles::new(2_048),
            preload_lead_p99: Cycles::new(2_048),
            channel_wait_cycles: Cycles::new(7_000),
            preloads_shed: 3,
            residency_p50: 40,
            residency_p99: 60,
            attribution: CycleAttribution {
                app_compute: cycles.saturating_sub(200),
                demand_fault: 100,
                aex_eresume: 100,
                ..CycleAttribution::default()
            },
            ..RunReport::default()
        }
    }

    #[test]
    fn improvement_math() {
        let base = report(1_000);
        let better = report(900);
        let worse = report(1_100);
        assert!((better.improvement_over(&base) - 0.1).abs() < 1e-12);
        assert!((worse.improvement_over(&base) + 0.1).abs() < 1e-12);
        assert!((better.normalized_time(&base) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn accuracy_and_rates() {
        let r = report(1_000);
        assert!((r.preload_accuracy() - 0.8).abs() < 1e-12);
        assert!((r.faults_per_kilo_access() - 500.0).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = report(123_456).to_string();
        assert!(s.contains("123,456"));
        assert!(s.contains("accuracy=80.0%"));
    }

    #[test]
    #[should_panic(expected = "baseline must have run")]
    fn zero_baseline_panics() {
        let z = report(0);
        let r = report(10);
        let _ = r.normalized_time(&z);
    }

    /// An empty run (zero accesses, zero completed preloads) must report
    /// clean zeros, never NaN, from the rate helpers.
    #[test]
    fn empty_run_rates_are_zero_not_nan() {
        let mut r = report(0);
        r.accesses = 0;
        r.faults = 0;
        r.preloads_touched = 0;
        r.preloads_wasted = 0;
        assert_eq!(r.faults_per_kilo_access(), 0.0);
        assert_eq!(r.preload_accuracy(), 0.0);
        assert!(!r.faults_per_kilo_access().is_nan());
        assert!(!r.preload_accuracy().is_nan());
    }

    /// Wasted-only preloads give 0% accuracy, not a division artifact.
    #[test]
    fn all_wasted_preloads_give_zero_accuracy() {
        let mut r = report(10);
        r.preloads_touched = 0;
        r.preloads_wasted = 4;
        assert_eq!(r.preload_accuracy(), 0.0);
    }

    #[test]
    fn json_round_trips_key_fields() {
        let mut s = String::new();
        report(123_456).write_json(&mut s);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"label\":\"t\""));
        assert!(s.contains("\"scheme\":\"baseline\""));
        assert!(s.contains("\"total_cycles\":123456"));
        assert!(s.contains("\"dfp_stopped_at\":null"));
        assert!(s.contains("\"preload_accuracy\":0.8"));
        assert!(s.contains("\"channel_utilization\":0.5"));
    }

    #[test]
    fn json_escapes_labels() {
        let mut r = report(1);
        r.label = "we\"ird\\lbl\n".into();
        let mut s = String::new();
        r.write_json(&mut s);
        assert!(s.contains("\"label\":\"we\\\"ird\\\\lbl\\n\""));
    }

    #[test]
    fn json_carries_percentile_fields() {
        let mut s = String::new();
        report(9).write_json(&mut s);
        assert!(s.contains("\"fault_service_p50\":32768"));
        assert!(s.contains("\"fault_service_p99\":65536"));
        assert!(s.contains("\"preload_lead_mean\":1200"));
        assert!(s.contains("\"preload_lead_p90\":2048"));
    }

    #[test]
    fn json_carries_attribution_object() {
        let mut s = String::new();
        report(1_000).write_json(&mut s);
        assert!(s.contains("\"attribution\":{\"app_compute\":800,\"demand_fault\":100,"));
        assert!(s.contains("\"eviction\":0},\"preload_accuracy\":"));
        assert!(report(1_000).to_string().contains("cycles: compute"));
    }

    #[test]
    fn json_carries_tenant_fields() {
        let mut s = String::new();
        report(9).write_json(&mut s);
        assert!(s.contains("\"channel_wait_cycles\":7000"));
        assert!(s.contains("\"preloads_shed\":3"));
        assert!(s.contains("\"residency_p50\":40"));
        assert!(s.contains("\"residency_p99\":60"));
        assert!(report(9).to_string().contains("channel wait=7,000"));
    }

    #[test]
    fn event_counts_tally_and_serialize() {
        use sgx_kernel::EventKind;
        let mut e = crate::EventCounts::default();
        e.bump(EventKind::Fault);
        e.bump(EventKind::Fault);
        e.bump(EventKind::PreloadStart);
        e.bump(EventKind::PreloadDone);
        e.bump(EventKind::ValveStopped);
        assert_eq!(e.faults, 2);
        assert_eq!(e.preload_starts, 1);
        assert_eq!(e.total(), 5);
        let mut s = String::new();
        e.write_json(&mut s);
        assert!(s.contains("\"faults\":2"));
        assert!(s.contains("\"valve_stops\":1"));
    }
}

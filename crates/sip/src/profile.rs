//! PGO-style profiling and instrumentation-point selection (paper §3.2,
//! §4.4, §5.2).
//!
//! The paper's prototype runs the program on a *train* input, records the
//! page-level memory trace with source line numbers, classifies every
//! access (see [`crate::Classifier`]), and instruments the source lines
//! whose *irregular-access ratio* exceeds a threshold (5% at the paper's
//! sweet spot, Fig. 9). This module is that pipeline minus LLVM: the
//! "source line" is the workload's [`SiteId`], and the output is an
//! [`InstrumentationPlan`] the simulator consults at run time.

use std::collections::{BTreeMap, HashSet};

use sgx_workloads::{Access, SiteId};

use crate::{AccessClass, Classifier};

/// Per-site classification tallies from a profiling run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteProfile {
    /// Class-1 (likely-hit) events.
    pub class1: u64,
    /// Class-2 (stream-follower) events.
    pub class2: u64,
    /// Class-3 (irregular) events.
    pub class3: u64,
    /// Total dynamic executions (events weighted by `repeats`).
    pub executions: u64,
}

impl SiteProfile {
    /// Total page-touch events at this site.
    pub fn events(&self) -> u64 {
        self.class1 + self.class2 + self.class3
    }

    /// The paper's selection metric: share of irregular (Class-3) events.
    ///
    /// Events — not executions — are the unit here: the profiler sees the
    /// page-level trace, while the per-execution cost of an inserted check
    /// is paid at run time. This asymmetry is precisely what produces the
    /// paper's mcf wash (§5.2): a site can clear the event-ratio threshold
    /// yet re-execute its Class-1 hits so often that checks eat the gain.
    pub fn irregular_ratio(&self) -> f64 {
        let n = self.events();
        if n == 0 {
            0.0
        } else {
            self.class3 as f64 / n as f64
        }
    }
}

/// The classified result of one profiling run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    sites: BTreeMap<SiteId, SiteProfile>,
    total_events: u64,
}

impl Profile {
    /// Per-site tallies, ordered by site ID.
    pub fn sites(&self) -> impl Iterator<Item = (SiteId, &SiteProfile)> {
        self.sites.iter().map(|(&id, p)| (id, p))
    }

    /// The tally for one site, if it appeared in the trace.
    pub fn site(&self, id: SiteId) -> Option<&SiteProfile> {
        self.sites.get(&id)
    }

    /// Total events profiled.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Number of distinct sites observed.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Whole-program Class-3 share — the Table-1 "irregular access"
    /// characterization.
    pub fn irregular_share(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        let class3: u64 = self.sites.values().map(|s| s.class3).sum();
        class3 as f64 / self.total_events as f64
    }

    /// Whole-program Class-2 share — how much of the program DFP's stream
    /// detector can cover.
    pub fn stream_share(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        let class2: u64 = self.sites.values().map(|s| s.class2).sum();
        class2 as f64 / self.total_events as f64
    }
}

/// Runs the offline profiling pass over a (train-input) access stream.
///
/// `epc_proxy_pages` sizes the classifier's residency proxy; pass the EPC
/// capacity of the target configuration.
///
/// # Examples
///
/// ```
/// use sgx_sip::profile_stream;
/// use sgx_workloads::{Benchmark, InputSet, Scale};
///
/// let profile = profile_stream(
///     Benchmark::Deepsjeng.build(InputSet::Train, Scale::DEV, 1),
///     Scale::DEV.epc_pages() as usize,
/// );
/// assert!(profile.irregular_share() > 0.1);
/// ```
pub fn profile_stream(stream: impl Iterator<Item = Access>, epc_proxy_pages: usize) -> Profile {
    let mut classifier = Classifier::new(epc_proxy_pages);
    let mut profile = Profile::default();
    for access in stream {
        let class = classifier.classify(access.page);
        let entry = profile.sites.entry(access.site).or_default();
        match class {
            AccessClass::Class1 => entry.class1 += 1,
            AccessClass::Class2 => entry.class2 += 1,
            AccessClass::Class3 => entry.class3 += 1,
        }
        entry.executions += access.repeats as u64;
        profile.total_events += 1;
    }
    profile
}

/// SIP's instrumentation-selection policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SipConfig {
    /// Instrument sites whose irregular ratio exceeds this (paper: 5%).
    pub threshold: f64,
}

impl SipConfig {
    /// The paper's operating point: 5% threshold (Fig. 9).
    pub const fn paper_defaults() -> Self {
        SipConfig { threshold: 0.05 }
    }

    /// Overrides the irregular-ratio threshold.
    pub fn with_threshold(mut self, t: f64) -> Self {
        self.threshold = t;
        self
    }
}

impl Default for SipConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Lines of C in the paper's preloading-notification function (§5.5) — the
/// entire TCB growth of SIP besides the inserted call sites.
pub const NOTIFY_FUNCTION_LOC: u64 = 23;

/// The compiler's output: which sites carry a preloading notification.
#[derive(Debug, Clone, Default)]
pub struct InstrumentationPlan {
    sites: HashSet<SiteId>,
}

impl InstrumentationPlan {
    /// An empty plan (SIP disabled).
    pub fn none() -> Self {
        Self::default()
    }

    /// Selects instrumentation points from a profile under `cfg`: sites
    /// above the irregular-ratio threshold, except those whose traffic is
    /// predominantly Class 2 — "we can leave instructions in Class 2 to
    /// DFP" (§4.4).
    pub fn from_profile(profile: &Profile, cfg: SipConfig) -> Self {
        let mut sites = HashSet::new();
        for (id, s) in profile.sites() {
            if s.irregular_ratio() <= cfg.threshold {
                continue;
            }
            let n = s.events();
            if n > 0 && s.class2 * 2 > n {
                continue; // majority Class 2: DFP covers it
            }
            sites.insert(id);
        }
        InstrumentationPlan { sites }
    }

    /// Whether `site` carries a notification (checked on every execution).
    #[inline]
    pub fn is_instrumented(&self, site: SiteId) -> bool {
        self.sites.contains(&site)
    }

    /// Number of instrumentation points — the paper's Table 2.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when no site is instrumented.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The instrumented sites, ascending.
    pub fn sites(&self) -> Vec<SiteId> {
        let mut v: Vec<SiteId> = self.sites.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// TCB growth estimate: the fixed notification function plus roughly
    /// three source lines per inserted call site (address computation,
    /// bitmap check, conditional call — paper Fig. 5).
    pub fn tcb_loc_estimate(&self) -> u64 {
        if self.sites.is_empty() {
            0
        } else {
            NOTIFY_FUNCTION_LOC + 3 * self.sites.len() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_epc::VirtPage;
    use sgx_sim::Cycles;

    fn ev(page: u64, site: u32, repeats: u32) -> Access {
        Access::with_repeats(VirtPage::new(page), Cycles::ZERO, SiteId(site), repeats)
    }

    #[test]
    fn profile_counts_classes_per_site() {
        // Site 0: sequential (class 2 after seed); site 1: scattered.
        let mut trace = Vec::new();
        for n in 0..50u64 {
            trace.push(ev(1_000 + n, 0, 1));
            trace.push(ev((n + 1) * 100_000, 1, 4));
        }
        let p = profile_stream(trace.into_iter(), 1 << 16);
        let s0 = p.site(SiteId(0)).unwrap();
        let s1 = p.site(SiteId(1)).unwrap();
        assert!(s0.class2 >= 48, "sequential site: {s0:?}");
        assert_eq!(s1.class3, 50, "scattered site: {s1:?}");
        assert_eq!(s1.executions, 200);
        assert_eq!(p.total_events(), 100);
        assert_eq!(p.site_count(), 2);
        assert!(p.irregular_share() > 0.45 && p.irregular_share() < 0.55);
        assert!(p.stream_share() > 0.45);
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let p = profile_stream(std::iter::empty(), 16);
        assert_eq!(p.total_events(), 0);
        assert_eq!(p.irregular_share(), 0.0);
        assert_eq!(p.stream_share(), 0.0);
        let plan = InstrumentationPlan::from_profile(&p, SipConfig::paper_defaults());
        assert!(plan.is_empty());
        assert_eq!(plan.tcb_loc_estimate(), 0);
    }

    #[test]
    fn selection_honors_threshold() {
        // Site 0: 100% irregular. Site 1: ~3% irregular (below 5%).
        let mut trace = Vec::new();
        for n in 0..100u64 {
            trace.push(ev(n * 50_000 + 7, 0, 1));
            // Site 1 hammers one hot page, with 3 cold jumps.
            let page = if n % 33 == 5 { n * 91_000 + 13 } else { 3 };
            trace.push(ev(page, 1, 1));
        }
        let p = profile_stream(trace.into_iter(), 1 << 16);
        let plan = InstrumentationPlan::from_profile(&p, SipConfig::paper_defaults());
        assert!(plan.is_instrumented(SiteId(0)));
        assert!(!plan.is_instrumented(SiteId(1)));
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.sites(), vec![SiteId(0)]);

        // A 0% threshold instruments site 1 too.
        let eager =
            InstrumentationPlan::from_profile(&p, SipConfig::paper_defaults().with_threshold(0.0));
        assert!(eager.is_instrumented(SiteId(1)));
    }

    #[test]
    fn class2_dominant_sites_left_to_dfp() {
        // A site that is 60% sequential stream, 40% irregular.
        let mut trace = Vec::new();
        let mut seq = 0u64;
        for n in 0..200u64 {
            let page = if n % 5 < 3 {
                seq += 1;
                seq
            } else {
                n * 77_000 + 11
            };
            trace.push(ev(page, 0, 1));
        }
        let p = profile_stream(trace.into_iter(), 1 << 16);
        let s = p.site(SiteId(0)).unwrap();
        assert!(s.class2 * 2 > s.events(), "setup: class2 dominant {s:?}");
        assert!(s.irregular_ratio() > 0.05, "setup: above threshold");

        let plan = InstrumentationPlan::from_profile(&p, SipConfig::paper_defaults());
        assert!(!plan.is_instrumented(SiteId(0)), "ceded to DFP");
    }

    #[test]
    fn tcb_estimate_scales_with_points() {
        let mut plan = InstrumentationPlan::none();
        plan.sites.insert(SiteId(1));
        plan.sites.insert(SiteId(2));
        assert_eq!(plan.tcb_loc_estimate(), NOTIFY_FUNCTION_LOC + 6);
    }

    #[test]
    fn irregular_ratio_handles_empty_site() {
        let s = SiteProfile::default();
        assert_eq!(s.irregular_ratio(), 0.0);
        assert_eq!(s.events(), 0);
    }
}

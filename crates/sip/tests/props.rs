//! Property tests for the SIP profiling pipeline, including a check of
//! the classifier, profiler and plan against the plain models below.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;

use sgx_dfp::{StreamConfig, StreamList};
use sgx_epc::VirtPage;
use sgx_sim::{Cycles, DetRng};
use sgx_sip::{
    profile_stream, AccessClass, Classifier, InstrumentationPlan, LruSet, SipConfig, SiteProfile,
    NOTIFY_FUNCTION_LOC,
};
use sgx_workloads::{Access, SiteId};

fn accesses(raw: &[(u64, u32, u32)]) -> Vec<Access> {
    raw.iter()
        .map(|&(page, site, repeats)| {
            Access::with_repeats(
                VirtPage::new(page),
                Cycles::ZERO,
                SiteId(site),
                repeats.max(1),
            )
        })
        .collect()
}

proptest! {
    /// Per-site class tallies always sum to the site's events, and the
    /// profile total equals the stream length.
    #[test]
    fn profile_conserves_events(
        raw in proptest::collection::vec((0u64..5_000, 0u32..16, 1u32..64), 1..400),
        proxy in 1usize..4_096,
    ) {
        let trace = accesses(&raw);
        let profile = profile_stream(trace.iter().copied(), proxy);
        prop_assert_eq!(profile.total_events(), raw.len() as u64);
        let mut events = 0;
        let mut executions = 0;
        for (_, s) in profile.sites() {
            prop_assert_eq!(s.class1 + s.class2 + s.class3, s.events());
            prop_assert!(s.irregular_ratio() >= 0.0 && s.irregular_ratio() <= 1.0);
            events += s.events();
            executions += s.executions;
        }
        prop_assert_eq!(events, raw.len() as u64);
        prop_assert_eq!(
            executions,
            trace.iter().map(|a| a.repeats as u64).sum::<u64>()
        );
    }

    /// Instrumentation selection shrinks monotonically with the threshold
    /// and never selects a site absent from the profile.
    #[test]
    fn selection_is_threshold_monotone(
        raw in proptest::collection::vec((0u64..5_000, 0u32..16, 1u32..4), 1..300),
        t_lo in 0.0f64..0.5,
        t_gap in 0.0f64..0.5,
    ) {
        let profile = profile_stream(accesses(&raw).into_iter(), 512);
        let lo = InstrumentationPlan::from_profile(
            &profile,
            SipConfig::paper_defaults().with_threshold(t_lo),
        );
        let hi = InstrumentationPlan::from_profile(
            &profile,
            SipConfig::paper_defaults().with_threshold(t_lo + t_gap),
        );
        prop_assert!(hi.len() <= lo.len());
        for site in hi.sites() {
            prop_assert!(lo.is_instrumented(site), "higher threshold added a site");
            prop_assert!(profile.site(site).is_some());
        }
    }

    /// The classifier agrees with first principles on two extremes: a
    /// page touched twice in a row is Class 1; a first-touch page far
    /// from all history is Class 3.
    #[test]
    fn classifier_extremes(pages in proptest::collection::vec(0u64..1u64 << 30, 1..100)) {
        let mut c = Classifier::new(1 << 20);
        for &p in &pages {
            let _ = c.classify(VirtPage::new(p));
            prop_assert_eq!(c.classify(VirtPage::new(p)), AccessClass::Class1);
        }
    }

    /// The classifier, the profile and the plan give exactly what the
    /// plain models below give: every class, every profile field and
    /// share, and every plan query, for present and absent sites.
    #[test]
    fn profiler_matches_the_reference_model(
        seed in any::<u64>(),
        cap in 1usize..=512,
        threshold in prop_oneof![Just(0.0f64), Just(1.0f64), 0.0f64..1.0],
    ) {
        let trace = storm_trace(seed, cap);
        let mut lru = LruSet::new(cap);
        let mut reference = RefClassifier::new(cap);
        let mut classifier = Classifier::new(cap);
        for (i, a) in trace.iter().enumerate() {
            let held = reference.recent.contains(a.page.raw());
            prop_assert_eq!(lru.contains(a.page), held, "access {} cap {}", i, cap);
            let class = reference.classify(a.page);
            prop_assert_eq!(classifier.classify(a.page), class, "access {} cap {}", i, cap);
            lru.touch(a.page);
            prop_assert_eq!(lru.len(), reference.recent.len(), "access {} cap {}", i, cap);
            prop_assert_eq!(classifier.resident_estimate(), reference.recent.len());
        }
        prop_assert!(reference.recent.compactions > 0, "the storm compacts the queue");

        let profile = profile_stream(trace.iter().copied(), cap);
        let want = ref_profile(&trace, cap);
        let got: Vec<(SiteId, SiteProfile)> = profile.sites().map(|(id, s)| (id, *s)).collect();
        let want_sites: Vec<(SiteId, SiteProfile)> = want.sites.iter().map(|(&id, &s)| (id, s)).collect();
        prop_assert_eq!(&got, &want_sites);
        prop_assert_eq!(profile.total_events(), want.total_events);
        prop_assert_eq!(profile.site_count(), want.sites.len());
        prop_assert_eq!(profile.irregular_share().to_bits(), want.irregular_share().to_bits());
        prop_assert_eq!(profile.stream_share().to_bits(), want.stream_share().to_bits());

        let cfg = SipConfig::paper_defaults().with_threshold(threshold);
        let plan = InstrumentationPlan::from_profile(&profile, cfg);
        let want_plan = ref_plan(&want, cfg);
        prop_assert_eq!(plan.sites(), want_plan.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(plan.len(), want_plan.len());
        prop_assert_eq!(plan.is_empty(), want_plan.is_empty());
        let tcb = if want_plan.is_empty() { 0 } else { NOTIFY_FUNCTION_LOC + 3 * want_plan.len() as u64 };
        prop_assert_eq!(plan.tcb_loc_estimate(), tcb);
        // Every site of the trace, its neighbours and the extremes: present
        // and absent ids alike.
        let mut probes: BTreeSet<u32> = [0, 1, u32::MAX - 1, u32::MAX].into();
        for &id in want.sites.keys() {
            probes.extend([id.0.wrapping_sub(1), id.0, id.0.wrapping_add(1)]);
        }
        for id in probes {
            let site = SiteId(id);
            prop_assert_eq!(plan.is_instrumented(site), want_plan.contains(&site), "site {}", id);
            prop_assert_eq!(profile.site(site).copied(), want.sites.get(&site).copied(), "site {}", id);
        }
    }
}

/// The residency proxy as a plain model: the same stamps and lazy
/// deletion as `LruSet`, over a `BTreeMap`.
struct RefLru {
    cap: usize,
    stamp: u64,
    live: BTreeMap<u64, u64>,
    order: VecDeque<(u64, u64)>,
    /// Times the queue was compacted; the inputs must reach it.
    compactions: u64,
}

impl RefLru {
    fn new(cap: usize) -> Self {
        RefLru {
            cap,
            stamp: 0,
            live: BTreeMap::new(),
            order: VecDeque::new(),
            compactions: 0,
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.live.contains_key(&page)
    }

    fn len(&self) -> usize {
        self.live.len()
    }

    fn touch(&mut self, page: u64) {
        self.stamp += 1;
        self.live.insert(page, self.stamp);
        self.order.push_back((page, self.stamp));
        while self.live.len() > self.cap {
            let (p, s) = self.order.pop_front().expect("live non-empty => queued");
            if self.live.get(&p) == Some(&s) {
                self.live.remove(&p);
            }
        }
        if self.order.len() > self.cap * 4 {
            let live = &self.live;
            self.order.retain(|(p, s)| live.get(p) == Some(s));
            self.compactions += 1;
        }
    }
}

/// The classifier as a plain model: the LRU proxy first, then Algorithm
/// 1's allocating `on_fault` for a page the proxy does not hold.
struct RefClassifier {
    recent: RefLru,
    streams: StreamList,
}

impl RefClassifier {
    fn new(cap: usize) -> Self {
        RefClassifier {
            recent: RefLru::new(cap),
            streams: StreamList::new(StreamConfig::paper_defaults()),
        }
    }

    fn classify(&mut self, page: VirtPage) -> AccessClass {
        let class = if self.recent.contains(page.raw()) {
            AccessClass::Class1
        } else if self.streams.on_fault(page).is_empty() {
            AccessClass::Class3
        } else {
            AccessClass::Class2
        };
        self.recent.touch(page.raw());
        class
    }
}

/// A profile as a plain model: per-site tallies in a `BTreeMap`.
struct RefProfile {
    sites: BTreeMap<SiteId, SiteProfile>,
    total_events: u64,
}

impl RefProfile {
    fn irregular_share(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        let class3: u64 = self.sites.values().map(|s| s.class3).sum();
        class3 as f64 / self.total_events as f64
    }

    fn stream_share(&self) -> f64 {
        if self.total_events == 0 {
            return 0.0;
        }
        let class2: u64 = self.sites.values().map(|s| s.class2).sum();
        class2 as f64 / self.total_events as f64
    }
}

fn ref_profile(trace: &[Access], cap: usize) -> RefProfile {
    let mut classifier = RefClassifier::new(cap);
    let mut profile = RefProfile {
        sites: BTreeMap::new(),
        total_events: 0,
    };
    for a in trace {
        let entry = profile.sites.entry(a.site).or_default();
        match classifier.classify(a.page) {
            AccessClass::Class1 => entry.class1 += 1,
            AccessClass::Class2 => entry.class2 += 1,
            AccessClass::Class3 => entry.class3 += 1,
        }
        entry.executions += a.repeats as u64;
        profile.total_events += 1;
    }
    profile
}

/// The plan as a plain model: §4.4's selection into a `BTreeSet`.
fn ref_plan(profile: &RefProfile, cfg: SipConfig) -> BTreeSet<SiteId> {
    let mut sites = BTreeSet::new();
    for (&id, s) in &profile.sites {
        let n = s.class1 + s.class2 + s.class3;
        let ratio = if n == 0 {
            0.0
        } else {
            s.class3 as f64 / n as f64
        };
        if ratio <= cfg.threshold || (n > 0 && s.class2 * 2 > n) {
            continue;
        }
        sites.insert(id);
    }
    sites
}

/// A trace of a few to some thousands of accesses that reaches every path
/// of the proxy: re-touch storms over at most `cap` pages, long enough to
/// compact the queue (the first segment is one); churn over half again as
/// many pages as `cap`, whose evictions meet stale entries of re-touched
/// pages that come back (the second segment is one); forward and backward
/// sequential runs; scattered pages; and sites drawn from a few sparse ids
/// up to `u32::MAX`.
fn storm_trace(seed: u64, cap: usize) -> Vec<Access> {
    let mut rng = DetRng::seed_from(seed);
    let mut sites: Vec<u32> = vec![0, u32::MAX];
    for _ in 0..rng.uniform(6) + 1 {
        sites.push(rng.uniform(u64::from(u32::MAX) + 1) as u32);
    }
    let mut trace = Vec::new();
    let mut push = |rng: &mut DetRng, page: u64| {
        let site = sites[rng.uniform(sites.len() as u64) as usize];
        let repeats = rng.uniform(8) as u32 + 1;
        trace.push(Access::with_repeats(
            VirtPage::new(page),
            Cycles::ZERO,
            SiteId(site),
            repeats,
        ));
    };
    for segment in 0..rng.uniform(6) + 3 {
        match if segment < 2 { segment } else { rng.uniform(4) } {
            0 => {
                // A storm: more than 4 x cap touches of at most cap pages.
                let base = rng.uniform(1 << 20);
                let pages = rng.uniform(cap.min(8) as u64) + 1;
                for i in 0..4 * cap as u64 + 1 + rng.uniform(64) {
                    push(&mut rng, base + i % pages);
                }
            }
            1 => {
                let base = rng.uniform(1 << 20);
                let pages = cap as u64 + cap as u64 / 2 + 1;
                for _ in 0..rng.uniform(4 * cap as u64) + 2 * cap as u64 {
                    let page = base + rng.uniform(pages);
                    push(&mut rng, page);
                }
            }
            2 => {
                let base = rng.uniform(1 << 20) + 64;
                let forward = rng.chance(0.5);
                for i in 0..rng.uniform(64) + 1 {
                    push(&mut rng, if forward { base + i } else { base - i });
                }
            }
            _ => {
                for _ in 0..rng.uniform(256) + 1 {
                    let page = rng.uniform(1 << 24);
                    push(&mut rng, page);
                }
            }
        }
    }
    trace
}

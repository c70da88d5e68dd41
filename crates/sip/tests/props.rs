//! Property tests for the SIP profiling pipeline.

use proptest::prelude::*;

use sgx_epc::VirtPage;
use sgx_sim::Cycles;
use sgx_sip::{profile_stream, AccessClass, Classifier, InstrumentationPlan, SipConfig};
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
}

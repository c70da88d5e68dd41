//! The leakage report: what the untrusted OS learned from a secret pair.

use sgx_sim::json;
use sgx_workloads::SecretBit;

use crate::metrics::{
    bigram_conditional_entropy, normalized_edit_distance, shannon_entropy, symmetrized_kl,
    transition_histogram, windowed_entropy,
};
use crate::sink::Observation;

/// Default window (in faults) for the windowed-entropy summary.
pub const DEFAULT_WINDOW: usize = 64;

/// Leakage summary of one secret-labelled run.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantLeakage {
    /// The secret bit this run was labelled with.
    pub secret: SecretBit,
    /// Faults the OS observed.
    pub faults: u64,
    /// Total OS-visible events observed.
    pub observed_events: u64,
    /// Enclave-private events the observer filter suppressed.
    pub private_suppressed: u64,
    /// Shannon entropy (bits) of the fault-page distribution.
    pub fault_entropy: f64,
    /// Mean per-window fault entropy (bits).
    pub window_entropy_mean: f64,
    /// Max per-window fault entropy (bits).
    pub window_entropy_max: f64,
    /// Bigram conditional entropy H(next | prev) of the fault trace.
    pub transition_entropy: f64,
    /// Shannon entropy (bits) of the load-channel page distribution.
    pub channel_entropy: f64,
    /// Per-enclave fault entropies, in enclave registration order.
    pub enclaves: Vec<(String, f64)>,
}

impl VariantLeakage {
    /// Summarizes one observation.
    pub fn from_observation(secret: SecretBit, obs: &Observation, window: usize) -> Self {
        let w = windowed_entropy(&obs.fault_pages, window);
        VariantLeakage {
            secret,
            faults: obs.counts.faults,
            observed_events: obs.observed_events(),
            private_suppressed: obs.private_suppressed,
            fault_entropy: shannon_entropy(&obs.fault_pages),
            window_entropy_mean: w.mean,
            window_entropy_max: w.max,
            transition_entropy: bigram_conditional_entropy(&obs.fault_pages),
            channel_entropy: shannon_entropy(&obs.channel_pages),
            enclaves: obs
                .enclave_faults()
                .map(|(label, seq)| (label.to_string(), shannon_entropy(seq)))
                .collect(),
        }
    }

    fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            o.field("secret", self.secret.name())
                .field("faults", self.faults)
                .field("observed_events", self.observed_events)
                .field("private_suppressed", self.private_suppressed)
                .field("fault_entropy", self.fault_entropy)
                .field("window_entropy_mean", self.window_entropy_mean)
                .field("window_entropy_max", self.window_entropy_max)
                .field("transition_entropy", self.transition_entropy)
                .field("channel_entropy", self.channel_entropy)
                .arr("enclaves", &self.enclaves, |(label, h), out| {
                    json::obj(out, |e| {
                        e.field("label", label).field("fault_entropy", *h);
                    });
                });
        });
    }
}

/// What the untrusted OS learned from watching both variants of one
/// secret pair under one scheme: per-variant entropies plus the pairwise
/// distinguishability scores on the fault and load channels.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// The secret pair's name (or the ORAM reference row's label).
    pub pair: String,
    /// Window size (faults) of the windowed-entropy summary.
    pub window: u64,
    /// Whether this row ran the ORAM-style padded reference pattern
    /// instead of the pair's real secret-dependent variants.
    pub oram: bool,
    /// The two variant summaries, A then B.
    pub variants: [VariantLeakage; 2],
    /// Normalized edit distance between the variants' fault sequences.
    pub fault_edit_distance: f64,
    /// Symmetrized KL over fault-transition histograms (bits).
    pub fault_kl: f64,
    /// Normalized edit distance between the variants' load-channel
    /// sequences.
    pub channel_edit_distance: f64,
    /// Symmetrized KL over load-channel transition histograms (bits).
    pub channel_kl: f64,
}

impl LeakageReport {
    /// Compares the two secret-labelled observations of one pair.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0` (the windowed entropy is meaningless).
    pub fn from_observations(
        pair: impl Into<String>,
        window: usize,
        oram: bool,
        a: &Observation,
        b: &Observation,
    ) -> Self {
        LeakageReport {
            pair: pair.into(),
            window: window as u64,
            oram,
            variants: [
                VariantLeakage::from_observation(SecretBit::A, a, window),
                VariantLeakage::from_observation(SecretBit::B, b, window),
            ],
            fault_edit_distance: normalized_edit_distance(&a.fault_pages, &b.fault_pages),
            fault_kl: symmetrized_kl(
                &transition_histogram(&a.fault_pages),
                &transition_histogram(&b.fault_pages),
            ),
            channel_edit_distance: normalized_edit_distance(&a.channel_pages, &b.channel_pages),
            channel_kl: symmetrized_kl(
                &transition_histogram(&a.channel_pages),
                &transition_histogram(&b.channel_pages),
            ),
        }
    }

    /// Distinguishability on the page-fault channel alone, in `[0, 1]`:
    /// the worse of the normalized edit distance and the KL divergence
    /// (mapped through x/(1+x) to bound it). This is the canonical
    /// controlled-channel score — the one SIP's blocking loads close.
    pub fn fault_distinguishability(&self) -> f64 {
        self.fault_edit_distance
            .max(self.fault_kl / (1.0 + self.fault_kl))
    }

    /// Distinguishability on the load channel alone, in `[0, 1]`. Stays
    /// high even when faults are masked if the pages the OS *serves*
    /// (demand loads, preloads, SIP loads, evictions) still name the
    /// secret.
    pub fn channel_distinguishability(&self) -> f64 {
        self.channel_edit_distance
            .max(self.channel_kl / (1.0 + self.channel_kl))
    }

    /// The combined distinguishability score in `[0, 1]`: the worse of
    /// the two per-channel scores. 0 means the OS cannot tell the
    /// secret bits apart on any channel; 1 means a single trace
    /// identifies the secret.
    pub fn distinguishability(&self) -> f64 {
        self.fault_distinguishability()
            .max(self.channel_distinguishability())
    }

    /// Appends the report as a JSON object. Deterministic: fixed key
    /// order, shortest round-trip floats, no maps (see [`sgx_sim::json`]).
    pub fn write_json(&self, out: &mut String) {
        json::obj(out, |o| {
            o.field("pair", &self.pair)
                .field("window", self.window)
                .field("oram", self.oram)
                .arr("variants", &self.variants, VariantLeakage::write_json)
                .field("fault_edit_distance", self.fault_edit_distance)
                .field("fault_kl", self.fault_kl)
                .field("channel_edit_distance", self.channel_edit_distance)
                .field("channel_kl", self.channel_kl)
                .field("distinguishability", self.distinguishability());
        });
    }

    /// The report as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(faults: &[u64], channel: &[u64]) -> Observation {
        let mut o = Observation::default();
        for &p in faults {
            o.fault_pages.push(p);
            o.counts.faults += 1;
        }
        for &p in channel {
            o.channel_pages.push(p);
            o.counts.demand_loads += 1;
        }
        o
    }

    #[test]
    fn identical_observations_are_indistinguishable() {
        let a = obs(&[1, 2, 3, 1, 2], &[1, 2, 3]);
        let r = LeakageReport::from_observations("p", 4, false, &a, &a.clone());
        assert_eq!(r.distinguishability(), 0.0);
        assert_eq!(r.fault_edit_distance, 0.0);
        assert_eq!(r.fault_kl, 0.0);
    }

    #[test]
    fn disjoint_fault_sets_max_out_edit_distance() {
        let a = obs(&[1, 2, 3, 4], &[]);
        let b = obs(&[11, 12, 13, 14], &[]);
        let r = LeakageReport::from_observations("p", 4, false, &a, &b);
        assert_eq!(r.fault_edit_distance, 1.0);
        assert!(r.distinguishability() >= 1.0 - 1e-12);
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let a = obs(&[1, 2, 3, 4], &[5, 6]);
        let b = obs(&[1, 2, 9, 4], &[5, 7]);
        let r = LeakageReport::from_observations("branch-halves", 2, false, &a, &b);
        let one = r.to_json();
        assert_eq!(one, r.to_json());
        for key in [
            "\"pair\":\"branch-halves\"",
            "\"window\":2",
            "\"oram\":false",
            "\"secret\":\"a\"",
            "\"secret\":\"b\"",
            "\"fault_entropy\"",
            "\"window_entropy_mean\"",
            "\"transition_entropy\"",
            "\"channel_entropy\"",
            "\"fault_edit_distance\"",
            "\"fault_kl\"",
            "\"channel_edit_distance\"",
            "\"channel_kl\"",
            "\"distinguishability\"",
            "\"enclaves\"",
        ] {
            assert!(one.contains(key), "missing {key} in {one}");
        }
    }

    #[test]
    fn labels_are_escaped_as_json() {
        let a = obs(&[1], &[]);
        let json = LeakageReport::from_observations("a\u{1}b", 4, false, &a, &a).to_json();
        assert!(json.contains("\"pair\":\"a\\u0001b\""), "{json}");
    }
}

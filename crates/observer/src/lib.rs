//! # sgx-observer — the untrusted-OS observer model
//!
//! The fault sequence an enclave exposes to the untrusted kernel is the
//! canonical SGX side channel ("Leaky Cauldron on the Dark Land"
//! taxonomises it; the pigeonhole defence paper prices the fixes — both in
//! PAPERS.md). Preloading *reshapes* that sequence: a prefetcher may mask
//! secret-dependent faults by loading pages before the enclave trips over
//! them, or amplify the channel by echoing its prediction of the access
//! pattern back to the OS as preload requests.
//!
//! This crate models the adversary. [`ObserverSink`] is a
//! [`TraceSink`](sgx_kernel::TraceSink) that subscribes to the kernel's
//! event stream and keeps **only what a real untrusted kernel sees** —
//! faults, channel loads, evictions, preload batch arrivals — never
//! enclave-private events (see [`is_os_visible`] for the exact contract).
//! On that filtered view, [`LeakageReport`] quantifies the channel:
//!
//! * fault-sequence Shannon entropy, global / per-enclave / windowed;
//! * bigram conditional entropy of the page-fault trace;
//! * pairwise distinguishability between two secret-labelled runs of the
//!   same program ([`SecretPair`](sgx_workloads::SecretPair)):
//!   normalized edit distance plus smoothed symmetrized KL divergence
//!   over page-transition histograms, on both the fault channel and the
//!   full load channel.
//!
//! [`OramModel`] supplies the known-private reference point: an
//! ORAM-style padded uniform access pattern that is secret-independent
//! by construction, so its pairwise distinguishability is exactly zero.
//!
//! # Examples
//!
//! ```
//! use sgx_kernel::{EventKind, LoggedEvent, SpanId, TraceSink};
//! use sgx_observer::{is_os_visible, ObserverSink};
//! use sgx_sim::Cycles;
//!
//! assert!(!is_os_visible(EventKind::PreloadHit)); // enclave-private
//! assert!(is_os_visible(EventKind::Fault));
//!
//! let (mut sink, obs) = ObserverSink::new();
//! sink.on_event(&LoggedEvent {
//!     at: Cycles::ZERO,
//!     what: EventKind::PreloadHit,
//!     page: None,
//!     value: None,
//!     span: SpanId::new(1),
//!     parent: None,
//! });
//! assert_eq!(obs.borrow().counts.preload_hits, 0); // never recorded
//! assert_eq!(obs.borrow().private_suppressed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod oram;
mod report;
mod sink;

pub use metrics::{
    bigram_conditional_entropy, normalized_edit_distance, shannon_entropy, symmetrized_kl,
    transition_histogram, windowed_entropy, WindowedEntropy, EDIT_DISTANCE_CAP,
};
pub use oram::OramModel;
pub use report::{LeakageReport, VariantLeakage, DEFAULT_WINDOW};
pub use sink::{is_os_visible, Observation, ObserverSink};

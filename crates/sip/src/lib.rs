//! # sgx-sip — Source-level Instrumentation-based Preloading
//!
//! The paper's second scheme (§3.2, §4.3–4.4): profile the program offline
//! on a train input, classify every memory access at page level, and insert
//! a *preloading notification* — a shared-bitmap check plus a blocking load
//! request — before the accesses that are likely to fault. A notified load
//! happens while the thread stays inside the enclave, eliminating the
//! AEX + ERESUME world switch.
//!
//! The paper's LLVM pass is replaced by its decision-equivalent: workloads
//! tag every access with a [`sgx_workloads::SiteId`] (the "source line"),
//! [`profile_stream`] classifies a train-input run, and
//! [`InstrumentationPlan::from_profile`] selects the sites to instrument
//! under the paper's irregular-ratio threshold (5%, Fig. 9). The simulator
//! in `sgx-preload-core` then consults the plan at run time.
//!
//! * [`Classifier`] / [`AccessClass`] — the Class 1/2/3 taxonomy of §4.4.
//! * [`profile_stream`] / [`Profile`] / [`SiteProfile`] — the PGO pass.
//! * [`SipConfig`] / [`InstrumentationPlan`] — selection and the Table-2
//!   instrumentation-point / TCB accounting.
//!
//! # Examples
//!
//! ```
//! use sgx_sip::{profile_stream, InstrumentationPlan, SipConfig};
//! use sgx_workloads::{Benchmark, InputSet, Scale};
//!
//! // Profile deepsjeng on its train input, then pick notification sites.
//! let profile = profile_stream(
//!     Benchmark::Deepsjeng.build(InputSet::Train, Scale::DEV, 1),
//!     Scale::DEV.epc_pages() as usize,
//! );
//! let plan = InstrumentationPlan::from_profile(&profile, SipConfig::paper_defaults());
//! assert!(!plan.is_empty(), "deepsjeng has irregular sites to instrument");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod classify;
mod placement;
mod profile;

pub use classify::{AccessClass, Classifier, LruSet};
pub use placement::NotifyPlacement;
pub use profile::{
    profile_stream, InstrumentationPlan, Profile, SipConfig, SiteProfile, NOTIFY_FUNCTION_LOC,
};

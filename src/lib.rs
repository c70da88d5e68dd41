//! # sgx-preloading — Regaining Lost Seconds, reproduced in Rust
//!
//! A full reproduction of *"Regaining Lost Seconds: Efficient Page
//! Preloading for SGX Enclaves"* (Middleware '20): the **DFP**
//! (dynamic fault-history-based) and **SIP** (source-level
//! instrumentation-based) page-preloading schemes, built over a
//! deterministic cycle-level simulation of the SGX EPC paging stack —
//! because the original requires SGX hardware, a patched Intel driver and
//! an LLVM pass, none of which travel well.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `sgx-sim` | cycles, RNG, stats, JSON writer |
//! | [`epc`] | `sgx-epc` | EPC residency, CLOCK bits, presence bitmap, cost model |
//! | [`kernel`] | `sgx-kernel` | fault handler, load channel, reclaimer, preload worker |
//! | [`dfp`] | `sgx-dfp` | Algorithm 1 multi-stream predictor, baselines, DFP-stop |
//! | [`sip`] | `sgx-sip` | profiler, Class 1/2/3 classifier, instrumentation plans |
//! | [`workloads`] | `sgx-workloads` | the 18 evaluated programs as page-level models |
//! | [`observer`] | `sgx-observer` | untrusted-OS observer, side-channel leakage metrics |
//! | [`core`] | `sgx-preload-core` | schemes, configs, the simulator, reports |
//!
//! The most common entry points are re-exported at the top level, and the
//! blessed public surface is collected in [`prelude`] — new code should
//! `use sgx_preloading::prelude::*;` and stay within it.
//!
//! # Examples
//!
//! ```
//! use sgx_preloading::{Benchmark, Scale, Scheme, SimConfig, SimRun};
//!
//! let cfg = SimConfig::at_scale(Scale::DEV);
//! let base = SimRun::new(&cfg).bench(Benchmark::Lbm).run_one()?;
//! let dfp = SimRun::new(&cfg)
//!     .scheme(Scheme::Dfp)
//!     .bench(Benchmark::Lbm)
//!     .run_one()?;
//! println!(
//!     "lbm: DFP removes {} of {} faults, {:+.1}%",
//!     base.faults - dfp.faults,
//!     base.faults,
//!     dfp.improvement_over(&base) * 100.0,
//! );
//! assert!(dfp.improvement_over(&base) > 0.0);
//! # Ok::<(), sgx_preloading::SimError>(())
//! ```
//!
//! See the `examples/` directory for runnable scenarios (quickstart, the
//! SPEC campaign, the SIFT/MSER image pipeline, a custom predictor, and
//! multi-enclave contention) and `crates/bench` for the per-figure
//! regeneration harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sgx_dfp as dfp;
pub use sgx_epc as epc;
pub use sgx_kernel as kernel;
pub use sgx_observer as observer;
pub use sgx_preload_core as core;
pub use sgx_sim as sim;
pub use sgx_sip as sip;
pub use sgx_workloads as workloads;

pub use sgx_dfp::{
    AbortPolicy, LeapPredictor, MarkovPredictor, MultiStreamPredictor, NextLinePredictor,
    NoPredictor, ParsePredictorKindError, Prediction, Predictor, PredictorKind, ProcessId,
    StreamConfig, StrideConfidentPredictor, StridePredictor,
};
pub use sgx_epc::{CostModel, EpcSizing, VictimPolicy, VirtPage};
pub use sgx_kernel::{
    render_chrome_trace, ChromeTraceSink, CollectingSink, CountingSink, CycleAttribution,
    EdmmStats, GaugeSample, HistogramSink, JsonlWriterSink, KernelError, SeriesFormat, SharedSink,
    SpanId, TimeSeriesSink, TraceHistograms, TraceSink,
};
pub use sgx_observer::{
    is_os_visible, LeakageReport, Observation, ObserverSink, OramModel, VariantLeakage,
};
pub use sgx_preload_core::{
    build_plan, effective_jobs, run_indexed, run_userspace_paging, AppSpec, AppSpecBuilder,
    Campaign, CampaignError, CampaignReport, Cell, CellError, CellReport, CellWork, ElrangeError,
    EventCounts, LeakageSpec, ProfileMemo, RunReport, Scheme, SimConfig, SimError, SimRun,
    SpecError, TenantPolicy, TenantQuota, TenantShare, TraceReplay, UserPagingConfig,
    DEFAULT_TIMELINE_SERIES_INTERVAL, MAX_TENANTS,
};
pub use sgx_sim::{Cycles, Histogram, HistogramSummary};
pub use sgx_sip::{profile_stream, InstrumentationPlan, NotifyPlacement, SipConfig};
pub use sgx_workloads::{
    Access, Benchmark, InputSet, RecordedTrace, Scale, SecretBit, SecretPair, SgxtReader,
    SgxtWriter, SiteId, TraceParseError,
};

/// The blessed public surface in one import: entry points ([`SimRun`],
/// [`Campaign`]), their configs, enums (parse through
/// `FromStr`), reports, errors, and the streaming sink traits. New code
/// should reach the simulator through this front door; anything outside
/// it is a substrate detail that may move between releases.
pub mod prelude {
    pub use sgx_kernel::{CountingSink, GaugeSample, JsonlWriterSink, TimeSeriesSink, TraceSink};
    pub use sgx_observer::{
        is_os_visible, LeakageReport, Observation, ObserverSink, OramModel, VariantLeakage,
    };
    pub use sgx_preload_core::{
        AppSpec, Campaign, CampaignError, CampaignReport, Cell, CellError, CellReport, CellWork,
        EpcSizing, LeakageSpec, PredictorKind, RunReport, Scheme, SimConfig, SimError, SimRun,
        SpecError, TenantPolicy, TraceReplay,
    };
    pub use sgx_sim::Cycles;
    pub use sgx_workloads::{
        Benchmark, InputSet, RecordedTrace, Scale, SecretBit, SecretPair, TraceParseError,
    };
}

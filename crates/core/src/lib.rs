//! # sgx-preload-core — the end-to-end simulator
//!
//! Ties the substrate together: workloads from `sgx-workloads` execute
//! against the `sgx-kernel`/`sgx-epc` paging model under one of the paper's
//! five experimental arms ([`Scheme`]) — baseline, DFP, DFP-stop, SIP, or
//! the SIP+DFP hybrid — or one of the rival schemes: the §6 user-level
//! comparator and the EDMM-style dynamic-EPC arms (`edmm`,
//! `edmm+dfp-stop`).
//!
//! * [`SimConfig`] — the paper's parameters (EPC size, costs, `LOADLENGTH`,
//!   `stream_list` length, SIP threshold, valve slack), scalable for tests.
//! * [`SimRun`] — the unified entry point: benchmarks, prepared apps
//!   (multi-enclave EPC contention included), and outside-the-enclave
//!   workloads over one kernel, with streaming [`sgx_kernel::TraceSink`]
//!   subscriptions.
//! * [`RunReport`] — cycles, faults, preload accuracy, latency percentiles,
//!   SIP counters; every figure is derived from these.
//!
//! # Examples
//!
//! Reproducing one bar of Fig. 8 (DFP on the microbenchmark) at dev scale:
//!
//! ```
//! use sgx_preload_core::{Scheme, SimConfig, SimRun};
//! use sgx_workloads::{Benchmark, Scale};
//!
//! let cfg = SimConfig::at_scale(Scale::DEV);
//! let base = SimRun::new(&cfg).bench(Benchmark::Microbenchmark).run_one()?;
//! let dfp = SimRun::new(&cfg)
//!     .scheme(Scheme::Dfp)
//!     .bench(Benchmark::Microbenchmark)
//!     .run_one()?;
//! println!("DFP improvement: {:.1}%", dfp.improvement_over(&base) * 100.0);
//! assert!(dfp.improvement_over(&base) > 0.0);
//! # Ok::<(), sgx_preload_core::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod config;
mod replay;
mod report;
mod scheme;
mod simrun;
mod simulator;
mod userspace;

pub use campaign::{
    effective_jobs, run_indexed, Campaign, CampaignError, CampaignReport, Cell, CellError,
    CellReport, CellWork, LeakageSpec, SeedMode, DEFAULT_TIMELINE_SERIES_INTERVAL, JOBS_ENV,
};
pub use config::SimConfig;
pub use replay::{ElrangeError, TraceReplay};
pub use report::RunReport;
pub use scheme::{ParseSchemeError, Scheme};
pub use sgx_dfp::{ParsePredictorKindError, PredictorKind};
pub use sgx_epc::{EpcSizing, TenantQuota};
pub use sgx_kernel::{
    render_chrome_trace, ChromeTraceSink, CycleAttribution, EventCounts, GaugeSample, SeriesFormat,
    SpanId, TenantPolicy, TenantShare, TimeSeriesSink, MAX_TENANTS,
};
pub use sgx_observer::{
    is_os_visible, LeakageReport, Observation, ObserverSink, OramModel, VariantLeakage,
};
pub use simrun::{SimError, SimRun};
pub use simulator::{build_plan, AppSpec, AppSpecBuilder, ProfileMemo, SpecError};
pub use userspace::{run_userspace_paging, UserPagingConfig};

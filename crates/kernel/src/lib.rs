//! # sgx-kernel — the untrusted operating system model
//!
//! The paper implements DFP inside the Linux kernel as part of Intel's SGX
//! driver (§4). This crate is that kernel's simulation counterpart:
//!
//! * [`Kernel`] — fault handling, the exclusive non-preemptible EPC load
//!   channel, the DFP predictor hook and preload worker, the queued-preload
//!   abort path, the DFP-stop safety valve, and SIP's shared presence
//!   bitmaps and blocking load requests.
//! * [`Watermarks`] — the background reclaimer's hysteresis (the driver's
//!   `ksgxswapd` analogue), which keeps free EPC pages available so a
//!   typical demand fault costs AEX + ELDU + ERESUME ≈ 64k cycles.
//! * [`PreloadQueue`] — the preload worker's abortable page queue.
//!
//! Timing is driven lazily by the application thread; see
//! [`Kernel`] for the model's rules.
//!
//! # Examples
//!
//! ```
//! use sgx_dfp::{MultiStreamPredictor, ProcessId, StreamConfig};
//! use sgx_epc::VirtPage;
//! use sgx_kernel::{Kernel, KernelConfig};
//! use sgx_sim::Cycles;
//!
//! let mut kernel = Kernel::new(
//!     KernelConfig::new(sgx_epc::usable_epc_pages()),
//!     Box::new(MultiStreamPredictor::new(StreamConfig::paper_defaults())),
//! );
//! let pid = ProcessId(0);
//! kernel.register_enclave(pid, 262_144)?; // a 1 GiB ELRANGE
//!
//! // Two sequential faults: the second extends a stream, and Algorithm 1
//! // begins preloading ahead of the application.
//! let r = kernel.page_fault(Cycles::ZERO, pid, VirtPage::new(0));
//! let _ = kernel.page_fault(r.resume_at, pid, VirtPage::new(1));
//! assert!(kernel.stats().preloads_enqueued > 0);
//! # Ok::<(), sgx_kernel::KernelError>(())
//! ```
//!
//! ## Observability
//!
//! Any number of [`TraceSink`]s can subscribe to a kernel and stream its
//! paging events — see [`CountingSink`], [`HistogramSink`],
//! [`CollectingSink`] and [`JsonlWriterSink`]:
//!
//! ```
//! use sgx_dfp::{NextLinePredictor, ProcessId};
//! use sgx_epc::VirtPage;
//! use sgx_kernel::{CountingSink, Kernel, KernelConfig};
//! use sgx_sim::Cycles;
//!
//! let mut kernel = Kernel::new(KernelConfig::new(64), Box::new(NextLinePredictor::new(4)));
//! let (sink, counts) = CountingSink::new();
//! kernel.subscribe(Box::new(sink));
//! let pid = ProcessId(0);
//! kernel.register_enclave(pid, 1024)?;
//! kernel.page_fault(Cycles::ZERO, pid, VirtPage::new(0));
//! assert_eq!(counts.get().faults, 1);
//! # Ok::<(), sgx_kernel::KernelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod queue;
pub mod span;
mod tenant;
mod timeline;
mod trace;
mod watermark;

pub use kernel::{
    EdmmStats, EventKind, FaultResolution, FaultServicing, Kernel, KernelConfig, KernelError,
    KernelStats, LoggedEvent,
};
pub use queue::PreloadQueue;
pub use span::SpanId;
pub use tenant::{TenantPolicy, TenantShare, MAX_TENANTS};
pub use timeline::{
    render_chrome_trace, ChromeTraceSink, CycleAttribution, GaugeSample, SeriesFormat,
    TimeSeriesSink,
};
pub use trace::{
    CollectingSink, CountingSink, EventCounts, HistogramSink, JsonlWriterSink, SharedSink,
    TraceHistograms, TraceSink,
};
pub use watermark::{WatermarkError, Watermarks};

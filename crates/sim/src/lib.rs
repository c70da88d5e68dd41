//! # sgx-sim — discrete-event simulation substrate
//!
//! The foundation layer of the *Regaining Lost Seconds* reproduction. The
//! paper measures real SGX hardware; this workspace replaces that hardware
//! with a deterministic cycle-level simulation, and this crate provides the
//! simulation primitives every other crate builds on:
//!
//! * [`Cycles`] — simulated time (durations and instants) as a newtype.
//! * [`DetRng`] — seeded randomness with the distributions the synthetic
//!   workloads need (uniform, geometric, Zipf).
//! * [`Histogram`] — the latency distributions surfaced in reports.
//! * [`FastMap`] / [`FastSet`] — open-addressing `u64` tables for the hot
//!   paths.
//! * [`json`] — the deterministic JSON writer every report serializes with.
//! * [`varint`] — LEB128 varints and zigzag deltas for compact streams.
//!
//! # Examples
//!
//! Timing a demand fault and recording it:
//!
//! ```
//! use sgx_sim::{Cycles, Histogram};
//!
//! // AEX + ELDU + ERESUME with the paper's costs.
//! let fault = Cycles::new(10_000) + Cycles::new(44_000) + Cycles::new(10_000);
//! let mut service = Histogram::new("fault_service");
//! service.record(fault);
//! assert_eq!(service.count(), 1);
//! assert_eq!(service.max(), Some(Cycles::new(64_000)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycles;
mod fastmap;
pub mod json;
mod rng;
mod stats;
pub mod varint;

pub use cycles::Cycles;
pub use fastmap::{FastMap, FastSet};
pub use rng::{mix, DetRng};
pub use stats::{Histogram, HistogramSummary};

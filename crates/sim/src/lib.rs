//! # sgx-sim — discrete-event simulation substrate
//!
//! The foundation layer of the *Regaining Lost Seconds* reproduction. The
//! paper measures real SGX hardware; this workspace replaces that hardware
//! with a deterministic cycle-level simulation, and this crate provides the
//! simulation primitives every other crate builds on:
//!
//! * [`Cycles`] — simulated time (durations and instants) as a newtype.
//! * [`EventQueue`] — a min-ordered event queue with FIFO tie-breaking.
//! * [`Resource`] — an exclusive, non-preemptible serial server, used to
//!   model the EPC load channel ("one page at a time", paper §3.1).
//! * [`DetRng`] — seeded randomness with the distributions the synthetic
//!   workloads need (uniform, geometric, Zipf).
//! * [`Histogram`] — the latency distributions surfaced in reports.
//! * [`json`] — the deterministic JSON writer every report serializes with.
//!
//! # Examples
//!
//! Modeling two page loads contending for the load channel:
//!
//! ```
//! use sgx_sim::{Cycles, Resource};
//!
//! let eldu = Cycles::new(44_000);
//! let mut channel = Resource::new("load-channel");
//! let first = channel.occupy(Cycles::ZERO, eldu);
//! let second = channel.occupy(Cycles::new(5_000), eldu);
//! // The second load cannot preempt the first.
//! assert_eq!(second.start, first.end);
//! assert_eq!(second.queueing_delay(Cycles::new(5_000)), Cycles::new(39_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycles;
mod fastmap;
pub mod json;
mod queue;
mod resource;
mod rng;
mod slab;
mod stats;

pub use cycles::Cycles;
pub use fastmap::{FastMap, FastSet};
pub use queue::EventQueue;
pub use resource::{Grant, Resource};
pub use rng::{mix, DetRng};
pub use slab::Slab;
pub use stats::{Histogram, HistogramSummary};

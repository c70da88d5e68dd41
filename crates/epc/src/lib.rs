//! # sgx-epc — the Enclave Page Cache model
//!
//! Models the SGX memory system the paper optimizes (§2):
//!
//! * [`VirtPage`] — page-granular addresses (SGX reports faults with the
//!   bottom 12 bits cleared, so nothing below page granularity exists here).
//! * [`Epc`] — the limited physical Enclave Page Cache: residency,
//!   [`ClockQueue`] access bits (the driver's CLOCK victim selection), and
//!   the preload-accuracy counters behind DFP's abort mechanism.
//! * [`PresenceBitmap`] — the page-present bitmap SIP shares between enclave
//!   and kernel (§4.3).
//! * [`CostModel`] — the published cycle costs (AEX 10k, ELDU 44k,
//!   ERESUME 10k, regular fault 2k, …).
//!
//! The default EPC capacity follows the paper: ≈96 MiB of the 128 MiB
//! reserved is usable for application pages.
//!
//! # Examples
//!
//! ```
//! use sgx_epc::{usable_epc_pages, Epc, LoadOrigin, VirtPage};
//!
//! // The paper's usable EPC: ~96 MiB = 24,576 pages.
//! assert_eq!(usable_epc_pages(), 24_576);
//!
//! let mut epc = Epc::new(usable_epc_pages());
//! epc.insert(VirtPage::new(0), LoadOrigin::Demand)?;
//! assert!(epc.is_resident(VirtPage::new(0)));
//! # Ok::<(), sgx_epc::EpcFullError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod clock;
mod cost;
mod epc;
mod page;
mod replacement;
mod sizing;

pub use bitmap::PresenceBitmap;
pub use clock::ClockQueue;
pub use cost::CostModel;
pub use epc::{Epc, EpcFullError, Eviction, LoadOrigin, TenantQuota, TouchOutcome};
pub use page::{VirtPage, PAGE_SIZE_BYTES};
pub use replacement::{FifoPolicy, LruPolicy, RandomPolicy, ReplacementPolicy, VictimPolicy};
pub use sizing::EpcSizing;

/// Usable EPC capacity in pages: the paper's ≈96 MiB after enclave metadata.
pub const fn usable_epc_pages() -> u64 {
    96 * 1024 * 1024 / PAGE_SIZE_BYTES
}

//! Multi-tenant EPC scheduling policy.
//!
//! The paper's §5.6 multi-enclave scenario shares everything: one CLOCK
//! hand, one DFP-stop valve, one FIFO preload queue. This module holds the
//! opt-in tenant layer grown on top of it: per-enclave soft EPC quotas, a
//! weighted deficit-round-robin (DRR) arbiter over the per-enclave preload
//! queues, and preload admission control under memory pressure. The
//! DFP-stop valve stays kernel-global, as in the driver.
//!
//! The zero policy ([`TenantPolicy::none`]) is strictly inert: every kernel
//! path it gates falls back to the shared-everything driver behaviour,
//! bit-identically. Per-enclave ledgers
//! ([`Kernel::tenant_stats`](crate::Kernel::tenant_stats)) are kept
//! unconditionally — observation never perturbs the simulation.

use sgx_epc::TenantQuota;

/// Maximum enclaves a [`TenantPolicy`] can configure. Keeps the policy
/// `Copy` (it travels inside `SimConfig`, which campaign cells copy
/// freely); enclaves registered beyond this count run with the default
/// share.
pub const MAX_TENANTS: usize = 8;

/// One enclave's scheduling share: its DRR weight on the load channel and
/// its EPC residency quota.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantShare {
    /// Deficit-round-robin weight for queued preloads; `0` means the
    /// default weight of 1.
    pub weight: u32,
    /// EPC residency quota ([`TenantQuota::NONE`] = unpartitioned).
    pub quota: TenantQuota,
}

impl TenantShare {
    /// The unconfigured share: default weight, no quota.
    pub const NONE: TenantShare = TenantShare {
        weight: 0,
        quota: TenantQuota::NONE,
    };

    /// Whether this share configures anything.
    pub fn is_none(&self) -> bool {
        self.weight == 0 && self.quota.is_none()
    }
}

/// The multi-tenant EPC scheduling policy.
///
/// Shares apply to enclaves in *registration order* (the order
/// `SimRun::app` adds them). The default policy is inert — see the module
/// docs.
///
/// # Examples
///
/// ```
/// use sgx_kernel::{TenantPolicy, TenantShare};
/// use sgx_epc::TenantQuota;
///
/// let policy = TenantPolicy::none()
///     .with_weight(0, 1)
///     .with_weight(1, 1)
///     .with_quota(1, TenantQuota { soft_pages: 512 })
///     .with_admission_control(true);
/// assert!(!policy.is_none());
/// assert_eq!(policy.weight(0), 1);
/// assert_eq!(policy.weight(7), 1); // unset shares default to weight 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Per-enclave shares, indexed by enclave registration order.
    pub shares: [TenantShare; MAX_TENANTS],
    /// Shed preload batches from enclaves above their soft share when free
    /// pages fall below the reclaimer's low watermark.
    pub admission_control: bool,
}

impl TenantPolicy {
    /// The inert policy: no shares, no admission control.
    pub fn none() -> Self {
        TenantPolicy {
            shares: [TenantShare::NONE; MAX_TENANTS],
            admission_control: false,
        }
    }

    /// `true` when the policy configures nothing — the kernel then keeps
    /// the shared-everything driver behaviour, bit-identically.
    pub fn is_none(&self) -> bool {
        !self.admission_control && self.shares.iter().all(TenantShare::is_none)
    }

    /// Sets tenant `idx`'s full share.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= MAX_TENANTS`.
    pub fn with_share(mut self, idx: usize, share: TenantShare) -> Self {
        self.shares[idx] = share;
        self
    }

    /// Sets tenant `idx`'s DRR weight.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= MAX_TENANTS`.
    pub fn with_weight(mut self, idx: usize, weight: u32) -> Self {
        self.shares[idx].weight = weight;
        self
    }

    /// Sets tenant `idx`'s EPC residency quota.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= MAX_TENANTS`.
    pub fn with_quota(mut self, idx: usize, quota: TenantQuota) -> Self {
        self.shares[idx].quota = quota;
        self
    }

    /// Enables preload admission control under memory pressure.
    pub fn with_admission_control(mut self, on: bool) -> Self {
        self.admission_control = on;
        self
    }

    /// An equal-share policy for `n` tenants: weight 1 each and a soft
    /// quota of `epc_pages / n`, with admission control on.
    /// The canonical "weights 1:1" fairness configuration.
    pub fn fair(n: usize, epc_pages: u64) -> Self {
        let n = n.clamp(1, MAX_TENANTS);
        let mut p = TenantPolicy::none().with_admission_control(true);
        for i in 0..n {
            p = p.with_share(
                i,
                TenantShare {
                    weight: 1,
                    quota: TenantQuota {
                        soft_pages: epc_pages / n as u64,
                    },
                },
            );
        }
        p
    }

    /// The effective DRR weight of tenant `idx` (unset shares and indices
    /// past [`MAX_TENANTS`] weigh 1).
    pub fn weight(&self, idx: usize) -> u64 {
        self.shares.get(idx).map_or(1, |s| {
            if s.weight == 0 {
                1
            } else {
                u64::from(s.weight)
            }
        })
    }

    /// The quota of tenant `idx` ([`TenantQuota::NONE`] past the array).
    pub fn quota(&self, idx: usize) -> TenantQuota {
        self.shares.get(idx).map_or(TenantQuota::NONE, |s| s.quota)
    }
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_policy_is_none() {
        let p = TenantPolicy::none();
        assert!(p.is_none());
        assert!(TenantPolicy::default().is_none());
        assert_eq!(p.weight(0), 1);
        assert_eq!(p.weight(100), 1);
        assert!(p.quota(100).is_none());
    }

    #[test]
    fn any_knob_makes_the_policy_active() {
        assert!(!TenantPolicy::none().with_weight(2, 3).is_none());
        assert!(!TenantPolicy::none()
            .with_quota(0, TenantQuota { soft_pages: 4 })
            .is_none());
        assert!(!TenantPolicy::none().with_admission_control(true).is_none());
    }

    #[test]
    fn fair_splits_the_epc_equally() {
        let p = TenantPolicy::fair(2, 1000);
        assert!(p.admission_control);
        assert_eq!(p.weight(0), 1);
        assert_eq!(p.weight(1), 1);
        assert_eq!(p.quota(0).soft_pages, 500);
        assert_eq!(p.quota(1).soft_pages, 500);
        assert!(p.quota(2).is_none());
        // Clamped tenant counts stay sane.
        assert_eq!(TenantPolicy::fair(0, 100).quota(0).soft_pages, 100);
    }

    #[test]
    fn weight_zero_means_default_one() {
        let p = TenantPolicy::none().with_weight(0, 5);
        assert_eq!(p.weight(0), 5);
        assert_eq!(p.weight(1), 1);
    }
}

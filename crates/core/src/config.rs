//! Simulation configuration.

use sgx_dfp::{AbortPolicy, PredictorKind, StreamConfig};
use sgx_epc::{CostModel, EpcSizing};
use sgx_kernel::TenantPolicy;
use sgx_sim::Cycles;
use sgx_sip::{NotifyPlacement, SipConfig};
use sgx_workloads::Scale;

use crate::UserPagingConfig;

/// Everything a run needs besides the workload itself.
///
/// Construct with [`SimConfig::at_scale`] (paper parameters, scaled) and
/// refine with the `with_*` builders — the parameter sweeps of Figs. 6, 7
/// and 9 are expressed that way.
///
/// # Examples
///
/// ```
/// use sgx_preload_core::SimConfig;
/// use sgx_workloads::Scale;
///
/// let cfg = SimConfig::at_scale(Scale::FULL);
/// assert_eq!(cfg.epc_pages, 24_576); // the paper's usable 96 MiB
/// assert_eq!(cfg.stream.load_length, 4); // Fig. 7's chosen LOADLENGTH
/// assert_eq!(cfg.stream.list_len, 30); // Fig. 6's chosen list length
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Workload/EPC scale.
    pub scale: Scale,
    /// EPC capacity in pages.
    pub epc_pages: u64,
    /// Cycle costs for every paging event.
    pub costs: CostModel,
    /// DFP's Algorithm 1 parameters.
    pub stream: StreamConfig,
    /// Which fault-driven predictor DFP-style schemes run. The default
    /// ([`PredictorKind::MultiStream`]) is the paper's Algorithm 1, so
    /// existing configurations are bit-identical unless overridden.
    pub predictor: PredictorKind,
    /// EDMM dynamic-sizing policy, consulted only by `edmm*` schemes. The
    /// default ([`EpcSizing::physical`]) lets enclaves grow until physical
    /// EPC is the limit.
    pub epc_sizing: EpcSizing,
    /// The DFP-stop safety valve (used by the `DfpStop`/`Hybrid` schemes).
    pub abort: AbortPolicy,
    /// SIP instrumentation selection.
    pub sip: SipConfig,
    /// Where SIP notifications are placed relative to the access.
    pub placement: NotifyPlacement,
    /// The §6 user-level paging comparator's cost model.
    pub user_paging: UserPagingConfig,
    /// Master seed for workload generation.
    pub seed: u64,
    /// Multi-tenant EPC scheduling policy. The default
    /// ([`TenantPolicy::none`]) keeps the shared-everything driver
    /// behaviour, bit-identically; per-enclave telemetry is collected
    /// either way.
    pub tenant: TenantPolicy,
    /// Gauge-sampling interval in simulated cycles for subscribed trace
    /// sinks (`0`, the default, disables sampling entirely).
    pub series_interval: u64,
}

impl SimConfig {
    /// The paper's configuration at the given scale: 96 MiB usable EPC,
    /// published instruction costs, `stream_list` length 30, `LOADLENGTH`
    /// 4, a 5% SIP threshold, and an abort valve whose slack/interval are
    /// scaled with the run size (the paper's absolute 200,000-page slack
    /// was tuned on full SPEC reference runs).
    pub fn at_scale(scale: Scale) -> Self {
        let div = scale.divisor();
        let slack = (8_000 / div).max(100);
        let interval = (10_000_000 / div).max(100_000);
        SimConfig {
            scale,
            epc_pages: scale.epc_pages(),
            costs: CostModel::paper_defaults(),
            stream: StreamConfig::paper_defaults(),
            predictor: PredictorKind::MultiStream,
            epc_sizing: EpcSizing::physical(),
            abort: AbortPolicy::paper_defaults()
                .with_slack(slack)
                .with_check_interval(Cycles::new(interval)),
            sip: SipConfig::paper_defaults(),
            placement: NotifyPlacement::Conservative,
            user_paging: UserPagingConfig::defaults_for(scale.epc_pages()),
            seed: 42,
            tenant: TenantPolicy::none(),
            series_interval: 0,
        }
    }

    /// Overrides the EPC size (the §6 "larger EPC" what-if).
    pub fn with_epc_pages(mut self, pages: u64) -> Self {
        self.epc_pages = pages;
        self.user_paging = UserPagingConfig::defaults_for(pages);
        self
    }

    /// Overrides the user-level paging comparator's cost model.
    pub fn with_user_paging(mut self, user: UserPagingConfig) -> Self {
        self.user_paging = user;
        self
    }

    /// Overrides the cost model.
    pub fn with_costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides DFP's stream parameters (Figs. 6–7 sweeps).
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Overrides the abort valve.
    pub fn with_abort(mut self, abort: AbortPolicy) -> Self {
        self.abort = abort;
        self
    }

    /// Selects the fault-driven predictor for DFP-style schemes (the
    /// predictor-zoo ablation axis).
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Overrides the EDMM dynamic-sizing policy used by `edmm*` schemes
    /// (e.g. a per-enclave committed-page ceiling).
    pub fn with_epc_sizing(mut self, sizing: EpcSizing) -> Self {
        self.epc_sizing = sizing;
        self
    }

    /// Overrides SIP selection (Fig. 9 sweep).
    pub fn with_sip(mut self, sip: SipConfig) -> Self {
        self.sip = sip;
        self
    }

    /// Overrides the SIP notification placement (the early-notify
    /// extension; the paper's prototype is conservative).
    pub fn with_placement(mut self, placement: NotifyPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the workload seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a multi-tenant EPC scheduling policy: per-enclave soft
    /// quotas, weighted preload arbitration and admission control.
    /// Shares map to enclaves in registration order.
    pub fn with_tenant_policy(mut self, tenant: TenantPolicy) -> Self {
        self.tenant = tenant;
        self
    }

    /// Samples kernel gauges every `every` simulated cycles into subscribed
    /// trace sinks (see `TimeSeriesSink`). `0` disables sampling; with no
    /// sinks attached the interval has no observable effect.
    pub fn with_series_interval(mut self, every: u64) -> Self {
        self.series_interval = every;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_paper() {
        let c = SimConfig::at_scale(Scale::FULL);
        assert_eq!(c.epc_pages, 24_576);
        assert_eq!(c.costs.eldu, Cycles::new(44_000));
        assert!((c.sip.threshold - 0.05).abs() < 1e-12);
        assert_eq!(c.abort.slack, 8_000);
    }

    #[test]
    fn dev_scale_shrinks_valve_and_epc() {
        let c = SimConfig::at_scale(Scale::DEV);
        assert_eq!(c.epc_pages, 1_536);
        assert_eq!(c.abort.slack, 500);
        assert!(c.abort.check_interval < Cycles::new(10_000_000));
    }

    #[test]
    fn builders_override() {
        let c = SimConfig::at_scale(Scale::FULL)
            .with_epc_pages(99)
            .with_seed(7);
        assert_eq!(c.epc_pages, 99);
        assert_eq!(c.seed, 7);
        assert_eq!(c.scale, Scale::FULL);
    }

    #[test]
    fn series_interval_defaults_off_and_overrides() {
        let c = SimConfig::at_scale(Scale::DEV);
        assert_eq!(c.series_interval, 0);
        let c = c.with_series_interval(50_000);
        assert_eq!(c.series_interval, 50_000);
    }

    #[test]
    fn predictor_defaults_to_multi_stream_and_overrides() {
        let c = SimConfig::at_scale(Scale::DEV);
        assert_eq!(c.predictor, PredictorKind::MultiStream);
        let c = c.with_predictor(PredictorKind::Leap);
        assert_eq!(c.predictor, PredictorKind::Leap);
        assert_eq!(c.seed, 42, "workload seed untouched by predictor choice");
    }

    #[test]
    fn epc_sizing_defaults_to_physical_and_overrides() {
        let c = SimConfig::at_scale(Scale::DEV);
        assert_eq!(c.epc_sizing, EpcSizing::physical());
        let c = c.with_epc_sizing(EpcSizing::physical().with_ceiling(512));
        assert_eq!(c.epc_sizing.ceiling, Some(512));
    }

    #[test]
    fn tenant_policy_defaults_off_and_overrides() {
        let c = SimConfig::at_scale(Scale::DEV);
        assert!(c.tenant.is_none());
        let c = c.with_tenant_policy(TenantPolicy::fair(2, c.epc_pages));
        assert!(!c.tenant.is_none());
        assert_eq!(c.tenant.quota(0).soft_pages, 768);
        assert_eq!(c.seed, 42, "workload seed untouched by tenancy");
    }
}

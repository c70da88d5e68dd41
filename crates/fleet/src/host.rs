//! One simulated host: a kernel + EPC shared by the service enclaves the
//! plan assigned here, driven by their precomputed request schedules.
//!
//! Hosts are fully independent given the plan — every random draw
//! happened in the serial planning phase or comes from per-service
//! streams forked off the host-local plan — so sharding hosts across
//! workers cannot change any result bit.

use sgx_dfp::ProcessId;
use sgx_epc::StartupModel;
use sgx_kernel::{SeriesFormat, TimeSeriesSink};
use sgx_preload_core::build_kernel;
use sgx_sim::{Cycles, Histogram};
use sgx_workloads::{AccessIter, Benchmark, InputSet};

use crate::spec::FleetSpec;
use crate::{FleetError, HostReport, LatencySummary};

/// One planned request: when it arrives and how many accesses it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlannedRequest {
    /// Arrival instant in cycles.
    pub arrival: u64,
    /// Working-set draw: accesses the request executes.
    pub work: u32,
}

/// One service enclave instance on a host.
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    /// The service's workload generator.
    pub bench: Benchmark,
    /// ELRANGE in pages (also the cold-start measurement size).
    pub elrange: u64,
    /// Seed of the service's access stream.
    pub seed: u64,
    /// The precomputed request schedule, arrival-ordered.
    pub requests: Vec<PlannedRequest>,
    /// True when this instance was created by a plan-time migration.
    pub migrated_in: bool,
}

/// Everything a worker needs to simulate one host.
#[derive(Debug, Clone)]
pub(crate) struct HostPlan {
    /// Host index in the fleet.
    pub index: usize,
    /// Positional host seed: `mix(fleet_seed, index)`.
    pub seed: u64,
    /// The service instances placed here.
    pub instances: Vec<Instance>,
}

struct SvcState {
    pid: ProcessId,
    bench: Benchmark,
    seed: u64,
    stream: AccessIter,
    wraps: u64,
    req_idx: usize,
    busy_left: u32,
    arrival_of_current: u64,
    now: Cycles,
    spawned: bool,
    last_done: Cycles,
    done: bool,
}

impl SvcState {
    /// The instant this service can next make progress, or `None` when it
    /// has drained its schedule.
    fn ready_at(&self, requests: &[PlannedRequest]) -> Option<Cycles> {
        if self.done {
            return None;
        }
        if self.busy_left > 0 {
            return Some(self.now);
        }
        requests
            .get(self.req_idx)
            .map(|r| self.now.max(Cycles::new(r.arrival)))
    }

    /// Pulls the next access, restarting the stream (with a forked seed)
    /// when the generator runs dry — a resident serving process loops its
    /// program.
    fn next_access(&mut self, scale: sgx_workloads::Scale) -> sgx_workloads::Access {
        loop {
            if let Some(a) = self.stream.next() {
                return a;
            }
            self.wraps += 1;
            self.stream = self.bench.build(
                InputSet::Ref,
                scale,
                sgx_sim::mix(self.seed, 16 + self.wraps),
            );
        }
    }
}

/// Simulates one host to completion. Returns its report plus the raw
/// latency histogram the fleet aggregator merges.
pub(crate) fn simulate_host(
    plan: &HostPlan,
    spec: &FleetSpec,
) -> Result<(HostReport, Histogram), FleetError> {
    let host_err = |source| FleetError::Host {
        host: plan.index,
        source,
    };
    let mut cfg = spec.cfg.with_seed(plan.seed);
    if spec.series_dir.is_some() && cfg.series_interval == 0 {
        cfg = cfg.with_series_interval(sgx_preload_core::DEFAULT_TIMELINE_SERIES_INTERVAL);
    }
    let mut kernel = build_kernel(&cfg, spec.scheme).map_err(|e| host_err(e.into()))?;
    if let Some(dir) = &spec.series_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create series dir {}: {e}", dir.display());
        } else {
            let path = dir.join(format!("host_{:03}.series.csv", plan.index));
            match TimeSeriesSink::create(&path, SeriesFormat::Csv) {
                Ok(sink) => kernel.subscribe(Box::new(sink)),
                Err(e) => eprintln!(
                    "warning: host {} has no gauge series: {}: {e}",
                    plan.index,
                    path.display()
                ),
            }
        }
    }

    let startup = StartupModel::defaults();
    let mut states = Vec::with_capacity(plan.instances.len());
    for (i, inst) in plan.instances.iter().enumerate() {
        let pid = ProcessId(i as u32);
        kernel
            .register_enclave(pid, inst.elrange)
            .map_err(|e| host_err(e.into()))?;
        states.push(SvcState {
            pid,
            bench: inst.bench,
            seed: inst.seed,
            stream: inst.bench.build(InputSet::Ref, cfg.scale, inst.seed),
            wraps: 0,
            req_idx: 0,
            busy_left: 0,
            arrival_of_current: 0,
            now: Cycles::ZERO,
            spawned: false,
            last_done: Cycles::ZERO,
            done: false,
        });
    }

    let mut out = HostReport {
        index: plan.index,
        seed: plan.seed,
        services: plan.instances.len(),
        migrations_in: plan.instances.iter().filter(|i| i.migrated_in).count() as u64,
        ..HostReport::default()
    };
    let mut latencies = Histogram::new("fleet_request_latency");
    let mut driver_faults = 0u64;

    // Min-clock round-robin across services, the same near-monotonic
    // interleaving the single-machine driver uses: always advance the
    // service whose next event is earliest.
    loop {
        let next = states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.ready_at(&plan.instances[i].requests).map(|t| (t, i)))
            .min()
            .map(|(_, i)| i);
        let Some(i) = next else { break };
        let st = &mut states[i];
        if st.busy_left > 0 {
            // Execute one access of the current request.
            let access = st.next_access(cfg.scale);
            st.now += access.compute;
            out.accesses += 1;
            match kernel.app_access(st.now, st.pid, access.page) {
                Some(_) => out.epc_hits += 1,
                None => {
                    driver_faults += 1;
                    st.now = kernel.page_fault(st.now, st.pid, access.page).resume_at;
                }
            }
            st.busy_left -= 1;
            if st.busy_left == 0 {
                let latency = st.now.saturating_sub(Cycles::new(st.arrival_of_current));
                latencies.record(latency);
                if latency.raw() > spec.slo {
                    out.violations += 1;
                }
                st.last_done = st.now;
            }
            continue;
        }

        // Start (or shed) the next request.
        let req = plan.instances[i].requests[st.req_idx];
        st.req_idx += 1;
        out.requests += 1;
        let arrival = Cycles::new(req.arrival);

        // Idle teardown: the gap since the last completion exceeded the
        // timeout, so the enclave was reaped (EREMOVE — no write-back
        // billed) and this request re-pays the cold start below.
        if st.spawned
            && spec.idle_timeout > 0
            && req.arrival > st.last_done.raw().saturating_add(spec.idle_timeout)
        {
            kernel
                .retire_enclave(st.pid)
                .map_err(|e| host_err(e.into()))?;
            out.teardowns += 1;
            st.spawned = false;
        }

        // Queue wait (excluding any cold start this request itself
        // triggers): overload protection drops stale requests before
        // they execute.
        let start = st.now.max(arrival);
        let wait = start.saturating_sub(arrival);
        if spec.shed_after > 0 && wait.raw() > spec.shed_after {
            out.shed += 1;
            if st.req_idx >= plan.instances[i].requests.len() {
                st.done = true;
            }
            continue;
        }

        let mut start = start;
        if !st.spawned {
            let build = startup.build_time(
                plan.instances[i].elrange.min(crate::MEASURED_IMAGE_PAGES),
                0,
            );
            start += build;
            out.startup_cycles += build.raw();
            out.spawns += 1;
            st.spawned = true;
        }
        st.now = start;
        st.arrival_of_current = req.arrival;
        st.busy_left = req.work.max(1);
    }

    let end = states.iter().map(|s| s.now).max().unwrap_or(Cycles::ZERO);
    kernel.finish(end);
    let ks = kernel.stats();
    let epc = kernel.epc();
    out.end_cycles = end.raw();
    out.faults = ks.faults;
    out.demand_loads = ks.demand_loads;
    out.preloads_started = ks.preloads_started;
    out.preloads_touched = epc.preloads_touched();
    out.preloads_wasted = epc.preloads_evicted_untouched();
    out.latency = LatencySummary::from_histogram(&latencies);
    out.attribution = kernel.attribution(end);
    out.accounting_residual =
        out.attribution.total().abs_diff(out.end_cycles) + driver_faults.abs_diff(out.faults);
    Ok((out, latencies))
}

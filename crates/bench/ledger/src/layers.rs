//! The traced run: every cell of a workload, one at a time, then a timed
//! call into each layer on that cell's own inputs.
//!
//! For each cell the run (1) times the cell the way its pass runs it,
//! (2) captures the cell's event stream once, untimed, with a
//! `CollectingSink`, (3) times each layer alone on the cell's inputs and
//! captured events, and (4) books the cell time the layer rows do not
//! explain as kernel glue. Glue is a signed residual: a layer that runs
//! faster alone than inside the cell can push it below zero.

use std::hint::black_box;
use std::time::Instant;

use sgx_dfp::ProcessId;
use sgx_epc::{Epc, LoadOrigin, VirtPage};
use sgx_kernel::{
    render_chrome_trace, CollectingSink, CountingSink, EventCounts, EventKind, HistogramSink,
    LoggedEvent, TraceSink,
};
use sgx_observer::{LeakageReport, ObserverSink, OramModel};
use sgx_preload_core::{
    build_plan, AppSpec, Cell, CellReport, CellWork, LeakageSpec, Scheme, SimConfig, SimRun,
};
use sgx_sip::{profile_stream, InstrumentationPlan};
use sgx_workloads::{Benchmark, PageRange, SecretBit};

use crate::suite::{
    failed, grid_cell, run_timeline, timed_cell, timed_co_run, timeline_label, CellRun, CoRun,
    Failure, Input, Pass, Suite, Unit, TIMELINE_CELL,
};

/// Every per-layer metric, named `<layer>.<metric>`; [`Layers::values`]
/// returns them in this order. Units and directions are in `BENCHMARK.json`.
pub const PER_LAYER: [&str; 30] = [
    "workloads.gen_s",
    "workloads.accesses",
    "workloads.ns_per_access",
    "sip.profile_s",
    "sip.instrumentation_points",
    "sip.notifies",
    "dfp.predict_s",
    "dfp.pages_predicted",
    "dfp.preload_accuracy",
    "epc.replay_s",
    "epc.misses",
    "epc.scan_steps",
    "kernel.glue_s",
    "kernel.events",
    "kernel.faults",
    "kernel.evictions",
    "kernel.preloads_aborted",
    "kernel.channel_wait_gcycles",
    "trace.counting_s",
    "trace.histogram_s",
    "timeline.render_s",
    "timeline.chrome_mb",
    "observer.sink_s",
    "observer.report_s",
    "observer.observed_events",
    "core.pool_efficiency",
    "core.cell_p90_s",
    "core.cell_max_s",
    "core.report_json_s",
    "core.trace_overhead",
];

/// Per-layer totals over one traced pass.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    gen_s: f64,
    accesses: u64,
    profile_s: f64,
    instrumentation_points: u64,
    notifies: u64,
    predict_s: f64,
    pages_predicted: u64,
    preloads_touched: u64,
    preloads_wasted: u64,
    epc_s: f64,
    misses: u64,
    scan_steps: u64,
    glue_s: f64,
    events: u64,
    faults: u64,
    evictions: u64,
    preloads_aborted: u64,
    channel_wait_cycles: u64,
    counting_s: f64,
    histogram_s: f64,
    render_s: f64,
    chrome_bytes: u64,
    sink_s: f64,
    report_s: f64,
    observed_events: u64,
    cell_s: Vec<f64>,
    report_json_s: f64,
}

/// What a traced pass produced.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The per-layer totals.
    pub layers: Layers,
    /// The serial pass itself (cell times are serial, one at a time).
    pub pass: Pass,
    /// Host seconds of the whole traced pass: cells, captures and replays.
    pub wall_s: f64,
    /// Failed replay checks, one message each.
    pub failures: Vec<Failure>,
    /// Whether some cell's predictor could not be replayed.
    pub dfp_skipped: bool,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn capture(run: SimRun<'_>) -> Vec<LoggedEvent> {
    let (sink, events) = CollectingSink::new();
    // The run itself was checked when the cell was timed; only its
    // event stream is needed here.
    let _ = run.sink(Box::new(sink)).run();
    events.take()
}

/// Runs the traced pass over `suite`, numbering its failures `pass_no`.
pub fn traced_pass(suite: &Suite, pass_no: usize) -> Traced {
    let t0 = Instant::now();
    let mut t = Layers::default();
    let mut failures = Vec::new();
    let mut cells: Vec<CellRun> = Vec::new();
    let mut dfp_skipped = false;
    for unit in &suite.units {
        match unit {
            Unit::Grid(campaign) => {
                let report = match campaign.run_serial() {
                    Ok(r) => r,
                    Err(e) => {
                        cells.extend(campaign.cells().iter().map(|c| failed(&c.label, &e)));
                        continue;
                    }
                };
                let (json, s) = timed(|| report.to_canonical_json());
                black_box(json);
                t.report_json_s += s;
                for (i, (cell, done)) in campaign.cells().iter().zip(&report.cells).enumerate() {
                    let run = grid_cell(&report, done);
                    let seed = campaign.cell_seed(i);
                    let explained = match &cell.work {
                        CellWork::Bench(b) => t.bench_layers(*b, cell, seed, &run, &mut failures),
                        CellWork::Leakage(spec) => {
                            t.leakage_layers(*spec, cell, seed, done, &mut failures)
                        }
                        CellWork::Replay(r) => {
                            unreachable!("the ledger runs no replays ({})", r.label())
                        }
                    };
                    t.close_cell(&run, explained);
                    cells.push(run);
                }
            }
            Unit::Timeline(cfg) => {
                let run = timed_cell(timeline_label(), run_timeline(cfg));
                let explained = t.timeline_layers(cfg, &run, &mut failures);
                t.close_cell(&run, explained);
                cells.push(run);
            }
            Unit::CoRuns(runs) => {
                // LoggedEvent carries no pid, so a multi-enclave fault
                // stream cannot be split per predictor instance.
                dfp_skipped = true;
                for co in runs {
                    let run = timed_cell(co.label.clone(), timed_co_run(co));
                    let explained = t.co_run_layers(co, &run, &mut failures);
                    t.close_cell(&run, explained);
                    cells.push(run);
                }
            }
        }
    }
    for f in &mut failures {
        f.pass = pass_no;
    }
    let pass = Pass {
        wall_s: cells.iter().map(|c| c.wall_s).sum(),
        cells,
    };
    Traced {
        layers: t,
        pass,
        wall_s: t0.elapsed().as_secs_f64(),
        failures,
        dfp_skipped,
    }
}

impl Layers {
    /// Every metric of [`PER_LAYER`], in order. `pool_efficiency` comes
    /// from the untraced passes; `trace_overhead` is the traced pass's
    /// wall over the untraced median.
    pub fn values(&self, pool_efficiency: f64, trace_overhead: f64) -> [f64; 30] {
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        let mut cell_s = self.cell_s.clone();
        cell_s.sort_by(f64::total_cmp);
        // Nearest-rank 90th percentile.
        let p90 = match cell_s.len() {
            0 => 0.0,
            n => cell_s[(n * 9).div_ceil(10) - 1],
        };
        [
            self.gen_s,
            self.accesses as f64,
            per(self.gen_s * 1e9, self.accesses),
            self.profile_s,
            self.instrumentation_points as f64,
            self.notifies as f64,
            self.predict_s,
            self.pages_predicted as f64,
            per(
                self.preloads_touched as f64,
                self.preloads_touched + self.preloads_wasted,
            ),
            self.epc_s,
            self.misses as f64,
            self.scan_steps as f64,
            self.glue_s,
            self.events as f64,
            self.faults as f64,
            self.evictions as f64,
            self.preloads_aborted as f64,
            self.channel_wait_cycles as f64 / 1e9,
            self.counting_s,
            self.histogram_s,
            self.render_s,
            self.chrome_bytes as f64 / (1024.0 * 1024.0),
            self.sink_s,
            self.report_s,
            self.observed_events as f64,
            pool_efficiency,
            p90,
            cell_s.last().copied().unwrap_or(0.0),
            self.report_json_s,
            trace_overhead,
        ]
    }

    /// Books a finished cell: its kernel counters and the glue residual.
    fn close_cell(&mut self, run: &CellRun, explained_s: f64) {
        self.cell_s.push(run.wall_s);
        self.glue_s += run.wall_s - explained_s;
        let ev = &run.events;
        self.events += ev.total();
        self.faults += ev.faults;
        self.evictions += ev.background_evictions + ev.foreground_evictions;
        self.preloads_aborted += ev.preload_aborts;
        for r in &run.reports {
            self.instrumentation_points += r.instrumentation_points as u64;
            self.notifies += r.sip_notifies;
            self.preloads_touched += r.preloads_touched;
            self.preloads_wasted += r.preloads_wasted;
            self.channel_wait_cycles += r.channel_wait_cycles.raw();
        }
    }

    /// Drains each input once, timed, then collects its page vector
    /// (untimed) for the EPC replay.
    fn generate(&mut self, inputs: &[Input]) -> (f64, Vec<Vec<u64>>) {
        let mut secs = 0.0;
        let mut pages = Vec::with_capacity(inputs.len());
        for input in inputs {
            let (n, s) = timed(|| black_box(input.stream().count()));
            secs += s;
            self.accesses += n as u64;
            pages.push(input.stream().map(|a| a.page.raw()).collect());
        }
        self.gen_s += secs;
        (secs, pages)
    }

    /// Times the layers every kernel cell shares on one run's captured
    /// events and page vectors: the predictor replay (when `replay_dfp`),
    /// the EPC replay and the counting-sink replay, checking the replays
    /// against the run (`expect`: the run's own event tallies). Returns the
    /// seconds those layers took and one message per failed check.
    fn replay_run(
        &mut self,
        cfg: &SimConfig,
        replay_dfp: bool,
        events: &[LoggedEvent],
        pages: &[Vec<u64>],
        expect: Option<&EventCounts>,
    ) -> (f64, Vec<String>) {
        let mut secs = 0.0;
        let mut failed = Vec::new();
        if replay_dfp {
            let (s, msg) = self.replay_predictor(cfg, events);
            secs += s;
            failed.extend(msg);
        }
        secs += self.replay_epc(cfg.epc_pages, pages);
        let (mut counting, counts) = CountingSink::new();
        let ((), s) = timed(|| events.iter().for_each(|e| counting.on_event(e)));
        self.counting_s += s;
        secs += s;
        if let Some(expect) = expect.filter(|&e| *e != counts.get()) {
            failed.push(format!(
                "counting replay {:?} differs from the run's {expect:?}",
                counts.get()
            ));
        }
        let (mut hist, _hists) = HistogramSink::new();
        let ((), s) = timed(|| events.iter().for_each(|e| hist.on_event(e)));
        self.histogram_s += s;
        (secs, failed)
    }

    /// Replays the run's faults into a fresh predictor exactly as the
    /// kernel calls it (at AEX completion, process 0), and checks the
    /// predicted-page total against the run's `StreamPredicted` events.
    /// The fault whose handler fired the DFP-stop valve never reaches the
    /// predictor, and neither does any later one.
    fn replay_predictor(
        &mut self,
        cfg: &SimConfig,
        events: &[LoggedEvent],
    ) -> (f64, Option<String>) {
        let valve = events
            .iter()
            .find(|e| e.what == EventKind::ValveStopped)
            .and_then(|e| e.parent);
        let mut predictor = cfg.predictor.build(cfg.stream);
        let mut out = Vec::new();
        let (predicted, s) = timed(|| {
            let mut total = 0u64;
            for e in events.iter().filter(|e| e.what == EventKind::Fault) {
                if Some(e.span) == valve {
                    break;
                }
                let page = e.page.expect("fault events carry their page");
                out.clear();
                predictor.on_fault_into(e.at + cfg.costs.aex, ProcessId(0), page, &mut out);
                total += out.len() as u64;
            }
            total
        });
        self.predict_s += s;
        self.pages_predicted += predicted;
        let expected: u64 = events
            .iter()
            .filter(|e| e.what == EventKind::StreamPredicted)
            .filter_map(|e| e.value)
            .sum();
        let msg = (predicted != expected)
            .then(|| format!("predictor replay predicted {predicted} pages, the run {expected}"));
        (s, msg)
    }

    /// Demand-only replay of page vectors through a standalone EPC: touch,
    /// and on a miss evict the CLOCK victim when full, then insert. Several
    /// vectors (co-running enclaves) interleave one access at a time over
    /// disjoint page ranges.
    fn replay_epc(&mut self, capacity: u64, vectors: &[Vec<u64>]) -> f64 {
        let mut epc = Epc::new(capacity);
        let longest = vectors.iter().map(Vec::len).max().unwrap_or(0);
        let (misses, s) = timed(|| {
            let mut misses = 0u64;
            for i in 0..longest {
                for (k, v) in vectors.iter().enumerate() {
                    let Some(&raw) = v.get(i) else { continue };
                    let page = VirtPage::new(raw | (k as u64) << 40);
                    if epc.touch(page).resident {
                        continue;
                    }
                    misses += 1;
                    if epc.free_slots() == 0 {
                        epc.evict_victim();
                    }
                    epc.insert(page, LoadOrigin::Demand)
                        .expect("a slot was freed above");
                }
            }
            misses
        });
        self.epc_s += s;
        self.misses += misses;
        self.scan_steps += epc.scan_steps_total();
        s
    }

    fn bench_layers(
        &mut self,
        bench: Benchmark,
        cell: &Cell,
        seed: u64,
        run: &CellRun,
        failures: &mut Vec<Failure>,
    ) -> f64 {
        let cfg = cell.cfg.with_seed(seed);
        let (gen_s, pages) = self.generate(&[Input::Bench(bench, cfg.scale.divisor(), seed)]);
        let mut profile_s = 0.0;
        if cell.scheme.uses_sip() {
            let (plan, s) = timed(|| build_plan(bench, &cfg, cell.scheme));
            black_box(plan);
            profile_s = s;
            self.profile_s += s;
        }
        let events = capture(SimRun::new(&cfg).scheme(cell.scheme).bench(bench));
        let (replay_s, failed) = self.replay_run(
            &cfg,
            cell.scheme.uses_dfp(),
            &events,
            &pages,
            Some(&run.events),
        );
        blame(failures, &run.label, failed);
        gen_s + profile_s + replay_s
    }

    /// A leakage cell runs both secret variants, each with its own SIP
    /// plan and observer, then compares the observations.
    fn leakage_layers(
        &mut self,
        spec: LeakageSpec,
        cell: &Cell,
        seed: u64,
        done: &CellReport,
        failures: &mut Vec<Failure>,
    ) -> f64 {
        let cfg = cell.cfg.with_seed(seed);
        let div = cfg.scale.divisor();
        let oram = OramModel::paper_defaults();
        let elrange = if spec.oram {
            oram.scaled_pages(cfg.scale)
        } else {
            spec.pair.elrange_pages(cfg.scale)
        };
        let inputs = SecretBit::BOTH.map(|bit| match spec.oram {
            true => Input::Oram(div, seed),
            false => Input::Secret(spec.pair, bit, div, seed),
        });
        let (mut explained, pages) = self.generate(&inputs);
        let mut observations = Vec::with_capacity(2);
        for (k, input) in inputs.iter().enumerate() {
            let (plan, s) = timed(|| leakage_plan(spec, cell.scheme, &cfg, seed, &oram));
            if cell.scheme.uses_sip() {
                self.profile_s += s;
                explained += s;
            }
            let app = AppSpec::new(spec.pair.name(), elrange, input.stream())
                .plan(plan)
                .build()
                .expect("the cell built this spec");
            let events = capture(SimRun::new(&cfg).scheme(cell.scheme).app(app));
            let expect = (k == 0).then_some(&done.events);
            let (replay_s, failed) =
                self.replay_run(&cfg, cell.scheme.uses_dfp(), &events, &pages[k..=k], expect);
            blame(failures, &done.label, failed);
            explained += replay_s;
            let (observer, obs) = ObserverSink::new();
            let mut observer =
                observer.with_enclave(spec.pair.name(), PageRange::new(0, elrange.max(1)));
            let ((), s) = timed(|| events.iter().for_each(|e| observer.on_event(e)));
            self.sink_s += s;
            explained += s;
            drop(observer);
            let obs = obs.take();
            self.observed_events += obs.observed_events();
            observations.push(obs);
        }
        let (leakage, s) = timed(|| {
            LeakageReport::from_observations(
                spec.pair.name(),
                spec.window,
                spec.oram,
                &observations[0],
                &observations[1],
            )
        });
        self.report_s += s;
        if done.leakage.as_ref() != Some(&leakage) {
            failures.push(Failure::new(
                0,
                &done.label,
                "observer replay disagrees with the cell's leakage report",
            ));
        }
        explained + s
    }

    fn timeline_layers(
        &mut self,
        cfg: &SimConfig,
        run: &CellRun,
        failures: &mut Vec<Failure>,
    ) -> f64 {
        let (bench, scheme) = TIMELINE_CELL;
        let (gen_s, pages) = self.generate(&[Input::Bench(bench, cfg.scale.divisor(), cfg.seed)]);
        let events = capture(SimRun::new(cfg).scheme(scheme).bench(bench));
        let h0 = self.histogram_s;
        let (replay_s, failed) = self.replay_run(cfg, true, &events, &pages, Some(&run.events));
        blame(failures, &run.label, failed);
        let (json, render_s) = timed(|| render_chrome_trace(&events));
        self.render_s += render_s;
        self.chrome_bytes += json.len() as u64;
        // The timeline cell also feeds a histogram sink.
        gen_s + replay_s + (self.histogram_s - h0) + render_s
    }

    fn co_run_layers(&mut self, co: &CoRun, run: &CellRun, failures: &mut Vec<Failure>) -> f64 {
        let (gen_s, pages) = self.generate(&co.inputs());
        let (sink, events) = CollectingSink::new();
        let _ = co.run(vec![Box::new(sink)]);
        let events = events.take();
        let (replay_s, failed) =
            self.replay_run(&co.cfg, false, &events, &pages, Some(&run.events));
        blame(failures, &run.label, failed);
        gen_s + replay_s
    }
}

/// Books each message as a failure of the cell `label`.
fn blame(failures: &mut Vec<Failure>, label: &str, messages: Vec<String>) {
    failures.extend(messages.into_iter().map(|m| Failure::new(0, label, m)));
}

/// The SIP plan a leakage cell compiles for one variant: profiled on the
/// pair's *train* stream (a decorrelated ORAM stream for the reference
/// row), as the campaign does.
fn leakage_plan(
    spec: LeakageSpec,
    scheme: Scheme,
    cfg: &SimConfig,
    seed: u64,
    oram: &OramModel,
) -> InstrumentationPlan {
    if !scheme.uses_sip() {
        return InstrumentationPlan::none();
    }
    let train = if spec.oram {
        oram.stream(cfg.scale, sgx_sim::mix(seed, 0x5EC7))
    } else {
        spec.pair.train(cfg.scale, seed)
    };
    InstrumentationPlan::from_profile(&profile_stream(train, cfg.epc_pages as usize), cfg.sip)
}

//! The figure table at dev scale: every table matches its golden under
//! `tests/golden/figures/` and is well-formed CSV, every paper claim the
//! figures carry holds, `results/` holds exactly the CSVs the figures
//! write, a figure run alone gives the tables and verdicts it gives in the
//! full run, and every distinct run is one cell.
//!
//! After an intentional change, regenerate the goldens with:
//!
//! ```text
//! SGX_GOLDEN_UPDATE=1 cargo test -p sgx-bench --test figures
//! ```

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::OnceLock;

use sgx_bench::figures::{self, Figure, Output, Plan, Point, FIGURES};
use sgx_preload_core::Scheme;
use sgx_workloads::{Benchmark, Scale};

/// Environment variable that switches the golden check to regenerate.
const UPDATE_ENV: &str = "SGX_GOLDEN_UPDATE";

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/figures")
}

/// The file names in `dir`.
fn file_names(dir: &std::path::Path) -> HashSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{} ({e})", dir.display()))
        .map(|e| e.expect("dir entry").file_name().into_string().unwrap())
        .collect()
}

fn all() -> Vec<&'static Figure> {
    FIGURES.iter().collect()
}

/// Every figure at dev scale, run once and shared by the tests.
fn full_run() -> &'static [Output] {
    static RUN: OnceLock<Vec<Output>> = OnceLock::new();
    RUN.get_or_init(|| figures::run(&all(), Scale::DEV))
}

/// Counts a CSV record's fields, honouring RFC 4180 quotes (a doubled
/// quote toggles twice, so it never ends a field).
fn width(record: &str) -> usize {
    let mut quoted = false;
    let commas = record.chars().filter(|&c| {
        quoted ^= c == '"';
        c == ',' && !quoted
    });
    commas.count() + 1
}

#[test]
fn every_table_matches_its_golden() {
    let dir = golden_dir();
    let update = std::env::var_os(UPDATE_ENV).is_some();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut differing = Vec::new();
    let mut ids = HashSet::new();
    for (figure, output) in FIGURES.iter().zip(full_run()) {
        let csvs: Vec<&str> = output.tables.iter().map(|t| t.id()).collect();
        assert_eq!(
            csvs,
            figure.csvs,
            "figure {} writes its declared CSVs",
            figure.id()
        );
    }
    for table in full_run().iter().flat_map(|o| &o.tables) {
        ids.insert(format!("{}.csv", table.id()));
        let path = dir.join(format!("{}.csv", table.id()));
        if update {
            std::fs::write(&path, table.csv()).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); regenerate with {UPDATE_ENV}=1",
                path.display()
            )
        });
        if table.csv() != want {
            differing.push(table.id());
        }
    }
    assert!(
        differing.is_empty(),
        "tables differ from their goldens: {differing:?}"
    );
    // No golden outlives its table.
    assert_eq!(file_names(&dir), ids);
}

/// The gate on the paper's claims: every verdict of the dev-scale run at
/// seed 42 holds. A failure names each failing figure and claim with its
/// measured values.
#[test]
fn every_claim_holds_at_dev_scale() {
    for (figure, output) in FIGURES.iter().zip(full_run()) {
        for verdict in &output.verdicts {
            assert_eq!(verdict.figure, figure.id(), "{verdict}");
        }
    }
    let verdicts: Vec<_> = full_run().iter().flat_map(|o| &o.verdicts).collect();
    let failing: Vec<String> = verdicts
        .iter()
        .filter(|v| !v.holds)
        .map(ToString::to_string)
        .collect();
    assert!(
        failing.is_empty(),
        "claims that fail at dev scale:\n{}",
        failing.join("\n")
    );
    // No claim drops out unnoticed.
    assert_eq!(verdicts.len(), 22);
}

/// The committed full-scale CSVs are exactly what a figure run writes:
/// one per table plus the raw series, so no result outlives its figure.
#[test]
fn results_hold_exactly_the_figures_csvs() {
    let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let written: HashSet<String> = full_run()
        .iter()
        .flat_map(|o| {
            let tables = o.tables.iter().map(|t| format!("{}.csv", t.id()));
            tables.chain(o.series.iter().map(|(name, _)| name.clone()))
        })
        .collect();
    assert_eq!(file_names(&results), written);
}

#[test]
fn every_csv_row_has_its_header_width() {
    let mut quoted = 0;
    for table in full_run().iter().flat_map(|o| &o.tables) {
        let csv = table.csv();
        let header = width(csv.lines().next().expect("header"));
        for (i, record) in csv.lines().enumerate() {
            assert_eq!(width(record), header, "{} record {i}", table.id());
        }
        quoted += csv.matches(",\"").count();
    }
    // motivation, ablation_epc_size and table1_classification quote their
    // thousands separators and "large, regular" cells.
    assert!(quoted > 20, "only {quoted} quoted cells");
}

#[test]
fn a_figure_run_alone_matches_the_full_run() {
    for id in [
        "fig9_threshold_sweep",
        "fig13_mixed_blood",
        "ablation_epc_size",
    ] {
        let at = FIGURES.iter().position(|f| f.id() == id).expect("known id");
        let alone = figures::run(&figures::select(&[id]).expect("known id"), Scale::DEV);
        let full = &full_run()[at];
        assert_eq!(alone.len(), 1);
        let csvs = |o: &Output| o.tables.iter().map(|t| t.csv()).collect::<Vec<_>>();
        assert_eq!(csvs(&alone[0]), csvs(full), "{id} tables");
        assert_eq!(alone[0].notes, full.notes, "{id} notes");
        assert_eq!(alone[0].verdicts, full.verdicts, "{id} verdicts");
    }
}

#[test]
fn every_distinct_run_is_one_cell() {
    let plan = Plan::new(&all(), Scale::DEV);
    let mut labels = HashSet::new();
    let mut runs = HashSet::new();
    for c in plan.cells() {
        assert!(labels.insert(&c.label), "label {} twice", c.label);
        let run = format!("{}/{} {:?}", c.bench.name(), c.scheme.name(), c.cfg);
        assert!(runs.insert(run), "{} repeats another cell's run", c.label);
    }
    // Building the plan asserted (in debug builds) that every figure
    // registering a label registered it with one config.
    // fig9's baselines read no SIP threshold: one per benchmark, not eight.
    let fig9 = figures::select(&["fig9_threshold_sweep"]).expect("known id");
    let fig9 = Plan::new(&fig9, Scale::DEV);
    let baselines = fig9.cells().iter().filter(|c| c.scheme == Scheme::Baseline);
    assert_eq!(baselines.count(), 2);
    assert_eq!(fig9.cells().len(), 2 + 2 * 8);
    // threshold=5.0% is the paper default: fig10 reads the same cell.
    assert!(fig9.cells().iter().any(|c| c.label == "deepsjeng/SIP"));
    assert_eq!(plan.cells().len(), 169);
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "registered with two configs")]
fn a_label_never_names_two_configs() {
    // 0.5% and 0.51% both print as `threshold=0.5%`.
    let mut plan = Plan::new(&[], Scale::DEV);
    let points = [Point::Threshold(0.005), Point::Threshold(0.0051)];
    plan.sweep(&[Benchmark::Deepsjeng], &[Scheme::Sip], &points);
}

#[test]
fn unknown_figure_ids_are_errors() {
    let err = figures::select(&["fig99"])
        .err()
        .expect("unknown id rejected");
    assert!(
        err.contains("\"fig99\"") && err.contains("fig13_mixed_blood"),
        "{err}"
    );
    assert!(figures::select(&["fig8_dfp", "--bench"]).is_err());
    assert_eq!(
        figures::select::<&str>(&[]).expect("all").len(),
        FIGURES.len()
    );
    // A figure's further CSV ids name no figure.
    assert!(figures::select(&["dist_fault_latency_buckets"]).is_err());
    let picked = figures::select(&["dist_fault_latency", "motivation", "motivation"]);
    let ids: Vec<&str> = picked.expect("known ids").iter().map(|f| f.id()).collect();
    assert_eq!(ids, ["motivation", "dist_fault_latency"]);
}

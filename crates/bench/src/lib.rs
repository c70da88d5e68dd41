//! # sgx-bench — the evaluation harness
//!
//! One bench target per table/figure of the paper (run with
//! `cargo bench --workspace`; each prints the paper's series next to the
//! measured one and drops a CSV under `results/`), plus Criterion
//! micro-benches over the hot primitives.
//!
//! Environment:
//!
//! * `SGX_BENCH_SCALE` — `full` (default; the paper's 96 MiB EPC),
//!   `quarter`, `dev` (1/16, seconds-fast), or a numeric divisor.
//! * `SGX_BENCH_OUT` — CSV output directory (default `results/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use sgx_workloads::Scale;

/// Reads the benchmarking scale from `SGX_BENCH_SCALE`.
pub fn scale_from_env() -> Scale {
    match std::env::var("SGX_BENCH_SCALE").as_deref() {
        Ok("dev") => Scale::DEV,
        Ok("quarter") => Scale::QUARTER,
        Ok(other) if other != "full" => other
            .parse::<u64>()
            .ok()
            .and_then(Scale::try_new)
            .unwrap_or(Scale::FULL),
        _ => Scale::FULL,
    }
}

/// Where CSV artifacts go (`SGX_BENCH_OUT`, default `<workspace>/results/`).
///
/// `cargo bench` runs bench binaries with the package directory as CWD, so
/// the default anchors to the workspace root rather than the current
/// directory.
pub fn out_dir() -> PathBuf {
    match std::env::var("SGX_BENCH_OUT") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../results")
            .components()
            .collect(),
    }
}

/// A printable, CSV-dumpable results table for one experiment.
#[derive(Debug, Clone)]
pub struct ResultTable {
    id: &'static str,
    title: &'static str,
    paper_note: &'static str,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl ResultTable {
    /// Starts a table for experiment `id` (used as the CSV file name).
    pub fn new(id: &'static str, title: &'static str, paper_note: &'static str) -> Self {
        ResultTable {
            id,
            title,
            paper_note,
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers (after the leading label column).
    pub fn columns<S: Into<String>>(&mut self, cols: Vec<S>) -> &mut Self {
        self.columns = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row<S: Into<String>>(&mut self, label: impl Into<String>, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push((label.into(), cells));
        self
    }

    /// Prints the table and writes `<out>/<id>.csv`. I/O failures on the
    /// CSV are reported to stderr but never fail the bench.
    pub fn finish(&self) {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let mut label_w = 0usize;
        for (label, cells) in &self.rows {
            label_w = label_w.max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} — {} ==", self.id, self.title);
        println!("   paper: {}", self.paper_note);
        let mut header = format!("   {:label_w$}", "");
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(header, "  {c:>w$}");
        }
        println!("{header}");
        for (label, cells) in &self.rows {
            let mut line = format!("   {label:label_w$}");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, "  {c:>w$}");
            }
            println!("{line}");
        }

        let dir = out_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let mut csv = String::new();
        let _ = writeln!(csv, "label,{}", self.columns.join(","));
        for (label, cells) in &self.rows {
            let _ = writeln!(csv, "{label},{}", cells.join(","));
        }
        let path = dir.join(format!("{}.csv", self.id));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("   -> {}", path.display());
        }
    }
}

/// Formats a fraction as a signed percentage cell.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Formats a normalized-time cell (the y-axis of Figs. 7–13).
pub fn norm(x: f64) -> String {
    format!("{x:.3}")
}

/// Paper reference values printed alongside measurements.
pub mod paper {
    /// Fig. 8 qualitative reference: (benchmark, plain-DFP improvement).
    pub const FIG8_DFP: &[(&str, f64)] = &[
        ("microbenchmark", 0.186),
        ("lbm", 0.133),
        ("deepsjeng", -0.34),
        ("roms", -0.42),
    ];
    /// Fig. 10 reference: (benchmark, SIP improvement).
    pub const FIG10_SIP: &[(&str, f64)] = &[
        ("deepsjeng", 0.09),
        ("mcf.2006", 0.049),
        ("mcf", 0.0),
        ("lbm", 0.0),
        ("microbenchmark", 0.0),
    ];
    /// Table 2: instrumentation points.
    pub const TABLE2_POINTS: &[(&str, u64)] = &[
        ("mcf.2006", 114),
        ("mcf", 99),
        ("xz", 46),
        ("deepsjeng", 35),
        ("lbm", 0),
        ("MSER", 54),
        ("SIFT", 0),
        ("microbenchmark", 0),
    ];
    /// Fig. 11: (app, scheme, improvement).
    pub const FIG11: &[(&str, &str, f64)] = &[("SIFT", "DFP", 0.095), ("MSER", "SIP", 0.030)];
    /// Fig. 13 mixed-blood: (scheme, improvement).
    pub const FIG13: &[(&str, f64)] = &[("SIP", 0.016), ("DFP", 0.060), ("SIP+DFP", 0.071)];
    /// §5.1: average DFP improvement on regular benchmarks.
    pub const DFP_AVG_REGULAR: f64 = 0.114;
    /// §5.1: average plain-DFP overhead on mispredicting benchmarks.
    pub const DFP_OVERHEAD_BEFORE_STOP: f64 = 0.3852;
    /// §5.1: the same overhead after DFP-stop.
    pub const DFP_OVERHEAD_AFTER_STOP: f64 = 0.0282;
    /// §1: in-enclave slowdown of the 1 GiB sequential scan.
    pub const MOTIVATION_SLOWDOWN: f64 = 46.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_and_norm_formatting() {
        assert_eq!(pct(0.114), "+11.4%");
        assert_eq!(pct(-0.345), "-34.5%");
        assert_eq!(norm(1.0), "1.000");
    }

    #[test]
    fn table_csv_roundtrip() {
        let dir = std::env::temp_dir().join("sgx_bench_table_test");
        std::env::set_var("SGX_BENCH_OUT", &dir);
        let mut t = ResultTable::new("test_table", "t", "n/a");
        t.columns(vec!["a", "b"]);
        t.row("r1", vec!["1", "2"]);
        t.finish();
        let csv = std::fs::read_to_string(dir.join("test_table.csv")).unwrap();
        assert_eq!(csv, "label,a,b\nr1,1,2\n");
        std::env::remove_var("SGX_BENCH_OUT");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = ResultTable::new("x", "t", "n");
        t.columns(vec!["a"]);
        t.row("r", vec!["1", "2"]);
    }
}

//! # sgx-bench — the evaluation harness
//!
//! One `figures` bench regenerates every table and figure of the paper plus
//! the ablations (run with `cargo bench --workspace`, or
//! `cargo bench -p sgx-bench --bench figures -- <id>...` for a few); each
//! figure prints the paper's series next to the measured one and drops a
//! CSV under `results/`. The figures are entries of one table,
//! [`figures::FIGURES`], whose distinct cells each run once.
//! `micro_primitives` holds Criterion micro-benches over the hot
//! primitives.
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
use std::path::{Path, PathBuf};

use sgx_workloads::Scale;

pub mod figures;

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
        Err(_) => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("the crate sits two levels below the workspace root")
            .join("results"),
    }
}

/// Writes `<dir>/<name>`, creating `dir` on demand. I/O failures are
/// reported to stderr but never fail the bench.
pub(crate) fn write_artifact(dir: &Path, name: &str, contents: &str) -> Option<PathBuf> {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(name);
    match fs::write(&path, contents) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
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

    /// The experiment id: the CSV file's name without `.csv`.
    pub fn id(&self) -> &'static str {
        self.id
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

    /// The table as RFC 4180 CSV: a `label` column, then the columns. A
    /// cell holding a `,`, `"` or line break is quoted, with inner quotes
    /// doubled, so thousands separators and prose stay in their column.
    pub fn csv(&self) -> String {
        let mut csv = String::new();
        push_csv_record(&mut csv, "label", &self.columns);
        for (label, cells) in &self.rows {
            push_csv_record(&mut csv, label, cells);
        }
        csv
    }

    /// Prints the table and writes `<dir>/<id>.csv`. I/O failures on the
    /// CSV are reported to stderr but never fail the bench.
    pub fn finish(&self, dir: &Path) {
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
        if let Some(path) = write_artifact(dir, &format!("{}.csv", self.id), &self.csv()) {
            println!("   -> {}", path.display());
        }
    }
}

/// Appends one CSV record: `first`, then `rest`, each quoted where needed.
fn push_csv_record(out: &mut String, first: &str, rest: &[String]) {
    for (i, field) in std::iter::once(first)
        .chain(rest.iter().map(String::as_str))
        .enumerate()
    {
        out.push_str(if i == 0 { "" } else { "," });
        if field.contains([',', '"', '\n', '\r']) {
            let _ = write!(out, "\"{}\"", field.replace('"', "\"\""));
        } else {
            out.push_str(field);
        }
    }
    out.push('\n');
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
    fn csv_quotes_commas_quotes_and_line_breaks() {
        let dir = std::env::temp_dir().join(format!("sgx_bench_table_{}", std::process::id()));
        let mut t = ResultTable::new("q", "t", "n");
        t.columns(vec!["cycles", "class"]);
        t.row("r1", vec!["1", "2"]);
        t.row("a,b", vec!["1,625,292,800", "large, regular"]);
        t.row("r", vec!["say \"hi\"", "two\nlines"]);
        assert_eq!(
            t.csv(),
            "label,cycles,class\nr1,1,2\n\
             \"a,b\",\"1,625,292,800\",\"large, regular\"\n\
             r,\"say \"\"hi\"\"\",\"two\nlines\"\n"
        );
        t.finish(&dir);
        assert_eq!(std::fs::read_to_string(dir.join("q.csv")).unwrap(), t.csv());
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

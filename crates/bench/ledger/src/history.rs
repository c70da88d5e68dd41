//! The append-only record: one JSON line per (workload, metric) per
//! recorded run, and the compare against the last committed line.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

use crate::json::{quote, Json};
use crate::stats::{verdict, Summary, Verdict};
use crate::MetricDef;

/// One recorded measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Unix seconds of the `ledger` invocation; lines sharing it form one
    /// recorded set.
    pub run: u64,
    /// Commit the binary was built from (`unknown` outside a git checkout).
    pub commit: String,
    /// Cores the machine offered.
    pub nproc: usize,
    /// Workload seed.
    pub seed: u64,
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// The reduced samples.
    pub summary: Summary,
}

impl Record {
    /// The record as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let s = &self.summary;
        format!(
            "{{\"run\":{},\"commit\":{},\"nproc\":{},\"seed\":{},\"workload\":{},\
             \"metric\":{},\"unit\":{},\"median\":{},\"min\":{},\"max\":{},\"n\":{}}}",
            self.run,
            quote(&self.commit),
            self.nproc,
            self.seed,
            quote(&self.workload),
            quote(&self.metric),
            quote(&self.unit),
            s.median,
            s.min,
            s.max,
            s.n
        )
    }

    /// Parses a line written by [`Record::to_json`].
    ///
    /// # Errors
    ///
    /// A message naming the malformed or missing field.
    pub fn parse(line: &str) -> Result<Record, String> {
        let v = Json::parse(line)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::num)
                .ok_or_else(|| format!("history line lacks number {k:?}"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::str)
                .map(str::to_string)
                .ok_or_else(|| format!("history line lacks string {k:?}"))
        };
        Ok(Record {
            run: num("run")? as u64,
            commit: text("commit")?,
            nproc: num("nproc")? as usize,
            seed: num("seed")? as u64,
            workload: text("workload")?,
            metric: text("metric")?,
            unit: text("unit")?,
            summary: Summary {
                median: num("median")?,
                min: num("min")?,
                max: num("max")?,
                n: num("n")? as usize,
            },
        })
    }
}

/// Reads every record; a missing file is an empty history.
///
/// # Errors
///
/// The first unreadable or malformed line, with its line number.
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1)))
        .collect()
}

/// Appends `records`, one line each, flushing before returning.
///
/// # Errors
///
/// Any I/O failure.
pub fn append(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.to_json());
        text.push('\n');
    }
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(text.as_bytes())
        .and_then(|()| f.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One line of a compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// The last record's median, when there is one.
    pub old: Option<f64>,
    /// The fresh median.
    pub new: f64,
    /// `None` when no earlier record exists.
    pub verdict: Option<Verdict>,
}

/// Compares each fresh record with the latest earlier record of the same
/// workload, metric, seed and `nproc`, under the bound and direction `defs`
/// give it. Records at another seed or core count are never compared: the
/// simulated metrics move with the seed. Metrics without a definition are
/// skipped.
pub fn compare(fresh: &[Record], history: &[Record], defs: &[MetricDef]) -> Vec<Comparison> {
    fresh
        .iter()
        .filter_map(|r| {
            let def = defs.iter().find(|d| d.name == r.metric)?;
            let last = history.iter().rev().find(|h| {
                (&h.workload, &h.metric, h.seed, h.nproc)
                    == (&r.workload, &r.metric, r.seed, r.nproc)
            });
            Some(Comparison {
                workload: r.workload.clone(),
                metric: r.metric.clone(),
                old: last.map(|h| h.summary.median),
                new: r.summary.median,
                verdict: last.map(|h| {
                    let bound = def.share_bound(h.summary.median);
                    verdict(&h.summary, &r.summary, bound, def.better)
                }),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Better;

    fn rec(workload: &str, metric: &str, median: f64, spread: f64) -> Record {
        Record {
            run: 1,
            commit: "abc".into(),
            nproc: 2,
            seed: 42,
            workload: workload.into(),
            metric: metric.into(),
            unit: "s".into(),
            summary: Summary {
                median,
                min: median - spread,
                max: median + spread,
                n: 3,
            },
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = rec("paper-grid", "wall_s", 2.125, 0.0625);
        assert_eq!(Record::parse(&r.to_json()).unwrap(), r);
        assert!(Record::parse("{\"run\":1}").is_err());
    }

    fn def(name: &str, bound: f64, floor: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "s".into(),
            better: Better::Lower,
            bound,
            floor,
        }
    }

    #[test]
    fn compare_uses_the_latest_record_and_the_bound() {
        let defs = [def("wall_s", 0.10, 0.0)];
        let history = vec![
            rec("paper-grid", "wall_s", 1.0, 0.01),
            rec("paper-grid", "wall_s", 2.0, 0.01),
        ];
        let fresh = [
            rec("paper-grid", "wall_s", 2.5, 0.01),
            rec("zoo-edmm", "wall_s", 7.0, 0.01),
            rec("paper-grid", "not_a_metric", 1.0, 0.0),
        ];
        let got = compare(&fresh, &history, &defs);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].old, Some(2.0));
        assert_eq!(got[0].verdict, Some(Verdict::Worse));
        assert_eq!(got[1].verdict, None, "no earlier record");
    }

    #[test]
    fn compare_matches_seed_and_nproc() {
        let defs = [def("sim_gcycles", 0.0, 0.0)];
        let at = |seed, nproc, median| Record {
            seed,
            nproc,
            ..rec("paper-grid", "sim_gcycles", median, 0.0)
        };
        // The latest record is at another seed, the one before at another
        // core count; only the oldest matches.
        let history = vec![at(42, 2, 746.0), at(42, 4, 700.0), at(7, 2, 754.0)];
        let got = compare(&[at(42, 2, 746.0)], &history, &defs);
        assert_eq!(got[0].old, Some(746.0));
        assert_eq!(got[0].verdict, Some(Verdict::Same));
        // A seed with no record is new, not a change of an exact metric.
        let got = compare(&[at(9, 2, 751.0)], &history, &defs);
        assert_eq!((got[0].old, got[0].verdict), (None, None));
    }

    #[test]
    fn the_floor_widens_the_bound_for_small_medians() {
        let defs = [def("setup_s", 0.25, 0.05)];
        let history = vec![rec("zoo-edmm", "setup_s", 0.085, 0.001)];
        // +41%, but only 35 ms: inside the floor.
        let got = compare(&[rec("zoo-edmm", "setup_s", 0.120, 0.001)], &history, &defs);
        assert_eq!(got[0].verdict, Some(Verdict::Same));
        // 60 ms slower is past both the share and the floor.
        let got = compare(&[rec("zoo-edmm", "setup_s", 0.145, 0.001)], &history, &defs);
        assert_eq!(got[0].verdict, Some(Verdict::Worse));
    }

    #[test]
    fn append_then_load() {
        let dir = std::env::temp_dir().join(format!("ledger-history-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(load(&path).unwrap().is_empty());
        let a = rec("observe", "wall_s", 5.0, 0.1);
        let b = rec("contend", "setup_s", 0.5, 0.01);
        append(&path, std::slice::from_ref(&a)).unwrap();
        append(&path, std::slice::from_ref(&b)).unwrap();
        assert_eq!(load(&path).unwrap(), vec![a, b]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

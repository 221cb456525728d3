//! `compare <A> <B>`: a per workload × metric table of two ledger rows
//! with a verdict per end-to-end metric.
//!
//! * `ok` — B's median is no worse than A's by more than the metric's bound;
//! * `regressed` — it is worse by more than the bound (or an exact metric
//!   — a count or modeled outcome — differs at all);
//! * `unresolved` — the run-to-run spread (interquartile distance ÷
//!   median, the wider of the two rows) exceeds the bound, so the rows
//!   cannot tell, unless B's quartiles lie wholly on the better side of A's.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::summary::Quartiles;
use hermes_util::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// Outcome of comparing one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound, or an exact metric moved.
    Regressed,
    /// Spread wider than the bound.
    Unresolved,
    /// A per-layer timing: shown for attribution, carries no bound.
    Info,
}

impl Verdict {
    /// Printed form.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative:
/// better).
pub fn worsening(better: Better, a: &Quartiles, b: &Quartiles) -> f64 {
    if a.median == 0.0 {
        return if b.median == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b.median - a.median) / a.median.abs(),
        Better::Higher => (a.median - b.median) / a.median.abs(),
    }
}

/// Verdict for a bounded (end-to-end) metric.
pub fn judge(better: Better, bound: f64, a: &Quartiles, b: &Quartiles) -> Verdict {
    let spread = a.spread().max(b.spread());
    if spread > bound {
        // Every quartile of B on the better side of every quartile of A.
        let separated = match better {
            Better::Lower => b.q3 < a.q1,
            Better::Higher => b.q1 > a.q3,
        };
        return if separated {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(better, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Verdict for an exact metric: identical or regressed.
pub fn judge_exact(a: &Quartiles, b: &Quartiles) -> Verdict {
    if a.median == b.median || (a.median.is_nan() && b.median.is_nan()) {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// One compared metric.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Row A.
    pub a: Quartiles,
    /// Row B.
    pub b: Quartiles,
    /// Worsening of B over A (share of A's median).
    pub worse: f64,
    /// The bound (`None` for exact and unbounded metrics).
    pub bound: Option<f64>,
    /// Verdict.
    pub verdict: Verdict,
}

/// The comparison of two ledger rows.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every compared metric.
    pub rows: Vec<Row>,
}

impl Report {
    /// No `regressed` and no `unresolved` row.
    pub fn all_ok(&self) -> bool {
        self.rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Info))
    }

    /// The table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:<38} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:<7} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "A.median",
            "A.q1",
            "A.q3",
            "B.median",
            "B.q1",
            "B.q3",
            "unit",
            "worse",
            "bound"
        );
        for r in &self.rows {
            let bound = r
                .bound
                .map_or("exact".to_string(), |b| format!("{:.0}%", b * 100.0));
            let _ = writeln!(
                s,
                "{:<14} {:<38} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:<7} {:>+7.1}% {:>6}  {}",
                r.workload,
                r.metric,
                r.a.median,
                r.a.q1,
                r.a.q3,
                r.b.median,
                r.b.q1,
                r.b.q3,
                r.unit,
                r.worse * 100.0,
                if r.verdict == Verdict::Info { "-".to_string() } else { bound },
                r.verdict.as_str()
            );
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            s,
            "{} ok, {} regressed, {} unresolved",
            count(Verdict::Ok),
            count(Verdict::Regressed),
            count(Verdict::Unresolved)
        );
        s
    }
}

fn metric_of(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Quartiles> {
    doc.get("workloads")?
        .get(workload)?
        .get(section)?
        .get("metrics")?
        .get(metric)
        .and_then(Quartiles::from_json)
}

/// Compares two parsed ledger documents.
pub fn compare_docs(a: &Json, b: &Json) -> Report {
    let mut report = Report::default();
    let Some(Json::Obj(workloads)) = a.get("workloads") else {
        return report;
    };
    for (w, _) in workloads {
        for m in END_TO_END {
            let (Some(qa), Some(qb)) = (
                metric_of(a, w, "end_to_end", m.name),
                metric_of(b, w, "end_to_end", m.name),
            ) else {
                continue;
            };
            report.rows.push(Row {
                workload: w.clone(),
                metric: m.name,
                unit: m.unit,
                worse: worsening(m.better, &qa, &qb),
                bound: Some(m.bound),
                verdict: judge(m.better, m.bound, &qa, &qb),
                a: qa,
                b: qb,
            });
        }
        for m in PER_LAYER {
            let (Some(qa), Some(qb)) = (
                metric_of(a, w, "per_layer", m.name),
                metric_of(b, w, "per_layer", m.name),
            ) else {
                continue;
            };
            if qa.median == 0.0 && qb.median == 0.0 {
                continue; // layer idle on this workload in both rows
            }
            report.rows.push(Row {
                workload: w.clone(),
                metric: m.name,
                unit: m.unit,
                worse: worsening(m.better, &qa, &qb),
                bound: None,
                verdict: if m.exact() {
                    judge_exact(&qa, &qb)
                } else {
                    Verdict::Info
                },
                a: qa,
                b: qb,
            });
        }
    }
    report
}

fn load(path: &Path) -> Result<Json, String> {
    let file = if path.is_dir() {
        path.join("ledger.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    Json::parse(text.trim()).map_err(|e| format!("{}: {e}", file.display()))
}

/// Compares two ledger rows given as directories (holding `ledger.json`)
/// or files.
pub fn compare_paths(a: &Path, b: &Path) -> Result<Report, String> {
    let (da, db) = (load(a)?, load(b)?);
    let report = compare_docs(&da, &db);
    if report.rows.is_empty() {
        return Err("the two ledger rows share no metric".into());
    }
    Ok(report)
}

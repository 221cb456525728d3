//! The `hermes-matrix-report/1` document writer.
//!
//! Two flavors share one layout:
//!
//! * **full** (`kind: "full"`) — everything, including the `measured`
//!   section (wall-clock, RSS, CPU) that jitters run to run. This is
//!   what `scripts/perfgate.py wallclock` reads.
//! * **canonical** (`kind: "canonical"`) — the `measured` section is
//!   omitted, leaving only data derived from the children's BENCH
//!   reports and exit statuses. For a fixed matrix and seeds the
//!   canonical document is **byte-identical across runs**; the
//!   determinism tests compare these bytes.
//!
//! Keys appear in a fixed order so documents diff cleanly across
//! commits, mirroring `hermes-bench-report/1`.

use crate::merge::MergedScenario;
use crate::run::{MatrixRun, ScenarioRun};
use hermes_util::json::{Json, ToJson};
use hermes_util::stats::{quantile_sorted, sort_samples};

/// Matrix report schema identifier; bump on any layout change.
pub const SCHEMA: &str = "hermes-matrix-report/1";

/// Builds the report document. `canonical` selects the byte-stable
/// flavor (no `measured` section).
pub fn build(run: &MatrixRun, canonical: bool) -> Json {
    Json::obj([
        ("schema", SCHEMA.to_json()),
        (
            "kind",
            if canonical { "canonical" } else { "full" }.to_json(),
        ),
        (
            "scenarios",
            Json::Arr(
                run.scenarios
                    .iter()
                    .map(|s| scenario_json(s, canonical))
                    .collect(),
            ),
        ),
    ])
}

fn scenario_json(s: &ScenarioRun, canonical: bool) -> Json {
    let errors: Vec<Json> = s
        .reps
        .iter()
        .filter_map(|r| {
            r.error
                .as_ref()
                .map(|e| format!("rep {}: {e}", r.rep).to_json())
        })
        .collect();
    let mut pairs = vec![
        ("name".to_string(), s.name.to_json()),
        ("bin".to_string(), s.bin.to_json()),
        ("runs".to_string(), (s.runs as u64).to_json()),
        (
            "clean_reps".to_string(),
            ((s.runs as u64) - s.failures()).to_json(),
        ),
        ("errors".to_string(), Json::Arr(errors)),
        ("merged".to_string(), merged_json(&s.merged)),
    ];
    if !canonical {
        pairs.push(("measured".to_string(), measured_json(s)));
    }
    Json::Obj(pairs)
}

fn merged_json(m: &MergedScenario) -> Json {
    let counters = Json::obj(m.counters.iter().map(|(name, reps)| {
        let mut vals: Vec<f64> = reps.iter().map(|&v| v as f64).collect();
        sort_samples(&mut vals);
        let equal = reps.windows(2).all(|w| w[0] == w[1]);
        (
            name.clone(),
            Json::obj([
                (
                    "reps",
                    Json::Arr(reps.iter().map(|&v| Json::Int(v as i128)).collect()),
                ),
                ("min", quantile_sorted(&vals, 0.0).to_json()),
                ("p50", quantile_sorted(&vals, 0.5).to_json()),
                ("max", quantile_sorted(&vals, 1.0).to_json()),
                ("equal_across_reps", equal.to_json()),
            ]),
        )
    }));
    let histograms = Json::obj(m.histograms.iter().map(|(name, h)| {
        (
            name.clone(),
            Json::obj([
                ("count", h.count.to_json()),
                ("sum", Json::Int(h.sum)),
                ("min", h.min.to_json()),
                ("max", h.max.to_json()),
                ("p50", h.quantile(0.50).to_json()),
                ("p95", h.quantile(0.95).to_json()),
                ("p99", h.quantile(0.99).to_json()),
            ]),
        )
    }));
    Json::obj([
        ("reports", m.reports.to_json()),
        ("counters", counters),
        ("histograms", histograms),
    ])
}

fn measured_json(s: &ScenarioRun) -> Json {
    let wall: Vec<f64> = s.reps.iter().map(|r| r.wall_ms).collect();
    let rss: Vec<f64> = s.reps.iter().map(|r| r.max_rss_bytes as f64).collect();
    let cpu: Vec<f64> = s.reps.iter().map(|r| r.cpu_ms).collect();
    Json::obj([
        ("wall_ms", series_json(&wall, true)),
        ("max_rss_bytes", series_json(&rss, false)),
        ("cpu_ms", series_json(&cpu, false)),
    ])
}

/// Summary of one measured series: per-rep values, nearest-rank
/// percentiles, and (for wall-clock) a normal-approximation 95%
/// confidence half-width on the mean.
fn series_json(values: &[f64], with_ci: bool) -> Json {
    let mut sorted = values.to_vec();
    sort_samples(&mut sorted);
    let mut pairs = vec![
        (
            "reps".to_string(),
            Json::Arr(values.iter().map(|v| v.to_json()).collect()),
        ),
        ("mean".to_string(), mean(values).to_json()),
        ("p50".to_string(), quantile_sorted(&sorted, 0.5).to_json()),
        ("p90".to_string(), quantile_sorted(&sorted, 0.9).to_json()),
        ("max".to_string(), quantile_sorted(&sorted, 1.0).to_json()),
    ];
    if with_ci {
        pairs.push((
            "ci95_halfwidth".to_string(),
            ci95_halfwidth(values).to_json(),
        ));
    }
    Json::Obj(pairs)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// 1.96·s/√n with the sample standard deviation; 0 for n < 2.
pub fn ci95_halfwidth(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64;
    1.96 * var.sqrt() / (n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RepResult;

    fn rep(rep: u32, wall_ms: f64, error: Option<&str>) -> RepResult {
        RepResult {
            rep,
            exit_code: Some(if error.is_some() { 1 } else { 0 }),
            wall_ms,
            max_rss_bytes: 1000 + rep as u64,
            cpu_ms: wall_ms / 2.0,
            samples: 1,
            error: error.map(str::to_string),
        }
    }

    fn one_scenario_run() -> MatrixRun {
        let mut merged = MergedScenario::default();
        merged.counters.insert("x.n".into(), vec![5, 5, 7]);
        merged.reports = 3;
        MatrixRun {
            scenarios: vec![ScenarioRun {
                name: "s".into(),
                bin: "stub".into(),
                runs: 3,
                reps: vec![
                    rep(0, 10.0, None),
                    rep(1, 12.0, None),
                    rep(2, 11.0, Some("exit code 3")),
                ],
                merged,
            }],
        }
    }

    #[test]
    fn canonical_excludes_measured_and_is_stable() {
        let run = one_scenario_run();
        let canon = build(&run, true);
        let full = build(&run, false);
        assert_eq!(canon.get("kind").and_then(Json::as_str), Some("canonical"));
        let sc = |doc: &Json| {
            doc.get("scenarios")
                .and_then(Json::as_arr)
                .map(|a| a[0].clone())
        };
        let c = sc(&canon).expect("scenario present");
        let f = sc(&full).expect("scenario present");
        assert!(c.get("measured").is_none(), "canonical must drop measured");
        assert!(f.get("measured").is_some());
        assert_eq!(c.get("clean_reps").and_then(Json::as_f64), Some(2.0));
        // Same input → same bytes: the determinism contract.
        assert_eq!(build(&run, true).to_string(), canon.to_string());
    }

    #[test]
    fn counter_summary_has_percentiles_and_equality_flag() {
        let doc = build(&one_scenario_run(), true);
        let counters = doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .and_then(|a| a[0].get("merged"))
            .and_then(|m| m.get("counters"))
            .cloned()
            .expect("counters present");
        let xn = counters.get("x.n").expect("x.n summarized");
        assert_eq!(xn.get("p50").and_then(Json::as_f64), Some(5.0));
        assert_eq!(xn.get("max").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            xn.get("equal_across_reps"),
            Some(&Json::Bool(false)),
            "5,5,7 is not rep-stable"
        );
    }

    #[test]
    fn ci_halfwidth_basics() {
        assert_eq!(ci95_halfwidth(&[]), 0.0);
        assert_eq!(ci95_halfwidth(&[3.0]), 0.0);
        assert_eq!(ci95_halfwidth(&[5.0, 5.0, 5.0]), 0.0);
        let hw = ci95_halfwidth(&[10.0, 12.0, 14.0]);
        assert!(hw > 0.0 && hw < 4.0, "hw {hw}");
    }
}

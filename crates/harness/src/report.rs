//! The `hermes-matrix-report/2` document writer.
//!
//! One document per matrix run: for each scenario its rep verdicts
//! (`runs`, `clean_reps`, `errors`) and the two measured series the
//! `scripts/perfgate.py` envelopes read (`wall_ms`, `max_rss_bytes`),
//! each as per-rep values plus their nearest-rank median and maximum.
//!
//! Keys appear in a fixed order so documents diff cleanly across
//! commits, mirroring `hermes-bench-report/1`.

use crate::run::{MatrixRun, ScenarioRun};
use hermes_util::json::{Json, ToJson};
use hermes_util::stats::{quantile_sorted, sort_samples};

/// Matrix report schema identifier; bump on any layout change.
pub const SCHEMA: &str = "hermes-matrix-report/2";

/// Builds the report document.
pub fn build(run: &MatrixRun) -> Json {
    Json::obj([
        ("schema", SCHEMA.to_json()),
        (
            "scenarios",
            Json::Arr(run.scenarios.iter().map(scenario_json).collect()),
        ),
    ])
}

fn scenario_json(s: &ScenarioRun) -> Json {
    let errors: Vec<Json> = s
        .reps
        .iter()
        .filter_map(|r| {
            r.error
                .as_ref()
                .map(|e| format!("rep {}: {e}", r.rep).to_json())
        })
        .collect();
    let wall: Vec<f64> = s.reps.iter().map(|r| r.wall_ms).collect();
    let rss: Vec<f64> = s.reps.iter().map(|r| r.max_rss_bytes as f64).collect();
    Json::obj([
        ("name", s.name.to_json()),
        ("bin", s.bin.to_json()),
        ("runs", (s.runs as u64).to_json()),
        ("clean_reps", ((s.runs as u64) - s.failures()).to_json()),
        ("errors", Json::Arr(errors)),
        (
            "measured",
            Json::obj([
                ("wall_ms", series_json(&wall)),
                ("max_rss_bytes", series_json(&rss)),
            ]),
        ),
    ])
}

/// One measured series: per-rep values, nearest-rank median and maximum.
fn series_json(values: &[f64]) -> Json {
    let mut sorted = values.to_vec();
    sort_samples(&mut sorted);
    Json::obj([
        (
            "reps",
            Json::Arr(values.iter().map(|v| v.to_json()).collect()),
        ),
        ("p50", quantile_sorted(&sorted, 0.5).to_json()),
        ("max", quantile_sorted(&sorted, 1.0).to_json()),
    ])
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
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn report_carries_verdicts_and_measured_medians() {
        let run = MatrixRun {
            scenarios: vec![ScenarioRun {
                name: "s".into(),
                bin: "stub".into(),
                runs: 3,
                reps: vec![
                    rep(0, 10.0, None),
                    rep(1, 12.0, None),
                    rep(2, 11.0, Some("exit code 3")),
                ],
            }],
        };
        let doc = build(&run);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let sc = doc
            .get("scenarios")
            .and_then(Json::as_arr)
            .map(|a| a[0].clone())
            .expect("scenario present");
        assert_eq!(sc.get("clean_reps").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            sc.get("errors").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let series = |key: &str, stat: &str| {
            sc.get("measured")
                .and_then(|m| m.get(key))
                .and_then(|s| s.get(stat))
                .and_then(Json::as_f64)
        };
        assert_eq!(series("wall_ms", "p50"), Some(11.0));
        assert_eq!(series("wall_ms", "max"), Some(12.0));
        assert_eq!(series("max_rss_bytes", "p50"), Some(1001.0));
        // Same input → same bytes.
        assert_eq!(build(&run).to_string(), doc.to_string());
    }
}

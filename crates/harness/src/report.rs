//! The `hermes-matrix-report/3` document writer.
//!
//! One document per matrix run: for each scenario its rep verdicts
//! (`runs`, `clean_reps`, `errors`). Host time is the perf ledger's
//! (DESIGN.md §11); the harness records none.
//!
//! Keys appear in a fixed order so documents diff cleanly across
//! commits, mirroring `hermes-bench-report/1`.

use crate::run::{MatrixRun, ScenarioRun};
use hermes_util::json::{Json, ToJson};

/// Matrix report schema identifier; bump on any layout change.
pub const SCHEMA: &str = "hermes-matrix-report/3";

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
    Json::obj([
        ("name", s.name.to_json()),
        ("bin", s.bin.to_json()),
        ("runs", (s.runs as u64).to_json()),
        ("clean_reps", ((s.runs as u64) - s.failures()).to_json()),
        ("errors", Json::Arr(errors)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RepResult;

    fn rep(rep: u32, error: Option<&str>) -> RepResult {
        RepResult {
            rep,
            exit_code: Some(if error.is_some() { 1 } else { 0 }),
            error: error.map(str::to_string),
        }
    }

    #[test]
    fn report_carries_the_verdicts_only() {
        let run = MatrixRun {
            scenarios: vec![ScenarioRun {
                name: "s".into(),
                bin: "stub".into(),
                runs: 3,
                reps: vec![rep(0, None), rep(1, None), rep(2, Some("exit code 3"))],
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
        assert!(sc.get("measured").is_none(), "no host-time section");
        // Same input → same bytes.
        assert_eq!(build(&run).to_string(), doc.to_string());
    }
}

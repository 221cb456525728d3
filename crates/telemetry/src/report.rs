//! The `BENCH_<exp>.json` report writer.
//!
//! Every experiment binary emits one report document per run (via
//! `hermes_bench::run_experiment`), versioned under [`SCHEMA`]. The layout
//! is schema-stable: every top-level key is always present, in a fixed
//! order, so perf trajectories can be diffed across commits. All content
//! is a pure function of the run's seeds and the caller's arguments — the
//! git revision is one of them (`hermes_bench` reads `HERMES_GIT_REV`).

use crate::metrics::Registry;
use crate::trace::Tracer;
use hermes_util::json::{Json, ToJson};

/// Report schema identifier; bump on any layout change.
pub const SCHEMA: &str = "hermes-bench-report/1";

/// Assembles the full report document from a run's telemetry state.
///
/// `git_rev` is stamped verbatim; `meta` is the experiment's own
/// key/value context (seed, scale, config knobs) in registration order.
pub fn build(
    experiment: &str,
    git_rev: &str,
    enabled: bool,
    meta: &[(String, Json)],
    registry: &Registry,
    tracer: &Tracer,
) -> Json {
    let (counters, gauges, histograms, series) = registry.to_json_parts();
    let (spans, trace) = tracer.to_json_parts();
    Json::obj([
        ("schema", SCHEMA.to_json()),
        ("experiment", experiment.to_json()),
        ("git_rev", git_rev.to_json()),
        ("telemetry_enabled", enabled.to_json()),
        (
            "meta",
            Json::obj(meta.iter().map(|(k, v)| (k.clone(), v.clone()))),
        ),
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
        ("series", series),
        ("spans", spans),
        ("trace", trace),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_layout_is_schema_stable() {
        let reg = Registry::default();
        let tr = Tracer::default();
        let doc = build("unit", "unknown", false, &[("seed".into(), 7u64.to_json())], &reg, &tr);
        for key in [
            "schema",
            "experiment",
            "git_rev",
            "telemetry_enabled",
            "meta",
            "counters",
            "gauges",
            "histograms",
            "series",
            "spans",
            "trace",
        ] {
            assert!(doc.get(key).is_some(), "missing key {key}");
        }
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            doc.get("meta").and_then(|m| m.get("seed")).and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn git_rev_is_stamped_verbatim() {
        let doc = build("unit", "deadbeef", false, &[], &Registry::default(), &Tracer::default());
        assert_eq!(doc.get("git_rev").and_then(Json::as_str), Some("deadbeef"));
    }
}

//! The committed scenario matrix and the harness report pipeline.
//!
//! Two guarantees pinned here, from the workspace root so they see the
//! real `scenarios/matrix.toml` and the real experiment binaries:
//!
//! 1. The committed matrix is well-formed: every required scenario is
//!    present with the contracted repetition count, and every referenced
//!    binary is a real `crates/bench` experiment (or the matrix drifts
//!    from the workspace silently).
//! 2. The `hermes-matrix-report/1` canonical summary is a pure function
//!    of the children's BENCH reports: building it twice from the same
//!    merged data is byte-identical, and none of the jittery measured
//!    fields (wall/RSS/CPU) leak into it. The process-level version of
//!    this assertion (real spawns, real /proc sampling) lives in
//!    `crates/harness/tests/fixture.rs`.

use hermes_harness::{report, MatrixRun, RepResult, ScenarioRun};
use hermes_util::json::Json;
use hermes_util::scenario::Matrix;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn committed_matrix() -> Matrix {
    Matrix::load(&repo_root().join("scenarios/matrix.toml")).expect("committed matrix parses")
}

#[test]
fn committed_matrix_has_the_contracted_scenarios() {
    let matrix = committed_matrix();
    // The full tier: N ≥ 5 seeded reps each (ISSUE 6 acceptance).
    for name in [
        "baseline",
        "fan-out",
        "churn-storm",
        "chaos-suite",
        "1m-preload",
        "bgp-replay",
    ] {
        let sc = matrix
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name:?} missing from scenarios/matrix.toml"));
        assert!(sc.runs >= 5, "{name}: full-tier scenarios need ≥5 reps, got {}", sc.runs);
    }
    // The CI smoke tier stays cheap.
    for name in ["smoke-chaos", "smoke-crash", "smoke-fleet"] {
        let sc = matrix.get(name).expect("smoke scenario present");
        assert!(sc.runs >= 3, "{name}: smoke needs ≥3 reps for a median");
    }
    assert_eq!(
        matrix.get("1m-preload").map(|s| s.scale),
        Some(10),
        "1m-preload must drive exp_scale to 1M rules"
    );
    assert_eq!(
        matrix.get("chaos-suite").and_then(|s| s.fault_seed),
        Some(42),
        "chaos-suite must arm the fault plan"
    );
}

#[test]
fn committed_matrix_binaries_exist_in_the_workspace() {
    let bins_dir = repo_root().join("crates/bench/src/bin");
    for sc in &committed_matrix().scenarios {
        let src = bins_dir.join(format!("{}.rs", sc.bin));
        assert!(
            src.is_file(),
            "scenario {:?} names binary {:?} but {} does not exist",
            sc.name,
            sc.bin,
            src.display()
        );
    }
}

/// A synthetic run with both merged (deterministic) and measured
/// (jittery) data, so the canonical/full split is observable.
fn synthetic_run(wall_ms: f64) -> MatrixRun {
    let bench_report = Json::parse(
        r#"{"schema": "hermes-bench-report/1", "counters": {"x.ops": 41},
            "histograms": {"x.ns": {"count": 2, "sum": 20, "min": 8, "max": 12,
                                    "buckets": [[8, 2]]}}}"#,
    )
    .expect("static fixture parses");
    let mut sc = ScenarioRun {
        name: "synthetic".into(),
        bin: "stub".into(),
        runs: 2,
        reps: Vec::new(),
        merged: Default::default(),
    };
    for rep in 0..2 {
        sc.merged.absorb(&bench_report).expect("fixture report merges");
        sc.reps.push(RepResult {
            rep,
            exit_code: Some(0),
            wall_ms: wall_ms + rep as f64,
            max_rss_bytes: 4096 * (rep as u64 + 1),
            cpu_ms: wall_ms / 2.0,
            samples: 3,
            error: None,
        });
    }
    MatrixRun { scenarios: vec![sc] }
}

#[test]
fn canonical_summary_is_independent_of_measured_jitter() {
    // Same merged BENCH data, wildly different wall clocks: the
    // canonical summaries must still be byte-identical.
    let fast = report::build(&synthetic_run(10.0), true).to_string();
    let slow = report::build(&synthetic_run(9000.0), true).to_string();
    assert_eq!(fast, slow, "measured jitter leaked into the canonical summary");
    assert!(
        !fast.contains("measured"),
        "canonical summary must omit the measured section"
    );

    // The full report DOES see the difference — that is its job.
    let full_fast = report::build(&synthetic_run(10.0), false).to_string();
    let full_slow = report::build(&synthetic_run(9000.0), false).to_string();
    assert_ne!(full_fast, full_slow);
    assert!(full_fast.contains("measured"));

    // And building the same flavor twice is pure.
    assert_eq!(full_fast, report::build(&synthetic_run(10.0), false).to_string());
}

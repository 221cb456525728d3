//! The committed scenario matrix, the harness report pipeline, and the
//! build contracts the experiments rest on.
//!
//! Three guarantees pinned here, from the workspace root so they see the
//! real `scenarios/matrix.toml`, lockfiles and experiment binaries:
//!
//! 1. The committed matrix is well-formed: every required scenario is
//!    present with the contracted repetition count, every referenced
//!    binary is a real `crates/bench` experiment, and every knob it sets
//!    is read by that binary (or the matrix drifts from the workspace
//!    silently).
//! 2. The `hermes-matrix-report/1` canonical summary is a pure function
//!    of the children's BENCH reports: building it twice from the same
//!    merged data is byte-identical, and none of the jittery measured
//!    fields (wall/RSS/CPU) leak into it. The process-level version of
//!    this assertion (real spawns, real /proc sampling) lives in
//!    `crates/harness/tests/fixture.rs`.
//! 3. The build is hermetic and every experiment goes through the one
//!    wrapper: neither lockfile records an external package, and every
//!    `exp_*` binary calls `hermes_bench::run_experiment("<its stem>", …)`
//!    (DESIGN.md §6, §9).

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

/// Does `src` read the knob through a `knob_*("<name>"` call?
fn reads_knob(src: &str, name: &str) -> bool {
    src.match_indices(&format!("(\"{name}\"")).any(|(i, _)| {
        src[..i]
            .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .is_some_and(|call| call.starts_with("knob_"))
    })
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
        // A knob the binary no longer reads would be ignored silently.
        let text = std::fs::read_to_string(&src).expect("binary source is readable");
        for name in sc.knobs.keys() {
            assert!(
                reads_knob(&text, name),
                "scenario {:?} sets knobs.{name} but {} never reads it via knob_*(\"{name}\", …)",
                sc.name,
                src.display()
            );
        }
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

#[test]
fn lockfiles_record_no_external_package() {
    // A registry or git dependency anywhere in a manifest resolves to a
    // lockfile entry with a `source` key; workspace and path packages
    // have none.
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(repo_root().join(lock)).expect("lockfile is readable");
        let external: Vec<String> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| line.trim_start().starts_with("source ="))
            .map(|(i, line)| format!("{lock}:{}: {}", i + 1, line.trim()))
            .collect();
        assert!(
            external.is_empty(),
            "the build is hermetic (README \"Hermetic build\"): vendor the code into \
             crates/util or a new in-tree crate instead of\n{}",
            external.join("\n")
        );
    }
}

#[test]
fn every_experiment_binary_goes_through_run_experiment() {
    let bins_dir = repo_root().join("crates/bench/src/bin");
    let mut checked = 0;
    for entry in std::fs::read_dir(&bins_dir).expect("crates/bench/src/bin is readable") {
        let path = entry.expect("dir entry").path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if !stem.starts_with("exp_") || path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("binary source is readable");
        let call = format!("run_experiment(\"{stem}\"");
        assert!(
            src.lines()
                .any(|line| !line.trim_start().starts_with("//") && line.contains(&call)),
            "crates/bench/src/bin/{stem}.rs does not call \
             hermes_bench::run_experiment(\"{stem}\", …): the wrapper provides --out, \
             telemetry arming and panic containment, and the file-stem name keeps its \
             BENCH_*.json report traceable"
        );
        checked += 1;
    }
    assert!(checked >= 10, "found only {checked} exp_* binaries in {}", bins_dir.display());
}

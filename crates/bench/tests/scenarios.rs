//! The scenario matrix's verdicts (DESIGN.md §11): one test per scenario
//! of `scenarios/matrix.toml`, `#[ignore]`d because each runs an
//! experiment binary `runs` times, some of them for minutes.
//!
//! Rep `r` runs the scenario's binary through [`run_rep`] under
//! [`Scenario::env`]`(matrix, r)`. It fails on a non-zero exit, on running
//! past [`REP_TIMEOUT_S`] (the child is killed), or, when traced, on a
//! report that is missing, unparsable or not `hermes-bench-report/1`.
//! Rep 0 then runs a second time and must reproduce its stdout and report
//! byte for byte. Every rep runs before a test fails, and the failure
//! lists each bad rep. Host time is not judged: that is the perf ledger's
//! (`benchmark/`).
//!
//! Run all scenarios, or name some (test names are the scenario names
//! with `-` as `_`; `1m-preload` is `preload_1m`):
//!
//! ```text
//! cargo test --release --offline -p hermes-bench --test scenarios -- --ignored
//! cargo test --release --offline -p hermes-bench --test scenarios -- --ignored --exact smoke_crash baseline
//! ```

mod common;

use common::{exp_bin, fresh_dir};
use hermes_bench::run::{run_rep, REP_TIMEOUT_S};
use hermes_util::scenario::{Matrix, Scenario};
use std::path::Path;

const MATRIX: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/matrix.toml");

macro_rules! scenarios {
    ($($test:ident => $name:literal,)*) => {
        /// The scenarios that have a test, in matrix order.
        const SCENARIOS: &[&str] = &[$($name),*];
        $(
            #[test]
            #[ignore = "runs an experiment binary `runs` times; select with --ignored"]
            fn $test() {
                run_scenario($name);
            }
        )*
    };
}

scenarios! {
    baseline => "baseline",
    fan_out => "fan-out",
    churn_storm => "churn-storm",
    chaos_suite => "chaos-suite",
    crash_storm => "crash-storm",
    fleet_storm => "fleet-storm",
    preload_1m => "1m-preload",
    bgp_replay => "bgp-replay",
    smoke_chaos => "smoke-chaos",
    smoke_crash => "smoke-crash",
    smoke_fleet => "smoke-fleet",
}

fn matrix() -> Matrix {
    Matrix::load(Path::new(MATRIX)).expect("committed matrix parses")
}

/// Scenario `name` of the committed matrix.
fn committed(name: &str) -> Scenario {
    matrix()
        .get(name)
        .unwrap_or_else(|| panic!("scenario {name:?} not in {MATRIX}"))
        .clone()
}

/// Runs every rep of scenario `name`, then rep 0 again; fails listing
/// each bad rep.
fn run_scenario(name: &str) {
    let sc = &committed(name);
    let bin = exp_bin(&sc.bin);
    let dir = fresh_dir(&format!("scenarios/{name}"));
    let mut bad = Vec::new();
    let mut first = None;
    for rep in 0..sc.runs {
        match run_rep(&bin, Path::new(MATRIX), sc, rep, &dir, REP_TIMEOUT_S) {
            Ok(out) if rep == 0 => first = Some(out),
            Ok(_) => {}
            Err(e) => bad.push(format!("rep {rep}: {e}")),
        }
    }
    if let Some(first) = first {
        let again_dir = dir.join("again");
        std::fs::create_dir_all(&again_dir).expect("create the scratch dir");
        match run_rep(&bin, Path::new(MATRIX), sc, 0, &again_dir, REP_TIMEOUT_S) {
            Ok(again) if again == first => {}
            Ok(again) => {
                let verdict = |same: bool| if same { "same" } else { "differs" };
                bad.push(format!(
                    "rep 0 run twice: stdout {}, report {}",
                    verdict(again.stdout == first.stdout),
                    verdict(again.report == first.report),
                ));
            }
            Err(e) => bad.push(format!("rep 0 run twice: {e}")),
        }
    }
    assert!(
        bad.is_empty(),
        "{name} ({}, {} reps, files under {}):\n{}",
        sc.bin,
        sc.runs,
        dir.display(),
        bad.join("\n")
    );
}

#[test]
fn every_matrix_scenario_has_a_test() {
    let matrix = matrix();
    let names: Vec<&str> = matrix.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        SCENARIOS, names,
        "add a line to scenarios! for each scenario"
    );
}

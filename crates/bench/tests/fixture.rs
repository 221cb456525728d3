//! The rep runner (`hermes_bench::run`) against real experiment binaries,
//! under a matrix of this file's own so its knobs keep every rep small.
//!
//! What they pin: rep `r` of a scenario runs under `fault_seed + r` with
//! the matrix's knobs, and a non-zero exit, a timeout, or a missing or
//! malformed report fails the rep.

mod common;

use common::{exp_bin, fresh_dir};
use hermes_bench::run::{check_report, run_rep, RepOutput, REP_TIMEOUT_S};
use hermes_util::bench::Stopwatch;
use hermes_util::json::Json;
use hermes_util::scenario::{Matrix, Scenario};
use std::path::PathBuf;

const MATRIX: &str = r#"
schema = "hermes-scenario/1"

# A short crash storm (milliseconds a rep, debug build).
[scenario.seeded]
bin = "exp_crash"
runs = 3
fault_seed = 5
trace = true
knobs.count = 200
knobs.crash_period = 60

# Seconds a rep: long enough to still be running at a 0 s deadline.
[scenario.slow]
bin = "exp_fig12"
runs = 1
trace = true
"#;

/// A scratch dir holding [`MATRIX`] as `matrix.toml`; reps write there.
struct Fixture {
    dir: PathBuf,
    matrix_path: PathBuf,
    matrix: Matrix,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let dir = fresh_dir(&format!("fixture/{tag}"));
        let matrix_path = dir.join("matrix.toml");
        std::fs::write(&matrix_path, MATRIX).expect("write matrix");
        Fixture {
            dir,
            matrix_path,
            matrix: Matrix::parse(MATRIX).expect("fixture matrix parses"),
        }
    }

    fn scenario(&self, name: &str) -> Scenario {
        self.matrix
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name:?} not in the fixture matrix"))
            .clone()
    }

    fn run(&self, sc: &Scenario, rep: u32, deadline_s: u64) -> Result<RepOutput, String> {
        let bin = exp_bin(&sc.bin);
        run_rep(&bin, &self.matrix_path, sc, rep, &self.dir, deadline_s)
    }

    /// Rep `rep`'s report.
    fn report(&self, rep: u32) -> Json {
        let path = self.dir.join(format!("rep{rep}.json"));
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
        Json::parse(&text).unwrap_or_else(|e| panic!("{} invalid: {e:?}", path.display()))
    }
}

#[test]
fn merged_counters_reflect_per_rep_seeding() {
    let fx = Fixture::new("seeding");
    let sc = fx.scenario("seeded");
    for rep in 0..sc.runs {
        fx.run(&sc, rep, REP_TIMEOUT_S)
            .unwrap_or_else(|e| panic!("rep {rep}: {e}"));
        let report = fx.report(rep);
        let meta = |key: &str| report.get("meta").and_then(|m| m.get(key)).cloned();
        // fault_seed = 5 → reps see HERMES_FAULT_SEED 5, 6, 7.
        assert_eq!(
            meta("fault_seed"),
            Some(Json::Str((5 + rep).to_string())),
            "rep {rep}"
        );
        // The matrix's knobs reach every rep.
        assert_eq!(meta("scenario"), Some(Json::Str("seeded".to_string())));
        assert_eq!(meta("count").as_ref().and_then(Json::as_f64), Some(200.0));
        assert_eq!(
            meta("crash_period").as_ref().and_then(Json::as_f64),
            Some(60.0)
        );
    }
    // Another seed is another storm: the counters move with it.
    let counters = |rep| fx.report(rep).get("counters").cloned();
    assert!(counters(0).is_some());
    assert_ne!(counters(0), counters(1));
}

#[test]
fn nonzero_exit_is_a_rep_failure() {
    let fx = Fixture::new("nonzero_exit");
    // A scenario at a scale the binaries refuse.
    let sc = Scenario {
        scale: 0,
        ..fx.scenario("seeded")
    };
    let e = fx
        .run(&sc, 0, REP_TIMEOUT_S)
        .expect_err("HERMES_SCALE=0 must fail the rep");
    assert!(
        e.contains("exit status: 1") && e.contains("HERMES_SCALE=0 is not a positive integer"),
        "{e}"
    );
}

#[test]
fn hung_child_is_killed_and_reported_as_timed_out() {
    let fx = Fixture::new("timed_out");
    let clock = Stopwatch::start();
    let e = fx
        .run(&fx.scenario("slow"), 0, 0)
        .expect_err("a 0 s deadline fails the rep");
    assert_eq!(e, "timed out after 0 s");
    assert!(clock.elapsed().as_secs() < 30, "the child was not killed");
}

#[test]
fn malformed_report_is_a_rep_failure() {
    let fx = Fixture::new("reports");
    let sc = fx.scenario("seeded");
    // A clean exit that leaves no report where the runner reads it: a
    // directory stands at the `--out` path, so the binary writes inside.
    std::fs::create_dir(fx.dir.join("rep0.json")).expect("block rep 0's report");
    let e = fx.run(&sc, 0, REP_TIMEOUT_S).unwrap_err();
    assert!(e.starts_with("no report at"), "{e}");
    // A real report passes; garbled or of another schema, it fails.
    fx.run(&sc, 1, REP_TIMEOUT_S).expect("rep 1 runs clean");
    let report = fx.dir.join("rep1.json");
    assert_eq!(check_report(&report), Ok(()));
    for (body, want) in [
        ("{not json", "malformed report"),
        (
            "{\"schema\": \"hermes-bench-report/9\"}",
            "report schema \"hermes-bench-report/9\"",
        ),
        ("{}", "report schema \"<missing>\""),
    ] {
        std::fs::write(&report, body).expect("overwrite the report");
        let e = check_report(&report).unwrap_err();
        assert!(e.starts_with(want), "{body}: {e}");
    }
}

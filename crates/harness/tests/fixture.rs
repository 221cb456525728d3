//! Harness fixture tests: the orchestrator against the deterministic
//! `stub_agent` binary (canned BENCH JSON, knob-driven sleep/exit/
//! malformed behavior).
//!
//! What they pin: repetition r of a scenario runs under `fault_seed + r`
//! with the matrix's knobs, and a nonzero exit, a timeout, or a missing
//! or malformed report fails the repetition and the run.

use hermes_harness::{report, run_matrix, RunConfig};
use hermes_util::bench::Stopwatch;
use hermes_util::json::Json;
use std::path::{Path, PathBuf};

const MATRIX: &str = r#"
schema = "hermes-scenario/1"

[scenario.stub-ok]
bin = "stub_agent"
runs = 3
fault_seed = 5
trace = true
knobs.stub_value = 9

[scenario.stub-slow]
bin = "stub_agent"
runs = 2
trace = true
knobs.stub_sleep_ms = 30

[scenario.stub-hung]
bin = "stub_agent"
runs = 1
trace = true
knobs.stub_sleep_ms = 60000

[scenario.stub-bad-exit]
bin = "stub_agent"
runs = 2
trace = true
knobs.stub_exit = 3

[scenario.stub-malformed]
bin = "stub_agent"
runs = 2
trace = true
knobs.stub_malformed = true
"#;

struct Fixture {
    base: PathBuf,
    matrix_path: PathBuf,
    bin_dir: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let base = std::env::temp_dir().join(format!(
            "hermes_harness_fixture_{}_{tag}",
            std::process::id()
        ));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "INVARIANT: clears a leftover from an earlier run; a missing dir is the usual case"
        )]
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).expect("create fixture dir");
        let matrix_path = base.join("matrix.toml");
        std::fs::write(&matrix_path, MATRIX).expect("write matrix");
        let stub = PathBuf::from(env!("CARGO_BIN_EXE_stub_agent"));
        Fixture {
            base,
            matrix_path,
            bin_dir: stub
                .parent()
                .expect("stub binary has a parent dir")
                .to_path_buf(),
        }
    }

    fn config(&self, out: &str, scenarios: &[&str]) -> RunConfig {
        RunConfig {
            matrix_path: self.matrix_path.clone(),
            bin_dir: self.bin_dir.clone(),
            out_dir: self.base.join(out),
            scenarios: Some(scenarios.iter().map(|s| s.to_string()).collect()),
            rep_timeout_s: hermes_harness::run::DEFAULT_REP_TIMEOUT_S,
        }
    }
}

/// The per-rep BENCH report's value of one counter.
fn rep_counter(out: &Path, scenario: &str, rep: u32, name: &str) -> Option<f64> {
    let path = out.join(scenario).join(format!("rep{rep}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} missing: {e}", path.display()));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{} invalid: {e:?}", path.display()));
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
}

#[test]
fn merged_counters_reflect_per_rep_seeding() {
    let fx = Fixture::new("seeding");
    let cfg = fx.config("out", &["stub-ok"]);
    let run = run_matrix(&cfg).expect("matrix runs");
    assert_eq!(run.failures(), 0, "clean scenarios must not fail");
    for rep in 0..3 {
        // fault_seed = 5 → reps see HERMES_FAULT_SEED 5, 6, 7.
        assert_eq!(
            rep_counter(&cfg.out_dir, "stub-ok", rep, "stub.seed"),
            Some(5.0 + rep as f64)
        );
        // The matrix knob reaches every rep.
        assert_eq!(
            rep_counter(&cfg.out_dir, "stub-ok", rep, "stub.value"),
            Some(9.0)
        );
    }
}

#[test]
fn wall_clock_and_exit_are_observed() {
    let fx = Fixture::new("wall");
    let sw = Stopwatch::start();
    let run = run_matrix(&fx.config("out", &["stub-slow"])).expect("matrix runs");
    let waited_ms = sw.elapsed().as_secs_f64() * 1000.0;
    let s = &run.scenarios[0];
    assert_eq!(s.reps.len(), 2);
    for r in &s.reps {
        assert!(r.ok(), "rep {}: {:?}", r.rep, r.error);
        assert_eq!(r.exit_code, Some(0));
    }
    // Each stub sleeps 30 ms: the harness waits for both exits.
    assert!(
        waited_ms >= 50.0,
        "two 30 ms reps but the harness returned after {waited_ms} ms"
    );
}

#[test]
fn nonzero_exit_is_a_rep_failure() {
    let fx = Fixture::new("badexit");
    let run = run_matrix(&fx.config("out", &["stub-bad-exit"])).expect("matrix runs");
    assert_eq!(run.failures(), 2);
    let s = &run.scenarios[0];
    for r in &s.reps {
        let e = r.error.as_deref().expect("rep must carry an error");
        assert!(e.contains("exit code 3"), "error {e:?}");
        assert_eq!(r.exit_code, Some(3));
    }
    let doc = report::build(&run);
    let sc = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .map(|a| a[0].clone())
        .expect("scenario");
    assert_eq!(sc.get("clean_reps").and_then(Json::as_f64), Some(0.0));
    let errors = sc
        .get("errors")
        .and_then(Json::as_arr)
        .expect("errors array");
    assert_eq!(errors.len(), 2);
}

#[test]
fn hung_child_is_killed_and_reported_as_timed_out() {
    let fx = Fixture::new("hung");
    let mut cfg = fx.config("out", &["stub-hung"]);
    cfg.rep_timeout_s = 1;
    let sw = Stopwatch::start();
    let run = run_matrix(&cfg).expect("a timeout is a rep failure, not a harness error");
    let waited = sw.elapsed().as_secs_f64();
    assert_eq!(run.failures(), 1);
    let r = &run.scenarios[0].reps[0];
    assert_eq!(r.error.as_deref(), Some("timed out after 1 s"));
    assert_eq!(r.exit_code, None);
    assert!(
        (1.0..30.0).contains(&waited),
        "the stub sleeps 60 s; the harness waited {waited} s"
    );
}

#[test]
fn malformed_report_is_a_rep_failure() {
    let fx = Fixture::new("malformed");
    let run = run_matrix(&fx.config("out", &["stub-malformed"])).expect("matrix runs");
    assert_eq!(run.failures(), 2);
    let e = run.scenarios[0].reps[0]
        .error
        .as_deref()
        .expect("error recorded");
    assert!(e.contains("malformed BENCH report"), "error {e:?}");
}

#[test]
fn configuration_errors_abort() {
    let fx = Fixture::new("config");
    // Unknown scenario name.
    let e = run_matrix(&fx.config("out", &["no-such-scenario"])).unwrap_err();
    assert!(e.contains("no-such-scenario"), "{e}");
    // Missing binary.
    let missing = fx.base.join("missing.toml");
    std::fs::write(
        &missing,
        "schema = \"hermes-scenario/1\"\n[scenario.ghost]\nbin = \"no_such_binary\"\n",
    )
    .expect("write matrix");
    let mut cfg = fx.config("out", &["ghost"]);
    cfg.matrix_path = missing;
    let e = run_matrix(&cfg).unwrap_err();
    assert!(e.contains("no_such_binary"), "{e}");
}

#[test]
fn orchestrator_binary_end_to_end() {
    let fx = Fixture::new("cli");
    let out = fx.base.join("cli_out");
    let run = |scenarios: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_hermes-harness"))
            .args(["--matrix"])
            .arg(&fx.matrix_path)
            .args(["--bin-dir"])
            .arg(&fx.bin_dir)
            .args(["--out"])
            .arg(&out)
            .args(["--scenarios", scenarios])
            .output()
            .expect("spawn hermes-harness")
    };
    let ok = run("stub-ok");
    assert!(
        ok.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let text = std::fs::read_to_string(out.join("matrix_report.json"))
        .unwrap_or_else(|e| panic!("matrix_report.json missing: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("matrix_report.json invalid: {e:?}"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("hermes-matrix-report/3")
    );
    let sc = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .map(|a| a[0].clone())
        .expect("scenario");
    assert!(
        sc.get("measured").is_none(),
        "the report carries verdicts only"
    );
    // The report is the one document written beside the scenario dirs.
    let mut written: Vec<String> = std::fs::read_dir(&out)
        .expect("output dir exists")
        .map(|e| {
            e.expect("readable dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    assert_eq!(written, ["matrix_report.json", "stub-ok"]);
    // A failing scenario propagates into the exit status.
    let bad = run("stub-bad-exit");
    assert!(!bad.status.success(), "bad-exit scenario must fail the run");
}

#[test]
fn closed_stdout_still_writes_the_report() {
    let fx = Fixture::new("closed_stdout");
    let out = fx.base.join("cli_out");
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_hermes-harness"))
        .args(["--matrix"])
        .arg(&fx.matrix_path)
        .args(["--bin-dir"])
        .arg(&fx.bin_dir)
        .args(["--out"])
        .arg(&out)
        .args(["--scenarios", "stub-ok"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn hermes-harness");
    // No reader: the summary's first write finds the pipe closed.
    drop(child.stdout.take());
    let status = child.wait().expect("wait for hermes-harness");
    assert_eq!(status.code(), Some(0), "a closed stdout is not a failure");
    let text = std::fs::read_to_string(out.join("matrix_report.json"))
        .unwrap_or_else(|e| panic!("matrix_report.json missing: {e}"));
    assert!(Json::parse(&text).is_ok(), "the report is whole");
}

#[test]
fn rep_artifacts_land_in_scenario_dirs() {
    let fx = Fixture::new("artifacts");
    let cfg = fx.config("out", &["stub-ok"]);
    run_matrix(&cfg).expect("matrix runs");
    for rep in 0..3 {
        let p = cfg.out_dir.join("stub-ok").join(format!("rep{rep}.json"));
        assert!(p.is_file(), "{} missing", p.display());
        assert!(
            Path::new(&cfg.out_dir.join("stub-ok").join(format!("rep{rep}.stderr"))).is_file(),
            "stderr capture missing for rep {rep}"
        );
    }
}

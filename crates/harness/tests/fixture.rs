//! Harness fixture tests: the orchestrator against the deterministic
//! `stub_agent` binary (canned BENCH JSON, knob-driven sleep/exit/
//! malformed behavior), per ISSUE 6.
//!
//! The central assertion: for a fixed matrix and seeds, the canonical
//! `hermes-matrix-report/1` summary is **byte-identical** across runs —
//! process spawning, /proc sampling and report merging introduce no
//! nondeterminism into the merged view.

use hermes_harness::{report, run_matrix, RunConfig};
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

fn counter<'a>(doc: &'a Json, scenario_idx: usize, name: &str) -> &'a Json {
    doc.get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|a| a.get(scenario_idx))
        .and_then(|s| s.get("merged"))
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .unwrap_or_else(|| panic!("counter {name} missing from scenario {scenario_idx}"))
}

#[test]
fn canonical_summary_is_byte_identical_across_seeded_runs() {
    let fx = Fixture::new("determinism");
    let mut summaries = Vec::new();
    for out in ["run_a", "run_b"] {
        let run = run_matrix(&fx.config(out, &["stub-ok", "stub-slow"])).expect("matrix runs");
        assert_eq!(run.failures(), 0, "clean scenarios must not fail");
        summaries.push(report::build(&run, true).to_string());
        // The full report carries the measured section the canonical
        // one must omit.
        let full = report::build(&run, false);
        let measured = full
            .get("scenarios")
            .and_then(Json::as_arr)
            .and_then(|a| a[0].get("measured"))
            .cloned()
            .expect("full report has measured section");
        assert!(measured.get("wall_ms").is_some());
        assert!(measured.get("max_rss_bytes").is_some());
        assert!(measured.get("cpu_ms").is_some());
    }
    assert_eq!(
        summaries[0], summaries[1],
        "canonical summaries must be byte-identical across identical seeded runs"
    );
}

#[test]
fn merged_counters_reflect_per_rep_seeding() {
    let fx = Fixture::new("seeding");
    let run = run_matrix(&fx.config("out", &["stub-ok"])).expect("matrix runs");
    let doc = report::build(&run, true);
    // fault_seed = 5 → reps see HERMES_FAULT_SEED 5, 6, 7.
    let seed = counter(&doc, 0, "stub.seed");
    assert_eq!(
        seed.get("reps").and_then(Json::as_arr).map(<[Json]>::len),
        Some(3)
    );
    assert_eq!(seed.get("min").and_then(Json::as_f64), Some(5.0));
    assert_eq!(seed.get("p50").and_then(Json::as_f64), Some(6.0));
    assert_eq!(seed.get("max").and_then(Json::as_f64), Some(7.0));
    assert_eq!(seed.get("equal_across_reps"), Some(&Json::Bool(false)));
    // The knob-driven counter is rep-stable.
    let value = counter(&doc, 0, "stub.value");
    assert_eq!(value.get("p50").and_then(Json::as_f64), Some(9.0));
    assert_eq!(value.get("equal_across_reps"), Some(&Json::Bool(true)));
    // Histograms merge across the 3 reps: 3 × 9 recorded values.
    let hist = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .and_then(|a| a[0].get("merged"))
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get("stub.lat"))
        .cloned()
        .expect("merged histogram present");
    assert_eq!(hist.get("count").and_then(Json::as_f64), Some(27.0));
    assert_eq!(hist.get("p50").and_then(Json::as_f64), Some(4.0));
}

#[test]
fn wall_clock_and_exit_are_observed() {
    let fx = Fixture::new("wall");
    let run = run_matrix(&fx.config("out", &["stub-slow"])).expect("matrix runs");
    let s = &run.scenarios[0];
    assert_eq!(s.reps.len(), 2);
    for r in &s.reps {
        assert!(r.ok(), "rep {}: {:?}", r.rep, r.error);
        assert_eq!(r.exit_code, Some(0));
        assert!(
            r.wall_ms >= 25.0,
            "stub sleeps 30ms but wall was {}ms",
            r.wall_ms
        );
    }
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
    let doc = report::build(&run, true);
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
    let run = run_matrix(&cfg).expect("a timeout is a rep failure, not a harness error");
    assert_eq!(run.failures(), 1);
    let r = &run.scenarios[0].reps[0];
    assert_eq!(r.error.as_deref(), Some("timed out after 1 s"));
    assert_eq!(r.exit_code, None);
    assert!(
        (1_000.0..30_000.0).contains(&r.wall_ms),
        "the stub sleeps 60 s; the harness waited {} ms",
        r.wall_ms
    );
    assert_eq!(run.scenarios[0].merged.reports, 0);
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
    // Nothing malformed reaches the merged view.
    assert_eq!(run.scenarios[0].merged.reports, 0);
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
    for name in ["matrix_report.json", "matrix_summary.json"] {
        let text = std::fs::read_to_string(out.join(name))
            .unwrap_or_else(|e| panic!("{name} missing: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name} invalid: {e:?}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("hermes-matrix-report/1")
        );
    }
    // A failing scenario propagates into the exit status.
    let bad = run("stub-bad-exit");
    assert!(!bad.status.success(), "bad-exit scenario must fail the run");
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

//! Fixture tests for `scripts/perfgate.py` — the CI counter gate.
//!
//! The gate compares only the `counters` object of each BENCH report,
//! exact-match. These tests drive the script with synthetic fixtures to
//! pin its verdicts: identical counters pass; a drifted value, a missing
//! key, an untracked key, or a missing fresh report all fail. Inputs the
//! gate cannot judge, and every retired subcommand, exit 2, never 1.
//!
//! The script is python3 + stdlib; when the interpreter is absent the
//! tests skip (printed to stderr) rather than fail, so `cargo test`
//! stays green on bare build hosts. CI always has python3 (ci.sh uses it
//! unconditionally), so the gate itself is still exercised there.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    // crates/bench -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("INVARIANT: crate lives two levels below the workspace root")
        .to_path_buf()
}

fn python3() -> Option<&'static str> {
    if Command::new("python3").arg("--version").output().is_ok() {
        Some("python3")
    } else {
        eprintln!("perfgate tests skipped: python3 not on PATH");
        None
    }
}

/// A minimal hermes-bench-report/1 document with the given counters.
fn report(counters: &[(&str, u64)]) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"schema\": \"hermes-bench-report/1\", \"experiment\": \"x\", \
         \"counters\": {{{}}}}}",
        body.join(", ")
    )
}

struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("hermes_perfgate_{name}_{}", std::process::id()));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "INVARIANT: clears a leftover from an earlier run; a missing dir is the usual case"
        )]
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("base")).expect("INVARIANT: temp dir is writable");
        std::fs::create_dir_all(dir.join("fresh")).expect("INVARIANT: temp dir is writable");
        Fixture { dir }
    }

    fn write(&self, side: &str, file: &str, content: &str) {
        std::fs::write(self.dir.join(side).join(file), content)
            .expect("INVARIANT: temp dir is writable");
    }

    /// Runs the gate over base/ and fresh/; returns
    /// (exit_code, stdout).
    fn run(&self, py: &str) -> (i32, String) {
        let (code, out, _) = gate(
            py,
            "counters",
            &self.dir.join("base"),
            &self.dir.join("fresh"),
        );
        (code, out)
    }
}

/// `perfgate.py <mode> <a> <b>`; returns (exit_code, stdout, stderr).
fn gate(py: &str, mode: &str, a: &Path, b: &Path) -> (i32, String, String) {
    let out = Command::new(py)
        .arg(repo_root().join("scripts/perfgate.py"))
        .arg(mode)
        .arg(a)
        .arg(b)
        .output()
        .expect("INVARIANT: python3 probed on PATH before running fixtures");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

impl Drop for Fixture {
    fn drop(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "INVARIANT: best-effort cleanup of a temp dir; a failure leaves only litter"
        )]
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn matching_counters_pass() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("pass");
    let doc = report(&[("tcam.batch_shifts", 42), ("tcam.batch_ops", 7)]);
    f.write("base", "BENCH_a.json", &doc);
    f.write("fresh", "BENCH_a.json", &doc);
    let (code, out) = f.run(py);
    assert_eq!(code, 0, "identical counters must pass the gate:\n{out}");
    assert!(out.contains("ok   BENCH_a.json"), "{out}");
}

#[test]
fn drifted_counter_fails_with_delta() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("drift");
    f.write(
        "base",
        "BENCH_a.json",
        &report(&[("tcam.batch_shifts", 42)]),
    );
    f.write(
        "fresh",
        "BENCH_a.json",
        &report(&[("tcam.batch_shifts", 50)]),
    );
    let (code, out) = f.run(py);
    assert_ne!(code, 0, "a drifted counter must fail the gate:\n{out}");
    assert!(
        out.contains("DRIFT"),
        "verdict column names the drift:\n{out}"
    );
    assert!(
        out.contains("+8"),
        "delta column shows the regression:\n{out}"
    );
}

#[test]
fn missing_and_untracked_counters_fail() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("keys");
    f.write(
        "base",
        "BENCH_a.json",
        &report(&[("a.x", 1), ("a.gone", 2)]),
    );
    f.write(
        "fresh",
        "BENCH_a.json",
        &report(&[("a.x", 1), ("a.new", 3)]),
    );
    let (code, out) = f.run(py);
    assert_ne!(code, 0, "key-set changes must fail the gate:\n{out}");
    assert!(out.contains("MISSING"), "baseline-only key flagged:\n{out}");
    assert!(out.contains("UNTRACKED"), "fresh-only key flagged:\n{out}");
}

#[test]
fn missing_fresh_report_fails() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("nofresh");
    f.write("base", "BENCH_a.json", &report(&[("a.x", 1)]));
    let (code, out) = f.run(py);
    assert_ne!(code, 0, "an unproduced report must fail the gate:\n{out}");
    assert!(out.contains("fresh report not produced"), "{out}");
}

#[test]
fn unjudgeable_input_exits_2_with_one_line() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("badinput");
    // A BENCH file without a counters object.
    f.write("base", "BENCH_a.json", "{\"schema\": \"x\"}");
    f.write("fresh", "BENCH_a.json", "{\"schema\": \"x\"}");
    let no_counters = gate(py, "counters", &f.dir.join("base"), &f.dir.join("fresh"));
    // An unparsable baseline.
    std::fs::create_dir_all(f.dir.join("garbled")).expect("INVARIANT: temp dir is writable");
    f.write("garbled", "BENCH_a.json", "{not json");
    let unparsable = gate(py, "counters", &f.dir.join("garbled"), &f.dir.join("fresh"));
    // A baseline directory that does not exist.
    let no_baselines = gate(
        py,
        "counters",
        &f.dir.join("nonexistent"),
        &f.dir.join("fresh"),
    );
    for (case, (code, out, err)) in [
        ("no counters", no_counters),
        ("unparsable", unparsable),
        ("no baselines", no_baselines),
    ] {
        assert_eq!(
            code, 2,
            "{case}: malformed input is not a regression:\n{out}{err}"
        );
        assert!(
            err.starts_with("perfgate: ") && err.trim_end().lines().count() == 1,
            "{case}: one `perfgate: <path>: <reason>` line, no traceback:\n{err}"
        );
    }
}

#[test]
fn retired_cli_forms_are_usage_errors() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("usage");
    let doc = report(&[("a.x", 1)]);
    f.write("base", "BENCH_a.json", &doc);
    f.write("fresh", "BENCH_a.json", &doc);
    let script = repo_root().join("scripts/perfgate.py");
    // The pre-subcommand two-positional form, and the --band override.
    let legacy = Command::new(py)
        .arg(&script)
        .arg(f.dir.join("base"))
        .arg(f.dir.join("fresh"))
        .output()
        .expect("INVARIANT: python3 probed on PATH before running fixtures");
    assert_eq!(
        legacy.status.code(),
        Some(2),
        "`perfgate.py <dir> <dir>` is retired"
    );
    let band = Command::new(py)
        .arg(&script)
        .args(["wallclock", "--band", "0.9"])
        .arg(f.dir.join("base"))
        .arg(f.dir.join("fresh"))
        .output()
        .expect("INVARIANT: python3 probed on PATH before running fixtures");
    assert_eq!(band.status.code(), Some(2), "`--band` is retired");
    // The banded host-time tiers and their refresh: the perf ledger owns
    // host time now.
    for mode in ["wallclock", "rss", "refresh"] {
        let (code, _, err) = gate(py, mode, &f.dir.join("base"), &f.dir.join("fresh"));
        assert_eq!(code, 2, "`perfgate.py {mode}` is retired:\n{err}");
    }
}

#[test]
fn committed_baselines_are_wellformed() {
    let Some(py) = python3() else { return };
    // The real committed baselines gate CI; running them against
    // themselves must pass (guards against hand-edited/corrupt files).
    let baselines = repo_root().join("bench_baselines");
    let (code, out, _) = gate(py, "counters", &baselines, &baselines);
    assert_eq!(
        code, 0,
        "committed baselines must self-compare clean:\n{out}"
    );
}

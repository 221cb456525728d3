//! The counter gate (DESIGN.md §11): every gated experiment's `counters`
//! object, exact, against its committed `bench_baselines/BENCH_<exp>.json`.
//!
//! The file names in `bench_baselines/` are the list of gated
//! experiments. For each one, `exp_<exp>` of this build runs under the
//! pinned environment of `bench_baselines/README.md`, and the simulation's
//! counters are deterministic under it, so any deviation is a behavioural
//! change, never noise: a drifted value, a counter the baseline has and the
//! fresh report lacks (`MISSING`), one the baseline does not track
//! (`UNTRACKED`), or a report that was never produced fails the test.
//! Traced `exp_fig9` runs a second time and must reproduce its report byte
//! for byte. Host time is not judged here: that is the perf ledger's
//! (`benchmark/`).

mod common;

use common::{exp_bin, fresh_dir};
use hermes_util::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The environment every gated run gets: telemetry armed, the fault plan
/// pinned, a stable revision stamp.
const PINNED: [(&str, &str); 3] = [
    ("HERMES_TRACE", "1"),
    ("HERMES_FAULT_SEED", "7"),
    ("HERMES_GIT_REV", "baseline"),
];

/// Knobs a gated run must not inherit from the shell.
const UNPINNED: [&str; 4] = [
    "HERMES_SCALE",
    "HERMES_SCENARIO",
    "HERMES_SCENARIO_FILE",
    "HERMES_OUT",
];

const REFRESH_HINT: &str = "If the change is intentional, refresh with \
                            scripts/refresh_baselines.sh and commit the diff.";

fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_baselines")
}

/// The gated experiments: `<exp>` of every `BENCH_<exp>.json`, sorted.
fn gated_experiments() -> Vec<String> {
    let mut exps: Vec<String> = std::fs::read_dir(baselines_dir())
        .expect("bench_baselines/ is readable")
        .map(|e| e.expect("readable dir entry").file_name())
        .filter_map(|f| {
            let f = f.to_str()?;
            Some(f.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_string())
        })
        .collect();
    exps.sort();
    exps
}

/// Starts `exp_<exp>` of this build under the pinned environment, its
/// report to `report` and its stderr beside it.
fn spawn(exp: &str, report: &Path) -> Child {
    let stderr = File::create(report.with_extension("stderr")).expect("create stderr file");
    let mut cmd = Command::new(exp_bin(&format!("exp_{exp}")));
    cmd.arg("--out")
        .arg(report)
        .stdout(Stdio::null())
        .stderr(stderr)
        .envs(PINNED);
    for k in UNPINNED {
        cmd.env_remove(k);
    }
    cmd.spawn()
        .unwrap_or_else(|e| panic!("cannot spawn exp_{exp}: {e}"))
}

/// Waits for `child`; a non-zero exit is a line naming its first stderr
/// line.
fn finish(exp: &str, mut child: Child, report: &Path) -> Option<String> {
    let status = child.wait().expect("wait for the child");
    if status.success() {
        return None;
    }
    let stderr = std::fs::read_to_string(report.with_extension("stderr")).unwrap_or_default();
    Some(format!(
        "exp_{exp}: {status}: {}",
        stderr.lines().next().unwrap_or("(no stderr)")
    ))
}

/// A report's `counters` object, or why the report cannot be judged.
fn counters(path: &Path) -> Result<BTreeMap<String, Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: report not produced ({e})", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: unparsable: {e:?}", path.display()))?;
    match doc.get("counters") {
        Some(Json::Obj(pairs)) => Ok(pairs.iter().cloned().collect()),
        _ => Err(format!("{}: no counters object", path.display())),
    }
}

/// Every way the fresh report's counters deviate from the baseline's, one
/// line each; empty when they match exactly.
fn judge(baseline: &Path, fresh: &Path) -> Vec<String> {
    let (base, fresh) = match (counters(baseline), counters(fresh)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => return [b.err(), f.err()].into_iter().flatten().collect(),
    };
    let keys: BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    keys.into_iter()
        .filter_map(|k| match (base.get(k), fresh.get(k)) {
            (Some(b), None) => Some(format!("MISSING   {k}: baseline {}", b.to_string())),
            (None, Some(f)) => Some(format!("UNTRACKED {k}: fresh {}", f.to_string())),
            (Some(b), Some(f)) if b != f => Some(format!(
                "DRIFT     {k}: {} -> {}{}",
                b.to_string(),
                f.to_string(),
                delta(b, f)
            )),
            _ => None,
        })
        .collect()
}

fn delta(b: &Json, f: &Json) -> String {
    match (b, f) {
        (Json::Int(b), Json::Int(f)) => format!(" ({:+})", f - b),
        _ => match (b.as_f64(), f.as_f64()) {
            (Some(b), Some(f)) => format!(" ({:+})", f - b),
            _ => String::new(),
        },
    }
}

#[test]
fn gated_experiments_match_their_baselines() {
    let out = fresh_dir("perfgate");
    let exps = gated_experiments();
    assert!(!exps.is_empty(), "no BENCH_*.json in bench_baselines/");
    // Every child starts before any is waited on: the runs overlap.
    let again = out.join("fig9_again.json");
    let fig9_again = spawn("fig9", &again);
    let runs: Vec<(&String, PathBuf, Child)> = exps
        .iter()
        .map(|exp| {
            let report = out.join(format!("BENCH_{exp}.json"));
            let child = spawn(exp, &report);
            (exp, report, child)
        })
        .collect();
    let mut failures = Vec::new();
    for (exp, report, child) in runs {
        failures.extend(finish(exp, child, &report));
        let name = format!("BENCH_{exp}.json");
        failures.extend(
            judge(&baselines_dir().join(&name), &report)
                .into_iter()
                .map(|line| format!("{name}: {line}")),
        );
    }
    failures.extend(finish("fig9", fig9_again, &again));
    if std::fs::read(&again).ok() != std::fs::read(out.join("BENCH_fig9.json")).ok() {
        failures.push("exp_fig9: a second traced run did not reproduce its report".into());
    }
    assert!(
        failures.is_empty(),
        "{} deviation(s) from bench_baselines/ (fresh reports under {}):\n{}\n{REFRESH_HINT}",
        failures.len(),
        out.display(),
        failures.join("\n")
    );
}

/// A minimal `hermes-bench-report/1` document with the given counters.
fn report(counters: &[(&str, u64)]) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"schema\": \"hermes-bench-report/1\", \"counters\": {{{}}}}}",
        body.join(", ")
    )
}

/// [`judge`] over a synthetic baseline and, when given, a fresh report.
fn judge_synthetic(name: &str, base: &[(&str, u64)], fresh: Option<&[(&str, u64)]>) -> String {
    let dir = fresh_dir(&format!("perfgate_fixture_{name}"));
    std::fs::write(dir.join("base.json"), report(base)).expect("write baseline");
    if let Some(fresh) = fresh {
        std::fs::write(dir.join("fresh.json"), report(fresh)).expect("write fresh report");
    }
    judge(&dir.join("base.json"), &dir.join("fresh.json")).join("\n")
}

#[test]
fn matching_counters_pass() {
    let counters = [("tcam.batch_shifts", 42), ("tcam.batch_ops", 7)];
    assert_eq!(judge_synthetic("pass", &counters, Some(&counters)), "");
}

#[test]
fn drifted_counter_fails_with_delta() {
    let out = judge_synthetic(
        "drift",
        &[("tcam.batch_shifts", 42)],
        Some(&[("tcam.batch_shifts", 50)]),
    );
    assert_eq!(out, "DRIFT     tcam.batch_shifts: 42 -> 50 (+8)");
}

#[test]
fn missing_and_untracked_counters_fail() {
    let out = judge_synthetic(
        "keys",
        &[("a.x", 1), ("a.gone", 2)],
        Some(&[("a.x", 1), ("a.new", 3)]),
    );
    assert_eq!(
        out,
        "MISSING   a.gone: baseline 2\nUNTRACKED a.new: fresh 3"
    );
}

#[test]
fn missing_fresh_report_fails() {
    let out = judge_synthetic("nofresh", &[("a.x", 1)], None);
    assert!(
        out.contains("fresh.json: report not produced"),
        "an unproduced report must fail the gate: {out}"
    );
}

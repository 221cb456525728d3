//! Fixture tests for `scripts/perfgate.py` — the three-tier CI
//! perf-regression gate.
//!
//! Tier 1 (counters) compares only the `counters` object of each BENCH
//! report, exact-match. These tests drive the script with synthetic
//! fixtures to pin its verdicts: identical counters pass; a drifted
//! value, a missing key, an untracked key, or a missing fresh report all
//! fail. Tiers 2 and 3 (wallclock, rss) are one banded comparator over
//! two rows of a tier table, so their cases run from one table here too
//! ([`BANDED`]): in-band medians pass, out-of-band medians fail
//! (SLOW/HEAVY), sub-band medians are noted (FAST/LEAN), scenarios
//! missing from either side fail (MISSING/UNTRACKED), failed reps fail
//! (BROKEN). Inputs the gate cannot judge exit 2, never 1.
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
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("base")).expect("INVARIANT: temp dir is writable");
        std::fs::create_dir_all(dir.join("fresh")).expect("INVARIANT: temp dir is writable");
        Fixture { dir }
    }

    fn write(&self, side: &str, file: &str, content: &str) {
        std::fs::write(self.dir.join(side).join(file), content)
            .expect("INVARIANT: temp dir is writable");
    }

    /// Runs the counters tier over base/ and fresh/; returns
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

    /// Writes the two documents and runs one banded tier over them;
    /// returns (exit_code, stdout).
    fn run_band(&self, py: &str, mode: &str, baseline: &str, report: &str) -> (i32, String) {
        let (base, fresh) = (
            self.dir.join("baseline.json"),
            self.dir.join("matrix_report.json"),
        );
        std::fs::write(&base, baseline).expect("INVARIANT: temp dir is writable");
        std::fs::write(&fresh, report).expect("INVARIANT: temp dir is writable");
        let (code, out, _) = gate(py, mode, &base, &fresh);
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

/// One banded tier as the fixtures see it: the subcommand, the baseline
/// and report keys, the size of one unit of its measure (1 ms, 1 MiB in
/// bytes) and the words its verdicts use.
struct Banded {
    mode: &'static str,
    schema: &'static str,
    base_key: &'static str,
    floor_key: &'static str,
    report_key: &'static str,
    unit: f64,
    band: f64,
    over: &'static str,
    under: &'static str,
    noun: &'static str,
}

const BANDED: [Banded; 2] = [
    Banded {
        mode: "wallclock",
        schema: "hermes-wallclock-baseline/1",
        base_key: "median_ms",
        floor_key: "floor_ms",
        report_key: "wall_ms",
        unit: 1.0,
        band: 0.25,
        over: "SLOW",
        under: "FAST",
        noun: "wall-clock",
    },
    Banded {
        mode: "rss",
        schema: "hermes-rss-baseline/1",
        base_key: "median_bytes",
        floor_key: "floor_bytes",
        report_key: "max_rss_bytes",
        unit: (1u64 << 20) as f64,
        band: 0.35,
        over: "HEAVY",
        under: "LEAN",
        noun: "peak-RSS",
    },
];

impl Banded {
    /// A baseline document; `floor` and the medians are in units.
    fn baseline(&self, floor: f64, scenarios: &[(&str, f64)]) -> String {
        let body: Vec<String> = scenarios
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"{}\": {}}}", self.base_key, v * self.unit))
            .collect();
        format!(
            "{{\"schema\": \"{}\", \"band\": {}, \"{}\": {}, \"scenarios\": {{{}}}}}",
            self.schema,
            self.band,
            self.floor_key,
            floor * self.unit,
            body.join(", ")
        )
    }

    /// A full (non-canonical) hermes-matrix-report/1 document whose
    /// scenarios each carry a measured median (in units) and `clean` of 3
    /// clean reps.
    fn report(&self, clean: u32, scenarios: &[(&str, f64)]) -> String {
        let body: Vec<String> = scenarios
            .iter()
            .map(|(name, v)| {
                format!(
                    "{{\"name\": \"{name}\", \"bin\": \"stub\", \"runs\": 3, \
                     \"clean_reps\": {clean}, \"errors\": [], \
                     \"measured\": {{\"{}\": {{\"reps\": 3, \"p50\": {}}}}}}}",
                    self.report_key,
                    v * self.unit
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"hermes-matrix-report/1\", \"kind\": \"full\", \
             \"scenarios\": [{}]}}",
            body.join(", ")
        )
    }
}

#[test]
fn banded_envelope_verdicts() {
    let Some(py) = python3() else { return };
    // (case, baseline, floor, measured, exit code, word the output carries)
    // against a 25% (wall-clock) / 35% (RSS) band, all in units.
    for t in &BANDED {
        let envelope = format!("within the {} envelope", t.noun);
        let cases: [(&str, f64, f64, f64, i32, &str); 4] = [
            // 115 vs 100: inside either band.
            ("in_band", 100.0, 4.0, 115.0, 0, &envelope),
            // 200 vs 100: above 100 * 1.35 + 4 = 139.
            ("over", 100.0, 4.0, 200.0, 1, t.over),
            // 10 vs 100: below 100 * 0.65 - 4 = 61 — noted, not failed.
            ("under", 100.0, 4.0, 10.0, 0, t.under),
            // A small scenario doubling (8 -> 16) is scheduler / allocator
            // jitter under a floor of 16 — the band alone would flag it.
            ("floor", 8.0, 16.0, 16.0, 0, &envelope),
        ];
        for (case, base, floor, measured, want, word) in cases {
            let f = Fixture::new(&format!("{}_{case}", t.mode));
            let (code, out) = f.run_band(
                py,
                t.mode,
                &t.baseline(floor, &[("smoke-a", base)]),
                &t.report(3, &[("smoke-a", measured)]),
            );
            assert_eq!(code, want, "{} {case}:\n{out}", t.mode);
            assert!(
                out.contains(word),
                "{} {case} must say {word:?}:\n{out}",
                t.mode
            );
        }
    }
}

#[test]
fn banded_missing_and_untracked_scenarios_fail() {
    let Some(py) = python3() else { return };
    for t in &BANDED {
        let f = Fixture::new(&format!("{}_keys", t.mode));
        let (code, out) = f.run_band(
            py,
            t.mode,
            &t.baseline(4.0, &[("tracked-gone", 100.0)]),
            &t.report(3, &[("brand-new", 50.0)]),
        );
        assert_eq!(code, 1, "both scenario-set drifts must fail:\n{out}");
        assert!(
            out.contains("MISSING"),
            "baseline-only scenario flagged:\n{out}"
        );
        assert!(
            out.contains("UNTRACKED"),
            "report-only scenario flagged:\n{out}"
        );
    }
}

#[test]
fn banded_broken_reps_fail() {
    let Some(py) = python3() else { return };
    for t in &BANDED {
        let f = Fixture::new(&format!("{}_broken", t.mode));
        // In band, but only 2 of 3 repetitions exited clean.
        let (code, out) = f.run_band(
            py,
            t.mode,
            &t.baseline(4.0, &[("smoke-a", 100.0)]),
            &t.report(2, &[("smoke-a", 100.0)]),
        );
        assert_eq!(code, 1, "failed repetitions must fail the gate:\n{out}");
        assert!(out.contains("BROKEN"), "{out}");
    }
}

#[test]
fn banded_rejects_canonical_reports() {
    let Some(py) = python3() else { return };
    let report = "{\"schema\": \"hermes-matrix-report/1\", \"kind\": \"canonical\", \
                  \"scenarios\": []}";
    for t in &BANDED {
        let f = Fixture::new(&format!("{}_canon", t.mode));
        let (code, _) = f.run_band(py, t.mode, &t.baseline(4.0, &[]), report);
        assert_eq!(code, 2, "canonical summaries carry no measured section");
    }
}

#[test]
fn committed_banded_baselines_are_wellformed() {
    let Some(py) = python3() else { return };
    // The committed envelopes must parse and track the gated scenarios
    // (ci.sh runs exactly wallclock.json's keys); an empty fresh report
    // against them must flag every tracked scenario as MISSING (proving
    // they are all tracked).
    let empty = "{\"schema\": \"hermes-matrix-report/1\", \"kind\": \"full\", \
                 \"scenarios\": []}";
    for t in &BANDED {
        let f = Fixture::new(&format!("{}_committed", t.mode));
        let path = repo_root().join(format!("bench_baselines/{}.json", t.mode));
        let baseline = std::fs::read_to_string(path).expect("committed baseline exists");
        let (code, out) = f.run_band(py, t.mode, &baseline, empty);
        assert_eq!(
            code, 1,
            "the tracked gated scenarios must be MISSING:\n{out}"
        );
        for name in ["smoke-chaos", "smoke-fleet", "chaos-suite", "baseline"] {
            assert!(
                out.contains(&format!("FAIL {name}:")),
                "{name} tracked:\n{out}"
            );
        }
    }
}

#[test]
fn refresh_rewrites_medians_and_keeps_the_knobs() {
    let Some(py) = python3() else { return };
    let f = Fixture::new("refresh");
    // One report carries both measures (300 units each); `refresh`
    // rewrites <dir>/<tier>.json for both tiers from it.
    let report = f.dir.join("matrix_report.json");
    let both = "{\"schema\": \"hermes-matrix-report/1\", \"kind\": \"full\", \"scenarios\": \
                [{\"name\": \"smoke-a\", \"runs\": 3, \"clean_reps\": 3, \"measured\": \
                {\"wall_ms\": {\"p50\": 300.04}, \"max_rss_bytes\": {\"p50\": 314572800}}}]}";
    std::fs::write(&report, both).expect("INVARIANT: temp dir is writable");
    for t in &BANDED {
        f.write(
            "base",
            &format!("{}.json", t.mode),
            &t.baseline(7.0, &[("smoke-a", 100.0), ("retired", 1.0)]),
        );
    }
    let (code, out, err) = gate(py, "refresh", &f.dir.join("base"), &report);
    assert_eq!(code, 0, "refresh must succeed:\n{out}{err}");
    for t in &BANDED {
        let tracked = f.dir.join("base").join(format!("{}.json", t.mode));
        let fresh = std::fs::read_to_string(&tracked).expect("refreshed baseline exists");
        assert!(
            fresh.contains(&format!("\"band\": {}", t.band)),
            "band kept:\n{fresh}"
        );
        assert!(
            fresh.contains(&format!("\"{}\": {}", t.floor_key, 7.0 * t.unit)),
            "floor kept:\n{fresh}"
        );
        assert!(
            !fresh.contains("retired"),
            "only the scenarios the report ran:\n{fresh}"
        );
        // 300 units measured against the old 100 was out of band; against
        // the refreshed file the same report is clean.
        let (code, out, _) = gate(py, t.mode, &tracked, &report);
        assert_eq!(code, 0, "refreshed envelope admits its own report:\n{out}");
    }
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
    let garbled = f.dir.join("garbled.json");
    std::fs::write(&garbled, "{not json").expect("INVARIANT: temp dir is writable");
    let unparsable = gate(py, "wallclock", &garbled, &garbled);
    // A report file that does not exist.
    let committed = repo_root().join("bench_baselines/rss.json");
    let no_report = gate(py, "rss", &committed, &f.dir.join("nonexistent.json"));
    for (case, (code, out, err)) in [
        ("no counters", no_counters),
        ("unparsable", unparsable),
        ("no report", no_report),
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

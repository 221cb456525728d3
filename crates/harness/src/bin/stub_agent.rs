//! A deterministic stand-in for the `exp_*` binaries, used by the
//! harness fixture tests.
//!
//! The stub loads its scenario through the exact same shared loader the
//! real binaries use (`HERMES_SCENARIO_FILE` + `HERMES_SCENARIO` via
//! [`hermes_util::scenario`]), so the fixture exercises the full
//! config-file → env → child → config-file round trip. Behavior knobs:
//!
//! * `knobs.stub_sleep_ms` — sleep before reporting (default 0);
//! * `knobs.stub_value` — counter value to report (default 7);
//! * `knobs.stub_exit` — exit code (default 0; nonzero after writing);
//! * `knobs.stub_malformed` — emit truncated JSON (default false).
//!
//! The canned report is a minimal `hermes-bench-report/1`: one counter
//! keyed by the stub value and one per-rep counter derived from
//! `HERMES_FAULT_SEED` (proving the harness seeds each repetition).

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a stand-in exp_* binary reads the HERMES_* knobs the harness sets, as the real ones do"
)]

use hermes_util::json::{Json, ToJson};
use hermes_util::scenario::{Matrix, Scenario};
use std::path::Path;

fn scenario_from_env() -> Result<Scenario, String> {
    let file = std::env::var("HERMES_SCENARIO_FILE")
        .map_err(|_| "stub_agent requires HERMES_SCENARIO_FILE".to_string())?;
    let name = std::env::var("HERMES_SCENARIO")
        .map_err(|_| "stub_agent requires HERMES_SCENARIO".to_string())?;
    let matrix = Matrix::load(Path::new(&file)).map_err(|e| e.to_string())?;
    matrix
        .get(&name)
        .cloned()
        .ok_or_else(|| format!("scenario {name:?} not found in {file}"))
}

fn out_path() -> Option<String> {
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next();
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = Some(v.to_string());
        }
    }
    out
}

fn canned_report(sc: &Scenario) -> Json {
    let value = sc.knob_u64("stub_value", 7);
    let seed: u64 = std::env::var("HERMES_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Json::obj([
        ("schema", "hermes-bench-report/1".to_json()),
        ("experiment", "stub".to_json()),
        (
            "git_rev",
            std::env::var("HERMES_GIT_REV")
                .unwrap_or_default()
                .to_json(),
        ),
        ("telemetry_enabled", true.to_json()),
        (
            "meta",
            Json::obj([("scenario", sc.name.as_str().to_json())]),
        ),
        (
            "counters",
            Json::obj([
                ("stub.value", value.to_json()),
                ("stub.seed", seed.to_json()),
            ]),
        ),
        ("gauges", Json::Obj(Vec::new())),
        ("histograms", Json::Obj(Vec::new())),
        ("series", Json::Obj(Vec::new())),
        ("spans", Json::Arr(vec![])),
        ("trace", Json::Arr(vec![])),
    ])
}

fn main() -> std::process::ExitCode {
    let sc = match scenario_from_env() {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("stub_agent: error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    let sleep_ms = sc.knob_u64("stub_sleep_ms", 0);
    if sleep_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
    }
    if let Some(out) = out_path() {
        let body = if sc.knob_bool("stub_malformed", false) {
            "{\"schema\":\"hermes-bench-report/1\",".to_string()
        } else {
            canned_report(&sc).to_string()
        };
        if let Err(e) = std::fs::write(&out, body) {
            eprintln!("stub_agent: error: cannot write {out}: {e}");
            return std::process::ExitCode::FAILURE;
        }
    }
    let code = sc.knob_u64("stub_exit", 0);
    if code != 0 {
        eprintln!("stub_agent: injected failure (stub_exit = {code})");
        return std::process::ExitCode::from((code & 0xff) as u8);
    }
    std::process::ExitCode::SUCCESS
}

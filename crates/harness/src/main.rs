//! `hermes-harness` — run the scenario matrix as OS processes.
//!
//! ```text
//! hermes-harness [--matrix scenarios/matrix.toml] [--scenarios a,b,c]
//!                [--runs N] [--bin-dir target/release]
//!                [--out hermes-out/matrix]
//! ```
//!
//! Writes per-repetition `BENCH` reports and stderr captures under
//! `<out>/<scenario>/`, the full `hermes-matrix-report/1` document to
//! `<out>/matrix_report.json`, and the byte-stable canonical summary to
//! `<out>/matrix_summary.json`. Exits nonzero when any repetition fails
//! or the configuration is invalid.

#![forbid(unsafe_code)]

use hermes_harness::{report, run_matrix, RunConfig};
use std::path::PathBuf;

fn usage() -> String {
    "usage: hermes-harness [--matrix <file>] [--scenarios <a,b,c>] [--runs <n>] \
     [--bin-dir <dir>] [--out <dir>]"
        .to_string()
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        matrix_path: PathBuf::from("scenarios/matrix.toml"),
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("hermes-out/matrix"),
        scenarios: None,
        runs_override: None,
        rep_timeout_s: hermes_harness::run::DEFAULT_REP_TIMEOUT_S,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--matrix" => cfg.matrix_path = PathBuf::from(value("--matrix")?),
            "--bin-dir" => cfg.bin_dir = PathBuf::from(value("--bin-dir")?),
            "--out" => cfg.out_dir = PathBuf::from(value("--out")?),
            "--scenarios" => {
                cfg.scenarios = Some(
                    value("--scenarios")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--runs" => {
                let v = value("--runs")?;
                cfg.runs_override = Some(
                    v.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("--runs {v:?} is not a positive integer"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn main() -> std::process::ExitCode {
    hermes_telemetry::init_from_env();
    match real_main() {
        Ok(0) => std::process::ExitCode::SUCCESS,
        Ok(failures) => {
            eprintln!("hermes-harness: {failures} repetition(s) failed");
            std::process::ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("hermes-harness: error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<u64, String> {
    let cfg = parse_args(std::env::args().skip(1))?;
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let run = run_matrix(&cfg)?;
    for s in &run.scenarios {
        let wall: Vec<f64> = s.reps.iter().map(|r| r.wall_ms).collect();
        let mut sorted = wall.clone();
        hermes_util::stats::sort_samples(&mut sorted);
        println!(
            "{:<14} {:<14} runs={} clean={} wall p50={:.1}ms max={:.1}ms ±{:.1}ms",
            s.name,
            s.bin,
            s.runs,
            s.runs as u64 - s.failures(),
            hermes_util::stats::quantile_sorted(&sorted, 0.5),
            hermes_util::stats::quantile_sorted(&sorted, 1.0),
            report::ci95_halfwidth(&wall),
        );
        for r in &s.reps {
            if let Some(e) = &r.error {
                eprintln!("  rep {}: {e}", r.rep);
            }
        }
    }
    let full = report::build(&run, false);
    let canonical = report::build(&run, true);
    for (name, doc) in [("matrix_report.json", &full), ("matrix_summary.json", &canonical)] {
        let path = cfg.out_dir.join(name);
        std::fs::write(&path, doc.to_string())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(run.failures())
}

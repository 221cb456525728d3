//! `hermes-harness` — run the scenario matrix as OS processes.
//!
//! ```text
//! hermes-harness [--matrix scenarios/matrix.toml] [--scenarios a,b,c]
//!                [--bin-dir target/release] [--out hermes-out/matrix]
//! ```
//!
//! Runs every selected scenario its matrix `runs` times. Writes
//! per-repetition `BENCH` reports and stderr captures under
//! `<out>/<scenario>/` and the `hermes-matrix-report/3` document to
//! `<out>/matrix_report.json`. Exits nonzero when any repetition fails
//! or the configuration is invalid.

#![forbid(unsafe_code)]

use hermes_harness::{report, run_matrix, MatrixRun, RunConfig};
use std::io::Write;
use std::path::{Path, PathBuf};

fn usage() -> String {
    "usage: hermes-harness [--matrix <file>] [--scenarios <a,b,c>] [--bin-dir <dir>] \
     [--out <dir>]"
        .to_string()
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<RunConfig, String> {
    let mut cfg = RunConfig {
        matrix_path: PathBuf::from("scenarios/matrix.toml"),
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("hermes-out/matrix"),
        scenarios: None,
        rep_timeout_s: hermes_harness::run::DEFAULT_REP_TIMEOUT_S,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
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
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(cfg)
}

fn main() -> std::process::ExitCode {
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
    // The report first: it is what a gate reads, and a reader that closes
    // stdout early must not cost it.
    let path = cfg.out_dir.join("matrix_report.json");
    std::fs::write(&path, report::build(&run).to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    // A closed stdout ends the summary; it is not a failure of the run.
    if print_summary(&run, &path).is_err() {
        eprintln!("hermes-harness: stdout closed; summary not printed");
    }
    Ok(run.failures())
}

/// One line per scenario (each failed rep's error to stderr), then where
/// the report went. Stops at the first failed write to stdout.
fn print_summary(run: &MatrixRun, path: &Path) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for s in &run.scenarios {
        writeln!(
            out,
            "{:<14} {:<14} runs={} clean={}",
            s.name,
            s.bin,
            s.runs,
            s.runs as u64 - s.failures(),
        )?;
        for r in &s.reps {
            if let Some(e) = &r.error {
                eprintln!("  rep {}: {e}", r.rep);
            }
        }
    }
    writeln!(out, "wrote {}", path.display())?;
    out.flush()
}

//! The `hermes-lint` driver.
//!
//! ```text
//! cargo run -p hermes-lint -- --workspace
//! ```
//!
//! Scans the workspace for violations of the panic-policy,
//! telemetry-registry, intent-pairing and suppression invariants
//! (DESIGN.md §9) and prints one line per finding.
//! The exit code is the verdict: 0 clean, 1 findings, 2 usage or I/O
//! error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args != ["--workspace"] {
        eprintln!("usage: hermes-lint --workspace");
        return ExitCode::from(2);
    }
    let Some(root) = find_workspace_root() else {
        eprintln!("hermes-lint: error: could not locate the workspace root");
        return ExitCode::from(2);
    };
    let files = match hermes_lint::engine::load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hermes-lint: error: reading {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let outcome = hermes_lint::engine::lint_tree(&files);
    for f in &outcome.findings {
        println!("{f}");
    }
    println!(
        "hermes-lint: {} files scanned, {} finding(s), {} suppression(s)",
        outcome.files_scanned,
        outcome.findings.len(),
        outcome.suppressions.len()
    );
    if outcome.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`; falls back to this crate's compile-time
/// location (two levels above `crates/lint`).
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(PathBuf::from);
    }
    let fallback = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    fallback.canonicalize().ok()
}

//! One repetition of a scenario as an OS process, and its verdict
//! (DESIGN.md §11). The scenario tests (`tests/scenarios.rs`) run every
//! rep of a matrix scenario through [`run_rep`]; the runner's own tests
//! are `tests/fixture.rs`.
//!
//! A rep fails on a non-zero exit, on running past its deadline (the
//! child is killed and reaped), or, when traced, on a report that is
//! missing, unparsable or not `hermes-bench-report/1`.

use hermes_util::bench::Stopwatch;
use hermes_util::json::Json;
use hermes_util::scenario::Scenario;
use std::fs::File;
use std::path::Path;
use std::process::Command;

/// Longest one rep may run, seconds, before it is killed: well above the
/// slowest full-tier rep (`1m-preload`, minutes), short enough that CI
/// reports a hang the same hour.
pub const REP_TIMEOUT_S: u64 = 1800;

/// What a clean rep printed and reported, for the reproducibility check.
#[derive(Debug, PartialEq)]
pub struct RepOutput {
    /// The child's stdout.
    pub stdout: Vec<u8>,
    /// The child's report (empty when untraced and none was written).
    pub report: Vec<u8>,
}

/// Runs rep `rep` of `sc`, entry of the matrix file `matrix`, as binary
/// `bin` under [`Scenario::env`]; its files (`rep<r>.json`, `.stdout`,
/// `.stderr`) go under `dir`, and it is killed once it has run
/// `deadline_s` seconds. `Err` says why the rep does not count.
pub fn run_rep(
    bin: &Path,
    matrix: &Path,
    sc: &Scenario,
    rep: u32,
    dir: &Path,
    deadline_s: u64,
) -> Result<RepOutput, String> {
    let file = |ext: &str| dir.join(format!("rep{rep}.{ext}"));
    let create = |ext: &str| {
        File::create(file(ext)).map_err(|e| format!("cannot create {}: {e}", file(ext).display()))
    };
    let mut cmd = Command::new(bin);
    cmd.arg("--out")
        .arg(file("json"))
        .stdout(create("stdout")?)
        .stderr(create("stderr")?)
        // A rep's output depends only on its scenario and seed.
        .env_remove("HERMES_OUT")
        .env("HERMES_GIT_REV", "scenarios");
    let (set, remove) = sc.env(&matrix.to_string_lossy(), rep);
    cmd.envs(set);
    for k in remove {
        cmd.env_remove(k);
    }
    let clock = Stopwatch::start();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let status = loop {
        if let Some(status) = child
            .try_wait()
            .map_err(|e| format!("cannot poll {}: {e}", bin.display()))?
        {
            break status;
        }
        if clock.elapsed().as_secs() >= deadline_s {
            child
                .kill()
                .and_then(|()| child.wait())
                .map_err(|e| format!("cannot stop {}: {e}", bin.display()))?;
            return Err(format!("timed out after {deadline_s} s"));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    };
    if !status.success() {
        let stderr = std::fs::read_to_string(file("stderr")).unwrap_or_default();
        return Err(format!(
            "{status}: {}",
            stderr.lines().next().unwrap_or("(no stderr)")
        ));
    }
    if sc.trace {
        check_report(&file("json"))?;
    }
    Ok(RepOutput {
        stdout: std::fs::read(file("stdout"))
            .map_err(|e| format!("cannot read {}: {e}", file("stdout").display()))?,
        report: std::fs::read(file("json")).unwrap_or_default(),
    })
}

/// A traced rep's report verdict: it exists, parses, and is a
/// `hermes-bench-report/1` document.
pub fn check_report(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("no report at {}: {e}", path.display()))?;
    let doc =
        Json::parse(&text).map_err(|e| format!("malformed report {}: {e:?}", path.display()))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hermes-bench-report/1") => Ok(()),
        schema => Err(format!(
            "report schema {:?}, want hermes-bench-report/1",
            schema.unwrap_or("<missing>")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = std::env::temp_dir().join(format!("hermes_bench_check_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let verdict = |name: &str, body: &str| {
            let path = dir.join(name);
            std::fs::write(&path, body).expect("write report");
            check_report(&path)
        };
        assert_eq!(
            verdict("ok.json", "{\"schema\": \"hermes-bench-report/1\"}"),
            Ok(())
        );
        let e = verdict("v9.json", "{\"schema\": \"hermes-bench-report/9\"}").unwrap_err();
        assert!(
            e.contains("\"hermes-bench-report/9\", want hermes-bench-report/1"),
            "{e}"
        );
        let e = verdict("none.json", "{}").unwrap_err();
        assert!(e.contains("<missing>"), "{e}");
        let e = check_report(&dir.join("absent.json")).unwrap_err();
        assert!(e.starts_with("no report at"), "{e}");
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}

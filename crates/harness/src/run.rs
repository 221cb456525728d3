//! Spawning and supervising the per-repetition child processes.
//!
//! Each repetition is one OS process: the scenario's release binary,
//! launched with the environment [`hermes_util::scenario::Scenario::env`]
//! derives (seeded per repetition), `--out` pointed at a per-rep report
//! path, stdout discarded and stderr captured to a side file for
//! diagnosis. While the child runs the harness polls `/proc` for RSS/CPU
//! with an adaptive backoff (1 ms → 5 ms): millisecond-scale smoke
//! binaries still get a sample, and since the child's exit is noticed at
//! the next poll, `wall_ms` overshoots by at most 5 ms. A child still
//! running after [`RunConfig::rep_timeout_s`] is killed and its
//! repetition reported as failed, so a hung binary cannot hang CI.

use crate::merge::MergedScenario;
use crate::procsample::{self, ProcUsage};
use hermes_util::bench::Stopwatch;
use hermes_util::json::Json;
use hermes_util::scenario::{Matrix, Scenario};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// What to run: the matrix, where the binaries live, where output goes.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Path of the scenario matrix file.
    pub matrix_path: PathBuf,
    /// Directory holding the release binaries (`target/release`).
    pub bin_dir: PathBuf,
    /// Output directory for per-rep reports and the matrix summary.
    pub out_dir: PathBuf,
    /// Subset of scenario names to run; `None` runs the whole matrix.
    pub scenarios: Option<Vec<String>>,
    /// Longest one repetition may run, seconds, before it is killed.
    pub rep_timeout_s: u64,
}

/// The default [`RunConfig::rep_timeout_s`]: well above the slowest
/// full-tier repetition (`1m-preload`, minutes), short enough that CI
/// reports a hang the same hour.
pub const DEFAULT_REP_TIMEOUT_S: u64 = 1800;

/// The outcome of one repetition.
#[derive(Clone, Debug)]
pub struct RepResult {
    /// Repetition index (0-based; seeds derive from it).
    pub rep: u32,
    /// Child exit code (`None` when killed by a signal or timed out).
    pub exit_code: Option<i32>,
    /// Wall-clock from spawn to reaped, milliseconds.
    pub wall_ms: f64,
    /// Peak resident set observed, bytes.
    pub max_rss_bytes: u64,
    /// CPU time observed at the last `/proc` sample, milliseconds.
    pub cpu_ms: f64,
    /// `/proc` samples taken.
    pub samples: u64,
    /// Why this repetition does not count (nonzero exit, timeout, missing
    /// or malformed report). `None` for a clean rep.
    pub error: Option<String>,
}

impl RepResult {
    /// `true` when the repetition ran and reported cleanly.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// One scenario's repetitions plus their merged report view.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// Scenario name.
    pub name: String,
    /// Binary the scenario ran.
    pub bin: String,
    /// Repetitions requested.
    pub runs: u32,
    /// Per-repetition outcomes, in rep order.
    pub reps: Vec<RepResult>,
    /// Merged BENCH-report view over the clean repetitions.
    pub merged: MergedScenario,
}

impl ScenarioRun {
    /// Repetitions that failed (exit, missing or malformed report).
    pub fn failures(&self) -> u64 {
        self.reps.iter().filter(|r| !r.ok()).count() as u64
    }
}

/// The whole matrix run.
#[derive(Clone, Debug)]
pub struct MatrixRun {
    /// Scenario results in matrix (file) order.
    pub scenarios: Vec<ScenarioRun>,
}

impl MatrixRun {
    /// Total failed repetitions across scenarios.
    pub fn failures(&self) -> u64 {
        self.scenarios.iter().map(ScenarioRun::failures).sum()
    }
}

/// Runs the configured slice of the matrix. Configuration errors (bad
/// matrix, unknown scenario name, missing binary) abort with `Err`;
/// individual repetition failures are recorded in the result and counted
/// by [`MatrixRun::failures`].
pub fn run_matrix(cfg: &RunConfig) -> Result<MatrixRun, String> {
    let matrix = Matrix::load(&cfg.matrix_path).map_err(|e| e.to_string())?;
    let selected: Vec<&Scenario> = match &cfg.scenarios {
        None => matrix.scenarios.iter().collect(),
        Some(names) => names
            .iter()
            .map(|n| {
                matrix
                    .get(n)
                    .ok_or_else(|| format!("scenario {n:?} not in {}", cfg.matrix_path.display()))
            })
            .collect::<Result<_, _>>()?,
    };
    let mut out = MatrixRun {
        scenarios: Vec::new(),
    };
    for sc in selected {
        let bin = cfg.bin_dir.join(&sc.bin);
        if !bin.is_file() {
            return Err(format!(
                "scenario {:?}: binary {} not found (build with --release first)",
                sc.name,
                bin.display()
            ));
        }
        let mut run = ScenarioRun {
            name: sc.name.clone(),
            bin: sc.bin.clone(),
            runs: sc.runs,
            reps: Vec::new(),
            merged: MergedScenario::default(),
        };
        let scenario_dir = cfg.out_dir.join(&sc.name);
        std::fs::create_dir_all(&scenario_dir)
            .map_err(|e| format!("cannot create {}: {e}", scenario_dir.display()))?;
        for rep in 0..sc.runs {
            let mut result = run_rep(&bin, sc, cfg, rep, &scenario_dir)?;
            if result.error.is_none() && sc.trace {
                let merged = read_report(&rep_report_path(&scenario_dir, rep))
                    .and_then(|doc| run.merged.absorb(&doc));
                result.error = merged.err();
            }
            run.reps.push(result);
        }
        out.scenarios.push(run);
    }
    Ok(out)
}

/// The per-rep BENCH report path inside a scenario's output directory.
pub fn rep_report_path(scenario_dir: &Path, rep: u32) -> PathBuf {
    scenario_dir.join(format!("rep{rep}.json"))
}

fn read_report(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("no BENCH report at {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("malformed BENCH report {}: {e:?}", path.display()))
}

fn run_rep(
    bin: &Path,
    sc: &Scenario,
    cfg: &RunConfig,
    rep: u32,
    scenario_dir: &Path,
) -> Result<RepResult, String> {
    let report_path = rep_report_path(scenario_dir, rep);
    let stderr_path = scenario_dir.join(format!("rep{rep}.stderr"));
    let stderr_file = std::fs::File::create(&stderr_path)
        .map_err(|e| format!("cannot create {}: {e}", stderr_path.display()))?;
    let mut cmd = Command::new(bin);
    cmd.arg("--out")
        .arg(&report_path)
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr_file));
    let (set, remove) = sc.env(Some(&cfg.matrix_path.to_string_lossy()), rep);
    for (k, v) in set {
        cmd.env(k, v);
    }
    for k in remove {
        cmd.env_remove(k);
    }
    // Children must not inherit stray workspace knobs, and their reports
    // must not embed the ambient git revision (the canonical summary is
    // compared byte-wise across runs).
    cmd.env_remove("HERMES_OUT");
    cmd.env("HERMES_GIT_REV", "harness");
    let sw = Stopwatch::start();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let pid = child.id();
    let mut usage = ProcUsage::default();
    let mut sleep_ms = 1u64;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if sw.elapsed().as_secs() >= cfg.rep_timeout_s => {
                stop(&mut child);
                break None;
            }
            Ok(None) => {}
            Err(e) => {
                stop(&mut child);
                return Err(format!("waiting on {}: {e}", bin.display()));
            }
        }
        if let Some(s) = procsample::sample_pid(pid) {
            usage.absorb(s);
        }
        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
        sleep_ms = (sleep_ms + sleep_ms / 4 + 1).min(5);
    };
    let wall_ms = sw.elapsed().as_secs_f64() * 1000.0;
    let exit_code = status.and_then(|s| s.code());
    let error = match status {
        Some(s) if s.success() => None,
        Some(_) => {
            let diag = first_stderr_line(&stderr_path);
            Some(match exit_code {
                Some(c) => format!("exit code {c}{diag}"),
                None => format!("killed by signal{diag}"),
            })
        }
        None => Some(format!("timed out after {} s", cfg.rep_timeout_s)),
    };
    Ok(RepResult {
        rep,
        exit_code,
        wall_ms,
        max_rss_bytes: usage.max_rss_bytes,
        cpu_ms: usage.cpu_ms(),
        samples: usage.samples,
        error,
    })
}

/// Kills and reaps a child the harness gives up on.
#[expect(
    clippy::let_underscore_must_use,
    reason = "INVARIANT: kill fails only on a child that already exited, which wait then reaps; the caller reports the timeout or the wait error itself"
)]
fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn first_stderr_line(path: &Path) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => match text.lines().next() {
            Some(line) => format!(": {line}"),
            None => String::new(),
        },
        Err(_) => String::new(),
    }
}

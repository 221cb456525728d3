//! Command line: `run` (one workload in-process, or the full set with one
//! child process per workload) and `compare`.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::compare;
use crate::ledger::{self, Budget, RunConfig, RunResult};
use crate::workloads::{self, Scale};
use hermes_util::json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Prefix of the detail line a single-workload run prints before its
/// result line (the full-set parent collects it into the ledger row).
pub const DETAIL_PREFIX: &str = "detail: ";

const USAGE: &str = "usage:
  perf-ledger run --seed <u64> [--workload <name>] [--seconds <s> | --reps <n>]
                  [--trace <0|1>] [--smoke] [--out <dir>] [--pin]
  perf-ledger compare <dirA|ledgerA.json> <dirB|ledgerB.json>
  perf-ledger catalog

run, with --workload: runs that workload in this process and prints its
  metrics; the last line of stdout is one JSON object
  {correct, attempted, failed, metrics}. --trace 0 (default) reports the
  end-to-end metrics, --trace 1 the per-layer metrics.
run, without --workload: runs all five, untraced then traced, one child
  process each, and writes <dir>/ledger.json when --out is given.
--seconds: repeat fixed-size repetitions until the measured regions add up
  to <s> wall-clock seconds (at least 3). --reps: a fixed repetition count
  (default 5; 3 for varys_fattree). --smoke: one repetition at 1/20 size.
  ops_per_s and op_ns_* take each op's and step's third-fastest reading
  across the repetitions; everything else is the median across them.
--pin: rewrite expected/<workload>.seed<seed>.json from this run.
catalog: every metric with its unit, direction, bound or layer and source,
  and what it measures or should move.";

/// Parsed `run` arguments.
#[derive(Clone, Debug)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    budget: Option<Budget>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    pin: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        workload: None,
        seed: 1,
        budget: None,
        trace: false,
        smoke: false,
        out: None,
        pin: false,
    };
    let mut seen_seed = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?;
                seen_seed = true;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                a.budget = Some(Budget::Seconds(s));
            }
            "--reps" => {
                let n: usize = value("--reps")?
                    .parse()
                    .map_err(|_| "--reps takes a count".to_string())?;
                if !(1..=64).contains(&n) {
                    return Err("--reps must be in 1..=64".into());
                }
                a.budget = Some(Budget::Reps(n));
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--pin" => a.pin = true,
            "--out" => a.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !seen_seed {
        return Err("--seed is required".into());
    }
    Ok(a)
}

fn config_for(a: &RunArgs, workload: &str) -> RunConfig {
    let budget = if a.smoke {
        Budget::Reps(1)
    } else {
        a.budget
            .unwrap_or(Budget::Reps(workloads::default_reps(workload)))
    };
    RunConfig {
        workload: workload.to_string(),
        seed: a.seed,
        scale: if a.smoke { Scale::Smoke } else { Scale::Full },
        budget,
        trace: a.trace,
        out: a.out.clone(),
        pin: a.pin,
    }
}

fn print_result(r: &RunResult) {
    println!(
        "== {} ({}, {} reps, {} timed op calls/rep) ==",
        r.workload,
        if r.trace {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        },
        r.reps,
        r.op_calls
    );
    println!(
        "{:<38} {:>16} {:>16} {:>16}  {:<7} {}",
        "metric",
        "value",
        "q1",
        "q3",
        "unit",
        if r.trace { "source" } else { "bound" }
    );
    for v in &r.values {
        let tail = if r.trace {
            let Some(m) = PER_LAYER.iter().find(|m| m.name == v.name) else {
                continue;
            };
            // An idle layer reads 0 on this workload: keep the table to
            // the layers that did something.
            if v.q.median == 0.0 {
                continue;
            }
            m.source.as_str().to_string()
        } else {
            END_TO_END
                .iter()
                .find(|m| m.name == v.name)
                .map_or(String::new(), |m| format!("{:.0} %", m.bound * 100.0))
        };
        println!(
            "{:<38} {:>16.4} {:>16.4} {:>16.4}  {:<7} {}",
            v.name, v.q.median, v.q.q1, v.q.q3, v.unit, tail
        );
    }
    for c in &r.checks {
        println!(
            "check {:<34} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

fn run_one(a: &RunArgs, workload: &str) -> ExitCode {
    match ledger::run_workload(&config_for(a, workload)) {
        Ok(r) => {
            print_result(&r);
            println!("{DETAIL_PREFIX}{}", r.detail_json().to_string());
            println!("{}", r.contract_json().to_string());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload in a child process (so `VmHWM` is that workload's
/// alone) and returns its detail document.
fn run_child(a: &RunArgs, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &a.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match a.budget {
        Some(Budget::Seconds(s)) => {
            cmd.args(["--seconds", &s.to_string()]);
        }
        Some(Budget::Reps(n)) => {
            cmd.args(["--reps", &n.to_string()]);
        }
        None => {}
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    if a.pin {
        cmd.arg("--pin");
    }
    if let Some(dir) = &a.out {
        cmd.arg("--out").arg(dir);
    }
    let outp = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&outp.stdout);
    let mut detail = None;
    for line in text.lines() {
        if let Some(d) = line.strip_prefix(DETAIL_PREFIX) {
            detail = Json::parse(d).ok();
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let detail = detail.ok_or_else(|| format!("{workload}: child printed no detail line"))?;
    if !outp.status.success() {
        eprintln!(
            "perf-ledger: {workload} (trace {}) reported a failed check",
            u8::from(trace)
        );
    }
    Ok(detail)
}

fn run_all(a: &RunArgs) -> ExitCode {
    let mut rows = Vec::new();
    let mut all_ok = true;
    for w in workloads::NAMES {
        let pair = run_child(a, w, false).and_then(|e2e| Ok((e2e, run_child(a, w, true)?)));
        let (end_to_end, per_layer) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("perf-ledger: {e}");
                return ExitCode::FAILURE;
            }
        };
        for d in [&end_to_end, &per_layer] {
            all_ok &= d.get("correct") == Some(&Json::Bool(true));
        }
        rows.push((
            w,
            Json::obj([("end_to_end", end_to_end), ("per_layer", per_layer)]),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("schema", Json::Str(ledger::SCHEMA.to_string())),
        ("seed", Json::Int(i128::from(a.seed))),
        ("smoke", Json::Bool(a.smoke)),
        ("nproc", Json::Int(nproc as i128)),
        ("correct", Json::Bool(all_ok)),
        ("workloads", Json::obj(rows)),
    ]);
    if let Some(dir) = &a.out {
        let path = dir.join("ledger.json");
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{}\n", doc.to_string())))
        {
            eprintln!("perf-ledger: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("ledger row written to {}", path.display());
    }
    println!(
        "{} workloads, every output check {}",
        workloads::NAMES.len(),
        if all_ok { "passed" } else { "did NOT pass" }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the metric catalog: what BENCHMARK.json lists, plus the layer,
/// source and expected interaction its schema has no field for.
fn print_catalog() {
    println!("end-to-end (untraced run), name | unit | better | bound | definition");
    for m in END_TO_END {
        println!(
            "{} | {} | {} | {:.0} % | {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer (traced run), name | unit | better | layer | source | should move");
    for m in PER_LAYER {
        println!(
            "{} | {} | {} | {} | {} | {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer(),
            m.source.as_str(),
            m.moves
        );
    }
}

/// Entry point behind `main`.
pub fn main_with(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            // `HermesPlane::with_config` (which `Varys` builds its planes
            // through) arms fault injection from this variable; a ledger
            // row taken under it would not be comparable with any other.
            Ok(_) if std::env::var_os("HERMES_FAULT_SEED").is_some() => {
                eprintln!("perf-ledger: unset HERMES_FAULT_SEED before running the benchmark");
                ExitCode::from(2)
            }
            Ok(a) => match a.workload.clone() {
                Some(w) => run_one(&a, &w),
                None => run_all(&a),
            },
            Err(e) => {
                eprintln!("perf-ledger: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("catalog") if args.len() == 1 => {
            print_catalog();
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => {
            match compare::compare_paths(&PathBuf::from(&args[1]), &PathBuf::from(&args[2])) {
                Ok(report) => {
                    print!("{}", report.render());
                    if report.all_ok() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("perf-ledger: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

//! # hermes-bench — the experiment harness
//!
//! Shared machinery for the `exp_*` binaries that regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md §4 for the index
//! and EXPERIMENTS.md for paper-vs-measured results).
//!
//! The binaries print the same rows/series the paper reports; absolute
//! numbers depend on the empirical switch models, but the comparisons
//! (who wins, by what factor, where crossovers fall) are the reproduction
//! targets.
//!
//! Scale knobs: every binary loads a [`Scenario`] (see [`scenario`]) — a
//! named entry of `scenarios/matrix.toml` when `HERMES_SCENARIO_FILE` /
//! `HERMES_SCENARIO` are set (the harness does this), or a synthetic
//! `adhoc` scenario otherwise. `HERMES_SCALE` (default `1`) multiplies
//! workload sizes either way, so the full paper-scale runs are available
//! without recompiling.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use hermes_baselines::{ControlPlane, CpQueue, HermesPlane};
use hermes_core::config::HermesConfig;
use hermes_core::switch::HermesError;
use hermes_netsim::metrics::Samples;
use hermes_tcam::{FaultPlan, SimDuration, SimTime, SwitchModel};
use hermes_util::scenario::Scenario;
use hermes_workloads::microbench::TimedAction;

/// Result of driving a timed action stream through one control plane.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Rule installation times (arrival → completion, queueing included), ms.
    pub rit_ms: Samples,
    /// Pure per-rule execution latencies (no queueing), ms — the quantity
    /// the paper's per-rule RIT figures plot.
    pub exec_ms: Samples,
    /// Guarantee violations reported by the plane.
    pub violations: u64,
    /// Actions driven.
    pub actions: u64,
    /// Final table occupancy.
    pub occupancy: usize,
    /// Migration passes performed (Hermes planes only).
    pub migrations: u64,
}

impl StreamResult {
    /// Violations as a percentage of actions.
    pub fn violation_pct(&self) -> f64 {
        if self.actions == 0 {
            0.0
        } else {
            100.0 * self.violations as f64 / self.actions as f64
        }
    }
}

/// Drives a timed action stream through a control plane with serial
/// control-channel queueing, ticking the plane's background manager every
/// `tick`. RIT = completion − arrival (queueing included), exactly the
/// metric of §8.1.2.
pub fn drive_stream<P: ControlPlane>(
    plane: P,
    actions: &[TimedAction],
    tick: SimDuration,
) -> StreamResult {
    let mut q = CpQueue::new(plane);
    let mut result = StreamResult::default();
    let mut next_tick = SimTime::ZERO + tick;
    for ta in actions {
        // Catch up on manager ticks before this arrival.
        while next_tick <= ta.at {
            q.plane_mut().tick(next_tick);
            next_tick += tick;
        }
        let (start, outcome) = q.submit(std::slice::from_ref(&ta.action), ta.at);
        let op = outcome.ops.last().expect("INVARIANT: submit of one action reports at least one op");
        result
            .rit_ms
            .push((start + op.completed_at).since(ta.at).as_ms());
        result.exec_ms.push(op.exec.as_ms());
        if op.violated {
            result.violations += 1;
        }
        result.actions += 1;
    }
    result.occupancy = q.plane().occupancy();
    result.migrations = q.plane().migrations();
    result
}

/// Generates a traffic-engineering-style workload for the Fig. 10/11
/// comparisons, as *batches*: each batch is one reconfiguration event (the
/// set of FlowMods an SDN app pushes at once — the unit Tango and ESPRES
/// optimize over).
///
/// * `dc_structured = true` (the Facebook side): each batch holds sibling
///   destination prefixes sharing one action and priority — the
///   data-center IP-allocation structure Tango's aggregation exploits;
/// * `dc_structured = false` (the Geant side): scattered ISP prefixes with
///   varied priorities and actions — little to aggregate.
pub fn te_batches(
    dc_structured: bool,
    total_rules: usize,
    batches_per_s: f64,
    seed: u64,
) -> Vec<(SimTime, Vec<hermes_rules::rule::ControlAction>)> {
    use hermes_rules::prelude::*;
    use hermes_util::rng::{stream, Rng, Salt};
    let mut rng = stream(seed, Salt::CALLER);
    let mut out: Vec<(SimTime, Vec<ControlAction>)> = Vec::new();
    let mut now_s = 0.0f64;
    let mut id = 0u64;
    let mut emitted = 0usize;
    // Rules still installed from earlier reconfigurations, eligible for
    // teardown when their flows move again.
    let mut teardown_pool: Vec<RuleId> = Vec::new();
    while emitted < total_rules {
        let u: f64 = rng.gen_range(1e-12..1.0);
        now_s += -u.ln() / batches_per_s;
        let size = rng.gen_range(8..=32usize).min(total_rules - emitted);
        let mut inserts = Vec::with_capacity(size);
        if dc_structured {
            // A reconfiguration in a structured data-center network:
            // roughly half the rules are sibling prefixes sharing an action
            // and priority (one rack's flows moving together — Tango can
            // aggregate these); the rest are per-flow exact matches.
            let block = ((0b10u32 << 30) | (rng.gen_range(0..1u32 << 12) << 11)) & !0x7ff;
            let action = Action::Forward(rng.gen_range(1..48));
            let prio = Priority(rng.gen_range(100..200));
            for b in 0..size {
                if b % 2 == 0 {
                    let addr = block | ((b as u32) << 6);
                    inserts.push(Rule::new(
                        id,
                        Ipv4Prefix::new(addr, 26).to_key(),
                        prio,
                        action,
                    ));
                } else {
                    let m = FlowMatch::any()
                        .with_dst(Ipv4Prefix::host(rng.gen()))
                        .with_src(Ipv4Prefix::host(rng.gen()));
                    inserts.push(Rule::new(
                        id,
                        m.to_key(),
                        Priority(rng.gen_range(100..200)),
                        Action::Forward(rng.gen_range(1..48)),
                    ));
                }
                id += 1;
            }
        } else {
            // ISP reconfiguration: scattered prefixes, varied priorities
            // and actions — little to aggregate.
            for _ in 0..size {
                let len = rng.gen_range(16..=24);
                let addr = rng.gen::<u32>() | (1 << 31);
                inserts.push(Rule::new(
                    id,
                    Ipv4Prefix::new(addr, len).to_key(),
                    Priority(rng.gen_range(1..1000)),
                    Action::Forward(rng.gen_range(1..16)),
                ));
                id += 1;
            }
        }
        emitted += size;
        // Each reconfiguration also tears down rules from earlier ones
        // (flows leaving their old paths): about half as many deletes as
        // inserts, so the table still grows over the run. Submission order
        // interleaves deletes among the inserts — the naive order a raw
        // switch executes; ESPRES/Tango reorder deletes first.
        let n_del = (size / 2).min(teardown_pool.len());
        let mut batch: Vec<ControlAction> = Vec::with_capacity(size + n_del);
        let mut deletes: Vec<ControlAction> = (0..n_del)
            .map(|_| {
                let i = rng.gen_range(0..teardown_pool.len());
                ControlAction::Delete(teardown_pool.swap_remove(i))
            })
            .collect();
        for rule in &inserts {
            teardown_pool.push(rule.id);
        }
        for (i, rule) in inserts.into_iter().enumerate() {
            batch.push(ControlAction::Insert(rule));
            if i % 2 == 1 {
                if let Some(d) = deletes.pop() {
                    batch.push(d);
                }
            }
        }
        batch.extend(deletes);
        out.push((SimTime::from_secs(now_s), batch));
    }
    out
}

/// Drives batched reconfigurations through a control plane with serial
/// control-channel queueing. The per-rule RIT is
/// `queueing delay + completion offset within the batch`.
pub fn drive_batches<P: ControlPlane>(
    plane: P,
    batches: &[(SimTime, Vec<hermes_rules::rule::ControlAction>)],
    tick: SimDuration,
) -> StreamResult {
    let mut q = CpQueue::new(plane);
    let mut result = StreamResult::default();
    let mut next_tick = SimTime::ZERO + tick;
    for (at, actions) in batches {
        while next_tick <= *at {
            q.plane_mut().tick(next_tick);
            next_tick += tick;
        }
        let (start, outcome) = q.submit(actions, *at);
        // Only insertions count as RIT samples (§8.1.2 defines RIT over
        // rule installations; the teardown deletes are cheap bookkeeping).
        let insert_ids: std::collections::BTreeSet<_> = actions
            .iter()
            .filter(|a| a.is_insert())
            .map(|a| a.rule_id())
            .collect();
        for op in &outcome.ops {
            if !insert_ids.contains(&op.id) {
                continue;
            }
            result
                .rit_ms
                .push((start + op.completed_at).since(*at).as_ms());
            result.exec_ms.push(op.exec.as_ms());
            if op.violated {
                result.violations += 1;
            }
            result.actions += 1;
        }
    }
    result.occupancy = q.plane().occupancy();
    result.migrations = q.plane().migrations();
    result
}

/// Loads this process's scenario configuration from the environment —
/// the one place the workspace reads its `HERMES_*` run knobs; every
/// library crate receives them as arguments (DESIGN.md §8).
///
/// `HERMES_SCENARIO_FILE` + `HERMES_SCENARIO` select one entry of the
/// shared scenario matrix (`hermes_util::scenario`; the harness sets
/// both). Without them a synthetic `adhoc` scenario is built, so plain
/// `./exp_*` invocations behave exactly as before. In both cases the bare
/// environment variables (`HERMES_SCALE`, `HERMES_FAULT_SEED`,
/// `HERMES_TRACE`) override the file: that is how the harness varies
/// per-repetition fault seeds without editing the matrix, and how
/// operators tweak one-off runs.
#[expect(
    clippy::disallowed_methods,
    reason = "the scenario loader is the sanctioned reader of the HERMES_* run knobs"
)]
fn load_scenario_from_env() -> Result<Scenario, String> {
    let file = std::env::var("HERMES_SCENARIO_FILE").ok();
    let name = std::env::var("HERMES_SCENARIO").ok();
    let mut sc = match (&file, &name) {
        (Some(f), Some(n)) => {
            let matrix =
                hermes_util::scenario::Matrix::load(std::path::Path::new(f)).map_err(|e| e.to_string())?;
            matrix
                .get(n)
                .cloned()
                .ok_or_else(|| format!("scenario {n:?} not found in {f}"))?
        }
        (Some(f), None) => {
            return Err(format!(
                "HERMES_SCENARIO_FILE={f} is set but HERMES_SCENARIO names no scenario"
            ))
        }
        (None, _) => {
            let mut sc = Scenario::with_defaults("adhoc");
            // Ad-hoc runs arm telemetry from the environment only.
            sc.trace = false;
            sc
        }
    };
    if let Ok(v) = std::env::var("HERMES_SCALE") {
        sc.scale = v
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or_else(|| format!("HERMES_SCALE={v} is not a positive integer"))?;
    }
    if let Ok(v) = std::env::var("HERMES_FAULT_SEED") {
        sc.fault_seed = Some(
            v.parse()
                .map_err(|_| format!("HERMES_FAULT_SEED={v} is not an integer"))?,
        );
    }
    if let Ok(v) = std::env::var("HERMES_TRACE") {
        // Unset, empty or `0` leaves telemetry off; anything else arms it.
        sc.trace = !(v.is_empty() || v == "0");
    }
    Ok(sc)
}

fn scenario_cached() -> &'static Result<Scenario, String> {
    static SCENARIO: std::sync::OnceLock<Result<Scenario, String>> = std::sync::OnceLock::new();
    SCENARIO.get_or_init(load_scenario_from_env)
}

/// The scenario this process runs under — the one loader every `exp_*`
/// binary shares (DESIGN.md §11). Workload knobs come from
/// [`Scenario::knob_u64`] and friends with the binary's historical
/// defaults, so the named matrix entries and bare runs agree by
/// construction.
pub fn scenario() -> &'static Scenario {
    match scenario_cached() {
        Ok(sc) => sc,
        // INVARIANT: run_experiment validates the scenario before any
        // body (and therefore any scenario() call) runs; tests/matrix.rs
        // pins every exp_* binary to run_experiment.
        Err(e) => panic!("{e}"),
    }
}

/// The workload multiplier (`HERMES_SCALE` / the scenario's `scale`).
pub fn scale() -> usize {
    scenario().scale as usize
}

/// A Hermes plane for an experiment, armed with [`FaultPlan::seeded`] on
/// the scenario's fault seed (`HERMES_FAULT_SEED`; unset: fault-free).
/// Every `exp_*` binary and `hermes_cli` builds its Hermes planes here.
pub fn hermes_plane(model: SwitchModel, config: HermesConfig) -> Result<HermesPlane, HermesError> {
    let mut plane = HermesPlane::with_config(model, config)?;
    plane
        .switch_mut()
        .install_fault_plan(scenario().fault_seed.map(FaultPlan::seeded));
    Ok(plane)
}

/// Prints a CDF as aligned `value fraction` rows under a header, matching
/// the series the paper plots.
pub fn print_cdf(title: &str, samples: &mut Samples, points: usize) {
    println!("# CDF: {title}  (n={})", samples.len());
    for (v, f) in samples.cdf(points) {
        println!("{v:>12.3} {f:>6.3}");
    }
}

/// Prints the standard summary row used across experiments.
pub fn print_summary(label: &str, samples: &mut Samples) {
    if samples.is_empty() {
        println!("{label:<28} (no samples)");
        return;
    }
    println!(
        "{label:<28} n={:<7} median={:>10.3} p95={:>10.3} p99={:>10.3} max={:>10.3} mean={:>10.3}",
        samples.len(),
        samples.median(),
        samples.percentile(0.95),
        samples.percentile(0.99),
        samples.max(),
        samples.mean()
    );
}

/// A simple fixed-width table printer for the paper's tables.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            println!("| {} |", parts.join(" | "));
        };
        line(&self.header);
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            line(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_baselines::RawSwitch;
    use hermes_tcam::SwitchModel;
    use hermes_workloads::microbench::MicroBench;

    #[test]
    fn drive_stream_records_every_action() {
        let cfg = MicroBench {
            count: 100,
            ..Default::default()
        };
        let stream = cfg.generate();
        let result = drive_stream(
            RawSwitch::new(SwitchModel::pica8_p3290()),
            &stream,
            SimDuration::from_ms(100.0),
        );
        assert_eq!(result.actions, 100);
        assert_eq!(result.rit_ms.len(), 100);
        assert_eq!(result.violations, 0);
        assert_eq!(result.occupancy, 100);
    }

    #[test]
    fn queueing_shows_up_under_bursts() {
        // At 100k inserts/s a raw switch cannot keep up: tail RIT must
        // blow far past the mean per-op latency.
        let cfg = MicroBench {
            arrival_rate: 100_000.0,
            count: 1500,
            ..Default::default()
        };
        let stream = cfg.generate();
        let mut result = drive_stream(
            RawSwitch::new(SwitchModel::dell_8132f()),
            &stream,
            SimDuration::from_ms(100.0),
        );
        let p99 = result.rit_ms.percentile(0.99);
        let p10 = result.rit_ms.percentile(0.10);
        assert!(p99 > 10.0 * p10.max(0.1), "p99 {p99} vs p10 {p10}");
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(&["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    #[test]
    fn out_flag_parsing() {
        let p = |v: &[&str]| out_path_from_args(v.iter().map(|s| s.to_string()));
        assert_eq!(p(&[]), None);
        assert_eq!(p(&["--out", "x.json"]), Some("x.json".into()));
        assert_eq!(p(&["--out=y.json"]), Some("y.json".into()));
        // Later occurrences win; unrelated flags pass through untouched.
        assert_eq!(p(&["--foo", "--out", "a", "--out=b"]), Some("b".into()));
        assert_eq!(p(&["--out"]), None, "dangling flag is ignored");
    }
}

/// Standard Varys run over the Facebook workload on a fat tree.
///
/// `k=8` (128 hosts) by default; pass `HERMES_SCALE=4` or more to grow the
/// job count (the topology stays fixed so runs at different scales remain
/// comparable). Returns the finished simulator.
pub fn run_varys_facebook(
    kind: hermes_netsim::sim::SwitchKind,
    jobs: usize,
    seed: u64,
) -> hermes_netsim::sim::Varys {
    use hermes_netsim::prelude::*;
    use hermes_workloads::facebook::FacebookWorkload;
    let topo = Topology::fat_tree(8, 10e9);
    let hosts = topo.hosts().len();
    let config = VarysConfig {
        switch: kind,
        congestion_threshold: 0.5,
        base_rules_per_switch: 400,
        // The paper's proactive TE reconfigures the whole network every
        // period; no artificial cap.
        max_reroutes_per_tick: 10_000,
        te_interval_s: 0.5,
        seed,
        fault_seed: scenario().fault_seed,
    };
    let mut sim = Varys::new(topo, config);
    let workload = FacebookWorkload {
        jobs,
        hosts,
        duration_s: jobs as f64 * 0.15,
        seed: 99,
    };
    sim.register_jobs(&workload.generate());
    sim.run(workload.duration_s * 20.0 + 600.0);
    sim
}

/// Standard Varys run over the Geant workload (gravity traffic matrix,
/// Poisson flows).
pub fn run_varys_geant(
    kind: hermes_netsim::sim::SwitchKind,
    duration_s: f64,
    seed: u64,
) -> hermes_netsim::sim::Varys {
    use hermes_netsim::prelude::*;
    use hermes_workloads::gravity::{flows_from_matrix, TrafficMatrix};
    let topo = Topology::geant();
    let nodes = topo.hosts().len();
    let config = VarysConfig {
        switch: kind,
        congestion_threshold: 0.5,
        base_rules_per_switch: 400,
        max_reroutes_per_tick: 10_000,
        te_interval_s: 0.5,
        seed,
        fault_seed: scenario().fault_seed,
    };
    let mut sim = Varys::new(topo, config);
    // Offered load sized to congest the 10 Gbps backbone's hot links.
    let tm = TrafficMatrix::gravity(nodes, 4e9, 5);
    let flows = flows_from_matrix(&tm, duration_s, 200e6, 6);
    sim.register_flows(&flows, 0);
    sim.run(duration_s * 20.0 + 600.0);
    sim
}

/// Runs `body`, converting any panic into a one-line error string instead
/// of a backtrace (the default panic hook is silenced for the duration).
///
/// Top-level handler for operator-facing binaries: a fault-injected or
/// misconfigured run must exit with a diagnosable message, not a crash
/// dump. `AssertUnwindSafe` is sound here because the state the closure
/// touched is discarded on the error path.
pub fn catch_panic<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
    std::panic::set_hook(prev);
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "unexpected panic".to_string()
        }
    })
}

/// Wraps an experiment body for a binary's `main`: success exits 0, any
/// panic prints `<name>: error: <message>` on stderr and exits nonzero.
///
/// This is also the telemetry entry point for every `exp_*` binary and the
/// CLI (DESIGN.md "Observability"): it arms `hermes_telemetry` from the
/// scenario's `trace` flag (`HERMES_TRACE`), stamps the standard
/// report metadata (scale, fault seed), and on success emits the
/// `BENCH_<exp>.json` report — to the path given by a uniform `--out`
/// flag, or to stdout when tracing is enabled without one.
pub fn run_experiment(name: &str, body: impl FnOnce()) -> std::process::ExitCode {
    // Validate the scenario before anything else: a bad matrix file or a
    // malformed env override must die with one diagnosable line, not a
    // panic from deep inside the workload.
    let sc = match scenario_cached() {
        Ok(sc) => sc,
        Err(e) => {
            eprintln!("{name}: error: {e}");
            return std::process::ExitCode::FAILURE;
        }
    };
    hermes_telemetry::set_enabled(sc.trace);
    hermes_telemetry::reset();
    report_meta("scale", &(scale() as u64));
    if sc.name != "adhoc" {
        hermes_telemetry::set_meta(
            "scenario",
            hermes_util::json::Json::Str(sc.name.clone()),
        );
    }
    if let Some(seed) = sc.fault_seed {
        hermes_telemetry::set_meta("fault_seed", hermes_util::json::Json::Str(seed.to_string()));
    }
    let out = out_path_from_args(std::env::args().skip(1));
    match catch_panic(body) {
        Ok(()) => {
            emit_report(name, out.as_deref());
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{name}: error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// Registers one experiment-specific report metadata entry (seed, config
/// knobs…). Thin wrapper over [`hermes_telemetry::set_meta`] so binaries
/// only need the `hermes_bench` import they already have.
pub fn report_meta<T: hermes_util::json::ToJson>(key: &str, value: &T) {
    hermes_telemetry::set_meta(key, value.to_json());
}

/// Parses the uniform `--out <path>` / `--out=<path>` flag shared by every
/// experiment binary. Later occurrences win; all other arguments are left
/// for the binary's own parsing.
fn out_path_from_args(args: impl Iterator<Item = String>) -> Option<String> {
    let mut out = None;
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if a == "--out" {
            if let Some(v) = args.next() {
                out = Some(v);
            }
        } else if let Some(v) = a.strip_prefix("--out=") {
            out = Some(v.to_string());
        }
    }
    out
}

/// Emits the telemetry report for a finished experiment.
///
/// * `--out <path>` given: the report is written there (a directory gets
///   `BENCH_<exp>.json` inside it), whether or not tracing is enabled —
///   a disabled run still yields a valid, mostly-empty document.
/// * no `--out`, tracing enabled: the report prints to stdout after the
///   experiment's own output.
/// * no `--out`, tracing disabled: nothing is emitted (today's behavior).
fn emit_report(name: &str, out: Option<&str>) {
    let exp = name.strip_prefix("exp_").unwrap_or(name);
    if out.is_none() && !hermes_telemetry::enabled() {
        return;
    }
    let doc = hermes_telemetry::report(exp, &git_rev());
    match out {
        Some(path) => {
            let p = std::path::Path::new(path);
            let file = if p.is_dir() {
                p.join(format!("BENCH_{exp}.json"))
            } else {
                p.to_path_buf()
            };
            if let Err(e) = std::fs::write(&file, doc.to_string()) {
                eprintln!("warning: could not write {}: {e}", file.display());
            }
        }
        None => println!("{}", doc.to_string()),
    }
}

/// The revision stamped into reports: `HERMES_GIT_REV` (CI and the
/// harness pin it), else `"unknown"`.
#[expect(
    clippy::disallowed_methods,
    reason = "the report's git-rev stamp is a sanctioned HERMES_* reader"
)]
fn git_rev() -> String {
    std::env::var("HERMES_GIT_REV").unwrap_or_else(|_| "unknown".to_string())
}

/// Writes a JSON document for downstream plotting when `HERMES_OUT` is set
/// to a directory: `<HERMES_OUT>/<name>.json`. No-op otherwise. Errors are
/// reported to stderr but never abort an experiment.
pub fn export_json<T: hermes_util::json::ToJson>(name: &str, value: &T) {
    #[expect(clippy::disallowed_methods, reason = "HERMES_OUT is a sanctioned HERMES_* reader")]
    let dir = std::env::var_os("HERMES_OUT");
    export_json_to(dir.as_deref().map(std::path::Path::new), name, value);
}

/// [`export_json`] with the output directory passed in.
fn export_json_to<T: hermes_util::json::ToJson>(dir: Option<&std::path::Path>, name: &str, value: &T) {
    let Some(dir) = dir else {
        return;
    };
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, value.to_json().to_string()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;
    use hermes_util::json::{Json, ToJson};

    #[test]
    fn json_documents_serialize_compactly() {
        let doc = Json::obj([
            ("name", "fig8 \"RIT\"\n".to_json()),
            ("points", vec![(1.0f64, 0.5f64), (2.5, 1.0)].to_json()),
            ("n", 42u64.to_json()),
            ("tail", Option::<f64>::None.to_json()),
            ("ok", true.to_json()),
        ]);
        assert_eq!(
            doc.to_string(),
            "{\"name\":\"fig8 \\\"RIT\\\"\\n\",\"points\":[[1,0.5],[2.5,1]],\"n\":42,\"tail\":null,\"ok\":true}"
        );
    }

    #[test]
    fn json_handles_non_finite_floats() {
        assert_eq!(vec![f64::NAN, 1.0].to_json().to_string(), "[null,1]");
    }

    #[test]
    fn json_serializes_samples() {
        let mut s = Samples::new();
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.to_json().to_string(), "[1,2]");
    }

    #[test]
    fn export_json_respects_env() {
        // Without HERMES_OUT: silent no-op.
        export_json_to(None, "should_not_exist", &42u32);
        // With HERMES_OUT: file appears.
        let dir = std::env::temp_dir().join("hermes_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        export_json_to(Some(&dir), "answer", &vec![1u32, 2, 3]);
        let body = std::fs::read_to_string(dir.join("answer.json")).unwrap();
        assert_eq!(body, "[1,2,3]");
    }
}

#[cfg(test)]
mod te_batch_tests {
    use super::*;
    use hermes_rules::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn batches_are_deterministic_and_sized() {
        let a = te_batches(true, 500, 1.0, 9);
        let b = te_batches(true, 500, 1.0, 9);
        assert_eq!(a.len(), b.len());
        let inserts: usize = a
            .iter()
            .map(|(_, acts)| acts.iter().filter(|x| x.is_insert()).count())
            .sum();
        assert_eq!(inserts, 500);
        for ((t1, x), (t2, y)) in a.iter().zip(&b) {
            assert_eq!(t1, t2);
            assert_eq!(x, y);
        }
        // Timestamps strictly increase batch to batch.
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn deletes_reference_earlier_inserts_only() {
        let batches = te_batches(false, 400, 2.0, 4);
        let mut seen: BTreeSet<RuleId> = BTreeSet::new();
        let mut deletes = 0usize;
        for (_, acts) in &batches {
            // Within a batch, inserts may interleave with deletes of rules
            // from *earlier* batches.
            let before: BTreeSet<RuleId> = seen.clone();
            for a in acts {
                match a {
                    ControlAction::Insert(r) => {
                        seen.insert(r.id);
                    }
                    ControlAction::Delete(id) => {
                        deletes += 1;
                        assert!(before.contains(id), "delete of not-yet-installed rule");
                        seen.remove(id);
                    }
                    _ => {}
                }
            }
        }
        assert!(deletes > 50, "teardown churn expected, got {deletes}");
    }

    #[test]
    fn dc_batches_are_aggregatable_isp_are_not() {
        // A batch "looks aggregatable" when it contains a group of ≥4
        // inserted rules sharing (priority, action) — the shape Tango's
        // minimizer can collapse.
        let agg = |dc: bool| -> f64 {
            let batches = te_batches(dc, 600, 1.0, 7);
            let mut aggregatable = 0usize;
            let mut total = 0usize;
            for (_, acts) in &batches {
                let mut groups: std::collections::BTreeMap<(u32, Action), usize> =
                    std::collections::BTreeMap::new();
                let mut inserts = 0usize;
                for a in acts {
                    if let ControlAction::Insert(r) = a {
                        inserts += 1;
                        *groups.entry((r.priority.0, r.action)).or_insert(0) += 1;
                    }
                }
                if inserts >= 8 {
                    total += 1;
                    if groups.values().any(|&n| n >= 4) {
                        aggregatable += 1;
                    }
                }
            }
            aggregatable as f64 / total.max(1) as f64
        };
        assert!(agg(true) > 0.8, "DC batches should look aggregatable");
        assert!(agg(false) < 0.3, "ISP batches should not");
    }
}

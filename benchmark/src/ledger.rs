//! Running one workload and turning its repetitions into ledger values.
//!
//! A per-layer number and `setup_s` are the **median across repetitions**,
//! with quartiles alongside. The three end-to-end timings (`ops_per_s`,
//! `op_ns_p50`, `op_ns_p99`) are taken over the [`Fastest`] readings
//! instead: every repetition does the same work in the same order, so each
//! op (and each step of the measured region) is timed once per repetition,
//! and what is summarised is its third-fastest reading. A neighbour on the
//! shared host slows some repetition of an op, hardly ever all but two of
//! them; a slower program slows every one.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::recorder::{self_times, Call, Recorder, Sp};
use crate::summary::{median, percentile, Quartiles};
use crate::verify::Check;
use crate::workloads::{self, RepOutcome, Scale};
use hermes_util::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Ledger document schema tag.
pub const SCHEMA: &str = "hermes-perf-ledger/1";
/// Fewest repetitions a time-boxed run makes (per mode in a traced run).
const MIN_REPS: usize = 3;
/// Most repetitions any run makes.
const MAX_REPS: usize = 64;
/// Spans written to `spans.jsonl` (the store itself is unbounded).
const SPANS_JSONL_CAP: usize = 200_000;

/// Readings kept per op and per step: the reported timing of each is its
/// `KEEP_FASTEST`-th fastest across repetitions. Not the fastest itself —
/// the speed-normalised clock errs both ways, and the single best reading
/// of 15 is the one it flattered most.
pub const KEEP_FASTEST: usize = 3;

/// How many repetitions to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// A fixed count.
    Reps(usize),
    /// As many fixed-size repetitions as it takes for the measured
    /// regions to add up to this many wall-clock seconds (at least
    /// [`MIN_REPS`]).
    Seconds(f64),
}

/// One workload run's configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Full or smoke size.
    pub scale: Scale,
    /// Repetition budget.
    pub budget: Budget,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
    /// Where to write `spans.jsonl` + `layers.json` (traced runs).
    pub out: Option<PathBuf>,
    /// Rewrite `expected/<workload>.seed<seed>.json` instead of checking it.
    pub pin: bool,
}

/// One metric's value across repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value (`median`) and the quartiles across
    /// repetitions. A [`Fastest`]-based timing is one value per run: its
    /// quartiles equal it.
    pub q: Quartiles,
    /// Every repetition's own reading, in run order (probes and
    /// estimates: one). For a [`Fastest`]-based timing these show how
    /// noisy the host was; the reported value is not their median.
    pub samples: Vec<f64>,
}

/// What a workload run reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Traced or untraced.
    pub trace: bool,
    /// Every output check held on every repetition.
    pub correct: bool,
    /// Ops attempted across the reported repetitions.
    pub attempted: u64,
    /// Ops failed across the reported repetitions.
    pub failed: u64,
    /// Repetitions behind the medians.
    pub reps: usize,
    /// Timed op calls per repetition (the `n` behind `op_ns_p99`).
    pub op_calls: usize,
    /// The metrics: end-to-end (untraced) or per-layer (traced).
    pub values: Vec<Value>,
    /// Output checks (first repetition's, plus cross-rep checks).
    pub checks: Vec<Check>,
    /// The modeled-counter digest every repetition agreed on.
    pub digest: Json,
}

impl RunResult {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(i128::from(self.attempted.max(1)))),
            ("failed", Json::Int(i128::from(self.failed))),
            (
                "metrics",
                Json::obj(self.values.iter().map(|v| {
                    (
                        v.name,
                        Json::obj([
                            ("value", Json::Num(v.q.median)),
                            ("unit", Json::Str(v.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The detailed form kept in ledger rows (quartiles, checks, digest).
    pub fn detail_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("trace", Json::Bool(self.trace)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            ("reps", Json::Int(self.reps as i128)),
            ("op_calls_per_rep", Json::Int(self.op_calls as i128)),
            (
                "metrics",
                Json::obj(self.values.iter().map(|v| {
                    let mut q = v.q.to_json();
                    if let Json::Obj(pairs) = &mut q {
                        pairs.push(("unit".into(), Json::Str(v.unit.to_string())));
                        pairs.push((
                            "samples".into(),
                            Json::Arr(v.samples.iter().map(|x| Json::Num(*x)).collect()),
                        ));
                    }
                    (v.name, q)
                })),
            ),
            (
                "checks",
                Json::Arr(self.checks.iter().map(Check::to_json).collect()),
            ),
            ("digest", self.digest.clone()),
        ])
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// For a sequence of timings that every repetition produces in the same
/// order, the [`KEEP_FASTEST`] smallest readings of each position. Its
/// size is fixed by the first repetition, so the process's peak RSS does
/// not depend on how many repetitions the time budget allowed.
#[derive(Clone, Debug, Default)]
pub struct Fastest {
    rows: Vec<[f32; KEEP_FASTEST]>,
    reps: usize,
}

impl Fastest {
    /// Merges one repetition's readings. `false` (nothing merged) when
    /// their count differs from the earlier repetitions'.
    pub fn merge(&mut self, readings: &[f32]) -> bool {
        if self.reps == 0 {
            self.rows = readings
                .iter()
                .map(|x| {
                    let mut row = [f32::INFINITY; KEEP_FASTEST];
                    row[0] = *x;
                    row
                })
                .collect();
        } else if readings.len() != self.rows.len() {
            return false;
        } else {
            for (row, x) in self.rows.iter_mut().zip(readings) {
                let mut x = *x;
                for kept in row.iter_mut() {
                    if x < *kept {
                        std::mem::swap(kept, &mut x);
                    }
                }
            }
        }
        self.reps += 1;
        true
    }

    /// Each position's [`KEEP_FASTEST`]-th fastest reading (the slowest
    /// one while fewer repetitions than that have been merged).
    pub fn readings(&self) -> impl Iterator<Item = f64> + '_ {
        let k = self.reps.clamp(1, KEEP_FASTEST) - 1;
        self.rows.iter().map(move |row| f64::from(row[k]))
    }
}

/// The end-to-end timings of an untraced run, over the [`Fastest`]
/// readings of its ops and steps.
#[derive(Clone, Debug, Default)]
struct Steady {
    /// Per op call, in issue order (kind by kind): normalised ns.
    calls: Fastest,
    /// Ops carried by each of those calls.
    weights: Vec<u32>,
    /// Per step of the measured region ([`Recorder::steps`]).
    steps: Fastest,
    /// A repetition issued another number of calls or steps than the first.
    mismatched: bool,
}

impl Steady {
    fn merge(&mut self, workload: &str, rec: &Recorder) {
        let calls = || {
            workloads::op_spans(workload)
                .iter()
                .flat_map(|sp| rec.calls(*sp))
        };
        if self.weights.is_empty() {
            self.weights = calls().map(|c| c.weight.max(1)).collect();
        }
        let ns: Vec<f32> = calls().map(|c| c.ns as f32).collect();
        self.mismatched |= !self.calls.merge(&ns) || !self.steps.merge(rec.steps());
    }

    /// Per-op latency (ns ÷ ops carried, ops carried), sorted by latency.
    fn op_latencies(&self) -> Vec<(f64, u64)> {
        let mut v: Vec<(f64, u64)> = self
            .calls
            .readings()
            .zip(&self.weights)
            .map(|(ns, w)| (ns / f64::from(*w), u64::from(*w)))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }

    /// Seconds the measured region takes when every step takes its
    /// reported reading.
    fn measured_s(&self) -> f64 {
        self.steps.readings().sum::<f64>() / 1e9
    }
}

/// The workload's op calls this repetition, sorted by per-op latency
/// (ns ÷ ops carried).
fn op_calls_sorted(workload: &str, rec: &Recorder) -> Vec<(f64, u64)> {
    let mut v: Vec<(f64, u64)> = workloads::op_spans(workload)
        .iter()
        .flat_map(|sp| rec.calls(*sp))
        .map(|c| {
            (
                c.ns as f64 / f64::from(c.weight.max(1)),
                u64::from(c.weight.max(1)),
            )
        })
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

/// Nearest-rank `p`-quantile of per-op latency over *ops*: a call that
/// carried `w` ops stands for `w` samples of its ns ÷ `w`, so a workload
/// whose calls are batches of very different sizes still reports the
/// latency the median (or 99th-percentile) op saw. With one op per call
/// this is the plain nearest-rank quantile of `hermes_util::stats`.
pub fn weighted_percentile(sorted: &[(f64, u64)], p: f64) -> f64 {
    let total: u64 = sorted.iter().map(|c| c.1).sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = (p.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
    let mut seen = 0u64;
    for (ns, w) in sorted {
        seen += w;
        if seen > rank {
            return *ns;
        }
    }
    sorted.last().map_or(f64::NAN, |c| c.0)
}

fn ns_of(calls: &[Call]) -> Vec<f64> {
    calls.iter().map(|c| c.ns as f64).collect()
}

/// Total ns ÷ total ops carried, over calls of one kind.
fn ns_per_weight(calls: &[Call]) -> f64 {
    let w: u64 = calls.iter().map(|c| u64::from(c.weight)).sum();
    if w == 0 {
        0.0
    } else {
        calls.iter().map(|c| c.ns).sum::<u64>() as f64 / w as f64
    }
}

fn snap_counter(snap: &Json, name: &str) -> f64 {
    snap.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn snap_hist(snap: &Json, name: &str, field: &str) -> f64 {
    snap.get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Drift: median per-op ns of the last quarter of the run ÷ the first
/// quarter's (state that grows with run length shows as > 1).
fn drift(calls: &[Call]) -> f64 {
    let q = calls.len() / 4;
    if q == 0 {
        return 0.0;
    }
    ratio(
        median(&ns_of(&calls[calls.len() - q..])),
        median(&ns_of(&calls[..q])),
    )
}

/// The span- and count-sourced per-layer values of one traced repetition.
fn layer_values(
    workload: &str,
    out: &RepOutcome,
    rec: &Recorder,
    snap: &Json,
) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let calls = |sp: Sp| rec.calls(sp);
    let p = |sp: Sp, q: f64| {
        let ns = ns_of(rec.calls(sp));
        if ns.is_empty() {
            0.0
        } else {
            percentile(&ns, q)
        }
    };

    v.insert(
        "model.failed_ops_pct",
        ratio(out.failed as f64 * 100.0, out.ops as f64),
    );
    v.insert("model.violation_pct", out.model.violation_pct());
    v.insert("model.rit_ms_p99", out.model.rit_ms_p99());

    let submits = [Sp::CoreInsert, Sp::CoreDelete, Sp::CoreModify];
    v.insert(
        "core.submit_busy_s",
        submits.iter().map(|s| rec.busy_s(*s)).sum(),
    );
    v.insert(
        "core.submit_calls",
        submits.iter().map(|s| calls(*s).len()).sum::<usize>() as f64,
    );
    v.insert("core.tick_busy_s", rec.busy_s(Sp::CoreTick));
    v.insert("core.tick_calls", calls(Sp::CoreTick).len() as f64);
    v.insert("core.insert_ns_p50", p(Sp::CoreInsert, 0.5));
    v.insert("core.insert_ns_p99", p(Sp::CoreInsert, 0.99));
    v.insert("core.delete_ns_p50", p(Sp::CoreDelete, 0.5));
    v.insert("core.modify_ns_p50", p(Sp::CoreModify, 0.5));
    let primary = workloads::op_spans(workload)
        .first()
        .copied()
        .unwrap_or(Sp::Rep);
    v.insert("core.drift_q4_over_q1", drift(calls(primary)));
    v.insert(
        "core.batch_ns_per_rule",
        ns_per_weight(calls(Sp::CoreBatch)),
    );
    v.insert(
        "core.resync_ns_per_rule",
        ns_per_weight(calls(Sp::CoreResync)),
    );
    v.insert("core.lookup_ns_p50", p(Sp::CoreLookup, 0.5));
    v.insert("core.lookup_ns_p99", p(Sp::CoreLookup, 0.99));

    v.insert(
        "core.partition_calls",
        snap_counter(snap, "partition.calls"),
    );
    v.insert("core.partition_cuts", snap_counter(snap, "partition.cuts"));
    v.insert(
        "core.partition_pieces_p99",
        snap_hist(snap, "partition.pieces", "p99"),
    );
    v.insert("core.migrations", snap_counter(snap, "manager.migrations"));
    v.insert(
        "core.migration_batch_p50",
        snap_hist(snap, "manager.migration_batch", "p50"),
    );
    let routes: f64 = [
        "gatekeeper.route_shadow",
        "gatekeeper.route_main_unmatched",
        "gatekeeper.route_main_low_priority",
        "gatekeeper.route_main_over_rate",
        "gatekeeper.route_main_too_fragmented",
        "gatekeeper.route_main_shadow_full",
        "gatekeeper.route_redundant",
        "gatekeeper.route_deferred",
    ]
    .iter()
    .map(|n| snap_counter(snap, n))
    .sum();
    v.insert(
        "core.route_shadow_share",
        ratio(snap_counter(snap, "gatekeeper.route_shadow"), routes),
    );
    v.insert(
        "core.recovery_retries",
        snap_counter(snap, "recovery.retries"),
    );
    let reinstalled = snap_counter(snap, "resync.reinstalled");
    let survivors = snap_counter(snap, "resync.survivors_kept");
    v.insert("core.resync_reinstalled", reinstalled);
    v.insert(
        "core.resync_survivor_share",
        ratio(survivors, survivors + reinstalled),
    );

    let tcam_ops = snap_counter(snap, "tcam.ops");
    v.insert("tcam.ops", tcam_ops);
    v.insert(
        "tcam.shifts_per_op",
        ratio(snap_counter(snap, "tcam.shifts"), tcam_ops),
    );
    v.insert("tcam.batch_ops", snap_counter(snap, "tcam.batch_ops"));
    let saved = snap_counter(snap, "tcam.batch_saved_shifts");
    v.insert(
        "tcam.batch_saved_share",
        ratio(saved, saved + snap_counter(snap, "tcam.batch_shifts")),
    );

    v.insert(
        "fleet.install_path_busy_s",
        rec.busy_s(Sp::FleetInstallPath),
    );
    v.insert("fleet.install_path_ns_p50", p(Sp::FleetInstallPath, 0.5));
    v.insert("fleet.install_path_ns_p99", p(Sp::FleetInstallPath, 0.99));
    v.insert("fleet.submit_busy_s", rec.busy_s(Sp::FleetSubmit));
    v.insert("fleet.tick_all_busy_s", rec.busy_s(Sp::FleetTickAll));
    v.insert(
        "fleet.migrate_rules_busy_s",
        rec.busy_s(Sp::FleetMigrateRules),
    );
    let txns = snap_counter(snap, "fleet.txns");
    v.insert("fleet.txns", txns);
    v.insert(
        "fleet.commit_share",
        ratio(snap_counter(snap, "fleet.txn_commits"), txns),
    );
    v.insert(
        "fleet.txn_rollbacks",
        snap_counter(snap, "fleet.txn_rollbacks"),
    );
    v.insert("fleet.steals", snap_counter(snap, "fleet.sched.steals"));
    v.insert(
        "fleet.coalesced_pieces",
        snap_counter(snap, "fleet.txn_coalesced_pieces"),
    );
    v.insert(
        "fleet.rebalance_moves",
        snap_counter(snap, "fleet.rebalance.rules_moved"),
    );

    v.insert("netsim.run_s", rec.busy_s(Sp::NetsimRun));
    v.insert("netsim.register_s", rec.busy_s(Sp::NetsimRegister));
    let ideal = rec.busy_s(Sp::NetsimIdealRun);
    v.insert("netsim.ideal_run_s", ideal);
    v.insert(
        "netsim.plane_share",
        if ideal > 0.0 {
            1.0 - ratio(ideal, rec.busy_s(Sp::NetsimRun))
        } else {
            0.0
        },
    );
    v.insert(
        "netsim.flows_completed",
        snap_counter(snap, "netsim.flows_completed"),
    );
    v.insert("netsim.reroutes", snap_counter(snap, "netsim.reroutes"));
    v.insert(
        "netsim.rule_installs",
        snap_counter(snap, "netsim.rule_installs"),
    );

    v
}

/// `count × probe ns ÷ wall`: estimated shares of the measured region.
fn estimates(
    v: &mut BTreeMap<&'static str, f64>,
    digest: &[(&'static str, u64)],
    wall_s: f64,
    lookups: f64,
) {
    let g = |v: &BTreeMap<&'static str, f64>, k: &str| v.get(k).copied().unwrap_or(0.0);
    let rules_cut = digest
        .iter()
        .find(|(k, _)| *k == "rules_cut")
        .map_or(0.0, |(_, n)| *n as f64);
    let rules_ns = g(v, "core.partition_calls") * g(v, "rules.overlap_query_ns")
        + g(v, "core.partition_cuts") * g(v, "rules.difference_ns")
        + rules_cut * g(v, "rules.minimize_keys_ns");
    v.insert("rules.est_share", ratio(rules_ns, wall_s * 1e9));
    let tcam_ns = g(v, "tcam.ops") * g(v, "tcam.device_apply_ns")
        + g(v, "tcam.batch_ops") * g(v, "tcam.apply_batch_ns_per_op")
        + lookups * (0.7 * g(v, "tcam.peek_hit_ns") + 0.3 * g(v, "tcam.peek_miss_ns"));
    v.insert("tcam.est_share", ratio(tcam_ns, wall_s * 1e9));
}

/// Compares the digest with `expected/<workload>.seed<seed>.json` (or
/// rewrites the file under `--pin`). Only full-size runs are pinned.
fn pinned_check(cfg: &RunConfig, digest: &Json) -> Option<Check> {
    if cfg.scale != Scale::Full {
        return None;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.seed{}.json", cfg.workload, cfg.seed));
    if cfg.pin {
        let ok = std::fs::write(&path, format!("{}\n", digest.to_string())).is_ok();
        return Some(Check::new(
            "pinned_digest",
            ok,
            format!("pinned expected/{}.seed{}.json", cfg.workload, cfg.seed),
        ));
    }
    // Only seeds with a committed pin are checked against it.
    let text = std::fs::read_to_string(&path).ok()?;
    let same = Json::parse(text.trim()).is_ok_and(|want| want == *digest);
    Some(Check::new(
        "pinned_digest",
        same,
        if same {
            format!("matches expected/{}.seed{}.json", cfg.workload, cfg.seed)
        } else {
            format!("{} vs pinned {}", digest.to_string(), text.trim())
        },
    ))
}

fn write_trace_files(
    dir: &PathBuf,
    workload: &str,
    rec: &Recorder,
    layers: &Json,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{workload}.spans.jsonl")),
    )?);
    for (i, s) in rec.spans().iter().enumerate().take(SPANS_JSONL_CAP) {
        let parent = if s.parent == crate::recorder::NO_PARENT {
            Json::Null
        } else {
            Json::Int(i128::from(s.parent))
        };
        let line = Json::obj([
            ("id", Json::Int(i as i128)),
            ("name", Json::Str(s.name.name().to_string())),
            ("start_ns", Json::Int(i128::from(s.start_ns))),
            ("end_ns", Json::Int(i128::from(s.end_ns))),
            ("parent", parent),
            ("rep", Json::Int(i128::from(s.rep))),
        ]);
        writeln!(w, "{}", line.to_string())?;
    }
    w.flush()?;
    std::fs::write(
        dir.join(format!("{workload}.layers.json")),
        format!("{}\n", layers.to_string()),
    )
}

/// What the run loop keeps of one repetition.
struct RepRecord {
    traced: bool,
    ops: u64,
    failed: u64,
    ops_per_s: f64,
    measured_s: f64,
    /// End-to-end values (untraced repetitions of an untraced run).
    end_to_end: Vec<(&'static str, f64)>,
    /// Span- and count-sourced per-layer values (traced repetitions).
    layers: BTreeMap<&'static str, f64>,
    lookups: f64,
    op_calls: usize,
    digest: Vec<(&'static str, u64)>,
    checks: Vec<Check>,
    snapshot: Json,
}

/// Runs repetitions until the budget is met. A traced run alternates
/// untraced and traced repetitions: the traced ones carry the per-layer
/// numbers, the untraced ones are the baseline the tracing overhead is
/// measured against. An untraced run also merges every repetition into the
/// [`Steady`] readings its end-to-end timings come from.
fn run_reps(
    cfg: &RunConfig,
    input: &workloads::Input,
    rec: &mut Recorder,
) -> (Vec<RepRecord>, Steady) {
    let w = cfg.workload.as_str();
    let mut reps: Vec<RepRecord> = Vec::new();
    let mut steady = Steady::default();
    let mut measured_total = 0.0f64;
    loop {
        let traced = cfg.trace && !reps.len().is_multiple_of(2);
        hermes_telemetry::reset();
        hermes_telemetry::set_enabled(traced);
        rec.begin_rep(reps.len() as u32, traced);
        let root = rec.enter(Sp::Rep);
        let out = workloads::run_rep(input, rec);
        rec.exit(root, 1);
        hermes_telemetry::set_enabled(false);
        let snapshot = hermes_telemetry::snapshot();

        let lat = op_calls_sorted(w, rec);
        if !cfg.trace {
            steady.merge(w, rec);
        }
        let raw_s = rec.raw_busy_s(Sp::Measured);
        let mut layers = BTreeMap::new();
        if traced {
            layers = layer_values(w, &out, rec, &snapshot);
            layers.insert("bench.raw_ops_per_s", ratio(out.ops as f64, raw_s));
            layers.insert("bench.speed_factor", ratio(out.measured_s, raw_s));
        }
        measured_total += raw_s;
        reps.push(RepRecord {
            traced,
            ops: out.ops,
            failed: out.failed + out.checks.iter().filter(|c| !c.ok).count() as u64,
            ops_per_s: ratio(out.ops as f64, out.measured_s),
            measured_s: out.measured_s,
            end_to_end: vec![
                ("setup_s", out.setup_s),
                ("ops_per_s", ratio(out.ops as f64, out.measured_s)),
                ("op_ns_p50", weighted_percentile(&lat, 0.5)),
                ("op_ns_p99", weighted_percentile(&lat, 0.99)),
            ],
            layers,
            lookups: rec.calls(Sp::CoreLookup).len() as f64,
            op_calls: lat.len(),
            digest: out.digest,
            checks: out.checks,
            snapshot,
        });

        let pairs_complete = !cfg.trace || reps.len().is_multiple_of(2);
        let per_mode = if cfg.trace {
            reps.len() / 2
        } else {
            reps.len()
        };
        let done = match cfg.budget {
            Budget::Reps(n) => per_mode >= n.max(1),
            Budget::Seconds(s) => per_mode >= MIN_REPS && measured_total >= s,
        };
        if (done && pairs_complete) || reps.len() >= MAX_REPS {
            return (reps, steady);
        }
    }
}

/// Runs one workload and summarises it.
pub fn run_workload(cfg: &RunConfig) -> Result<RunResult, String> {
    if !workloads::NAMES.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (known: {})",
            cfg.workload,
            workloads::NAMES.join(", ")
        ));
    }
    let w = cfg.workload.as_str();
    let mut rec = Recorder::new();
    // Inputs are a pure function of the seed: generated once, read by
    // every repetition.
    let input = rec.time(Sp::Generate, || workloads::generate(w, cfg.seed, cfg.scale));
    let generate_s = rec.busy_s(Sp::Generate);
    // INVARIANT: the workload name was checked against `NAMES` above.
    let input = input.expect("a known workload has a generator");
    let (reps, steady) = run_reps(cfg, &input, &mut rec);
    // The repetitions the metrics come from: the traced ones of a traced
    // run, all of an untraced run.
    let reported: Vec<&RepRecord> = reps.iter().filter(|r| r.traced == cfg.trace).collect();
    let Some(first) = reported.first() else {
        return Err(format!("{w}: no repetition ran"));
    };

    // The first reported repetition's checks in full, then only failures.
    let mut checks: Vec<Check> = first.checks.clone();
    for r in &reported[1..] {
        checks.extend(r.checks.iter().filter(|c| !c.ok).cloned());
    }
    // Cross-repetition determinism: modeled counters must not move,
    // traced or not.
    checks.push(Check::new(
        "digest_identical_across_reps",
        reps.iter().all(|r| r.digest == first.digest),
        format!("{} repetitions", reps.len()),
    ));
    let digest = Json::obj(
        first
            .digest
            .iter()
            .map(|(k, v)| (*k, Json::Int(i128::from(*v)))),
    );
    if let Some(c) = pinned_check(cfg, &digest) {
        checks.push(c);
    }

    let column = |pick: &dyn Fn(&RepRecord) -> Option<f64>| -> Vec<f64> {
        reported.iter().filter_map(|r| pick(r)).collect()
    };
    let mut values = Vec::new();
    if cfg.trace {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for r in &reported {
            for (k, x) in &r.layers {
                samples.entry(k).or_default().push(*x);
            }
        }
        let mut med: BTreeMap<&'static str, f64> =
            samples.iter().map(|(k, xs)| (*k, median(xs))).collect();
        // INVARIANT: `reported` is non-empty (checked above).
        let last = reported.last().expect("a traced repetition ran");
        med.extend(workloads::probes(w, cfg.seed, cfg.scale, &last.snapshot));
        estimates(
            &mut med,
            &first.digest,
            median(&column(&|r| Some(r.measured_s))),
            first.lookups,
        );
        let untraced: Vec<f64> = reps
            .iter()
            .filter(|r| !r.traced)
            .map(|r| r.ops_per_s)
            .collect();
        let base = median(&untraced);
        med.insert(
            "telemetry.trace_overhead_pct",
            ratio(
                (base - median(&column(&|r| Some(r.ops_per_s)))) * 100.0,
                base,
            ),
        );
        let own = self_times(rec.spans());
        let measured_ns: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == Sp::Measured)
            .map(|s| s.dur_ns())
            .sum();
        med.insert(
            "bench.driver_self_share",
            ratio(
                own.get(&Sp::Measured).copied().unwrap_or(0) as f64,
                measured_ns as f64,
            ),
        );
        med.insert("bench.reps", reported.len() as f64);
        med.insert("workloads.generate_s", generate_s);
        for m in PER_LAYER {
            let x = med.get(m.name).copied().unwrap_or(0.0);
            let xs = samples.get(m.name).cloned().unwrap_or_else(|| vec![x]);
            let q = Quartiles {
                median: x,
                ..Quartiles::of(&xs)
            };
            // Counts must repeat exactly across traced repetitions.
            if m.exact() && q.q1 != q.q3 {
                checks.push(Check::new(
                    "count_identical_across_reps",
                    false,
                    format!("{} moved between repetitions: {} .. {}", m.name, q.q1, q.q3),
                ));
            }
            values.push(Value {
                name: m.name,
                unit: m.unit,
                q,
                samples: xs,
            });
        }
        if let Some(dir) = &cfg.out {
            let layers = Json::obj([
                ("workload", Json::Str(w.to_string())),
                ("seed", Json::Int(i128::from(cfg.seed))),
                ("spans_recorded", Json::Int(rec.spans().len() as i128)),
                (
                    "spans_written",
                    Json::Int(rec.spans().len().min(SPANS_JSONL_CAP) as i128),
                ),
                (
                    "self_time_ns",
                    Json::obj(
                        own.iter()
                            .map(|(sp, ns)| (sp.name(), Json::Int(i128::from(*ns)))),
                    ),
                ),
                (
                    "metrics",
                    Json::obj(values.iter().map(|v| (v.name, Json::Num(v.q.median)))),
                ),
                (
                    "telemetry_counters",
                    last.snapshot.get("counters").cloned().unwrap_or(Json::Null),
                ),
            ]);
            write_trace_files(dir, w, &rec, &layers)
                .map_err(|e| format!("writing trace files: {e}"))?;
        }
    } else {
        checks.push(Check::new(
            "op_sequence_identical_across_reps",
            !steady.mismatched,
            format!(
                "{} op calls, {} steps per repetition",
                steady.calls.rows.len(),
                steady.steps.rows.len()
            ),
        ));
        let lat = steady.op_latencies();
        for m in END_TO_END {
            let xs = if m.name == "peak_rss_mib" {
                vec![peak_rss_mib()]
            } else {
                column(&|r| {
                    r.end_to_end
                        .iter()
                        .find(|(k, _)| *k == m.name)
                        .map(|(_, x)| *x)
                })
            };
            // One value per run, not one per repetition: no quartiles.
            let single = |x: f64| Quartiles {
                median: x,
                q1: x,
                q3: x,
                n: xs.len(),
            };
            let q = match m.name {
                "ops_per_s" => single(ratio(first.ops as f64, steady.measured_s())),
                "op_ns_p50" => single(weighted_percentile(&lat, 0.5)),
                "op_ns_p99" => single(weighted_percentile(&lat, 0.99)),
                _ => Quartiles::of(&xs),
            };
            values.push(Value {
                name: m.name,
                unit: m.unit,
                q,
                samples: xs,
            });
        }
    }

    let failed: u64 = reported.iter().map(|r| r.failed).sum();
    Ok(RunResult {
        workload: w.to_string(),
        trace: cfg.trace,
        correct: checks.iter().all(|c| c.ok) && failed == 0,
        attempted: reported.iter().map(|r| r.ops).sum(),
        failed,
        reps: reported.len(),
        op_calls: first.op_calls,
        values,
        checks,
        digest,
    })
}

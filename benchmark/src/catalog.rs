//! The metric catalog: every metric the benchmark prints, with its unit,
//! direction, layer, source, and the end-to-end metric it is expected to
//! move. `BENCHMARK.json` at the repo root lists the same names, units and
//! directions (checked by `tests/catalog.rs`); layer, source and the
//! interaction live here and in the README because the contract's schema
//! has no field for them.

use Better::{Higher, Lower};
use Source::{Count, Estimate, Probe, Span};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// `"higher"` / `"lower"`, as BENCHMARK.json spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a per-layer number comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// `Stopwatch` around a call the benchmark issues.
    Span,
    /// `hermes_telemetry::snapshot()` of the traced repetition, or a
    /// modeled (sim-time) outcome: exact per seed.
    Count,
    /// The workload's inputs replayed straight into a lower layer.
    Probe,
    /// Computed from the above (count × probe ns ÷ wall): an estimate.
    Estimate,
}

impl Source {
    /// Printed name.
    pub fn as_str(self) -> &'static str {
        match self {
            Source::Span => "span",
            Source::Count => "count",
            Source::Probe => "probe",
            Source::Estimate => "estimate",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition.
    pub what: &'static str,
}

/// A per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is the crate name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Source.
    pub source: Source,
    /// End-to-end metric and workload it should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer (crate) the metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Whether the value must repeat exactly for a seed (counts and
    /// modeled outcomes): `compare` demands identity, not a bound.
    pub fn exact(&self) -> bool {
        self.source == Source::Count
    }
}

/// The end-to-end metrics, reported for every workload from the untraced run.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "host time to build and preload fresh state before the measured region (median over the run's repetitions; the inputs are generated once per run, see workloads.generate_s)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Higher,
        bound: 0.25,
        what: "workload ops / measured-region host seconds, each step of the region (end of one benchmark-issued call to the end of the next) at its third-fastest reading across the run's repetitions",
    },
    EndToEnd {
        name: "op_ns_p50",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        what: "per-op host latency, Stopwatch around each benchmark-issued call (a batch call counts as ns / ops carried), each op at its third-fastest reading across the run's repetitions",
    },
    EndToEnd {
        name: "op_ns_p99",
        unit: "ns",
        better: Lower,
        bound: 0.25,
        what: "same, nearest-rank p99 with the sample count reported",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at exit",
    },
];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

/// The per-layer metrics, reported for every workload from the traced
/// run. A layer that is idle on a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 71] = [
    // -- modeled outcome (sim time; exact per seed) --
    m("model.failed_ops_pct", "%", Lower, Count, "must stay 0 on every workload"),
    m("model.violation_pct", "%", Lower, Count, "the paper's headline; a host-time PR may not trade it away"),
    m("model.rit_ms_p99", "sim-ms", Lower, Count, "modeled rule-installation time p99"),
    // -- core: spans --
    m("core.submit_busy_s", "s", Lower, Span, "ops_per_s on switch_churn; update share of lookup_mix"),
    m("core.submit_calls", "count", Higher, Span, "base of core.submit_busy_s"),
    m("core.tick_busy_s", "s", Lower, Span, "ops_per_s on switch_churn and lookup_mix (migration cost)"),
    m("core.tick_calls", "count", Higher, Span, "base of core.tick_busy_s"),
    m("core.insert_ns_p50", "ns", Lower, Span, "op_ns_p50 on switch_churn"),
    m("core.insert_ns_p99", "ns", Lower, Span, "op_ns_p99 on switch_churn"),
    m("core.delete_ns_p50", "ns", Lower, Span, "op_ns_p50 on switch_churn"),
    m("core.modify_ns_p50", "ns", Lower, Span, "op_ns_p50 on switch_churn"),
    m("core.drift_q4_over_q1", "ratio", Lower, Span, "op_ns_* on switch_churn: state that grows with run length"),
    m("core.batch_ns_per_rule", "ns", Lower, Span, "ops_per_s on batch_resync"),
    m("core.resync_ns_per_rule", "ns", Lower, Span, "ops_per_s on batch_resync"),
    m("core.lookup_ns_p50", "ns", Lower, Span, "op_ns_p50 on lookup_mix"),
    m("core.lookup_ns_p99", "ns", Lower, Span, "op_ns_p99 on lookup_mix"),
    // -- core: counts --
    m("core.partition_calls", "count", Lower, Count, "explains op_ns_p99 on switch_churn; ~0 on batch_resync"),
    m("core.partition_cuts", "count", Lower, Count, "explains op_ns_p99 on switch_churn"),
    m("core.partition_pieces_p99", "count", Lower, Count, "explains model.rit_ms_p99"),
    m("core.migrations", "count", Lower, Count, "explains core.tick_busy_s"),
    m("core.migration_batch_p50", "count", Higher, Count, "explains core.tick_busy_s"),
    m("core.route_shadow_share", "ratio", Higher, Count, "explains model.violation_pct and model.rit_ms_p99"),
    m("core.recovery_retries", "count", Lower, Count, "explains model.failed_ops_pct"),
    m("core.resync_reinstalled", "count", Lower, Count, "base of core.resync_ns_per_rule"),
    m("core.resync_survivor_share", "ratio", Higher, Count, "explains core.resync_ns_per_rule"),
    // -- core: probe --
    m("core.partition_ns_p50", "ns", Lower, Probe, "op_ns_p50 on switch_churn; flat on batch_resync"),
    m("core.partition_ns_p99", "ns", Lower, Probe, "op_ns_p99 on switch_churn; flat on batch_resync"),
    // -- rules: probes --
    m("rules.overlap_query_ns", "ns", Lower, Probe, "op_ns_p99 on switch_churn only"),
    m("rules.index_insert_ns", "ns", Lower, Probe, "core.tick_busy_s on switch_churn (migration fills the index)"),
    m("rules.difference_ns", "ns", Lower, Probe, "op_ns_p99 on switch_churn only"),
    m("rules.minimize_keys_ns", "ns", Lower, Probe, "op_ns_p99 on switch_churn only"),
    m("rules.est_share", "ratio", Lower, Estimate, "ops_per_s on switch_churn; ~0 on batch_resync"),
    // -- tcam: counts --
    m("tcam.ops", "count", Lower, Count, "base of tcam.est_share"),
    m("tcam.shifts_per_op", "ratio", Lower, Count, "explains model.rit_ms_p99"),
    m("tcam.batch_ops", "count", Lower, Count, "base of tcam.est_share on batch_resync"),
    m("tcam.batch_saved_share", "ratio", Higher, Count, "explains model.rit_ms_p99 on batch_resync"),
    // -- tcam: probes --
    m("tcam.insert_ns", "ns", Lower, Probe, "op_ns_p99 on switch_churn; update share of lookup_mix"),
    m("tcam.delete_ns", "ns", Lower, Probe, "op_ns_p50 on switch_churn"),
    m("tcam.peek_hit_ns", "ns", Lower, Probe, "ops_per_s on lookup_mix"),
    m("tcam.peek_miss_ns", "ns", Lower, Probe, "ops_per_s on lookup_mix"),
    m("tcam.apply_batch_ns_per_op", "ns", Lower, Probe, "ops_per_s on batch_resync"),
    m("tcam.device_apply_ns", "ns", Lower, Probe, "op_ns_p50 on switch_churn"),
    m("tcam.est_share", "ratio", Lower, Estimate, "ops_per_s on lookup_mix and batch_resync"),
    // -- fleet: spans --
    m("fleet.install_path_busy_s", "s", Lower, Span, "ops_per_s on fleet_storm"),
    m("fleet.install_path_ns_p50", "ns", Lower, Span, "op_ns_p50 on fleet_storm"),
    m("fleet.install_path_ns_p99", "ns", Lower, Span, "op_ns_p99 on fleet_storm"),
    m("fleet.submit_busy_s", "s", Lower, Span, "ops_per_s on fleet_storm"),
    m("fleet.tick_all_busy_s", "s", Lower, Span, "ops_per_s on fleet_storm (recovery/resync under faults)"),
    m("fleet.migrate_rules_busy_s", "s", Lower, Span, "ops_per_s on fleet_storm"),
    // -- fleet: counts --
    m("fleet.txns", "count", Lower, Count, "attempts behind fleet_storm's ops; second-order on varys_fattree"),
    m("fleet.commit_share", "ratio", Higher, Count, "useful outcomes / attempts; explains ops_per_s on fleet_storm"),
    m("fleet.txn_rollbacks", "count", Lower, Count, "wasted work on fleet_storm"),
    m("fleet.steals", "count", Higher, Count, "explains model.rit_ms_p99 on fleet_storm"),
    m("fleet.coalesced_pieces", "count", Higher, Count, "explains fleet.install_path_ns_p50"),
    m("fleet.rebalance_moves", "count", Lower, Count, "base of fleet.migrate_rules_busy_s"),
    // -- netsim: spans --
    m("netsim.run_s", "s", Lower, Span, "ops_per_s on varys_fattree"),
    m("netsim.register_s", "s", Lower, Span, "ops_per_s on varys_fattree"),
    m("netsim.ideal_run_s", "s", Lower, Span, "netsim's own share of netsim.run_s"),
    m("netsim.plane_share", "ratio", Lower, Estimate, "1 - ideal/hermes: the fleet+core share of varys_fattree"),
    // -- netsim: probes --
    m("netsim.allocate_max_min_ns_p50flows", "ns", Lower, Probe, "ops_per_s on varys_fattree; flat elsewhere"),
    m("netsim.allocate_max_min_ns_peakflows", "ns", Lower, Probe, "op_ns_p99 on varys_fattree"),
    m("netsim.path_pick_ns", "ns", Lower, Probe, "ops_per_s on varys_fattree"),
    // -- netsim: counts --
    m("netsim.flows_completed", "count", Higher, Count, "the ops of varys_fattree"),
    m("netsim.reroutes", "count", Lower, Count, "explains fleet.txns on varys_fattree"),
    m("netsim.rule_installs", "count", Lower, Count, "explains netsim.plane_share"),
    // -- workloads / telemetry / the benchmark itself --
    m("workloads.generate_s", "s", Lower, Span, "the benchmark's own input generator, once per run: on no end-to-end metric's path"),
    m("telemetry.trace_overhead_pct", "%", Lower, Estimate, "traced vs untraced ops_per_s; must stay within the ops_per_s bound"),
    m("bench.driver_self_share", "ratio", Lower, Span, "self time of the measured region: the benchmark's own loop, not the system's"),
    m("bench.reps", "count", Higher, Span, "repetitions behind each median"),
    m("bench.speed_factor", "ratio", Higher, Span, "normalised / wall time of the measured region: the share of reference speed the host delivered"),
    m("bench.raw_ops_per_s", "op/s", Higher, Span, "ops_per_s on the wall clock, before speed normalisation"),
];

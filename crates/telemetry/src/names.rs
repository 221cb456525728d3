//! The registry of every metric and span name the workspace emits.
//!
//! Each recording call takes a typed handle — [`Counter`], [`Gauge`],
//! [`Histogram`], [`Series`] or [`Span`] — and the table below is the only
//! place one can be built: the fields are private, the way
//! `hermes_util::rng::Salt` works. So an unregistered name, or a name
//! emitted as the wrong kind, fails to compile. A unit test keeps the
//! entries distinct, and the root `tests/matrix.rs` checks that each one
//! is emitted somewhere (DESIGN.md §9).
//!
//! Metric names are `<subsystem>.<metric>`; a span is a `(subsystem, name)`
//! pair. Reports key every map by these same strings.

/// Declares the four single-name handle types.
macro_rules! handles {
    ($($(#[$doc:meta])* $kind:ident;)*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $kind(&'static str);

        impl $kind {
            /// The name reports key this metric by.
            #[inline]
            pub(crate) const fn name(self) -> &'static str {
                self.0
            }
        }
    )*};
}

handles! {
    /// A monotone counter's name ([`counter`](crate::counter)).
    Counter;
    /// A last-value gauge's name ([`gauge`](crate::gauge)).
    Gauge;
    /// A log-linear histogram's name ([`observe`](crate::observe)).
    Histogram;
    /// A bounded time series' name ([`series`](crate::series)).
    Series;
}

/// A span's `(subsystem, name)` labels ([`span`](crate::span),
/// [`span_enter`](crate::span_enter)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span(&'static str, &'static str);

impl Span {
    /// The owning subsystem (`netsim`, `manager`, …).
    #[inline]
    pub(crate) const fn subsystem(self) -> &'static str {
        self.0
    }

    /// The span label within its subsystem.
    #[inline]
    pub(crate) const fn name(self) -> &'static str {
        self.1
    }
}

/// Declares the name table and, for the distinctness test, the list of
/// every entry, from one source so the two cannot drift apart.
macro_rules! names {
    ($($kind:ident $const:ident = $first:literal $(, $rest:literal)?;)*) => {
        $(
            #[doc = concat!("`", $first, $(".", $rest,)? "`, a ", stringify!($kind), ".")]
            pub const $const: $kind = $kind($first $(, $rest)?);
        )*

        #[cfg(test)]
        const ALL_NAMES: &[(&str, &[&str])] = &[$((stringify!($kind), &[$first $(, $rest)?])),*];
    };
}

names! {
    // -- tcam: simulated switch device (crates/tcam/src/device.rs) --
    Counter TCAM_BATCH_ENTRIES = "tcam.batch_entries";
    Counter TCAM_BATCH_OPS = "tcam.batch_ops";
    Counter TCAM_BATCH_SAVED_SHIFTS = "tcam.batch_saved_shifts";
    Counter TCAM_BATCH_SHIFTS = "tcam.batch_shifts";
    Counter TCAM_CRASH_DISCONNECTS = "tcam.crash.disconnects";
    Counter TCAM_CRASH_ENTRIES_LOST = "tcam.crash.entries_lost";
    Counter TCAM_CRASH_PARTIALS = "tcam.crash.partials";
    Counter TCAM_CRASH_RECONNECT_DENIED = "tcam.crash.reconnect_denied";
    Counter TCAM_CRASH_RECONNECTS = "tcam.crash.reconnects";
    Counter TCAM_CRASH_WIPES = "tcam.crash.wipes";
    Counter TCAM_FAULT_FAIL = "tcam.fault_fail";
    Counter TCAM_FAULT_OUTAGE = "tcam.fault_outage";
    Counter TCAM_FAULT_SILENT_DROP = "tcam.fault_silent_drop";
    Counter TCAM_FAULT_SPIKE = "tcam.fault_spike";
    Counter TCAM_OPS = "tcam.ops";
    Counter TCAM_SHIFTS = "tcam.shifts";
    Histogram TCAM_BATCH_NS = "tcam.batch_ns";
    Histogram TCAM_OP_NS = "tcam.op_ns";

    // -- partition: rule-splitting algorithm (crates/core/src/partition.rs) --
    Counter PARTITION_CALLS = "partition.calls";
    Counter PARTITION_CUTS = "partition.cuts";
    Histogram PARTITION_PIECES = "partition.pieces";

    // -- gatekeeper: admission routing (crates/core/src/gatekeeper.rs, switch/) --
    Counter GATEKEEPER_ROUTE_DEFERRED = "gatekeeper.route_deferred";
    Counter GATEKEEPER_ROUTE_MAIN_LOW_PRIORITY = "gatekeeper.route_main_low_priority";
    Counter GATEKEEPER_ROUTE_MAIN_OVER_RATE = "gatekeeper.route_main_over_rate";
    Counter GATEKEEPER_ROUTE_MAIN_SHADOW_FULL = "gatekeeper.route_main_shadow_full";
    Counter GATEKEEPER_ROUTE_MAIN_TOO_FRAGMENTED = "gatekeeper.route_main_too_fragmented";
    Counter GATEKEEPER_ROUTE_MAIN_UNMATCHED = "gatekeeper.route_main_unmatched";
    Counter GATEKEEPER_ROUTE_REDUNDANT = "gatekeeper.route_redundant";
    Counter GATEKEEPER_ROUTE_SHADOW = "gatekeeper.route_shadow";
    Gauge GATEKEEPER_DEFERRED_DEPTH = "gatekeeper.deferred_depth";
    Histogram GATEKEEPER_SHADOW_INSERT_NS = "gatekeeper.shadow_insert_ns";

    // -- manager: shadow-to-main migration (crates/core/src/switch/) --
    Counter MANAGER_ENTRIES_SAVED = "manager.entries_saved";
    Counter MANAGER_MIGRATIONS = "manager.migrations";
    Histogram MANAGER_MIGRATION_BATCH = "manager.migration_batch";
    Histogram MANAGER_MIGRATION_NS = "manager.migration_ns";
    Series MANAGER_SHADOW_OCCUPANCY = "manager.shadow_occupancy";
    Span MANAGER_MIGRATE = "manager", "migrate";

    // -- recovery: fault handling and audit (crates/core/src/recovery.rs, switch/) --
    Counter RECOVERY_AUDIT_DIFFS = "recovery.audit_diffs";
    Counter RECOVERY_AUDITS = "recovery.audits";
    Counter RECOVERY_DEFERRED = "recovery.deferred";
    Counter RECOVERY_DEGRADED_ENTRIES = "recovery.degraded_entries";
    Counter RECOVERY_DEGRADED_NS = "recovery.degraded_ns";
    Counter RECOVERY_PERMANENT_FAILURES = "recovery.permanent_failures";
    Counter RECOVERY_RETRIES = "recovery.retries";
    Gauge RECOVERY_JOURNAL_DEPTH = "recovery.journal_depth";
    Histogram RECOVERY_BACKOFF_NS = "recovery.backoff_ns";
    Span RECOVERY_AUDIT = "recovery", "audit";

    // -- resync: crash fault domain + logical-view resync (crates/core/src/switch/) --
    Counter RESYNC_COMPLETED = "resync.completed";
    Counter RESYNC_CRASHES_DETECTED = "resync.crashes_detected";
    Counter RESYNC_DELETED = "resync.deleted";
    Counter RESYNC_GUARANTEE_GAP_NS = "resync.guarantee_gap_ns";
    Counter RESYNC_RECONNECT_ATTEMPTS = "resync.reconnect_attempts";
    Counter RESYNC_RECONNECT_FAILURES = "resync.reconnect_failures";
    Counter RESYNC_REINSTALLED = "resync.reinstalled";
    Counter RESYNC_STARTED = "resync.started";
    Counter RESYNC_SURVIVORS_KEPT = "resync.survivors_kept";
    Span RESYNC_RUN = "resync", "run";

    // -- fleet: sharded multi-switch controller (crates/fleet/src/lib.rs,
    //    rebalance.rs; fleet.path_degraded from crates/netsim/src/sim.rs) --
    Counter FLEET_OPS = "fleet.ops";
    Counter FLEET_PATH_DEGRADED = "fleet.path_degraded";
    Counter FLEET_REBALANCE_MIGRATIONS = "fleet.rebalance.migrations";
    Counter FLEET_REBALANCE_MIGRATIONS_ABORTED = "fleet.rebalance.migrations_aborted";
    Counter FLEET_REBALANCE_PICKS = "fleet.rebalance.picks";
    Counter FLEET_REBALANCE_RULES_MOVED = "fleet.rebalance.rules_moved";
    Counter FLEET_REBALANCE_STEERED = "fleet.rebalance.steered";
    Counter FLEET_ROLLBACK_RETRIES = "fleet.rollback_retries";
    Counter FLEET_SCHED_STEALS = "fleet.sched.steals";
    Counter FLEET_SUBMITS = "fleet.submits";
    Counter FLEET_TXN_COALESCED_PIECES = "fleet.txn_coalesced_pieces";
    Counter FLEET_TXN_COMMITS = "fleet.txn_commits";
    Counter FLEET_TXN_MEMBER_FAILURES = "fleet.txn_member_failures";
    Counter FLEET_TXN_ROLLBACKS = "fleet.txn_rollbacks";
    Counter FLEET_TXNS = "fleet.txns";
    Gauge FLEET_LANES = "fleet.lanes";
    Gauge FLEET_MEMBERS = "fleet.members";
    Histogram FLEET_DISPATCH_WAIT_NS = "fleet.dispatch_wait_ns";
    Span FLEET_INSTALL_PATH = "fleet", "install_path";

    // -- netsim: network simulator (crates/netsim/src/sim.rs) --
    Counter NETSIM_FLOWS_COMPLETED = "netsim.flows_completed";
    Counter NETSIM_REROUTES = "netsim.reroutes";
    Counter NETSIM_RULE_INSTALLS = "netsim.rule_installs";
    Histogram NETSIM_FCT_NS = "netsim.fct_ns";
    Histogram NETSIM_RIT_NS = "netsim.rit_ns";
    Series NETSIM_ACTIVE_FLOWS = "netsim.active_flows";
    Span NETSIM_TE_TICK = "netsim", "te_tick";

    // -- scale: batching at scale experiment (crates/bench/src/bin/exp_scale.rs) --
    Counter SCALE_BATCH_NAIVE_SHIFTS = "scale.batch_naive_shifts";
    Counter SCALE_BATCH_SHIFTS = "scale.batch_shifts";
    Counter SCALE_PER_OP_SHIFTS = "scale.per_op_shifts";
    Counter SCALE_RULES = "scale.rules";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_distinct() {
        let mut seen = BTreeSet::new();
        for &(kind, labels) in ALL_NAMES {
            let name = labels.join(".");
            assert!(
                seen.insert((kind, name.clone())),
                "two {kind} entries are named `{name}`: one metric would count both sites"
            );
        }
    }

    #[test]
    fn handles_carry_their_labels() {
        assert_eq!(TCAM_OPS.name(), "tcam.ops");
        assert_eq!(
            (NETSIM_TE_TICK.subsystem(), NETSIM_TE_TICK.name()),
            ("netsim", "te_tick")
        );
    }
}

//! `HermesSwitch`: the logical-table facade over a shadow/main TCAM pair.
//!
//! This is the paper's architecture (Fig. 3) end to end: control-plane
//! actions enter through the Gate Keeper, insertions are partitioned
//! (Algorithm 1) and placed in the small shadow slice, the Rule Manager
//! migrates rules into the main slice before the shadow overflows, and
//! packet lookups traverse shadow-then-main so the pair behaves exactly
//! like one monolithic table.
//!
//! ## Correctness invariant
//!
//! At *every* TCAM-operation boundary — including mid-migration — a lookup
//! against the shadow/main pair returns the same action as a monolithic
//! table holding the logical rules, except for packets covered only by
//! overlapping same-priority rules with different actions (behaviour
//! OpenFlow leaves undefined for a single table too). The integration
//! tests run this oracle in lockstep.
//!
//! Two mechanisms maintain the invariant beyond Algorithm 1 itself:
//!
//! * **Re-partitioning** (Fig. 6): deleting a main rule that shadow rules
//!   were cut against re-cuts those rules; symmetrically, inserting a
//!   higher-priority rule *directly into the main table* (rate-limit
//!   overflow, fragmentation bypass) re-cuts any overlapping lower-priority
//!   shadow rules.
//! * **Make-before-break migration** (§5.2): each migrated rule is written
//!   to the main table *before* its shadow pieces are removed, and rules
//!   migrate in ascending priority order, so no intermediate state can
//!   drop or misroute a packet.
//!
//! ## Layout
//!
//! One `impl HermesSwitch`, split along its seams: this file holds the
//! types, construction, accessors, the tick and packet lookup;
//! `device_io` the one retrying device chokepoint; `admission` the
//! insert path (planner, commits, `insert` / `admit_batch` drivers);
//! `placement` shadow re-cuts, eviction, `delete` and `modify`;
//! `migration` the shadow→main drain; `reconcile` audit and
//! crash-resync.

mod admission;
mod device_io;
mod migration;
mod placement;
mod reconcile;

use crate::config::HermesConfig;
use crate::gatekeeper::{GateKeeper, Route};
use crate::manager::{MigrationReport, RuleManager};
use crate::recovery::{RecoveryState, RecoveryStats};
use crate::resync::{IntentStore, ResyncStats};
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_tcam::{
    CrashKind, CrashSpec, FaultPlan, FaultStats, LookupResult, MissBehavior, SimDuration, SimTime,
    SwitchModel, TcamDevice, TcamError,
};
use std::collections::BTreeMap;

/// Slice index of the shadow table.
pub const SHADOW: usize = 0;
/// Slice index of the main table.
pub const MAIN: usize = 1;

/// Physical piece ids live above this bit so they can never collide with
/// controller-assigned logical ids.
const PHYS_BASE: u64 = 1 << 62;

/// Errors surfaced to the controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HermesError {
    /// A rule with this id is already installed.
    Duplicate(RuleId),
    /// No rule with this id is installed.
    NotFound(RuleId),
    /// The TCAM is out of space.
    DeviceFull,
    /// The requested guarantee is below the switch's fixed per-operation
    /// cost — no shadow size can honour it.
    InfeasibleGuarantee,
    /// Logical rule ids must stay below 2^62 (the physical-id space).
    IdOutOfRange(RuleId),
    /// The device rejected the op even after retries (transient channel
    /// faults that outlasted the retry budget).
    Device(TcamError),
}

impl std::fmt::Display for HermesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HermesError::Duplicate(id) => write!(f, "rule {id} already installed"),
            HermesError::NotFound(id) => write!(f, "rule {id} not installed"),
            HermesError::DeviceFull => write!(f, "TCAM full"),
            HermesError::InfeasibleGuarantee => write!(f, "guarantee below switch base cost"),
            HermesError::IdOutOfRange(id) => write!(f, "rule id {id} out of range"),
            HermesError::Device(e) => write!(f, "device failure: {e}"),
        }
    }
}

impl std::error::Error for HermesError {}

/// What happened to a submitted control-plane action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReportDetail {
    /// An insertion.
    Insert {
        /// Where the Gate Keeper routed it.
        route: Route,
        /// TCAM entries written (partition pieces, or 1 in the main table).
        pieces: usize,
        /// Whether the rule was entitled to the guarantee.
        guaranteed: bool,
        /// Whether an entitled rule missed its guarantee.
        violated: bool,
    },
    /// A deletion.
    Delete {
        /// TCAM entries removed.
        pieces_removed: usize,
        /// Shadow rules re-partitioned because of this deletion (Fig. 6).
        repartitioned: usize,
    },
    /// A modification.
    Modify {
        /// Whether it was applied in place (no priority change).
        in_place: bool,
    },
}

/// The controller-visible outcome of one control-plane action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ActionReport {
    /// Total simulated latency until the action took effect.
    pub latency: SimDuration,
    /// Action-specific detail.
    pub detail: ReportDetail,
}

impl ActionReport {
    /// Convenience: whether this was a guaranteed insert that missed its
    /// bound.
    pub fn violated(&self) -> bool {
        matches!(self.detail, ReportDetail::Insert { violated: true, .. })
    }

    /// Convenience: the route for insert reports.
    pub fn route(&self) -> Option<Route> {
        match self.detail {
            ReportDetail::Insert { route, .. } => Some(route),
            _ => None,
        }
    }
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HermesStats {
    /// Insert actions accepted.
    pub inserts: u64,
    /// Inserts serviced from the shadow table.
    pub shadow_inserts: u64,
    /// Inserts serviced from the main table (any reason).
    pub main_inserts: u64,
    /// Inserts that installed nothing (Fig. 5(a) redundancy).
    pub redundant_inserts: u64,
    /// Guaranteed inserts that missed the bound.
    pub violations: u64,
    /// Total shadow entries written (partition pieces).
    pub pieces_written: u64,
    /// Inserts whose rule was actually cut (pieces != original).
    pub rules_cut: u64,
    /// Delete actions.
    pub deletes: u64,
    /// Modify actions.
    pub modifies: u64,
    /// Shadow rules re-partitioned due to main-table churn.
    pub repartitions: u64,
    /// Migration passes.
    pub migrations: u64,
    /// Logical rules migrated shadow→main.
    pub rules_migrated: u64,
}

impl HermesStats {
    /// Running estimate of TCAM entries per logical shadow insert — the
    /// `r_p` of Equation 2.
    pub fn expected_partitions(&self) -> f64 {
        if self.shadow_inserts == 0 {
            1.0
        } else {
            (self.pieces_written as f64 / self.shadow_inserts as f64).max(1.0)
        }
    }
}

/// A logical rule resident in the shadow table.
#[derive(Clone, Debug)]
struct ShadowEntry {
    original: Rule,
    /// Partition pieces — physical id and key (empty for redundant rules).
    pieces: Vec<(RuleId, TernaryKey)>,
    /// Main rules it was cut against.
    cut_against: Vec<RuleId>,
}

/// The Hermes agent for one switch.
#[derive(Debug)]
pub struct HermesSwitch {
    device: TcamDevice,
    config: HermesConfig,
    gate: GateKeeper,
    manager: RuleManager,
    /// Logical rules resident in the main table, with original priorities.
    main_index: OverlapIndex,
    /// Logical rules resident in the shadow table.
    shadow: BTreeMap<RuleId, ShadowEntry>,
    /// Shadow insertion order (FIFO semantics + migration order).
    shadow_order: Vec<RuleId>,
    /// main rule id → shadow rules cut against it (the reverse of `M`).
    blockers: BTreeMap<RuleId, Vec<RuleId>>,
    /// Priority histogram over all logical rules (for the low-priority
    /// bypass check).
    prio_counts: BTreeMap<u32, usize>,
    next_phys: u64,
    stats: HermesStats,
    /// Retry/journal/degraded-mode state (see [`crate::recovery`]).
    recovery: RecoveryState,
    /// Durable checkpoint + journal of the installed-rule intent — what a
    /// crashed device is rebuilt from (see [`crate::resync`]).
    intent: IntentStore,
    /// Crash/resync health counters.
    resync_stats: ResyncStats,
    /// An unresolved crash window is open: the device lost its control
    /// session (and possibly state) and resync has not yet completed.
    crash_pending: bool,
    /// When the open crash window was detected (guarantee-gap metric).
    crash_detected_at: Option<SimTime>,
    /// High-water mark of `now` across public entry points; used to stamp
    /// degraded-mode episodes from internal paths that take no clock.
    clock: SimTime,
}

impl HermesSwitch {
    /// Builds a Hermes agent on the given switch model.
    ///
    /// The shadow slice is sized as the largest table whose *worst-case*
    /// insertion latency meets the guarantee (or `config.shadow_size` when
    /// overridden); the main slice gets the remainder of the TCAM.
    pub fn new(model: SwitchModel, config: HermesConfig) -> Result<Self, HermesError> {
        let shadow_size = match config.shadow_size {
            Some(s) => s.min(model.capacity / 2),
            None => model
                .max_table_for_guarantee(config.guarantee)
                .ok_or(HermesError::InfeasibleGuarantee)?
                .clamp(1, model.capacity / 2),
        };
        if shadow_size == 0 {
            return Err(HermesError::InfeasibleGuarantee);
        }
        let main_size = model.capacity - shadow_size;
        let device = TcamDevice::carved(
            model,
            &[
                ("shadow", shadow_size, MissBehavior::GotoNextSlice),
                ("main", main_size, MissBehavior::ToController),
            ],
        );
        // Admission rate from Equation 2, λ = S_ST / (r_p · t_m), reading
        // t_m as the time to drain the full shadow (S_ST rules at the
        // per-rule migration cost — the only reading with consistent
        // units): λ = 1 / (r_p · per_rule_migration_time). Initial
        // estimates: r_p = 1, migration cost at half main occupancy. The
        // token bucket's burst is the shadow capacity itself.
        let per_rule = device.model().mean_update_latency(main_size / 2).as_secs();
        let derived = if per_rule > 0.0 {
            1.0 / per_rule
        } else {
            f64::INFINITY
        };
        let rate = config.rate_limit.unwrap_or(derived);
        let mut gate = GateKeeper::new(
            config.predicate.clone(),
            if rate.is_finite() {
                Some((rate, shadow_size as f64))
            } else {
                None
            },
            config.max_partitions,
        );
        gate.set_low_priority_bypass(config.low_priority_bypass);
        let manager = RuleManager::new(config.trigger);
        let recovery = RecoveryState::new(config.retry, config.degraded_threshold);
        let intent = IntentStore::new(config.resync.checkpoint_interval);
        Ok(HermesSwitch {
            device,
            config,
            gate,
            manager,
            main_index: OverlapIndex::new(),
            shadow: BTreeMap::new(),
            shadow_order: Vec::new(),
            blockers: BTreeMap::new(),
            prio_counts: BTreeMap::new(),
            next_phys: PHYS_BASE,
            stats: HermesStats::default(),
            recovery,
            intent,
            resync_stats: ResyncStats::default(),
            crash_pending: false,
            crash_detected_at: None,
            clock: SimTime::ZERO,
        })
    }

    /// The agent's configuration.
    pub fn config(&self) -> &HermesConfig {
        &self.config
    }

    /// Lifetime counters.
    pub fn stats(&self) -> HermesStats {
        self.stats
    }

    /// Shadow-slice capacity (the TCAM overhead Hermes pays).
    pub fn shadow_capacity(&self) -> usize {
        self.device.slice(SHADOW).table.capacity()
    }

    /// Current shadow occupancy in entries.
    pub fn shadow_len(&self) -> usize {
        self.device.slice(SHADOW).table.len()
    }

    /// Current main-table occupancy in entries.
    pub fn main_len(&self) -> usize {
        self.device.slice(MAIN).table.len()
    }

    /// Number of logical rules installed (shadow + main).
    pub fn logical_len(&self) -> usize {
        self.shadow.len() + self.main_index.len()
    }

    /// TCAM overhead as a fraction of total capacity (`QoSOverheads`, §7).
    pub fn overhead_fraction(&self) -> f64 {
        self.shadow_capacity() as f64 / self.device.model().capacity as f64
    }

    /// The maximum *sustained* guaranteed insertion rate λ (Equation 2,
    /// `λ = S_ST / (r_p · t_m)` with `t_m` the time to drain the full
    /// shadow): rules cannot enter the shadow faster than migration can
    /// move them out, so λ = 1 / (r_p · per-rule migration cost). Bursts
    /// up to the shadow capacity on top of this are absorbed by the
    /// token bucket.
    pub fn max_supported_rate(&self) -> f64 {
        let per_rule = self
            .device
            .model()
            .mean_update_latency(
                self.main_len()
                    .max(self.device.slice(MAIN).table.capacity() / 2),
            )
            .as_secs();
        if per_rule <= 0.0 {
            return f64::INFINITY;
        }
        1.0 / (self.stats.expected_partitions() * per_rule)
    }

    /// Borrow the underlying device (telemetry/tests).
    pub fn device(&self) -> &TcamDevice {
        &self.device
    }

    /// Installs (or clears) a fault-injection plan on the device's control
    /// channel (chaos testing).
    pub fn install_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.device.set_fault_plan(plan);
    }

    /// Injected-fault counters, when a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.device.fault_stats()
    }

    /// Recovery-subsystem health counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery.stats
    }

    /// Crash/resync-subsystem health counters.
    pub fn resync_stats(&self) -> ResyncStats {
        self.resync_stats
    }

    /// Whether the switch is inside a crash window: the control session
    /// is down, or it crashed and resync has not yet completed. The
    /// guarantee is suspended until [`resync`](Self::resync) finishes.
    pub fn is_down(&self) -> bool {
        self.crash_pending || !self.device.is_connected()
    }

    /// Rules in the durable intent store (must equal the logical
    /// shadow + main population).
    pub fn intent_len(&self) -> usize {
        self.intent.len()
    }

    /// Intent-journal entries not yet folded into the checkpoint.
    pub fn intent_journal_depth(&self) -> usize {
        self.intent.journal_depth()
    }

    /// Injects a crash-class fault directly (netsim switch-down windows
    /// and chaos tests): the device drops its control session and loses
    /// state per `kind`, and the controller books the crash immediately.
    pub fn inject_crash(
        &mut self,
        kind: CrashKind,
        survivor_seed: u64,
        reconnect_denials: u32,
        now: SimTime,
    ) {
        self.clock = self.clock.max(now);
        self.device.force_crash(CrashSpec {
            kind,
            survivor_seed,
            reconnect_denials,
        });
        self.note_crash();
    }

    /// Books a newly-detected crash: opens the crash window, stamps the
    /// detection time for the guarantee-gap metric, and forces the Gate
    /// Keeper into degraded mode so admissions queue instead of hammering
    /// the dead session.
    pub(super) fn note_crash(&mut self) {
        if self.crash_pending {
            return;
        }
        self.crash_pending = true;
        self.crash_detected_at = Some(self.clock);
        self.resync_stats.crashes_detected += 1;
        hermes_telemetry::counter("resync.crashes_detected", 1);
        self.recovery.enter_degraded(self.clock);
    }

    /// Whether the Gate Keeper is currently in degraded mode (queuing
    /// admissions because the control channel looks dead).
    pub fn is_degraded(&self) -> bool {
        self.recovery.is_degraded()
    }

    /// Admissions queued by degraded mode, awaiting the channel's return.
    pub fn deferred_len(&self) -> usize {
        self.recovery.deferred.len()
    }

    /// All logical rules currently installed, in no particular order.
    pub fn logical_rules(&self) -> Vec<Rule> {
        let mut out: Vec<Rule> = self.main_index.iter().collect();
        out.extend(self.shadow.values().map(|e| e.original));
        out.extend(self.recovery.deferred.iter().copied());
        out
    }

    /// Whether a logical rule is installed (including admissions queued by
    /// degraded mode — they are accepted, just not yet placed).
    pub fn contains(&self, id: RuleId) -> bool {
        self.shadow.contains_key(&id)
            || self.main_index.contains(id)
            || self.recovery.deferred.iter().any(|r| r.id == id)
    }

    /// Looks up a logical rule.
    pub fn get(&self, id: RuleId) -> Option<Rule> {
        self.shadow
            .get(&id)
            .map(|e| e.original)
            .or_else(|| self.main_index.get(id))
            .or_else(|| self.recovery.deferred.iter().find(|r| r.id == id).copied())
    }

    /// Allocates `n` consecutive physical ids and returns the first.
    pub(super) fn alloc_phys(&mut self, n: usize) -> RuleId {
        let first = RuleId(self.next_phys);
        self.next_phys += n as u64;
        first
    }

    pub(super) fn lowest_live_priority(&self) -> Option<Priority> {
        self.prio_counts.keys().next().map(|&p| Priority(p))
    }

    pub(super) fn prio_add(&mut self, p: Priority) {
        *self.prio_counts.entry(p.0).or_insert(0) += 1;
    }

    pub(super) fn prio_remove(&mut self, p: Priority) {
        if let Some(c) = self.prio_counts.get_mut(&p.0) {
            *c -= 1;
            if *c == 0 {
                self.prio_counts.remove(&p.0);
            }
        }
    }

    pub(super) fn register_blockers(&mut self, rule: RuleId, cut_against: &[RuleId]) {
        for b in cut_against {
            self.blockers.entry(*b).or_default().push(rule);
        }
    }

    pub(super) fn unregister_blockers(&mut self, rule: RuleId, cut_against: &[RuleId]) {
        for b in cut_against {
            if let Some(v) = self.blockers.get_mut(b) {
                v.retain(|r| *r != rule);
                if v.is_empty() {
                    self.blockers.remove(b);
                }
            }
        }
    }

    /// Submits a control-plane action (the OpenFlow `flow-mod` surface).
    pub fn submit(
        &mut self,
        action: &ControlAction,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        match action {
            ControlAction::Insert(rule) => self.insert(*rule, now),
            ControlAction::Delete(id) => self.delete(*id, now),
            ControlAction::Modify {
                id,
                action,
                priority,
            } => self.modify(*id, *action, *priority, now),
        }
    }

    /// Periodic Rule Manager tick: feeds the predictor and migrates when
    /// the trigger fires. Call every `config.tick` of simulated time.
    ///
    /// The tick is also the recovery heartbeat: it replays the journal of
    /// failed physical deletes and drains the degraded-mode queue (which
    /// doubles as the channel probe — the first successful flush ends the
    /// degraded episode automatically).
    pub fn tick(&mut self, now: SimTime) -> Option<MigrationReport> {
        self.clock = self.clock.max(now);
        if self.is_down() {
            self.resync(now);
            if self.is_down() {
                // Reconnect denied: the journal, queue and migration all
                // need a live session — retry on the next tick.
                return None;
            }
        }
        if hermes_telemetry::enabled() {
            hermes_telemetry::gauge(
                "recovery.journal_depth",
                self.recovery.pending_gc.len() as f64,
            );
            hermes_telemetry::gauge(
                "gatekeeper.deferred_depth",
                self.recovery.deferred.len() as f64,
            );
            hermes_telemetry::gauge(
                "resync.intent_journal_depth",
                self.intent.journal_depth() as f64,
            );
        }
        self.replay_journal();
        self.flush_deferred(now);
        let r_p = self.stats.expected_partitions();
        let migrated = if self
            .manager
            .on_tick(now, self.shadow_len(), self.shadow_capacity(), r_p)
        {
            Some(self.migrate(now))
        } else {
            None
        };
        if hermes_telemetry::enabled() {
            hermes_telemetry::series(
                "manager.shadow_occupancy",
                now.as_nanos(),
                self.shadow_len() as f64,
            );
        }
        migrated
    }

    /// The shadow resident a physical piece id belongs to.
    pub(super) fn piece_owner(&self, pid: RuleId) -> Option<RuleId> {
        self.shadow
            .values()
            .find(|e| e.pieces.iter().any(|(p, _)| *p == pid))
            .map(|e| e.original.id)
    }

    /// Rewrites a matched partition piece back to its controller-visible
    /// logical rule (same key semantics, logical id and original match).
    fn resolve(&self, result: LookupResult) -> LookupResult {
        if let LookupResult::Matched { slice, rule } = result {
            if rule.id.0 >= PHYS_BASE {
                if let Some(id) = self.piece_owner(rule.id) {
                    return LookupResult::Matched {
                        slice,
                        rule: Rule { id, ..rule },
                    };
                }
            }
        }
        result
    }

    /// Packet lookup through the shadow→main pipeline. Matched partition
    /// pieces are reported under their logical rule id.
    pub fn lookup(&mut self, packet: u128) -> LookupResult {
        let raw = self.device.lookup(packet);
        self.resolve(raw)
    }

    /// Lookup without statistics (oracle comparisons).
    pub fn peek(&self, packet: u128) -> LookupResult {
        self.resolve(self.device.peek(packet))
    }

    /// Replaces the QoS predicate (`ModQoSMatch`, §7).
    pub fn set_predicate(&mut self, predicate: crate::config::RulePredicate) {
        self.config.predicate = predicate.clone();
        let rate = self.gate.rate();
        self.gate = GateKeeper::new(
            predicate,
            rate.map(|r| (r, self.shadow_capacity() as f64)),
            self.config.max_partitions,
        );
        self.gate
            .set_low_priority_bypass(self.config.low_priority_bypass);
    }

    /// Resets time-dependent state after a warm-up/preload phase: refills
    /// the admission bucket, clears the migration busy window and pending
    /// arrival counts. Call when installed state should carry over but the
    /// clock conceptually restarts at zero (e.g. simulator preloading).
    pub fn end_warmup(&mut self) {
        let rate = self.gate.rate();
        self.gate
            .set_rate(rate.map(|r| (r, (self.shadow_capacity() as f64 / 2.0).max(1.0))));
        self.manager.busy_until = SimTime::ZERO;
    }

    /// Number of migration passes so far.
    pub fn migrations(&self) -> u64 {
        self.manager.migrations
    }
}

//! Crash resync subsystem: the intent store and the diff-based resync
//! planner that re-establishes the Hermes guarantee after a device crash.
//!
//! The per-op recovery layers (see [`crate::recovery`]) assume the TCAM
//! *keeps its state* across a fault — they repair individual divergences.
//! A crash-class fault (full wipe, partial retention, control-session
//! loss; see `hermes_tcam::fault::CrashKind`) breaks that assumption: the
//! device may come back with an empty table, a random survivor subset, or
//! just a dead control session. Resync restores the controller's intent
//! in four steps:
//!
//! 1. **Reconnect** with capped exponential backoff (the device may deny
//!    the first few attempts while it reboots).
//! 2. **Journal replay**: the PR 2 delete journal drains first — against
//!    a wiped table every journaled delete resolves as already-gone.
//! 3. **Diff + replay**: a [`SlicePlan`] per slice computes the minimal
//!    delete/fix/install set between the durable [`IntentStore`] view and
//!    the post-crash table read back via audit, and replays it through
//!    the batched `apply_batch` path — warm mode diffs against survivors,
//!    cold mode wipes and reinstalls the full snapshot.
//! 4. **Re-admission**: degraded mode ends and the deferred admission
//!    queue drains, formally re-establishing the guarantee.
//!
//! Everything here is deterministic: no wall clock, no unseeded
//! randomness — a crash plan replays byte-for-byte from its seeds.

use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, TcamOp};
use std::collections::BTreeMap;

/// How the resync engine rebuilds a post-crash table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ResyncMode {
    /// Diff against whatever entries survived the crash and apply only
    /// the delta (the paper-faithful minimal-churn mode).
    #[default]
    Warm,
    /// Distrust every survivor: wipe the table and reinstall the full
    /// intent snapshot (the conservative reboot mode).
    Cold,
}

/// Policy knobs for the resync engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResyncPolicy {
    /// Warm (diff against survivors) or cold (full reinstall).
    pub mode: ResyncMode,
    /// Reconnect attempts per resync pass before giving up until the
    /// next tick/audit.
    pub max_reconnect_attempts: u32,
    /// Backoff before the second reconnect attempt; doubles per attempt.
    pub reconnect_base_backoff: SimDuration,
    /// Reconnect backoff ceiling.
    pub reconnect_max_backoff: SimDuration,
    /// Journal length at which the intent store folds its journal into
    /// the checkpoint.
    pub checkpoint_interval: usize,
}

impl Default for ResyncPolicy {
    fn default() -> Self {
        ResyncPolicy {
            mode: ResyncMode::Warm,
            max_reconnect_attempts: 8,
            reconnect_base_backoff: SimDuration::from_ms(1.0),
            reconnect_max_backoff: SimDuration::from_ms(50.0),
            checkpoint_interval: 256,
        }
    }
}

impl ResyncPolicy {
    /// Deterministic capped exponential backoff before reconnect attempt
    /// `attempt` (1-based). No jitter: reconnect pacing must replay
    /// byte-for-byte from the crash seed alone.
    pub fn reconnect_backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        (self.reconnect_base_backoff * (1u64 << exp)).min(self.reconnect_max_backoff)
    }
}

/// One journaled change to the controller's installed-rule intent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntentOp {
    /// A logical rule became installed.
    Install(Rule),
    /// A logical rule was removed.
    Remove(RuleId),
    /// A logical rule's action changed in place (priority changes are
    /// journaled as remove + install by the switch).
    Modify {
        /// Target rule.
        id: RuleId,
        /// Replacement action.
        action: Action,
    },
}

/// Durable checkpoint + journal of the rules the controller believes
/// installed — the authoritative store a crashed switch is rebuilt from
/// (the FDRC "controller as rule store" model).
///
/// Writes append to the journal; once the journal reaches
/// `checkpoint_interval` entries it is folded into the checkpoint map
/// (a *checkpoint*, counted in `resync.checkpoints`).
/// [`snapshot`](Self::snapshot) materializes checkpoint ⊕ journal.
#[derive(Clone, Debug)]
pub struct IntentStore {
    checkpoint: BTreeMap<RuleId, Rule>,
    journal: Vec<IntentOp>,
    checkpoint_interval: usize,
    checkpoints: u64,
}

impl IntentStore {
    /// An empty store compacting at the given journal length.
    pub fn new(checkpoint_interval: usize) -> Self {
        IntentStore {
            checkpoint: BTreeMap::new(),
            journal: Vec::new(),
            checkpoint_interval: checkpoint_interval.max(1),
            checkpoints: 0,
        }
    }

    /// Journals one intent change, folding the journal into the
    /// checkpoint when it reaches the configured interval.
    pub fn record(&mut self, op: IntentOp) {
        self.journal.push(op);
        if self.journal.len() >= self.checkpoint_interval {
            self.compact();
        }
    }

    /// Folds the journal into the checkpoint now.
    pub fn compact(&mut self) {
        if self.journal.is_empty() {
            return;
        }
        let journal = std::mem::take(&mut self.journal);
        for op in journal {
            Self::apply(&mut self.checkpoint, op);
        }
        self.checkpoints += 1;
        hermes_telemetry::counter("resync.checkpoints", 1);
    }

    fn apply(map: &mut BTreeMap<RuleId, Rule>, op: IntentOp) {
        match op {
            IntentOp::Install(rule) => {
                map.insert(rule.id, rule);
            }
            IntentOp::Remove(id) => {
                map.remove(&id);
            }
            IntentOp::Modify { id, action } => {
                if let Some(r) = map.get_mut(&id) {
                    r.action = action;
                }
            }
        }
    }

    /// The full intended rule set: checkpoint with the journal replayed
    /// on top.
    pub fn snapshot(&self) -> BTreeMap<RuleId, Rule> {
        let mut map = self.checkpoint.clone();
        for op in &self.journal {
            Self::apply(&mut map, *op);
        }
        map
    }

    /// Number of rules in the intended set, counted without materializing
    /// it: the checkpoint's size, corrected for each id whose last journaled
    /// install or remove changes its membership.
    pub fn len(&self) -> usize {
        let mut last: BTreeMap<RuleId, bool> = BTreeMap::new();
        for op in &self.journal {
            match op {
                IntentOp::Install(rule) => last.insert(rule.id, true),
                IntentOp::Remove(id) => last.insert(*id, false),
                IntentOp::Modify { .. } => None,
            };
        }
        let mut len = self.checkpoint.len();
        for (id, present) in last {
            match (present, self.checkpoint.contains_key(&id)) {
                (true, false) => len += 1,
                (false, true) => len -= 1,
                _ => {}
            }
        }
        len
    }

    /// No rules intended?
    pub fn is_empty(&self) -> bool {
        self.checkpoint.is_empty() && self.journal.is_empty()
    }

    /// Un-compacted journal entries.
    pub fn journal_depth(&self) -> usize {
        self.journal.len()
    }

    /// Checkpoints taken so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

/// Minimal repair set for one TCAM slice: what a resync pass must delete,
/// fix in place and install to make the device match the expected
/// physical view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SlicePlan {
    /// Device entries with no owner, or whose key/priority drifted
    /// (replacements arrive via `installs`).
    pub deletes: Vec<RuleId>,
    /// Entries whose action drifted, rewritten in place.
    pub fixes: Vec<(RuleId, Action)>,
    /// Expected entries the device lost.
    pub installs: Vec<Rule>,
    /// Entries that survived the crash exactly right.
    pub survivors: usize,
}

impl SlicePlan {
    /// Nothing to repair?
    pub fn is_noop(&self) -> bool {
        self.deletes.is_empty() && self.fixes.is_empty() && self.installs.is_empty()
    }

    /// The plan as one batched device transaction: deletes first (freeing
    /// capacity and clearing drifted shapes), then in-place fixes, then
    /// installs — the order `apply_batch` validates sequentially.
    pub fn to_ops(&self) -> Vec<TcamOp> {
        let fixes = self.fixes.iter().map(|(id, action)| TcamOp::ModifyAction {
            id: *id,
            action: *action,
        });
        (self.deletes.iter().copied().map(TcamOp::Delete))
            .chain(fixes)
            .chain(self.installs.iter().copied().map(TcamOp::Insert))
            .collect()
    }
}

/// Diffs the expected physical entries of one slice (ascending, unique
/// ids) against what the device actually holds after a crash (any order),
/// producing the minimal repair set in one merge-join of the two sides by
/// id. Pure and deterministic: all three lists come out in id order.
pub fn plan_slice(expected: &[Rule], actual: &[Rule]) -> SlicePlan {
    debug_assert!(expected.windows(2).all(|w| w[0].id < w[1].id));
    let mut actual: Vec<&Rule> = actual.iter().collect();
    actual.sort_unstable_by_key(|r| r.id);
    let mut device = actual.into_iter().peekable();
    let mut plan = SlicePlan::default();
    for want in expected {
        let mut healthy = false;
        while let Some(dev_rule) = device.next_if(|r| r.id <= want.id) {
            if dev_rule.id < want.id
                || want.priority != dev_rule.priority
                || want.key != dev_rule.key
            {
                // No owner, or the wrong shape: clear it (a replacement
                // installs below).
                plan.deletes.push(dev_rule.id);
                continue;
            }
            if want.action != dev_rule.action {
                plan.fixes.push((dev_rule.id, want.action));
            }
            healthy = true;
            plan.survivors += 1;
        }
        if !healthy {
            plan.installs.push(*want);
        }
    }
    plan.deletes.extend(device.map(|r| r.id));
    plan
}

/// Lifetime health counters for the resync subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncStats {
    /// Crashes detected (first failed op or explicit injection).
    pub crashes_detected: u64,
    /// Resync passes started (incomplete passes retry and re-count).
    pub resyncs_started: u64,
    /// Resync passes that fully re-established the guarantee.
    pub resyncs_completed: u64,
    /// Completed passes that ran in warm (diff) mode.
    pub warm_resyncs: u64,
    /// Completed passes that ran in cold (full reinstall) mode.
    pub cold_resyncs: u64,
    /// Reconnect attempts issued (denied attempts included).
    pub reconnect_attempts: u64,
    /// Resync passes abandoned with the session still down.
    pub reconnect_failures: u64,
    /// Physical entries (re)installed by resync.
    pub rules_reinstalled: u64,
    /// Physical entries deleted by resync (orphans, drift, cold wipes).
    pub entries_deleted: u64,
    /// Survivor entries a warm pass kept in place.
    pub survivors_kept: u64,
    /// Simulated ns between crash detection and guarantee re-establishment.
    pub guarantee_gap_ns: u64,
}

/// Outcome of one `HermesSwitch::resync` pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResyncReport {
    /// The mode the pass ran in.
    pub mode: ResyncMode,
    /// Reconnect attempts this pass issued.
    pub reconnect_attempts: u32,
    /// Physical entries deleted (orphans, drifted shapes, cold wipes).
    pub deleted: usize,
    /// Physical entries (re)installed.
    pub reinstalled: usize,
    /// Action drift repaired in place.
    pub fixed: usize,
    /// Survivor entries kept in place (always 0 in cold mode).
    pub survivors: usize,
    /// Control-plane time the pass consumed (backoff included).
    pub duration: SimDuration,
    /// `false` when the session is still down or a repair op failed;
    /// the pass retries on the next tick/audit.
    pub complete: bool,
}

impl ResyncReport {
    /// An empty (not-yet-complete) report for the given mode.
    pub fn new(mode: ResyncMode) -> Self {
        ResyncReport {
            mode,
            reconnect_attempts: 0,
            deleted: 0,
            reinstalled: 0,
            fixed: 0,
            survivors: 0,
            duration: SimDuration::ZERO,
            complete: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(id: u64, prio: u32) -> Rule {
        let p: Ipv4Prefix = format!("10.{}.0.0/16", id % 200).parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(prio % 5 + 1))
    }

    #[test]
    fn intent_store_snapshot_replays_journal() {
        let mut store = IntentStore::new(1000);
        store.record(IntentOp::Install(rule(1, 5)));
        store.record(IntentOp::Install(rule(2, 7)));
        store.record(IntentOp::Modify {
            id: RuleId(1),
            action: Action::Drop,
        });
        store.record(IntentOp::Remove(RuleId(2)));
        let snap = store.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[&RuleId(1)].action, Action::Drop);
        assert_eq!(store.journal_depth(), 4);
        assert_eq!(store.checkpoints(), 0);
    }

    #[test]
    fn intent_store_compacts_at_interval() {
        let mut store = IntentStore::new(4);
        // Across two compaction boundaries: re-installs, modifies, removes
        // of present and absent ids, and one id removed and re-installed
        // inside a single journal.
        let mut ops: Vec<IntentOp> = (0..10).map(|i| IntentOp::Install(rule(i, 3))).collect();
        ops.extend([
            IntentOp::Remove(RuleId(2)),
            IntentOp::Install(rule(2, 4)),
            IntentOp::Remove(RuleId(11)),
            IntentOp::Modify {
                id: RuleId(5),
                action: Action::Drop,
            },
            IntentOp::Install(rule(11, 3)),
            IntentOp::Remove(RuleId(3)),
            IntentOp::Install(rule(3, 3)),
            IntentOp::Remove(RuleId(3)),
            IntentOp::Install(rule(1, 9)),
        ]);
        for op in ops {
            store.record(op);
            assert_eq!(store.len(), store.snapshot().len(), "after {op:?}");
        }
        assert!(store.checkpoints() >= 2);
        assert!(store.journal_depth() < 4);
        assert_eq!(store.len(), 10);
        // Compaction preserves the snapshot exactly.
        store.compact();
        assert_eq!(store.journal_depth(), 0);
        assert_eq!(store.snapshot().len(), 10);
    }

    #[test]
    fn plan_slice_wiped_table_reinstalls_everything() {
        let expected: Vec<Rule> = (1..=5).map(|i| rule(i, i as u32)).collect();
        let plan = plan_slice(&expected, &[]);
        assert!(plan.deletes.is_empty());
        assert_eq!(plan.installs.len(), 5);
        assert_eq!(plan.survivors, 0);
        // Installs are id-sorted for deterministic replay.
        let ids: Vec<u64> = plan.installs.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn plan_slice_partial_survivors_diff_only() {
        let expected: Vec<Rule> = (1..=4).map(|i| rule(i, i as u32)).collect();
        // 1 survives intact, 2 drifted action, 3 lost, plus an orphan 9.
        let mut drifted = rule(2, 2);
        drifted.action = Action::Drop;
        let actual = vec![rule(1, 1), drifted, rule(4, 4), rule(9, 9)];
        let plan = plan_slice(&expected, &actual);
        assert_eq!(plan.deletes, vec![RuleId(9)]);
        assert_eq!(plan.fixes.len(), 1);
        assert_eq!(plan.fixes[0].0, RuleId(2));
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.installs[0].id, RuleId(3));
        assert_eq!(plan.survivors, 3);
        assert_eq!(plan.to_ops().len(), 3);
        assert!(!plan.is_noop());
    }

    #[test]
    fn plan_slice_shape_drift_becomes_delete_plus_install() {
        let expected = [rule(1, 5)];
        let wrong_prio = Rule {
            priority: Priority(9),
            ..rule(1, 5)
        };
        let plan = plan_slice(&expected, &[wrong_prio]);
        assert_eq!(plan.deletes, vec![RuleId(1)]);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.survivors, 0);
        // Batch order: the delete precedes the replacing insert.
        let ops = plan.to_ops();
        assert!(matches!(ops[0], TcamOp::Delete(_)));
        assert!(matches!(ops[1], TcamOp::Insert(_)));
    }

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        let p = ResyncPolicy::default();
        assert_eq!(p.reconnect_backoff(1), SimDuration::from_ms(1.0));
        assert_eq!(p.reconnect_backoff(2), SimDuration::from_ms(2.0));
        assert_eq!(p.reconnect_backoff(7), SimDuration::from_ms(50.0));
        assert_eq!(p.reconnect_backoff(60), SimDuration::from_ms(50.0));
    }
}

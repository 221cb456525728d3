//! Crash resync subsystem: the diff-based resync planner that
//! re-establishes the Hermes guarantee after a device crash.
//!
//! The per-op recovery layers (see [`crate::recovery`]) assume the TCAM
//! *keeps its state* across a fault — they repair individual divergences.
//! A crash-class fault (full wipe, partial retention, control-session
//! loss; see `hermes_tcam::fault::CrashKind`) breaks that assumption: the
//! device may come back with an empty table, a random survivor subset, or
//! just a dead control session. Resync restores the controller's logical
//! view (the shadow residents, the main index and the deferred queue) in
//! four steps:
//!
//! 1. **Reconnect** with capped exponential backoff (the device may deny
//!    the first few attempts while it reboots).
//! 2. **Journal replay**: the PR 2 delete journal drains first — against
//!    a wiped table every journaled delete resolves as already-gone.
//! 3. **Diff + replay**: a [`SlicePlan`] per slice computes the minimal
//!    delete/fix/install set between the slice the logical view expects
//!    and the post-crash table read back via audit, and replays it through
//!    the batched `apply_batch` path, keeping every survivor that is
//!    exactly right.
//! 4. **Re-admission**: degraded mode ends and the deferred admission
//!    queue drains, formally re-establishing the guarantee.
//!
//! Everything here is deterministic: no wall clock, no unseeded
//! randomness — a crash plan replays byte-for-byte from its seeds.

use crate::recovery::doubling_backoff;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, TcamOp};

/// Reconnect attempts per resync pass before giving up until the next
/// tick/audit.
pub const RECONNECT_ATTEMPTS: u32 = 8;
/// Backoff before the second reconnect attempt; doubles per attempt.
pub const RECONNECT_BASE_BACKOFF: SimDuration = SimDuration::from_us(1_000.0);
/// Reconnect backoff ceiling.
pub const RECONNECT_MAX_BACKOFF: SimDuration = SimDuration::from_us(50_000.0);

/// Deterministic capped exponential backoff before reconnect attempt
/// `attempt` (1-based). No jitter: reconnect pacing must replay
/// byte-for-byte from the crash seed alone.
pub fn reconnect_backoff(attempt: u32) -> SimDuration {
    doubling_backoff(RECONNECT_BASE_BACKOFF, RECONNECT_MAX_BACKOFF, attempt)
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

    /// Writes the plan into `ops` (cleared first) as one batched device
    /// transaction: deletes first (freeing capacity and clearing drifted
    /// shapes), then in-place fixes, then installs — the order
    /// `apply_batch` validates sequentially.
    pub fn to_ops(&self, ops: &mut Vec<TcamOp>) {
        ops.clear();
        ops.extend(self.deletes.iter().copied().map(TcamOp::Delete));
        ops.extend((self.fixes.iter()).map(|&(id, action)| TcamOp::ModifyAction { id, action }));
        ops.extend(self.installs.iter().copied().map(TcamOp::Insert));
    }
}

/// Diffs the expected physical entries of one slice (ascending, unique
/// ids) against what the device actually holds after a crash (any order),
/// writing the minimal repair set into `plan` in one merge-join of the two
/// sides by id. `actual` is sorted by id in place, and `plan` is cleared
/// first, so a caller can hand in the buffers of the last pass. Pure and
/// deterministic: all three lists come out in id order.
pub fn plan_slice(expected: &[Rule], actual: &mut [Rule], plan: &mut SlicePlan) {
    debug_assert!(expected.windows(2).all(|w| w[0].id < w[1].id));
    actual.sort_unstable_by_key(|r| r.id);
    plan.deletes.clear();
    plan.fixes.clear();
    plan.installs.clear();
    plan.survivors = 0;
    let mut device = actual.iter().peekable();
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
    /// Reconnect attempts issued (denied attempts included).
    pub reconnect_attempts: u64,
    /// Resync passes abandoned with the session still down.
    pub reconnect_failures: u64,
    /// Physical entries (re)installed by resync.
    pub rules_reinstalled: u64,
    /// Physical entries deleted by resync (orphans, drifted shapes).
    pub entries_deleted: u64,
    /// Survivor entries a pass kept in place.
    pub survivors_kept: u64,
    /// Simulated ns between crash detection and guarantee re-establishment.
    pub guarantee_gap_ns: u64,
}

/// Outcome of one `HermesSwitch::resync` pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResyncReport {
    /// Reconnect attempts this pass issued.
    pub reconnect_attempts: u32,
    /// Physical entries deleted (orphans, drifted shapes).
    pub deleted: usize,
    /// Physical entries (re)installed.
    pub reinstalled: usize,
    /// Action drift repaired in place.
    pub fixed: usize,
    /// Survivor entries kept in place.
    pub survivors: usize,
    /// Control-plane time the pass consumed (backoff included).
    pub duration: SimDuration,
    /// `false` when the session is still down or a repair op failed;
    /// the pass retries on the next tick/audit.
    pub complete: bool,
}

impl Default for ResyncReport {
    /// An empty report, complete until a step says otherwise.
    fn default() -> Self {
        ResyncReport {
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
        Rule::new(
            id,
            p.to_key(),
            Priority(prio),
            Action::Forward(prio % 5 + 1),
        )
    }

    #[test]
    fn plan_slice_wiped_table_reinstalls_everything() {
        let expected: Vec<Rule> = (1..=5).map(|i| rule(i, i as u32)).collect();
        let mut plan = SlicePlan::default();
        plan_slice(&expected, &mut [], &mut plan);
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
        let mut actual = vec![rule(9, 9), drifted, rule(4, 4), rule(1, 1)];
        let mut plan = SlicePlan::default();
        plan_slice(&expected, &mut actual, &mut plan);
        assert_eq!(plan.deletes, vec![RuleId(9)]);
        assert_eq!(plan.fixes.len(), 1);
        assert_eq!(plan.fixes[0].0, RuleId(2));
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.installs[0].id, RuleId(3));
        assert_eq!(plan.survivors, 3);
        let mut ops = Vec::new();
        plan.to_ops(&mut ops);
        assert_eq!(ops.len(), 3);
        assert!(!plan.is_noop());
    }

    #[test]
    fn plan_slice_shape_drift_becomes_delete_plus_install() {
        let expected = [rule(1, 5)];
        let wrong_prio = Rule {
            priority: Priority(9),
            ..rule(1, 5)
        };
        let mut plan = SlicePlan::default();
        plan_slice(&expected, &mut [wrong_prio], &mut plan);
        assert_eq!(plan.deletes, vec![RuleId(1)]);
        assert_eq!(plan.installs.len(), 1);
        assert_eq!(plan.survivors, 0);
        // Batch order: the delete precedes the replacing insert.
        let mut ops = Vec::new();
        plan.to_ops(&mut ops);
        assert!(matches!(ops[0], TcamOp::Delete(_)));
        assert!(matches!(ops[1], TcamOp::Insert(_)));
    }

    #[test]
    fn reconnect_backoff_doubles_and_caps() {
        assert_eq!(reconnect_backoff(1), SimDuration::from_ms(1.0));
        assert_eq!(reconnect_backoff(2), SimDuration::from_ms(2.0));
        assert_eq!(reconnect_backoff(6), SimDuration::from_ms(32.0));
        assert_eq!(reconnect_backoff(7), SimDuration::from_ms(50.0));
        assert_eq!(reconnect_backoff(60), SimDuration::from_ms(50.0));
    }
}

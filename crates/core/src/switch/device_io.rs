//! The device I/O chokepoint: every control-channel call the agent makes
//! goes through [`HermesSwitch::dev_call`], which owns retry, backoff
//! accounting and crash detection. The helpers layered on it add
//! stale-duplicate healing, the delete journal and its replay.

use super::HermesSwitch;
use crate::recovery::RETRY_ATTEMPTS;
use hermes_rules::prelude::*;
use hermes_tcam::{BatchOpReport, OpReport, SimDuration, TcamDevice, TcamError, TcamOp};

impl HermesSwitch {
    /// One device call with retry: transient failures back off
    /// exponentially (with jitter) up to [`RETRY_ATTEMPTS`].
    /// Returns the call's report with the backoff time spent, which the
    /// wrappers charge into the report's latency — a retried insert can
    /// still honestly violate its guarantee. Success resets the
    /// degraded-mode failure streak; exhaustion extends it. A batched
    /// transaction is atomic — a rejected one applied nothing — so
    /// re-issuing the identical call is always safe.
    fn dev_call<R>(
        &mut self,
        call: impl Fn(&mut TcamDevice) -> Result<R, TcamError>,
    ) -> Result<(R, SimDuration), TcamError> {
        let mut penalty = SimDuration::ZERO;
        let mut attempt = 1u32;
        loop {
            match call(&mut self.device) {
                Ok(rep) => {
                    self.recovery.on_success(self.clock);
                    return Ok((rep, penalty));
                }
                Err(e) if e.is_transient() => {
                    self.recovery.stats.transient_failures += 1;
                    if attempt >= RETRY_ATTEMPTS {
                        self.recovery.on_permanent_failure(self.clock);
                        return Err(e);
                    }
                    self.recovery.stats.retries += 1;
                    penalty += self.recovery.backoff(attempt);
                    attempt += 1;
                }
                // State errors (full / not-found / duplicate): retrying
                // cannot change the answer; the caller picks the fallback.
                // A lost control session opens the crash window instead of
                // burning retries — the resync engine owns recovery from
                // here.
                Err(e) => {
                    if matches!(e, TcamError::Disconnected) {
                        self.note_crash();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One device op through the chokepoint.
    pub(super) fn dev_apply(
        &mut self,
        slice: usize,
        action: &ControlAction,
    ) -> Result<OpReport, TcamError> {
        let (mut rep, penalty) = self.dev_call(|dev| dev.apply(slice, action))?;
        rep.latency += penalty;
        Ok(rep)
    }

    /// One atomic device transaction through the chokepoint.
    pub(super) fn dev_apply_batch(
        &mut self,
        slice: usize,
        ops: &[TcamOp],
    ) -> Result<BatchOpReport, TcamError> {
        let (mut rep, penalty) = self.dev_call(|dev| dev.apply_batch(slice, ops))?;
        rep.latency += penalty;
        Ok(rep)
    }

    /// Insert with stale-duplicate self-healing. The caller's bookkeeping
    /// says the id is free, so a device `Duplicate` can only mean a
    /// silently-dropped delete left a stale entry behind — replace it.
    /// Also purges any journaled delete for the id, which would otherwise
    /// replay later and destroy the legitimate new entry.
    pub(super) fn dev_insert(&mut self, slice: usize, rule: Rule) -> Result<OpReport, TcamError> {
        self.recovery
            .pending_gc
            .retain(|(s, p)| *s != slice || *p != rule.id);
        match self.dev_apply(slice, &ControlAction::Insert(rule)) {
            Err(TcamError::Duplicate(id)) => {
                let penalty = self.dev_delete(slice, id).unwrap_or(SimDuration::ZERO);
                self.recovery.stats.actions_fixed += 1;
                self.dev_apply(slice, &ControlAction::Insert(rule))
                    .map(|mut rep| {
                        rep.latency += penalty;
                        rep
                    })
            }
            r => r,
        }
    }

    /// Rewrites one entry's action in place.
    pub(super) fn dev_set_action(
        &mut self,
        slice: usize,
        id: RuleId,
        action: Action,
    ) -> Result<OpReport, TcamError> {
        let set = ControlAction::Modify {
            id,
            action: Some(action),
            priority: None,
        };
        self.dev_apply(slice, &set)
    }

    /// One physical delete: the device time spent once the entry is gone,
    /// or `None` when the channel refused. `NotFound` counts as gone (the
    /// install was silently dropped, so there is nothing to remove).
    pub(super) fn dev_delete(&mut self, slice: usize, pid: RuleId) -> Option<SimDuration> {
        match self.dev_apply(slice, &ControlAction::Delete(pid)) {
            Ok(rep) => Some(rep.latency),
            Err(TcamError::NotFound(_)) => Some(SimDuration::ZERO),
            Err(_) => None,
        }
    }

    /// Best-effort physical delete: a refused delete is journaled for
    /// idempotent replay so the entry can never be stranded.
    pub(super) fn dev_delete_or_journal(&mut self, slice: usize, pid: RuleId) -> SimDuration {
        self.dev_delete(slice, pid).unwrap_or_else(|| {
            self.recovery.pending_gc.push((slice, pid));
            SimDuration::ZERO
        })
    }

    /// Deletes a set of entries in one device transaction. The batch
    /// rejects whole on its first bad op (e.g. a silently-dropped piece
    /// surfacing as `NotFound`) or on a dead channel: each entry is then
    /// released individually, where `NotFound` is success and a channel
    /// refusal journals the delete for idempotent replay. Returns the
    /// device time spent.
    pub(super) fn dev_delete_all(&mut self, slice: usize, ids: &[RuleId]) -> SimDuration {
        let ops: Vec<TcamOp> = ids.iter().copied().map(TcamOp::Delete).collect();
        match self.dev_apply_batch(slice, &ops) {
            Ok(rep) => rep.latency,
            Err(_) => ids
                .iter()
                .map(|id| self.dev_delete_or_journal(slice, *id))
                .sum(),
        }
    }

    /// Replays the journal of failed physical deletes. Idempotent: an
    /// entry already gone is simply dropped. Returns how many journal
    /// entries were cleared and the device time spent.
    pub(super) fn replay_journal(&mut self) -> (usize, SimDuration) {
        if self.recovery.pending_gc.is_empty() {
            return (0, SimDuration::ZERO);
        }
        let pending = std::mem::take(&mut self.recovery.pending_gc);
        let mut cleared = 0;
        let mut latency = SimDuration::ZERO;
        for (slice, pid) in pending {
            match self.dev_delete(slice, pid) {
                Some(spent) => {
                    latency += spent;
                    cleared += 1;
                    self.recovery.stats.journal_replays += 1;
                }
                None => self.recovery.pending_gc.push((slice, pid)),
            }
        }
        (cleared, latency)
    }
}

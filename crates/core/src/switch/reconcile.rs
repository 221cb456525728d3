//! Convergence after faults: the reconciliation audit (recovery layer 3)
//! and the crash-resync driver that rebuilds a rebooted device from the
//! logical view (see [`crate::recovery`] and [`crate::resync`]).

use super::{HermesSwitch, MAIN, SHADOW};
use crate::recovery::AuditReport;
use crate::resync::{plan_slice, reconnect_backoff, ResyncReport, SlicePlan, RECONNECT_ATTEMPTS};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, TcamError, TcamOp};
use hermes_telemetry::names;

/// The vectors one slice diff needs — the shadow's expected view, the
/// device read and the plan with its batch — kept by the switch and
/// refilled on every rebuild and audit instead of allocated afresh. A
/// resync of a full table would otherwise allocate megabytes per pass, and
/// whether those pages come back warm depends on the allocator's history
/// (DESIGN.md §12, "Allocation-stable rebuild"). The main table's expected
/// view is never copied: the planner reads it from the main index.
#[derive(Debug, Default)]
pub(super) struct RebuildScratch {
    expected: Vec<Rule>,
    actual: Vec<Rule>,
    plan: SlicePlan,
}

impl HermesSwitch {
    /// Reconciliation audit (recovery layer 3): one sweep that makes the
    /// device converge to the controller's logical view.
    ///
    /// The sweep (1) replays the journal of failed physical deletes,
    /// (2) diffs each slice against the bookkeeping — deleting orphans,
    /// repairing action/shape drift in place, re-installing silently
    /// dropped entries — (3) evicts shadow rules whose pieces no longer
    /// fit (silent drops can let the admission path oversubscribe the
    /// shadow), and (4) drains the degraded-mode queue. Every repair op
    /// goes through the retry layer; if the channel is still faulty the
    /// report comes back with `complete = false` and the sweep can simply
    /// be run again — all repairs are idempotent. A report for which
    /// [`AuditReport::clean`] holds certifies that the device exactly
    /// matches the logical view.
    pub fn audit(&mut self, now: SimTime) -> AuditReport {
        self.clock = self.clock.max(now);
        if self.is_down() {
            let resynced = self.resync(now);
            if self.is_down() {
                // Reconnect denied: the sweep cannot read the device.
                // Incomplete by definition — callers loop until clean.
                return AuditReport {
                    complete: false,
                    duration: resynced.map(|r| r.duration).unwrap_or(SimDuration::ZERO),
                    ..AuditReport::default()
                };
            }
        }
        let mut report = AuditReport {
            complete: true,
            ..AuditReport::default()
        };
        let (replayed, lat) = self.replay_journal();
        report.journal_replayed = replayed;
        report.duration += lat;
        if !self.recovery.pending_gc.is_empty() {
            report.complete = false;
        }

        let mut scratch = std::mem::take(&mut self.scratch);
        let evict = self.reconcile_slice(SHADOW, &mut scratch, &mut report);
        // Main reinstalls hit `Full` only when the table is genuinely out
        // of space; there is no eviction target, so the list is empty.
        let _ = self.reconcile_slice(MAIN, &mut scratch, &mut report);
        self.scratch = scratch;

        self.evict_unplaceable(evict, &mut report);

        let (flushed, lat) = self.flush_deferred(now);
        report.deferred_flushed = flushed;
        report.duration += lat;

        self.recovery.stats.audits += 1;
        self.recovery.stats.audit_diffs += report.diffs() as u64;
        self.recovery.stats.reinstalled += report.reinstalled as u64;
        self.recovery.stats.orphans_removed += report.orphans_removed as u64;
        self.recovery.stats.actions_fixed += report.actions_fixed as u64;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter(names::RECOVERY_AUDITS, 1);
            hermes_telemetry::counter(names::RECOVERY_AUDIT_DIFFS, report.diffs() as u64);
            hermes_telemetry::span(
                names::RECOVERY_AUDIT,
                now.as_nanos(),
                report.duration.as_nanos(),
            );
        }
        report
    }

    /// Diffs one slice against its expected physical entries
    /// ([`plan_slice`]) and repairs the device one op at a time from the
    /// same plan the batched rebuild sends: deletes and fixes in device
    /// order, then installs in id order. Returns shadow rules that must be
    /// evicted because their pieces no longer fit.
    fn reconcile_slice(
        &mut self,
        slice: usize,
        scratch: &mut RebuildScratch,
        report: &mut AuditReport,
    ) -> Vec<RuleId> {
        self.diff_slice(slice, scratch);
        let RebuildScratch { actual, plan, .. } = scratch;
        // The plan sorted the device read by id: read it again in device
        // order, the order the repairs go out in.
        actual.clear();
        actual.extend(self.device.slice(slice).table.iter());
        // Stale entries whose delete failed: a reinstall would collide.
        let mut stuck: Vec<RuleId> = Vec::new();
        for id in actual.iter().map(|r| r.id) {
            if plan.deletes.binary_search(&id).is_ok() {
                // No logical owner (a stranded piece or stale entry), or
                // the wrong shape under a reused logical id. Device ids
                // are unique, so a deleted entry with an owner is one the
                // plan re-installs: an orphan is one it does not.
                let installs = plan.installs();
                let orphan = installs.binary_search_by_key(&id, TcamOp::id).is_err();
                match self.dev_delete(slice, id) {
                    Some(spent) if orphan => {
                        report.duration += spent;
                        report.orphans_removed += 1;
                    }
                    Some(spent) => {
                        report.duration += spent;
                        report.actions_fixed += 1;
                    }
                    None => {
                        report.complete = false;
                        if orphan {
                            self.recovery.pending_gc.push((slice, id));
                        } else {
                            stuck.push(id);
                        }
                    }
                }
            } else if let Ok(i) = plan.fixes.binary_search_by_key(&id, |&(f, _)| f) {
                match self.dev_set_action(slice, id, plan.fixes[i].1) {
                    Ok(rep) => {
                        report.duration += rep.latency;
                        report.actions_fixed += 1;
                    }
                    Err(_) => report.complete = false,
                }
            }
        }
        // Expected entries the device lost (silent drops).
        let mut evict: Vec<RuleId> = Vec::new();
        for op in plan.installs() {
            let TcamOp::Insert(want) = *op else {
                continue;
            };
            if stuck.contains(&want.id) {
                continue;
            }
            match self.dev_apply(slice, &ControlAction::Insert(want)) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.reinstalled += 1;
                }
                Err(TcamError::Full) if slice == SHADOW => {
                    // Silent drops let the admission path oversubscribe
                    // the shadow: move the owning rule to the main table.
                    if let Some(owner) = self.piece_owner(want.id) {
                        if !evict.contains(&owner) {
                            evict.push(owner);
                        }
                    }
                }
                Err(_) => report.complete = false,
            }
        }
        evict
    }

    /// Moves the shadow rules [`reconcile_slice`](Self::reconcile_slice)
    /// could not re-seat into the main table.
    fn evict_unplaceable(&mut self, ids: Vec<RuleId>, report: &mut AuditReport) {
        for id in ids {
            if let Some(entry) = self.shadow.get(id).cloned() {
                report.duration += self.evict_shadow_rule_to_main(&entry);
                report.evicted += 1;
            }
        }
    }

    /// Writes the shadow slice's expected physical entries into `out`
    /// (cleared first) in ascending id order: the union of every shadow
    /// rule's pieces, carrying the owner's priority and action.
    fn expected_shadow(&self, out: &mut Vec<Rule>) {
        out.clear();
        out.extend((self.shadow.iter()).flat_map(|e| {
            (e.pieces.iter()).map(|&(id, key)| Rule {
                id,
                key,
                ..e.original
            })
        }));
        out.sort_unstable_by_key(|r| r.id);
    }

    /// Reads one slice of the device into `scratch.actual` and diffs it
    /// into `scratch.plan` ([`plan_slice`], which leaves the read sorted
    /// by id) against the expected view: the shadow pieces gathered into
    /// `scratch.expected`, or the main index read in its kept id order.
    fn diff_slice(&mut self, slice: usize, scratch: &mut RebuildScratch) {
        scratch.actual.clear();
        scratch.actual.extend(self.device.slice(slice).table.iter());
        if slice == SHADOW {
            self.expected_shadow(&mut scratch.expected);
            plan_slice(&scratch.expected, &mut scratch.actual, &mut scratch.plan);
        } else {
            plan_slice(
                self.main_index.iter(),
                &mut scratch.actual,
                &mut scratch.plan,
            );
        }
    }

    /// Crash-resync pass (see [`crate::resync`]): reconnects the lost
    /// control session with capped deterministic backoff, drains the
    /// delete journal, rebuilds the post-crash table from the logical
    /// view by diffing it against the survivors through the
    /// batched `apply_batch` path, and finally re-establishes the
    /// guarantee: degraded mode ends and the deferred admission queue
    /// drains.
    ///
    /// Returns `None` when no crash window is open. An incomplete report
    /// (reconnect still denied, or a repair op failed) keeps the window
    /// open; the next tick/audit retries — every step is idempotent.
    pub fn resync(&mut self, now: SimTime) -> Option<ResyncReport> {
        self.clock = self.clock.max(now);
        if !self.is_down() {
            return None;
        }
        // A crash can land between ops (netsim injection, or the fault
        // plan inside another rule's transaction): book it before the
        // rebuild so the window and degraded mode are always stamped.
        self.note_crash();
        self.resync_stats.resyncs_started += 1;
        hermes_telemetry::counter(names::RESYNC_STARTED, 1);
        let mut report = ResyncReport::default();

        // Step 1: reconnect. The device may deny the first attempts while
        // it reboots; backoff is deterministic (no jitter) so a crash plan
        // replays byte-for-byte from its seeds.
        let mut attempt = 0u32;
        while !self.device.is_connected() {
            if attempt >= RECONNECT_ATTEMPTS {
                self.resync_stats.reconnect_failures += 1;
                hermes_telemetry::counter(names::RESYNC_RECONNECT_FAILURES, 1);
                report.complete = false;
                return Some(report);
            }
            attempt += 1;
            if attempt > 1 {
                report.duration += reconnect_backoff(attempt - 1);
            }
            report.reconnect_attempts += 1;
            self.resync_stats.reconnect_attempts += 1;
            hermes_telemetry::counter(names::RESYNC_RECONNECT_ATTEMPTS, 1);
            self.device.reconnect();
        }

        // Step 2: the delete journal drains first — against a wiped table
        // every journaled delete resolves as already-gone.
        let (_, lat) = self.replay_journal();
        report.duration += lat;

        // Step 3: diff + batched replay.
        self.rebuild(&mut report);
        if !self.recovery.pending_gc.is_empty() {
            report.complete = false;
        }

        // Step 4: re-admission. Only a fully-repaired pass closes the
        // crash window; an incomplete one keeps it open so the next
        // tick/audit reruns the (idempotent) rebuild.
        if report.complete {
            let gap = (self.crash_window.take()).map_or(0, |t| self.clock.since(t).as_nanos())
                + report.duration.as_nanos();
            self.resync_stats.resyncs_completed += 1;
            self.resync_stats.guarantee_gap_ns += gap;
            hermes_telemetry::counter(names::RESYNC_COMPLETED, 1);
            hermes_telemetry::counter(names::RESYNC_GUARANTEE_GAP_NS, gap);
            // The channel is provably live again: end the degraded
            // episode explicitly (a zero-diff resync never touches the
            // device) and drain the queued admissions through the live
            // insert path — the guarantee is formally re-established.
            self.recovery.on_success(self.clock);
            let (_, lat) = self.flush_deferred(now);
            report.duration += lat;
        }
        self.resync_stats.rules_reinstalled += report.reinstalled as u64;
        self.resync_stats.entries_deleted += report.deleted as u64;
        self.resync_stats.survivors_kept += report.survivors as u64;
        hermes_telemetry::counter(names::RESYNC_REINSTALLED, report.reinstalled as u64);
        hermes_telemetry::counter(names::RESYNC_DELETED, report.deleted as u64);
        hermes_telemetry::counter(names::RESYNC_SURVIVORS_KEPT, report.survivors as u64);
        hermes_telemetry::span(
            names::RESYNC_RUN,
            now.as_nanos(),
            report.duration.as_nanos(),
        );
        Some(report)
    }

    /// The rebuild: per slice, diff the expected physical entries against
    /// the post-crash table and push the minimal repair set through one
    /// batched device transaction. A rejected batch falls back to the
    /// audit's per-op reconciliation, evictions included.
    fn rebuild(&mut self, report: &mut ResyncReport) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for slice in [SHADOW, MAIN] {
            self.diff_slice(slice, &mut scratch);
            let plan = &scratch.plan;
            report.survivors += plan.survivors;
            if plan.is_noop() {
                continue;
            }
            match self.dev_apply_batch(slice, &plan.ops) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.deleted += plan.deletes.len();
                    report.fixed += plan.fixes.len();
                    report.reinstalled += plan.installs().len();
                }
                Err(_) => {
                    // Batch rejected (e.g. a pre-crash oversubscribed
                    // shadow): the per-op audit path makes partial
                    // progress and can evict rules to the main table.
                    let mut audit = AuditReport {
                        complete: true,
                        ..AuditReport::default()
                    };
                    let evict = self.reconcile_slice(slice, &mut scratch, &mut audit);
                    self.evict_unplaceable(evict, &mut audit);
                    report.duration += audit.duration;
                    report.deleted += audit.orphans_removed;
                    report.fixed += audit.actions_fixed;
                    report.reinstalled += audit.reinstalled;
                    if !audit.complete {
                        report.complete = false;
                    }
                }
            }
        }
        self.scratch = scratch;
    }
}

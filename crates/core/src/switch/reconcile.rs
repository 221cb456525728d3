//! Convergence after faults: the reconciliation audit (recovery layer 3)
//! and the crash-resync driver that rebuilds a rebooted device from the
//! durable intent store (see [`crate::recovery`] and [`crate::resync`]).

use super::{HermesSwitch, MAIN, SHADOW};
use crate::recovery::AuditReport;
use crate::resync::{plan_slice, ResyncMode, ResyncReport};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, TcamError, TcamOp};

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

        let evict = self.reconcile_slice(SHADOW, &mut report);
        // Main reinstalls hit `Full` only when the table is genuinely out
        // of space; there is no eviction target, so the list is empty.
        let _ = self.reconcile_slice(MAIN, &mut report);

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
            hermes_telemetry::counter("recovery.audits", 1);
            hermes_telemetry::counter("recovery.audit_diffs", report.diffs() as u64);
            hermes_telemetry::span(
                "recovery",
                "audit",
                now.as_nanos(),
                report.duration.as_nanos(),
            );
        }
        report
    }

    /// Diffs one slice against its expected physical entries
    /// ([`plan_slice`]) and repairs the device one op at a time: deletes
    /// and fixes in device order, then installs in id order. Returns
    /// shadow rules that must be evicted because their pieces no longer
    /// fit.
    fn reconcile_slice(&mut self, slice: usize, report: &mut AuditReport) -> Vec<RuleId> {
        let expected = self.expected_slice(slice);
        let actual: Vec<Rule> = self.device.slice(slice).table.entries();
        let plan = plan_slice(&expected, &actual);
        // Stale entries whose delete failed: a reinstall would collide.
        let mut stuck: Vec<RuleId> = Vec::new();
        for id in actual.iter().map(|r| r.id) {
            if plan.deletes.binary_search_by_key(&id.0, |d| d.0).is_ok() {
                // No logical owner (a stranded piece or stale entry), or
                // the wrong shape under a reused logical id.
                let orphan = expected.binary_search_by_key(&id, |r| r.id).is_err();
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
            } else if let Ok(i) = plan.fixes.binary_search_by_key(&id.0, |(f, _)| f.0) {
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
        for want in plan.installs {
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
            if let Some(entry) = self.shadow.get(&id).cloned() {
                report.duration += self.evict_shadow_rule_to_main(&entry);
                report.evicted += 1;
            }
        }
    }

    /// The expected physical entries of one slice in ascending id order:
    /// the union of every shadow rule's pieces (carrying the owner's
    /// priority and action), or the main index.
    fn expected_slice(&self, slice: usize) -> Vec<Rule> {
        if slice == SHADOW {
            let mut expected: Vec<Rule> = (self.shadow.values())
                .flat_map(|e| {
                    (e.pieces.iter()).map(|&(id, key)| Rule { id, key, ..e.original })
                })
                .collect();
            expected.sort_unstable_by_key(|r| r.id);
            expected
        } else {
            self.main_index.iter().collect()
        }
    }

    /// Crash-resync pass (see [`crate::resync`]): reconnects the lost
    /// control session with capped deterministic backoff, drains the
    /// delete journal, rebuilds the post-crash table from the durable
    /// intent store — warm mode diffs against survivors, cold mode wipes
    /// and reinstalls the full snapshot, both through the batched
    /// `apply_batch` path — and finally re-establishes the guarantee:
    /// degraded mode ends and the deferred admission queue drains.
    ///
    /// Returns `None` when no crash window is open. An incomplete report
    /// (reconnect still denied, or a repair op failed) keeps the window
    /// open; the next tick/audit retries — every step is idempotent.
    pub fn resync(&mut self, now: SimTime) -> Option<ResyncReport> {
        self.clock = self.clock.max(now);
        if self.device.is_connected() && !self.crash_pending {
            return None;
        }
        // A crash can land between ops (netsim injection, or the fault
        // plan inside another rule's transaction): book it before the
        // rebuild so the window and degraded mode are always stamped.
        self.note_crash();
        self.resync_stats.resyncs_started += 1;
        hermes_telemetry::counter("resync.started", 1);
        let mode = self.config.resync.mode;
        let mut report = ResyncReport::new(mode);

        // Step 1: reconnect. The device may deny the first attempts while
        // it reboots; backoff is deterministic (no jitter) so a crash plan
        // replays byte-for-byte from its seeds.
        let mut attempt = 0u32;
        while !self.device.is_connected() {
            if attempt >= self.config.resync.max_reconnect_attempts {
                self.resync_stats.reconnect_failures += 1;
                hermes_telemetry::counter("resync.reconnect_failures", 1);
                report.complete = false;
                return Some(report);
            }
            attempt += 1;
            if attempt > 1 {
                report.duration += self.config.resync.reconnect_backoff(attempt - 1);
            }
            report.reconnect_attempts += 1;
            self.resync_stats.reconnect_attempts += 1;
            hermes_telemetry::counter("resync.reconnect_attempts", 1);
            self.device.reconnect();
        }

        // Step 2: the delete journal drains first — against a wiped table
        // every journaled delete resolves as already-gone.
        let (_, lat) = self.replay_journal();
        report.duration += lat;

        // Step 3: diff + batched replay.
        match mode {
            ResyncMode::Warm => self.warm_resync(&mut report),
            ResyncMode::Cold => self.cold_resync(&mut report),
        }
        if !self.recovery.pending_gc.is_empty() {
            report.complete = false;
        }

        // Step 4: re-admission. Only a fully-repaired pass closes the
        // crash window; an incomplete one keeps it open so the next
        // tick/audit reruns the (idempotent) rebuild.
        if report.complete {
            self.crash_pending = false;
            let gap = self
                .crash_detected_at
                .take()
                .map(|t| self.clock.since(t).as_nanos())
                .unwrap_or(0)
                + report.duration.as_nanos();
            self.resync_stats.resyncs_completed += 1;
            self.resync_stats.guarantee_gap_ns += gap;
            match mode {
                ResyncMode::Warm => {
                    self.resync_stats.warm_resyncs += 1;
                    hermes_telemetry::counter("resync.warm", 1);
                }
                ResyncMode::Cold => {
                    self.resync_stats.cold_resyncs += 1;
                    hermes_telemetry::counter("resync.cold", 1);
                }
            }
            hermes_telemetry::counter("resync.completed", 1);
            hermes_telemetry::counter("resync.guarantee_gap_ns", gap);
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
        hermes_telemetry::counter("resync.reinstalled", report.reinstalled as u64);
        hermes_telemetry::counter("resync.deleted", report.deleted as u64);
        hermes_telemetry::counter("resync.survivors_kept", report.survivors as u64);
        hermes_telemetry::span("resync", "run", now.as_nanos(), report.duration.as_nanos());
        Some(report)
    }

    /// Warm-mode rebuild: per slice, diff the expected physical entries
    /// against the post-crash table and push the minimal repair set
    /// through one batched device transaction. A rejected batch falls
    /// back to the audit's per-op reconciliation, evictions included.
    fn warm_resync(&mut self, report: &mut ResyncReport) {
        for slice in [SHADOW, MAIN] {
            let expected = self.expected_slice(slice);
            let actual = self.device.slice(slice).table.entries();
            let plan = plan_slice(&expected, &actual);
            report.survivors += plan.survivors;
            if plan.is_noop() {
                continue;
            }
            match self.dev_apply_batch(slice, &plan.to_ops()) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.deleted += plan.deletes.len();
                    report.fixed += plan.fixes.len();
                    report.reinstalled += plan.installs.len();
                }
                Err(_) => {
                    // Batch rejected (e.g. a pre-crash oversubscribed
                    // shadow): the per-op audit path makes partial
                    // progress and can evict rules to the main table.
                    let mut audit = AuditReport {
                        complete: true,
                        ..AuditReport::default()
                    };
                    let evict = self.reconcile_slice(slice, &mut audit);
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
    }

    /// Cold-mode rebuild: distrust every survivor — wipe both slices,
    /// then reinstall the intent snapshot into the main table in chunked
    /// batched transactions. The shadow restarts empty; rules the main
    /// slice cannot hold re-enter through the normal admission path via
    /// the deferred queue.
    fn cold_resync(&mut self, report: &mut ResyncReport) {
        for slice in [SHADOW, MAIN] {
            let actual = self.device.slice(slice).table.entries();
            if actual.is_empty() {
                continue;
            }
            let ids: Vec<RuleId> = actual.iter().map(|r| r.id).collect();
            report.duration += self.dev_delete_all(slice, &ids);
            report.deleted += ids.len();
        }
        // Every logical rule is main-resident by intent after a cold
        // reboot; the old shadow bookkeeping (pieces, cut graph, FIFO
        // order) describes entries that no longer exist.
        let snapshot = self.intent.snapshot();
        self.shadow.clear();
        self.shadow_order.clear();
        self.blockers.clear();
        self.main_index.clear();
        self.prio_counts.clear();
        for r in snapshot.values() {
            self.main_index.insert(*r);
            self.prio_add(r.priority);
        }
        // Reinstall priority-descending (appends under the TCAM priority
        // order — the cheapest shift plan), id-tiebroken for determinism,
        // in bounded chunks so one bad op cannot reject the whole reboot.
        let mut rules: Vec<Rule> = snapshot.into_values().collect();
        rules.sort_unstable_by(|a, b| b.priority.cmp(&a.priority).then(a.id.0.cmp(&b.id.0)));
        for chunk in rules.chunks(1024) {
            let ops: Vec<TcamOp> = chunk.iter().copied().map(TcamOp::Insert).collect();
            match self.dev_apply_batch(MAIN, &ops) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.reinstalled += chunk.len();
                }
                Err(_) => {
                    for r in chunk {
                        match self.dev_insert(MAIN, *r) {
                            Ok(rep) => {
                                report.duration += rep.latency;
                                report.reinstalled += 1;
                            }
                            Err(TcamError::Full) => {
                                // The main slice alone cannot hold rules
                                // that lived in the shadow: requeue them
                                // through the normal admission path.
                                self.main_index.remove(r.id);
                                self.prio_remove(r.priority);
                                self.recovery.defer(*r);
                            }
                            Err(_) => report.complete = false,
                        }
                    }
                }
            }
        }
    }
}

//! Shadow→main migration (§5, Fig. 7): the batched drain and the per-rule
//! pass it falls back to when the main table rejects the insert batch.

use super::{HermesSwitch, MAIN, SHADOW};
use crate::manager::MigrationReport;
use hermes_rules::prelude::*;
use hermes_tcam::{SimTime, TcamError, TcamOp};
use hermes_telemetry::names;

impl HermesSwitch {
    /// Runs one migration pass (Fig. 7): every logical shadow rule is
    /// rewritten into its original (un-cut) form in the main table — the
    /// optimization step, since one original replaces up to `r_p` pieces —
    /// then its shadow pieces are deleted. Rules move in ascending priority
    /// order, FIFO among equals, so remaining (higher-priority) shadow
    /// rules never need re-cutting mid-flight.
    ///
    /// The pass sorts the residents into that order once, and everything
    /// after walks the one list: one main-table insert batch (step 3 for
    /// every rule at once, make-before-break held batch-wise), then one
    /// shadow piece-delete batch (step 4). Falls back to the per-rule pass
    /// over the same list when the insert batch cannot apply atomically
    /// (main table full, or a stale duplicate needing per-rule
    /// self-healing), and aborts the pass wholesale on a transient channel
    /// failure — the rejected batch moved nothing, so the cut invariant is
    /// untouched.
    pub fn migrate(&mut self, now: SimTime) -> MigrationReport {
        if self.is_down() {
            // The session is dead mid-crash: every op would fail and the
            // pass would abort anyway. Resync re-opens the path first.
            return MigrationReport::default();
        }
        let mut report = MigrationReport::default();
        if self.shadow.is_empty() {
            return report;
        }
        // The store iterates in admission order and the sort is stable:
        // equal priorities keep their FIFO order.
        let mut order: Vec<Rule> = self.shadow.iter().map(|e| e.original).collect();
        order.sort_by_key(|rule| rule.priority);
        let insert_ops: Vec<TcamOp> = order.iter().copied().map(TcamOp::Insert).collect();
        match self.dev_apply_batch(MAIN, &insert_ops) {
            Ok(rep) => {
                report.duration += rep.latency;
                report.entries_written += rep.report.inserts;
            }
            // Main full or a stale duplicate: the batch rejects whole, but
            // the per-rule path can still make partial progress (and
            // self-heal stale duplicates) — retarget the pass there.
            Err(TcamError::Full) | Err(TcamError::Duplicate(_)) => {
                return self.migrate_per_rule(now, &order);
            }
            // Channel dead even after retries: abort the whole pass. The
            // atomic batch applied nothing, so every rule simply stays in
            // the shadow — make-before-break means nothing was broken.
            Err(_) => return self.finish_migration(now, report),
        }
        let mut piece_deletes = Vec::with_capacity(order.len());
        for rule in &order {
            let Some(entry) = self.shadow.remove(rule.id) else {
                continue;
            };
            self.main_index.insert(entry.original);
            self.unregister_blockers(rule.id, &entry.cut_against);
            report.entries_saved += entry.pieces.len().saturating_sub(1);
            report.rules_migrated += 1;
            piece_deletes.extend(entry.pieces.iter().map(|(pid, _)| *pid));
        }
        report.duration += self.dev_delete_all(SHADOW, &piece_deletes);
        report.pieces_deleted += piece_deletes.len();
        self.finish_migration(now, report)
    }

    /// The one-op-per-rule migration pass over `order` (the residents in
    /// migration order): what [`migrate`](Self::migrate) retargets to when
    /// its insert batch rejects `Full` or `Duplicate`.
    fn migrate_per_rule(&mut self, now: SimTime, order: &[Rule]) -> MigrationReport {
        let mut report = MigrationReport::default();
        for rule in order {
            let entry = match self.shadow.get(rule.id) {
                Some(e) => e.clone(),
                None => continue,
            };
            // Step 3: write the original into the main table first…
            match self.dev_insert(MAIN, entry.original) {
                Ok(rep) => {
                    report.duration += rep.latency;
                    report.entries_written += 1;
                }
                // Main full or channel dead: the per-rule transaction
                // aborts with no side effects — the rule simply stays in
                // the shadow (make-before-break means nothing was broken).
                // The whole PASS must abort too, not just this rule: later
                // rules in the order have priority ≥ this one, and moving
                // any of them to the main table would leave this rule's
                // shadow pieces un-cut against a higher-priority main rule,
                // breaking the shadow-first lookup invariant.
                Err(_) => break,
            }
            self.main_index.insert(entry.original);
            // …then (step 4) remove its shadow pieces. A piece the channel
            // refuses to release is journaled; until replay or audit GCs
            // it, the duplicate coverage is harmless (same rule, both
            // tables — make-before-break's own intermediate state).
            report.duration += self.remove_shadow_resident(&entry);
            report.pieces_deleted += entry.pieces.len();
            report.entries_saved += entry.pieces.len().saturating_sub(1);
            report.rules_migrated += 1;
        }
        self.finish_migration(now, report)
    }

    /// Shared migration epilogue: the busy window, stats and telemetry.
    fn finish_migration(&mut self, now: SimTime, report: MigrationReport) -> MigrationReport {
        self.manager.migration_started(now, report.duration);
        self.stats.migrations += 1;
        self.stats.rules_migrated += report.rules_migrated as u64;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter(names::MANAGER_MIGRATIONS, 1);
            hermes_telemetry::counter(names::MANAGER_ENTRIES_SAVED, report.entries_saved as u64);
            hermes_telemetry::observe(names::MANAGER_MIGRATION_BATCH, report.rules_migrated as u64);
            hermes_telemetry::observe(names::MANAGER_MIGRATION_NS, report.duration.as_nanos());
            hermes_telemetry::span(
                names::MANAGER_MIGRATE,
                now.as_nanos(),
                report.duration.as_nanos(),
            );
        }
        report
    }
}

//! Shadow placement upkeep: the per-piece shadow writer, the re-cuts that
//! keep shadow pieces disjoint from higher-priority main rules (Fig. 6 and
//! its symmetric case), eviction to the main table, and the `delete` /
//! `modify` entry points that trigger them.

use super::{ActionReport, HermesError, HermesSwitch, ReportDetail, ShadowEntry, MAIN, SHADOW};
use crate::partition::partition_new_rule_bounded;
use crate::resync::IntentOp;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, TcamError};

impl HermesSwitch {
    /// Writes `keys` into the shadow as pieces of `owner`, one device op
    /// each. Piece `j` takes physical id `reserved + j` when the caller
    /// already allocated the run, else one allocated immediately before
    /// its write — a failed install burns no id it never wrote. On
    /// the first failure the pieces already written are removed again
    /// (those the dead channel refuses to delete go to the GC journal for
    /// idempotent replay). Returns the device time spent either way, and
    /// the pieces written or the error that stopped them.
    pub(super) fn install_pieces(
        &mut self,
        owner: Rule,
        keys: &[TernaryKey],
        reserved: Option<RuleId>,
    ) -> (SimDuration, Result<Vec<(RuleId, TernaryKey)>, TcamError>) {
        let mut latency = SimDuration::ZERO;
        let mut written = Vec::with_capacity(keys.len());
        for (j, key) in keys.iter().enumerate() {
            let id = match reserved {
                Some(first) => RuleId(first.0 + j as u64),
                None => self.alloc_phys(1),
            };
            let piece = Rule {
                id,
                key: *key,
                ..owner
            };
            match self.dev_apply(SHADOW, &ControlAction::Insert(piece)) {
                Ok(rep) => {
                    latency += rep.latency;
                    written.push((id, *key));
                }
                Err(e) => {
                    for (id, _) in &written {
                        latency += self.dev_delete_or_journal(SHADOW, *id);
                    }
                    self.recovery.stats.rollbacks += 1;
                    return (latency, Err(e));
                }
            }
        }
        (latency, Ok(written))
    }

    /// Narrows every shadow-resident rule of *strictly lower* priority
    /// whose *installed pieces* overlap a rule that just landed in the
    /// main table. Without this, the shadow-first lookup would let those
    /// rules wrongly win inside the new rule's region (the symmetric case
    /// of the Fig. 4(b) violation).
    ///
    /// This is incremental: the pieces already avoid every older
    /// higher-priority main rule, so only a cut against the *new* rule is
    /// needed — not a full re-partition.
    pub(super) fn recut_below(&mut self, new_main: Rule) -> SimDuration {
        let mut affected: Vec<RuleId> = self
            .shadow
            .values()
            .filter(|e| {
                e.original.priority < new_main.priority
                    && e.pieces.iter().any(|(_, k)| k.overlaps(&new_main.key))
            })
            .map(|e| e.original.id)
            .collect();
        // The op sequence must be deterministic (fault plans and latencies
        // depend on it). BTreeMap iteration is already RuleId-sorted; the
        // explicit sort documents the requirement and keeps it true even
        // if the container changes again.
        affected.sort_unstable_by_key(|id| id.0);
        let mut latency = SimDuration::ZERO;
        for id in affected {
            latency += self.narrow_shadow_rule(id, new_main);
        }
        latency
    }

    /// Cuts the overlapping pieces of one shadow rule against a single new
    /// main-table key (make-before-break). Falls back to evicting the rule
    /// to the main table if the shadow cannot hold the replacements.
    fn narrow_shadow_rule(&mut self, id: RuleId, against: Rule) -> SimDuration {
        let entry = match self.shadow.get(&id) {
            Some(e) => e.clone(),
            None => return SimDuration::ZERO,
        };
        let (doomed, kept): (Vec<_>, Vec<_>) =
            (entry.pieces.iter().copied()).partition(|(_, key)| key.overlaps(&against.key));
        if doomed.is_empty() {
            // A recursive eviction triggered by an earlier rule in this
            // recut pass may have already narrowed this rule.
            return SimDuration::ZERO;
        }
        let cuts = doomed
            .iter()
            .flat_map(|(_, key)| key.difference(&against.key));
        let replacements = hermes_rules::merge::minimize_keys(cuts.collect());
        if kept.len() + replacements.len() > self.config.max_partitions {
            return self.evict_shadow_rule_to_main(&entry);
        }
        // The rule now also depends on the new main rule for its shape —
        // registered by identity (two main rules may share a key).
        let mut cut_against = entry.cut_against.clone();
        if !cut_against.contains(&against.id) {
            cut_against.push(against.id);
        }
        let (latency, swapped) = self.swap_pieces(&entry, kept, &replacements, cut_against);
        if swapped {
            self.register_blockers(id, &[against.id]);
        }
        latency
    }

    /// Recomputes the partition of a shadow-resident rule against the
    /// current main table, replacing its pieces. Returns the TCAM time
    /// spent.
    fn repartition_shadow_rule(&mut self, id: RuleId) -> SimDuration {
        let entry = match self.shadow.get(&id) {
            Some(e) => e.clone(),
            None => return SimDuration::ZERO,
        };
        let limit = self.config.max_partitions;
        let outcome = match partition_new_rule_bounded(&entry.original, &self.main_index, limit) {
            Ok(o) => o,
            // Fragmentation blow-up on re-partition: move the rule to the
            // main table instead (correct, unguaranteed), mirroring the
            // insert-time bypass.
            Err(_) => return self.evict_shadow_rule_to_main(&entry),
        };
        let cut_against = outcome.cut_against.clone();
        let (latency, swapped) = self.swap_pieces(&entry, Vec::new(), &outcome.pieces, cut_against);
        if swapped {
            self.unregister_blockers(id, &entry.cut_against);
            self.register_blockers(id, &outcome.cut_against);
        }
        latency
    }

    /// The shared tail of the two re-cuts, make-before-break: the
    /// `replacements` land before the pieces not `kept` go, so the rule's
    /// coverage never drops below its target; then the entry is rewritten
    /// to `kept` plus what was written, cut against `cut_against`. When
    /// the shadow cannot take the replacements (full, or the channel is
    /// dead) the rule moves to the main table instead (correct,
    /// unguaranteed). Returns the device time spent and whether the entry
    /// was rewritten — the blocker graph is the caller's to update.
    fn swap_pieces(
        &mut self,
        entry: &ShadowEntry,
        mut kept: Vec<(RuleId, TernaryKey)>,
        replacements: &[TernaryKey],
        cut_against: Vec<RuleId>,
    ) -> (SimDuration, bool) {
        let (mut latency, written) = self.install_pieces(entry.original, replacements, None);
        let Ok(new_ids) = written else {
            return (latency + self.evict_shadow_rule_to_main(entry), false);
        };
        for (pid, _) in entry.pieces.iter().filter(|piece| !kept.contains(piece)) {
            latency += self.dev_delete_or_journal(SHADOW, *pid);
        }
        kept.extend(new_ids);
        if let Some(e) = self.shadow.get_mut(&entry.original.id) {
            e.pieces = kept;
            e.cut_against = cut_against;
        }
        self.stats.repartitions += 1;
        (latency, true)
    }

    /// Takes a resident out of the shadow: releases its pieces one op each
    /// (a refused delete is journaled) and drops its bookkeeping. Returns
    /// the device time spent.
    pub(super) fn remove_shadow_resident(&mut self, entry: &ShadowEntry) -> SimDuration {
        let id = entry.original.id;
        let mut latency = SimDuration::ZERO;
        for (pid, _) in &entry.pieces {
            latency += self.dev_delete_or_journal(SHADOW, *pid);
        }
        self.unregister_blockers(id, &entry.cut_against);
        self.shadow.remove(&id);
        self.shadow_order.retain(|r| *r != id);
        latency
    }

    /// Moves a shadow-resident logical rule into the main table: deletes
    /// its shadow pieces, installs the original in the main slice and
    /// re-cuts any lower-priority shadow rules it now overlaps. Correct
    /// (TCAM priority resolution takes over) but unguaranteed.
    pub(super) fn evict_shadow_rule_to_main(&mut self, entry: &ShadowEntry) -> SimDuration {
        let mut latency = self.remove_shadow_resident(entry);
        // The rule is main-resident by *intent* from here on, whether or
        // not the write lands right now: on a channel failure the audit
        // re-installs it from `main_index` instead of the rule being lost.
        if let Ok(rep) = self.dev_insert(MAIN, entry.original) {
            latency += rep.latency;
        }
        self.main_index.insert(entry.original);
        // The rule is now a main rule: lower-priority shadow rules
        // overlapping it must be re-cut, exactly as on any other
        // main-table insertion.
        latency += self.recut_below(entry.original);
        self.stats.repartitions += 1;
        latency
    }

    /// Deletes a logical rule.
    pub fn delete(&mut self, id: RuleId, now: SimTime) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        self.stats.deletes += 1;
        // A rule still queued by degraded mode is logically installed but
        // physically nowhere: deleting it is pure bookkeeping.
        if let Some(pos) = self.recovery.deferred.iter().position(|r| r.id == id) {
            self.recovery.deferred.remove(pos);
            self.recovery.stats.deferred_dropped += 1;
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Delete {
                    pieces_removed: 0,
                    repartitioned: 0,
                },
            });
        }
        if let Some(entry) = self.shadow.remove(&id) {
            let mut latency = self.remove_shadow_resident(&entry);
            if entry.pieces.is_empty() {
                latency += SimDuration::from_us(10.0); // agent bookkeeping only
            }
            self.prio_remove(entry.original.priority);
            self.intent.record(IntentOp::Remove(id));
            return Ok(ActionReport {
                latency,
                detail: ReportDetail::Delete {
                    pieces_removed: entry.pieces.len(),
                    repartitioned: 0,
                },
            });
        }
        if let Some(rule) = self.main_index.remove(id) {
            // Journaled on failure; NotFound means the original install
            // was silently dropped, so the entry is already gone.
            let mut latency = self.dev_delete_or_journal(MAIN, id);
            self.prio_remove(rule.priority);
            self.intent.record(IntentOp::Remove(id));
            // Fig. 6: un-partition every shadow rule that was cut against
            // the deleted rule.
            let dependents = self.blockers.remove(&id).unwrap_or_default();
            let repartitioned = dependents.len();
            for dep in dependents {
                latency += self.repartition_shadow_rule(dep);
            }
            return Ok(ActionReport {
                latency,
                detail: ReportDetail::Delete {
                    pieces_removed: 1,
                    repartitioned,
                },
            });
        }
        self.stats.deletes -= 1;
        Err(HermesError::NotFound(id))
    }

    /// Modifies a logical rule. Priority changes become delete+insert
    /// (§4.1); action-only changes are applied in place.
    pub fn modify(
        &mut self,
        id: RuleId,
        action: Option<Action>,
        priority: Option<Priority>,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        let current = self.get(id).ok_or(HermesError::NotFound(id))?;
        // A rule still queued by degraded mode is modified in the queue.
        if let Some(queued) = self.recovery.deferred.iter_mut().find(|r| r.id == id) {
            if let Some(a) = action {
                queued.action = a;
            }
            let in_place = match priority {
                Some(p) if p != queued.priority => {
                    queued.priority = p;
                    false
                }
                _ => true,
            };
            self.stats.modifies += 1;
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Modify { in_place },
            });
        }
        if let Some(new_prio) = priority {
            if new_prio != current.priority {
                let del = self.delete(id, now)?;
                let mut rule = current;
                rule.priority = new_prio;
                if let Some(a) = action {
                    rule.action = a;
                }
                let ins = match self.insert(rule, now) {
                    Ok(rep) => rep,
                    Err(e) => {
                        // Atomicity under faults: the delete leg already
                        // landed, so a failed re-insert must not lose the
                        // rule — a failed modify means "old rule still
                        // stands". Restore the original; if the channel is
                        // still refusing writes, park it in the degraded
                        // queue, where it stays logically present and
                        // flushes on recovery.
                        if self.insert(current, now).is_err()
                            && !self.recovery.deferred.iter().any(|r| r.id == id)
                        {
                            self.recovery.defer(current);
                        }
                        return Err(e);
                    }
                };
                // The delete+insert counts as one modify.
                self.stats.deletes -= 1;
                self.stats.inserts -= 1;
                self.stats.modifies += 1;
                return Ok(ActionReport {
                    latency: del.latency + ins.latency,
                    detail: ReportDetail::Modify { in_place: false },
                });
            }
        }
        self.stats.modifies += 1;
        let Some(new_action) = action else {
            // Nothing to change.
            return Ok(ActionReport {
                latency: SimDuration::from_us(10.0),
                detail: ReportDetail::Modify { in_place: true },
            });
        };
        let mut latency = SimDuration::ZERO;
        if let Some(entry) = self.shadow.get_mut(&id) {
            entry.original.action = new_action;
            let pieces = entry.pieces.clone();
            for (pid, _) in pieces {
                // Bookkeeping already carries the new action; a device
                // failure here (or a silently-dropped piece, surfacing as
                // NotFound) leaves action drift for the audit to repair.
                if let Ok(rep) = self.dev_set_action(SHADOW, pid, new_action) {
                    latency += rep.latency;
                }
            }
        } else {
            // INVARIANT: `current` came from get(), the deferred and
            // shadow branches returned above, so the rule is main-resident.
            let mut rule = self.main_index.get(id).expect("checked contains");
            rule.action = new_action;
            self.main_index.insert(rule); // replace
            if let Ok(rep) = self.dev_set_action(MAIN, id, new_action) {
                latency += rep.latency;
            }
        }
        self.intent.record(IntentOp::Modify {
            id,
            action: new_action,
        });
        Ok(ActionReport {
            latency,
            detail: ReportDetail::Modify { in_place: true },
        })
    }
}

//! The one admission path: Gate Keeper → Algorithm 1 → shadow write.
//!
//! [`HermesSwitch::plan_admission`] decides where a new rule goes and one
//! commit step per outcome books it. [`HermesSwitch::insert`],
//! [`HermesSwitch::admit_batch`] and the degraded-mode queue drain are
//! drivers over those: they share planning and bookkeeping and differ only
//! in device framing — a single rule writes its pieces one op at a time, a
//! batch queues consecutive shadow plans into one device transaction.

use super::{
    ActionReport, HermesError, HermesSwitch, ReportDetail, ShadowEntry, AGENT_ONLY, MAIN,
    PHYS_BASE, SHADOW,
};
use crate::gatekeeper::Route;
use crate::partition::partition_new_rule_bounded;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, TcamError, TcamOp};
use hermes_telemetry::names;
use std::collections::BTreeSet;

/// A shadow-bound rule whose pieces have been cut but not yet written.
#[derive(Clone, Debug)]
struct PlannedShadow {
    rule: Rule,
    keys: Vec<TernaryKey>,
    /// First of `keys.len()` consecutive physical ids already allocated
    /// for the pieces. The planner leaves this unset — the per-piece
    /// writer then allocates each id immediately before its write — and
    /// the batch driver sets it when it queues the plan into a
    /// transaction.
    reserved: Option<RuleId>,
    cut_against: Vec<RuleId>,
    intact: bool,
}

impl PlannedShadow {
    /// The pieces under their reserved physical ids (none until reserved).
    fn pieces(&self) -> impl Iterator<Item = (RuleId, TernaryKey)> + '_ {
        let ids = self.reserved.into_iter().flat_map(|first| first.0..);
        ids.map(RuleId).zip(self.keys.iter().copied())
    }
}

/// Where the planner sends a new rule.
enum Admission {
    /// To the main table without consulting the shadow: the Gate Keeper's
    /// pre-route verdict, or a cut that blew the fragmentation budget.
    Bypass(Route),
    /// Planned for the shadow but diverted to the main table: no room, or
    /// too many pieces to write within the guarantee.
    Diverted(Route),
    /// Wholly subsumed by the main rules listed (Fig. 5(a)): logically
    /// installed, nothing written.
    Redundant(Vec<RuleId>),
    /// Cut (Algorithm 1) and bound for the shadow table.
    Shadow(PlannedShadow),
}

fn admission_error(e: TcamError) -> HermesError {
    match e {
        TcamError::Full => HermesError::DeviceFull,
        e => HermesError::Device(e),
    }
}

impl HermesSwitch {
    /// Inserts a rule.
    ///
    /// While the Gate Keeper is in degraded mode (the control channel has
    /// repeatedly timed out) the admission is queued instead of hammering
    /// the dead channel, reported as [`Route::Deferred`]; queued rules are
    /// applied by the next tick or audit once the channel recovers.
    pub fn insert(&mut self, rule: Rule, now: SimTime) -> Result<ActionReport, HermesError> {
        self.clock = self.clock.max(now);
        if rule.id.0 >= PHYS_BASE {
            return Err(HermesError::IdOutOfRange(rule.id));
        }
        if self.contains(rule.id) {
            return Err(HermesError::Duplicate(rule.id));
        }
        if self.recovery.is_degraded() {
            return Ok(self.defer_admission(rule));
        }
        self.admit_one(rule, now)
    }

    /// Queues an admission while the channel is down. Deferral is surfaced
    /// through the health counters, not the violation count: during an
    /// outage there is no latency to measure against the bound.
    fn defer_admission(&mut self, rule: Rule) -> ActionReport {
        self.recovery.defer(rule);
        Route::Deferred.record();
        self.insert_report(&rule, Route::Deferred, 0, AGENT_ONLY, false)
    }

    /// Closes an admission: whether the rule was entitled to the
    /// guarantee, whether `breached` makes that a violation, and the
    /// controller-visible report.
    fn insert_report(
        &mut self,
        rule: &Rule,
        route: Route,
        pieces: usize,
        latency: SimDuration,
        breached: bool,
    ) -> ActionReport {
        let guaranteed = self.gate.qualifies(rule);
        let violated = guaranteed && breached;
        if violated {
            self.stats.violations += 1;
        }
        ActionReport {
            latency,
            detail: ReportDetail::Insert {
                route,
                pieces,
                guaranteed,
                violated,
            },
        }
    }

    /// One validated rule through the live path (Gate Keeper healthy):
    /// plan, write its pieces one op each, then the migration-trigger
    /// check. The degraded-mode queue drains through here too.
    ///
    /// The trigger is re-evaluated only after an admission that consulted
    /// the shadow and went through: a bypass never looked at it, and a
    /// failed shadow write was rolled back.
    fn admit_one(&mut self, rule: Rule, now: SimTime) -> Result<ActionReport, HermesError> {
        self.stats.inserts += 1;
        self.manager.record_arrival();
        let pre = self.gate.pre_route(&rule, now, self.lowest_live_priority());
        let report = match self.plan_admission(rule, pre, 0) {
            Admission::Bypass(route) => return self.insert_to_main(rule, route),
            Admission::Diverted(route) => self.insert_to_main(rule, route),
            Admission::Redundant(cut_against) => Ok(self.commit_redundant(rule, cut_against)),
            Admission::Shadow(p) => Ok(self.install_shadow_rule(p)?),
        };
        self.maybe_migrate(now);
        report
    }

    /// The admission planner: everything between the Gate Keeper's
    /// pre-route verdict and the first device write. `queued` counts the
    /// pieces already planned into a pending transaction but not yet
    /// written — capacity and guarantee estimates must include them.
    fn plan_admission(&mut self, rule: Rule, pre: Option<Route>, queued: usize) -> Admission {
        if let Some(route) = pre {
            return Admission::Bypass(route);
        }
        // Algorithm 1 against the main table, with a fragmentation budget:
        // rules that would explode into partitions go straight to the main
        // table (§4.2's footnote), detected early to keep insertion cheap.
        // The budget equals the Gate Keeper's own partition cap — anything
        // beyond it would be diverted by post_route anyway.
        let limit = self.config.max_partitions;
        let Ok(outcome) = partition_new_rule_bounded(&rule, &self.main_index, limit) else {
            return Admission::Bypass(Route::MainTooFragmented);
        };
        let pieces = outcome.pieces.len();
        let shadow_free = self.device.slice(SHADOW).table.free();
        let mut route = self
            .gate
            .post_route(pieces, shadow_free.saturating_sub(queued));

        // A partitioned rule writes several shadow entries and the
        // guarantee covers their *sum*: divert to the main table when even
        // the worst-case cumulative cost cannot fit the bound. (Heavily
        // partitioned rules are exactly the ones §4.2 argues belong in the
        // main table.)
        if route == Route::Shadow && pieces > 1 {
            let occ = self.shadow_len() + queued;
            // `worst_insert_latency` piece by piece, its model scan hoisted
            // to construction.
            let base = self.device.model().base;
            let est: SimDuration = (0..pieces)
                .map(|j| base + self.worst_per_shift.mul_f64((occ + j) as f64))
                .sum();
            if est > self.config.guarantee {
                route = Route::MainTooFragmented;
            }
        }
        match route {
            Route::Redundant => Admission::Redundant(outcome.cut_against),
            Route::Shadow => Admission::Shadow(PlannedShadow {
                rule,
                intact: outcome.is_intact(&rule.key),
                keys: outcome.pieces,
                reserved: None,
                cut_against: outcome.cut_against,
            }),
            other => Admission::Diverted(other),
        }
    }

    /// Books a fresh shadow resident (zero pieces for a redundant rule).
    fn book_shadow_entry(
        &mut self,
        rule: Rule,
        pieces: Vec<(RuleId, TernaryKey)>,
        cut_against: Vec<RuleId>,
    ) {
        self.register_blockers(rule.id, &cut_against);
        let entry = ShadowEntry {
            original: rule,
            pieces,
            cut_against,
        };
        self.shadow.push(entry);
        self.prio_add(rule.priority);
    }

    /// Logically installed; nothing written (Fig. 5(a)). Charged only
    /// agent processing time.
    fn commit_redundant(&mut self, rule: Rule, cut_against: Vec<RuleId>) -> ActionReport {
        self.stats.redundant_inserts += 1;
        self.book_shadow_entry(rule, Vec::new(), cut_against);
        Route::Redundant.record();
        self.insert_report(&rule, Route::Redundant, 0, AGENT_ONLY, false)
    }

    /// Bookkeeping for one shadow rule whose pieces are physically
    /// installed, `latency` being its (share of the) device time.
    fn commit_shadow_rule(
        &mut self,
        p: PlannedShadow,
        pieces: Vec<(RuleId, TernaryKey)>,
        latency: SimDuration,
    ) -> ActionReport {
        self.stats.shadow_inserts += 1;
        self.stats.pieces_written += pieces.len() as u64;
        if !p.intact {
            self.stats.rules_cut += 1;
        }
        let written = pieces.len();
        self.book_shadow_entry(p.rule, pieces, p.cut_against);
        Route::Shadow.record();
        hermes_telemetry::observe(names::GATEKEEPER_SHADOW_INSERT_NS, latency.as_nanos());
        let breached = latency > self.config.guarantee;
        self.insert_report(&p.rule, Route::Shadow, written, latency, breached)
    }

    /// Executes one shadow plan per piece and commits it. A partial
    /// install is rolled back so no piece of a never-acknowledged rule can
    /// match.
    fn install_shadow_rule(&mut self, p: PlannedShadow) -> Result<ActionReport, HermesError> {
        let (latency, written) = self.install_pieces(p.rule, &p.keys, p.reserved);
        let pieces = written.map_err(admission_error)?;
        Ok(self.commit_shadow_rule(p, pieces, latency))
    }

    /// Installs a rule directly in the main table, then re-cuts any
    /// lower-priority shadow rules it now overlaps (the symmetric case of
    /// Fig. 6 — required to keep the shadow-first lookup correct).
    fn insert_to_main(&mut self, rule: Rule, route: Route) -> Result<ActionReport, HermesError> {
        route.record();
        let rep = self.dev_insert(MAIN, rule).map_err(admission_error)?;
        self.main_index.insert(rule);
        self.prio_add(rule.priority);
        self.stats.main_inserts += 1;

        let latency = rep.latency + self.recut_below(rule);

        // Main-table routes are outside the guarantee contract except for
        // MainShadowFull: over-rate traffic is explicitly best-effort
        // ("Hermes uses the main table to service the additional commands
        // over the approved rate"), and the low-priority / fragmentation
        // bypasses are Hermes's own optimizations that stay cheap. Only a
        // shadow-table overflow breaks a promise.
        Ok(self.insert_report(&rule, route, 1, latency, route.breaks_guarantee()))
    }

    /// Inserts a whole slice of rules as a batched control-plane pipeline:
    /// one Gate Keeper admission pass over the slice, then every run of
    /// consecutive shadow-bound rules pushed through a *single* device
    /// transaction (one handshake, one coalesced shift plan). Returns one
    /// outcome per rule, in submission order.
    ///
    /// Semantics match [`insert`](Self::insert) called once per rule, with
    /// two documented deviations inherent to batching:
    ///
    /// * the token bucket and low-priority bypass see the batch's single
    ///   arrival instant and a pre-batch `lowest_live_priority` snapshot:
    ///   the §4.2 bypass does not re-evaluate against rules admitted
    ///   earlier in the same batch;
    /// * the shared transaction's latency is split evenly across the
    ///   batch's shadow-bound rules, and the migration trigger is
    ///   evaluated once after the batch rather than after every rule.
    ///
    /// Correctness is *not* relaxed: a rule routed to the main table mid-
    /// batch first flushes the pending shadow transaction, so the Fig. 6
    /// re-cut always runs against fully installed pieces and the
    /// shadow-first lookup invariant holds at every device-op boundary.
    pub fn admit_batch(
        &mut self,
        rules: &[Rule],
        now: SimTime,
    ) -> Vec<Result<ActionReport, HermesError>> {
        self.clock = self.clock.max(now);
        let mut results = vec![None; rules.len()];

        // Phase 0: validation and degraded-mode deferral, in order.
        let mut admitted: Vec<(usize, Rule)> = Vec::new();
        let mut seen: BTreeSet<RuleId> = BTreeSet::new();
        for (i, rule) in rules.iter().enumerate() {
            if rule.id.0 >= PHYS_BASE {
                results[i] = Some(Err(HermesError::IdOutOfRange(rule.id)));
            } else if self.contains(rule.id) || !seen.insert(rule.id) {
                results[i] = Some(Err(HermesError::Duplicate(rule.id)));
            } else if self.recovery.is_degraded() {
                results[i] = Some(Ok(self.defer_admission(*rule)));
            } else {
                admitted.push((i, *rule));
            }
        }

        // Phase 1: one Gate Keeper pass over the admitted slice, in
        // submission order (earlier rules win the remaining tokens).
        let lowest = self.lowest_live_priority();
        let routes: Vec<Option<Route>> = (admitted.iter())
            .map(|(_, r)| self.gate.pre_route(r, now, lowest))
            .collect();

        // Phase 2: plan each rule, queueing consecutive shadow-bound
        // installs into one pending transaction. A redundant rule installs
        // nothing, so it commits without a flush; any main-table landing
        // flushes the pending batch first (see the doc comment).
        let mut planned: Vec<(usize, PlannedShadow)> = Vec::new();
        let mut ops: Vec<TcamOp> = Vec::new();
        for ((idx, rule), pre) in admitted.into_iter().zip(routes) {
            self.stats.inserts += 1;
            self.manager.record_arrival();
            match self.plan_admission(rule, pre, ops.len()) {
                Admission::Bypass(route) | Admission::Diverted(route) => {
                    self.flush_shadow_batch(&mut planned, &mut ops, &mut results);
                    results[idx] = Some(self.insert_to_main(rule, route));
                }
                Admission::Redundant(cut_against) => {
                    results[idx] = Some(Ok(self.commit_redundant(rule, cut_against)));
                }
                Admission::Shadow(mut p) => {
                    p.reserved = Some(self.alloc_phys(p.keys.len()));
                    ops.extend(
                        p.pieces()
                            .map(|(id, key)| TcamOp::Insert(Rule { id, key, ..rule })),
                    );
                    planned.push((idx, p));
                }
            }
        }
        self.flush_shadow_batch(&mut planned, &mut ops, &mut results);

        // Phase 3: one migration-trigger check for the whole batch.
        self.maybe_migrate(now);
        results
            .into_iter()
            .map(|r| {
                r.expect("INVARIANT: every submitted rule is resolved by one admit_batch phase")
            })
            .collect()
    }

    /// Writes the pending shadow transaction (one op per reserved piece)
    /// and commits each planned rule. The shared handshake's latency is
    /// split evenly across the batch; if the transaction is rejected
    /// whole, each rule falls back to its own per-piece install so one
    /// unplaceable rule cannot sink its batch-mates.
    fn flush_shadow_batch(
        &mut self,
        planned: &mut Vec<(usize, PlannedShadow)>,
        ops: &mut Vec<TcamOp>,
        results: &mut [Option<Result<ActionReport, HermesError>>],
    ) {
        if planned.is_empty() {
            return;
        }
        let planned = std::mem::take(planned);
        let share = self
            .dev_apply_batch(SHADOW, &std::mem::take(ops))
            .map(|rep| rep.latency.mul_f64(1.0 / planned.len() as f64));
        for (idx, p) in planned {
            results[idx] = Some(match share {
                Ok(share) => {
                    let pieces = p.pieces().collect();
                    Ok(self.commit_shadow_rule(p, pieces, share))
                }
                Err(_) => self.install_shadow_rule(p),
            });
        }
    }

    /// The migration-trigger check that ends an admission
    /// ([`RuleManager::after_admission`](crate::manager::RuleManager::after_admission)).
    fn maybe_migrate(&mut self, now: SimTime) {
        if (self.manager).after_admission(now, self.shadow_len(), self.shadow_capacity()) {
            self.migrate(now);
        }
    }

    /// Drains the degraded-mode admission queue through the live insert
    /// path, in arrival order. Stops at the first device failure (the
    /// channel is still dead) and re-queues the remainder. Returns the
    /// number flushed and the control-plane time spent.
    pub(super) fn flush_deferred(&mut self, now: SimTime) -> (usize, SimDuration) {
        let mut flushed = 0;
        let mut latency = SimDuration::ZERO;
        while let Some(rule) = self.recovery.deferred.pop_front() {
            match self.admit_one(rule, now) {
                Ok(rep) => {
                    latency += rep.latency;
                    flushed += 1;
                }
                Err(HermesError::Device(_)) => {
                    // Channel still dead: put it back at the front and
                    // stop probing.
                    self.recovery.deferred.push_front(rule);
                    break;
                }
                // Permanently unplaceable (e.g. the table filled while the
                // rule waited): drop it.
                Err(_) => {}
            }
        }
        (flushed, latency)
    }
}

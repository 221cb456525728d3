//! Sharded multi-switch fleet controller.
//!
//! The paper evaluates Hermes one switch at a time; netsim builds fat-tree
//! and ISP topologies where *every* switch runs its own shadow/main pair.
//! [`Fleet`] owns one [`ControlPlane`] per switch and shards their control
//! channels across a fixed set of deterministic **worker lanes**:
//!
//! * a lane models one controller worker driving device handshakes
//!   synchronously — an operation occupies both its switch's serial
//!   control channel *and* its lane for the modeled execution time;
//! * switches on different lanes overlap freely, so a shadow install on
//!   one switch proceeds while a migration is in flight on another —
//!   the event-driven pipelined device channel;
//! * `lanes = 1` reproduces the historical single-threaded driver (every
//!   device op in the fleet serializes), `lanes = 0` gives every member a
//!   dedicated lane (fully parallel dispatch, the netsim default);
//! * every member has a **home lane** — round-robin over the sorted ids
//!   plus a seeded shuffle — and [`LaneSched`] picks where an op actually
//!   runs: `Pinned` always uses the home lane (the phase-1 behaviour),
//!   `Weighted` (the default) sends each op to the least-loaded lane.
//!   Both are pure functions of the seed and the submission history
//!   (determinism); with dedicated lanes (`lanes = 0`) scheduling is a
//!   no-op and the phase-1 timing is bit-preserved.
//!
//! Dependency tracking rides [`OpToken`]s: a submission handed the tokens
//! of earlier submissions starts only after all of them complete, even
//! across lanes — dependent cuts land after their pieces.
//!
//! On top of the channel, [`Fleet::install_path`] installs a rule set
//! along a path as a **two-phase transaction**: stage on every member via
//! the batched admission pipeline, commit once the last member's pieces
//! land, and roll back *everywhere* if any member is inside a crash
//! window or rejects a piece. Pieces sharing a member ride **one**
//! `apply_batch` cut per member per transaction (`FleetConfig::coalesce`;
//! the per-piece mode survives as the measurement strawman). Rollback
//! deletes ride the normal per-switch machinery — the PR 2 delete journal
//! absorbs device faults and the logical retraction keeps a post-crash
//! resync from resurrecting aborted rules.
//!
//! The [`rebalance`] module layers TE-driven placement on top:
//! [`rebalance::Rebalancer`] scores members from [`MemberHealth`]
//! (occupancy, channel backlog, mean RIT, crash/resync history), steers
//! new path transactions away from slow or crash-looping members, and
//! plans rule migrations off hot members which
//! [`Fleet::migrate_rules`] executes through the batched pipeline.

#![forbid(unsafe_code)]

pub mod rebalance;

pub use rebalance::{MemberHealth, RebalancePolicy, RebalanceStats, Rebalancer};

use hermes_core::plane::{BatchOutcome, ControlPlane, CpQueue};
use hermes_rules::prelude::*;
use hermes_tcam::SimTime;
use hermes_telemetry::names;
use hermes_util::rng::{stream, Rng, Salt};
use std::collections::BTreeMap;

/// Fleet member identifier (a netsim `NodeId` or any dense index).
pub type SwitchId = usize;

/// How ops are assigned to worker lanes (phase 2; DESIGN.md §13).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LaneSched {
    /// Every op runs on its member's home lane — the phase-1 static
    /// round-robin sharding.
    Pinned,
    /// Occupancy-weighted assignment: every op runs on the least-loaded
    /// lane (earliest busy horizon), ties broken by a seeded lane
    /// permutation. Keeps all lanes busy when one member dominates.
    #[default]
    Weighted,
}

/// Fleet construction knobs.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker lanes the member control channels shard across. `0` gives
    /// every member a dedicated lane (fully parallel dispatch); `1` is
    /// the single-threaded driver every device op serializes through.
    pub lanes: usize,
    /// Seed for the lane-assignment shuffle and the scheduler tie-break
    /// permutation. The interleaving the lanes produce is a pure function
    /// of this seed (determinism).
    pub seed: u64,
    /// Lane-scheduling mode. With dedicated lanes (`lanes = 0`) every
    /// mode degenerates to `Pinned` and the phase-1 timing is
    /// bit-preserved.
    pub sched: LaneSched,
    /// Coalesce path-transaction pieces sharing a member into one
    /// `apply_batch` cut per member per transaction (the default).
    /// `false` submits every piece on its own — the per-piece strawman
    /// the `exp_fleet` rebalancing phase measures against.
    pub coalesce: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lanes: 0,
            seed: 1,
            sched: LaneSched::default(),
            coalesce: true,
        }
    }
}

/// Completion handle for a submission: dependency tracking currency.
/// Passing tokens to [`Fleet::submit_after`] delays the new submission
/// until every referenced one has completed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpToken {
    /// Absolute completion instant of the submission.
    pub done: SimTime,
}

/// Fleet health counters (mirrored into `fleet.*` telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Batches dispatched through the lanes.
    pub submits: u64,
    /// Control actions inside those batches.
    pub ops: u64,
    /// Two-phase path transactions started.
    pub txns: u64,
    /// Transactions whose every member staged cleanly.
    pub txn_commits: u64,
    /// Transactions rolled back on a member fault or crash.
    pub txn_rollbacks: u64,
    /// Members that failed staging across all rolled-back transactions.
    pub txn_member_failures: u64,
    /// Rollback deletes re-driven by `tick_all` after a member's crash
    /// window kept the first attempt from landing.
    pub rollback_retries: u64,
    /// Ops dispatched to a lane other than their member's home lane
    /// (`Weighted` scheduling).
    pub steals: u64,
    /// Path-transaction pieces beyond the first on their member that rode
    /// a shared per-member cut instead of their own submit.
    pub coalesced_pieces: u64,
    /// Rule-load migrations committed by [`Fleet::migrate_rules`].
    pub migrations: u64,
    /// Migrations aborted because the target member failed to stage the
    /// moved rules (source left untouched).
    pub migrations_aborted: u64,
    /// Rules moved off their member by committed migrations.
    pub rules_moved: u64,
}

/// Per-rule outcome of a path transaction, with absolute times.
#[derive(Clone, Copy, Debug)]
pub struct PathOp {
    /// The member the piece was staged on.
    pub switch: SwitchId,
    /// The staged rule.
    pub id: RuleId,
    /// Absolute completion instant of the stage write.
    pub done: SimTime,
    /// Whether the member reported a guarantee violation for this piece.
    pub violated: bool,
}

/// Outcome of a two-phase path install.
#[derive(Clone, Debug)]
pub struct PathOutcome {
    /// Transaction sequence number (per fleet).
    pub txn: u64,
    /// `true` once every member staged cleanly; `false` after a rollback.
    pub committed: bool,
    /// Commit barrier (all pieces landed) or rollback completion.
    pub ready: SimTime,
    /// Members that failed staging (empty on commit).
    pub failed: Vec<SwitchId>,
    /// Per-piece stage outcomes, in member order.
    pub ops: Vec<PathOp>,
}

/// Outcome of a [`Fleet::migrate_rules`] rule-load move.
#[derive(Clone, Copy, Debug)]
pub struct MigrateOutcome {
    /// `true` once the target staged every rule and the source deletes
    /// were issued; `false` when the target failed staging (the source
    /// keeps the load, the partial landing is retracted).
    pub committed: bool,
    /// Completion instant of the final cut (deletes on the source, or the
    /// retraction on the target).
    pub ready: SimTime,
}

struct Member<P> {
    queue: CpQueue<P>,
    lane: usize,
    /// Batches dispatched to this member.
    ops: u64,
    /// Cumulative dispatch wait (start − submit), ns.
    wait_ns: u64,
    /// Cumulative modeled execution time, ns.
    service_ns: u64,
}

/// Computes the home-lane assignment for `n` sorted members over
/// `lane_count` lanes under `seed`: round-robin over the sorted ids, then
/// a seeded Fisher–Yates shuffle of the assignment vector — balanced
/// *and* seed-dependent. [`Fleet::member_health`] reports the result.
fn lane_assignment(n: usize, lanes: usize, seed: u64) -> Vec<usize> {
    let lane_count = lanes_for(n, lanes);
    seeded_shuffle(
        (0..n).map(|i| i % lane_count).collect(),
        seed,
        Salt::LANE_SHUFFLE,
    )
}

/// Lanes a fleet of `n` members runs on: one each for `lanes = 0`, never
/// more than members, never none.
fn lanes_for(n: usize, lanes: usize) -> usize {
    if lanes == 0 {
        n.max(1)
    } else {
        lanes.min(n.max(1))
    }
}

/// Fisher–Yates over `v` on `salt`'s stream of `seed`.
fn seeded_shuffle(mut v: Vec<usize>, seed: u64, salt: Salt) -> Vec<usize> {
    let mut rng = stream(seed, salt);
    for i in (1..v.len()).rev() {
        let j = Rng::gen_range(&mut rng, 0..=i);
        v.swap(i, j);
    }
    v
}

/// The fleet controller: N per-switch control planes sharded across
/// deterministic worker lanes.
pub struct Fleet<P: ControlPlane> {
    /// Sorted by id, each id once: found by binary search, iterated in
    /// ascending id.
    members: Vec<(SwitchId, Member<P>)>,
    /// Per-lane busy horizon (the lane's serial clock).
    lanes: Vec<SimTime>,
    /// Seeded lane permutation breaking ties in least-loaded scans.
    lane_order: Vec<usize>,
    sched: LaneSched,
    coalesce: bool,
    /// `lanes = 0`: every member owns its lane, scheduling is a no-op.
    dedicated: bool,
    next_txn: u64,
    /// Rollback deletes that have not yet been confirmed gone (a crash
    /// window can delay the device-side removal); re-driven by
    /// [`tick_all`](Self::tick_all).
    pending_rollbacks: BTreeMap<SwitchId, Vec<RuleId>>,
    stats: FleetStats,
}

impl<P: ControlPlane> Fleet<P> {
    /// Builds a fleet over the given members. Lane assignment is a
    /// seeded shuffle of the sorted member ids so reruns interleave
    /// identically.
    pub fn new(members: Vec<(SwitchId, P)>, config: FleetConfig) -> Self {
        let n = members.len();
        let lane_count = lanes_for(n, config.lanes);
        let assignment = lane_assignment(n, config.lanes, config.seed);
        let mut sorted = members;
        sorted.sort_by_key(|(id, _)| *id);
        let mut members: Vec<(SwitchId, Member<P>)> = sorted
            .into_iter()
            .zip(assignment)
            .map(|((id, plane), lane)| {
                (
                    id,
                    Member {
                        queue: CpQueue::new(plane),
                        lane,
                        ops: 0,
                        wait_ns: 0,
                        service_ns: 0,
                    },
                )
            })
            .collect();
        // A repeated id keeps its last entry, lane included.
        members.dedup_by(|later, kept| {
            let repeat = later.0 == kept.0;
            if repeat {
                std::mem::swap(later, kept);
            }
            repeat
        });
        // Tie-break permutation for least-loaded scans: a second seeded
        // shuffle over the lane indices, on its own salted stream.
        let lane_order = seeded_shuffle((0..lane_count).collect(), config.seed, Salt::LANE_ORDER);
        if hermes_telemetry::enabled() {
            hermes_telemetry::gauge(names::FLEET_LANES, lane_count as f64);
            hermes_telemetry::gauge(names::FLEET_MEMBERS, members.len() as f64);
        }
        Fleet {
            members,
            lanes: vec![SimTime::ZERO; lane_count],
            lane_order,
            sched: config.sched,
            coalesce: config.coalesce,
            dedicated: config.lanes == 0,
            next_txn: 0,
            pending_rollbacks: BTreeMap::new(),
            stats: FleetStats::default(),
        }
    }

    /// Number of worker lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Sorted member ids.
    pub fn switch_ids(&self) -> Vec<SwitchId> {
        self.members.iter().map(|(id, _)| *id).collect()
    }

    /// Iterates members as `(id, plane)`.
    pub fn planes(&self) -> impl Iterator<Item = (SwitchId, &P)> {
        self.members.iter().map(|(id, m)| (*id, m.queue.plane()))
    }

    /// Borrows one member's plane.
    pub fn plane(&self, sw: SwitchId) -> &P {
        self.member(sw).queue.plane()
    }

    /// Mutably borrows one member's plane (preload, crash injection).
    pub fn plane_mut(&mut self, sw: SwitchId) -> &mut P {
        self.member_mut(sw).queue.plane_mut()
    }

    /// Whether a member's control session is inside a crash window.
    pub fn is_down(&self, sw: SwitchId) -> bool {
        self.plane(sw).is_down()
    }

    /// Total installed entries across the fleet.
    pub fn occupancy(&self) -> usize {
        self.members
            .iter()
            .map(|(_, m)| m.queue.plane().occupancy())
            .sum()
    }

    /// The latest busy horizon over all lanes: the modeled makespan of
    /// everything dispatched so far.
    pub fn horizon(&self) -> SimTime {
        self.lanes.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }

    /// Health counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Rollback deletes still awaiting confirmation.
    pub fn pending_rollback_len(&self) -> usize {
        self.pending_rollbacks.values().map(Vec::len).sum()
    }

    /// Per-member health snapshot at `now` — the [`Rebalancer`] scoring
    /// input: occupancy, control-channel backlog, mean modeled RIT and
    /// the crash/resync history (zero for planes without a fault domain).
    pub fn member_health(&self, now: SimTime) -> Vec<MemberHealth> {
        self.members
            .iter()
            .map(|(id, m)| {
                let p = m.queue.plane();
                let (crashes, resyncs) = p
                    .resync_stats()
                    .map(|rs| (rs.crashes_detected, rs.resyncs_completed))
                    .unwrap_or((0, 0));
                let busy = m.queue.busy_until();
                MemberHealth {
                    id: *id,
                    lane: m.lane,
                    occupancy: p.occupancy(),
                    backlog_ns: if busy > now {
                        busy.since(now).as_nanos()
                    } else {
                        0
                    },
                    mean_rit_ns: (m.wait_ns + m.service_ns).checked_div(m.ops).unwrap_or(0),
                    is_down: p.is_down(),
                    crashes,
                    resyncs,
                }
            })
            .collect()
    }

    /// Position of `sw` in `members`.
    fn position(&self, sw: SwitchId) -> usize {
        self.members
            .binary_search_by_key(&sw, |(id, _)| *id)
            .expect("INVARIANT: fleet calls target a registered member")
    }

    fn member(&self, sw: SwitchId) -> &Member<P> {
        &self.members[self.position(sw)].1
    }

    fn member_mut(&mut self, sw: SwitchId) -> &mut Member<P> {
        let pos = self.position(sw);
        &mut self.members[pos].1
    }

    /// The lane with the earliest busy horizon, scanned in the seeded
    /// tie-break order (strict less-than keeps the scan a pure function
    /// of the horizons and the seed).
    fn least_loaded_lane(&self) -> usize {
        // `min_by_key` keeps the first of equal minima.
        let least = self.lane_order.iter().min_by_key(|&&l| self.lanes[l]);
        *least.expect("INVARIANT: a fleet has at least one lane")
    }

    /// Picks the lane an op dispatched to `sw` runs on, per the
    /// configured [`LaneSched`]. Dedicated lanes (`lanes = 0`) always use
    /// the home lane — scheduling cannot improve on one lane per member
    /// and staying home bit-preserves the phase-1 timing.
    fn pick_lane(&mut self, sw: SwitchId) -> usize {
        let home = self.member(sw).lane;
        if self.dedicated || self.lanes.len() == 1 {
            return home;
        }
        let chosen = match self.sched {
            LaneSched::Pinned => home,
            LaneSched::Weighted => self.least_loaded_lane(),
        };
        if chosen != home {
            self.stats.steals += 1;
            hermes_telemetry::counter(names::FLEET_SCHED_STEALS, 1);
        }
        chosen
    }

    /// Submits a batch to one member through its lane.
    pub fn submit(
        &mut self,
        sw: SwitchId,
        actions: &[ControlAction],
        now: SimTime,
    ) -> (SimTime, BatchOutcome) {
        let (start, outcome, _) = self.submit_after(sw, actions, now, &[]);
        (start, outcome)
    }

    /// Submits a batch that must start only after every dependency
    /// completes (dependent cuts land after their pieces). Start of
    /// service additionally waits for the member's control channel and
    /// the scheduled lane; both advance to the batch's completion.
    pub fn submit_after(
        &mut self,
        sw: SwitchId,
        actions: &[ControlAction],
        now: SimTime,
        deps: &[OpToken],
    ) -> (SimTime, BatchOutcome, OpToken) {
        let at = barrier(now, deps);
        let lane = self.pick_lane(sw);
        let at = at.max(self.lanes[lane]);
        let (start, outcome) = self.member_mut(sw).queue.submit(actions, at);
        let done = start + outcome.total;
        self.lanes[lane] = done;
        let m = self.member_mut(sw);
        m.ops += 1;
        m.wait_ns += start.since(now).as_nanos();
        m.service_ns += outcome.total.as_nanos();
        self.stats.submits += 1;
        self.stats.ops += actions.len() as u64;
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter(names::FLEET_SUBMITS, 1);
            hermes_telemetry::counter(names::FLEET_OPS, actions.len() as u64);
            hermes_telemetry::observe(names::FLEET_DISPATCH_WAIT_NS, start.since(now).as_nanos());
        }
        (start, outcome, OpToken { done })
    }

    /// Stages one member's pieces: one coalesced `apply_batch` cut per
    /// member (default), or one submit per piece in the per-piece
    /// strawman mode. Pushes the stage outcomes and tokens.
    fn stage_member(
        &mut self,
        sw: SwitchId,
        batch: &[Rule],
        now: SimTime,
        ops: &mut Vec<PathOp>,
        tokens: &mut Vec<OpToken>,
    ) {
        for cut in cuts(batch, !self.coalesce) {
            let actions: Vec<ControlAction> =
                cut.iter().map(|r| ControlAction::Insert(*r)).collect();
            let (start, outcome, token) = self.submit_after(sw, &actions, now, &[]);
            record_stage_ops(sw, cut, start, &outcome, ops);
            tokens.push(token);
            if cut.len() > 1 {
                let shared = cut.len() as u64 - 1;
                self.stats.coalesced_pieces += shared;
                hermes_telemetry::counter(names::FLEET_TXN_COALESCED_PIECES, shared);
            }
        }
    }

    /// The one retraction path (transaction rollback, migration
    /// abort/commit, the tick loop's re-drive): deletes `ids` on `sw` once
    /// every dependency has completed — one cut, or one per id — then
    /// parks whatever the plane still holds for
    /// [`tick_all`](Self::tick_all) to re-drive (a member mid-crash may
    /// not confirm the removal yet). Returns the last cut's completion.
    fn retract(
        &mut self,
        sw: SwitchId,
        ids: &[RuleId],
        now: SimTime,
        deps: &[OpToken],
        per_piece: bool,
    ) -> OpToken {
        let deletes: Vec<ControlAction> = ids.iter().map(|id| ControlAction::Delete(*id)).collect();
        let mut done = barrier(now, deps);
        for cut in cuts(&deletes, per_piece) {
            let (_, _, token) = self.submit_after(sw, cut, now, deps);
            done = done.max(token.done);
        }
        let plane = self.plane(sw);
        let leftovers: Vec<RuleId> = ids
            .iter()
            .copied()
            .filter(|id| plane.contains_rule(*id) == Some(true))
            .collect();
        if !leftovers.is_empty() {
            self.pending_rollbacks
                .entry(sw)
                .or_default()
                .extend(leftovers);
        }
        OpToken { done }
    }

    /// Installs a rule set along a path as a two-phase transaction.
    ///
    /// Phase 1 stages every member's pieces through the batched admission
    /// pipeline (members shard across lanes, so stages overlap; pieces
    /// sharing a member ride one cut under `coalesce`). A member fails
    /// staging when its control session is inside a crash window or any
    /// of its pieces did not become logically live. Phase 2 commits —
    /// the barrier over every stage token, so the transaction is ready
    /// only after its last piece — or rolls back: every member's pieces
    /// are deleted, with the deletes depending on the full stage barrier
    /// so they land after what they undo. Deletes on a still-down member
    /// retract the rule from the logical view immediately (resync will not
    /// resurrect it) and the device-side removal rides the delete journal;
    /// [`tick_all`](Self::tick_all) re-drives any stragglers.
    pub fn install_path(&mut self, rules: &[(SwitchId, Rule)], now: SimTime) -> PathOutcome {
        let txn = self.next_txn;
        self.next_txn += 1;
        self.stats.txns += 1;
        let span = hermes_telemetry::span_enter(names::FLEET_INSTALL_PATH, now.as_nanos());
        hermes_telemetry::counter(names::FLEET_TXNS, 1);
        let mut by_member: BTreeMap<SwitchId, Vec<Rule>> = BTreeMap::new();
        for (sw, r) in rules {
            by_member.entry(*sw).or_default().push(*r);
        }

        // Phase 1: stage on every member.
        let mut tokens = Vec::with_capacity(by_member.len());
        let mut ops = Vec::with_capacity(rules.len());
        let mut failed = Vec::new();
        for (sw, batch) in &by_member {
            self.stage_member(*sw, batch, now, &mut ops, &mut tokens);
            let plane = self.plane(*sw);
            let staged_ok = !plane.is_down()
                && batch
                    .iter()
                    .all(|r| plane.contains_rule(r.id).unwrap_or(true));
            if !staged_ok {
                failed.push(*sw);
            }
        }
        let mut ready = barrier(now, &tokens);
        if failed.is_empty() {
            // Phase 2a: commit — nothing to write, the stage barrier *is*
            // the commit point.
            self.stats.txn_commits += 1;
            hermes_telemetry::counter(names::FLEET_TXN_COMMITS, 1);
        } else {
            // Phase 2b: roll back everywhere.
            self.stats.txn_rollbacks += 1;
            self.stats.txn_member_failures += failed.len() as u64;
            hermes_telemetry::counter(names::FLEET_TXN_ROLLBACKS, 1);
            hermes_telemetry::counter(names::FLEET_TXN_MEMBER_FAILURES, failed.len() as u64);
            for (sw, batch) in &by_member {
                let ids: Vec<RuleId> = batch.iter().map(|r| r.id).collect();
                let retracted = self.retract(*sw, &ids, now, &tokens, !self.coalesce);
                ready = ready.max(retracted.done);
            }
        }
        span.end(ready.as_nanos());
        PathOutcome {
            txn,
            committed: failed.is_empty(),
            ready,
            failed,
            ops,
        }
    }

    /// Moves a batch of rules from one member to another through the
    /// batched pipeline — the [`Rebalancer`]'s executor for draining rule
    /// load off a hot member.
    ///
    /// The insert cut on `to` goes first; the delete cut on `from`
    /// depends on it, so the rules are never absent from both members.
    /// If `to` fails staging (down, or a rule verifiably missing) the
    /// move aborts: the partial landing on `to` is retracted (dependent
    /// deletes, stragglers parked for [`tick_all`](Self::tick_all)) and
    /// `from` keeps the load untouched.
    pub fn migrate_rules(
        &mut self,
        from: SwitchId,
        to: SwitchId,
        rules: &[Rule],
        now: SimTime,
    ) -> MigrateOutcome {
        assert!(
            from != to,
            "INVARIANT: migrations move load between distinct members"
        );
        let inserts: Vec<ControlAction> = rules.iter().map(|r| ControlAction::Insert(*r)).collect();
        let (_, _, tok_in) = self.submit_after(to, &inserts, now, &[]);
        let target = self.plane(to);
        let landed = !target.is_down()
            && rules
                .iter()
                .all(|r| target.contains_rule(r.id).unwrap_or(true));
        let ids: Vec<RuleId> = rules.iter().map(|r| r.id).collect();
        // Committed: clear the source; aborted: retract the partial
        // landing on the target. Either way the deletes depend on the
        // insert cut and stragglers ride the rollback re-drive loop.
        let victim = if landed { from } else { to };
        let tok_del = self.retract(victim, &ids, now, &[tok_in], false);
        if landed {
            self.stats.migrations += 1;
            self.stats.rules_moved += rules.len() as u64;
            hermes_telemetry::counter(names::FLEET_REBALANCE_MIGRATIONS, 1);
            hermes_telemetry::counter(names::FLEET_REBALANCE_RULES_MOVED, rules.len() as u64);
        } else {
            self.stats.migrations_aborted += 1;
            hermes_telemetry::counter(names::FLEET_REBALANCE_MIGRATIONS_ABORTED, 1);
        }
        MigrateOutcome {
            committed: landed,
            ready: tok_del.done,
        }
    }

    /// Periodic housekeeping across the fleet: ticks every member (Rule
    /// Manager migrations, crash-window reconnects) and re-drives any
    /// rollback deletes a crash window previously swallowed.
    pub fn tick_all(&mut self, now: SimTime) {
        for (_, m) in &mut self.members {
            m.queue.plane_mut().tick(now);
        }
        if self.pending_rollbacks.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_rollbacks);
        for (sw, ids) in pending {
            let retry: Vec<RuleId> = ids
                .into_iter()
                .filter(|id| self.plane(sw).contains_rule(*id) == Some(true))
                .collect();
            if retry.is_empty() {
                continue;
            }
            if self.plane(sw).is_down() {
                // Still inside the crash window: keep them parked.
                self.pending_rollbacks.entry(sw).or_default().extend(retry);
                continue;
            }
            self.stats.rollback_retries += retry.len() as u64;
            hermes_telemetry::counter(names::FLEET_ROLLBACK_RETRIES, retry.len() as u64);
            self.retract(sw, &retry, now, &[], false);
        }
    }

    /// Ends the preload/warm-up phase fleet-wide: member state stays,
    /// time-dependent state (lane horizons, admission buckets, the
    /// per-member RIT aggregates) resets to the epoch.
    pub fn end_warmup_all(&mut self) {
        for (_, m) in &mut self.members {
            m.queue.plane_mut().end_warmup();
            m.ops = 0;
            m.wait_ns = 0;
            m.service_ns = 0;
        }
        for lane in &mut self.lanes {
            *lane = SimTime::ZERO;
        }
    }
}

/// The instant every token has completed, no earlier than `now`.
fn barrier(now: SimTime, tokens: &[OpToken]) -> SimTime {
    tokens.iter().map(|t| t.done).fold(now, SimTime::max)
}

/// The cuts a member's batch rides in: the whole batch as one, or one per
/// piece (the `coalesce = false` strawman).
fn cuts<T>(batch: &[T], per_piece: bool) -> std::slice::Chunks<'_, T> {
    batch.chunks(if per_piece { 1 } else { batch.len().max(1) })
}

/// Stamps absolute completion times onto the staged pieces. The batched
/// admission pipeline preserves submission order, so outcomes zip with
/// the staged rules positionally.
fn record_stage_ops(
    sw: SwitchId,
    batch: &[Rule],
    start: SimTime,
    outcome: &BatchOutcome,
    ops: &mut Vec<PathOp>,
) {
    for (r, op) in batch.iter().zip(outcome.ops.iter()) {
        ops.push(PathOp {
            switch: sw,
            id: r.id,
            done: start + op.completed_at,
            violated: op.violated,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_baselines::{HermesPlane, RawSwitch};
    use hermes_core::prelude::{HermesConfig, HermesSwitch};
    use hermes_tcam::{CrashKind, SimDuration, SwitchModel};

    fn rule(id: u64) -> Rule {
        Rule::new(
            id,
            Ipv4Prefix::new(0x0a00_0000 | ((id as u32) << 8), 24).to_key(),
            Priority(10 + (id as u32 % 100)),
            Action::Forward(1),
        )
    }

    fn raw_fleet(n: usize, lanes: usize) -> Fleet<RawSwitch> {
        raw_fleet_sched(n, lanes, LaneSched::Pinned)
    }

    fn raw_fleet_sched(n: usize, lanes: usize, sched: LaneSched) -> Fleet<RawSwitch> {
        let members = (0..n)
            .map(|i| (i, RawSwitch::new(SwitchModel::pica8_p3290())))
            .collect();
        Fleet::new(
            members,
            FleetConfig {
                lanes,
                seed: 7,
                sched,
                ..FleetConfig::default()
            },
        )
    }

    fn hermes_fleet(n: usize, lanes: usize) -> Fleet<HermesPlane> {
        hermes_fleet_with(
            n,
            FleetConfig {
                lanes,
                seed: 7,
                ..FleetConfig::default()
            },
        )
    }

    fn hermes_fleet_with(n: usize, config: FleetConfig) -> Fleet<HermesPlane> {
        let members = (0..n)
            .map(|i| {
                let sw =
                    HermesSwitch::new(SwitchModel::pica8_p3290(), HermesConfig::default()).unwrap();
                (i, HermesPlane::new(sw))
            })
            .collect();
        Fleet::new(members, config)
    }

    /// Two members sharing a home lane (4 members over 2 lanes must).
    fn lane_mates(f: &Fleet<RawSwitch>) -> (SwitchId, SwitchId) {
        let ids = f.switch_ids();
        for (i, a) in ids.iter().enumerate() {
            if let Some(b) = ids[i + 1..]
                .iter()
                .find(|b| f.member(**b).lane == f.member(*a).lane)
            {
                return (*a, *b);
            }
        }
        panic!("no two members share a lane");
    }

    /// Ticks every 5 ms until `sw` has resynced (at most 64 times).
    fn tick_until_up(fleet: &mut Fleet<HermesPlane>, sw: SwitchId, mut now: SimTime) -> SimTime {
        for _ in 0..64 {
            now += SimDuration::from_ms(5.0);
            fleet.tick_all(now);
            if !fleet.is_down(sw) {
                return now;
            }
        }
        panic!("member {sw} never rejoined");
    }

    #[test]
    fn zero_lanes_means_one_per_member() {
        let fleet = raw_fleet(5, 0);
        assert_eq!(fleet.lane_count(), 5);
        let mut lanes: Vec<usize> = (0..5).map(|sw| fleet.member(sw).lane).collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![0, 1, 2, 3, 4], "dedicated lane per member");
    }

    #[test]
    fn lane_assignment_is_deterministic_and_balanced() {
        let a = raw_fleet(8, 3);
        let b = raw_fleet(8, 3);
        let la: Vec<usize> = (0..8).map(|sw| a.member(sw).lane).collect();
        let lb: Vec<usize> = (0..8).map(|sw| b.member(sw).lane).collect();
        assert_eq!(la, lb, "same seed, same shuffle");
        for lane in 0..3 {
            let n = la.iter().filter(|&&l| l == lane).count();
            assert!((2..=3).contains(&n), "lane {lane} holds {n} members");
        }
    }

    #[test]
    fn single_lane_serializes_across_switches() {
        let mut fleet = raw_fleet(2, 1);
        let now = SimTime::ZERO;
        let (s0, o0, t0) = fleet.submit_after(0, &[ControlAction::Insert(rule(1))], now, &[]);
        assert_eq!(s0, now);
        assert!(o0.total > SimDuration::ZERO);
        let (s1, _, _) = fleet.submit_after(1, &[ControlAction::Insert(rule(2))], now, &[]);
        assert_eq!(s1, t0.done, "second switch waits for the shared lane");
    }

    #[test]
    fn dedicated_lanes_overlap_across_switches() {
        let mut fleet = raw_fleet(2, 0);
        let now = SimTime::ZERO;
        let (s0, _, _) = fleet.submit_after(0, &[ControlAction::Insert(rule(1))], now, &[]);
        let (s1, _, _) = fleet.submit_after(1, &[ControlAction::Insert(rule(2))], now, &[]);
        assert_eq!(s0, now);
        assert_eq!(s1, now, "different members on different lanes overlap");
    }

    #[test]
    fn dependencies_delay_dependent_cuts() {
        let mut fleet = raw_fleet(2, 0);
        let now = SimTime::ZERO;
        let (_, _, t0) = fleet.submit_after(0, &[ControlAction::Insert(rule(1))], now, &[]);
        let (s1, _, _) = fleet.submit_after(1, &[ControlAction::Insert(rule(2))], now, &[t0]);
        assert_eq!(s1, t0.done, "dependent batch starts after its dependency");
    }

    #[test]
    fn weighted_sched_fills_idle_lanes() {
        // Two members sharing a home lane under the pinned assignment:
        // back-to-back ops serialize when pinned, overlap when the
        // weighted scheduler sends the second op to the idle lane.
        let mut pinned = raw_fleet_sched(4, 2, LaneSched::Pinned);
        let (a, b) = lane_mates(&pinned);
        let now = SimTime::ZERO;
        pinned.submit(a, &[ControlAction::Insert(rule(1))], now);
        let (sp, _, _) = pinned.submit_after(b, &[ControlAction::Insert(rule(2))], now, &[]);
        assert!(sp > now, "pinned: shared home lane serializes");

        let mut weighted = raw_fleet_sched(4, 2, LaneSched::Weighted);
        weighted.submit(a, &[ControlAction::Insert(rule(1))], now);
        let (sw, _, _) = weighted.submit_after(b, &[ControlAction::Insert(rule(2))], now, &[]);
        assert_eq!(sw, now, "weighted: second op runs on the idle lane");
        assert!(
            weighted.stats().steals >= 1,
            "the off-home dispatch is a steal"
        );
    }

    #[test]
    fn sched_modes_are_identical_on_dedicated_lanes() {
        // lanes = 0 gives every member its own lane; scheduling must be a
        // no-op so the phase-1 (PR 8) timing is bit-preserved.
        let drive = |sched: LaneSched| {
            let mut fleet = raw_fleet_sched(5, 0, sched);
            let mut now = SimTime::ZERO;
            for i in 0..40u64 {
                let sw = (i as usize * 7) % 5;
                now += SimDuration::from_us(3.0);
                fleet.submit(sw, &[ControlAction::Insert(rule(i + 1))], now);
            }
            (fleet.horizon(), fleet.stats())
        };
        let pinned = drive(LaneSched::Pinned);
        let weighted = drive(LaneSched::Weighted);
        assert_eq!(pinned, weighted);
        assert_eq!(pinned.1.steals, 0);
    }

    #[test]
    fn install_path_commits_on_healthy_members() {
        let mut fleet = hermes_fleet(3, 2);
        let pieces: Vec<(SwitchId, Rule)> = (0..3).map(|sw| (sw, rule(sw as u64 + 1))).collect();
        let out = fleet.install_path(&pieces, SimTime::ZERO);
        assert!(out.committed);
        assert!(out.failed.is_empty());
        assert_eq!(out.ops.len(), 3);
        for (sw, r) in &pieces {
            assert_eq!(fleet.plane(*sw).contains_rule(r.id), Some(true));
        }
        assert!(out.ops.iter().all(|op| op.done <= out.ready));
        assert_eq!(fleet.stats().txn_commits, 1);
    }

    #[test]
    fn install_path_rolls_back_everywhere_on_a_down_member() {
        let mut fleet = hermes_fleet(3, 2);
        fleet
            .plane_mut(1)
            .inject_crash(CrashKind::Disconnect, 5, 2, SimTime::ZERO);
        assert!(fleet.is_down(1));
        let pieces: Vec<(SwitchId, Rule)> = (0..3).map(|sw| (sw, rule(sw as u64 + 1))).collect();
        let out = fleet.install_path(&pieces, SimTime::ZERO);
        assert!(!out.committed);
        assert_eq!(out.failed, vec![1]);
        for (sw, r) in &pieces {
            assert_eq!(
                fleet.plane(*sw).contains_rule(r.id),
                Some(false),
                "rollback retracts the piece on member {sw}"
            );
        }
        assert_eq!(fleet.stats().txn_rollbacks, 1);
        // The crash window eventually closes under ticks and the fleet
        // carries no rollback debt.
        tick_until_up(&mut fleet, 1, SimTime::ZERO);
        assert_eq!(fleet.pending_rollback_len(), 0);
    }

    #[test]
    fn shared_member_pieces_coalesce_into_one_cut() {
        let mut fleet = hermes_fleet(2, 1);
        let before = fleet.stats().submits;
        // Three pieces, two sharing member 0.
        let pieces = vec![(0, rule(1)), (0, rule(2)), (1, rule(3))];
        let out = fleet.install_path(&pieces, SimTime::ZERO);
        assert!(out.committed);
        assert_eq!(out.ops.len(), 3);
        let stats = fleet.stats();
        assert_eq!(
            stats.submits - before,
            2,
            "one cut per member, not per piece"
        );
        assert_eq!(
            stats.coalesced_pieces, 1,
            "the shared piece rode member 0's cut"
        );
    }

    #[test]
    fn per_piece_mode_submits_every_piece_alone() {
        let config = FleetConfig {
            lanes: 1,
            seed: 7,
            coalesce: false,
            ..FleetConfig::default()
        };
        let mut fleet = hermes_fleet_with(2, config);
        let pieces = vec![(0usize, rule(1)), (0, rule(2)), (1, rule(3))];
        let out = fleet.install_path(&pieces, SimTime::ZERO);
        assert!(out.committed);
        let stats = fleet.stats();
        assert_eq!(stats.submits, 3, "strawman mode pays one submit per piece");
        assert_eq!(stats.coalesced_pieces, 0);
        for (sw, r) in &pieces {
            assert_eq!(fleet.plane(*sw).contains_rule(r.id), Some(true));
        }
    }

    #[test]
    fn migrate_rules_moves_load_between_members() {
        let mut fleet = hermes_fleet(2, 2);
        let rules: Vec<Rule> = (1..=5).map(rule).collect();
        let inserts: Vec<ControlAction> = rules.iter().map(|r| ControlAction::Insert(*r)).collect();
        fleet.submit(0, &inserts, SimTime::ZERO);
        let out = fleet.migrate_rules(0, 1, &rules, SimTime::from_secs(1.0));
        assert!(out.committed);
        let mut now = SimTime::from_secs(1.0);
        for _ in 0..8 {
            now += SimDuration::from_ms(5.0);
            fleet.tick_all(now);
        }
        for r in &rules {
            assert_eq!(
                fleet.plane(1).contains_rule(r.id),
                Some(true),
                "landed on target"
            );
            assert_eq!(
                fleet.plane(0).contains_rule(r.id),
                Some(false),
                "cleared from source"
            );
        }
        let stats = fleet.stats();
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.rules_moved, 5);
    }

    #[test]
    fn migrate_rules_aborts_onto_a_down_target() {
        let mut fleet = hermes_fleet(2, 2);
        let rules: Vec<Rule> = (1..=3).map(rule).collect();
        let inserts: Vec<ControlAction> = rules.iter().map(|r| ControlAction::Insert(*r)).collect();
        fleet.submit(0, &inserts, SimTime::ZERO);
        fleet
            .plane_mut(1)
            .inject_crash(CrashKind::Disconnect, 5, 2, SimTime::ZERO);
        let out = fleet.migrate_rules(0, 1, &rules, SimTime::from_ms(1.0));
        assert!(!out.committed, "a down target aborts the move");
        assert_eq!(fleet.stats().migrations_aborted, 1);
        // The source keeps the load; the partial landing on the target is
        // retracted once the crash window closes.
        let mut now = tick_until_up(&mut fleet, 1, SimTime::from_ms(1.0));
        for _ in 0..8 {
            now += SimDuration::from_ms(5.0);
            fleet.tick_all(now);
        }
        for r in &rules {
            assert_eq!(
                fleet.plane(0).contains_rule(r.id),
                Some(true),
                "source untouched"
            );
            assert_eq!(
                fleet.plane(1).contains_rule(r.id),
                Some(false),
                "target retracted"
            );
        }
        assert_eq!(fleet.pending_rollback_len(), 0);
    }

    #[test]
    fn member_health_reports_backlog_and_rit() {
        let mut fleet = hermes_fleet(2, 2);
        let rules: Vec<ControlAction> = (1..=20).map(|i| ControlAction::Insert(rule(i))).collect();
        fleet.submit(0, &rules, SimTime::ZERO);
        let health = fleet.member_health(SimTime::ZERO);
        assert_eq!(health.len(), 2);
        let h0 = health.iter().find(|h| h.id == 0).unwrap();
        let h1 = health.iter().find(|h| h.id == 1).unwrap();
        assert!(h0.backlog_ns > 0, "member 0 has queued work");
        assert!(h0.mean_rit_ns > 0);
        assert!(h0.occupancy >= 20);
        assert_eq!(h1.backlog_ns, 0, "member 1 is idle");
        assert!(!h0.is_down && !h1.is_down);
    }

    #[test]
    fn end_warmup_resets_lane_horizons() {
        let mut fleet = raw_fleet(2, 1);
        fleet.submit(0, &[ControlAction::Insert(rule(1))], SimTime::ZERO);
        assert!(fleet.horizon() > SimTime::ZERO);
        fleet.end_warmup_all();
        assert_eq!(fleet.horizon(), SimTime::ZERO);
        let health = fleet.member_health(SimTime::ZERO);
        assert!(
            health.iter().all(|h| h.mean_rit_ns == 0),
            "RIT aggregates reset"
        );
    }

    #[test]
    fn raw_planes_always_commit() {
        // Raw switches expose no membership introspection and no fault
        // domain: transactions over them always commit.
        let mut fleet = raw_fleet(2, 1);
        let pieces: Vec<(SwitchId, Rule)> = (0..2).map(|sw| (sw, rule(sw as u64 + 1))).collect();
        let out = fleet.install_path(&pieces, SimTime::ZERO);
        assert!(out.committed);
        assert_eq!(fleet.occupancy(), 2);
    }
}

//! `fleet_storm` — the fleet controller under skewed load and faults.
//!
//! A `Fleet<HermesPlane>` of 20 members on 4 worker lanes (`Weighted`
//! scheduling, piece coalescing) takes a closed-loop stream of 3–4-piece
//! `install_path` transactions, 80 % of whose pieces land on a 5-member hot
//! set. A `Rebalancer` steers every transaction across three candidate
//! member slices and periodically migrates rule load off hot members; a
//! member crashes every 50 transactions; single-rule `submit` churn and
//! path teardown run in the background; `tick_all` runs every 100 sim-ms
//! (the configured Rule-Manager period) and the run ends with a quiesce.
//! Op = one path transaction, retried after the next `tick_all` until it
//! commits, so rollbacks show as wasted attempts (`fleet.commit_share`),
//! not as failed ops. `fleet` dispatch, two-phase staging/rollback,
//! rebalancing and `core` recovery/resync under faults dominate; `netsim`
//! is idle and per-switch tables stay small, so `tcam` cost is minor.

use super::{Model, RepOutcome, Scale};
use crate::probes;
use crate::recorder::{Recorder, Sp};
use crate::verify::{self, action_for, Check, Fnv64};
use hermes_baselines::{ControlPlane, HermesPlane};
use hermes_core::prelude::*;
use hermes_fleet::{Fleet, FleetConfig, LaneSched, RebalancePolicy, Rebalancer, SwitchId};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

/// Generator stream for this workload.
const STORM_STREAM_SALT: u64 = 0x464c_5453_544f_524d;
/// Fleet size.
pub const MEMBERS: usize = 20;
/// Worker lanes.
pub const LANES: usize = 4;
/// Members `0..HOT` take 80 % of the skewed slice's pieces.
pub const HOT: usize = 5;
/// Path transactions per full-size repetition.
pub const TXNS: usize = 25_000;
/// Disjoint rules preloaded per member.
const PRELOAD_PER_MEMBER: usize = 100;
/// Sim time between transactions: 100 txn/s keeps a hot member's
/// migration work near half its modeled capacity.
const TXN_SPACING_MS: f64 = 10.0;
/// `tick_all` every this many transactions (100 sim-ms).
const TICK_EVERY: usize = 10;
/// A crash every this many transactions.
const CRASH_EVERY: usize = 50;
/// A rebalancing pass every this many transactions.
const MIGRATE_EVERY: usize = 100;
/// Rules moved per planned migration.
const MIGRATE_BATCH: usize = 8;
/// Standing paths; older ones are torn down.
const LIVE_PATHS: usize = 150;
/// Standing background rules; older ones are deleted.
const LIVE_BACKGROUND: usize = 300;
/// Attempts before a transaction counts as failed.
const MAX_ATTEMPTS: u32 = 8;
/// Retry ids live far above the generated band.
const RETRY_ID_BASE: u64 = 1 << 40;

/// One path request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Candidate member slices: the first skewed to the hot set, two uniform.
    pub cands: Vec<Vec<SwitchId>>,
    /// One rule per piece.
    pub rules: Vec<Rule>,
    /// Crash injected just before the transaction.
    pub crash: Option<(SwitchId, CrashKind, u64)>,
    /// Background single-rule insert riding along.
    pub background: (SwitchId, Rule),
}

/// Generated inputs.
#[derive(Clone, Debug)]
pub struct Input {
    /// `FleetConfig::seed` (lane assignment).
    pub fleet_seed: u64,
    /// Per-member preload.
    pub preload: Vec<Vec<Rule>>,
    /// The request stream.
    pub requests: Vec<Request>,
    /// Oracle packet sample (per member, the same addresses).
    pub packets: Vec<u128>,
}

impl Input {
    /// Stable digest of every generated value.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::default();
        h.u64(self.fleet_seed);
        for r in self.preload.iter().flatten() {
            h.rule(r);
        }
        for q in &self.requests {
            for c in &q.cands {
                for sw in c {
                    h.u64(*sw as u64);
                }
            }
            for r in &q.rules {
                h.rule(r);
            }
            if let Some((sw, kind, seed)) = q.crash {
                h.u64(sw as u64);
                h.u64(crash_word(kind));
                h.u64(seed);
            }
            h.u64(q.background.0 as u64);
            h.rule(&q.background.1);
        }
        for p in &self.packets {
            h.u128(*p);
        }
        h.finish()
    }
}

fn crash_word(kind: CrashKind) -> u64 {
    match kind {
        CrashKind::Wipe => 1,
        CrashKind::Partial { .. } => 2,
        CrashKind::Disconnect => 3,
    }
}

fn churn_rule(id: u64, rng: &mut StdRng) -> Rule {
    let addr = (10u32 << 24) | rng.gen_range(0..1u32 << 24);
    let prio = 200 + rng.gen_range(0..1600u32);
    Rule::new(
        id,
        Ipv4Prefix::new(addr, 24).to_key(),
        Priority(prio),
        action_for(prio),
    )
}

/// Generates the inputs.
pub fn generate(seed: u64, scale: Scale) -> Input {
    let mut rng = StdRng::seed_from_u64(seed ^ STORM_STREAM_SALT);
    let mut next_id = 0u64;
    // Fat-tree-style preload: disjoint FIB rules across the priority band.
    let preload = (0..MEMBERS)
        .map(|_| {
            (0..PRELOAD_PER_MEMBER)
                .map(|i| {
                    let prio = 10 + ((i as u32).wrapping_mul(37)) % 1980;
                    let r = Rule::new(
                        next_id,
                        Ipv4Prefix::new((0b11u32 << 30) | ((i as u32) << 12), 24).to_key(),
                        Priority(prio),
                        action_for(prio),
                    );
                    next_id += 1;
                    r
                })
                .collect()
        })
        .collect();

    let mut crash_index = 0u64;
    let requests = (0..scale.of(TXNS, 400))
        .map(|t| {
            let crash = (t % CRASH_EVERY == CRASH_EVERY - 1).then(|| {
                let victim = if rng.gen_range(0..3u32) < 2 {
                    rng.gen_range(0..HOT)
                } else {
                    rng.gen_range(0..MEMBERS)
                };
                let kind = match crash_index % 3 {
                    0 => CrashKind::Wipe,
                    1 => CrashKind::Partial { survivor_prob: 0.5 },
                    _ => CrashKind::Disconnect,
                };
                crash_index += 1;
                (victim, kind, rng.gen::<u64>())
            });
            let span = rng.gen_range(3..=4usize);
            let skewed: Vec<SwitchId> = (0..span)
                .map(|_| {
                    if rng.gen_range(0..10u32) < 8 {
                        rng.gen_range(0..HOT)
                    } else {
                        rng.gen_range(0..MEMBERS)
                    }
                })
                .collect();
            let mut cands = vec![skewed];
            for _ in 0..2 {
                cands.push((0..span).map(|_| rng.gen_range(0..MEMBERS)).collect());
            }
            let rules = (0..span)
                .map(|_| {
                    let r = churn_rule(next_id, &mut rng);
                    next_id += 1;
                    r
                })
                .collect();
            let background = (rng.gen_range(0..MEMBERS), churn_rule(next_id, &mut rng));
            next_id += 1;
            Request {
                cands,
                rules,
                crash,
                background,
            }
        })
        .collect();
    let packets = (0..50)
        .map(|_| PacketHeader::to_dst((10u32 << 24) | rng.gen_range(0..1u32 << 24)).to_word())
        .collect();
    Input {
        fleet_seed: seed,
        preload,
        requests,
        packets,
    }
}

fn build(input: &Input) -> Fleet<HermesPlane> {
    // Admission control off (the exp_fleet precedent): the storm measures
    // dispatch, staging and recovery, and batches arrive at one instant.
    let hermes = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        ..HermesConfig::default()
    };
    let members: Vec<(SwitchId, HermesPlane)> = (0..MEMBERS)
        .map(|i| {
            let sw = HermesSwitch::new(SwitchModel::pica8_p3290(), hermes.clone())
                // INVARIANT: the default 5 ms guarantee is feasible on the Pica8 model.
                .expect("feasible config");
            (i, HermesPlane::new(sw))
        })
        .collect();
    let mut fleet = Fleet::new(
        members,
        FleetConfig {
            lanes: LANES,
            seed: input.fleet_seed,
            sched: LaneSched::Weighted,
            coalesce: true,
        },
    );
    for (sw, rules) in input.preload.iter().enumerate() {
        let batch: Vec<ControlAction> = rules.iter().map(|r| ControlAction::Insert(*r)).collect();
        let p = fleet.plane_mut(sw);
        p.apply_batch(&batch, SimTime::ZERO);
        p.tick(SimTime::ZERO);
        p.end_warmup();
        p.tick(SimTime::ZERO);
        p.end_warmup();
    }
    fleet.end_warmup_all();
    fleet
}

/// The driver's view of what the fleet should hold.
#[derive(Default)]
struct Book {
    /// Where every standing rule lives now (migrations move entries).
    location: BTreeMap<RuleId, (SwitchId, Rule)>,
    /// Committed paths, oldest first.
    paths: VecDeque<Vec<RuleId>>,
    /// Background rules, oldest first.
    background: VecDeque<RuleId>,
    /// Deletes waiting for their member to be up.
    pending_deletes: Vec<RuleId>,
    /// Requests to re-issue after the next `tick_all`: (request, attempts).
    retries: Vec<(usize, u32)>,
    next_retry_id: u64,
    failed: u64,
    attempts: u64,
}

struct Driver<'a> {
    fleet: Fleet<HermesPlane>,
    steer: Rebalancer,
    migrate: Rebalancer,
    book: Book,
    model: Model,
    input: &'a Input,
}

impl Driver<'_> {
    /// One attempt at a request: steer, then the two-phase install.
    fn attempt(&mut self, idx: usize, attempts: u32, now: SimTime, rec: &mut Recorder) {
        let req = &self.input.requests[idx];
        // A retry is a fresh transaction: new ids, so nothing collides
        // with rollback leftovers a crashed member may still hold.
        let rules: Vec<Rule> = if attempts == 0 {
            req.rules.clone()
        } else {
            req.rules
                .iter()
                .map(|r| {
                    self.book.next_retry_id += 1;
                    Rule {
                        id: RuleId(RETRY_ID_BASE + self.book.next_retry_id),
                        ..*r
                    }
                })
                .collect()
        };
        self.book.attempts += 1;
        let txn = rec.enter(Sp::FleetTxn);
        let pick = rec.time(Sp::FleetSteer, || {
            let scores = self.steer.scores(&self.fleet.member_health(now));
            self.steer.pick_slice(&req.cands, &scores)
        });
        let pieces: Vec<(SwitchId, Rule)> = req.cands[pick]
            .iter()
            .copied()
            .zip(rules.iter().copied())
            .collect();
        let out = rec.time(Sp::FleetInstallPath, || {
            self.fleet.install_path(&pieces, now)
        });
        rec.exit(txn, 1);
        if out.committed {
            for op in &out.ops {
                self.model.inserts += 1;
                self.model.violations += u64::from(op.violated);
                self.model.rit_ns.push(op.done.since(now).as_nanos());
            }
            for (sw, r) in &pieces {
                self.book.location.insert(r.id, (*sw, *r));
            }
            self.book
                .paths
                .push_back(rules.iter().map(|r| r.id).collect());
        } else if attempts + 1 >= MAX_ATTEMPTS {
            self.book.failed += 1;
        } else {
            self.book.retries.push((idx, attempts + 1));
        }
    }

    /// Issues the deletes whose member is up, grouped per member.
    fn flush_deletes(&mut self, now: SimTime, rec: &mut Recorder) {
        let mut by_member: BTreeMap<SwitchId, Vec<ControlAction>> = BTreeMap::new();
        let mut waiting = Vec::new();
        for id in std::mem::take(&mut self.book.pending_deletes) {
            match self.book.location.get(&id) {
                Some((sw, _)) if self.fleet.is_down(*sw) => waiting.push(id),
                Some((sw, _)) => by_member
                    .entry(*sw)
                    .or_default()
                    .push(ControlAction::Delete(id)),
                None => {}
            }
        }
        self.book.pending_deletes = waiting;
        for (sw, deletes) in by_member {
            rec.time(Sp::FleetSubmit, || self.fleet.submit(sw, &deletes, now));
            for d in &deletes {
                self.book.location.remove(&d.rule_id());
            }
        }
    }

    /// Retires the oldest paths and background rules beyond the caps.
    fn teardown(&mut self) {
        while self.book.paths.len() > LIVE_PATHS {
            if let Some(ids) = self.book.paths.pop_front() {
                self.book.pending_deletes.extend(ids);
            }
        }
        while self.book.background.len() > LIVE_BACKGROUND {
            if let Some(id) = self.book.background.pop_front() {
                self.book.pending_deletes.push(id);
            }
        }
    }

    /// `tick_all`, then whatever waited for it: deletes and retries.
    fn tick(&mut self, now: SimTime, rec: &mut Recorder) {
        rec.time(Sp::FleetTickAll, || self.fleet.tick_all(now));
        self.flush_deletes(now, rec);
        for (idx, attempts) in std::mem::take(&mut self.book.retries) {
            self.attempt(idx, attempts, now, rec);
        }
    }

    /// One rebalancing pass: plan on durable load, move a few standing
    /// rules off each hot member.
    fn rebalance(&mut self, now: SimTime, rec: &mut Recorder) {
        let pass = rec.enter(Sp::FleetMigrateRules);
        let plan = self.migrate.plan_moves(&self.fleet.member_health(now));
        for (hot, cold) in plan {
            let batch: Vec<Rule> = self
                .book
                .location
                .values()
                .filter(|(sw, r)| *sw == hot && !self.book.pending_deletes.contains(&r.id))
                .map(|(_, r)| *r)
                .take(MIGRATE_BATCH)
                .collect();
            if batch.is_empty() {
                continue;
            }
            if self.fleet.migrate_rules(hot, cold, &batch, now).committed {
                for r in batch {
                    self.book.location.insert(r.id, (cold, r));
                }
            }
        }
        rec.exit(pass, 1);
    }
}

/// One repetition.
pub fn run_rep(input: &Input, rec: &mut Recorder) -> RepOutcome {
    let mut out = RepOutcome::default();
    let setup = rec.enter(Sp::Setup);
    let mut d = Driver {
        fleet: build(input),
        // Steering reacts to instantaneous pressure; migration plans on
        // durable rule load alone (the exp_fleet split).
        steer: Rebalancer::new(RebalancePolicy::default()),
        migrate: Rebalancer::new(RebalancePolicy {
            backlog_us_weight: 0.0,
            rit_us_weight: 0.0,
            hot_factor: 1.1,
            ..RebalancePolicy::default()
        }),
        book: Book::default(),
        model: Model::default(),
        input,
    };
    out.setup_s = rec.exit(setup, 1) as f64 / 1e9;

    let mut now = SimTime::ZERO;
    let n = input.requests.len();
    d.model.rit_ns.reserve(4 * n);
    for kind in [Sp::FleetTxn, Sp::FleetSteer, Sp::FleetInstallPath] {
        rec.expect_calls(kind, n + n / 8);
    }
    rec.expect_calls(Sp::FleetSubmit, 4 * n);
    rec.expect_calls(Sp::FleetTickAll, n / TICK_EVERY + 256);
    // Counts cover the measured region only, not the preload.
    hermes_telemetry::reset();
    let measured = rec.enter(Sp::Measured);
    for (t, req) in input.requests.iter().enumerate() {
        now += SimDuration::from_ms(TXN_SPACING_MS);
        if let Some((victim, kind, crash_seed)) = req.crash {
            d.fleet
                .plane_mut(victim)
                .inject_crash(kind, crash_seed, 1, now);
        }
        d.attempt(t, 0, now, rec);
        let (sw, rule) = req.background;
        rec.time(Sp::FleetSubmit, || {
            d.fleet.submit(sw, &[ControlAction::Insert(rule)], now)
        });
        d.book.location.insert(rule.id, (sw, rule));
        d.book.background.push_back(rule.id);
        d.teardown();
        if t % TICK_EVERY == TICK_EVERY - 1 {
            d.tick(now, rec);
        }
        if t % MIGRATE_EVERY == MIGRATE_EVERY - 1 {
            d.rebalance(now, rec);
        }
    }
    // Quiesce: tick past the makespan until every member is clean.
    now = now.max(d.fleet.horizon());
    let mut sweeps = 0u32;
    loop {
        now += SimDuration::from_ms(5.0);
        d.tick(now, rec);
        let mut clean = d.fleet.pending_rollback_len() == 0
            && d.book.retries.is_empty()
            && d.book.pending_deletes.is_empty();
        for sw in 0..MEMBERS {
            let s = d.fleet.plane_mut(sw).switch_mut();
            let audit = rec.time(Sp::CoreAudit, || s.audit(now));
            clean &= audit.clean() && !s.is_down() && !s.is_degraded() && s.deferred_len() == 0;
        }
        sweeps += 1;
        if clean || sweeps >= 128 {
            break;
        }
    }
    out.measured_s = rec.exit(measured, 1) as f64 / 1e9;
    out.ops = input.requests.len() as u64;

    let verify = rec.enter(Sp::Verify);
    out.failed += d.book.failed;
    out.checks.push(Check::new(
        "every_path_committed",
        d.book.failed == 0,
        format!(
            "{} requests, {} attempts, {} never committed within {MAX_ATTEMPTS} attempts",
            out.ops, d.book.attempts, d.book.failed
        ),
    ));
    out.checks.push(Check::new(
        "fleet_quiesced",
        sweeps < 128 && d.fleet.pending_rollback_len() == 0,
        format!(
            "{sweeps} sweeps, {} rollback leftovers",
            d.fleet.pending_rollback_len()
        ),
    ));
    // Per-member structural checks and flat oracle, merged by check name.
    let mut expected: Vec<Vec<Rule>> = input.preload.clone();
    for (sw, r) in d.book.location.values() {
        expected[*sw].push(*r);
    }
    let mut merged: BTreeMap<&'static str, (bool, String)> = BTreeMap::new();
    for (sw, want) in expected.iter().enumerate() {
        let s = d.fleet.plane(sw).switch();
        let mut checks = Vec::new();
        out.failed += verify::switch_checks(s, want, &mut checks);
        checks.push(verify::oracle_check(s, want, &input.packets));
        for c in checks {
            let e = merged.entry(c.name).or_insert((true, String::new()));
            if !c.ok && e.0 {
                *e = (false, format!("member {sw}: {}", c.detail));
            }
        }
    }
    for (name, (ok, detail)) in merged {
        let detail = if ok {
            format!("all {MEMBERS} members")
        } else {
            detail
        };
        out.checks.push(Check::new(name, ok, detail));
    }

    let fs = d.fleet.stats();
    let sum = |f: &dyn Fn(&HermesSwitch) -> u64| -> u64 {
        d.fleet.planes().map(|(_, p)| f(p.switch())).sum()
    };
    out.digest = vec![
        ("txns", fs.txns),
        ("txn_commits", fs.txn_commits),
        ("txn_rollbacks", fs.txn_rollbacks),
        ("submits", fs.submits),
        ("ops", fs.ops),
        ("steals", fs.steals),
        ("coalesced_pieces", fs.coalesced_pieces),
        ("migrations", fs.migrations),
        ("rules_moved", fs.rules_moved),
        ("steered", d.steer.stats().steered),
        ("inserts", sum(&|s| s.stats().inserts)),
        ("violations", sum(&|s| s.stats().violations)),
        (
            "crashes_detected",
            sum(&|s| s.resync_stats().crashes_detected),
        ),
        (
            "rules_reinstalled",
            sum(&|s| s.resync_stats().rules_reinstalled),
        ),
        ("occupancy", d.fleet.occupancy() as u64),
        ("quiesce_sweeps", u64::from(sweeps)),
        ("rit_ns_sum", d.model.rit_ns.iter().sum()),
    ];
    out.model = std::mem::take(&mut d.model);
    rec.exit(verify, 1);
    out
}

/// Probes on one preloaded member: per-switch tables are small here, so
/// the prediction is that `tcam`/`rules` costs are minor next to `fleet`'s.
pub fn probes(seed: u64, scale: Scale) -> BTreeMap<&'static str, f64> {
    let input = generate(seed, scale);
    let fleet = build(&input);
    let inserts: Vec<Rule> = input
        .requests
        .iter()
        .flat_map(|q| q.rules.iter().copied())
        .collect();
    let sw = fleet.plane(0).switch();
    probes::at_switch(sw, &inserts, &input.packets)
}

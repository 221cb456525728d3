//! Cross-switch consistency oracle for the fleet controller.
//!
//! Random multi-switch workloads — background inserts/deletes, two-phase
//! path transactions (with duplicate-member pieces so per-member
//! coalescing engages), rebalance migrations, per-op fault plans and
//! injected switch crashes — driven through a [`Fleet`] of Hermes planes
//! must satisfy, once the faults clear and every member quiesces:
//!
//! 1. **Path atomicity**: every committed transaction's pieces are live on
//!    every member; every rolled-back transaction left no piece anywhere.
//! 2. **Flat equivalence**: each member's table classifies identically to
//!    a flat priority-ordered table driven in lockstep with the acked
//!    operations (the PR 5 sequential oracle, per member).
//! 3. **No parked rollbacks**: a Hermes plane drops a retracted rule from
//!    its logical view even while its session is down, so no
//!    `install_path` or `migrate_rules` leaves a rollback to re-drive, and
//!    `tick_all` never re-drives one.
//!
//! The property is quantified over both lane schedulers (pinned and
//! weighted) and both commit shapes (coalesced per-member cuts and
//! the per-piece strawman): scheduling and batching decide *when* ops run,
//! never *what* state they leave behind.

#![expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]

use hermes_baselines::{ControlPlane, HermesPlane};
use hermes_core::prelude::{HermesConfig, HermesSwitch};
use hermes_fleet::{Fleet, FleetConfig, LaneSched, SwitchId};
use hermes_rules::fields::DST_SHIFT;
use hermes_rules::prelude::*;
use hermes_tcam::{
    CrashKind, FaultPlan, LookupResult, PlacementStrategy, SimDuration, SimTime, SwitchModel,
    TcamTable,
};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

const MEMBERS: usize = 4;

fn pkt(addr: u32) -> u128 {
    (addr as u128) << DST_SHIFT
}

fn action_of(result: LookupResult) -> Option<Action> {
    match result {
        LookupResult::Matched { rule, .. } => Some(rule.action),
        _ => None,
    }
}

/// Rule whose action is a pure function of its priority (equal priority ⇒
/// equal action keeps the flat oracle unambiguous), clustered into 10/8 so
/// overlaps and partitioned rewrites are common.
fn gen_rule(rng: &mut StdRng, id: u64) -> Rule {
    let len = rng.gen_range(8..=28);
    let addr = 0x0a00_0000u32 | rng.gen_range(0..1u32 << 24);
    let prio = rng.gen_range(1..40u32);
    Rule::new(
        id,
        Ipv4Prefix::new(addr, len).to_key(),
        Priority(prio),
        Action::Forward(prio % 5 + 1),
    )
}

hermes_util::check! {
    #![cases = 256]

    fn path_txns_are_atomic_and_members_match_flat_oracle(
        workload_seed in hermes_util::check::arb::<u64>(),
        fault_seed in hermes_util::check::arb::<u64>(),
        lanes in hermes_util::check::range(1usize..5),
        sched_mode in hermes_util::check::range(0usize..2),
        coalesce_mode in hermes_util::check::range(0usize..2),
    ) {
        let mut rng = StdRng::seed_from_u64(workload_seed);
        let sched = match sched_mode {
            0 => LaneSched::Pinned,
            _ => LaneSched::Weighted,
        };
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let members: Vec<(SwitchId, HermesPlane)> = (0..MEMBERS)
            .map(|i| {
                let mut sw =
                    HermesSwitch::new(SwitchModel::pica8_p3290(), config.clone()).unwrap();
                // Per-member fault plan: write failures, silent drops,
                // latency spikes, outage windows — all seed-derived.
                sw.install_fault_plan(Some(FaultPlan::seeded(
                    fault_seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )));
                (i, HermesPlane::new(sw))
            })
            .collect();
        let mut fleet = Fleet::new(
            members,
            FleetConfig {
                lanes,
                seed: workload_seed,
                sched,
                coalesce: coalesce_mode == 0,
            },
        );

        // Per-member flat lockstep oracle of the acked operations.
        let mut oracles: Vec<TcamTable> = (0..MEMBERS)
            .map(|_| TcamTable::new(1 << 14, PlacementStrategy::PackedLow))
            .collect();
        // Background rules currently live, per member.
        let mut live: BTreeMap<SwitchId, Vec<Rule>> = BTreeMap::new();
        // Every path transaction: (pieces, committed).
        let mut txns: Vec<(Vec<(SwitchId, Rule)>, bool)> = Vec::new();

        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let mut crash_index = 0u64;
        let ops = rng.gen_range(20..60);

        for _ in 0..ops {
            now += SimDuration::from_ms(rng.gen_range(0.1..5.0));
            let roll: f64 = rng.gen();
            if roll < 0.35 {
                // Background single-rule insert on a random member.
                let sw = rng.gen_range(0..MEMBERS);
                let r = gen_rule(&mut rng, next_id);
                next_id += 1;
                fleet.submit(sw, &[ControlAction::Insert(r)], now);
                // Only acked inserts (deferred ones included) enter the
                // oracle; a permanent device failure rolled the op back.
                if fleet.plane(sw).contains_rule(r.id) == Some(true) {
                    oracles[sw].insert(r).unwrap();
                    live.entry(sw).or_default().push(r);
                }
            } else if roll < 0.5 {
                // Background delete of a live rule.
                let candidates: Vec<SwitchId> = live
                    .iter()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(sw, _)| *sw)
                    .collect();
                if let Some(&sw) = candidates.first() {
                    let rules = live.get_mut(&sw).unwrap();
                    let i = rng.gen_range(0..rules.len());
                    let r = rules.swap_remove(i);
                    fleet.submit(sw, &[ControlAction::Delete(r.id)], now);
                    if fleet.plane(sw).contains_rule(r.id) == Some(false) {
                        oracles[sw].delete(r.id).unwrap();
                    } else {
                        rules.push(r);
                    }
                }
            } else if roll < 0.78 {
                // Two-phase path transaction across a random member slice.
                // Spans beyond MEMBERS wrap around, so a single member can
                // carry several pieces of one transaction — the shape the
                // per-member coalescer folds into one cut.
                let span = rng.gen_range(2..=MEMBERS + 2);
                let first = rng.gen_range(0..MEMBERS);
                let pieces: Vec<(SwitchId, Rule)> = (0..span)
                    .map(|k| {
                        let sw = (first + k) % MEMBERS;
                        let r = gen_rule(&mut rng, next_id);
                        next_id += 1;
                        (sw, r)
                    })
                    .collect();
                let out = fleet.install_path(&pieces, now);
                assert_eq!(fleet.pending_rollback_len(), 0, "install_path parked a rollback");
                if out.committed {
                    for (sw, r) in &pieces {
                        oracles[*sw].insert(*r).unwrap();
                    }
                }
                txns.push((pieces, out.committed));
            } else if roll < 0.86 {
                // Rebalance migration: drain a batch of live background
                // rules onto another member through the batched pipeline.
                // Committed moves update both oracles; aborted moves leave
                // the source's load (and its oracle) untouched — the fleet
                // retracts the partial landing itself.
                let sources: Vec<SwitchId> = live
                    .iter()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(sw, _)| *sw)
                    .collect();
                if let Some(&from) = sources.first() {
                    let to = (from + 1 + rng.gen_range(0..MEMBERS - 1)) % MEMBERS;
                    let batch: Vec<Rule> = {
                        let rules = live.get_mut(&from).unwrap();
                        let take = rng.gen_range(1..=rules.len().min(3));
                        rules[..take].to_vec()
                    };
                    let out = fleet.migrate_rules(from, to, &batch, now);
                    assert_eq!(fleet.pending_rollback_len(), 0, "migrate_rules parked a rollback");
                    if out.committed {
                        live.get_mut(&from).unwrap().drain(..batch.len());
                        for r in &batch {
                            oracles[from].delete(r.id).unwrap();
                            oracles[to].insert(*r).unwrap();
                        }
                        live.entry(to).or_default().extend(batch);
                    }
                }
            } else if roll < 0.9 {
                // Crash a random member: wipe → partial → disconnect.
                let sw = rng.gen_range(0..MEMBERS);
                let kind = match crash_index % 3 {
                    0 => CrashKind::Wipe,
                    1 => CrashKind::Partial { survivor_prob: 0.5 },
                    _ => CrashKind::Disconnect,
                };
                fleet.plane_mut(sw).inject_crash(
                    kind,
                    fault_seed ^ crash_index.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    1,
                    now,
                );
                crash_index += 1;
            } else {
                fleet.tick_all(now);
            }
        }

        // Quiescence: faults clear; ticks drive reconnect + resync +
        // deferred drains + rollback re-drives until every member is
        // clean and the fleet carries no rollback debt.
        for sw in 0..MEMBERS {
            fleet.plane_mut(sw).switch_mut().install_fault_plan(None);
        }
        let mut converged = false;
        for _ in 0..128 {
            now += SimDuration::from_ms(5.0);
            fleet.tick_all(now);
            let mut all = fleet.pending_rollback_len() == 0;
            for sw in 0..MEMBERS {
                let s = fleet.plane_mut(sw).switch_mut();
                let clean = s.audit(now).clean();
                all = all
                    && clean
                    && !s.is_down()
                    && !s.is_degraded()
                    && s.deferred_len() == 0;
            }
            if all {
                converged = true;
                break;
            }
        }
        assert!(converged, "fleet failed to quiesce after faults cleared");
        assert_eq!(fleet.stats().rollback_retries, 0, "no rollback was re-driven");

        // 1. Path atomicity: committed ⇒ live everywhere; aborted ⇒
        //    nowhere.
        for (pieces, committed) in &txns {
            for (sw, r) in pieces {
                assert_eq!(
                    fleet.plane(*sw).contains_rule(r.id),
                    Some(*committed),
                    "txn piece {:?} on member {sw}: committed={committed}",
                    r.id
                );
            }
        }

        // 2. Flat equivalence per member: membership and classification.
        for (sw, oracle) in oracles.iter().enumerate() {
            let hermes = fleet.plane(sw).switch();
            assert_eq!(hermes.intent_len(), hermes.logical_len());
            for i in 0..256u32 {
                let p = pkt(0x0a00_0000 | (i.wrapping_mul(2654435761) % (1 << 24)));
                assert_eq!(
                    action_of(hermes.peek(p)),
                    oracle.peek(p).map(|r| r.action),
                    "member {sw}: divergence on sprayed packet {i}"
                );
            }
        }
    }
}

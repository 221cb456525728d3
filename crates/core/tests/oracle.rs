//! The §4 correctness guarantee, checked mechanically.
//!
//! "The two tables maintained by Hermes will behave in an identical manner
//! as a single monolithic table."
//!
//! A reference monolithic TCAM is driven in lockstep with a `HermesSwitch`
//! through randomized insert/delete/modify/migrate interleavings; after
//! every control-plane action the two are compared on a packet sample.
//!
//! One caveat inherited from OpenFlow itself: the behaviour of overlapping
//! *same-priority* rules with different actions is undefined even in a
//! single table, so the generator ties each action to its rule's priority
//! (equal priority ⇒ equal action), making the oracle deterministic.

#![expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]

use hermes_core::prelude::*;
use hermes_rules::fields::DST_SHIFT;
use hermes_rules::prelude::*;
use hermes_tcam::{LookupResult, PlacementStrategy, SimDuration, SimTime, SwitchModel, TcamTable};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};

/// The monolithic reference: one big priority-ordered table.
struct Oracle {
    table: TcamTable,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            table: TcamTable::new(1 << 16, PlacementStrategy::PackedLow),
        }
    }

    fn apply(&mut self, action: &ControlAction) {
        match action {
            ControlAction::Insert(r) => {
                self.table.insert(*r).expect("oracle insert");
            }
            ControlAction::Delete(id) => {
                self.table.delete(*id).expect("oracle delete");
            }
            ControlAction::Modify {
                id,
                action,
                priority,
            } => {
                if let Some(p) = priority {
                    let old = *self.table.get(*id).expect("oracle modify target");
                    self.table.delete(*id).unwrap();
                    let mut new_rule = old;
                    new_rule.priority = *p;
                    if let Some(a) = action {
                        new_rule.action = *a;
                    }
                    self.table.insert(new_rule).unwrap();
                } else if let Some(a) = action {
                    self.table.modify_action(*id, *a).unwrap();
                }
            }
        }
    }

    fn classify(&self, pkt: u128) -> Option<Action> {
        self.table.peek(pkt).map(|r| r.action)
    }
}

fn hermes_action(result: LookupResult) -> Option<Action> {
    match result {
        LookupResult::Matched { rule, .. } => Some(rule.action),
        _ => None,
    }
}

fn pkt(addr: u32) -> u128 {
    (addr as u128) << DST_SHIFT
}

/// Compares Hermes against the oracle on a packet sample.
fn assert_equivalent(hermes: &HermesSwitch, oracle: &Oracle, samples: &[u128], ctx: &str) {
    for &p in samples {
        let h = hermes_action(hermes.peek(p));
        let o = oracle.classify(p);
        assert_eq!(h, o, "{ctx}: divergence on packet {p:#034x}");
    }
}

/// Generates a rule whose action is a pure function of its priority so the
/// oracle is deterministic (see module docs).
fn gen_rule(rng: &mut StdRng, id: u64) -> Rule {
    let len = rng.gen_range(8..=28);
    // Cluster addresses into a /6 so overlaps are common.
    let addr = 0x0a00_0000u32 | rng.gen_range(0..1u32 << 24);
    let prio = rng.gen_range(1..40u32);
    Rule::new(
        id,
        Ipv4Prefix::new(addr, len).to_key(),
        Priority(prio),
        Action::Forward(prio % 5 + 1),
    )
}

fn sample_packets(rng: &mut StdRng, n: usize) -> Vec<u128> {
    (0..n)
        .map(|_| pkt(0x0a00_0000u32 | rng.gen_range(0..1u32 << 24)))
        .collect()
}

fn run_lockstep(seed: u64, ops: usize, model: SwitchModel, trigger: MigrationTrigger) {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        trigger,
        ..Default::default()
    };
    let mut hermes = HermesSwitch::new(model, config).unwrap();
    let mut oracle = Oracle::new();
    let samples = sample_packets(&mut rng, 300);

    let mut live: Vec<Rule> = Vec::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;

    for step in 0..ops {
        now += SimDuration::from_ms(rng.gen_range(0.1..5.0));
        let roll: f64 = rng.gen();
        let action = if live.is_empty() || roll < 0.55 {
            let r = gen_rule(&mut rng, next_id);
            next_id += 1;
            live.push(r);
            ControlAction::Insert(r)
        } else if roll < 0.8 {
            let i = rng.gen_range(0..live.len());
            let r = live.swap_remove(i);
            ControlAction::Delete(r.id)
        } else {
            let i = rng.gen_range(0..live.len());
            let r = &mut live[i];
            if rng.gen_bool(0.5) {
                // Action change consistent with the priority↔action tie.
                let a = Action::Forward(r.priority.0 % 5 + 1);
                r.action = a;
                ControlAction::Modify {
                    id: r.id,
                    action: Some(a),
                    priority: None,
                }
            } else {
                let p = Priority(rng.gen_range(1..40));
                r.priority = p;
                r.action = Action::Forward(p.0 % 5 + 1);
                ControlAction::Modify {
                    id: r.id,
                    action: Some(r.action),
                    priority: Some(p),
                }
            }
        };
        hermes.submit(&action, now).expect("hermes op");
        oracle.apply(&action);
        assert_equivalent(
            &hermes,
            &oracle,
            &samples,
            &format!("step {step} after {action:?}"),
        );

        // Periodic Rule Manager tick.
        if step % 7 == 0 {
            hermes.tick(now);
            assert_equivalent(
                &hermes,
                &oracle,
                &samples,
                &format!("step {step} after tick"),
            );
        }
        // Occasional forced migration.
        if step % 97 == 96 {
            hermes.migrate(now);
            assert_equivalent(
                &hermes,
                &oracle,
                &samples,
                &format!("step {step} after migrate"),
            );
        }
    }

    // Final sweep with fresh packets.
    let fresh = sample_packets(&mut rng, 500);
    assert_equivalent(&hermes, &oracle, &fresh, "final");
}

#[test]
fn lockstep_pica8_predictive() {
    run_lockstep(
        1,
        600,
        SwitchModel::pica8_p3290(),
        MigrationTrigger::default(),
    );
}

#[test]
fn lockstep_dell_predictive() {
    run_lockstep(
        2,
        600,
        SwitchModel::dell_8132f(),
        MigrationTrigger::default(),
    );
}

#[test]
fn lockstep_hp_threshold() {
    run_lockstep(
        3,
        600,
        SwitchModel::hp_5406zl(),
        MigrationTrigger::Threshold { fraction: 0.5 },
    );
}

#[test]
fn lockstep_threshold_zero_constant_migration() {
    run_lockstep(
        4,
        400,
        SwitchModel::pica8_p3290(),
        MigrationTrigger::Threshold { fraction: 0.0 },
    );
}

// Satellite oracle: random whole rule *sets* (not op sequences) pushed
// through Hermes — shadow routing, main-table migration and partitioned
// rewrites included — must classify identically to one flat
// priority-ordered table holding the same rules verbatim.
hermes_util::check! {
    #![cases = 256]

    fn random_rule_sets_match_flat_table(
        rules in hermes_util::check::vec_of(
            hermes_util::check::zip3(
                hermes_util::check::arb::<u32>(),
                hermes_util::check::range(8u8..=28),
                hermes_util::check::range(1u32..40),
            ),
            1..48,
        ),
        migrate_every in hermes_util::check::range(1usize..8),
    ) {
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
        let mut flat = TcamTable::new(1 << 14, PlacementStrategy::PackedLow);
        let mut now = SimTime::ZERO;

        for (i, (bits, len, prio)) in rules.iter().enumerate() {
            // Cluster into 10/8 so rules overlap and partitioning kicks in;
            // tie action to priority so the flat table is unambiguous.
            let addr = 0x0a00_0000u32 | (bits >> 8);
            let r = Rule::new(
                i as u64,
                Ipv4Prefix::new(addr, *len).to_key(),
                Priority(*prio),
                Action::Forward(prio % 5 + 1),
            );
            now += SimDuration::from_ms(1.0);
            hermes.insert(r, now).unwrap();
            flat.insert(r).unwrap();
            if i % migrate_every == migrate_every - 1 {
                hermes.migrate(now);
            }
        }

        // Probe inside every rule plus a deterministic spray of addresses.
        for (i, (bits, len, _)) in rules.iter().enumerate() {
            let addr = (0x0a00_0000u32 | (bits >> 8)) & (u32::MAX << (32 - *len as u32));
            let p = pkt(addr | (i as u32 & 0x3f));
            assert_eq!(
                hermes_action(hermes.peek(p)),
                flat.peek(p).map(|r| r.action),
                "divergence inside rule {i}"
            );
        }
        for i in 0..256u32 {
            let p = pkt(0x0a00_0000 | (i.wrapping_mul(2654435761) % (1 << 24)));
            assert_eq!(
                hermes_action(hermes.peek(p)),
                flat.peek(p).map(|r| r.action),
                "divergence on sprayed packet {i}"
            );
        }
    }
}

// Chaos oracle: random workloads driven under random fault plans — write
// failures, silent-drop acks, latency spikes, outage windows — must, once
// the faults clear and the reconciliation audit converges, classify
// identically to a flat priority-ordered table holding the logically-live
// rules. Ops the agent *reported failed* are excluded from the logical
// view (the controller knows they failed); everything it acked — including
// acks the device silently dropped — must survive.
hermes_util::check! {
    #![cases = 256]

    fn chaos_recovers_to_flat_oracle(
        workload_seed in hermes_util::check::arb::<u64>(),
        fault_seed in hermes_util::check::arb::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(workload_seed);
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
        hermes.install_fault_plan(Some(hermes_tcam::FaultPlan::seeded(fault_seed)));
        let mut oracle = TcamTable::new(1 << 14, PlacementStrategy::PackedLow);
        let mut live: Vec<Rule> = Vec::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let ops = rng.gen_range(30..120);

        for step in 0..ops {
            now += SimDuration::from_ms(rng.gen_range(0.1..5.0));
            let roll: f64 = rng.gen();
            if live.is_empty() || roll < 0.6 {
                let r = gen_rule(&mut rng, next_id);
                next_id += 1;
                // A permanent device failure means the insert never became
                // logically live (partial installs roll back); only acked
                // inserts — deferred ones included — enter the oracle.
                if hermes.insert(r, now).is_ok() {
                    oracle.insert(r).unwrap();
                    live.push(r);
                }
            } else if roll < 0.85 {
                let i = rng.gen_range(0..live.len());
                let r = live.swap_remove(i);
                if hermes.delete(r.id, now).is_ok() {
                    oracle.delete(r.id).unwrap();
                } else {
                    live.push(r);
                }
            } else {
                let i = rng.gen_range(0..live.len());
                let r = &mut live[i];
                // Priority↔action tie as in the lockstep oracle (equal
                // priority ⇒ equal action keeps the flat table unambiguous).
                let p = Priority(rng.gen_range(1..40));
                r.priority = p;
                r.action = Action::Forward(p.0 % 5 + 1);
                let action = ControlAction::Modify {
                    id: r.id,
                    action: Some(r.action),
                    priority: Some(p),
                };
                if hermes.submit(&action, now).is_ok() {
                    let old = *oracle.get(r.id).unwrap();
                    oracle.delete(r.id).unwrap();
                    let mut new_rule = old;
                    new_rule.priority = p;
                    new_rule.action = r.action;
                    oracle.insert(new_rule).unwrap();
                }
            }
            if step % 9 == 8 {
                hermes.tick(now);
            }
            if step % 31 == 30 {
                hermes.migrate(now);
            }
        }

        // Quiescence: the faults clear; the audit must converge to a clean
        // sweep (bounded — one repair pass plus one verification pass is
        // the norm, the slack absorbs pathological plans).
        hermes.install_fault_plan(None);
        let mut converged = false;
        for _ in 0..16 {
            now += SimDuration::from_ms(5.0);
            if hermes.audit(now).clean() {
                converged = true;
                break;
            }
        }
        assert!(converged, "audit failed to converge after faults cleared");

        // Every logically-live rule is still known to the agent…
        for r in &live {
            assert!(hermes.contains(r.id), "acked rule {:?} lost", r.id);
        }
        // …and classification matches the flat table on a deterministic
        // spray over the 10/8 the generator clusters rules into.
        for i in 0..512u32 {
            let p = pkt(0x0a00_0000 | (i.wrapping_mul(2654435761) % (1 << 24)));
            assert_eq!(
                hermes_action(hermes.peek(p)),
                oracle.peek(p).map(|r| r.action),
                "divergence on sprayed packet {i} after recovery"
            );
        }
    }
}

// Crash-chaos oracle: random workloads under *crash-class* fault plans —
// full TCAM wipes, partial state retention, control-session disconnects,
// layered on top of the per-op fault mix — must, once the plan clears and
// the resync engine re-establishes the guarantee, classify identically to
// a flat table of the logically-live rules. Convergence here is stronger
// than the per-op chaos oracle: the Gate Keeper must have exited degraded
// mode and drained every deferred admission.
hermes_util::check! {
    #![cases = 256]

    fn chaos_crash_recovers_to_flat_oracle(
        workload_seed in hermes_util::check::arb::<u64>(),
        crash_seed in hermes_util::check::arb::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(workload_seed);
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
        let mut plan = hermes_tcam::FaultPlan::crashy(crash_seed);
        // Crash often enough that nearly every run reboots at least once
        // (the workload issues a few hundred device ops).
        plan.crash_period = 15 + (crash_seed % 20);
        hermes.install_fault_plan(Some(plan));
        let mut oracle = TcamTable::new(1 << 14, PlacementStrategy::PackedLow);
        let mut live: Vec<Rule> = Vec::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;
        let ops = rng.gen_range(30..120);

        for step in 0..ops {
            now += SimDuration::from_ms(rng.gen_range(0.1..5.0));
            let roll: f64 = rng.gen();
            if live.is_empty() || roll < 0.6 {
                let r = gen_rule(&mut rng, next_id);
                next_id += 1;
                if hermes.insert(r, now).is_ok() {
                    oracle.insert(r).unwrap();
                    live.push(r);
                }
            } else if roll < 0.85 {
                let i = rng.gen_range(0..live.len());
                let r = live.swap_remove(i);
                if hermes.delete(r.id, now).is_ok() {
                    oracle.delete(r.id).unwrap();
                } else {
                    live.push(r);
                }
            } else {
                let i = rng.gen_range(0..live.len());
                let r = &mut live[i];
                let p = Priority(rng.gen_range(1..40));
                r.priority = p;
                r.action = Action::Forward(p.0 % 5 + 1);
                let action = ControlAction::Modify {
                    id: r.id,
                    action: Some(r.action),
                    priority: Some(p),
                };
                if hermes.submit(&action, now).is_ok() {
                    let old = *oracle.get(r.id).unwrap();
                    oracle.delete(r.id).unwrap();
                    let mut new_rule = old;
                    new_rule.priority = p;
                    new_rule.action = r.action;
                    oracle.insert(new_rule).unwrap();
                }
            }
            if step % 9 == 8 {
                hermes.tick(now);
            }
            if step % 31 == 30 {
                hermes.migrate(now);
            }
        }

        // Quiescence: no further faults or crashes. The audit loop drives
        // resync (reconnect → journal → diff replay → re-admission) until
        // a sweep certifies the device AND the guarantee is formally
        // re-established: not degraded, nothing deferred, window closed.
        hermes.install_fault_plan(None);
        let mut converged = false;
        for _ in 0..16 {
            now += SimDuration::from_ms(5.0);
            if hermes.audit(now).clean()
                && !hermes.is_down()
                && !hermes.is_degraded()
                && hermes.deferred_len() == 0
            {
                converged = true;
                break;
            }
        }
        assert!(converged, "resync failed to re-establish the guarantee");
        if hermes.resync_stats().crashes_detected > 0 {
            assert!(
                hermes.resync_stats().resyncs_completed > 0,
                "a detected crash must complete at least one resync"
            );
        }
        // No logical rule is booked in both the shadow and the main index.
        assert_eq!(hermes.intent_len(), hermes.logical_len());

        for r in &live {
            assert!(hermes.contains(r.id), "acked rule {:?} lost", r.id);
        }
        for i in 0..512u32 {
            let p = pkt(0x0a00_0000 | (i.wrapping_mul(2654435761) % (1 << 24)));
            assert_eq!(
                hermes_action(hermes.peek(p)),
                oracle.peek(p).map(|r| r.action),
                "divergence on sprayed packet {i} after crash resync"
            );
        }
    }
}

/// Same fault seed + same workload ⇒ byte-identical metrics document: the
/// whole chaos pipeline (fault decisions, retry jitter, audit repairs) is
/// deterministic, so failures reproduce from `HERMES_FAULT_SEED` alone.
#[test]
fn chaos_run_is_deterministic_from_seed() {
    let run = |fault_seed: u64| -> String {
        let mut rng = StdRng::seed_from_u64(11);
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
        hermes.install_fault_plan(Some(hermes_tcam::FaultPlan::seeded(fault_seed)));
        let mut live: Vec<RuleId> = Vec::new();
        let mut now = SimTime::ZERO;
        for id in 0..300u64 {
            now += SimDuration::from_ms(1.0);
            let r = gen_rule(&mut rng, id);
            if hermes.insert(r, now).is_ok() {
                live.push(r.id);
            }
            if id % 5 == 4 && !live.is_empty() {
                let victim = live.swap_remove((id as usize / 5) % live.len());
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "INVARIANT: the test compares two runs by their fault and recovery counters, which count a failed delete too"
                )]
                let _ = hermes.delete(victim, now);
            }
            if id % 11 == 10 {
                hermes.tick(now);
            }
        }
        let fault = hermes.fault_stats().expect("plan installed");
        for _ in 0..16 {
            now += SimDuration::from_ms(5.0);
            if hermes.audit(now).clean() {
                break;
            }
        }
        let rec = hermes.recovery_stats();
        use hermes_util::json::{Json, ToJson};
        Json::obj([
            ("ops_seen", fault.ops_seen.to_json()),
            ("write_failures", fault.write_failures.to_json()),
            ("silent_drops", fault.silent_drops.to_json()),
            ("latency_spikes", fault.latency_spikes.to_json()),
            ("outage_rejections", fault.outage_rejections.to_json()),
            ("retries", rec.retries.to_json()),
            ("permanent_failures", rec.permanent_failures.to_json()),
            ("rollbacks", rec.rollbacks.to_json()),
            ("journal_replays", rec.journal_replays.to_json()),
            ("audit_diffs", rec.audit_diffs.to_json()),
            ("reinstalled", rec.reinstalled.to_json()),
            ("orphans_removed", rec.orphans_removed.to_json()),
            ("degraded_entries", rec.degraded_entries.to_json()),
            ("degraded_ns", rec.degraded_ns.to_json()),
            ("shadow_len", (hermes.shadow_len() as u64).to_json()),
            ("main_len", (hermes.main_len() as u64).to_json()),
        ])
        .to_string()
    };
    let a = run(0xC0FFEE);
    let b = run(0xC0FFEE);
    assert_eq!(a, b, "same seed + plan must reproduce byte-for-byte");
    let c = run(0xDECAF);
    assert_ne!(a, c, "different fault seeds should diverge");
}

/// The Fig. 6 scenario, directed: a redundant rule must resurface when the
/// main-table rule that subsumed it is deleted.
#[test]
fn redundant_rule_resurfaces_after_subsumer_deleted() {
    // Disable the §4.2 lowest-priority bypass so the narrow rule takes the
    // shadow path and exercises the redundancy machinery.
    let config = HermesConfig {
        low_priority_bypass: false,
        ..Default::default()
    };
    let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let now = SimTime::ZERO;

    // Wide high-priority rule, migrated into the main table.
    let wide: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
    let wide_rule = Rule::new(1, wide.to_key(), Priority(10), Action::Forward(1));
    hermes.insert(wide_rule, now).unwrap();
    hermes.migrate(now);
    assert_eq!(hermes.main_len(), 1);

    // Narrow lower-priority rule: wholly subsumed → redundant.
    let narrow: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
    let narrow_rule = Rule::new(2, narrow.to_key(), Priority(5), Action::Forward(2));
    let rep = hermes.insert(narrow_rule, now).unwrap();
    assert_eq!(rep.route(), Some(Route::Redundant));
    assert_eq!(hermes.shadow_len(), 0, "redundant rule installs nothing");

    let probe = pkt(u32::from_be_bytes([10, 1, 2, 3]));
    assert_eq!(hermes_action(hermes.peek(probe)), Some(Action::Forward(1)));

    // Delete the subsumer: the narrow rule must take over (Fig. 6).
    hermes.delete(RuleId(1), now).unwrap();
    assert_eq!(hermes_action(hermes.peek(probe)), Some(Action::Forward(2)));
    // Outside the narrow prefix nothing matches now.
    let outside = pkt(u32::from_be_bytes([10, 2, 2, 3]));
    assert_eq!(hermes_action(hermes.peek(outside)), None);
}

/// The Fig. 4 walkthrough as an end-to-end test.
#[test]
fn figure4_walkthrough() {
    // Disable the §4.2 bypass: the /24 is the lowest-priority rule and
    // would otherwise legitimately go straight to the main table.
    let config = HermesConfig {
        low_priority_bypass: false,
        ..Default::default()
    };
    let mut hermes = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let now = SimTime::ZERO;

    // Higher-priority /26 → port 1, migrated to main.
    let hi: Ipv4Prefix = "192.168.1.0/26".parse().unwrap();
    hermes
        .insert(
            Rule::new(1, hi.to_key(), Priority(10), Action::Forward(1)),
            now,
        )
        .unwrap();
    hermes.migrate(now);

    // Lower-priority /24 → port 2 arrives: must be partitioned.
    let lo: Ipv4Prefix = "192.168.1.0/24".parse().unwrap();
    let rep = hermes
        .insert(
            Rule::new(2, lo.to_key(), Priority(1), Action::Forward(2)),
            now,
        )
        .unwrap();
    match rep.detail {
        ReportDetail::Insert { route, pieces, .. } => {
            assert_eq!(route, Route::Shadow);
            assert_eq!(pieces, 2, "the /24 splits into .64/26 and .128/25");
        }
        other => panic!("unexpected detail {other:?}"),
    }

    // 192.168.1.5 is inside the /26: port 1 despite the shadow-first lookup.
    assert_eq!(
        hermes_action(hermes.peek(pkt(u32::from_be_bytes([192, 168, 1, 5])))),
        Some(Action::Forward(1))
    );
    // 192.168.1.200 is outside the /26: port 2.
    assert_eq!(
        hermes_action(hermes.peek(pkt(u32::from_be_bytes([192, 168, 1, 200])))),
        Some(Action::Forward(2))
    );
}

//! Directed crash/resync scenarios: wipe, partial retention, disconnect,
//! reconnect denial, warm vs cold reboot, and the intent store's
//! checkpoint discipline (the randomized counterpart lives in the
//! `oracle` chaos properties) — plus the resync diff against the
//! `BTreeMap` version it replaced, kept here as [`reference`].

use hermes_core::prelude::*;
use hermes_core::resync::{plan_slice, SlicePlan};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, FaultPlan, SimDuration, SimTime, SwitchModel};
use hermes_util::check::{arb, range};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};
use std::collections::BTreeMap;

fn rule(id: u64, third: u32, prio: u32) -> Rule {
    let p: Ipv4Prefix = format!("10.{}.{}.0/24", id % 200, third % 250).parse().unwrap();
    Rule::new(id, p.to_key(), Priority(prio), Action::Forward(prio % 5 + 1))
}

fn loaded_switch(config: HermesConfig, n: u64) -> (HermesSwitch, SimTime) {
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let mut now = SimTime::ZERO;
    for id in 0..n {
        now += SimDuration::from_ms(2.0);
        sw.insert(rule(id, id as u32, 1 + (id as u32 % 30)), now)
            .unwrap();
        if id % 8 == 7 {
            sw.tick(now);
        }
    }
    (sw, now)
}

#[test]
fn wipe_crash_warm_resync_restores_the_table() {
    let (mut sw, mut now) = loaded_switch(HermesConfig::default(), 40);
    let before = sw.logical_len();
    assert_eq!(sw.intent_len(), before);

    sw.inject_crash(CrashKind::Wipe, 1, 0, now);
    assert!(sw.is_down());
    assert!(sw.is_degraded(), "a crash forces degraded mode immediately");
    assert_eq!(sw.shadow_len() + sw.main_len(), 0, "wipe empties the TCAM");

    // Admissions during the window queue instead of hammering the dead
    // session.
    now += SimDuration::from_ms(1.0);
    let rep = sw.insert(rule(900, 3, 7), now).unwrap();
    assert_eq!(rep.route(), Some(Route::Deferred));

    now += SimDuration::from_ms(5.0);
    sw.tick(now);
    assert!(!sw.is_down(), "tick drives resync to completion");
    assert!(!sw.is_degraded());
    assert_eq!(sw.deferred_len(), 0, "deferred admissions drained");
    let stats = sw.resync_stats();
    assert_eq!(stats.crashes_detected, 1);
    assert_eq!(stats.resyncs_completed, 1);
    assert_eq!(stats.warm_resyncs, 1);
    assert!(stats.rules_reinstalled as usize >= before);
    assert_eq!(sw.logical_len(), before + 1);
    assert_eq!(sw.intent_len(), sw.logical_len());
    for id in 0..40u64 {
        assert!(sw.contains(RuleId(id)), "rule {id} lost in the wipe");
    }
    now += SimDuration::from_ms(5.0);
    assert!(sw.audit(now).clean(), "post-resync audit certifies the device");
}

#[test]
fn partial_crash_warm_resync_keeps_survivors() {
    let (mut sw, mut now) = loaded_switch(HermesConfig::default(), 40);
    let physical_before = sw.shadow_len() + sw.main_len();

    sw.inject_crash(
        CrashKind::Partial {
            survivor_prob: 0.6,
        },
        7,
        0,
        now,
    );
    let physical_after = sw.shadow_len() + sw.main_len();
    assert!(physical_after < physical_before, "partial crash loses entries");
    assert!(physical_after > 0, "but a survivor subset remains");

    now += SimDuration::from_ms(5.0);
    let report = sw.resync(now).expect("crash window open");
    assert!(report.complete);
    assert_eq!(report.survivors, physical_after, "warm mode keeps survivors");
    assert_eq!(
        report.reinstalled,
        physical_before - physical_after,
        "warm mode reinstalls exactly the lost entries"
    );
    assert!(sw.resync_stats().survivors_kept > 0);
    now += SimDuration::from_ms(5.0);
    assert!(sw.audit(now).clean());
}

#[test]
fn cold_reboot_reinstalls_everything_from_the_intent_store() {
    let config = HermesConfig {
        resync: ResyncPolicy {
            mode: ResyncMode::Cold,
            ..ResyncPolicy::default()
        },
        ..Default::default()
    };
    let (mut sw, mut now) = loaded_switch(config, 40);
    let before = sw.logical_len();

    // Even a state-preserving disconnect is distrusted in cold mode.
    sw.inject_crash(CrashKind::Disconnect, 0, 0, now);
    now += SimDuration::from_ms(5.0);
    let report = sw.resync(now).expect("crash window open");
    assert!(report.complete);
    assert_eq!(report.survivors, 0, "cold mode keeps nothing in place");
    assert_eq!(report.reinstalled, before);
    assert_eq!(sw.resync_stats().cold_resyncs, 1);
    assert_eq!(sw.shadow_len(), 0, "cold reboot restarts with an empty shadow");
    assert_eq!(sw.main_len(), before);
    assert_eq!(sw.intent_len(), sw.logical_len());
    now += SimDuration::from_ms(5.0);
    assert!(sw.audit(now).clean());
}

#[test]
fn reconnect_denials_back_off_and_eventually_reconnect() {
    let (mut sw, mut now) = loaded_switch(HermesConfig::default(), 10);
    sw.inject_crash(CrashKind::Disconnect, 0, 2, now);
    now += SimDuration::from_ms(5.0);
    let report = sw.resync(now).expect("crash window open");
    assert!(report.complete);
    assert_eq!(
        report.reconnect_attempts, 3,
        "two denials, then the third attempt lands"
    );
    assert!(report.duration >= SimDuration::from_ms(3.0), "backoff charged");
}

#[test]
fn reconnect_denied_past_budget_retries_on_later_passes() {
    let config = HermesConfig {
        resync: ResyncPolicy {
            max_reconnect_attempts: 3,
            ..ResyncPolicy::default()
        },
        ..Default::default()
    };
    let (mut sw, mut now) = loaded_switch(config, 10);
    sw.inject_crash(CrashKind::Wipe, 1, 5, now);

    now += SimDuration::from_ms(5.0);
    let first = sw.resync(now).expect("crash window open");
    assert!(!first.complete, "five denials outlast a three-attempt budget");
    assert!(sw.is_down());
    assert_eq!(sw.resync_stats().reconnect_failures, 1);

    // The audit heartbeat keeps retrying; the remaining denials drain.
    let mut converged = false;
    for _ in 0..4 {
        now += SimDuration::from_ms(5.0);
        if sw.audit(now).clean() && !sw.is_down() {
            converged = true;
            break;
        }
    }
    assert!(converged, "later passes reconnect and rebuild");
    assert_eq!(sw.resync_stats().resyncs_completed, 1);
    for id in 0..10u64 {
        assert!(sw.contains(RuleId(id)));
    }
}

#[test]
fn armed_crash_plan_is_detected_through_failing_ops() {
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), HermesConfig::default()).unwrap();
    let mut plan = FaultPlan::quiet(3);
    plan.crash_period = 5;
    plan.crash_wipe_prob = 1.0;
    sw.install_fault_plan(Some(plan));

    let mut now = SimTime::ZERO;
    let mut failures = 0;
    for id in 0..20u64 {
        now += SimDuration::from_ms(2.0);
        if sw.insert(rule(id, id as u32, 5), now).is_err() {
            failures += 1;
        }
    }
    assert!(failures > 0, "the planned crash surfaces as a failed op");
    assert!(sw.resync_stats().crashes_detected > 0);

    sw.install_fault_plan(None);
    let mut clean = false;
    for _ in 0..8 {
        now += SimDuration::from_ms(5.0);
        if sw.audit(now).clean() && !sw.is_down() && sw.deferred_len() == 0 {
            clean = true;
            break;
        }
    }
    assert!(clean, "quiesced audits converge after planned crashes");
    assert_eq!(sw.intent_len(), sw.logical_len());
}

#[test]
fn intent_store_checkpoints_bound_the_journal() {
    let config = HermesConfig {
        resync: ResyncPolicy {
            checkpoint_interval: 16,
            ..ResyncPolicy::default()
        },
        ..Default::default()
    };
    let (mut sw, mut now) = loaded_switch(config, 60);
    for id in 0..20u64 {
        now += SimDuration::from_ms(1.0);
        sw.delete(RuleId(id), now).unwrap();
    }
    assert!(
        sw.intent_journal_depth() < 16,
        "the journal folds into the checkpoint at the interval"
    );
    assert_eq!(sw.intent_len(), sw.logical_len());

    // The compacted store still rebuilds the exact table after a crash.
    sw.inject_crash(CrashKind::Wipe, 9, 0, now);
    now += SimDuration::from_ms(5.0);
    assert!(sw.resync(now).expect("crash window open").complete);
    assert_eq!(sw.logical_len(), 40);
    for id in 20..60u64 {
        assert!(sw.contains(RuleId(id)));
    }
}

/// `plan_slice` as it stood before the merge-join: a `BTreeMap` lookup per
/// device entry, a `BTreeSet` of the healthy ones, then three sorts.
mod reference {
    use super::*;
    use std::collections::BTreeSet;

    pub fn plan_slice(expected: &BTreeMap<RuleId, Rule>, actual: &[Rule]) -> SlicePlan {
        let mut plan = SlicePlan::default();
        let mut healthy: BTreeSet<RuleId> = BTreeSet::new();
        for dev_rule in actual {
            match expected.get(&dev_rule.id) {
                None => plan.deletes.push(dev_rule.id),
                Some(want) if want.priority != dev_rule.priority || want.key != dev_rule.key => {
                    plan.deletes.push(dev_rule.id);
                }
                Some(want) if want.action != dev_rule.action => {
                    plan.fixes.push((dev_rule.id, want.action));
                    healthy.insert(dev_rule.id);
                    plan.survivors += 1;
                }
                Some(_) => {
                    healthy.insert(dev_rule.id);
                    plan.survivors += 1;
                }
            }
        }
        plan.installs = expected
            .values()
            .filter(|r| !healthy.contains(&r.id))
            .copied()
            .collect();
        plan.deletes.sort_unstable_by_key(|id| id.0);
        plan.fixes.sort_unstable_by_key(|(id, _)| id.0);
        plan.installs.sort_unstable_by_key(|r| r.id.0);
        plan
    }
}

const DIFF_STREAM_SALT: u64 = 0x5245_5359_4e43_4446;

hermes_util::check! {
    #![cases = 256]

    /// The merge-join diff plans exactly what the `BTreeMap` version did,
    /// ids ascending in all three lists: expected rules that survived
    /// intact, drifted in action, priority or key, or were lost, device
    /// orphans, either side empty, and the device side in any order.
    fn plan_slice_matches_btreemap_reference(
        seed in arb::<u64>(),
        n_expected in range(0usize..60),
        n_orphans in range(0usize..12),
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ DIFF_STREAM_SALT);
        let expected: BTreeMap<RuleId, Rule> = (0..n_expected)
            .map(|_| {
                let id = rng.gen_range(0..100u64);
                (RuleId(id), rule(id, rng.gen_range(0..250u32), rng.gen_range(1..40u32)))
            })
            .collect();
        let mut actual: Vec<Rule> = Vec::new();
        for want in expected.values() {
            let mut dev = *want;
            match rng.gen_range(0..6u32) {
                0 => continue, // lost in the crash
                1 => dev.action = Action::Drop,
                2 => dev.priority = Priority(want.priority.0 + 1),
                3 => dev.key = rule(want.id.0, rng.gen_range(0..250u32), 1).key,
                _ => {}
            }
            actual.push(dev);
        }
        for _ in 0..n_orphans {
            let id = rng.gen_range(100..200u64);
            if actual.iter().all(|r| r.id.0 != id) {
                actual.push(rule(id, rng.gen_range(0..250u32), rng.gen_range(1..40u32)));
            }
        }
        rng.shuffle(&mut actual);
        let sorted: Vec<Rule> = expected.values().copied().collect();
        let plan = plan_slice(&sorted, &actual);
        assert_eq!(plan, reference::plan_slice(&expected, &actual));
        let ascending = |ids: Vec<RuleId>| ids.windows(2).all(|w| w[0] < w[1]);
        assert!(ascending(plan.deletes.clone()));
        assert!(ascending(plan.fixes.iter().map(|f| f.0).collect()));
        assert!(ascending(plan.installs.iter().map(|r| r.id).collect()));
    }
}

//! Directed coverage of HermesSwitch's less-travelled paths: eviction
//! fallbacks, incremental narrowing, error surfaces, modification
//! variants, Equation-2 accounting and warm-up resets.

use hermes_core::gatekeeper::Route;
use hermes_core::prelude::*;
use hermes_rules::fields::DST_SHIFT;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};

fn rule(id: u64, pfx: &str, prio: u32, port: u32) -> Rule {
    let p: Ipv4Prefix = pfx.parse().unwrap();
    Rule::new(id, p.to_key(), Priority(prio), Action::Forward(port))
}

fn pkt(addr: &str) -> u128 {
    let p: Ipv4Prefix = format!("{addr}/32").parse().unwrap();
    (p.addr() as u128) << DST_SHIFT
}

fn switch() -> HermesSwitch {
    let config = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        low_priority_bypass: false,
        ..Default::default()
    };
    HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap()
}

#[test]
fn error_surfaces() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    // Id out of the logical range.
    let bad = rule(1 << 62, "10.0.0.0/8", 5, 1);
    assert_eq!(sw.insert(bad, now), Err(HermesError::IdOutOfRange(bad.id)));
    // Duplicate id.
    sw.insert(rule(1, "10.0.0.0/8", 5, 1), now).unwrap();
    assert_eq!(
        sw.insert(rule(1, "11.0.0.0/8", 5, 1), now),
        Err(HermesError::Duplicate(RuleId(1)))
    );
    // Unknown deletes and modifies.
    assert_eq!(
        sw.delete(RuleId(404), now),
        Err(HermesError::NotFound(RuleId(404)))
    );
    assert_eq!(
        sw.modify(RuleId(404), Some(Action::Drop), None, now),
        Err(HermesError::NotFound(RuleId(404)))
    );
}

#[test]
fn modify_with_no_changes_is_cheap_noop() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    sw.insert(rule(1, "10.0.0.0/8", 5, 1), now).unwrap();
    let rep = sw.modify(RuleId(1), None, None, now).unwrap();
    assert!(rep.latency < SimDuration::from_ms(0.1));
    assert_eq!(sw.get(RuleId(1)).unwrap().action, Action::Forward(1));
}

#[test]
fn modify_same_priority_is_in_place() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    sw.insert(rule(1, "10.0.0.0/8", 5, 1), now).unwrap();
    // Passing the *same* priority value must not trigger delete+insert.
    let rep = sw
        .modify(RuleId(1), Some(Action::Drop), Some(Priority(5)), now)
        .unwrap();
    match rep.detail {
        ReportDetail::Modify { in_place } => assert!(in_place),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(sw.get(RuleId(1)).unwrap().action, Action::Drop);
}

#[test]
fn action_modify_rewrites_every_partition_piece() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    // Higher-priority main rule to force a cut.
    sw.insert(rule(1, "10.0.0.0/26", 50, 1), now).unwrap();
    sw.migrate(now);
    let rep = sw.insert(rule(2, "10.0.0.0/24", 5, 2), now).unwrap();
    assert!(matches!(
        rep.detail,
        ReportDetail::Insert {
            route: Route::Shadow,
            pieces: 2,
            ..
        }
    ));
    sw.modify(RuleId(2), Some(Action::Forward(9)), None, now)
        .unwrap();
    // Both pieces answer with the new action.
    assert_eq!(
        sw.peek(pkt("10.0.0.100")).rule().unwrap().action,
        Action::Forward(9)
    );
    assert_eq!(
        sw.peek(pkt("10.0.0.200")).rule().unwrap().action,
        Action::Forward(9)
    );
    // The cut-out region still answers with the main rule.
    assert_eq!(
        sw.peek(pkt("10.0.0.5")).rule().unwrap().action,
        Action::Forward(1)
    );
}

#[test]
fn narrowing_on_direct_main_insert() {
    // A shadow rule must shrink when a higher-priority overlapping rule
    // lands directly in the main table (over-rate path).
    let config = HermesConfig {
        rate_limit: Some(0.000001), // bucket empties immediately
        low_priority_bypass: false,
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let now = SimTime::ZERO;
    // First insert goes to shadow.
    let r1 = sw.insert(rule(1, "10.0.0.0/24", 5, 1), now).unwrap();
    assert_eq!(r1.route(), Some(Route::Shadow));
    // Exhaust the admission bucket with disjoint fillers.
    for i in 0..100u64 {
        sw.insert(rule(100 + i, &format!("42.{}.0.0/16", i), 10, 3), now)
            .unwrap();
    }
    // Now a higher-priority rule overlapping rule 1 arrives over-rate → main.
    let r2 = sw.insert(rule(2, "10.0.0.0/26", 50, 2), now).unwrap();
    assert_eq!(r2.route(), Some(Route::MainOverRate));
    // The narrow region must now answer with the main rule.
    assert_eq!(
        sw.peek(pkt("10.0.0.5")).rule().unwrap().action,
        Action::Forward(2)
    );
    assert_eq!(
        sw.peek(pkt("10.0.0.200")).rule().unwrap().action,
        Action::Forward(1)
    );
}

#[test]
fn eviction_when_shadow_cannot_hold_partitions() {
    // A tiny shadow forces the repartition fallback: the rule moves to the
    // main table and stays semantically correct.
    let config = HermesConfig {
        shadow_size: Some(3),
        rate_limit: Some(f64::INFINITY),
        low_priority_bypass: false,
        max_partitions: 3,
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let now = SimTime::ZERO;
    // Wide low-priority rule in shadow (fits: 1 piece).
    sw.insert(rule(1, "10.0.0.0/16", 5, 1), now).unwrap();
    // Two higher-priority punctures land in main (each over the shadow's
    // piece budget when cut, or directly): force narrowing until eviction.
    for (i, pfx) in ["10.0.1.0/24", "10.0.2.0/24", "10.0.3.0/24"]
        .iter()
        .enumerate()
    {
        let _ = sw.insert(rule(10 + i as u64, pfx, 50, 9), now);
        sw.migrate(now);
    }
    // Semantics regardless of where rule 1 ended up.
    assert_eq!(
        sw.peek(pkt("10.0.1.7")).rule().unwrap().action,
        Action::Forward(9)
    );
    assert_eq!(
        sw.peek(pkt("10.0.9.7")).rule().unwrap().action,
        Action::Forward(1)
    );
    assert!(sw.contains(RuleId(1)));
}

#[test]
fn logical_accessors_and_eq2_accounting() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    assert_eq!(sw.logical_len(), 0);
    sw.insert(rule(1, "10.0.0.0/8", 5, 1), now).unwrap();
    sw.insert(rule(2, "11.0.0.0/8", 6, 1), now).unwrap();
    assert_eq!(sw.logical_len(), 2);
    assert_eq!(sw.logical_rules().len(), 2);
    assert!(sw.max_supported_rate() > 0.0);
    assert!(sw.overhead_fraction() > 0.0 && sw.overhead_fraction() <= 0.5);
    // r_p starts at 1 with uncut rules.
    assert!((sw.stats().expected_partitions() - 1.0).abs() < 1e-9);
    sw.migrate(now);
    assert_eq!(sw.logical_len(), 2);
    assert_eq!(sw.shadow_len(), 0);
    assert_eq!(sw.main_len(), 2);
}

#[test]
fn end_warmup_refills_admission() {
    let config = HermesConfig {
        rate_limit: Some(10.0),
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
    let now = SimTime::ZERO;
    // Drain the bucket.
    let mut over_rate = 0;
    for i in 0..100u64 {
        let rep = sw
            .insert(rule(i, &format!("10.{}.0.0/16", i), 5 + i as u32, 1), now)
            .unwrap();
        if rep.route() == Some(Route::MainOverRate) {
            over_rate += 1;
        }
    }
    assert!(over_rate > 0, "bucket should have drained");
    sw.end_warmup();
    let rep = sw.insert(rule(1000, "99.0.0.0/8", 5000, 1), now).unwrap();
    assert_eq!(
        rep.route(),
        Some(Route::Shadow),
        "bucket refilled after warmup"
    );
}

#[test]
fn set_predicate_changes_routing() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    sw.set_predicate(RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap()));
    let in_scope = sw.insert(rule(1, "10.1.0.0/16", 5, 1), now).unwrap();
    let out_scope = sw.insert(rule(2, "42.0.0.0/8", 5, 1), now).unwrap();
    assert_eq!(in_scope.route(), Some(Route::Shadow));
    assert_eq!(out_scope.route(), Some(Route::MainUnmatched));
}

#[test]
fn priority_change_preserves_logical_identity_and_semantics() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    sw.insert(rule(1, "10.0.0.0/24", 5, 1), now).unwrap();
    sw.insert(rule(2, "10.0.0.0/26", 9, 2), now).unwrap();
    // Overlap region answers with rule 2 (higher priority).
    assert_eq!(sw.peek(pkt("10.0.0.5")).rule().unwrap().id, RuleId(2));
    // Flip the priorities via modification.
    sw.modify(RuleId(1), None, Some(Priority(20)), now).unwrap();
    assert_eq!(sw.peek(pkt("10.0.0.5")).rule().unwrap().id, RuleId(1));
    assert_eq!(sw.get(RuleId(1)).unwrap().priority, Priority(20));
    assert_eq!(sw.logical_len(), 2);
}

#[test]
fn admit_batch_matches_sequential_inserts() {
    let mut batched = switch();
    let mut seq = switch();
    let now = SimTime::ZERO;
    // A main-resident blocker so one batch member gets cut.
    for sw in [&mut batched, &mut seq] {
        sw.insert(rule(1, "10.0.0.0/26", 50, 1), now).unwrap();
        sw.migrate(now);
    }
    let batch = vec![
        rule(2, "10.0.0.0/24", 5, 2), // cut against rule 1
        rule(3, "11.0.0.0/8", 6, 3),  // intact
        rule(4, "12.0.0.0/8", 7, 4),  // intact
    ];
    let breps = batched.admit_batch(&batch, now);
    let sreps: Vec<_> = batch.iter().map(|r| seq.insert(*r, now)).collect();
    let mut btotal = SimDuration::ZERO;
    let mut stotal = SimDuration::ZERO;
    for (b, s) in breps.iter().zip(&sreps) {
        let b = b.as_ref().unwrap();
        let s = s.as_ref().unwrap();
        assert_eq!(b.route(), s.route(), "routes diverge");
        btotal += b.latency;
        stotal += s.latency;
    }
    assert!(
        btotal < stotal,
        "batch must amortize the handshake: {btotal} vs {stotal}"
    );
    assert_eq!(batched.logical_len(), seq.logical_len());
    assert_eq!(batched.shadow_len(), seq.shadow_len());
    assert_eq!(batched.main_len(), seq.main_len());
    for addr in ["10.0.0.5", "10.0.0.200", "11.1.2.3", "12.1.2.3", "9.9.9.9"] {
        assert_eq!(
            batched.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            seq.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            "lookup diverged at {addr}"
        );
    }
}

#[test]
fn admit_batch_validates_per_slot() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    sw.insert(rule(1, "10.0.0.0/8", 5, 1), now).unwrap();
    let batch = vec![
        rule(1, "11.0.0.0/8", 5, 1),       // already installed
        rule(2, "12.0.0.0/8", 6, 1),       // fine
        rule(2, "13.0.0.0/8", 7, 1),       // intra-batch duplicate
        rule(1 << 62, "14.0.0.0/8", 8, 1), // id out of the logical range
    ];
    let reps = sw.admit_batch(&batch, now);
    assert_eq!(reps[0], Err(HermesError::Duplicate(RuleId(1))));
    assert!(reps[1].is_ok());
    assert_eq!(reps[2], Err(HermesError::Duplicate(RuleId(2))));
    assert!(matches!(reps[3], Err(HermesError::IdOutOfRange(_))));
    assert_eq!(sw.logical_len(), 2);
}

#[test]
fn admit_batch_flushes_before_main_landings() {
    // A mid-batch rule routed to the main table must see the earlier
    // shadow-bound rules fully installed (the Fig. 6 re-cut depends on
    // it). MainUnmatched via a narrowed predicate provides the divert.
    let mut sw = switch();
    sw.set_predicate(RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap()));
    let now = SimTime::ZERO;
    let batch = vec![
        rule(1, "10.1.0.0/24", 5, 1),  // shadow-bound
        rule(2, "10.1.0.0/26", 50, 2), // shadow-bound, higher priority
        rule(3, "42.0.0.0/8", 99, 3),  // unmatched → main, flushes first
        rule(4, "10.2.0.0/16", 7, 4),  // second shadow transaction
    ];
    let reps = sw.admit_batch(&batch, now);
    assert_eq!(reps[0].as_ref().unwrap().route(), Some(Route::Shadow));
    assert_eq!(reps[2].as_ref().unwrap().route(), Some(Route::MainUnmatched));
    assert_eq!(reps[3].as_ref().unwrap().route(), Some(Route::Shadow));
    assert_eq!(sw.logical_len(), 4);
    // Overlap region answers with the higher-priority rule 2.
    assert_eq!(sw.peek(pkt("10.1.0.5")).rule().unwrap().id, RuleId(2));
    assert_eq!(sw.peek(pkt("10.1.0.200")).rule().unwrap().id, RuleId(1));
    assert_eq!(sw.peek(pkt("42.1.2.3")).rule().unwrap().id, RuleId(3));
}

/// The highest-priority logical rule matching `packet` — the answer a
/// flat priority-ordered table holding the same rules would give.
fn flat_winner(sw: &HermesSwitch, packet: u128) -> Option<(RuleId, Action)> {
    sw.logical_rules()
        .into_iter()
        .filter(|r| r.key.matches(packet))
        .max_by_key(|r| r.priority)
        .map(|r| (r.id, r.action))
}

/// A switch with `main_room` free main-table entries whose shadow holds
/// rule 2, cut into two pieces against main rule 1, and `intact` uncut
/// rules 10.. at ascending priorities 20.. .
fn switch_with_shadow_residents(main_room: usize, intact: u64) -> HermesSwitch {
    let config = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        low_priority_bypass: false,
        shadow_size: Some(12),
        ..Default::default()
    };
    // Main rules besides the blocker: enough that the 12-entry shadow
    // stays under the constructor's half-the-TCAM cap.
    let filler = 11;
    let model = SwitchModel {
        capacity: 12 + 1 + filler + main_room,
        ..SwitchModel::pica8_p3290()
    };
    let mut sw = HermesSwitch::new(model, config).unwrap();
    let now = SimTime::ZERO;
    sw.insert(rule(1, "10.0.0.0/26", 50, 1), now).unwrap();
    sw.migrate(now);
    for i in 0..filler as u64 {
        sw.insert(rule(100 + i, &format!("{}.0.0.0/8", 100 + i), 60, 9), now)
            .unwrap();
        sw.migrate(now);
    }
    assert_eq!((sw.shadow_len(), sw.main_len()), (0, 1 + filler));
    sw.insert(rule(2, "10.0.0.0/24", 5, 2), now).unwrap();
    for i in 0..intact {
        sw.insert(
            rule(10 + i, &format!("2{i}.0.0.0/8"), 20 + i as u32, 3),
            now,
        )
        .unwrap();
    }
    assert_eq!(sw.shadow_len() as u64, 2 + intact, "rule 2 is cut in two");
    sw
}

const MIGRATION_PROBES: [&str; 10] = [
    "10.0.0.5",
    "10.0.0.200",
    "20.1.2.3",
    "21.1.2.3",
    "22.1.2.3",
    "23.1.2.3",
    "24.1.2.3",
    "25.1.2.3",
    "26.1.2.3",
    "9.9.9.9",
];

#[test]
fn batched_drain_empties_the_shadow_in_two_transactions() {
    let mut sw = switch_with_shadow_residents(8, 7);
    let main_before = sw.main_len();
    let rep = sw.migrate(SimTime::ZERO);
    assert_eq!(rep.rules_migrated, 8);
    assert_eq!(rep.entries_written, 8);
    assert_eq!(rep.pieces_deleted, 9);
    assert_eq!(rep.entries_saved, 1);
    assert_eq!(sw.shadow_len(), 0);
    assert_eq!(sw.main_len(), main_before + 8);
    for addr in MIGRATION_PROBES {
        assert_eq!(
            sw.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            flat_winner(&sw, pkt(addr)),
            "lookup diverged from the flat table at {addr}"
        );
    }
}

#[test]
fn full_main_table_retargets_migration_to_the_per_rule_pass() {
    // Room for k = 5 of the N = 8 residents: the insert batch rejects
    // `Full`, and the per-rule pass must move exactly the five
    // lowest-priority rules (ascending priority keeps the cut invariant)
    // and leave the rest in the shadow.
    let mut tight = switch_with_shadow_residents(5, 7);
    let main_before = tight.main_len();
    let rep = tight.migrate(SimTime::ZERO);
    assert_eq!(rep.rules_migrated, 5);
    assert_eq!(rep.entries_written, 5);
    assert_eq!(rep.pieces_deleted, 6, "two of rule 2, one each of 10..=13");
    assert_eq!(rep.entries_saved, 1);
    assert_eq!(tight.main_len(), main_before + 5);
    assert_eq!(tight.shadow_len(), 3);
    assert_eq!(tight.logical_len(), 20);
    let in_main = |sw: &HermesSwitch, id: u64| {
        sw.device()
            .slice(MAIN)
            .table
            .entries()
            .iter()
            .any(|r| r.id == RuleId(id))
    };
    for id in [2, 10, 11, 12, 13] {
        assert!(in_main(&tight, id), "rule {id} must have migrated");
    }
    for id in [14, 15, 16] {
        assert!(!in_main(&tight, id), "rule {id} must stay in the shadow");
        assert!(tight.contains(RuleId(id)));
    }
    for addr in MIGRATION_PROBES {
        assert_eq!(
            tight.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            flat_winner(&tight, pkt(addr)),
            "lookup diverged from the flat table at {addr}"
        );
    }

    // A twin holding only those five residents drains them through the
    // two batched transactions: same accounting, same resulting main
    // table, and the handshake the per-rule pass paid per op amortized.
    let mut twin = switch_with_shadow_residents(5, 4);
    let batched = twin.migrate(SimTime::ZERO);
    assert_eq!(batched.rules_migrated, rep.rules_migrated);
    assert_eq!(batched.entries_written, rep.entries_written);
    assert_eq!(batched.pieces_deleted, rep.pieces_deleted);
    assert_eq!(batched.entries_saved, rep.entries_saved);
    assert_eq!(twin.shadow_len(), 0);
    assert_eq!(twin.main_len(), tight.main_len());
    assert!(
        batched.duration < rep.duration,
        "batched drain must amortize the handshake: {} vs {}",
        batched.duration,
        rep.duration
    );
    for addr in ["10.0.0.5", "10.0.0.200", "20.1.2.3", "23.1.2.3", "9.9.9.9"] {
        assert_eq!(
            twin.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            tight.peek(pkt(addr)).rule().map(|r| (r.id, r.action)),
            "lookup diverged at {addr}"
        );
    }
}

#[test]
fn migration_report_accounts_for_optimization() {
    let mut sw = switch();
    let now = SimTime::ZERO;
    // A main rule that forces cuts.
    sw.insert(rule(1, "10.0.0.0/25", 50, 1), now).unwrap();
    sw.migrate(now);
    // A rule that splits into 1+ pieces.
    sw.insert(rule(2, "10.0.0.0/24", 5, 2), now).unwrap();
    let report = sw.migrate(now);
    assert_eq!(report.rules_migrated, 1);
    assert_eq!(
        report.entries_written, 1,
        "the original replaces its pieces"
    );
    assert!(report.pieces_deleted >= 1);
    assert!(report.duration > SimDuration::ZERO);
}

//! The fleet's one retraction path, through all three of its callers in
//! one scenario: a rolled-back `install_path` and an aborted
//! `migrate_rules` onto a member that goes down mid-transaction park the
//! same leftovers, `tick_all` keeps them parked while the member is down
//! and retires them once it has resynced.
//!
//! `HermesPlane` retracts a rule's intent even while its session is down,
//! so it never leaves anything to park; the member here is the other kind
//! of plane the fleet has to tolerate — one that refuses everything while
//! down and still reports what it holds.

use hermes_baselines::{BatchOutcome, ControlPlane};
use hermes_fleet::{Fleet, FleetConfig, SwitchId};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime};
use std::collections::BTreeSet;

/// A member that applies inserts and deletes to a set, goes down after a
/// set number of further actions — mid-batch if that is where the count
/// runs out — refuses everything while down, and resyncs (state intact)
/// after a set number of ticks.
#[derive(Default)]
struct Flaky {
    rules: BTreeSet<RuleId>,
    /// Actions still accepted before the session drops (`None`: healthy).
    crash_after: Option<usize>,
    /// Ticks until a dropped session is back (`0`: up).
    down_ticks: u32,
}

impl ControlPlane for Flaky {
    fn name(&self) -> String {
        "flaky".into()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], _now: SimTime) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for action in actions {
            if self.crash_after == Some(0) {
                self.crash_after = None;
                self.down_ticks = 3;
            }
            if self.is_down() {
                out.push(action.rule_id(), BatchOutcome::REJECTION_COST, false);
                continue;
            }
            match action {
                ControlAction::Insert(r) => self.rules.insert(r.id),
                ControlAction::Delete(id) => self.rules.remove(id),
                ControlAction::Modify { .. } => true,
            };
            self.crash_after = self.crash_after.map(|n| n - 1);
            out.push(action.rule_id(), SimDuration::from_us(100.0), false);
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.rules.len()
    }

    fn tick(&mut self, _now: SimTime) {
        self.down_ticks = self.down_ticks.saturating_sub(1);
    }

    fn is_down(&self) -> bool {
        self.down_ticks > 0
    }

    fn contains_rule(&self, id: RuleId) -> Option<bool> {
        Some(self.rules.contains(&id))
    }
}

fn rule(id: u64) -> Rule {
    let key = Ipv4Prefix::new(0x0a00_0000 | ((id as u32) << 8), 24).to_key();
    Rule::new(id, key, Priority(10), Action::Forward(1))
}

/// Three members; member 1 takes two more actions, then drops its session.
fn fleet(coalesce: bool) -> Fleet<Flaky> {
    let members = (0..3usize)
        .map(|i| {
            let crash_after = (i == 1).then_some(2);
            (
                i,
                Flaky {
                    crash_after,
                    ..Flaky::default()
                },
            )
        })
        .collect();
    Fleet::new(
        members,
        FleetConfig {
            lanes: 2,
            seed: 7,
            coalesce,
            ..FleetConfig::default()
        },
    )
}

/// What member 1 still holds of rules 2..=4.
fn held(fleet: &Fleet<Flaky>) -> Vec<u64> {
    (2..=4)
        .filter(|id| fleet.plane(1).contains_rule(RuleId(*id)) == Some(true))
        .collect()
}

/// Ticks until the parked leftovers are gone; returns how many ticks the
/// fleet kept them parked because member 1 was still down.
fn drain(fleet: &mut Fleet<Flaky>, mut now: SimTime) -> u32 {
    let mut parked_ticks = 0;
    while fleet.pending_rollback_len() > 0 {
        assert!(parked_ticks < 8, "leftovers never retired");
        now += SimDuration::from_ms(5.0);
        fleet.tick_all(now);
        if fleet.is_down(1) {
            assert_eq!(
                fleet.pending_rollback_len(),
                2,
                "still down: both stay parked"
            );
            assert_eq!(
                fleet.stats().rollback_retries,
                0,
                "no delete is re-driven at a down member"
            );
            parked_ticks += 1;
        }
    }
    parked_ticks
}

#[test]
fn rollback_abort_and_redrive_share_one_retraction_path() {
    for coalesce in [true, false] {
        let now = SimTime::from_ms(1.0);

        // Caller 1: `install_path` rolls back. Member 1 takes rules 2 and
        // 3, drops its session before rule 4, and refuses the rollback's
        // deletes — 2 and 3 are parked; members 0 and 2 retract cleanly.
        let mut txn = fleet(coalesce);
        let pieces: Vec<(SwitchId, Rule)> = vec![
            (0, rule(1)),
            (1, rule(2)),
            (1, rule(3)),
            (1, rule(4)),
            (2, rule(5)),
        ];
        let out = txn.install_path(&pieces, now);
        assert!(!out.committed);
        assert_eq!(out.failed, vec![1]);
        assert!(out.ops.iter().all(|op| op.done <= out.ready));
        assert_eq!(txn.plane(0).occupancy() + txn.plane(2).occupancy(), 0);

        // Caller 2: `migrate_rules` aborts. The same three rules move
        // from member 0 onto the same flaky target.
        let mut mig = fleet(coalesce);
        let moved: Vec<Rule> = (2..=4).map(rule).collect();
        let inserts: Vec<ControlAction> = moved.iter().map(|r| ControlAction::Insert(*r)).collect();
        mig.submit(0, &inserts, SimTime::ZERO);
        let out = mig.migrate_rules(0, 1, &moved, now);
        assert!(
            !out.committed,
            "a target that drops mid-cut aborts the move"
        );
        assert_eq!(mig.plane(0).occupancy(), 3, "the source keeps the load");

        // Both parked the same leftovers…
        assert_eq!(held(&txn), vec![2, 3]);
        assert_eq!(held(&mig), held(&txn));
        assert_eq!(mig.pending_rollback_len(), txn.pending_rollback_len());
        assert_eq!(txn.pending_rollback_len(), 2);

        // …and caller 3, `tick_all`, re-parks them while member 1 is down
        // and retires them with one re-driven cut once it has resynced.
        for f in [&mut txn, &mut mig] {
            assert_eq!(
                drain(f, now),
                2,
                "down for three ticks: parked twice, retired on the third"
            );
            assert_eq!(held(f), Vec::<u64>::new());
            assert_eq!(f.stats().rollback_retries, 2);
        }
    }
}

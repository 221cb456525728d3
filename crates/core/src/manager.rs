//! The Rule Manager's migration *policy* (§5).
//!
//! The Rule Manager decides **when** to migrate rules out of the shadow
//! table. The paper's design uses a predictive trigger — estimate the next
//! interval's rule arrivals, inflate by a corrector, and migrate if the
//! shadow would overflow — and compares it against the naive threshold
//! trigger (Hermes-SIMPLE, §8.5). The migration *mechanics* (what actually
//! moves, in which order, with which consistency protocol) live in
//! [`switch`](crate::switch).

use crate::config::MigrationTrigger;
use crate::predict::{Corrector, Predictor};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime};

/// Outcome of one migration pass (Fig. 7's four-step workflow).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Logical rules moved from shadow to main.
    pub rules_migrated: usize,
    /// TCAM entries written into the main table.
    pub entries_written: usize,
    /// Shadow-table entries (partition pieces) deleted.
    pub pieces_deleted: usize,
    /// Entries saved by the optimization step (partition pieces collapsed
    /// back into their original rules — the §5.2 step-2 rewrite).
    pub entries_saved: usize,
    /// Total simulated time the migration occupied the control plane.
    pub duration: SimDuration,
    /// How long the data-plane pipeline was stalled
    /// ([`MigrationMode::PauseAndSwap`](crate::config::MigrationMode) only;
    /// zero for the incremental protocol).
    pub pipeline_paused: SimDuration,
}

/// A whole migration pass planned up front: the shadow drain expressed as
/// two device transactions (main-table inserts, then shadow piece
/// deletes) instead of one op per rule. The plan preserves the Algorithm-1
/// cut invariant by construction — rules are ordered ascending by
/// priority, FIFO among equals, exactly like the per-rule pass — and the
/// make-before-break property holds batch-wise: every main insert lands
/// (or the whole pass aborts) before any shadow piece is released.
#[derive(Clone, Debug, Default)]
pub struct MigrationPlan {
    /// Logical rules in migration order (ascending priority, FIFO among
    /// equals).
    pub order: Vec<RuleId>,
    /// One main-table insert (the original, un-cut rule) per logical rule,
    /// in `order` — the §5.2 step-2 optimization rewrite.
    pub inserts: Vec<Rule>,
    /// Every shadow piece the pass releases, grouped by owner in `order`.
    pub piece_deletes: Vec<RuleId>,
    /// Entries saved by the optimization step (pieces collapsed back into
    /// originals).
    pub entries_saved: usize,
}

/// The migration-trigger state machine.
pub struct RuleManager {
    trigger: MigrationTrigger,
    predictor: Option<Box<dyn Predictor>>,
    corrector: Corrector,
    /// Insert arrivals since the last tick (the predictor's observable).
    arrivals: u64,
    /// The control plane is busy migrating until this instant; a new
    /// migration cannot start before then (this is what bounds the
    /// sustainable insertion rate, Equation 1).
    pub busy_until: SimTime,
    /// Lifetime number of migrations triggered.
    pub migrations: u64,
}

impl std::fmt::Debug for RuleManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleManager")
            .field("trigger", &self.trigger)
            .field("arrivals", &self.arrivals)
            .field("busy_until", &self.busy_until)
            .field("migrations", &self.migrations)
            .finish_non_exhaustive()
    }
}

impl RuleManager {
    /// Builds the manager for a trigger policy.
    pub fn new(trigger: MigrationTrigger) -> Self {
        let (predictor, corrector) = match trigger {
            MigrationTrigger::Predictive {
                predictor,
                corrector,
            } => (Some(predictor.build()), corrector),
            MigrationTrigger::Threshold { .. } => (None, Corrector::None),
        };
        RuleManager {
            trigger,
            predictor,
            corrector,
            arrivals: 0,
            busy_until: SimTime::ZERO,
            migrations: 0,
        }
    }

    /// Notes one rule arrival (called by the Gate Keeper path).
    pub fn record_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// `true` while a migration is still draining.
    pub fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// Threshold-mode inline check (evaluated after every insert, since
    /// Hermes-SIMPLE has no notion of prediction windows).
    pub fn wants_migration_inline(&self, shadow_len: usize, shadow_cap: usize) -> bool {
        match self.trigger {
            MigrationTrigger::Threshold { fraction } => {
                shadow_len as f64 >= fraction * shadow_cap as f64 && shadow_len > 0
            }
            MigrationTrigger::Predictive { .. } => false,
        }
    }

    /// Periodic tick: feeds the predictor and decides whether to migrate.
    ///
    /// `expected_partitions` is the running estimate of TCAM entries per
    /// logical rule (`r_p` of Equation 2): predicted arrivals are scaled by
    /// it because each arrival may install several shadow entries.
    pub fn on_tick(
        &mut self,
        now: SimTime,
        shadow_len: usize,
        shadow_cap: usize,
        expected_partitions: f64,
    ) -> bool {
        let arrived = std::mem::take(&mut self.arrivals) as f64;
        if self.is_busy(now) {
            // Still draining: keep the predictor fed but don't re-trigger.
            if let Some(p) = &mut self.predictor {
                p.observe(arrived);
            }
            return false;
        }
        match self.trigger {
            MigrationTrigger::Threshold { fraction } => {
                shadow_len as f64 >= fraction * shadow_cap as f64 && shadow_len > 0
            }
            MigrationTrigger::Predictive { .. } => {
                // INVARIANT: `RuleManager::new` constructs `predictor` as
                // `Some` exactly when the trigger is `Predictive`, and
                // neither field is reassigned afterwards.
                let predictor = self.predictor.as_mut().expect("predictive trigger");
                predictor.observe(arrived);
                let predicted = self.corrector.apply(predictor.predict());
                let projected = shadow_len as f64 + predicted * expected_partitions.max(1.0);
                // Migrate when the projection overflows, or as a safety net
                // when the shadow is nearly full regardless of prediction.
                (projected >= shadow_cap as f64 && shadow_len > 0)
                    || shadow_len as f64 >= 0.9 * shadow_cap as f64
            }
        }
    }

    /// Marks a migration as started, blocking re-trigger until it drains.
    pub fn migration_started(&mut self, now: SimTime, duration: SimDuration) {
        self.busy_until = now + duration;
        self.migrations += 1;
    }

    /// Plans one whole migration pass over the current shadow residents —
    /// `(original rule, its installed piece ids)` pairs — sorted into the
    /// cut-invariant-safe order (ascending priority, FIFO among equals;
    /// the input order is the FIFO order).
    pub fn plan_migration_batch(&self, rules: &[(Rule, Vec<RuleId>)]) -> MigrationPlan {
        let mut items: Vec<&(Rule, Vec<RuleId>)> = rules.iter().collect();
        // Stable sort: equal priorities keep their shadow-arrival order.
        items.sort_by_key(|(r, _)| r.priority);
        let mut plan = MigrationPlan::default();
        for (rule, pieces) in items {
            plan.order.push(rule.id);
            plan.inserts.push(*rule);
            plan.entries_saved += pieces.len().saturating_sub(1);
            plan.piece_deletes.extend(pieces.iter().copied());
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::PredictorKind;

    fn predictive(corrector: Corrector) -> RuleManager {
        RuleManager::new(MigrationTrigger::Predictive {
            predictor: PredictorKind::CubicSpline,
            corrector,
        })
    }

    #[test]
    fn threshold_triggers_at_fraction() {
        let mut m = RuleManager::new(MigrationTrigger::Threshold { fraction: 0.5 });
        assert!(!m.on_tick(SimTime::from_ms(100.0), 4, 10, 1.0));
        assert!(m.on_tick(SimTime::from_ms(200.0), 5, 10, 1.0));
        // Inline check mirrors the tick decision.
        assert!(m.wants_migration_inline(5, 10));
        assert!(!m.wants_migration_inline(4, 10));
    }

    #[test]
    fn threshold_zero_migrates_whenever_nonempty() {
        let m = RuleManager::new(MigrationTrigger::Threshold { fraction: 0.0 });
        assert!(m.wants_migration_inline(1, 10));
        assert!(
            !m.wants_migration_inline(0, 10),
            "empty shadow never migrates"
        );
    }

    #[test]
    fn predictive_triggers_on_projected_overflow() {
        let mut m = predictive(Corrector::None);
        let mut now = SimTime::ZERO;
        // Steady 30 arrivals per tick into a shadow of 100: with 40
        // resident the projection 40+30 < 100 holds…
        for _ in 0..6 {
            for _ in 0..30 {
                m.record_arrival();
            }
            now += SimDuration::from_ms(100.0);
            assert!(!m.on_tick(now, 40, 100, 1.0));
        }
        // …but with 80 resident, 80+30 >= 100 triggers.
        for _ in 0..30 {
            m.record_arrival();
        }
        now += SimDuration::from_ms(100.0);
        assert!(m.on_tick(now, 80, 100, 1.0));
    }

    #[test]
    fn slack_triggers_earlier_than_none() {
        // With 100% slack the projection doubles, so the same state that
        // does not trigger without correction does trigger with it.
        let run = |corrector: Corrector| -> bool {
            let mut m = predictive(corrector);
            let mut now = SimTime::ZERO;
            let mut fired = false;
            for _ in 0..8 {
                for _ in 0..25 {
                    m.record_arrival();
                }
                now += SimDuration::from_ms(100.0);
                fired |= m.on_tick(now, 60, 100, 1.0);
            }
            fired
        };
        assert!(!run(Corrector::None));
        assert!(run(Corrector::Slack(1.0)));
        assert!(run(Corrector::Deadzone(20.0)));
    }

    #[test]
    fn partitions_scale_projection() {
        let mut m = predictive(Corrector::None);
        let mut now = SimTime::ZERO;
        for _ in 0..6 {
            for _ in 0..20 {
                m.record_arrival();
            }
            now += SimDuration::from_ms(100.0);
            // 20 arrivals × r_p 3 = 60 entries projected: 50 + 60 >= 100.
            if m.on_tick(now, 50, 100, 3.0) {
                return;
            }
        }
        panic!("high partition factor should have triggered");
    }

    #[test]
    fn busy_window_blocks_retrigger() {
        let mut m = RuleManager::new(MigrationTrigger::Threshold { fraction: 0.0 });
        m.migration_started(SimTime::ZERO, SimDuration::from_ms(500.0));
        assert!(m.is_busy(SimTime::from_ms(100.0)));
        assert!(!m.on_tick(SimTime::from_ms(100.0), 9, 10, 1.0));
        assert!(!m.is_busy(SimTime::from_ms(500.0)));
        assert!(m.on_tick(SimTime::from_ms(500.0), 9, 10, 1.0));
        assert_eq!(m.migrations, 1);
    }

    #[test]
    fn migration_plan_orders_ascending_priority_fifo() {
        let m = RuleManager::new(MigrationTrigger::Threshold { fraction: 0.5 });
        let key = |p: &str| p.parse::<Ipv4Prefix>().unwrap().to_key();
        let rules = vec![
            (
                Rule::new(1, key("10.0.0.0/8"), Priority(5), Action::Drop),
                vec![RuleId(100), RuleId(101)],
            ),
            (
                Rule::new(2, key("11.0.0.0/8"), Priority(2), Action::Drop),
                vec![RuleId(102)],
            ),
            // Same priority as rule 1 but arrived later: FIFO keeps it after.
            (
                Rule::new(3, key("12.0.0.0/8"), Priority(5), Action::Drop),
                vec![],
            ),
        ];
        let plan = m.plan_migration_batch(&rules);
        assert_eq!(plan.order, vec![RuleId(2), RuleId(1), RuleId(3)]);
        assert_eq!(plan.inserts.len(), 3);
        assert_eq!(
            plan.piece_deletes,
            vec![RuleId(102), RuleId(100), RuleId(101)]
        );
        // Rule 1 collapses two pieces into one original: one entry saved.
        assert_eq!(plan.entries_saved, 1);
    }

    #[test]
    fn safety_net_fires_when_nearly_full() {
        let mut m = predictive(Corrector::None);
        // No arrivals at all (prediction 0) but shadow at 95%: migrate.
        assert!(m.on_tick(SimTime::from_ms(100.0), 95, 100, 1.0));
    }
}

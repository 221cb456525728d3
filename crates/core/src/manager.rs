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
}

/// The migration trigger (§5.1): the one owner of *when* to migrate. The
/// switch asks it twice — after an admission and on every tick — and it
/// answers from the shadow occupancy, the predicted arrivals and its own
/// busy window.
pub struct RuleManager {
    /// The configured trigger, its predictor built.
    policy: Policy,
    /// Insert arrivals since the last tick (the predictor's observable).
    arrivals: u64,
    /// The control plane is busy migrating until this instant; a new
    /// migration cannot start before then (this is what bounds the
    /// sustainable insertion rate, Equation 1).
    busy_until: SimTime,
}

/// A [`MigrationTrigger`] with its predictor built.
enum Policy {
    /// Hermes-SIMPLE: migrate at this occupancy fraction.
    Threshold(f64),
    /// Predict the next interval's arrivals, inflate them by the corrector.
    Predictive(Box<dyn Predictor>, Corrector),
}

impl std::fmt::Debug for RuleManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleManager")
            .field("arrivals", &self.arrivals)
            .field("busy_until", &self.busy_until)
            .finish_non_exhaustive()
    }
}

/// Hermes-SIMPLE's test: occupancy at `fraction` of the shadow, and never
/// an empty shadow.
fn over_threshold(fraction: f64, shadow_len: usize, shadow_cap: usize) -> bool {
    shadow_len as f64 >= fraction * shadow_cap as f64 && shadow_len > 0
}

/// The predictive manager's safety net: the shadow is nearly full,
/// whatever the prediction says.
fn nearly_full(shadow_len: usize, shadow_cap: usize) -> bool {
    shadow_len as f64 >= 0.9 * shadow_cap as f64
}

impl RuleManager {
    /// Builds the manager for a trigger policy.
    pub fn new(trigger: MigrationTrigger) -> Self {
        let policy = match trigger {
            MigrationTrigger::Predictive {
                predictor,
                corrector,
            } => Policy::Predictive(predictor.build(), corrector),
            MigrationTrigger::Threshold { fraction } => Policy::Threshold(fraction),
        };
        RuleManager {
            policy,
            arrivals: 0,
            busy_until: SimTime::ZERO,
        }
    }

    /// Notes one rule arrival (called by the Gate Keeper path).
    pub fn record_arrival(&mut self) {
        self.arrivals += 1;
    }

    /// `true` while a migration is still draining.
    fn is_busy(&self, now: SimTime) -> bool {
        now < self.busy_until
    }

    /// The check that ends an admission. Hermes-SIMPLE tests its threshold
    /// after every admission, since it has no notion of prediction
    /// windows. The predictive manager tests only its safety net, so a
    /// burst arriving between ticks cannot silently fill the shadow (the
    /// threshold baseline deliberately has no such net — that naivety is
    /// exactly what §8.5 measures).
    pub fn after_admission(&self, now: SimTime, shadow_len: usize, shadow_cap: usize) -> bool {
        !self.is_busy(now)
            && match self.policy {
                Policy::Threshold(fraction) => over_threshold(fraction, shadow_len, shadow_cap),
                Policy::Predictive(..) => nearly_full(shadow_len, shadow_cap),
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
            if let Policy::Predictive(predictor, _) = &mut self.policy {
                predictor.observe(arrived);
            }
            return false;
        }
        match &mut self.policy {
            Policy::Threshold(fraction) => over_threshold(*fraction, shadow_len, shadow_cap),
            Policy::Predictive(predictor, corrector) => {
                predictor.observe(arrived);
                let predicted = corrector.apply(predictor.predict());
                let projected = shadow_len as f64 + predicted * expected_partitions.max(1.0);
                // Migrate when the projection overflows, or as a safety net
                // when the shadow is nearly full regardless of prediction.
                (projected >= shadow_cap as f64 && shadow_len > 0)
                    || nearly_full(shadow_len, shadow_cap)
            }
        }
    }

    /// Marks a migration as started, blocking re-trigger until it drains.
    pub fn migration_started(&mut self, now: SimTime, duration: SimDuration) {
        self.busy_until = now + duration;
    }

    /// Clears the busy window (the clock restarts after a warm-up).
    pub fn end_warmup(&mut self) {
        self.busy_until = SimTime::ZERO;
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
        // The admission check mirrors the tick decision.
        assert!(m.after_admission(SimTime::from_ms(200.0), 5, 10));
        assert!(!m.after_admission(SimTime::from_ms(200.0), 4, 10));
    }

    #[test]
    fn threshold_zero_migrates_whenever_nonempty() {
        let m = RuleManager::new(MigrationTrigger::Threshold { fraction: 0.0 });
        assert!(m.after_admission(SimTime::ZERO, 1, 10));
        assert!(
            !m.after_admission(SimTime::ZERO, 0, 10),
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
        assert!(!m.after_admission(SimTime::from_ms(100.0), 9, 10));
        assert!(!m.is_busy(SimTime::from_ms(500.0)));
        assert!(m.on_tick(SimTime::from_ms(500.0), 9, 10, 1.0));
        m.migration_started(SimTime::from_ms(500.0), SimDuration::from_ms(500.0));
        m.end_warmup();
        assert!(m.after_admission(SimTime::ZERO, 9, 10));
    }

    #[test]
    fn safety_net_fires_when_nearly_full() {
        let mut m = predictive(Corrector::None);
        // No arrivals at all (prediction 0) but shadow at 95%: migrate.
        assert!(m.on_tick(SimTime::from_ms(100.0), 95, 100, 1.0));
        // The same net ends an admission; below it, only a tick decides.
        assert!(m.after_admission(SimTime::from_ms(100.0), 90, 100));
        assert!(!m.after_admission(SimTime::from_ms(100.0), 89, 100));
    }
}

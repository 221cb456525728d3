//! Hermes configuration: guarantees, predicates and migration policy.

use crate::predict::{Corrector, PredictorKind};
use crate::recovery::RetryPolicy;
use crate::resync::ResyncPolicy;
use hermes_rules::prelude::*;
use hermes_tcam::SimDuration;

/// Which rules receive the performance guarantee — the `match-predicate`
/// argument of `CreateTCAMQoS` (§7).
#[derive(Clone, Debug, PartialEq)]
pub enum RulePredicate {
    /// Every rule.
    All,
    /// Rules whose destination prefix lies within the given prefix.
    DstWithin(Ipv4Prefix),
    /// Rules with priority at least the given value.
    PriorityAtLeast(Priority),
    /// Conjunction of predicates.
    And(Vec<RulePredicate>),
    /// Disjunction of predicates.
    Or(Vec<RulePredicate>),
}

impl RulePredicate {
    /// Does the rule qualify for the guarantee?
    pub fn matches(&self, rule: &Rule) -> bool {
        match self {
            RulePredicate::All => true,
            RulePredicate::DstWithin(p) => FlowMatch::dst_prefix_of_key(&rule.key)
                .map(|d| p.contains(&d))
                .unwrap_or(false),
            RulePredicate::PriorityAtLeast(p) => rule.priority >= *p,
            RulePredicate::And(ps) => ps.iter().all(|q| q.matches(rule)),
            RulePredicate::Or(ps) => ps.iter().any(|q| q.matches(rule)),
        }
    }
}

/// When the Rule Manager migrates (§5.1). The paper's design chooses the
/// predictive trigger; the threshold variant is the Hermes-SIMPLE baseline
/// of §8.5.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MigrationTrigger {
    /// Predict next-interval arrivals; migrate when the predicted occupancy
    /// would overflow the shadow table.
    Predictive {
        /// Which predictor to run.
        predictor: PredictorKind,
        /// Error-correction applied to the prediction.
        corrector: Corrector,
    },
    /// Hermes-SIMPLE: migrate when occupancy exceeds `fraction` of the
    /// shadow capacity (0.0 = migrate on any occupancy, i.e. constantly).
    Threshold {
        /// Occupancy fraction in `[0, 1]`.
        fraction: f64,
    },
}

impl Default for MigrationTrigger {
    /// The paper's default: Cubic Spline with 100% slack (§8.6: "Hermes is
    /// by default configured to Cubic Spline with a slack inflation of
    /// 100%").
    fn default() -> Self {
        MigrationTrigger::Predictive {
            predictor: PredictorKind::CubicSpline,
            corrector: Corrector::Slack(1.0),
        }
    }
}

/// How the Rule Manager writes the migrated rules into the main table
/// (§5.2, "Correctness During Migration Consistency").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MigrationMode {
    /// Incremental update: install each rule in the main table before
    /// removing its shadow pieces — no packet ever loses its matching rule
    /// (the paper's choice).
    #[default]
    MakeBeforeBreak,
    /// Stall the pipeline and swap atomically. Perfectly consistent but
    /// pauses the data plane for the whole migration (the alternative the
    /// paper rejects); kept for the ablation benchmark.
    PauseAndSwap,
}

/// Full Hermes configuration for one switch.
#[derive(Clone, Debug)]
pub struct HermesConfig {
    /// The requested insertion-latency guarantee (the paper's headline
    /// configuration is 5 ms).
    pub guarantee: SimDuration,
    /// Which rules get the guarantee.
    pub predicate: RulePredicate,
    /// Migration trigger policy.
    pub trigger: MigrationTrigger,
    /// How the migration writes are sequenced.
    pub mode: MigrationMode,
    /// Period between Rule Manager wake-ups (prediction + trigger check).
    pub tick: SimDuration,
    /// Admission-control rate in inserts/s; `None` derives the rate from
    /// Equation 2 at runtime.
    pub rate_limit: Option<f64>,
    /// Rules that would fragment into more than this many partitions are
    /// sent straight to the main table (§4.2's footnote: a lowest-priority
    /// `0.0.0.0/0` would overlap everything).
    pub max_partitions: usize,
    /// Explicit shadow-table size override; `None` sizes the shadow from
    /// the guarantee (largest size whose worst-case insert meets it).
    pub shadow_size: Option<usize>,
    /// §4.2's insertion optimization: rules that are the lowest priority of
    /// all installed rules insert directly into the main table (they append
    /// without shifting and are the rules that fragment worst). Disable to
    /// force every qualifying rule through the shadow path (ablation).
    pub low_priority_bypass: bool,
    /// Per-op retry policy for transient control-channel failures.
    pub retry: RetryPolicy,
    /// Consecutive retry-exhausted device ops before the Gate Keeper
    /// enters degraded mode and queues admissions.
    pub degraded_threshold: u32,
    /// Crash-resync policy: warm/cold reboot mode, reconnect backoff and
    /// the intent-store checkpoint interval.
    pub resync: ResyncPolicy,
}

impl Default for HermesConfig {
    fn default() -> Self {
        HermesConfig {
            guarantee: SimDuration::from_ms(5.0),
            predicate: RulePredicate::All,
            trigger: MigrationTrigger::default(),
            mode: MigrationMode::default(),
            tick: SimDuration::from_ms(100.0),
            rate_limit: None,
            max_partitions: 16,
            shadow_size: None,
            low_priority_bypass: true,
            retry: RetryPolicy::default(),
            degraded_threshold: 2,
            resync: ResyncPolicy::default(),
        }
    }
}

impl HermesConfig {
    /// A config with the given guarantee and defaults elsewhere.
    pub fn with_guarantee(guarantee: SimDuration) -> Self {
        HermesConfig {
            guarantee,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(1, p.to_key(), Priority(prio), Action::Drop)
    }

    #[test]
    fn predicate_all() {
        assert!(RulePredicate::All.matches(&rule("10.0.0.0/8", 1)));
    }

    #[test]
    fn predicate_dst_within() {
        let p = RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap());
        assert!(p.matches(&rule("10.1.0.0/16", 1)));
        assert!(!p.matches(&rule("11.0.0.0/8", 1)));
        assert!(!p.matches(&rule("0.0.0.0/0", 1)));
    }

    #[test]
    fn predicate_priority() {
        let p = RulePredicate::PriorityAtLeast(Priority(10));
        assert!(p.matches(&rule("10.0.0.0/8", 10)));
        assert!(!p.matches(&rule("10.0.0.0/8", 9)));
    }

    #[test]
    fn predicate_combinators() {
        let p = RulePredicate::And(vec![
            RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap()),
            RulePredicate::PriorityAtLeast(Priority(5)),
        ]);
        assert!(p.matches(&rule("10.1.0.0/16", 5)));
        assert!(!p.matches(&rule("10.1.0.0/16", 4)));
        let q = RulePredicate::Or(vec![
            RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap()),
            RulePredicate::PriorityAtLeast(Priority(5)),
        ]);
        assert!(q.matches(&rule("11.0.0.0/8", 9)));
        assert!(!q.matches(&rule("11.0.0.0/8", 1)));
    }

    #[test]
    fn default_config_matches_paper() {
        let c = HermesConfig::default();
        assert_eq!(c.guarantee, SimDuration::from_ms(5.0));
        assert_eq!(
            c.trigger,
            MigrationTrigger::Predictive {
                predictor: PredictorKind::CubicSpline,
                corrector: Corrector::Slack(1.0)
            }
        );
        assert_eq!(c.mode, MigrationMode::MakeBeforeBreak);
    }
}

//! MicroBench traces (§8.1.3).
//!
//! "We generated a stream of rule insertions in a systematic manner,
//! varying … the arrival rate (to understand the impact of bursts),
//! overlap rate (to understand the impact of partitioning), and priorities
//! (to understand the impact of TCAM moving/rearrangement)."
//!
//! The overlap rate is the probability that a new rule overlaps rules
//! already generated; an overlapping rule is emitted as a *wider,
//! lower-priority* cover of an existing rule, which is exactly the shape
//! that forces Hermes's Algorithm 1 to cut it (a narrower or
//! higher-priority overlap would install intact).

use hermes_rules::prelude::*;
use hermes_tcam::SimTime;
use hermes_util::rng::{stream, Rng, Salt};

/// How rule priorities are assigned across the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PriorityMode {
    /// Uniform random in `[lo, hi]`.
    Random {
        /// Lowest priority generated.
        lo: u32,
        /// Highest priority generated.
        hi: u32,
    },
    /// Strictly ascending (worst case for low-packed TCAMs).
    Ascending,
    /// Strictly descending (worst case for high-packed TCAMs).
    Descending,
    /// Every rule priority-less ([`Priority::NONE`]).
    None,
}

/// Configuration of a MicroBench stream.
#[derive(Clone, Debug)]
pub struct MicroBench {
    /// Mean insert arrival rate in rules/s (Poisson arrivals).
    pub arrival_rate: f64,
    /// Probability that a new rule overlaps previously generated rules.
    pub overlap_rate: f64,
    /// Priority assignment.
    pub priorities: PriorityMode,
    /// Number of insertions to generate.
    pub count: usize,
    /// RNG seed (streams are fully deterministic given the config).
    pub seed: u64,
}

impl Default for MicroBench {
    fn default() -> Self {
        MicroBench {
            arrival_rate: 200.0,
            overlap_rate: 0.2,
            priorities: PriorityMode::Random { lo: 10, hi: 1000 },
            count: 1000,
            seed: 42,
        }
    }
}

/// One timestamped control action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedAction {
    /// Arrival instant.
    pub at: SimTime,
    /// The action.
    pub action: ControlAction,
}

impl MicroBench {
    /// Generates the insertion stream.
    pub fn generate(&self) -> Vec<TimedAction> {
        let mut rng = stream(self.seed, Salt::CALLER);
        let mut out = Vec::with_capacity(self.count);
        let mut now_s = 0.0f64;
        // Existing narrow rules available to overlap with: (prefix, priority).
        let mut overlappable: Vec<(Ipv4Prefix, u32)> = Vec::new();
        let mut next_disjoint: u32 = 0;

        for i in 0..self.count {
            // Poisson arrivals: exponential inter-arrival times.
            let u: f64 = rng.gen_range(1e-12..1.0);
            now_s += -u.ln() / self.arrival_rate;
            let at = SimTime::from_secs(now_s);

            let prio = match self.priorities {
                PriorityMode::Random { lo, hi } => rng.gen_range(lo..=hi),
                PriorityMode::Ascending => 10 + i as u32,
                PriorityMode::Descending => 10 + (self.count - i) as u32,
                PriorityMode::None => 0,
            };

            let (prefix, priority) =
                if !overlappable.is_empty() && rng.gen_bool(self.overlap_rate.clamp(0.0, 1.0)) {
                    // A wider, lower-priority cover of an existing rule.
                    let &(existing, existing_prio) = overlappable
                        .get(rng.gen_range(0..overlappable.len()))
                        .expect("INVARIANT: overlappable emptiness checked in the branch guard");
                    let wider_len = existing.len().saturating_sub(rng.gen_range(2..=6)).max(4);
                    let wider = Ipv4Prefix::new(existing.addr(), wider_len);
                    let lower = match self.priorities {
                        PriorityMode::None => 0,
                        _ => existing_prio.saturating_sub(rng.gen_range(1..=5)).max(1),
                    };
                    (wider, lower)
                } else {
                    // A fresh rule in its own /16 so disjointness is guaranteed.
                    let block = next_disjoint % (1 << 14);
                    next_disjoint += 1;
                    let addr = (0b01u32 << 30) | (block << 16) | rng.gen_range(0..1u32 << 16);
                    let len = rng.gen_range(20..=28);
                    let p = Ipv4Prefix::new(addr, len);
                    overlappable.push((p, prio.max(1)));
                    (p, prio)
                };

            let rule = Rule::new(
                i as u64,
                prefix.to_key(),
                Priority(priority),
                Action::Forward(rng.gen_range(1..48)),
            );
            out.push(TimedAction {
                at,
                action: ControlAction::Insert(rule),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fraction of generated rules that overlap an earlier rule.
    fn measured_overlap(actions: &[TimedAction]) -> f64 {
        let rules: Vec<Rule> = actions
            .iter()
            .filter_map(|t| match t.action {
                ControlAction::Insert(r) => Some(r),
                _ => None,
            })
            .collect();
        if rules.len() < 2 {
            return 0.0;
        }
        let mut overlapping = 0usize;
        for (i, r) in rules.iter().enumerate() {
            if rules[..i].iter().any(|e| e.key.overlaps(&r.key)) {
                overlapping += 1;
            }
        }
        overlapping as f64 / rules.len() as f64
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = MicroBench::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = MicroBench {
            seed: 43,
            ..MicroBench::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn arrival_rate_respected() {
        let cfg = MicroBench {
            arrival_rate: 1000.0,
            count: 5000,
            ..Default::default()
        };
        let stream = cfg.generate();
        let span = stream.last().unwrap().at.as_secs();
        let rate = stream.len() as f64 / span;
        assert!((rate - 1000.0).abs() < 100.0, "measured rate {rate}");
        // Timestamps monotone.
        for w in stream.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn overlap_rate_zero_generates_disjoint_rules() {
        let cfg = MicroBench {
            overlap_rate: 0.0,
            count: 500,
            ..Default::default()
        };
        let stream = cfg.generate();
        assert_eq!(measured_overlap(&stream), 0.0);
    }

    #[test]
    fn overlap_rate_tracks_configuration() {
        for target in [0.2, 0.6, 1.0] {
            let cfg = MicroBench {
                overlap_rate: target,
                count: 800,
                ..Default::default()
            };
            let got = measured_overlap(&cfg.generate());
            assert!(
                (got - target).abs() < 0.1,
                "target {target}, measured {got}"
            );
        }
    }

    #[test]
    fn overlapping_rules_are_wider_and_lower_priority() {
        let cfg = MicroBench {
            overlap_rate: 1.0,
            count: 100,
            ..Default::default()
        };
        let stream = cfg.generate();
        let rules: Vec<Rule> = stream
            .iter()
            .filter_map(|t| match t.action {
                ControlAction::Insert(r) => Some(r),
                _ => None,
            })
            .collect();
        // Each overlapping rule (all but the first) must contain some
        // earlier rule with strictly higher priority — the partition-forcing
        // shape.
        for (i, r) in rules.iter().enumerate().skip(1) {
            let cut_forcing = rules[..i]
                .iter()
                .any(|e| r.key.contains(&e.key) && e.priority > r.priority);
            assert!(cut_forcing, "rule {i} does not force a cut");
        }
    }

    #[test]
    fn priority_modes() {
        let asc = MicroBench {
            priorities: PriorityMode::Ascending,
            overlap_rate: 0.0,
            count: 50,
            ..Default::default()
        };
        let prios: Vec<u32> = asc
            .generate()
            .iter()
            .filter_map(|t| match t.action {
                ControlAction::Insert(r) => Some(r.priority.0),
                _ => None,
            })
            .collect();
        assert!(prios.windows(2).all(|w| w[1] > w[0]));

        let none = MicroBench {
            priorities: PriorityMode::None,
            overlap_rate: 0.0,
            count: 20,
            ..Default::default()
        };
        assert!(none.generate().iter().all(|t| match t.action {
            ControlAction::Insert(r) => r.priority.is_none(),
            _ => false,
        }));
    }
}

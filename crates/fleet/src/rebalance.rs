//! TE-driven fleet rebalancing (DESIGN.md §13, phase 2).
//!
//! The phase-1 fleet placed path transactions wherever the TE layer drew
//! them and left rule load wherever flows happened to land it. This
//! module closes the loop: [`Rebalancer`] turns per-member
//! [`MemberHealth`] snapshots (occupancy, control-channel backlog, mean
//! modeled RIT, crash/resync history) into a scalar **pressure score**
//! per member, then
//!
//! * **steers** new `install_path` transactions by picking, among a set
//!   of candidate paths, the one whose worst member carries the least
//!   pressure ([`Rebalancer::pick_slice`]) — crash-looping or backlogged
//!   switches stop attracting new state;
//! * **plans migrations** off members whose pressure exceeds the fleet
//!   mean by [`RebalancePolicy::hot_factor`], pairing each hot member
//!   with the coldest healthy member
//!   ([`Rebalancer::plan_moves`]) — the caller executes the move through
//!   `Fleet::migrate_rules`, which keeps the rules continuously
//!   installed somewhere.
//!
//! Scoring is pure integer/float arithmetic over the snapshot — no RNG,
//! no hidden state — so the same health history always yields the same
//! placement (determinism). FDRC (PAPERS.md) motivates reacting to
//! observed skew rather than static assignment; the weights follow the
//! Sadeh et al. weighted-load-balancing line: load terms are additive
//! and fault terms dominate, so a crash-looping member loses placement
//! even when momentarily idle.

use crate::SwitchId;
use std::collections::BTreeMap;

/// Per-member health snapshot — the scoring input, produced by
/// `Fleet::member_health`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemberHealth {
    /// Member id.
    pub id: SwitchId,
    /// The member's home lane.
    pub lane: usize,
    /// Entries installed on the member.
    pub occupancy: usize,
    /// Unserved control-channel backlog at the snapshot instant, ns.
    pub backlog_ns: u64,
    /// Mean modeled rule-installation time (dispatch wait + service), ns.
    pub mean_rit_ns: u64,
    /// Whether the control session is inside a crash window right now.
    pub is_down: bool,
    /// Crashes detected over the member's lifetime.
    pub crashes: u64,
    /// Resyncs completed over the member's lifetime.
    pub resyncs: u64,
}

/// Scoring weights and migration limits. Defaults are tuned for the
/// netsim scale (tens of switches, hundreds of rules per member): load
/// terms are comparable to each other, a single crash outweighs any
/// plausible load signal, and a live crash window is effectively a veto.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RebalancePolicy {
    /// Pressure per installed entry.
    pub occupancy_weight: f64,
    /// Pressure per microsecond of control-channel backlog.
    pub backlog_us_weight: f64,
    /// Pressure per microsecond of mean RIT.
    pub rit_us_weight: f64,
    /// Pressure per detected crash (crash-looping members repel load).
    pub crash_weight: f64,
    /// Flat pressure while the member is inside a crash window.
    pub down_penalty: f64,
    /// A member is *hot* when its score exceeds the fleet mean by this
    /// factor (and the fleet has a non-trivial mean).
    pub hot_factor: f64,
    /// Migrations planned per rebalance pass (bounds control-plane churn
    /// per TE tick).
    pub max_moves: usize,
}

impl Default for RebalancePolicy {
    fn default() -> Self {
        RebalancePolicy {
            occupancy_weight: 1.0,
            backlog_us_weight: 2.0,
            rit_us_weight: 0.5,
            crash_weight: 250.0,
            down_penalty: 10_000.0,
            hot_factor: 1.5,
            max_moves: 2,
        }
    }
}

/// Rebalancing decision counters (mirrored into `fleet.rebalance.*`
/// telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Candidate-set placements decided by [`Rebalancer::pick_slice`].
    pub picks: u64,
    /// Picks that chose other than the first candidate — the default
    /// placement was overruled by member health.
    pub steered: u64,
    /// Migration pairs planned by [`Rebalancer::plan_moves`].
    pub moves_planned: u64,
}

/// Deterministic member scorer and placement policy.
#[derive(Clone, Debug, Default)]
pub struct Rebalancer {
    policy: RebalancePolicy,
    stats: RebalanceStats,
}

impl Rebalancer {
    /// Builds a rebalancer with the given policy.
    pub fn new(policy: RebalancePolicy) -> Self {
        Rebalancer {
            policy,
            stats: RebalanceStats::default(),
        }
    }

    /// Decision counters.
    pub fn stats(&self) -> RebalanceStats {
        self.stats
    }

    /// Pressure score of one member: a weighted sum of its load terms
    /// plus its fault history. Monotone in every input.
    pub fn score(&self, h: &MemberHealth) -> f64 {
        let p = &self.policy;
        let mut s = h.occupancy as f64 * p.occupancy_weight
            + h.backlog_ns as f64 / 1_000.0 * p.backlog_us_weight
            + h.mean_rit_ns as f64 / 1_000.0 * p.rit_us_weight
            + h.crashes as f64 * p.crash_weight;
        if h.is_down {
            s += p.down_penalty;
        }
        s
    }

    /// Scores every member in one pass.
    pub fn scores(&self, health: &[MemberHealth]) -> BTreeMap<SwitchId, f64> {
        health.iter().map(|h| (h.id, self.score(h))).collect()
    }

    /// Picks the best candidate member set (e.g. the switch list of one
    /// candidate path): primarily the set whose **worst** member carries
    /// the least pressure — a path is as healthy as its sickest switch —
    /// with total pressure breaking worst-member ties (candidate paths to
    /// one destination often share the bottleneck switch; the tail still
    /// distinguishes them). Exact ties keep the earliest candidate, and
    /// members missing from `scores` count as zero pressure, so with
    /// uniform health the first candidate (the TE layer's default draw)
    /// always wins: steering only activates on observed skew.
    pub fn pick_slice(
        &mut self,
        candidates: &[Vec<SwitchId>],
        scores: &BTreeMap<SwitchId, f64>,
    ) -> usize {
        assert!(!candidates.is_empty(), "INVARIANT: pick_slice needs a candidate");
        let pressure = |set: &[SwitchId]| -> (f64, f64) {
            let mut worst = 0.0_f64;
            let mut total = 0.0_f64;
            for id in set {
                let s = scores.get(id).copied().unwrap_or(0.0);
                worst = worst.max(s);
                total += s;
            }
            (worst, total)
        };
        let mut best = 0;
        let mut best_p = pressure(&candidates[0]);
        for (i, cand) in candidates.iter().enumerate().skip(1) {
            let p = pressure(cand);
            if p.0 < best_p.0 || (p.0 == best_p.0 && p.1 < best_p.1) {
                best = i;
                best_p = p;
            }
        }
        self.stats.picks += 1;
        hermes_telemetry::counter("fleet.rebalance.picks", 1);
        if best != 0 {
            self.stats.steered += 1;
            hermes_telemetry::counter("fleet.rebalance.steered", 1);
        }
        best
    }

    /// Plans up to `max_moves` migrations `(hot, cold)`: healthy members
    /// scoring above `hot_factor ×` the healthy-fleet mean drain toward
    /// the least-pressured healthy members. Down members are out of the
    /// pass entirely — a migration needs a cooperative source, and their
    /// `down_penalty` would otherwise inflate the mean and mask genuine
    /// load skew (steering already shields them from *new* load). Hot
    /// members are taken hottest first; each move gets its own cold
    /// target (coldest first, never a member already involved in this
    /// pass), so a single pass never funnels the whole fleet's load onto
    /// one target. Returns an empty plan when nothing is hot or no
    /// healthy target exists.
    pub fn plan_moves(&mut self, health: &[MemberHealth]) -> Vec<(SwitchId, SwitchId)> {
        let scored: Vec<(SwitchId, f64)> = health
            .iter()
            .filter(|h| !h.is_down)
            .map(|h| (h.id, self.score(h)))
            .collect();
        if scored.len() < 2 {
            return Vec::new();
        }
        let mean = scored.iter().map(|(_, s)| s).sum::<f64>() / scored.len() as f64;
        if mean <= 0.0 {
            return Vec::new();
        }
        let threshold = mean * self.policy.hot_factor;
        // Hottest first; ties broken by id (scored is already in id order).
        let mut hot: Vec<(SwitchId, f64)> = scored
            .iter()
            .filter(|(_, s)| *s > threshold)
            .copied()
            .collect();
        hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        // Coldest first.
        let mut cold: Vec<(SwitchId, f64)> = scored.clone();
        cold.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut used: Vec<SwitchId> = Vec::new();
        let mut plan = Vec::new();
        for (hot_id, hot_score) in hot.into_iter().take(self.policy.max_moves) {
            let target = cold.iter().find(|(id, s)| {
                *id != hot_id && !used.contains(id) && *s < hot_score
            });
            if let Some((cold_id, _)) = target {
                used.push(hot_id);
                used.push(*cold_id);
                plan.push((hot_id, *cold_id));
            }
        }
        self.stats.moves_planned += plan.len() as u64;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn health(id: SwitchId, occupancy: usize) -> MemberHealth {
        MemberHealth {
            id,
            lane: 0,
            occupancy,
            backlog_ns: 0,
            mean_rit_ns: 0,
            is_down: false,
            crashes: 0,
            resyncs: 0,
        }
    }

    #[test]
    fn score_is_monotone_in_load_and_faults() {
        let r = Rebalancer::default();
        let base = health(0, 10);
        let loaded = MemberHealth { occupancy: 50, ..base };
        let backlogged = MemberHealth { backlog_ns: 500_000, ..base };
        let crashed = MemberHealth { crashes: 1, ..base };
        let down = MemberHealth { is_down: true, ..base };
        let s = |h: &MemberHealth| r.score(h);
        assert!(s(&loaded) > s(&base));
        assert!(s(&backlogged) > s(&base));
        assert!(s(&crashed) > s(&loaded), "one crash outweighs load skew");
        assert!(s(&down) > s(&crashed), "a live crash window dominates everything");
    }

    #[test]
    fn pick_slice_keeps_the_default_under_uniform_health() {
        let mut r = Rebalancer::default();
        let scores = r.scores(&[health(0, 10), health(1, 10), health(2, 10), health(3, 10)]);
        let pick = r.pick_slice(&[vec![0, 1], vec![2, 3]], &scores);
        assert_eq!(pick, 0, "ties keep the TE layer's default draw");
        assert_eq!(r.stats().picks, 1);
        assert_eq!(r.stats().steered, 0);
    }

    #[test]
    fn pick_slice_steers_away_from_a_crash_looping_member() {
        let mut r = Rebalancer::default();
        let sick = MemberHealth { crashes: 4, ..health(1, 10) };
        let scores = r.scores(&[health(0, 10), sick, health(2, 10), health(3, 10)]);
        let pick = r.pick_slice(&[vec![0, 1], vec![2, 3]], &scores);
        assert_eq!(pick, 1, "the path through the crash-looper loses");
        assert_eq!(r.stats().steered, 1);
    }

    #[test]
    fn pick_slice_judges_a_path_by_its_worst_member() {
        let mut r = Rebalancer::default();
        // Candidate 0 has the lower total but contains the single worst
        // member; candidate 1 wins.
        let scores = r.scores(&[
            health(0, 0),
            MemberHealth { occupancy: 100, ..health(1, 0) },
            health(2, 30),
            health(3, 30),
        ]);
        let pick = r.pick_slice(&[vec![0, 1], vec![2, 3]], &scores);
        assert_eq!(pick, 1);
    }

    #[test]
    fn plan_moves_pairs_hot_with_cold() {
        let mut r = Rebalancer::default();
        let fleet = [
            health(0, 200),
            health(1, 10),
            health(2, 10),
            health(3, 10),
        ];
        let plan = r.plan_moves(&fleet);
        assert_eq!(plan, vec![(0, 1)], "hottest drains to the coldest");
        assert_eq!(r.stats().moves_planned, 1);
    }

    #[test]
    fn plan_moves_skips_down_targets_and_bounds_churn() {
        let mut r = Rebalancer::new(RebalancePolicy {
            max_moves: 1,
            hot_factor: 1.2,
            ..RebalancePolicy::default()
        });
        let fleet = [
            health(0, 300),
            health(1, 280),
            MemberHealth { is_down: true, ..health(2, 0) },
            health(3, 5),
        ];
        let plan = r.plan_moves(&fleet);
        assert_eq!(plan.len(), 1, "two members are hot but max_moves bounds the pass");
        let (hot, cold) = plan[0];
        assert_eq!(hot, 0, "hottest member drains first");
        assert_eq!(cold, 3, "the down member never receives load");
    }

    #[test]
    fn plan_moves_is_empty_when_balanced() {
        let mut r = Rebalancer::default();
        let fleet = [health(0, 20), health(1, 22), health(2, 18)];
        assert!(r.plan_moves(&fleet).is_empty(), "no member is hot");
        let empty: [MemberHealth; 0] = [];
        assert!(r.plan_moves(&empty).is_empty());
        assert!(r.plan_moves(&[health(0, 50)]).is_empty(), "nowhere to move");
    }

    #[test]
    fn scoring_is_deterministic() {
        let r1 = Rebalancer::default();
        let r2 = Rebalancer::default();
        let fleet = [
            MemberHealth { backlog_ns: 123_456, mean_rit_ns: 9_876, crashes: 2, ..health(0, 77) },
            health(1, 3),
        ];
        assert_eq!(r1.scores(&fleet), r2.scores(&fleet));
    }
}

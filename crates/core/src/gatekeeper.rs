//! The Gate Keeper (§3): classification and admission control.
//!
//! Every `flow-mod` reaching the switch passes through the Gate Keeper,
//! which decides where the action lands:
//!
//! * rules matching the QoS predicate go to the **shadow table** (and get
//!   the guarantee), unless
//! * they arrive faster than the agreed rate (token bucket) — then the
//!   overflow is serviced from the **main table** ("When the controller
//!   sends actions faster than the guaranteed rate, Hermes uses the main
//!   table"), or
//! * they are lowest-priority rules, which insert cheaply anyway and would
//!   fragment the most (§4.2's optimization), or
//! * the shadow table cannot hold their partitions.

use crate::config::RulePredicate;
use hermes_rules::prelude::*;
use hermes_tcam::SimTime;

/// A standard token bucket for admission control.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/s, holding at most `burst`.
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: SimTime::ZERO,
        }
    }

    /// Refills for elapsed time and tries to take `n` tokens.
    pub fn try_take(&mut self, now: SimTime, n: f64) -> bool {
        let elapsed = now.since(self.last).as_secs();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.rate).min(self.burst);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }

    /// Current token level (for tests/telemetry).
    pub fn tokens(&self) -> f64 {
        self.tokens
    }

    /// The configured refill rate (tokens/s).
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// Where the Gate Keeper routed an insertion, and why.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// Into the shadow table, under the guarantee.
    Shadow,
    /// Into the main table: the rule does not match the QoS predicate.
    MainUnmatched,
    /// Into the main table: lowest-priority insertion optimization (§4.2).
    MainLowPriority,
    /// Into the main table: the controller exceeded the agreed rate.
    MainOverRate,
    /// Into the main table: the rule would fragment into too many
    /// partitions (§4.2 footnote).
    MainTooFragmented,
    /// Into the main table: the shadow table had no room for the
    /// partitions — a guarantee violation if the rule was entitled to one.
    MainShadowFull,
    /// Installed nothing: wholly subsumed by higher-priority main rules
    /// (Fig. 5(a)); logically present, physically redundant.
    Redundant,
    /// Queued by the Gate Keeper's degraded mode: the control channel is
    /// unavailable, so the admission is applied once it recovers (drained
    /// by the next tick or audit).
    Deferred,
}

impl Route {
    /// `true` when the route indicates the guarantee could not be honoured
    /// for a rule that was entitled to it.
    pub fn breaks_guarantee(&self) -> bool {
        matches!(self, Route::MainShadowFull)
    }

    /// The telemetry counter tallying this route (DESIGN.md
    /// "Observability": `gatekeeper.route_<decision>`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            Route::Shadow => "gatekeeper.route_shadow",
            Route::MainUnmatched => "gatekeeper.route_main_unmatched",
            Route::MainLowPriority => "gatekeeper.route_main_low_priority",
            Route::MainOverRate => "gatekeeper.route_main_over_rate",
            Route::MainTooFragmented => "gatekeeper.route_main_too_fragmented",
            Route::MainShadowFull => "gatekeeper.route_main_shadow_full",
            Route::Redundant => "gatekeeper.route_redundant",
            Route::Deferred => "gatekeeper.route_deferred",
        }
    }

    /// Bumps this route's telemetry counter (no-op while disabled).
    pub fn record(&self) {
        // hermes-lint: allow(R10, reason = "dispatch through metric_name(); all eight gatekeeper.route_* literals above are in the registry")
        hermes_telemetry::counter(self.metric_name(), 1);
    }
}

/// The Gate Keeper: predicate + token bucket.
#[derive(Clone, Debug)]
pub struct GateKeeper {
    predicate: RulePredicate,
    bucket: Option<TokenBucket>,
    max_partitions: usize,
    low_priority_bypass: bool,
}

impl GateKeeper {
    /// Builds a Gate Keeper. `rate_limit` of `None` disables admission
    /// control (every qualifying rule may use the shadow).
    pub fn new(
        predicate: RulePredicate,
        rate_limit: Option<(f64, f64)>,
        max_partitions: usize,
    ) -> Self {
        GateKeeper {
            predicate,
            bucket: rate_limit.map(|(rate, burst)| TokenBucket::new(rate, burst)),
            max_partitions,
            low_priority_bypass: true,
        }
    }

    /// Enables or disables the §4.2 lowest-priority bypass.
    pub fn set_low_priority_bypass(&mut self, enabled: bool) {
        self.low_priority_bypass = enabled;
    }

    /// Does the rule qualify for the guarantee at all?
    pub fn qualifies(&self, rule: &Rule) -> bool {
        self.predicate.matches(rule)
    }

    /// First-stage routing decision, before partitioning: predicate,
    /// low-priority bypass, and rate limiting.
    ///
    /// `lowest_live_priority` is the minimum priority across both tables
    /// (`None` when both are empty).
    pub fn pre_route(
        &mut self,
        rule: &Rule,
        now: SimTime,
        lowest_live_priority: Option<Priority>,
    ) -> Option<Route> {
        if !self.predicate.matches(rule) {
            return Some(Route::MainUnmatched);
        }
        // §4.2: lowest-priority rules append to the main table without any
        // shifting, and are exactly the rules that fragment worst.
        if self.low_priority_bypass
            && (rule.priority.is_none()
                || lowest_live_priority
                    .map(|p| rule.priority <= p)
                    .unwrap_or(false))
        {
            return Some(Route::MainLowPriority);
        }
        if let Some(bucket) = &mut self.bucket {
            if !bucket.try_take(now, 1.0) {
                return Some(Route::MainOverRate);
            }
        }
        None // proceed to partitioning + shadow placement
    }

    /// First-stage routing for a whole batch of admissions sharing one
    /// arrival instant (the batched control-plane pipeline).
    ///
    /// Equivalent to calling [`GateKeeper::pre_route`] once per rule in
    /// submission order: the token bucket drains in that order, so earlier
    /// rules in the slice win the remaining tokens. `lowest_live_priority`
    /// is a snapshot taken before the batch — the §4.2 bypass does not
    /// re-evaluate against rules admitted earlier in the same batch (a
    /// deliberate, documented deviation that keeps the decision
    /// order-independent of intra-batch placement).
    pub fn admit_batch(
        &mut self,
        rules: &[Rule],
        now: SimTime,
        lowest_live_priority: Option<Priority>,
    ) -> Vec<Option<Route>> {
        rules
            .iter()
            .map(|r| self.pre_route(r, now, lowest_live_priority))
            .collect()
    }

    /// Second-stage decision, after partitioning: fragmentation and
    /// capacity checks.
    pub fn post_route(&self, pieces: usize, shadow_free: usize) -> Route {
        if pieces == 0 {
            Route::Redundant
        } else if pieces > self.max_partitions {
            Route::MainTooFragmented
        } else if pieces > shadow_free {
            Route::MainShadowFull
        } else {
            Route::Shadow
        }
    }

    /// Updates the admission rate (e.g. after `ModQoSConfig` re-sizes the
    /// shadow table).
    pub fn set_rate(&mut self, rate: Option<(f64, f64)>) {
        self.bucket = rate.map(|(r, b)| TokenBucket::new(r, b));
    }

    /// The configured admission rate, if any.
    pub fn rate(&self) -> Option<f64> {
        self.bucket.as_ref().map(|b| b.rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_tcam::SimDuration;

    fn rule(pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(1, p.to_key(), Priority(prio), Action::Drop)
    }

    #[test]
    fn bucket_takes_and_refills() {
        let mut b = TokenBucket::new(10.0, 5.0);
        let t0 = SimTime::ZERO;
        for _ in 0..5 {
            assert!(b.try_take(t0, 1.0));
        }
        assert!(!b.try_take(t0, 1.0), "bucket exhausted");
        // After 0.5s at 10 tokens/s, 5 tokens are back.
        let t1 = t0 + SimDuration::from_ms(500.0);
        for _ in 0..5 {
            assert!(b.try_take(t1, 1.0));
        }
        assert!(!b.try_take(t1, 1.0));
    }

    #[test]
    fn bucket_caps_at_burst() {
        let mut b = TokenBucket::new(1000.0, 3.0);
        let later = SimTime::from_secs(100.0);
        assert!(b.try_take(later, 3.0));
        assert!(!b.try_take(later, 1.0));
    }

    #[test]
    fn pre_route_unmatched_goes_to_main() {
        let mut gk = GateKeeper::new(
            RulePredicate::DstWithin("10.0.0.0/8".parse().unwrap()),
            None,
            16,
        );
        let r = rule("11.0.0.0/8", 5);
        assert_eq!(
            gk.pre_route(&r, SimTime::ZERO, None),
            Some(Route::MainUnmatched)
        );
    }

    #[test]
    fn pre_route_low_priority_bypass() {
        let mut gk = GateKeeper::new(RulePredicate::All, None, 16);
        // No-priority rule bypasses regardless.
        assert_eq!(
            gk.pre_route(&rule("10.0.0.0/8", 0), SimTime::ZERO, Some(Priority(5))),
            Some(Route::MainLowPriority)
        );
        // Priority at-or-below the live minimum bypasses.
        assert_eq!(
            gk.pre_route(&rule("10.0.0.0/8", 5), SimTime::ZERO, Some(Priority(5))),
            Some(Route::MainLowPriority)
        );
        // Higher priority proceeds to the shadow path.
        assert_eq!(
            gk.pre_route(&rule("10.0.0.0/8", 6), SimTime::ZERO, Some(Priority(5))),
            None
        );
        // Empty tables: no bypass (nothing to shift anywhere, shadow keeps
        // the guarantee bookkeeping simple).
        assert_eq!(
            gk.pre_route(&rule("10.0.0.0/8", 6), SimTime::ZERO, None),
            None
        );
    }

    #[test]
    fn pre_route_rate_limit() {
        let mut gk = GateKeeper::new(RulePredicate::All, Some((10.0, 2.0)), 16);
        let r = rule("10.0.0.0/8", 9);
        let t = SimTime::ZERO;
        assert_eq!(gk.pre_route(&r, t, Some(Priority(1))), None);
        assert_eq!(gk.pre_route(&r, t, Some(Priority(1))), None);
        assert_eq!(
            gk.pre_route(&r, t, Some(Priority(1))),
            Some(Route::MainOverRate)
        );
    }

    #[test]
    fn admit_batch_matches_sequential_pre_route() {
        let mk = || GateKeeper::new(RulePredicate::All, Some((10.0, 2.0)), 16);
        let rules = vec![
            rule("10.0.0.0/8", 9),
            rule("11.0.0.0/8", 8),
            rule("12.0.0.0/8", 7), // third insert exceeds the 2-token burst
            rule("13.0.0.0/8", 0), // low-priority bypass, no token taken
        ];
        let mut batch_gk = mk();
        let got = batch_gk.admit_batch(&rules, SimTime::ZERO, Some(Priority(1)));
        let mut seq_gk = mk();
        let want: Vec<_> = rules
            .iter()
            .map(|r| seq_gk.pre_route(r, SimTime::ZERO, Some(Priority(1))))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            got,
            vec![
                None,
                None,
                Some(Route::MainOverRate),
                Some(Route::MainLowPriority)
            ]
        );
        assert_eq!(batch_gk.bucket.as_ref().unwrap().tokens(), 0.0);
    }

    #[test]
    fn post_route_decisions() {
        let gk = GateKeeper::new(RulePredicate::All, None, 4);
        assert_eq!(gk.post_route(0, 10), Route::Redundant);
        assert_eq!(gk.post_route(5, 10), Route::MainTooFragmented);
        assert_eq!(gk.post_route(3, 2), Route::MainShadowFull);
        assert_eq!(gk.post_route(3, 3), Route::Shadow);
    }

    #[test]
    fn route_flags() {
        assert!(Route::MainShadowFull.breaks_guarantee());
        assert!(!Route::MainOverRate.breaks_guarantee());
    }
}

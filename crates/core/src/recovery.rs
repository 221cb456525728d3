//! Recovery subsystem: retry, journaling and degraded-mode state.
//!
//! The fault model (see `crates/tcam::fault`) lets the control channel
//! transiently reject ops, go dark for whole windows, and *lie* — ack an
//! op it never applied. Recovery keeps the shadow/main lookup-equivalence
//! invariant in three layers:
//!
//! 1. **Per-op retry** ([`RetryPolicy`]): capped exponential backoff with
//!    deterministic jitter; the backoff time is charged against the
//!    latency guarantee, so a retried insert can still violate its bound
//!    honestly.
//! 2. **Transaction journal** ([`RecoveryState::pending_gc`]): physical
//!    deletes that exhausted their retries are journaled and replayed
//!    idempotently (a replay finding the entry already gone simply drops
//!    the journal entry) — a failed migration or rollback never strands
//!    TCAM entries permanently.
//! 3. **Reconciliation audit** (`HermesSwitch::audit`): diffs the
//!    controller's logical bookkeeping against the device slices,
//!    re-installing silently-dropped entries, deleting orphans and fixing
//!    action drift. The controller's bookkeeping is the source of truth
//!    of *intent*; the audit makes the device converge to it.
//!
//! On top sits **degraded mode**: after `degraded_threshold` consecutive
//! retry-exhausted ops the Gate Keeper stops hammering the dead channel
//! and queues admissions ([`RecoveryState::deferred`]); the first
//! successful device op ends the episode and queued admissions drain on
//! the next tick/audit. Time spent degraded is accounted in
//! [`RecoveryStats::degraded_ns`].

use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime};
use hermes_util::rng::{Rng, SeedableRng, StdRng};

/// Fixed seed for retry jitter: recovery must be deterministic so chaos
/// runs reproduce byte-for-byte from the fault seed alone.
const JITTER_STREAM_SALT: u64 = 0x4845_524d_4553_0001;

/// Per-op retry policy: capped exponential backoff with jitter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per device op (first try + retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Jitter as a ± fraction of the backoff (`0.2` = ±20%).
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_us(500.0),
            max_backoff: SimDuration::from_ms(5.0),
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), jittered.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        let base = (self.base_backoff * (1u64 << exp)).min(self.max_backoff);
        if self.jitter <= 0.0 {
            return base;
        }
        let factor = rng.gen_range((1.0 - self.jitter)..(1.0 + self.jitter));
        base.mul_f64(factor)
    }
}

/// Lifetime health counters for the recovery subsystem.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Device ops retried after a transient failure.
    pub retries: u64,
    /// Transient device failures observed (each retry attempt counts).
    pub transient_failures: u64,
    /// Device ops that exhausted their retry budget.
    pub permanent_failures: u64,
    /// Partial installs rolled back after a mid-transaction failure.
    pub rollbacks: u64,
    /// Journaled physical deletes replayed successfully.
    pub journal_replays: u64,
    /// Admissions queued by degraded mode.
    pub deferred: u64,
    /// Queued admissions later applied.
    pub deferred_flushed: u64,
    /// Queued admissions dropped (e.g. the table filled meanwhile).
    pub deferred_dropped: u64,
    /// Reconciliation audits run.
    pub audits: u64,
    /// Total divergences found by audits (missing + orphan + action drift).
    pub audit_diffs: u64,
    /// Silently-dropped entries re-installed by audits.
    pub reinstalled: u64,
    /// Orphan physical entries garbage-collected by audits.
    pub orphans_removed: u64,
    /// Action/priority drift repaired in place by audits.
    pub actions_fixed: u64,
    /// Times degraded mode was entered.
    pub degraded_entries: u64,
    /// Total simulated nanoseconds spent in degraded mode.
    pub degraded_ns: u64,
}

/// Outcome of one `HermesSwitch::audit` reconciliation sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Journaled deletes replayed at the start of the sweep.
    pub journal_replayed: usize,
    /// Expected entries found missing on the device and re-installed.
    pub reinstalled: usize,
    /// Device entries with no logical owner, deleted.
    pub orphans_removed: usize,
    /// Entries whose action or priority drifted, repaired.
    pub actions_fixed: usize,
    /// Shadow rules evicted to the main table because the shadow could not
    /// hold their re-installed pieces.
    pub evicted: usize,
    /// Queued degraded-mode admissions applied at the end of the sweep.
    pub deferred_flushed: usize,
    /// Control-plane time the sweep consumed.
    pub duration: SimDuration,
    /// `false` when some repair op itself failed and state may still
    /// diverge; run another sweep.
    pub complete: bool,
}

impl AuditReport {
    /// Divergences found between the logical view and the device.
    pub fn diffs(&self) -> usize {
        self.reinstalled + self.orphans_removed + self.actions_fixed
    }

    /// `true` when the sweep found nothing to fix and finished fully: the
    /// device provably matches the logical view.
    pub fn clean(&self) -> bool {
        self.complete
            && self.diffs() == 0
            && self.journal_replayed == 0
            && self.evicted == 0
            && self.deferred_flushed == 0
    }
}

/// Mutable recovery state carried by a `HermesSwitch`.
#[derive(Debug)]
pub struct RecoveryState {
    /// The retry policy in force.
    pub policy: RetryPolicy,
    /// Consecutive retry-exhausted ops that trip degraded mode.
    pub degraded_threshold: u32,
    /// Health counters.
    pub stats: RecoveryStats,
    /// Journal of physical deletes awaiting idempotent replay:
    /// `(slice, physical rule id)`.
    pub pending_gc: Vec<(usize, RuleId)>,
    /// Admissions queued while degraded, in arrival order.
    pub deferred: Vec<Rule>,
    rng: StdRng,
    consecutive_failures: u32,
    degraded_since: Option<SimTime>,
}

impl RecoveryState {
    /// Builds recovery state for a policy.
    pub fn new(policy: RetryPolicy, degraded_threshold: u32) -> Self {
        RecoveryState {
            policy,
            degraded_threshold: degraded_threshold.max(1),
            stats: RecoveryStats::default(),
            pending_gc: Vec::new(),
            deferred: Vec::new(),
            rng: StdRng::seed_from_u64(JITTER_STREAM_SALT),
            consecutive_failures: 0,
            degraded_since: None,
        }
    }

    /// Jittered backoff before retry `attempt` (1-based). The returned
    /// span is charged against the latency guarantee by the caller.
    pub fn backoff(&mut self, attempt: u32) -> SimDuration {
        let b = self.policy.backoff(attempt, &mut self.rng);
        if hermes_telemetry::enabled() {
            hermes_telemetry::counter("recovery.retries", 1);
            hermes_telemetry::observe("recovery.backoff_ns", b.as_nanos());
        }
        b
    }

    /// Currently in degraded mode?
    pub fn is_degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// A device op succeeded: reset the failure streak and, if degraded,
    /// recover (accounting the episode's duration).
    pub fn on_success(&mut self, now: SimTime) {
        self.consecutive_failures = 0;
        if let Some(since) = self.degraded_since.take() {
            let episode = now.since(since).as_nanos();
            self.stats.degraded_ns += episode;
            hermes_telemetry::counter("recovery.degraded_ns", episode);
        }
    }

    /// Forces degraded mode immediately — the crash path: a lost control
    /// session is known-dead, so there is no point counting a failure
    /// streak before queuing admissions.
    pub fn enter_degraded(&mut self, now: SimTime) {
        self.consecutive_failures = self.degraded_threshold;
        if self.degraded_since.is_none() {
            self.degraded_since = Some(now);
            self.stats.degraded_entries += 1;
            hermes_telemetry::counter("recovery.degraded_entries", 1);
        }
    }

    /// A device op exhausted its retries: extend the failure streak and
    /// enter degraded mode at the threshold.
    pub fn on_permanent_failure(&mut self, now: SimTime) {
        self.stats.permanent_failures += 1;
        self.consecutive_failures += 1;
        hermes_telemetry::counter("recovery.permanent_failures", 1);
        if self.consecutive_failures >= self.degraded_threshold && self.degraded_since.is_none() {
            self.degraded_since = Some(now);
            self.stats.degraded_entries += 1;
            hermes_telemetry::counter("recovery.degraded_entries", 1);
        }
    }

    /// Queues an admission while degraded.
    pub fn defer(&mut self, rule: Rule) {
        self.stats.deferred += 1;
        hermes_telemetry::counter("recovery.deferred", 1);
        self.deferred.push(rule);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(policy.backoff(1, &mut rng), SimDuration::from_us(500.0));
        assert_eq!(policy.backoff(2, &mut rng), SimDuration::from_ms(1.0));
        assert_eq!(policy.backoff(3, &mut rng), SimDuration::from_ms(2.0));
        assert_eq!(policy.backoff(4, &mut rng), SimDuration::from_ms(4.0));
        assert_eq!(policy.backoff(5, &mut rng), SimDuration::from_ms(5.0));
        assert_eq!(policy.backoff(60, &mut rng), SimDuration::from_ms(5.0));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let policy = RetryPolicy::default();
        let mut rng = StdRng::seed_from_u64(2);
        for attempt in 1..6 {
            let b = policy.backoff(attempt, &mut rng);
            let nominal = policy
                .base_backoff
                .mul_f64(f64::from(1u32 << (attempt - 1)))
                .min(policy.max_backoff);
            assert!(b >= nominal.mul_f64(0.8 - 1e-9) && b <= nominal.mul_f64(1.2 + 1e-9));
        }
    }

    #[test]
    fn degraded_entry_exit_accounting() {
        let mut rs = RecoveryState::new(RetryPolicy::default(), 2);
        assert!(!rs.is_degraded());
        rs.on_permanent_failure(SimTime::from_ms(10.0));
        assert!(!rs.is_degraded());
        rs.on_permanent_failure(SimTime::from_ms(20.0));
        assert!(rs.is_degraded());
        assert_eq!(rs.stats.degraded_entries, 1);
        rs.on_success(SimTime::from_ms(30.0));
        assert!(!rs.is_degraded());
        assert_eq!(rs.stats.degraded_ns, SimDuration::from_ms(10.0).as_nanos());
        // A lone failure after recovery does not re-trip.
        rs.on_permanent_failure(SimTime::from_ms(40.0));
        assert!(!rs.is_degraded());
    }

    #[test]
    fn clean_report_requires_everything_quiet() {
        let mut r = AuditReport {
            complete: true,
            ..AuditReport::default()
        };
        assert!(r.clean());
        r.reinstalled = 1;
        assert!(!r.clean());
        r.reinstalled = 0;
        r.complete = false;
        assert!(!r.clean());
    }
}

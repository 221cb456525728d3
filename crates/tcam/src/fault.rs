//! Deterministic fault injection for the TCAM control channel.
//!
//! The paper's motivation (§2) is built on firmware that misbehaves: acks
//! arrive late, latency spikes with occupancy, and switches sometimes
//! report success for operations they never applied. [`FaultPlan`] turns
//! those behaviours into a *seeded, reproducible* adversary that a
//! [`TcamDevice`](crate::TcamDevice) consults before every control-plane
//! action:
//!
//! * **transient write failures** — the op is rejected with
//!   [`TcamError::ChannelBusy`](crate::TcamError::ChannelBusy); a retry may
//!   succeed;
//! * **latency spikes** — the op succeeds but its charged latency is
//!   multiplied (occupancy-dependent firmware GC pauses);
//! * **control-channel outages** — a window of consecutive ops all fail
//!   with [`TcamError::Outage`](crate::TcamError::Outage), modelling a
//!   wedged agent or management-link flap;
//! * **silent drops** — the device acks an insert (or delete) with a
//!   plausible latency but applies nothing, leaving the controller's view
//!   and the hardware out of sync until a reconciliation audit catches it;
//! * **crash-class faults** — every `crash_period` ops the *switch itself*
//!   goes down: a full TCAM wipe (cold reboot), a partial wipe retaining a
//!   seeded survivor subset (warm reboot with ECC/firmware salvage), or a
//!   pure control-channel disconnect with state intact. The device drops
//!   its control session either way and rejects everything with
//!   [`TcamError::Disconnected`](crate::TcamError::Disconnected) until the
//!   controller reconnects and resyncs.
//!
//! Every decision is a pure function of the seed and the op sequence, so a
//! chaos run reproduces byte-for-byte from its seed. Crash
//! parameters (kind, survivor subset, reconnect denials) are drawn from a
//! *separate* seeded stream, so arming crashes never perturbs the per-op
//! fault sequence of an existing seed.

use hermes_util::rng::{stream, Rng, Salt, StdRng};

/// What the fault layer decided for one control-plane action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultDecision {
    /// Execute normally.
    Normal,
    /// Reject with a transient [`TcamError::ChannelBusy`](crate::TcamError).
    Fail,
    /// Ack success without applying the operation.
    SilentDrop,
    /// Execute, but multiply the charged latency by the factor.
    Spike(f64),
    /// Reject: the control channel is inside an outage window.
    Outage,
    /// The switch crashes: the device mangles its state per the spec,
    /// drops the control session, and rejects this op.
    Crash(CrashSpec),
}

/// How a crash mangles the device's TCAM state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrashKind {
    /// Cold reboot: the TCAM loses every entry in every slice.
    Wipe,
    /// Warm reboot with partial salvage: each entry independently survives
    /// with the given probability, drawn from the crash's survivor seed.
    Partial {
        /// Per-entry survival probability.
        survivor_prob: f64,
    },
    /// The tables survive intact but the control session is torn down;
    /// only the reconnect handshake is lost time.
    Disconnect,
}

/// One scheduled crash, fully determined by the plan seed and op count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSpec {
    /// What happens to the TCAM contents.
    pub kind: CrashKind,
    /// Seeds the survivor-subset draw for [`CrashKind::Partial`].
    pub survivor_seed: u64,
    /// Reconnect attempts the device rejects before the session comes
    /// back (models a switch still booting).
    pub reconnect_denials: u32,
}

/// Lifetime counters for injected faults (telemetry for chaos runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Ops the plan examined.
    pub ops_seen: u64,
    /// Transient write failures injected.
    pub write_failures: u64,
    /// Ops acked but silently dropped.
    pub silent_drops: u64,
    /// Ops whose latency was spiked.
    pub latency_spikes: u64,
    /// Ops rejected inside an outage window.
    pub outage_rejections: u64,
    /// Crash-class faults injected (wipe + partial + disconnect).
    pub crashes: u64,
}

/// A seeded fault schedule for one device.
///
/// Probabilities are per-op; the outage schedule is op-count driven (an
/// outage of `outage_len` ops opens every `outage_period` ops), which keeps
/// the plan deterministic without needing a clock.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Probability a write (insert/modify) fails transiently.
    pub write_fail_prob: f64,
    /// Probability an insert or delete is acked but not applied.
    pub silent_drop_prob: f64,
    /// Probability an op's latency is multiplied by `spike_multiplier`.
    pub latency_spike_prob: f64,
    /// Latency multiplier applied on a spike.
    pub spike_multiplier: f64,
    /// Ops between outage-window starts (`0` disables outages).
    pub outage_period: u64,
    /// Consecutive ops rejected once an outage opens.
    pub outage_len: u64,
    /// Ops between crash-class faults (`0` disables crashes).
    pub crash_period: u64,
    /// Probability a crash is a full TCAM wipe.
    pub crash_wipe_prob: f64,
    /// Probability a crash retains a partial survivor subset; the
    /// remaining mass is a pure control-channel disconnect.
    pub crash_partial_prob: f64,
    /// Per-entry survival probability for partial-retention crashes.
    pub survivor_prob: f64,
    /// Reconnect denials per crash are drawn uniformly in `0..=max`.
    pub max_reconnect_denials: u32,
    rng: StdRng,
    /// Dedicated stream for crash parameters: consumed only at the
    /// deterministic crash points, so arming or disarming crashes leaves
    /// the per-op `rng` sequence untouched.
    crash_rng: StdRng,
    ops: u64,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan with every fault disabled — useful as a base to tweak.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            write_fail_prob: 0.0,
            silent_drop_prob: 0.0,
            latency_spike_prob: 0.0,
            spike_multiplier: 1.0,
            outage_period: 0,
            outage_len: 0,
            crash_period: 0,
            crash_wipe_prob: 0.0,
            crash_partial_prob: 0.0,
            survivor_prob: 1.0,
            max_reconnect_denials: 0,
            rng: stream(seed, Salt::CALLER),
            crash_rng: stream(seed, Salt::FAULT_CRASH),
            ops: 0,
            stats: FaultStats::default(),
        }
    }

    /// The standard chaos mix used by tests and the CI smoke run: a few
    /// percent of everything, plus a short outage window every 200 ops.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            write_fail_prob: 0.08,
            silent_drop_prob: 0.04,
            latency_spike_prob: 0.05,
            spike_multiplier: 8.0,
            outage_period: 200,
            outage_len: 12,
            ..Self::quiet(seed)
        }
    }

    /// The crash-class chaos mix: the per-op faults of [`seeded`] plus a
    /// switch crash every 300 ops — 40% full wipes, 35% partial retention
    /// (each entry survives with p=0.5), 25% pure disconnects — with up
    /// to 3 reconnect attempts denied while the switch "boots".
    ///
    /// [`seeded`]: Self::seeded
    pub fn crashy(seed: u64) -> Self {
        FaultPlan {
            crash_period: 300,
            crash_wipe_prob: 0.4,
            crash_partial_prob: 0.35,
            survivor_prob: 0.5,
            max_reconnect_denials: 3,
            ..Self::seeded(seed)
        }
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// `true` while the op counter sits inside an outage window. The op
    /// counter only advances via [`decide`](Self::decide).
    pub fn in_outage(&self) -> bool {
        self.outage_period != 0
            && self.outage_len != 0
            && self.ops % self.outage_period >= self.outage_period.saturating_sub(self.outage_len)
    }

    /// Decides the fate of the next control-plane action. `is_insert` and
    /// `is_delete` select which faults apply: silent drops hit inserts and
    /// deletes (the ops whose loss desynchronizes state), transient write
    /// failures hit everything.
    pub fn decide(&mut self, is_insert: bool, is_delete: bool) -> FaultDecision {
        self.stats.ops_seen += 1;
        let in_outage = self.in_outage();
        self.ops += 1;
        // One decision per op from a fixed number of draws keeps the
        // stream aligned regardless of which branch fires.
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        // Crash points are op-count driven and their parameters come from
        // the dedicated crash stream, so the main roll above stays aligned
        // with crash-free plans sharing the seed.
        if self.crash_period != 0 && self.ops.is_multiple_of(self.crash_period) {
            self.stats.crashes += 1;
            return FaultDecision::Crash(self.draw_crash());
        }
        if in_outage {
            self.stats.outage_rejections += 1;
            return FaultDecision::Outage;
        }
        let mut edge = self.write_fail_prob;
        if roll < edge {
            self.stats.write_failures += 1;
            return FaultDecision::Fail;
        }
        edge += self.silent_drop_prob;
        if roll < edge {
            if is_insert || is_delete {
                self.stats.silent_drops += 1;
                return FaultDecision::SilentDrop;
            }
            return FaultDecision::Normal;
        }
        edge += self.latency_spike_prob;
        if roll < edge {
            self.stats.latency_spikes += 1;
            return FaultDecision::Spike(self.spike_multiplier);
        }
        FaultDecision::Normal
    }

    /// Draws one crash's parameters from the dedicated crash stream.
    fn draw_crash(&mut self) -> CrashSpec {
        let k: f64 = self.crash_rng.gen_range(0.0..1.0);
        let kind = if k < self.crash_wipe_prob {
            CrashKind::Wipe
        } else if k < self.crash_wipe_prob + self.crash_partial_prob {
            CrashKind::Partial {
                survivor_prob: self.survivor_prob,
            }
        } else {
            CrashKind::Disconnect
        };
        CrashSpec {
            kind,
            survivor_seed: self.crash_rng.gen_range(0..u64::MAX),
            reconnect_denials: if self.max_reconnect_denials == 0 {
                0
            } else {
                self.crash_rng.gen_range(0..=self.max_reconnect_denials)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_fires() {
        let mut p = FaultPlan::quiet(7);
        for _ in 0..1000 {
            assert_eq!(p.decide(true, false), FaultDecision::Normal);
        }
        assert_eq!(p.stats().write_failures, 0);
        assert_eq!(p.stats().ops_seen, 1000);
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::seeded(42);
        let mut b = FaultPlan::seeded(42);
        for i in 0..5000 {
            assert_eq!(
                a.decide(i % 3 == 0, i % 3 == 1),
                b.decide(i % 3 == 0, i % 3 == 1),
                "decision {i} diverged"
            );
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn outage_windows_fire_on_schedule() {
        let mut p = FaultPlan::quiet(1);
        p.outage_period = 10;
        p.outage_len = 3;
        let mut rejected = 0;
        for _ in 0..100 {
            if p.decide(true, false) == FaultDecision::Outage {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 30, "3 of every 10 ops rejected");
        assert_eq!(p.stats().outage_rejections, 30);
    }

    #[test]
    fn probabilities_are_roughly_honoured() {
        let mut p = FaultPlan::quiet(9);
        p.write_fail_prob = 0.2;
        for _ in 0..10_000 {
            p.decide(true, false);
        }
        let f = p.stats().write_failures as f64 / 10_000.0;
        assert!((f - 0.2).abs() < 0.02, "observed failure rate {f}");
    }

    #[test]
    fn silent_drops_only_hit_inserts_and_deletes() {
        let mut p = FaultPlan::quiet(3);
        p.silent_drop_prob = 1.0;
        assert_eq!(p.decide(true, false), FaultDecision::SilentDrop);
        assert_eq!(p.decide(false, true), FaultDecision::SilentDrop);
        assert_eq!(p.decide(false, false), FaultDecision::Normal);
    }

    #[test]
    fn crashes_fire_on_schedule_and_reproduce() {
        let mut a = FaultPlan::quiet(5);
        a.crash_period = 10;
        a.crash_wipe_prob = 0.4;
        a.crash_partial_prob = 0.35;
        a.max_reconnect_denials = 3;
        let mut b = a.clone();
        let mut crash_ops = Vec::new();
        for i in 0..100 {
            let da = a.decide(true, false);
            assert_eq!(da, b.decide(true, false), "decision {i} diverged");
            if let FaultDecision::Crash(_) = da {
                crash_ops.push(i);
            }
        }
        assert_eq!(crash_ops, vec![9, 19, 29, 39, 49, 59, 69, 79, 89, 99]);
        assert_eq!(a.stats().crashes, 10);
    }

    #[test]
    fn crash_stream_does_not_perturb_per_op_faults() {
        // Same seed, crashes armed vs not: every non-crash decision must
        // be identical — the crash stream is independent.
        let mut plain = FaultPlan::seeded(77);
        let mut crashy = FaultPlan::seeded(77);
        crashy.crash_period = 7;
        for i in 0..500 {
            let a = plain.decide(i % 2 == 0, i % 2 == 1);
            let b = crashy.decide(i % 2 == 0, i % 2 == 1);
            if !matches!(b, FaultDecision::Crash(_)) {
                assert_eq!(a, b, "op {i}: crash stream leaked into per-op faults");
            }
        }
    }

    #[test]
    fn crashy_mix_draws_all_kinds() {
        let mut p = FaultPlan::crashy(11);
        p.crash_period = 1; // every op crashes; the mix should cover all kinds
        let (mut wipes, mut partials, mut disconnects) = (0, 0, 0);
        for _ in 0..300 {
            match p.decide(true, false) {
                FaultDecision::Crash(spec) => match spec.kind {
                    CrashKind::Wipe => wipes += 1,
                    CrashKind::Partial { survivor_prob } => {
                        assert_eq!(survivor_prob, 0.5);
                        partials += 1;
                    }
                    CrashKind::Disconnect => disconnects += 1,
                },
                other => panic!("expected a crash, got {other:?}"),
            }
        }
        assert!(wipes > 0 && partials > 0 && disconnects > 0);
        assert_eq!(p.stats().crashes, 300);
    }

    #[test]
    fn seeded_plan_never_crashes() {
        let mut p = FaultPlan::seeded(7);
        for _ in 0..5000 {
            assert!(!matches!(p.decide(true, false), FaultDecision::Crash(_)));
        }
        assert_eq!(p.stats().crashes, 0);
    }
}

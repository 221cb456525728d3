//! The control-plane abstraction shared by Hermes, the baselines, the
//! fleet controller and the network simulator.
//!
//! A [`ControlPlane`] accepts batches of control actions (an SDN app's
//! `flow-mod`s for one switch) and executes them serially on the switch
//! ASIC, returning per-action completion offsets. The simulator layers
//! queueing on top: a batch arriving while the control channel is busy
//! waits for the previous batch to drain ([`CpQueue`]).

use crate::config::HermesConfig;
use crate::recovery::RecoveryStats;
use crate::resync::ResyncStats;
use crate::switch::{ActionReport, HermesError, HermesSwitch};
use hermes_rules::prelude::*;
use hermes_tcam::{CrashKind, SimDuration, SimTime, SwitchModel};

/// Outcome of one control action inside a batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpOutcome {
    /// The logical rule the action addressed.
    pub id: RuleId,
    /// Execution time of this action alone.
    pub exec: SimDuration,
    /// Completion time relative to batch start (cumulative, since the
    /// control channel is serial).
    pub completed_at: SimDuration,
    /// Whether a guarantee was violated (Hermes only; always `false` for
    /// baselines, which promise nothing).
    pub violated: bool,
}

/// Outcome of a whole batch.
#[derive(Clone, Debug, Default)]
pub struct BatchOutcome {
    /// Per-action outcomes, in execution order (which may differ from
    /// submission order for reordering baselines).
    pub ops: Vec<OpOutcome>,
    /// Total control-plane time consumed by the batch.
    pub total: SimDuration,
}

impl BatchOutcome {
    /// What a rejected action (full table, missing rule, dead channel)
    /// costs the agent: a nominal 50 µs to report the error upstream.
    pub const REJECTION_COST: SimDuration = SimDuration::from_us(50.0);

    /// The serial executor every plane shares: one action ran for `exec`
    /// on the control channel, so the batch is that much longer and the
    /// action completes at the new total.
    pub fn push(&mut self, id: RuleId, exec: SimDuration, violated: bool) {
        self.total += exec;
        self.ops.push(OpOutcome {
            id,
            exec,
            completed_at: self.total,
            violated,
        });
    }

    /// Appends one Hermes action's outcome.
    fn push_report(&mut self, id: RuleId, rep: Result<ActionReport, HermesError>) {
        match rep {
            Ok(rep) => self.push(id, rep.latency, rep.violated()),
            Err(_) => self.push(id, Self::REJECTION_COST, false),
        }
    }
}

/// A switch control plane: executes control actions with some strategy.
pub trait ControlPlane {
    /// Display name (used in experiment output, matching the paper's
    /// figure legends).
    fn name(&self) -> String;

    /// Executes a batch of actions, serially, starting at `now`.
    fn apply_batch(&mut self, actions: &[ControlAction], now: SimTime) -> BatchOutcome;

    /// Convenience: executes a single action.
    fn apply(&mut self, action: &ControlAction, now: SimTime) -> OpOutcome {
        let out = self.apply_batch(std::slice::from_ref(action), now);
        out.ops[0]
    }

    /// Total TCAM entries currently installed.
    fn occupancy(&self) -> usize;

    /// Periodic housekeeping (Hermes's Rule Manager tick; no-op for
    /// baselines).
    fn tick(&mut self, _now: SimTime) {}

    /// Migration passes performed so far (0 for planes without a Rule
    /// Manager).
    fn migrations(&self) -> u64 {
        0
    }

    /// Signals the end of a warm-up/preload phase: installed state stays,
    /// but time-dependent state (admission buckets, busy windows) resets
    /// to the epoch. No-op for stateless planes.
    fn end_warmup(&mut self) {}

    /// Recovery-subsystem health counters, for planes that have one
    /// (`None` for baselines without retry/reconciliation machinery).
    fn recovery_stats(&self) -> Option<RecoveryStats> {
        None
    }

    /// Crashes the switch (simulated power loss / agent reboot). Planes
    /// without a crash fault domain ignore the injection: their control
    /// session is assumed eternally healthy, matching pre-crash-layer
    /// behaviour.
    fn inject_crash(
        &mut self,
        _kind: CrashKind,
        _survivor_seed: u64,
        _reconnect_denials: u32,
        _now: SimTime,
    ) {
    }

    /// Whether the control session is currently dead (crash window still
    /// open). Always `false` for planes without a fault domain.
    fn is_down(&self) -> bool {
        false
    }

    /// Resync-subsystem health counters (`None` for planes without a
    /// crash/resync engine).
    fn resync_stats(&self) -> Option<ResyncStats> {
        None
    }

    /// Whether the plane currently holds the given logical rule
    /// (deferred admissions included — accepted, just not yet placed).
    /// `None` for planes without per-rule introspection; the fleet's
    /// two-phase staging check treats those optimistically.
    fn contains_rule(&self, _id: RuleId) -> Option<bool> {
        None
    }
}

impl ControlPlane for Box<dyn ControlPlane> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], now: SimTime) -> BatchOutcome {
        (**self).apply_batch(actions, now)
    }

    fn apply(&mut self, action: &ControlAction, now: SimTime) -> OpOutcome {
        (**self).apply(action, now)
    }

    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }

    fn tick(&mut self, now: SimTime) {
        (**self).tick(now)
    }

    fn migrations(&self) -> u64 {
        (**self).migrations()
    }

    fn end_warmup(&mut self) {
        (**self).end_warmup()
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        (**self).recovery_stats()
    }

    fn inject_crash(
        &mut self,
        kind: CrashKind,
        survivor_seed: u64,
        reconnect_denials: u32,
        now: SimTime,
    ) {
        (**self).inject_crash(kind, survivor_seed, reconnect_denials, now)
    }

    fn is_down(&self) -> bool {
        (**self).is_down()
    }

    fn resync_stats(&self) -> Option<ResyncStats> {
        (**self).resync_stats()
    }

    fn contains_rule(&self, id: RuleId) -> Option<bool> {
        (**self).contains_rule(id)
    }
}

/// Hermes as a [`ControlPlane`], for apples-to-apples comparisons.
#[derive(Debug)]
pub struct HermesPlane {
    switch: HermesSwitch,
}

impl HermesPlane {
    /// Wraps a configured Hermes agent.
    pub fn new(switch: HermesSwitch) -> Self {
        HermesPlane { switch }
    }

    /// Builds directly from a model and config.
    pub fn with_config(model: SwitchModel, config: HermesConfig) -> Result<Self, HermesError> {
        let mut switch = HermesSwitch::new(model, config)?;
        // Opt-in chaos: HERMES_FAULT_SEED in the environment arms the
        // deterministic fault plan on every Hermes plane (unset: no faults,
        // behaviour identical to before the fault layer existed).
        switch.install_fault_plan(hermes_tcam::FaultPlan::from_env());
        Ok(HermesPlane { switch })
    }

    /// Borrow the agent.
    pub fn switch(&self) -> &HermesSwitch {
        &self.switch
    }

    /// Mutably borrow the agent.
    pub fn switch_mut(&mut self) -> &mut HermesSwitch {
        &mut self.switch
    }
}

impl ControlPlane for HermesPlane {
    fn name(&self) -> String {
        "Hermes".into()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], now: SimTime) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        // Maximal runs of ≥2 consecutive inserts ride the batched
        // admission pipeline (one handshake, one coalesced shift plan);
        // singletons and non-insert actions take the per-op path
        // unchanged.
        for run in actions.chunk_by(|a, b| a.is_insert() && b.is_insert()) {
            if let [action] = run {
                let rep = self.switch.submit(action, now + out.total);
                out.push_report(action.rule_id(), rep);
                continue;
            }
            let rules: Vec<Rule> = run
                .iter()
                .filter_map(|a| match a {
                    ControlAction::Insert(r) => Some(*r),
                    _ => None,
                })
                .collect();
            let reports = self.switch.admit_batch(&rules, now + out.total);
            for (rule, rep) in rules.iter().zip(reports) {
                out.push_report(rule.id, rep);
            }
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.switch.shadow_len() + self.switch.main_len()
    }

    fn tick(&mut self, now: SimTime) {
        self.switch.tick(now);
    }

    fn migrations(&self) -> u64 {
        self.switch.migrations()
    }

    fn end_warmup(&mut self) {
        self.switch.end_warmup();
    }

    fn recovery_stats(&self) -> Option<RecoveryStats> {
        Some(self.switch.recovery_stats())
    }

    fn inject_crash(
        &mut self,
        kind: CrashKind,
        survivor_seed: u64,
        reconnect_denials: u32,
        now: SimTime,
    ) {
        self.switch
            .inject_crash(kind, survivor_seed, reconnect_denials, now);
    }

    fn is_down(&self) -> bool {
        self.switch.is_down()
    }

    fn resync_stats(&self) -> Option<ResyncStats> {
        Some(self.switch.resync_stats())
    }

    fn contains_rule(&self, id: RuleId) -> Option<bool> {
        Some(self.switch.contains(id))
    }
}

/// Serial control-channel queueing on top of a [`ControlPlane`]: batches
/// submitted while the channel is busy wait their turn. Rule installation
/// time (RIT) as reported by the experiments is
/// `queueing delay + execution offset`.
#[derive(Debug)]
pub struct CpQueue<P> {
    plane: P,
    busy_until: SimTime,
}

impl<P: ControlPlane> CpQueue<P> {
    /// Wraps a control plane with an idle channel.
    pub fn new(plane: P) -> Self {
        CpQueue {
            plane,
            busy_until: SimTime::ZERO,
        }
    }

    /// The wrapped plane.
    pub fn plane(&self) -> &P {
        &self.plane
    }

    /// Mutable access to the wrapped plane.
    pub fn plane_mut(&mut self) -> &mut P {
        &mut self.plane
    }

    /// When the channel next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Submits a batch at `now`; returns the batch outcome and the absolute
    /// completion time of each op (start-of-service + offset).
    pub fn submit(&mut self, actions: &[ControlAction], now: SimTime) -> (SimTime, BatchOutcome) {
        let start = now.max(self.busy_until);
        let outcome = self.plane.apply_batch(actions, start);
        self.busy_until = start + outcome.total;
        (start, outcome)
    }

    /// Absolute RIT of one rule in a batch outcome submitted at `now` with
    /// the returned `start`.
    pub fn rit(now: SimTime, start: SimTime, op: &OpOutcome) -> SimDuration {
        (start + op.completed_at) - now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(1))
    }

    /// A plane whose every trait method records its own name (and returns
    /// the type's default).
    #[derive(Clone, Default)]
    struct Probe(std::rc::Rc<std::cell::RefCell<Vec<&'static str>>>);

    impl Probe {
        fn hit<T: Default>(&self, name: &'static str) -> T {
            self.0.borrow_mut().push(name);
            T::default()
        }
    }

    impl ControlPlane for Probe {
        fn name(&self) -> String {
            self.hit("name")
        }
        fn apply_batch(&mut self, _: &[ControlAction], _: SimTime) -> BatchOutcome {
            self.hit("apply_batch")
        }
        fn apply(&mut self, action: &ControlAction, _: SimTime) -> OpOutcome {
            self.hit::<()>("apply");
            let mut out = BatchOutcome::default();
            out.push(action.rule_id(), SimDuration::ZERO, false);
            out.ops[0]
        }
        fn occupancy(&self) -> usize {
            self.hit("occupancy")
        }
        fn tick(&mut self, _: SimTime) {
            self.hit("tick")
        }
        fn migrations(&self) -> u64 {
            self.hit("migrations")
        }
        fn end_warmup(&mut self) {
            self.hit("end_warmup")
        }
        fn recovery_stats(&self) -> Option<RecoveryStats> {
            self.hit("recovery_stats")
        }
        fn inject_crash(&mut self, _: CrashKind, _: u64, _: u32, _: SimTime) {
            self.hit("inject_crash")
        }
        fn is_down(&self) -> bool {
            self.hit("is_down")
        }
        fn resync_stats(&self) -> Option<ResyncStats> {
            self.hit("resync_stats")
        }
        fn contains_rule(&self, _: RuleId) -> Option<bool> {
            self.hit("contains_rule")
        }
    }

    /// Calls every [`ControlPlane`] method of `P` itself (no auto-deref).
    fn call_every_method<P: ControlPlane>(plane: &mut P) {
        plane.name();
        plane.apply_batch(&[], SimTime::ZERO);
        plane.apply(&ControlAction::Delete(RuleId(1)), SimTime::ZERO);
        plane.occupancy();
        plane.tick(SimTime::ZERO);
        plane.migrations();
        plane.end_warmup();
        plane.recovery_stats();
        plane.inject_crash(CrashKind::Wipe, 0, 0, SimTime::ZERO);
        plane.is_down();
        plane.resync_stats();
        plane.contains_rule(RuleId(1));
    }

    /// A trait method the `Box<dyn ControlPlane>` impl does not forward
    /// falls back to the trait default for every netsim plane. A method
    /// added to the trait belongs in `Probe` and in `call_every_method` —
    /// and in that impl, or this fails.
    #[test]
    fn boxed_plane_forwards_every_trait_method() {
        let (direct, boxed) = (Probe::default(), Probe::default());
        call_every_method(&mut direct.clone());
        call_every_method(&mut (Box::new(boxed.clone()) as Box<dyn ControlPlane>));
        assert_eq!(direct.0.borrow().len(), 12, "every method records itself");
        assert_eq!(boxed.0.take(), direct.0.take());
    }

    #[test]
    fn hermes_plane_reports_violations() {
        let mut plane =
            HermesPlane::with_config(SwitchModel::pica8_p3290(), HermesConfig::default()).unwrap();
        let out = plane.apply(
            &ControlAction::Insert(rule(1, "10.0.0.0/8", 5)),
            SimTime::ZERO,
        );
        assert!(!out.violated);
        assert!(out.exec <= SimDuration::from_ms(5.0));
        assert_eq!(plane.occupancy(), 1);
    }

    #[test]
    fn hermes_plane_batches_insert_runs() {
        let mk = || {
            HermesPlane::with_config(SwitchModel::pica8_p3290(), HermesConfig::default()).unwrap()
        };
        let actions: Vec<ControlAction> = (0..10)
            .map(|i| ControlAction::Insert(rule(i, &format!("10.{i}.0.0/16"), 100 + i as u32)))
            .collect();
        let mut grouped = mk();
        let out = grouped.apply_batch(&actions, SimTime::ZERO);
        assert_eq!(out.ops.len(), 10);
        for (op, action) in out.ops.iter().zip(&actions) {
            assert_eq!(op.id, action.rule_id(), "submission order preserved");
        }
        for w in out.ops.windows(2) {
            assert!(w[1].completed_at > w[0].completed_at);
        }
        assert_eq!(grouped.occupancy(), 10);
        // The same actions one at a time pay ten handshakes.
        let mut singly = mk();
        let mut singly_total = SimDuration::ZERO;
        for a in &actions {
            singly_total += singly.apply(a, SimTime::ZERO + singly_total).exec;
        }
        assert!(
            out.total < singly_total,
            "batched run must be cheaper: {} vs {}",
            out.total,
            singly_total
        );
        assert_eq!(grouped.occupancy(), singly.occupancy());
    }
}

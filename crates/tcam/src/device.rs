//! A switch ASIC: carved TCAM slices plus a performance model.
//!
//! Commercial switches expose *TCAM carving*: the monolithic TCAM is
//! subdivided into slices (Broadcom "groups", Cisco "regions") with
//! per-slice sizes, lookup keys and inter-slice priorities (§6). Hermes
//! needs exactly two capabilities from the SDK: (1) create two slices with
//! identical keys and chosen sizes, and (2) target control actions at a
//! specific slice. [`TcamDevice`] models that surface.
//!
//! Lookup walks the slices in carving order — for Hermes, shadow first,
//! then main. A miss falls through to the next slice, and a miss in the
//! last slice goes to the controller, which is how the paper preserves the
//! single-logical-table abstraction (§3, Fig. 3). A monolithic switch is
//! the one-slice case of the same walk.

use crate::fault::{CrashKind, CrashSpec, FaultDecision, FaultPlan, FaultStats};
use crate::perf::SwitchModel;
use crate::table::{BatchReport, TcamError, TcamOp, TcamTable};
use crate::time::SimDuration;
use hermes_rules::prelude::*;
use hermes_telemetry::names;
use hermes_util::rng::{stream, Rng, Salt};

/// One carved TCAM slice.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The slice's entry table.
    pub table: TcamTable,
}

/// Outcome of one control-plane action against a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpReport {
    /// Simulated latency charged for the action.
    pub latency: SimDuration,
    /// Entries physically shifted (insertions only).
    pub shifts: usize,
}

/// Outcome of one batched control-plane transaction against a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchOpReport {
    /// Simulated latency charged for the whole transaction (one handshake).
    pub latency: SimDuration,
    /// The table-level accounting (coalesced shifts, per-kind tallies).
    pub report: BatchReport,
}

/// The result of a packet lookup across the slice pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// A rule matched; the device applies its action.
    Matched {
        /// Index of the slice that terminated the lookup.
        slice: usize,
        /// The matching rule.
        rule: Rule,
    },
    /// The pipeline punted the packet to the controller.
    ToController,
}

impl LookupResult {
    /// The forwarding action, if a rule matched.
    pub fn action(&self) -> Option<Action> {
        match self {
            LookupResult::Matched { rule, .. } => Some(rule.action),
            _ => None,
        }
    }

    /// The matching rule, if any.
    pub fn rule(&self) -> Option<Rule> {
        match self {
            LookupResult::Matched { rule, .. } => Some(*rule),
            _ => None,
        }
    }
}

/// A switch ASIC: one or more TCAM slices sharing a performance model.
#[derive(Clone, Debug)]
pub struct TcamDevice {
    model: SwitchModel,
    slices: Vec<Slice>,
    fault: Option<FaultPlan>,
    /// `false` after a crash until the controller reconnects; every
    /// control-plane op fails with [`TcamError::Disconnected`] meanwhile.
    connected: bool,
    /// Reconnect attempts still to be denied (the switch is "booting").
    reconnect_denials: u32,
}

impl TcamDevice {
    /// A traditional single-table switch: the whole TCAM in one slice, a
    /// miss punted to the controller (OpenFlow's table-miss default).
    pub fn monolithic(model: SwitchModel) -> Self {
        let capacity = model.capacity;
        Self::carved(model, &[capacity])
    }

    /// Carves the TCAM into slices of the given sizes. The sum of sizes
    /// must not exceed the model's capacity; the slices are looked up in
    /// the given order.
    ///
    /// # Panics
    /// Panics if the sizes oversubscribe the TCAM.
    pub fn carved(model: SwitchModel, sizes: &[usize]) -> Self {
        let total: usize = sizes.iter().sum();
        assert!(
            total <= model.capacity,
            "carving {total} entries exceeds capacity {}",
            model.capacity
        );
        let placement = model.placement;
        TcamDevice {
            model,
            slices: (sizes.iter())
                .map(|&size| Slice {
                    table: TcamTable::new(size, placement),
                })
                .collect(),
            fault: None,
            connected: true,
            reconnect_denials: 0,
        }
    }

    /// Installs (or clears) a fault-injection plan on the control channel.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Injected-fault counters, when a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|p| p.stats())
    }

    /// `true` while the control session is up. Lookups (the data plane)
    /// keep working either way — a dead control channel does not stop the
    /// ASIC from forwarding with whatever the TCAM still holds.
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// One controller reconnect attempt. Returns `true` once the session
    /// is up; a still-booting device denies the first
    /// [`CrashSpec::reconnect_denials`] attempts. Idempotent when already
    /// connected.
    pub fn reconnect(&mut self) -> bool {
        if self.connected {
            return true;
        }
        if self.reconnect_denials > 0 {
            self.reconnect_denials -= 1;
            hermes_telemetry::counter(names::TCAM_CRASH_RECONNECT_DENIED, 1);
            return false;
        }
        self.connected = true;
        hermes_telemetry::counter(names::TCAM_CRASH_RECONNECTS, 1);
        true
    }

    /// Crashes the device right now: mangles the TCAM per the spec and
    /// tears down the control session until [`reconnect`](Self::reconnect)
    /// succeeds. The fault gate calls it for a plan's crash points; netsim
    /// and tests call it to schedule switch-down windows outside any plan.
    pub fn force_crash(&mut self, spec: CrashSpec) {
        self.connected = false;
        self.reconnect_denials = spec.reconnect_denials;
        let mut lost = 0u64;
        match spec.kind {
            CrashKind::Wipe => {
                hermes_telemetry::counter(names::TCAM_CRASH_WIPES, 1);
                for s in &mut self.slices {
                    lost += s.table.clear() as u64;
                }
            }
            CrashKind::Partial { survivor_prob } => {
                hermes_telemetry::counter(names::TCAM_CRASH_PARTIALS, 1);
                let mut rng = stream(spec.survivor_seed, Salt::CALLER);
                for s in &mut self.slices {
                    let dropped = s.table.retain(|_| {
                        let roll: f64 = rng.gen_range(0.0..1.0);
                        roll < survivor_prob
                    });
                    lost += dropped as u64;
                }
            }
            CrashKind::Disconnect => {
                hermes_telemetry::counter(names::TCAM_CRASH_DISCONNECTS, 1);
            }
        }
        if lost > 0 {
            hermes_telemetry::counter(names::TCAM_CRASH_ENTRIES_LOST, lost);
        }
    }

    /// The performance model.
    pub fn model(&self) -> &SwitchModel {
        &self.model
    }

    /// Number of slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Borrow a slice.
    pub fn slice(&self, idx: usize) -> &Slice {
        &self.slices[idx]
    }

    /// Total entries across all slices.
    pub fn total_entries(&self) -> usize {
        self.slices.iter().map(|s| s.table.len()).sum()
    }

    /// The one fault gate both control entry points pass, consulted at most
    /// once per device call and before the table is touched. A dead session
    /// rejects without consulting the plan, so the per-op fault stream is a
    /// pure function of the ops that actually reached the channel; every
    /// other call draws exactly one [`FaultDecision`].
    fn fault_gate(&mut self, any_insert: bool, any_delete: bool) -> Result<Gate, TcamError> {
        if !self.connected {
            return Err(TcamError::Disconnected);
        }
        let Some(plan) = self.fault.as_mut() else {
            return Ok(Gate::Proceed { spike: 1.0 });
        };
        match plan.decide(any_insert, any_delete) {
            FaultDecision::Normal => Ok(Gate::Proceed { spike: 1.0 }),
            FaultDecision::Crash(spec) => {
                self.force_crash(spec);
                Err(TcamError::Disconnected)
            }
            FaultDecision::Fail => {
                hermes_telemetry::counter(names::TCAM_FAULT_FAIL, 1);
                Err(TcamError::ChannelBusy)
            }
            FaultDecision::Outage => {
                hermes_telemetry::counter(names::TCAM_FAULT_OUTAGE, 1);
                Err(TcamError::Outage)
            }
            FaultDecision::Spike(spike) => {
                hermes_telemetry::counter(names::TCAM_FAULT_SPIKE, 1);
                Ok(Gate::Proceed { spike })
            }
            FaultDecision::SilentDrop => {
                hermes_telemetry::counter(names::TCAM_FAULT_SILENT_DROP, 1);
                Ok(Gate::Dropped)
            }
        }
    }

    /// Applies a control action to a specific slice, charging latency per
    /// the performance model.
    ///
    /// When a [`FaultPlan`] is installed the op may be transiently rejected
    /// ([`TcamError::ChannelBusy`] / [`TcamError::Outage`]), have its latency
    /// spiked, or — worst of all — be *silently dropped*: the device returns
    /// a plausible `Ok` report without applying anything, exactly like the
    /// lying firmware the paper measures (§2).
    pub fn apply(&mut self, slice: usize, action: &ControlAction) -> Result<OpReport, TcamError> {
        let is_delete = matches!(action, ControlAction::Delete(_));
        let gate = self.fault_gate(action.is_insert(), is_delete)?;
        let model = &self.model;
        let table = &mut self.slices[slice].table;
        let occupancy_before = table.len();
        let Gate::Proceed { spike } = gate else {
            // Ack with a plausible latency, apply nothing: what the op
            // costs when it shifts nothing.
            return Ok(OpReport {
                latency: op_latency(model, action, occupancy_before, 0),
                shifts: 0,
            });
        };
        // The occupancy the op's insert (if any) saw.
        let (occupancy, shifts) = match action {
            ControlAction::Insert(rule) => {
                let placed = table.insert(*rule)?;
                (placed.occupancy_before, placed.shifts)
            }
            ControlAction::Delete(id) => {
                table.delete(*id)?;
                (occupancy_before, 0)
            }
            ControlAction::Modify {
                id,
                action,
                priority: Some(priority),
            } => {
                // Priority changes are delete+insert; higher layers
                // (Hermes's Gate Keeper, §4.1) perform that conversion.
                let mut new_rule = table.delete(*id)?;
                if let Some(a) = action {
                    new_rule.action = *a;
                }
                new_rule.priority = *priority;
                let placed = table.insert(new_rule)?;
                (placed.occupancy_before, placed.shifts)
            }
            ControlAction::Modify {
                id,
                action,
                priority: None,
            } => {
                if let Some(a) = action {
                    table.modify_action(*id, *a)?;
                }
                (occupancy_before, 0)
            }
        };
        let latency = op_latency(model, action, occupancy, shifts);
        let latency = charge(spike, latency, 1, shifts);
        hermes_telemetry::observe(names::TCAM_OP_NS, latency.as_nanos());
        Ok(OpReport { latency, shifts })
    }

    /// Applies a whole [`TcamOp`] sequence to a slice as one control-plane
    /// transaction: one driver/ASIC handshake, one coalesced shift plan,
    /// one fault decision. The batch is atomic — a validation error (or an
    /// injected channel fault) leaves the slice untouched.
    ///
    /// Under an installed [`FaultPlan`] the whole transaction is subject
    /// to a *single* fault decision: a transient failure rejects the batch,
    /// a latency spike multiplies the batch latency, and a silent drop acks
    /// the batch with a plausible latency while applying none of it (the
    /// audit/reconcile sweep is what eventually heals that, same as for
    /// single ops). An empty batch is a free no-op that never reaches the
    /// channel.
    pub fn apply_batch(
        &mut self,
        slice: usize,
        ops: &[TcamOp],
    ) -> Result<BatchOpReport, TcamError> {
        let occupancy_before = self.slices[slice].table.len();
        if ops.is_empty() {
            return Ok(BatchOpReport {
                latency: SimDuration::ZERO,
                report: BatchReport {
                    occupancy_before,
                    ..BatchReport::default()
                },
            });
        }
        let gate = self.fault_gate(
            ops.iter().any(|o| matches!(o, TcamOp::Insert(_))),
            ops.iter().any(|o| matches!(o, TcamOp::Delete(_))),
        )?;
        let Gate::Proceed { spike } = gate else {
            // Ack the whole batch plausibly, apply nothing.
            let mut report = BatchReport {
                occupancy_before,
                ..BatchReport::default()
            };
            for op in ops {
                match op {
                    TcamOp::Insert(_) => report.inserts += 1,
                    TcamOp::Delete(_) => report.deletes += 1,
                    TcamOp::ModifyAction { .. } => report.modifies += 1,
                }
            }
            return Ok(BatchOpReport {
                latency: self.batch_latency(&report),
                report,
            });
        };
        let report = self.slices[slice].table.apply_batch(ops)?;
        let latency = charge(spike, self.batch_latency(&report), ops.len(), report.shifts);
        if hermes_telemetry::enabled() {
            hermes_telemetry::observe(names::TCAM_BATCH_NS, latency.as_nanos());
            hermes_telemetry::counter(names::TCAM_BATCH_OPS, 1);
            hermes_telemetry::counter(names::TCAM_BATCH_ENTRIES, ops.len() as u64);
            hermes_telemetry::counter(names::TCAM_BATCH_SHIFTS, report.shifts as u64);
            hermes_telemetry::counter(
                names::TCAM_BATCH_SAVED_SHIFTS,
                report.naive_shifts.saturating_sub(report.shifts) as u64,
            );
        }
        Ok(BatchOpReport { latency, report })
    }

    /// The model's price for a batch with this accounting.
    fn batch_latency(&self, r: &BatchReport) -> SimDuration {
        self.model.batch_latency(
            r.occupancy_before,
            r.shifts,
            r.inserts,
            r.deletes,
            r.modifies,
        )
    }

    /// Packet lookup through the slice pipeline.
    pub fn lookup(&mut self, packet: u128) -> LookupResult {
        let slices = &mut self.slices;
        walk_pipeline(slices.len(), |i| slices[i].table.lookup(packet))
    }

    /// Lookup without statistics (oracle/tests).
    pub fn peek(&self, packet: u128) -> LookupResult {
        walk_pipeline(self.slices.len(), |i| self.slices[i].table.peek(packet))
    }
}

/// What the fault gate lets a control call do.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Gate {
    /// Execute against the table and multiply the charged latency by
    /// `spike` (`1.0` when nothing was injected).
    Proceed {
        /// Latency multiplier.
        spike: f64,
    },
    /// Silent drop: ack with a plausible latency, apply nothing.
    Dropped,
}

/// The modeled latency of one control action whose insert (if any) saw
/// `occupancy` entries and shifted `shifts` of them. A priority modify is a
/// delete plus an insert; an action-only modify and a delete shift nothing.
fn op_latency(
    model: &SwitchModel,
    action: &ControlAction,
    occupancy: usize,
    shifts: usize,
) -> SimDuration {
    match action {
        ControlAction::Insert(_) => model.insert_latency(occupancy, shifts),
        ControlAction::Delete(_) => model.delete,
        ControlAction::Modify {
            priority: Some(_), ..
        } => model.delete + model.insert_latency(occupancy, shifts),
        ControlAction::Modify { priority: None, .. } => model.modify,
    }
}

/// The one tail of a call that reached the table: the volume counters
/// both entry points share, and the latency actually charged — the
/// model's figure, spiked when the gate said so.
fn charge(spike: f64, modeled: SimDuration, ops: usize, shifts: usize) -> SimDuration {
    if hermes_telemetry::enabled() {
        hermes_telemetry::counter(names::TCAM_OPS, ops as u64);
        hermes_telemetry::counter(names::TCAM_SHIFTS, shifts as u64);
    }
    if spike != 1.0 {
        modeled.mul_f64(spike)
    } else {
        modeled
    }
}

/// The pipeline rule, once: stages are consulted in order. A match ends
/// the walk unless its action is [`Action::GotoNextTable`]; a miss, like
/// that fall-through, continues to the next stage; walking off the end
/// punts to the controller. A stage is only consulted when the walk
/// reaches it, so per-stage lookup counters see exactly the packets that
/// got that far.
fn walk_pipeline(stages: usize, mut stage: impl FnMut(usize) -> Option<Rule>) -> LookupResult {
    for slice in 0..stages {
        match stage(slice) {
            Some(rule) if rule.action != Action::GotoNextTable => {
                return LookupResult::Matched { slice, rule }
            }
            _ => {}
        }
    }
    LookupResult::ToController
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use hermes_util::json::Json;

    fn rule(id: u64, pfx: &str, prio: u32, port: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(port))
    }

    /// A Pica8 carved the Hermes way: a 64-entry shadow in front of a main
    /// slice.
    fn shadow_main() -> TcamDevice {
        TcamDevice::carved(SwitchModel::pica8_p3290(), &[64, 1900])
    }

    fn pkt(addr: &str) -> u128 {
        let p: Ipv4Prefix = format!("{addr}/32").parse().unwrap();
        (p.addr() as u128) << 96
    }

    #[test]
    fn monolithic_insert_charges_latency() {
        let mut dev = TcamDevice::monolithic(SwitchModel::pica8_p3290());
        let r1 = dev
            .apply(0, &ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 1)))
            .unwrap();
        assert_eq!(r1.latency, dev.model().base); // empty table: no shifts
                                                  // Fill with descending priorities then insert at the top.
        for i in 2..100u64 {
            dev.apply(
                0,
                &ControlAction::Insert(rule(i, "10.0.0.0/8", 200 - i as u32, 1)),
            )
            .unwrap();
        }
        let top = dev
            .apply(
                0,
                &ControlAction::Insert(rule(1000, "10.0.0.0/8", 10_000, 1)),
            )
            .unwrap();
        assert_eq!(top.shifts, 99);
        assert!(top.latency > dev.model().base);
    }

    #[test]
    fn carved_slices_respect_sizes() {
        let model = SwitchModel::dell_8132f();
        let dev = TcamDevice::carved(model, &[50, 900]);
        assert_eq!(dev.slice_count(), 2);
        assert_eq!(dev.slice(0).table.capacity(), 50);
        assert_eq!(dev.slice(1).table.capacity(), 900);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn carving_cannot_oversubscribe() {
        let model = SwitchModel::dell_8132f();
        TcamDevice::carved(model, &[900, 900]);
    }

    #[test]
    fn pipeline_lookup_shadow_first() {
        let mut dev = shadow_main();
        dev.apply(1, &ControlAction::Insert(rule(1, "192.168.1.0/24", 1, 2)))
            .unwrap();
        // Miss in shadow falls through to main.
        assert_eq!(
            dev.lookup(pkt("192.168.1.5")).action(),
            Some(Action::Forward(2))
        );
        // A shadow entry takes precedence.
        dev.apply(0, &ControlAction::Insert(rule(2, "192.168.1.0/26", 5, 1)))
            .unwrap();
        assert_eq!(
            dev.lookup(pkt("192.168.1.5")).action(),
            Some(Action::Forward(1))
        );
        // Outside the /26 the main rule still serves.
        assert_eq!(
            dev.lookup(pkt("192.168.1.200")).action(),
            Some(Action::Forward(2))
        );
        // Total miss punts to controller.
        assert_eq!(dev.lookup(pkt("8.8.8.8")), LookupResult::ToController);
    }

    #[test]
    fn goto_next_table_action_falls_through() {
        let mut dev = shadow_main();
        // An explicit fall-through rule in the shadow.
        let fall = Rule::new(1, TernaryKey::ANY, Priority(1), Action::GotoNextTable);
        dev.apply(0, &ControlAction::Insert(fall)).unwrap();
        dev.apply(1, &ControlAction::Insert(rule(2, "10.0.0.0/8", 1, 7)))
            .unwrap();
        assert_eq!(
            dev.lookup(pkt("10.1.2.3")).action(),
            Some(Action::Forward(7))
        );
        assert_eq!(dev.lookup(pkt("11.1.2.3")), LookupResult::ToController);
    }

    /// The pipeline rule on the two shapes in use, one slice and shadow →
    /// main: a miss falls through every slice but the last, a miss in the
    /// last slice goes to the controller, and so does a `GotoNextTable`
    /// match there.
    #[test]
    fn misses_fall_through_and_the_last_slice_punts() {
        for mut dev in [
            TcamDevice::monolithic(SwitchModel::pica8_p3290()),
            shadow_main(),
        ] {
            let last = dev.slice_count() - 1;
            assert_eq!(dev.lookup(pkt("10.1.2.3")), LookupResult::ToController);
            dev.apply(last, &ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 7)))
                .unwrap();
            let hit = dev.peek(pkt("10.1.2.3"));
            assert_eq!(hit, dev.lookup(pkt("10.1.2.3")));
            assert_eq!(hit.action(), Some(Action::Forward(7)));
            assert!(matches!(hit, LookupResult::Matched { slice, .. } if slice == last));
            let goto = Rule::new(2, TernaryKey::ANY, Priority(1), Action::GotoNextTable);
            dev.apply(last, &ControlAction::Insert(goto)).unwrap();
            assert_eq!(dev.lookup(pkt("11.1.2.3")), LookupResult::ToController);
            assert_eq!(dev.peek(pkt("11.1.2.3")), LookupResult::ToController);
        }
    }

    #[test]
    fn delete_and_modify_costs() {
        let mut dev = TcamDevice::monolithic(SwitchModel::hp_5406zl());
        dev.apply(0, &ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 1)))
            .unwrap();
        let del_model = dev.model().delete;
        let mod_model = dev.model().modify;
        let m = dev
            .apply(
                0,
                &ControlAction::Modify {
                    id: RuleId(1),
                    action: Some(Action::Drop),
                    priority: None,
                },
            )
            .unwrap();
        assert_eq!(m.latency, mod_model);
        let d = dev.apply(0, &ControlAction::Delete(RuleId(1))).unwrap();
        assert_eq!(d.latency, del_model);
        assert!(dev.apply(0, &ControlAction::Delete(RuleId(1))).is_err());
    }

    #[test]
    fn priority_modify_is_delete_plus_insert() {
        let mut dev = TcamDevice::monolithic(SwitchModel::pica8_p3290());
        for i in 0..50u64 {
            dev.apply(
                0,
                &ControlAction::Insert(rule(i, "10.0.0.0/8", 100 - i as u32, 1)),
            )
            .unwrap();
        }
        let rep = dev
            .apply(
                0,
                &ControlAction::Modify {
                    id: RuleId(49),
                    action: None,
                    priority: Some(Priority(1000)),
                },
            )
            .unwrap();
        // Rule moved to the top: all other entries shifted.
        assert_eq!(rep.shifts, 49);
        assert_eq!(dev.slice(0).table.entries()[0].id, RuleId(49));
        assert!(rep.latency > dev.model().delete);
    }

    #[test]
    fn batched_apply_amortizes_handshake() {
        let mut dev = TcamDevice::monolithic(SwitchModel::pica8_p3290());
        for i in 0..100u64 {
            dev.apply(
                0,
                &ControlAction::Insert(rule(i, "10.0.0.0/8", 1000 - i as u32, 1)),
            )
            .unwrap();
        }
        let ops: Vec<TcamOp> = (0..10u64)
            .map(|i| TcamOp::Insert(rule(500 + i, "10.0.0.0/8", 5000 + i as u32, 1)))
            .collect();
        // Cost the same inserts singly against a copy of the device.
        let mut singly_dev = dev.clone();
        let mut singly = SimDuration::ZERO;
        for op in &ops {
            if let TcamOp::Insert(r) = op {
                singly += singly_dev
                    .apply(0, &ControlAction::Insert(*r))
                    .unwrap()
                    .latency;
            }
        }
        let rep = dev.apply_batch(0, &ops).unwrap();
        assert_eq!(rep.report.inserts, 10);
        assert!(rep.latency < singly, "{} not < {}", rep.latency, singly);
        assert_eq!(
            dev.slice(0).table.entries(),
            singly_dev.slice(0).table.entries(),
            "batched and per-op paths must converge on the same table"
        );
    }

    #[test]
    fn batched_apply_is_atomic_on_error() {
        let mut dev = TcamDevice::monolithic(SwitchModel::pica8_p3290());
        dev.apply(0, &ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 1)))
            .unwrap();
        let ops = vec![
            TcamOp::Insert(rule(2, "11.0.0.0/8", 6, 1)),
            TcamOp::Delete(RuleId(77)),
        ];
        assert_eq!(
            dev.apply_batch(0, &ops),
            Err(TcamError::NotFound(RuleId(77)))
        );
        assert_eq!(dev.slice(0).table.len(), 1);
        // Empty batch is a free no-op.
        let rep = dev.apply_batch(0, &[]).unwrap();
        assert_eq!(rep.latency, SimDuration::ZERO);
    }

    fn loaded_device(n: u64) -> TcamDevice {
        let mut dev = TcamDevice::monolithic(SwitchModel::pica8_p3290());
        for i in 0..n {
            dev.apply(
                0,
                &ControlAction::Insert(rule(i, "10.0.0.0/8", 2000 - i as u32, 1)),
            )
            .unwrap();
        }
        dev
    }

    #[test]
    fn wipe_crash_clears_tables_and_drops_session() {
        let mut dev = loaded_device(40);
        dev.force_crash(CrashSpec {
            kind: CrashKind::Wipe,
            survivor_seed: 0,
            reconnect_denials: 0,
        });
        assert!(!dev.is_connected());
        assert_eq!(dev.total_entries(), 0);
        assert_eq!(
            dev.apply(0, &ControlAction::Insert(rule(99, "11.0.0.0/8", 7, 1))),
            Err(TcamError::Disconnected)
        );
        // Data plane keeps running on (now-empty) state.
        assert_eq!(dev.peek(pkt("10.1.2.3")), LookupResult::ToController);
        assert!(dev.reconnect());
        assert!(dev.is_connected());
        dev.apply(0, &ControlAction::Insert(rule(99, "11.0.0.0/8", 7, 1)))
            .unwrap();
    }

    #[test]
    fn partial_crash_retains_seeded_survivor_subset() {
        let mut a = loaded_device(200);
        let mut b = a.clone();
        let spec = CrashSpec {
            kind: CrashKind::Partial { survivor_prob: 0.5 },
            survivor_seed: 1234,
            reconnect_denials: 0,
        };
        a.force_crash(spec);
        b.force_crash(spec);
        let kept = a.total_entries();
        assert!(
            kept > 0 && kept < 200,
            "p=0.5 keeps a strict subset, kept {kept}"
        );
        assert_eq!(
            a.slice(0).table.entries(),
            b.slice(0).table.entries(),
            "same survivor seed must keep the same subset"
        );
    }

    #[test]
    fn disconnect_crash_preserves_state_and_denies_reconnects() {
        let mut dev = loaded_device(10);
        dev.force_crash(CrashSpec {
            kind: CrashKind::Disconnect,
            survivor_seed: 0,
            reconnect_denials: 2,
        });
        assert_eq!(dev.total_entries(), 10, "disconnect loses nothing");
        assert_eq!(
            dev.apply_batch(0, &[TcamOp::Delete(RuleId(0))]),
            Err(TcamError::Disconnected)
        );
        assert!(!dev.reconnect(), "first attempt denied");
        assert!(!dev.reconnect(), "second attempt denied");
        assert!(dev.reconnect(), "third attempt lands");
        assert!(dev.is_connected());
        assert!(dev.reconnect(), "idempotent once connected");
        dev.apply(0, &ControlAction::Delete(RuleId(0))).unwrap();
    }

    /// What the gate decided for one call: the error (or ack), the
    /// `tcam.fault_*` counters moved, session state, the plan's stats and
    /// the table afterwards.
    #[derive(Debug, PartialEq)]
    struct Gated {
        error: Option<TcamError>,
        moved: Vec<String>,
        connected: bool,
        faults: Option<FaultStats>,
        table: Vec<Rule>,
    }

    /// One insert into a five-entry device under `plan`, through `apply` or
    /// a one-op `apply_batch`.
    fn through_gate(plan: &FaultPlan, batched: bool) -> Gated {
        let mut dev = loaded_device(5);
        dev.set_fault_plan(Some(plan.clone()));
        hermes_telemetry::set_enabled(true);
        hermes_telemetry::reset();
        let new_rule = rule(500, "12.0.0.0/8", 7, 1);
        let error = if batched {
            dev.apply_batch(0, &[TcamOp::Insert(new_rule)]).err()
        } else {
            dev.apply(0, &ControlAction::Insert(new_rule)).err()
        };
        let snapshot = hermes_telemetry::snapshot();
        let Some(Json::Obj(counters)) = snapshot.get("counters") else {
            panic!("no counters object in the telemetry snapshot");
        };
        Gated {
            error,
            moved: (counters.iter())
                .filter_map(|(name, _)| name.strip_prefix("tcam.fault_"))
                .map(String::from)
                .collect(),
            connected: dev.is_connected(),
            faults: dev.fault_stats(),
            table: dev.slice(0).table.entries(),
        }
    }

    /// A silently dropped op is acked at what the applied op costs when it
    /// shifts nothing, for every action kind. The plan drops only inserts
    /// and deletes (a modify passes it and applies), so the drop branch's
    /// price, `op_latency` at zero shifts, is also checked against every
    /// applied op directly.
    #[test]
    fn a_dropped_op_costs_what_the_applied_op_costs_without_shifts() {
        let model = SwitchModel::pica8_p3290();
        let (id, action) = (RuleId(0), Some(Action::Drop));
        let actions = [
            ControlAction::Insert(rule(500, "12.0.0.0/8", 7, 1)),
            ControlAction::Delete(id),
            ControlAction::Modify {
                id,
                action,
                priority: None,
            },
            ControlAction::Modify {
                id,
                action,
                priority: Some(Priority(7)),
            },
        ];
        for op in actions {
            let applied = loaded_device(5).apply(0, &op).unwrap();
            assert_eq!(applied.shifts, 0, "{op:?} lands at the bottom");
            let priced = op_latency(&model, &op, 5, 0);
            assert_eq!(priced, applied.latency, "{op:?}");
            let mut dev = loaded_device(5);
            let mut plan = FaultPlan::quiet(11);
            plan.silent_drop_prob = 1.0;
            dev.set_fault_plan(Some(plan));
            assert_eq!(
                dev.apply(0, &op).unwrap().latency,
                applied.latency,
                "{op:?}"
            );
            let dropped = op.is_insert() || matches!(op, ControlAction::Delete(_));
            let drops = dev.fault_stats().map(|s| s.silent_drops);
            assert_eq!(drops, Some(u64::from(dropped)), "{op:?}");
        }
    }

    /// The gate's contract: `apply` and `apply_batch` share one preamble,
    /// so from identical plans they agree on everything the gate decides.
    #[test]
    fn both_entry_points_pass_the_same_fault_gate() {
        type Arm = fn(&mut FaultPlan);
        type E = TcamError;
        // (the `tcam.fault_*` counter the first draw moves, how to make it
        // that kind of draw, the error it surfaces as)
        let cases: [(&str, Arm, Option<E>); 6] = [
            ("", |_| {}, None),
            ("fail", |p| p.write_fail_prob = 1.0, Some(E::ChannelBusy)),
            ("silent_drop", |p| p.silent_drop_prob = 1.0, None),
            ("spike", |p| p.latency_spike_prob = 1.0, None),
            (
                "outage",
                |p| (p.outage_period, p.outage_len) = (1, 1),
                Some(E::Outage),
            ),
            (
                "",
                |p| (p.crash_period, p.crash_wipe_prob) = (1, 1.0),
                Some(E::Disconnected),
            ),
        ];
        let before = loaded_device(5).slice(0).table.entries();
        for (counter, arm, error) in cases {
            let mut plan = FaultPlan::quiet(11);
            arm(&mut plan);
            let single = through_gate(&plan, false);
            assert_eq!(single, through_gate(&plan, true), "{counter} {error:?}");
            assert_eq!(single.error, error);
            assert_eq!(single.moved.concat(), counter, "{error:?}");
            let faults = single.faults.expect("a plan is installed");
            assert_eq!(faults.ops_seen, 1, "one draw per call");
            assert_eq!(faults.crashes, u64::from(error == Some(E::Disconnected)));
            assert_eq!(single.connected, error != Some(E::Disconnected));
            match (counter, error) {
                ("" | "spike", None) => assert_eq!(single.table.len(), before.len() + 1),
                (_, Some(E::Disconnected)) => assert!(single.table.is_empty(), "wiped"),
                _ => assert_eq!(single.table, before, "{counter}: table untouched"),
            }
        }
    }

    /// Zero draws: a dead session and an empty batch never reach the plan.
    #[test]
    fn dead_session_and_empty_batch_do_not_consult_the_plan() {
        let mut dev = loaded_device(3);
        dev.set_fault_plan(Some(FaultPlan::crashy(5)));
        assert!(dev.apply_batch(0, &[]).is_ok());
        dev.force_crash(CrashSpec {
            kind: CrashKind::Disconnect,
            survivor_seed: 0,
            reconnect_denials: 0,
        });
        let del = ControlAction::Delete(RuleId(0));
        assert_eq!(dev.apply(0, &del), Err(TcamError::Disconnected));
        assert_eq!(
            dev.apply_batch(0, &[TcamOp::Delete(RuleId(0))]),
            Err(TcamError::Disconnected)
        );
        assert!(
            dev.apply_batch(0, &[]).is_ok(),
            "an empty batch is free even on a dead session"
        );
        assert_eq!(dev.fault_stats(), Some(FaultStats::default()));
    }

    #[test]
    fn planned_crash_fires_through_apply() {
        let mut dev = loaded_device(5);
        let mut plan = FaultPlan::quiet(3);
        plan.crash_period = 3;
        plan.crash_wipe_prob = 1.0; // always a wipe
        dev.set_fault_plan(Some(plan));
        let mut crashed_at = None;
        for i in 0u64..10 {
            let res = dev.apply(0, &ControlAction::Insert(rule(100 + i, "12.0.0.0/8", 7, 1)));
            if res == Err(TcamError::Disconnected) {
                crashed_at = Some(i);
                break;
            }
        }
        assert_eq!(crashed_at, Some(2), "third op hits the crash point");
        assert!(!dev.is_connected());
        assert_eq!(dev.total_entries(), 0);
        assert_eq!(dev.fault_stats().map(|s| s.crashes), Some(1));
    }
}

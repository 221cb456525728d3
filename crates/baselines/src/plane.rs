//! The unmodified switch behind the shared control-plane abstraction.
//!
//! [`ControlPlane`], its outcome types, [`HermesPlane`] and [`CpQueue`] live
//! in `hermes_core::plane`; they are re-exported here so comparison code
//! imports every plane from one crate.

pub use hermes_core::plane::{BatchOutcome, ControlPlane, CpQueue, HermesPlane, OpOutcome};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel, TcamDevice};

/// Runs one action against a baseline's monolithic table: its latency, or
/// the nominal rejection cost when the switch refuses it (full table /
/// missing rule — the agent reports an error to the controller).
pub(crate) fn exec_on(device: &mut TcamDevice, action: &ControlAction) -> SimDuration {
    device
        .apply(0, action)
        .map_or(BatchOutcome::REJECTION_COST, |rep| rep.latency)
}

/// The unmodified switch: actions execute in submission order against a
/// monolithic table. This is the paper's "Pica8 P-3290 / Dell 8132F /
/// HP 5406zl" comparison point.
#[derive(Debug)]
pub struct RawSwitch {
    device: TcamDevice,
    label: String,
}

impl RawSwitch {
    /// A raw switch over the given model.
    pub fn new(model: SwitchModel) -> Self {
        let label = model.name.clone();
        RawSwitch {
            device: TcamDevice::monolithic(model),
            label,
        }
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &TcamDevice {
        &self.device
    }
}

impl ControlPlane for RawSwitch {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], _now: SimTime) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for action in actions {
            out.push(action.rule_id(), exec_on(&mut self.device, action), false);
        }
        out
    }

    fn occupancy(&self) -> usize {
        self.device.total_entries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(1))
    }

    #[test]
    fn raw_switch_serial_latency_accumulates() {
        let mut raw = RawSwitch::new(SwitchModel::pica8_p3290());
        let actions: Vec<ControlAction> = (0..10)
            .map(|i| ControlAction::Insert(rule(i, "10.0.0.0/8", 100 + i as u32)))
            .collect();
        let out = raw.apply_batch(&actions, SimTime::ZERO);
        assert_eq!(out.ops.len(), 10);
        // Offsets strictly increase.
        for w in out.ops.windows(2) {
            assert!(w[1].completed_at > w[0].completed_at);
        }
        assert_eq!(out.total, out.ops.last().unwrap().completed_at);
        assert_eq!(raw.occupancy(), 10);
    }

    #[test]
    fn raw_switch_reports_errors_cheaply() {
        let mut raw = RawSwitch::new(SwitchModel::pica8_p3290());
        let out = raw.apply(&ControlAction::Delete(RuleId(42)), SimTime::ZERO);
        assert_eq!(out.exec, BatchOutcome::REJECTION_COST);
        assert_eq!(raw.occupancy(), 0);
    }

    #[test]
    fn queue_serializes_batches() {
        let mut q = CpQueue::new(RawSwitch::new(SwitchModel::pica8_p3290()));
        let b1: Vec<ControlAction> = (0..5)
            .map(|i| ControlAction::Insert(rule(i, "10.0.0.0/8", 10 + i as u32)))
            .collect();
        let (s1, o1) = q.submit(&b1, SimTime::ZERO);
        assert_eq!(s1, SimTime::ZERO);
        // Second batch arrives while the first is still executing.
        let b2 = vec![ControlAction::Insert(rule(99, "11.0.0.0/8", 5))];
        let arrival = SimTime::from_nanos(1);
        let (s2, o2) = q.submit(&b2, arrival);
        assert_eq!(
            s2,
            SimTime::ZERO + o1.total,
            "second batch waits for the channel"
        );
        let rit = CpQueue::<RawSwitch>::rit(arrival, s2, &o2.ops[0]);
        assert!(rit > o2.ops[0].exec, "RIT includes queueing delay");
    }
}

//! ShadowSwitch \[26\]: the *software*-table design point.
//!
//! The paper's closest relative: instead of carving a hardware shadow
//! slice, ShadowSwitch absorbs insertions into a software table (fast to
//! update — microseconds) and migrates entries to the TCAM in the
//! background. The trade-off is on the *data plane*: packets matching only
//! software-resident rules traverse the switch CPU's slow path until the
//! hardware copy lands.
//!
//! Hermes explicitly explores the other side of this trade-off (§9:
//! "the use of a hardware-based table enables Hermes to explore an
//! alternate point in the design space"). This implementation makes the
//! comparison concrete: control-plane RIT is nearly free, and the
//! [`slow_path_fraction`](ShadowSwitch::slow_path_fraction) telemetry
//! exposes the data-plane price Hermes never pays.

use crate::plane::{exec_on, BatchOutcome, ControlPlane};
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel, TcamDevice};
use std::collections::VecDeque;

/// The ShadowSwitch agent: software table + hardware TCAM.
#[derive(Debug)]
pub struct ShadowSwitch {
    device: TcamDevice,
    /// Rules resident only in software, in arrival order.
    software: VecDeque<Rule>,
    /// Cost of a software-table update.
    software_insert: SimDuration,
    /// The hardware keeps migrating in the background; it is busy until
    /// this instant.
    hw_busy_until: SimTime,
    label: String,
    /// Lookups served from the software slow path / total lookups.
    slow_path_hits: u64,
    lookups: u64,
}

impl ShadowSwitch {
    /// ShadowSwitch fronting the given hardware model.
    pub fn new(model: SwitchModel) -> Self {
        let label = format!("ShadowSwitch ({})", model.name);
        ShadowSwitch {
            device: TcamDevice::monolithic(model),
            software: VecDeque::new(),
            software_insert: SimDuration::from_us(20.0),
            hw_busy_until: SimTime::ZERO,
            label,
            slow_path_hits: 0,
            lookups: 0,
        }
    }

    /// Fraction of lookups that hit the software slow path.
    pub fn slow_path_fraction(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.slow_path_hits as f64 / self.lookups as f64
        }
    }

    /// Background migration: move software rules into the TCAM while the
    /// hardware is free, up to `now`.
    fn drain(&mut self, now: SimTime) {
        // The hardware migrates continuously whenever it is free: each
        // write advances the busy horizon by its own latency, and as long
        // as the horizon has not passed `now` there was real time in which
        // the write happened.
        while let Some(rule) = self.software.front().copied() {
            if self.hw_busy_until > now {
                break;
            }
            match self.device.apply(0, &ControlAction::Insert(rule)) {
                Ok(rep) => {
                    self.hw_busy_until += rep.latency;
                    self.software.pop_front();
                }
                Err(_) => break, // TCAM full: rules stay in software
            }
        }
        if self.hw_busy_until < now {
            self.hw_busy_until = now; // idle horizon catches up
        }
    }

    /// Data-plane lookup: hardware first; on miss, the software table
    /// (slow path).
    pub fn lookup(&mut self, packet: u128) -> Option<Action> {
        self.lookups += 1;
        let hw = self.device.peek(packet).rule();
        let sw = self
            .software
            .iter()
            .filter(|r| r.key.matches(packet))
            .max_by_key(|r| r.priority);
        match (hw, sw) {
            // Software rules may shadow hardware ones (they are newer):
            // the hardware match stands unless a software match outranks
            // it.
            (Some(hw), Some(sw)) if sw.priority <= hw.priority => Some(hw.action),
            (Some(hw), None) => Some(hw.action),
            (_, Some(sw)) => {
                self.slow_path_hits += 1;
                Some(sw.action)
            }
            (None, None) => None,
        }
    }
}

impl ControlPlane for ShadowSwitch {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], now: SimTime) -> BatchOutcome {
        self.drain(now);
        let mut out = BatchOutcome::default();
        for action in actions {
            let exec = match action {
                ControlAction::Insert(rule) => {
                    self.software.push_back(*rule);
                    self.software_insert
                }
                ControlAction::Delete(id) => {
                    if let Some(pos) = self.software.iter().position(|r| r.id == *id) {
                        self.software.remove(pos);
                        self.software_insert
                    } else {
                        exec_on(&mut self.device, action)
                    }
                }
                ControlAction::Modify { id, .. } => {
                    if let Some(sw) = self.software.iter_mut().find(|r| r.id == *id) {
                        if let ControlAction::Modify {
                            action: Some(a), ..
                        } = action
                        {
                            sw.action = *a;
                        }
                        self.software_insert
                    } else {
                        exec_on(&mut self.device, action)
                    }
                }
            };
            out.push(action.rule_id(), exec, false);
        }
        self.drain(now + out.total);
        out
    }

    fn occupancy(&self) -> usize {
        self.device.total_entries() + self.software.len()
    }

    fn tick(&mut self, now: SimTime) {
        self.drain(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(id: u64, pfx: &str, prio: u32, port: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(port))
    }

    fn pkt(s: &str) -> u128 {
        let p: Ipv4Prefix = format!("{s}/32").parse().unwrap();
        (p.addr() as u128) << 96
    }

    #[test]
    fn inserts_are_software_fast() {
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        let batch: Vec<ControlAction> = (0..100)
            .map(|i| ControlAction::Insert(rule(i, "10.0.0.0/8", 100 + i as u32, 1)))
            .collect();
        let out = ss.apply_batch(&batch, SimTime::ZERO);
        for op in &out.ops {
            assert_eq!(op.exec, SimDuration::from_us(20.0));
        }
    }

    #[test]
    fn software_rules_visible_immediately_via_slow_path() {
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        ss.apply_batch(
            &[ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 7))],
            SimTime::ZERO,
        );
        assert_eq!(ss.lookup(pkt("10.1.1.1")), Some(Action::Forward(7)));
        assert!(ss.slow_path_fraction() > 0.0 || ss.software.is_empty());
    }

    #[test]
    fn background_migration_drains_software() {
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        let batch: Vec<ControlAction> = (0..50)
            .map(|i| ControlAction::Insert(rule(i, "10.0.0.0/8", 100 + i as u32, 1)))
            .collect();
        ss.apply_batch(&batch, SimTime::ZERO);
        // Give the hardware plenty of background time.
        ss.tick(SimTime::from_secs(60.0));
        assert!(ss.software.is_empty(), "software table should drain");
        // Now lookups are pure fast path.
        let before = ss.slow_path_hits;
        ss.lookup(pkt("10.1.1.1"));
        assert_eq!(ss.slow_path_hits, before);
    }

    #[test]
    fn newer_software_rule_wins_over_hardware() {
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        ss.apply_batch(
            &[ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 1))],
            SimTime::ZERO,
        );
        ss.tick(SimTime::from_secs(10.0)); // rule 1 now in hardware
                                           // Higher-priority update arrives in software.
        ss.apply_batch(
            &[ControlAction::Insert(rule(2, "10.0.0.0/9", 9, 2))],
            SimTime::from_secs(10.0),
        );
        assert_eq!(ss.lookup(pkt("10.1.1.1")), Some(Action::Forward(2)));
    }

    #[test]
    fn delete_from_software_and_hardware() {
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        ss.apply_batch(
            &[ControlAction::Insert(rule(1, "10.0.0.0/8", 5, 1))],
            SimTime::ZERO,
        );
        // Still in software: delete there.
        ss.apply_batch(&[ControlAction::Delete(RuleId(1))], SimTime::ZERO);
        assert_eq!(ss.occupancy(), 0);
        // Hardware-resident delete.
        ss.apply_batch(
            &[ControlAction::Insert(rule(2, "11.0.0.0/8", 5, 1))],
            SimTime::ZERO,
        );
        ss.tick(SimTime::from_secs(10.0));
        ss.apply_batch(
            &[ControlAction::Delete(RuleId(2))],
            SimTime::from_secs(10.0),
        );
        assert_eq!(ss.occupancy(), 0);
    }
}

//! ESPRES \[51\]: transparent SDN update scheduling.
//!
//! ESPRES improves rule-installation latency without touching the switch
//! hardware: it **reorders** the updates in a batch so that the switch
//! performs less TCAM shifting. Deletions run first (they are cheap and
//! free space), then insertions are ordered to match the switch's entry
//! packing — descending priority for low-packed TCAMs (each insert
//! appends), ascending for high-packed ones.
//!
//! Unlike Tango, ESPRES never rewrites rules, and unlike Hermes it offers
//! no guarantee: as the table fills up, even optimally-ordered insertions
//! slow down — the divergence the paper shows in Fig. 11.

use crate::plane::{exec_on, BatchOutcome, ControlPlane};
use hermes_rules::prelude::*;
use hermes_tcam::{PlacementStrategy, SimTime, SwitchModel, TcamDevice};

/// The ESPRES scheduler over a monolithic switch.
#[derive(Debug)]
pub struct EspresSwitch {
    device: TcamDevice,
    label: String,
}

impl EspresSwitch {
    /// ESPRES fronting the given switch model.
    pub fn new(model: SwitchModel) -> Self {
        let label = format!("ESPRES ({})", model.name);
        EspresSwitch {
            device: TcamDevice::monolithic(model),
            label,
        }
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &TcamDevice {
        &self.device
    }

    /// Orders a batch for cheap execution on this switch: deletes first,
    /// then inserts in the packing-friendly priority order, then modifies.
    pub fn schedule(&self, actions: &[ControlAction]) -> Vec<ControlAction> {
        let mut deletes = Vec::new();
        let mut inserts = Vec::new();
        let mut modifies = Vec::new();
        for a in actions {
            match a {
                ControlAction::Delete(_) => deletes.push(*a),
                ControlAction::Insert(_) => inserts.push(*a),
                ControlAction::Modify { .. } => modifies.push(*a),
            }
        }
        let ascending = |a: &ControlAction| match a {
            ControlAction::Insert(r) => r.priority,
            _ => Priority::NONE,
        };
        match self.device.model().placement {
            // Low-packed: the lowest-priority entry lives at the end, so
            // installing high→low priority makes every insert an append.
            PlacementStrategy::PackedLow => {
                inserts.sort_by_key(|a| std::cmp::Reverse(ascending(a)))
            }
            // High-packed: the opposite.
            PlacementStrategy::PackedHigh => inserts.sort_by_key(ascending),
            // Balanced packing: alternate extremes so each insert lands
            // near an edge.
            PlacementStrategy::Balanced => {
                inserts.sort_by_key(ascending);
                let mut rest = std::collections::VecDeque::from(inserts);
                inserts = (0..rest.len())
                    .filter_map(|i| {
                        if i % 2 == 0 {
                            rest.pop_back()
                        } else {
                            rest.pop_front()
                        }
                    })
                    .collect();
            }
        }
        deletes.into_iter().chain(inserts).chain(modifies).collect()
    }
}

impl ControlPlane for EspresSwitch {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], _now: SimTime) -> BatchOutcome {
        let scheduled = self.schedule(actions);
        let mut out = BatchOutcome::default();
        for action in &scheduled {
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
    use crate::plane::RawSwitch;

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(1))
    }

    fn ascending_batch(n: u64) -> Vec<ControlAction> {
        // Worst case for a PackedLow switch: ascending priorities make every
        // naive insert shift the whole table.
        (0..n)
            .map(|i| ControlAction::Insert(rule(i, "10.0.0.0/8", 10 + i as u32)))
            .collect()
    }

    #[test]
    fn schedule_puts_deletes_first() {
        let e = EspresSwitch::new(SwitchModel::pica8_p3290());
        let batch = vec![
            ControlAction::Insert(rule(1, "10.0.0.0/8", 5)),
            ControlAction::Delete(RuleId(9)),
            ControlAction::Insert(rule(2, "10.0.0.0/8", 6)),
        ];
        let s = e.schedule(&batch);
        assert!(matches!(s[0], ControlAction::Delete(_)));
    }

    #[test]
    fn reordering_beats_naive_on_adversarial_batch() {
        let batch = ascending_batch(200);
        let mut raw = RawSwitch::new(SwitchModel::pica8_p3290());
        let naive = raw.apply_batch(&batch, SimTime::ZERO);
        let mut espres = EspresSwitch::new(SwitchModel::pica8_p3290());
        let scheduled = espres.apply_batch(&batch, SimTime::ZERO);
        assert!(
            scheduled.total < naive.total / 2,
            "ESPRES {:?} should be far cheaper than naive {:?}",
            scheduled.total,
            naive.total
        );
        // Same resulting table contents.
        assert_eq!(raw.occupancy(), espres.occupancy());
    }

    #[test]
    fn ascending_order_for_packed_high() {
        let e = EspresSwitch::new(SwitchModel::dell_8132f()); // PackedHigh
        let batch = ascending_batch(10);
        let s = e.schedule(&batch);
        let prios: Vec<u32> = s
            .iter()
            .map(|a| match a {
                ControlAction::Insert(r) => r.priority.0,
                _ => 0,
            })
            .collect();
        let mut sorted = prios.clone();
        sorted.sort_unstable();
        assert_eq!(prios, sorted, "PackedHigh wants ascending priority order");
    }

    #[test]
    fn balanced_alternates_extremes() {
        let e = EspresSwitch::new(SwitchModel::hp_5406zl()); // Balanced
        let batch = ascending_batch(6);
        let s = e.schedule(&batch);
        let prios: Vec<u32> = s
            .iter()
            .map(|a| match a {
                ControlAction::Insert(r) => r.priority.0,
                _ => 0,
            })
            .collect();
        // First pick is the highest priority, second the lowest.
        assert_eq!(prios[0], 15);
        assert_eq!(prios[1], 10);
        assert_eq!(prios.len(), 6);
    }

    #[test]
    fn semantics_preserved_under_reordering() {
        use hermes_rules::fields::DST_SHIFT;
        let batch = vec![
            ControlAction::Insert(rule(1, "192.168.1.0/24", 1)),
            ControlAction::Insert(rule(2, "192.168.1.0/26", 9)),
        ];
        let mut raw = RawSwitch::new(SwitchModel::pica8_p3290());
        raw.apply_batch(&batch, SimTime::ZERO);
        let mut espres = EspresSwitch::new(SwitchModel::pica8_p3290());
        espres.apply_batch(&batch, SimTime::ZERO);
        for addr in [0xc0a80105u32, 0xc0a801c8] {
            let pkt = (addr as u128) << DST_SHIFT;
            assert_eq!(
                raw.device().peek(pkt).rule(),
                espres.device().peek(pkt).rule()
            );
        }
    }
}

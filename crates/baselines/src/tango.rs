//! Tango \[43\]: switch-property inference, reordering *and* rule rewriting.
//!
//! Tango goes one step beyond ESPRES: besides ordering updates to match the
//! inferred switch behaviour, it **rewrites the rules being inserted** —
//! aggregating same-action, same-priority rules (exploiting the structure
//! of data-center IP allocation) so that fewer TCAM entries are written.
//! That extra degree of freedom is why Tango beats ESPRES at the tail in
//! the paper's Fig. 10, and why the gap is larger on the Facebook trace
//! (aggregatable data-center addressing) than on Geant (ISP prefixes).
//!
//! Like ESPRES, Tango offers no guarantee: the table still fills up and
//! insertions still slow down.
//!
//! Deletion of an aggregated rule splits the aggregate: the merged entry is
//! removed and the surviving members are reinstalled individually (Tango
//! itself is an install-time optimizer; this is the natural completion of
//! its bookkeeping).

use crate::espres::packing_order;
use crate::plane::{exec_on, BatchOutcome, ControlPlane, OpOutcome};
use hermes_rules::merge::minimize_keys;
use hermes_rules::prelude::*;
use hermes_tcam::{SimTime, SwitchModel, TcamDevice};
use std::collections::BTreeMap;

/// Physical ids for aggregated entries live above this bit.
const AGG_BASE: u64 = 1 << 61;

/// The Tango optimizer over a monolithic switch.
#[derive(Debug)]
pub struct TangoSwitch {
    device: TcamDevice,
    label: String,
    /// physical entry id → logical member rules (for aggregates).
    members: BTreeMap<RuleId, Vec<Rule>>,
    /// logical id → physical entry id.
    locate: BTreeMap<RuleId, RuleId>,
    next_agg: u64,
}

impl TangoSwitch {
    /// Tango fronting the given switch model.
    pub fn new(model: SwitchModel) -> Self {
        let label = format!("Tango ({})", model.name);
        TangoSwitch {
            device: TcamDevice::monolithic(model),
            label,
            members: BTreeMap::new(),
            locate: BTreeMap::new(),
            next_agg: AGG_BASE,
        }
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &TcamDevice {
        &self.device
    }

    /// Groups batch inserts by `(priority, action)` and minimizes each
    /// group's keys. Returns `(physical rules to write, members per
    /// physical rule)`.
    fn aggregate(&mut self, inserts: &[Rule]) -> Vec<(Rule, Vec<Rule>)> {
        let mut groups: BTreeMap<(u32, Action), Vec<Rule>> = BTreeMap::new();
        for r in inserts {
            groups.entry((r.priority.0, r.action)).or_default().push(*r);
        }
        let mut out = Vec::new();
        // The map's own order: ascending priority, then action.
        for (gk, group) in groups {
            if group.len() == 1 {
                out.push((group[0], vec![group[0]]));
                continue;
            }
            let minimized = minimize_keys(group.iter().map(|r| r.key).collect());
            if minimized.len() == group.len() {
                // Nothing merged: install originals under their own ids.
                for r in group {
                    out.push((r, vec![r]));
                }
                continue;
            }
            // Assign each original rule to the minimized key containing it.
            let mut buckets: Vec<Vec<Rule>> = vec![Vec::new(); minimized.len()];
            for r in &group {
                let idx = minimized
                    .iter()
                    .position(|k| k.contains(&r.key))
                    .expect("INVARIANT: minimize() returns a cover of every member key");
                buckets[idx].push(*r);
            }
            for (key, members) in minimized.into_iter().zip(buckets) {
                if members.len() == 1 && members[0].key == key {
                    out.push((members[0], members));
                } else {
                    let phys = Rule {
                        id: RuleId(self.next_agg),
                        key,
                        priority: Priority(gk.0),
                        action: gk.1,
                    };
                    self.next_agg += 1;
                    out.push((phys, members));
                }
            }
        }
        out
    }

    fn delete_logical(&mut self, id: RuleId, out: &mut BatchOutcome) {
        let Some(phys_id) = self.locate.remove(&id) else {
            out.push(id, BatchOutcome::REJECTION_COST, false);
            return;
        };
        let mut members = self.members.remove(&phys_id).unwrap_or_default();
        members.retain(|m| m.id != id);
        // Remove the physical entry.
        let mut exec = exec_on(&mut self.device, &ControlAction::Delete(phys_id));
        // Reinstall surviving members individually.
        for m in members {
            if let Ok(rep) = self.device.apply(0, &ControlAction::Insert(m)) {
                exec += rep.latency;
                self.locate.insert(m.id, m.id);
                self.members.insert(m.id, vec![m]);
            }
        }
        out.push(id, exec, false);
    }
}

impl ControlPlane for TangoSwitch {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn apply_batch(&mut self, actions: &[ControlAction], _now: SimTime) -> BatchOutcome {
        let mut out = BatchOutcome::default();

        // Deletes first (cheap, frees space).
        for a in actions {
            if let ControlAction::Delete(id) = a {
                self.delete_logical(*id, &mut out);
            }
        }

        // Aggregate + order the inserts.
        let inserts: Vec<Rule> = actions
            .iter()
            .filter_map(|a| match a {
                ControlAction::Insert(r) if !self.locate.contains_key(&r.id) => Some(*r),
                _ => None,
            })
            .collect();
        let placement = self.device.model().placement;
        let physical = packing_order(placement, self.aggregate(&inserts), |(r, _)| r.priority);
        for (phys, members) in physical {
            let exec = exec_on(&mut self.device, &ControlAction::Insert(phys));
            // Every member completes when its physical entry lands; report
            // one op per member (each member's installation time is the
            // aggregate write's latency — the saving is that one write
            // covers them all, so only the first advances the channel).
            out.push(members[0].id, exec, false);
            let written = out.ops[out.ops.len() - 1];
            for m in &members[1..] {
                out.ops.push(OpOutcome {
                    id: m.id,
                    ..written
                });
            }
            for m in &members {
                self.locate.insert(m.id, phys.id);
            }
            self.members.insert(phys.id, members);
        }

        // Modifications pass through unchanged.
        for a in actions {
            if let ControlAction::Modify {
                id,
                action,
                priority,
            } = a
            {
                let target = ControlAction::Modify {
                    id: self.locate.get(id).copied().unwrap_or(*id),
                    action: *action,
                    priority: *priority,
                };
                out.push(*id, exec_on(&mut self.device, &target), false);
            }
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
    use crate::espres::EspresSwitch;
    use hermes_rules::fields::DST_SHIFT;

    fn rule(id: u64, pfx: &str, prio: u32, port: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(port))
    }

    #[test]
    fn aggregates_sibling_prefixes() {
        let mut tango = TangoSwitch::new(SwitchModel::pica8_p3290());
        // Four /26 siblings with the same action: one TCAM entry.
        let batch: Vec<ControlAction> = (0..4u64)
            .map(|i| {
                let addr = format!("10.0.0.{}/26", i * 64);
                ControlAction::Insert(rule(i, &addr, 5, 7))
            })
            .collect();
        let out = tango.apply_batch(&batch, SimTime::ZERO);
        assert_eq!(
            tango.occupancy(),
            1,
            "4 siblings must aggregate to one entry"
        );
        assert_eq!(out.ops.len(), 4, "every logical rule still gets an outcome");
        // Lookup semantics: all four /26s forward to port 7.
        let pkt = (0x0a0000c1u32 as u128) << DST_SHIFT;
        assert_eq!(tango.device().peek(pkt).action(), Some(Action::Forward(7)));
    }

    #[test]
    fn different_actions_do_not_aggregate() {
        let mut tango = TangoSwitch::new(SwitchModel::pica8_p3290());
        let batch = vec![
            ControlAction::Insert(rule(1, "10.0.0.0/25", 5, 1)),
            ControlAction::Insert(rule(2, "10.0.0.128/25", 5, 2)),
        ];
        tango.apply_batch(&batch, SimTime::ZERO);
        assert_eq!(tango.occupancy(), 2);
    }

    #[test]
    fn delete_of_aggregate_member_splits() {
        let mut tango = TangoSwitch::new(SwitchModel::pica8_p3290());
        let batch: Vec<ControlAction> = (0..2u64)
            .map(|i| ControlAction::Insert(rule(i, &format!("10.0.0.{}/25", i * 128), 5, 7)))
            .collect();
        tango.apply_batch(&batch, SimTime::ZERO);
        assert_eq!(tango.occupancy(), 1);
        tango.apply_batch(&[ControlAction::Delete(RuleId(0))], SimTime::ZERO);
        assert_eq!(tango.occupancy(), 1, "survivor reinstalled individually");
        // Rule 0's half no longer matches; rule 1's half does.
        let gone = (0x0a000001u32 as u128) << DST_SHIFT;
        let kept = (0x0a000081u32 as u128) << DST_SHIFT;
        assert_eq!(tango.device().peek(gone).action(), None);
        assert_eq!(tango.device().peek(kept).action(), Some(Action::Forward(7)));
        // Deleting the survivor empties the table.
        tango.apply_batch(&[ControlAction::Delete(RuleId(1))], SimTime::ZERO);
        assert_eq!(tango.occupancy(), 0);
    }

    #[test]
    fn tango_beats_espres_on_aggregatable_workload() {
        // Data-center-style batch: many same-action sibling prefixes at one
        // priority — Tango collapses them, ESPRES cannot.
        let batch: Vec<ControlAction> = (0..256u64)
            .map(|i| {
                let addr = (10u32 << 24) | ((i as u32) << 8);
                ControlAction::Insert(Rule::new(
                    i,
                    Ipv4Prefix::new(addr, 24).to_key(),
                    Priority(5),
                    Action::Forward(1),
                ))
            })
            .collect();
        let mut tango = TangoSwitch::new(SwitchModel::pica8_p3290());
        let t = tango.apply_batch(&batch, SimTime::ZERO);
        let mut espres = EspresSwitch::new(SwitchModel::pica8_p3290());
        let e = espres.apply_batch(&batch, SimTime::ZERO);
        assert!(
            t.total < e.total,
            "Tango {:?} should beat ESPRES {:?} via aggregation",
            t.total,
            e.total
        );
        assert!(tango.occupancy() < espres.occupancy());
    }

    /// With nothing to aggregate, Tango writes a batch in ESPRES's order on
    /// every packing.
    #[test]
    fn inserts_follow_the_espres_order_on_every_placement() {
        let batch: Vec<ControlAction> = [5u32, 9, 1, 7, 3, 8]
            .iter()
            .enumerate()
            .map(|(i, &prio)| {
                let addr = format!("10.{i}.0.0/16");
                ControlAction::Insert(rule(i as u64, &addr, prio, i as u32))
            })
            .collect();
        let written = |out: BatchOutcome| out.ops.iter().map(|o| o.id).collect::<Vec<_>>();
        for model in [
            SwitchModel::pica8_p3290(),
            SwitchModel::dell_8132f(),
            SwitchModel::hp_5406zl(),
        ] {
            let mut tango = TangoSwitch::new(model.clone());
            let mut espres = EspresSwitch::new(model.clone());
            let t = written(tango.apply_batch(&batch, SimTime::ZERO));
            let e = written(espres.apply_batch(&batch, SimTime::ZERO));
            assert_eq!(t, e, "{:?}", model.placement);
        }
    }

    #[test]
    fn duplicate_logical_insert_ignored() {
        let mut tango = TangoSwitch::new(SwitchModel::pica8_p3290());
        let r = rule(1, "10.0.0.0/8", 5, 1);
        tango.apply_batch(&[ControlAction::Insert(r)], SimTime::ZERO);
        tango.apply_batch(&[ControlAction::Insert(r)], SimTime::ZERO);
        assert_eq!(tango.occupancy(), 1);
    }
}

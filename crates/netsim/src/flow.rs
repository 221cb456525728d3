//! Flows, jobs and max-min fair bandwidth sharing.
//!
//! Varys is a *flow-level* simulator: packets are not modelled; instead
//! every active flow gets a rate from progressive-filling max-min fair
//! allocation over its path (the standard fluid model used by the
//! simulators the paper builds on [29, 30]), and flow completion times
//! follow from integrating those rates between events.

use crate::topology::{LinkId, Topology};
use hermes_tcam::SimTime;

/// Flow identifier.
pub type FlowId = usize;
/// Job identifier.
pub type JobId = usize;

/// A flow in flight.
#[derive(Clone, Debug)]
pub struct ActiveFlow {
    /// Identifier.
    pub id: FlowId,
    /// Owning job (for JCT accounting).
    pub job: JobId,
    /// Source host.
    pub src: usize,
    /// Destination host.
    pub dst: usize,
    /// Bytes left to transfer.
    pub remaining_bytes: f64,
    /// Current allocated rate, bits/s.
    pub rate_bps: f64,
    /// Current path (link ids from src to dst).
    pub path: Vec<LinkId>,
    /// When the flow started (for FCT).
    pub started: SimTime,
    /// How many times [`FlowTable::allocate_max_min`] has rewritten
    /// `rate_bps`. The event loop no longer reads it: a flow has at most
    /// one queued completion, re-keyed on every rate change (DESIGN.md
    /// §14).
    pub version: u64,
}

/// [`FlowTable`]'s `slot_of` entry of an id with no active flow.
const ABSENT: u32 = u32::MAX;

/// Links whose flow set changed since the last solve, each listed once.
#[derive(Clone, Debug, Default)]
struct ChangedLinks {
    list: Vec<LinkId>,
    /// `list` as a per-link flag.
    marked: Vec<bool>,
}

impl ChangedLinks {
    fn mark(&mut self, path: &[LinkId]) {
        for &l in path {
            if l >= self.marked.len() {
                self.marked.resize(l + 1, false);
            }
            if !self.marked[l] {
                self.marked[l] = true;
                self.list.push(l);
            }
        }
    }

    fn contains(&self, link: LinkId) -> bool {
        self.marked.get(link).copied().unwrap_or(false)
    }

    fn clear(&mut self) {
        for l in self.list.drain(..) {
            self.marked[l] = false;
        }
    }
}

/// Working state of [`FlowTable::allocate_max_min`], kept between calls
/// so a solve allocates nothing but its result, and the last solve's
/// rounds, which the next solve replays.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Residual capacity per link.
    residual: Vec<f64>,
    /// Unfrozen flows per link; all 0 between solves.
    unfrozen_on: Vec<usize>,
    /// Links still carrying an unfrozen flow.
    live: Vec<LinkId>,
    /// Rate the solve assigned, per slot.
    new_rate: Vec<f64>,
    /// Has the slot's flow been given its rate?
    frozen: Vec<bool>,
    /// The last solve's filling rounds in order, as `(bottleneck,
    /// share)`: at most one per link, since a round leaves its
    /// bottleneck without unfrozen flows.
    rounds: Vec<(LinkId, f64)>,
    /// The capacity per link that `rounds` was solved against.
    capacity: Vec<f64>,
}

impl Scratch {
    /// Solves into `new_rate`: replays the rounds of the last solve that
    /// `changed` cannot have altered, then fills as usual, logging each
    /// round it scans.
    fn solve(
        &mut self,
        flows: &[ActiveFlow],
        on_link: &[Vec<usize>],
        changed: &ChangedLinks,
        topo: &Topology,
    ) {
        self.residual.resize(on_link.len(), 0.0);
        self.unfrozen_on.resize(on_link.len(), 0);
        self.capacity.resize(on_link.len(), f64::NAN);
        self.live.clear();
        for (l, slots) in on_link.iter().enumerate() {
            if !slots.is_empty() {
                let capacity = topo.links[l].capacity_bps;
                if capacity.to_bits() != self.capacity[l].to_bits() {
                    self.capacity[l] = capacity;
                    self.rounds.clear();
                }
                self.residual[l] = capacity;
                self.unfrozen_on[l] = slots.len();
                self.live.push(l);
            }
        }
        // Flows with empty paths (same-host transfers) run at a nominal
        // local rate.
        self.new_rate.clear();
        self.new_rate.extend(
            flows
                .iter()
                .map(|f| if f.path.is_empty() { 100e9 } else { 0.0 }),
        );
        self.frozen.clear();
        self.frozen.extend(flows.iter().map(|f| f.path.is_empty()));

        // Replay. Up to a round, an unchanged link has the flows, the
        // unfrozen count and the subtractions it had in the last solve,
        // so its share is bit-identical and the logged bottleneck still
        // beats it. Only a changed link can take the round, and the
        // changed links are few enough to check each round.
        let mut replayed = 0;
        while let Some(&(bottleneck, share)) = self.rounds.get(replayed) {
            let displaced = changed.contains(bottleneck)
                || changed.list.iter().any(|&c| {
                    let n = self.unfrozen_on[c];
                    n > 0 && {
                        let s = self.residual[c] / n as f64;
                        s < share || (s == share && c < bottleneck)
                    }
                });
            if displaced {
                break;
            }
            self.freeze(flows, &on_link[bottleneck], share);
            replayed += 1;
        }
        self.rounds.truncate(replayed);

        loop {
            // The bottleneck link: minimal fair share among links carrying
            // unfrozen flows, lowest link id on ties. Links that ran out of
            // them leave `live`.
            let mut best: Option<(f64, LinkId)> = None;
            let mut i = 0;
            while i < self.live.len() {
                let l = self.live[i];
                if self.unfrozen_on[l] == 0 {
                    self.live.swap_remove(i);
                    continue;
                }
                let share = self.residual[l] / self.unfrozen_on[l] as f64;
                if best.is_none_or(|(s, b)| share < s || (share == s && l < b)) {
                    best = Some((share, l));
                }
                i += 1;
            }
            let Some((share, bottleneck)) = best else {
                break;
            };
            self.freeze(flows, &on_link[bottleneck], share);
            self.rounds.push((bottleneck, share));
        }
    }

    /// One filling round: freezes every unfrozen flow of `slots` (the
    /// bottleneck's) at `share`.
    fn freeze(&mut self, flows: &[ActiveFlow], slots: &[usize], share: f64) {
        for &slot in slots {
            if self.frozen[slot] {
                continue;
            }
            self.frozen[slot] = true;
            self.new_rate[slot] = share.max(0.0);
            for &l in &flows[slot].path {
                self.residual[l] = (self.residual[l] - share).max(0.0);
                self.unfrozen_on[l] -= 1;
            }
        }
    }
}

/// The set of active flows plus the allocator.
///
/// Flows sit densely in `flows` (a removal moves the last flow into the
/// hole), `slot_of` finds them by id and `on_link` lists, per link, the
/// slots of the flows crossing it. Every path change goes through
/// `insert`/`remove`/`set_path`, which keep the three in step and mark
/// the links whose flow set changed for the next solve.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    flows: Vec<ActiveFlow>,
    /// Flow id → slot, [`ABSENT`] for none. Ids count up from 0, so the
    /// vector is dense, and walking it visits flows in ascending id,
    /// which makes whole simulations reproducible bit-for-bit.
    slot_of: Vec<u32>,
    /// Link → slots of the flows on it, in ascending flow id (so sums
    /// and picks over a link do not depend on slot history). Grows to
    /// the highest link id seen.
    on_link: Vec<Vec<usize>>,
    changed: ChangedLinks,
    scratch: Scratch,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of active flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` when no flows are active.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    fn slot(&self, id: FlowId) -> Option<usize> {
        match self.slot_of.get(id) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Enters the flow in `slot` into the link lists of its path.
    fn index(&mut self, slot: usize) {
        let FlowTable { flows, on_link, .. } = self;
        let id = flows[slot].id;
        for &l in &flows[slot].path {
            if l >= on_link.len() {
                on_link.resize_with(l + 1, Vec::new);
            }
            let at = on_link[l].partition_point(|&s| flows[s].id < id);
            on_link[l].insert(at, slot);
        }
    }

    /// Takes the flow in `slot` out of the link lists of its path.
    fn unindex(&mut self, slot: usize) {
        let FlowTable { flows, on_link, .. } = self;
        let id = flows[slot].id;
        for &l in &flows[slot].path {
            let at = on_link[l].partition_point(|&s| flows[s].id < id);
            on_link[l].remove(at);
        }
    }

    /// Adds a flow, replacing any flow already present under its id.
    /// The id index grows to the largest id seen: ids are meant to count
    /// up from 0.
    pub fn insert(&mut self, flow: ActiveFlow) {
        let slot = match self.slot(flow.id) {
            Some(slot) => {
                self.changed.mark(&self.flows[slot].path);
                self.unindex(slot);
                self.flows[slot] = flow;
                slot
            }
            None => {
                let slot = self.flows.len();
                if flow.id >= self.slot_of.len() {
                    self.slot_of.resize(flow.id + 1, ABSENT);
                }
                self.slot_of[flow.id] =
                    u32::try_from(slot).expect("INVARIANT: fewer than u32::MAX flows are active");
                self.flows.push(flow);
                slot
            }
        };
        self.changed.mark(&self.flows[slot].path);
        self.index(slot);
    }

    /// Removes a flow (on completion).
    pub fn remove(&mut self, id: FlowId) -> Option<ActiveFlow> {
        let slot = self.slot(id)?;
        self.slot_of[id] = ABSENT;
        self.changed.mark(&self.flows[slot].path);
        self.unindex(slot);
        // The last flow moves into the hole: re-enter it under its new
        // slot. Its flow set is the same, so its links are not marked.
        let last = self.flows.len() - 1;
        if slot != last {
            self.unindex(last);
        }
        let flow = self.flows.swap_remove(slot);
        if slot != last {
            self.slot_of[self.flows[slot].id] = slot as u32;
            self.index(slot);
        }
        Some(flow)
    }

    /// Moves a flow onto `path`, leaving its rate and version alone;
    /// `false` if the flow is not present.
    pub fn set_path(&mut self, id: FlowId, path: Vec<LinkId>) -> bool {
        let Some(slot) = self.slot(id) else {
            return false;
        };
        self.changed.mark(&self.flows[slot].path);
        self.changed.mark(&path);
        self.unindex(slot);
        self.flows[slot].path = path;
        self.index(slot);
        true
    }

    /// Borrows a flow.
    pub fn get(&self, id: FlowId) -> Option<&ActiveFlow> {
        self.slot(id).map(|slot| &self.flows[slot])
    }

    /// Iterates over the active flows in ascending id.
    pub fn iter(&self) -> impl Iterator<Item = &ActiveFlow> {
        self.slot_of
            .iter()
            .filter(|&&slot| slot != ABSENT)
            .map(|&slot| &self.flows[slot as usize])
    }

    /// The flows whose path crosses `link`, in ascending id.
    pub fn flows_on(&self, link: LinkId) -> impl Iterator<Item = &ActiveFlow> {
        let slots = self.on_link.get(link).map_or(&[][..], Vec::as_slice);
        slots.iter().map(|&slot| &self.flows[slot])
    }

    /// Advances every flow's `remaining_bytes` by `dt` seconds at its
    /// current rate (call before any rate change).
    pub fn advance(&mut self, dt_s: f64) {
        if dt_s <= 0.0 {
            return;
        }
        for f in &mut self.flows {
            f.remaining_bytes = (f.remaining_bytes - f.rate_bps * dt_s / 8.0).max(0.0);
        }
    }

    /// Progressive-filling max-min fair allocation. Returns the ids of
    /// flows whose rate changed, in ascending order (their completion
    /// events need rescheduling). Every flow's `version` is bumped on
    /// change.
    ///
    /// Results are pinned bit-for-bit (DESIGN.md §14):
    /// each round freezes the unfrozen flows of the link with the least
    /// `residual / unfrozen`, lowest link id on ties. A solve replays
    /// the leading rounds of the last one that the links changed since
    /// cannot have moved, and scans links only from there on.
    pub fn allocate_max_min(&mut self, topo: &Topology) -> Vec<FlowId> {
        let FlowTable {
            flows,
            on_link,
            changed,
            scratch,
            ..
        } = self;
        scratch.solve(flows, on_link, changed, topo);
        changed.clear();

        // Apply, reporting changes.
        let mut changed = Vec::new();
        for (f, &new_rate) in flows.iter_mut().zip(scratch.new_rate.iter()) {
            if (new_rate - f.rate_bps).abs() > 1e-6 {
                f.rate_bps = new_rate;
                f.version += 1;
                changed.push(f.id);
            }
        }
        changed.sort_unstable();
        changed
    }

    /// Utilization (allocated/capacity) per link under current rates.
    pub fn link_utilization(&self, topo: &Topology) -> Vec<f64> {
        topo.links
            .iter()
            .enumerate()
            .map(|(l, link)| {
                let load = self.flows_on(l).fold(0.0, |sum, f| sum + f.rate_bps);
                load / link.capacity_bps
            })
            .collect()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::SeedableRng;

    fn flow(id: FlowId, src: usize, dst: usize, path: Vec<LinkId>) -> ActiveFlow {
        ActiveFlow {
            id,
            job: 0,
            src,
            dst,
            remaining_bytes: 1e9,
            rate_bps: 0.0,
            path,
            started: SimTime::ZERO,
            version: 0,
        }
    }

    #[test]
    fn single_flow_gets_full_bottleneck() {
        let topo = Topology::single_switch(2, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        let path = topo.random_shortest_path(0, 1, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 1, path));
        let changed = ft.allocate_max_min(&topo);
        assert_eq!(changed, vec![1]);
        assert!((ft.get(1).unwrap().rate_bps - 10e9).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let topo = Topology::single_switch(3, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        // Both flows converge on host 2's access link.
        let p1 = topo.random_shortest_path(0, 2, None, &mut rng).unwrap();
        let p2 = topo.random_shortest_path(1, 2, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 2, p1));
        ft.insert(flow(2, 1, 2, p2));
        ft.allocate_max_min(&topo);
        assert!((ft.get(1).unwrap().rate_bps - 5e9).abs() < 1.0);
        assert!((ft.get(2).unwrap().rate_bps - 5e9).abs() < 1.0);
    }

    #[test]
    fn max_min_not_just_equal_split() {
        // Two identical flows on a tiny fat tree: equal shares and no link
        // over capacity (conservation check).
        let topo = Topology::fat_tree(2, 10e9);
        let hosts = topo.hosts();
        let mut rng = StdRng::seed_from_u64(2);
        let p_long = topo
            .random_shortest_path(hosts[0], hosts[1], None, &mut rng)
            .unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, hosts[0], hosts[1], p_long.clone()));
        ft.insert(flow(2, hosts[0], hosts[1], p_long));
        ft.allocate_max_min(&topo);
        let util = ft.link_utilization(&topo);
        for u in util {
            assert!(u <= 1.0 + 1e-9, "over-allocated link: {u}");
        }
        assert!((ft.get(1).unwrap().rate_bps - ft.get(2).unwrap().rate_bps).abs() < 1.0);
    }

    #[test]
    fn advance_decreases_remaining() {
        let topo = Topology::single_switch(2, 8e9);
        let mut rng = StdRng::seed_from_u64(1);
        let path = topo.random_shortest_path(0, 1, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 1, path));
        ft.allocate_max_min(&topo);
        // 8 Gb/s = 1 GB/s: after 0.5 s, 0.5 GB remains.
        ft.advance(0.5);
        let rem = ft.get(1).unwrap().remaining_bytes;
        assert!((rem - 0.5e9).abs() < 1e3, "remaining {rem}");
        // Advancing far past completion clamps at zero.
        ft.advance(100.0);
        assert_eq!(ft.get(1).unwrap().remaining_bytes, 0.0);
    }

    #[test]
    fn version_bumps_only_on_change() {
        let topo = Topology::single_switch(3, 10e9);
        let mut rng = StdRng::seed_from_u64(1);
        let p1 = topo.random_shortest_path(0, 2, None, &mut rng).unwrap();
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 2, p1));
        ft.allocate_max_min(&topo);
        let v1 = ft.get(1).unwrap().version;
        // Re-allocating with no change keeps the version.
        let changed = ft.allocate_max_min(&topo);
        assert!(changed.is_empty());
        assert_eq!(ft.get(1).unwrap().version, v1);
    }

    #[test]
    fn empty_path_flows_run_locally() {
        let topo = Topology::single_switch(2, 10e9);
        let mut ft = FlowTable::new();
        ft.insert(flow(1, 0, 0, Vec::new()));
        ft.allocate_max_min(&topo);
        assert!(ft.get(1).unwrap().rate_bps > 10e9);
    }

    #[test]
    fn fat_tree_cross_section_shared() {
        let topo = Topology::fat_tree(4, 10e9);
        let hosts = topo.hosts();
        let mut rng = StdRng::seed_from_u64(9);
        let mut ft = FlowTable::new();
        // Four flows from distinct sources in pod 0 to distinct hosts in
        // pod 3: plenty of core capacity, each should get its access rate.
        for i in 0..4 {
            let src = hosts[i];
            let dst = hosts[hosts.len() - 1 - i];
            let p = topo.random_shortest_path(src, dst, None, &mut rng).unwrap();
            ft.insert(flow(i, src, dst, p));
        }
        ft.allocate_max_min(&topo);
        let util = ft.link_utilization(&topo);
        for u in util {
            assert!(u <= 1.0 + 1e-9);
        }
        for i in 0..4 {
            assert!(ft.get(i).unwrap().rate_bps > 0.0);
        }
    }
}

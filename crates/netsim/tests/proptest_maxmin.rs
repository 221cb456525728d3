//! Property-based tests for the max-min fair allocator: feasibility, work
//! conservation, and max-min optimality (no flow can be raised without
//! lowering a flow that is no better off), plus the differential property
//! that pins `FlowTable` bit-for-bit to the reference solver in
//! [`reference`]. Runs under the in-tree `hermes_util::check!` harness with
//! pinned default seeds.

use hermes_netsim::flow::{ActiveFlow, FlowId, FlowTable};
use hermes_netsim::prelude::*;
use hermes_tcam::SimTime;
use hermes_util::check::{arb, just, range, vec_of, weighted, zip2, zip3, Gen};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};

/// The allocator as it stood before `FlowTable` kept a link index: one
/// `BTreeMap` of flows, every per-link list rebuilt per solve, links
/// scanned in id order. Test-only (an integration test cannot see
/// `#[cfg(test)]` items of the library, so it lives here); the results it
/// produced are what the committed baselines pin.
mod reference {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Default)]
    pub struct RefTable {
        pub flows: BTreeMap<FlowId, ActiveFlow>,
    }

    impl RefTable {
        pub fn insert(&mut self, flow: ActiveFlow) {
            self.flows.insert(flow.id, flow);
        }

        pub fn remove(&mut self, id: FlowId) -> Option<ActiveFlow> {
            self.flows.remove(&id)
        }

        pub fn set_path(&mut self, id: FlowId, path: Vec<LinkId>) -> bool {
            self.flows.get_mut(&id).map(|f| f.path = path).is_some()
        }

        pub fn advance(&mut self, dt_s: f64) {
            if dt_s <= 0.0 {
                return;
            }
            for f in self.flows.values_mut() {
                f.remaining_bytes = (f.remaining_bytes - f.rate_bps * dt_s / 8.0).max(0.0);
            }
        }

        pub fn allocate_max_min(&mut self, topo: &Topology) -> Vec<FlowId> {
            let mut residual: Vec<f64> = topo.links.iter().map(|l| l.capacity_bps).collect();
            let mut link_flows: Vec<Vec<FlowId>> = vec![Vec::new(); topo.links.len()];
            let mut unfrozen: BTreeMap<FlowId, ()> = BTreeMap::new();
            for f in self.flows.values() {
                for &l in &f.path {
                    link_flows[l].push(f.id);
                }
                if !f.path.is_empty() {
                    unfrozen.insert(f.id, ());
                }
            }
            let mut rates: BTreeMap<FlowId, f64> = BTreeMap::new();
            for f in self.flows.values() {
                if f.path.is_empty() {
                    rates.insert(f.id, 100e9);
                }
            }
            let mut unfrozen_per_link: Vec<usize> = link_flows.iter().map(|v| v.len()).collect();

            while !unfrozen.is_empty() {
                let mut best: Option<(f64, LinkId)> = None;
                for (lid, &n) in unfrozen_per_link.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let share = residual[lid] / n as f64;
                    if best.map(|(s, _)| share < s).unwrap_or(true) {
                        best = Some((share, lid));
                    }
                }
                let Some((share, bottleneck)) = best else {
                    break;
                };
                let to_freeze: Vec<FlowId> = link_flows[bottleneck]
                    .iter()
                    .copied()
                    .filter(|id| unfrozen.contains_key(id))
                    .collect();
                for id in to_freeze {
                    rates.insert(id, share.max(0.0));
                    unfrozen.remove(&id);
                    let flow = &self.flows[&id];
                    for &l in &flow.path {
                        residual[l] = (residual[l] - share).max(0.0);
                        unfrozen_per_link[l] -= 1;
                    }
                }
            }

            let mut changed = Vec::new();
            for f in self.flows.values_mut() {
                let new_rate = rates.get(&f.id).copied().unwrap_or(0.0);
                if (new_rate - f.rate_bps).abs() > 1e-6 {
                    f.rate_bps = new_rate;
                    f.version += 1;
                    changed.push(f.id);
                }
            }
            changed
        }

        pub fn link_utilization(&self, topo: &Topology) -> Vec<f64> {
            let mut load = vec![0.0; topo.links.len()];
            for f in self.flows.values() {
                for &l in &f.path {
                    load[l] += f.rate_bps;
                }
            }
            load.iter()
                .zip(&topo.links)
                .map(|(&l, link)| l / link.capacity_bps)
                .collect()
        }
    }
}

/// A flow with the fields the allocator reads; the rest are fillers.
fn flow_on(id: FlowId, path: Vec<LinkId>, rate_bps: f64) -> ActiveFlow {
    ActiveFlow {
        id,
        job: 0,
        src: 0,
        dst: 1,
        remaining_bytes: 1e9,
        rate_bps,
        path,
        started: SimTime::ZERO,
        version: 0,
    }
}

/// Where a generated flow's path comes from.
#[derive(Clone, Debug)]
enum Route {
    /// Same-host transfer.
    Empty,
    /// A shortest path sampled under this seed.
    Sampled(u64),
    /// The current path of this flow (empty if absent): flows that share
    /// every link.
    Like(FlowId),
}

/// One step of a generated table history.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        id: FlowId,
        src: usize,
        dst: usize,
        bytes: u32,
        route: Route,
    },
    Remove(FlowId),
    SetPath(FlowId, Route),
    Advance {
        micros: u32,
    },
    Allocate,
}

/// Ids come from a pool of 12, so inserts collide with live flows and
/// removes, path moves and `Like` routes mostly hit one.
fn op() -> Gen<Op> {
    let id = || range(0usize..12);
    let route = || {
        weighted(vec![
            (1, just(Route::Empty)),
            (6, arb::<u64>().map(Route::Sampled)),
            (3, range(0usize..12).map(Route::Like)),
        ])
    };
    weighted(vec![
        (
            5,
            Gen::from_fn({
                let (id, route) = (id(), route());
                move |rng, size| Op::Insert {
                    id: id.generate(rng, size),
                    src: rng.gen(),
                    dst: rng.gen(),
                    bytes: rng.gen_range(1u32..50_000_000),
                    route: route.generate(rng, size),
                }
            }),
        ),
        (2, id().map(Op::Remove)),
        (
            2,
            zip2(id(), route()).map(|(id, route)| Op::SetPath(id, route)),
        ),
        (3, range(0u32..20_000).map(|micros| Op::Advance { micros })),
        (4, just(Op::Allocate)),
    ])
}

fn resolve(
    topo: &Topology,
    oracle: &reference::RefTable,
    src: usize,
    dst: usize,
    route: &Route,
) -> Vec<LinkId> {
    match *route {
        Route::Empty => Vec::new(),
        Route::Sampled(seed) => topo
            .random_shortest_path(src, dst, None, &mut StdRng::seed_from_u64(seed))
            .unwrap_or_default(),
        Route::Like(other) => oracle
            .flows
            .get(&other)
            .map(|f| f.path.clone())
            .unwrap_or_default(),
    }
}

/// Every flow of `oracle` is in `table` with the same bits.
fn assert_same_flows(table: &FlowTable, oracle: &reference::RefTable) {
    assert_eq!(table.len(), oracle.flows.len());
    for (got, want) in table.iter().zip(oracle.flows.values()) {
        assert_eq!(got.id, want.id, "iteration is in ascending id");
        assert_eq!(got.path, want.path, "flow {}", want.id);
        assert_eq!(
            got.rate_bps.to_bits(),
            want.rate_bps.to_bits(),
            "rate of flow {}",
            want.id
        );
        assert_eq!(got.version, want.version, "version of flow {}", want.id);
        assert_eq!(
            got.remaining_bytes.to_bits(),
            want.remaining_bytes.to_bits(),
            "remaining bytes of flow {}",
            want.id
        );
    }
}

fn build(topo: &Topology, pairs: &[(usize, usize)], seed: u64) -> FlowTable {
    let hosts = topo.hosts();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ft = FlowTable::new();
    for (i, (s, d)) in pairs.iter().enumerate() {
        let src = hosts[s % hosts.len()];
        let mut dst = hosts[d % hosts.len()];
        if dst == src {
            dst = hosts[(s + 1) % hosts.len()];
        }
        let path = topo
            .random_shortest_path(src, dst, None, &mut rng)
            .unwrap_or_default();
        ft.insert(ActiveFlow {
            id: i,
            job: i,
            src,
            dst,
            remaining_bytes: 1e12,
            rate_bps: 0.0,
            path,
            started: SimTime::ZERO,
            version: 0,
        });
    }
    ft
}

hermes_util::check! {
    #![cases = 256]

    /// Feasibility + work conservation + max-min optimality on a fat tree.
    fn max_min_is_fair_and_feasible(
        pairs in vec_of(zip2(arb::<usize>(), arb::<usize>()), 1..40),
        seed in arb::<u64>(),
    ) {
        let topo = Topology::fat_tree(4, 10e9);
        let mut ft = build(&topo, &pairs, seed);
        ft.allocate_max_min(&topo);

        // Feasibility: no link over capacity.
        let mut load = vec![0.0f64; topo.links.len()];
        for f in ft.iter() {
            assert!(f.rate_bps > 0.0, "flow {} starved", f.id);
            for &l in &f.path {
                load[l] += f.rate_bps;
            }
        }
        for (l, link) in topo.links.iter().enumerate() {
            assert!(load[l] <= link.capacity_bps * (1.0 + 1e-9), "link {l} overloaded");
        }

        // Every flow is bottlenecked: some link on its path is saturated
        // where the flow's rate is maximal among the link's flows — the
        // max-min optimality certificate.
        for f in ft.iter() {
            if f.path.is_empty() {
                continue;
            }
            let mut certified = false;
            for &l in &f.path {
                let saturated = load[l] >= topo.links[l].capacity_bps * (1.0 - 1e-6);
                if !saturated {
                    continue;
                }
                let max_on_link = ft
                    .iter()
                    .filter(|g| g.path.contains(&l))
                    .map(|g| g.rate_bps)
                    .fold(0.0f64, f64::max);
                if f.rate_bps >= max_on_link * (1.0 - 1e-6) {
                    certified = true;
                    break;
                }
            }
            assert!(certified, "flow {} has no bottleneck certificate", f.id);
        }
    }

    /// Differential oracle: over any history of inserts (fresh and
    /// colliding ids), removes, path moves, advances and solves, the
    /// indexed table and the reference solver hold bit-identical flows and
    /// report the same `changed` list from every solve.
    fn indexed_table_matches_reference_solver(
        ops in vec_of(op(), 1..120),
        isp in arb::<bool>(),
    ) {
        let topo = if isp { Topology::geant() } else { Topology::fat_tree(4, 10e9) };
        let hosts = topo.hosts();
        let mut table = FlowTable::new();
        let mut oracle = reference::RefTable::default();
        for op in &ops {
            match op {
                Op::Insert { id, src, dst, bytes, route } => {
                    let (src, dst) = (hosts[src % hosts.len()], hosts[dst % hosts.len()]);
                    let flow = ActiveFlow {
                        src,
                        dst,
                        remaining_bytes: f64::from(*bytes),
                        ..flow_on(*id, resolve(&topo, &oracle, src, dst, route), 0.0)
                    };
                    table.insert(flow.clone());
                    oracle.insert(flow);
                }
                Op::Remove(id) => {
                    let (got, want) = (table.remove(*id), oracle.remove(*id));
                    assert_eq!(got.map(|f| f.version), want.map(|f| f.version));
                }
                Op::SetPath(id, route) => {
                    let ends = oracle.flows.get(id).map_or((0, 0), |f| (f.src, f.dst));
                    let path = resolve(&topo, &oracle, ends.0, ends.1, route);
                    assert_eq!(table.set_path(*id, path.clone()), oracle.set_path(*id, path));
                }
                Op::Advance { micros } => {
                    let dt_s = f64::from(*micros) * 1e-6;
                    table.advance(dt_s);
                    oracle.advance(dt_s);
                }
                Op::Allocate => {
                    assert_eq!(table.allocate_max_min(&topo), oracle.allocate_max_min(&topo));
                    assert_same_flows(&table, &oracle);
                }
            }
        }
        assert_same_flows(&table, &oracle);
        // The link index answers exactly what a scan of the paths would.
        for l in 0..topo.links.len() {
            let indexed: Vec<FlowId> = table.flows_on(l).map(|f| f.id).collect();
            let scanned: Vec<FlowId> =
                oracle.flows.values().filter(|f| f.path.contains(&l)).map(|f| f.id).collect();
            assert_eq!(indexed, scanned, "flows on link {l}");
        }
        let bits = |util: Vec<f64>| util.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(table.link_utilization(&topo)), bits(oracle.link_utilization(&topo)));
    }

    /// Determinism: the same flow set allocates identically every time.
    fn allocation_is_deterministic(
        pairs in vec_of(zip2(arb::<usize>(), arb::<usize>()), 1..20),
        seed in arb::<u64>(),
    ) {
        let topo = Topology::fat_tree(4, 10e9);
        let mut a = build(&topo, &pairs, seed);
        let mut b = build(&topo, &pairs, seed);
        a.allocate_max_min(&topo);
        b.allocate_max_min(&topo);
        for f in a.iter() {
            assert_eq!(f.rate_bps, b.get(f.id).unwrap().rate_bps);
        }
    }

    /// Paths sampled from any topology are simple (no repeated node) and
    /// connect src to dst.
    fn sampled_paths_are_simple(sds in zip3(arb::<usize>(), arb::<usize>(), arb::<u64>())) {
        let (s, d, seed) = sds;
        for topo in [Topology::fat_tree(4, 1e9), Topology::abilene(), Topology::geant()] {
            let hosts = topo.hosts();
            let src = hosts[s % hosts.len()];
            let dst = hosts[d % hosts.len()];
            if src == dst {
                continue;
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let path = topo.random_shortest_path(src, dst, None, &mut rng).unwrap();
            let mut cur = src;
            let mut visited = std::collections::HashSet::from([src]);
            for &l in &path {
                cur = topo.links[l].other(cur);
                assert!(visited.insert(cur), "{}: node revisited", topo.name);
            }
            assert_eq!(cur, dst);
        }
    }
}

/// Two links offer the same fair share in one round: the lower link id is
/// the bottleneck. The order shows in the bits — whichever link goes second
/// divides a residual the first already subtracted from — and must not
/// follow the order the solver happens to scan links in.
#[test]
fn equal_shares_freeze_the_lowest_link_id_first() {
    let topo = Topology::single_switch(4, 10e9);
    let mut table = FlowTable::new();
    // Link 0 fills first and leaves the scan, which reorders it.
    for id in 0..4 {
        table.insert(flow_on(id, vec![0], 0.0));
    }
    // Links 1 and 3 then tie at capacity / 3, sharing flow 6.
    for (id, path) in [
        (4, vec![1]),
        (5, vec![1]),
        (6, vec![1, 3]),
        (7, vec![3]),
        (8, vec![3]),
    ] {
        table.insert(flow_on(id, path, 0.0));
    }
    table.allocate_max_min(&topo);
    let first: f64 = 10e9 / 3.0;
    let second = (10e9 - first).max(0.0) / 2.0;
    assert_ne!(
        first.to_bits(),
        second.to_bits(),
        "the order must be visible"
    );
    for (id, want) in [(4, first), (5, first), (6, first), (7, second), (8, second)] {
        assert_eq!(
            table.get(id).unwrap().rate_bps.to_bits(),
            want.to_bits(),
            "flow {id}"
        );
    }
}

/// A solved rate within 1e-6 of the current one is not written: the old
/// bits, the version and the flow's scheduled completion all stand.
#[test]
fn rates_within_1e6_keep_their_old_bits() {
    let topo = Topology::single_switch(2, 1e6);
    let near = 1e6 + 5e-7;
    let far = 1e6 + 2e-6;
    let mut table = FlowTable::new();
    table.insert(flow_on(1, vec![0], near));
    assert_eq!(table.allocate_max_min(&topo), Vec::<FlowId>::new());
    let kept = table.get(1).unwrap();
    assert_eq!((kept.rate_bps.to_bits(), kept.version), (near.to_bits(), 0));

    table.insert(flow_on(1, vec![0], far));
    assert_eq!(table.allocate_max_min(&topo), vec![1]);
    let rewritten = table.get(1).unwrap();
    assert_eq!(
        (rewritten.rate_bps.to_bits(), rewritten.version),
        (1e6f64.to_bits(), 1)
    );
}

//! Network topologies (§8.1.3).
//!
//! * [`Topology::fat_tree`] — the k-ary fat tree \[21\] the Facebook
//!   workload runs on (k=16 → 1024 hosts, 320 switches, 40 Gbps links);
//! * [`Topology::abilene`] — the Internet2 backbone (11 PoPs);
//! * [`Topology::geant`] — the GÉANT European research network (22 PoPs,
//!   approximated from the public Topology Zoo map);
//! * [`Topology::quest`] — the Quest topology from the Topology Zoo \[19\];
//! * [`Topology::single_switch`] — the MicroBench star.
//!
//! Every node is either a host (traffic endpoint) or a switch (runs a
//! control plane). ISP PoPs are modelled as a switch plus one attached
//! host that sources/sinks the PoP's traffic.

use hermes_util::rng::Rng;
use std::collections::VecDeque;

/// Node index.
pub type NodeId = usize;
/// Link index (into [`Topology::links`]).
pub type LinkId = usize;

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Traffic endpoint.
    Host,
    /// Forwarding element with a TCAM control plane.
    Switch,
}

/// An undirected link with symmetric capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity per direction, bits/s.
    pub capacity_bps: f64,
}

impl Link {
    /// The endpoint opposite `n`.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            self.a
        }
    }
}

/// A network: nodes, links, adjacency.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Node kinds, indexed by [`NodeId`].
    pub kinds: Vec<NodeKind>,
    /// All links.
    pub links: Vec<Link>,
    /// Adjacency: per node, the incident link ids.
    pub adj: Vec<Vec<LinkId>>,
    /// Human-readable name.
    pub name: String,
}

impl Topology {
    fn new(name: &str) -> Self {
        Topology {
            kinds: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            name: name.into(),
        }
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        self.kinds.push(kind);
        self.adj.push(Vec::new());
        self.kinds.len() - 1
    }

    fn add_link(&mut self, a: NodeId, b: NodeId, capacity_bps: f64) -> LinkId {
        let id = self.links.len();
        self.links.push(Link { a, b, capacity_bps });
        self.adj[a].push(id);
        self.adj[b].push(id);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Indices of all hosts.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&n| self.kinds[n] == NodeKind::Host)
            .collect()
    }

    /// Indices of all switches.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&n| self.kinds[n] == NodeKind::Switch)
            .collect()
    }

    /// The k-ary fat tree: `k` pods of `k/2` edge and `k/2` aggregation
    /// switches, `(k/2)²` cores, `k³/4` hosts. Hosts get ids `0..k³/4`.
    ///
    /// # Panics
    /// Panics on odd `k`.
    pub fn fat_tree(k: usize, link_bps: f64) -> Self {
        assert!(k.is_multiple_of(2), "fat tree requires even k");
        let mut t = Topology::new(&format!("fat-tree k={k}"));
        let half = k / 2;
        let n_hosts = k * half * half;
        let hosts: Vec<NodeId> = (0..n_hosts).map(|_| t.add_node(NodeKind::Host)).collect();
        // Per pod: edge switches then aggregation switches.
        let mut edges = Vec::with_capacity(k * half);
        let mut aggs = Vec::with_capacity(k * half);
        for _pod in 0..k {
            for _ in 0..half {
                edges.push(t.add_node(NodeKind::Switch));
            }
            for _ in 0..half {
                aggs.push(t.add_node(NodeKind::Switch));
            }
        }
        let cores: Vec<NodeId> = (0..half * half)
            .map(|_| t.add_node(NodeKind::Switch))
            .collect();
        for pod in 0..k {
            for e in 0..half {
                let edge = edges[pod * half + e];
                // Hosts under this edge switch.
                for h in 0..half {
                    let host = hosts[pod * half * half + e * half + h];
                    t.add_link(host, edge, link_bps);
                }
                // Edge to every agg in the pod.
                for a in 0..half {
                    t.add_link(edge, aggs[pod * half + a], link_bps);
                }
            }
            // Agg a connects to cores a*half .. a*half+half-1.
            for a in 0..half {
                for c in 0..half {
                    t.add_link(aggs[pod * half + a], cores[a * half + c], link_bps);
                }
            }
        }
        t
    }

    /// A two-tier leaf–spine fabric: every leaf connects to every spine,
    /// with `hosts_per_leaf` hosts under each leaf. The modern data-center
    /// alternative to the fat tree; host ids are `0..leaves*hosts_per_leaf`.
    pub fn leaf_spine(leaves: usize, spines: usize, hosts_per_leaf: usize, link_bps: f64) -> Self {
        let mut t = Topology::new(&format!("leaf-spine {leaves}x{spines}"));
        let hosts: Vec<NodeId> = (0..leaves * hosts_per_leaf)
            .map(|_| t.add_node(NodeKind::Host))
            .collect();
        let leaf_ids: Vec<NodeId> = (0..leaves).map(|_| t.add_node(NodeKind::Switch)).collect();
        let spine_ids: Vec<NodeId> = (0..spines).map(|_| t.add_node(NodeKind::Switch)).collect();
        for (l, &leaf) in leaf_ids.iter().enumerate() {
            for h in 0..hosts_per_leaf {
                t.add_link(hosts[l * hosts_per_leaf + h], leaf, link_bps);
            }
            for &spine in &spine_ids {
                t.add_link(leaf, spine, link_bps);
            }
        }
        t
    }

    /// A single switch with `n` hosts (MicroBench).
    pub fn single_switch(n: usize, link_bps: f64) -> Self {
        let mut t = Topology::new("single-switch");
        let hosts: Vec<NodeId> = (0..n).map(|_| t.add_node(NodeKind::Host)).collect();
        let sw = t.add_node(NodeKind::Switch);
        for h in hosts {
            t.add_link(h, sw, link_bps);
        }
        t
    }

    /// Builds an ISP topology from a PoP edge list: one switch per PoP
    /// plus an attached host. Host ids are `0..pops`.
    fn isp(name: &str, pops: usize, edges: &[(usize, usize)], capacity_bps: f64) -> Self {
        let mut t = Topology::new(name);
        let hosts: Vec<NodeId> = (0..pops).map(|_| t.add_node(NodeKind::Host)).collect();
        let switches: Vec<NodeId> = (0..pops).map(|_| t.add_node(NodeKind::Switch)).collect();
        for p in 0..pops {
            // PoP access link, provisioned above the backbone so the
            // backbone is the bottleneck.
            t.add_link(hosts[p], switches[p], capacity_bps * 4.0);
        }
        for &(a, b) in edges {
            t.add_link(switches[a], switches[b], capacity_bps);
        }
        t
    }

    /// The Abilene / Internet2 backbone (11 PoPs, 14 links, 10 Gbps).
    /// Nodes: 0 Seattle, 1 Sunnyvale, 2 Denver, 3 LA, 4 Houston,
    /// 5 KansasCity, 6 Indianapolis, 7 Atlanta, 8 Chicago, 9 WashDC,
    /// 10 NewYork.
    pub fn abilene() -> Self {
        Self::isp(
            "Abilene",
            11,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 5),
                (3, 4),
                (4, 5),
                (4, 7),
                (5, 6),
                (6, 7),
                (6, 8),
                (7, 9),
                (8, 10),
                (9, 10),
            ],
            10e9,
        )
    }

    /// GÉANT, the European research backbone — 22 PoPs approximating the
    /// public Topology Zoo map \[10\].
    pub fn geant() -> Self {
        Self::isp(
            "Geant",
            22,
            &[
                // Core ring + meshy western Europe.
                (0, 1),
                (0, 2),
                (0, 21),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
                (5, 7),
                (6, 8),
                (7, 8),
                (7, 9),
                (8, 10),
                (9, 10),
                (9, 11),
                (10, 12),
                (11, 12),
                (11, 13),
                (12, 14),
                (13, 14),
                (13, 15),
                (14, 16),
                (15, 16),
                (15, 17),
                (16, 18),
                (17, 18),
                (17, 19),
                (18, 20),
                (19, 20),
                (19, 21),
                (20, 21),
                (2, 13),
                (6, 17),
                (4, 9),
            ],
            10e9,
        )
    }

    /// The Quest topology from the Internet Topology Zoo \[19\] (20 PoPs,
    /// sparse national backbone).
    pub fn quest() -> Self {
        Self::isp(
            "Quest",
            20,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (1, 8),
                (8, 9),
                (9, 10),
                (10, 3),
                (5, 11),
                (11, 12),
                (12, 13),
                (13, 7),
                (8, 14),
                (14, 15),
                (15, 11),
                (9, 16),
                (16, 17),
                (17, 12),
                (0, 18),
                (18, 19),
                (19, 4),
            ],
            2.5e9,
        )
    }

    /// BFS hop distance from every node to `dst` (usize::MAX where
    /// unreachable).
    pub fn distances_to(&self, dst: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[dst] = 0;
        let mut q = VecDeque::from([dst]);
        while let Some(n) = q.pop_front() {
            for &lid in &self.adj[n] {
                let m = self.links[lid].other(n);
                if dist[m] == usize::MAX {
                    dist[m] = dist[n] + 1;
                    q.push_back(m);
                }
            }
        }
        dist
    }

    /// A uniformly random shortest path from `src` to `dst` as a list of
    /// link ids, optionally avoiding a link (falls back to using it if no
    /// shortest path avoids it). Hosts cannot be transited.
    pub fn random_shortest_path<R: Rng>(
        &self,
        src: NodeId,
        dst: NodeId,
        avoid: Option<LinkId>,
        rng: &mut R,
    ) -> Option<Vec<LinkId>> {
        self.pick_shortest_path(src, dst, &self.distances_to(dst), avoid, rng)
    }

    /// [`random_shortest_path`](Self::random_shortest_path) over `dist`,
    /// the [`distances_to`](Self::distances_to)`(dst)` of this topology,
    /// so a caller that keeps them skips the BFS. Per hop it lists the
    /// candidate links in adjacency order and draws one `gen_range` over
    /// them, so two callers with equal RNGs pick equal paths and leave
    /// their RNGs equal.
    pub(crate) fn pick_shortest_path<R: Rng>(
        &self,
        src: NodeId,
        dst: NodeId,
        dist: &[usize],
        avoid: Option<LinkId>,
        rng: &mut R,
    ) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        if dist[src] == usize::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(dist[src]);
        let mut candidates = Vec::new();
        let mut cur = src;
        while cur != dst {
            candidates.clear();
            candidates.extend(self.adj[cur].iter().copied().filter(|&lid| {
                let next = self.links[lid].other(cur);
                // Never transit through a host.
                (self.kinds[next] == NodeKind::Switch || next == dst) && dist[next] == dist[cur] - 1
            }));
            if candidates.is_empty() {
                return None;
            }
            if let Some(bad) = avoid {
                if candidates.iter().any(|&l| l != bad) {
                    candidates.retain(|&l| l != bad);
                }
            }
            let pick = candidates[rng.gen_range(0..candidates.len())];
            path.push(pick);
            cur = self.links[pick].other(cur);
        }
        Some(path)
    }

    /// The switches a path traverses, in order.
    pub fn switches_on_path(&self, src: NodeId, path: &[LinkId]) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = src;
        for &lid in path {
            let next = self.links[lid].other(cur);
            if self.kinds[next] == NodeKind::Switch {
                out.push(next);
            }
            cur = next;
        }
        out
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
    use hermes_util::rng::{RngCore, SeedableRng};

    #[test]
    fn fat_tree_dimensions() {
        // Paper configuration: k=16 → 1024 hosts.
        let t = Topology::fat_tree(16, 40e9);
        assert_eq!(t.hosts().len(), 1024);
        // 16 pods × 16 switches + 64 cores = 320.
        assert_eq!(t.switches().len(), 320);
        // Links: 1024 host + 16*8*8 edge-agg + 16*8*8 agg-core = 3072.
        assert_eq!(t.links.len(), 3072);
    }

    #[test]
    fn fat_tree_path_lengths() {
        let t = Topology::fat_tree(4, 40e9);
        let mut rng = StdRng::seed_from_u64(1);
        let hosts = t.hosts();
        // Same edge switch: 2 hops.
        let p = t
            .random_shortest_path(hosts[0], hosts[1], None, &mut rng)
            .unwrap();
        assert_eq!(p.len(), 2);
        // Same pod, different edge: 4 hops.
        let p = t
            .random_shortest_path(hosts[0], hosts[2], None, &mut rng)
            .unwrap();
        assert_eq!(p.len(), 4);
        // Different pods: 6 hops.
        let p = t
            .random_shortest_path(hosts[0], *hosts.last().unwrap(), None, &mut rng)
            .unwrap();
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn paths_are_contiguous_and_terminate() {
        let t = Topology::fat_tree(8, 40e9);
        let mut rng = StdRng::seed_from_u64(3);
        let hosts = t.hosts();
        for i in (0..hosts.len()).step_by(61) {
            let (s, d) = (hosts[i], hosts[(i * 7 + 13) % hosts.len()]);
            if s == d {
                continue;
            }
            let p = t.random_shortest_path(s, d, None, &mut rng).unwrap();
            let mut cur = s;
            for &lid in &p {
                assert!(
                    t.links[lid].a == cur || t.links[lid].b == cur,
                    "discontiguous"
                );
                cur = t.links[lid].other(cur);
            }
            assert_eq!(cur, d);
        }
    }

    #[test]
    fn ecmp_diversity_exists() {
        let t = Topology::fat_tree(8, 40e9);
        let hosts = t.hosts();
        let (s, d) = (hosts[0], *hosts.last().unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..64 {
            distinct.insert(t.random_shortest_path(s, d, None, &mut rng).unwrap());
        }
        assert!(
            distinct.len() > 4,
            "only {} distinct shortest paths",
            distinct.len()
        );
    }

    #[test]
    fn avoid_link_respected_when_possible() {
        let t = Topology::fat_tree(4, 40e9);
        let hosts = t.hosts();
        let (s, d) = (hosts[0], *hosts.last().unwrap());
        let mut rng = StdRng::seed_from_u64(7);
        let p = t.random_shortest_path(s, d, None, &mut rng).unwrap();
        // Avoid a middle (switch-switch) link: it has alternatives.
        let avoid = p[2];
        for _ in 0..32 {
            let q = t.random_shortest_path(s, d, Some(avoid), &mut rng).unwrap();
            assert!(!q.contains(&avoid));
        }
        // Avoid the first-hop host link: impossible, falls back to it.
        let host_link = p[0];
        let q = t
            .random_shortest_path(s, d, Some(host_link), &mut rng)
            .unwrap();
        assert!(q.contains(&host_link));
    }

    #[test]
    fn isp_topologies_are_connected() {
        for t in [Topology::abilene(), Topology::geant(), Topology::quest()] {
            let hosts = t.hosts();
            let dist = t.distances_to(hosts[0]);
            for h in &hosts {
                assert_ne!(dist[*h], usize::MAX, "{}: host {h} unreachable", t.name);
            }
        }
        assert_eq!(Topology::abilene().hosts().len(), 11);
        assert_eq!(Topology::geant().hosts().len(), 22);
        assert_eq!(Topology::quest().hosts().len(), 20);
    }

    #[test]
    fn switches_on_path_excludes_hosts() {
        let t = Topology::fat_tree(4, 40e9);
        let hosts = t.hosts();
        let mut rng = StdRng::seed_from_u64(11);
        let p = t
            .random_shortest_path(hosts[0], *hosts.last().unwrap(), None, &mut rng)
            .unwrap();
        let sws = t.switches_on_path(hosts[0], &p);
        assert_eq!(sws.len(), 5, "inter-pod path crosses 5 switches");
        for s in sws {
            assert_eq!(t.kinds[s], NodeKind::Switch);
        }
    }

    #[test]
    fn leaf_spine_structure() {
        let t = Topology::leaf_spine(4, 2, 8, 10e9);
        assert_eq!(t.hosts().len(), 32);
        assert_eq!(t.switches().len(), 6);
        // 32 host links + 4*2 fabric links.
        assert_eq!(t.links.len(), 40);
        let mut rng = StdRng::seed_from_u64(2);
        let hosts = t.hosts();
        // Cross-leaf: host → leaf → spine → leaf → host = 4 hops.
        let p = t
            .random_shortest_path(hosts[0], hosts[31], None, &mut rng)
            .unwrap();
        assert_eq!(p.len(), 4);
        // Same leaf: 2 hops.
        let p = t
            .random_shortest_path(hosts[0], hosts[1], None, &mut rng)
            .unwrap();
        assert_eq!(p.len(), 2);
        // Spine diversity exists.
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..16 {
            distinct.insert(
                t.random_shortest_path(hosts[0], hosts[31], None, &mut rng)
                    .unwrap(),
            );
        }
        assert!(distinct.len() >= 2);
    }

    /// `random_shortest_path` as it stood before the pick took its
    /// distances from the caller: a fresh BFS, and a fresh candidate list
    /// per hop, filtered into a second list when avoiding a link.
    fn reference_path<R: Rng>(
        t: &Topology,
        src: NodeId,
        dst: NodeId,
        avoid: Option<LinkId>,
        rng: &mut R,
    ) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        let dist = t.distances_to(dst);
        if dist[src] == usize::MAX {
            return None;
        }
        let mut path = Vec::with_capacity(dist[src]);
        let mut cur = src;
        while cur != dst {
            let mut candidates: Vec<LinkId> = t.adj[cur]
                .iter()
                .copied()
                .filter(|&lid| {
                    let next = t.links[lid].other(cur);
                    (t.kinds[next] == NodeKind::Switch || next == dst)
                        && dist[next] == dist[cur] - 1
                })
                .collect();
            if candidates.is_empty() {
                return None;
            }
            if let Some(bad) = avoid {
                let filtered: Vec<LinkId> =
                    candidates.iter().copied().filter(|&l| l != bad).collect();
                if !filtered.is_empty() {
                    candidates = filtered;
                }
            }
            let pick = candidates[rng.gen_range(0..candidates.len())];
            path.push(pick);
            cur = t.links[pick].other(cur);
        }
        Some(path)
    }

    #[test]
    fn cached_distances_pick_the_same_paths() {
        for t in [Topology::fat_tree(4, 10e9), Topology::geant()] {
            let hosts = t.hosts();
            let dist: Vec<Vec<usize>> = (0..t.node_count()).map(|n| t.distances_to(n)).collect();
            let mut seed = 0u64;
            for &s in &hosts {
                for &d in &hosts {
                    let first = reference_path(&t, s, d, None, &mut StdRng::seed_from_u64(seed))
                        .expect("hosts are connected");
                    let avoids = std::iter::once(None).chain(first.iter().copied().map(Some));
                    for avoid in avoids {
                        seed += 1;
                        let mut rngs = [0; 3].map(|_| StdRng::seed_from_u64(seed));
                        let [r, u, c] = &mut rngs;
                        let want = reference_path(&t, s, d, avoid, r);
                        let case = format!("{}: {s} -> {d} avoiding {avoid:?}", t.name);
                        assert_eq!(t.random_shortest_path(s, d, avoid, u), want, "{case}");
                        assert_eq!(
                            t.pick_shortest_path(s, d, &dist[d], avoid, c),
                            want,
                            "{case}"
                        );
                        let next = rngs.map(|mut g| g.next_u64());
                        assert!(
                            next[1] == next[0] && next[2] == next[0],
                            "{case}: RNG streams diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_switch_star() {
        let t = Topology::single_switch(4, 10e9);
        assert_eq!(t.hosts().len(), 4);
        assert_eq!(t.switches().len(), 1);
        let mut rng = StdRng::seed_from_u64(1);
        let p = t.random_shortest_path(0, 3, None, &mut rng).unwrap();
        assert_eq!(p.len(), 2);
    }
}

//! Property-based tests for the RIB: the incremental decision process must
//! agree with a from-scratch recomputation after any update sequence, and
//! the emitted FIB deltas must replay into exactly the best-route table.
//! Runs under the in-tree `hermes_util::check!` harness with pinned seeds.

use hermes_bgp::prelude::*;
use hermes_rules::prefix::Ipv4Prefix;
use hermes_util::check::{range, vec_of, weighted, zip2, zip3, zip4, Gen};
use std::collections::BTreeMap;

fn prefix() -> Gen<Ipv4Prefix> {
    // A small pool so updates collide on prefixes.
    zip2(range(0u32..16), range(16u8..=24))
        .map(|(i, len)| Ipv4Prefix::new(0x0a00_0000 | (i << 20), len))
}

fn route() -> Gen<BgpRoute> {
    zip4(
        range(0u32..4),
        range(50u32..150),
        range(1u32..6),
        range(0u32..5),
    )
    .map(|(peer, lp, aspath, med)| BgpRoute {
        local_pref: lp,
        as_path_len: aspath,
        med,
        peer: PeerId(peer),
        next_hop_port: peer + 1,
    })
}

fn update() -> Gen<BgpUpdate> {
    weighted(vec![
        (
            3,
            zip2(prefix(), route()).map(|(prefix, route)| BgpUpdate::Announce { prefix, route }),
        ),
        (
            1,
            zip2(prefix(), range(0u32..4)).map(|(prefix, peer)| BgpUpdate::Withdraw {
                prefix,
                peer: PeerId(peer),
            }),
        ),
    ])
}

/// From-scratch oracle: track every peer's latest route per prefix and
/// pick the best by the decision process.
fn oracle_best(history: &[BgpUpdate]) -> BTreeMap<Ipv4Prefix, BgpRoute> {
    let mut per_peer: BTreeMap<(Ipv4Prefix, PeerId), BgpRoute> = BTreeMap::new();
    for u in history {
        match u {
            BgpUpdate::Announce { prefix, route } => {
                per_peer.insert((*prefix, route.peer), *route);
            }
            BgpUpdate::Withdraw { prefix, peer } => {
                per_peer.remove(&(*prefix, *peer));
            }
        }
    }
    let mut best: BTreeMap<Ipv4Prefix, BgpRoute> = BTreeMap::new();
    for ((prefix, _), route) in per_peer {
        best.entry(prefix)
            .and_modify(|b| {
                if route.better_than(b) {
                    *b = route;
                }
            })
            .or_insert(route);
    }
    best
}

hermes_util::check! {
    #![cases = 256]

    /// Incremental best-path selection ≡ from-scratch recomputation.
    fn incremental_matches_recompute(updates in vec_of(update(), 1..120)) {
        let mut rib = Rib::new();
        for u in &updates {
            rib.process(*u);
        }
        let want = oracle_best(&updates);
        for (prefix, route) in &want {
            let got = rib.best(*prefix);
            assert_eq!(got.map(|r| r.next_hop_port), Some(route.next_hop_port),
                "prefix {}", prefix);
        }
        // And no extra best routes.
        for u in &updates {
            let p = u.prefix();
            assert_eq!(rib.best(p).is_some(), want.contains_key(&p), "prefix {}", p);
        }
    }

    /// Replaying the FIB deltas yields exactly the best-route table — no
    /// action is lost or duplicated.
    fn fib_deltas_replay_to_best_routes(updates in vec_of(update(), 1..120)) {
        let mut rib = Rib::new();
        let mut replayed: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for u in &updates {
            if let Some(delta) = rib.process(*u) {
                match delta {
                    FibDelta::Add { prefix, port } => {
                        assert!(replayed.insert(prefix, port).is_none(), "double add");
                    }
                    FibDelta::Replace { prefix, old_port, new_port } => {
                        let prev = replayed.insert(prefix, new_port);
                        assert_eq!(prev, Some(old_port), "replace mismatch");
                    }
                    FibDelta::Remove { prefix } => {
                        assert!(replayed.remove(&prefix).is_some(), "remove of absent");
                    }
                }
            }
        }
        let want = oracle_best(&updates);
        assert_eq!(replayed.len(), want.len());
        for (prefix, route) in want {
            assert_eq!(replayed.get(&prefix), Some(&route.next_hop_port));
        }
    }

    /// The decision order is a strict total order on distinct routes.
    fn decision_is_total_order(routes in zip3(route(), route(), route())) {
        let (a, b, c) = routes;
        // Antisymmetry.
        if a.better_than(&b) {
            assert!(!b.better_than(&a));
        }
        // Transitivity.
        if a.better_than(&b) && b.better_than(&c) {
            assert!(a.better_than(&c));
        }
        // Totality on routes from different peers.
        if a.peer != b.peer {
            assert!(a.better_than(&b) || b.better_than(&a));
        }
    }
}

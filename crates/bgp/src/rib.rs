//! The BGP Routing Information Base and decision process.
//!
//! §2.3/§8.4 of the paper evaluate Hermes under *traditional* control
//! planes by replaying BGP updates converted into FIB actions. The key
//! property the preprocessing must capture: "many RIB updates do not
//! percolate down to the FIB" — an announcement that doesn't change the
//! best path produces **no** TCAM action. This module implements the RIB,
//! a standard best-path decision process, and emits exactly the FIB deltas
//! that survive it.

use hermes_rules::prefix::Ipv4Prefix;
use std::collections::BTreeMap;

/// A BGP peer (session) identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

/// The attributes of a path learned from a peer, in decision order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgpRoute {
    /// LOCAL_PREF: higher wins.
    pub local_pref: u32,
    /// AS_PATH length: shorter wins.
    pub as_path_len: u32,
    /// MED: lower wins (compared unconditionally here; real BGP only
    /// compares MED between routes from the same neighbouring AS).
    pub med: u32,
    /// The peer the route was learned from (lowest id as final tiebreak,
    /// standing in for lowest router-id).
    pub peer: PeerId,
    /// Egress port the route resolves to (what the FIB programs).
    pub next_hop_port: u32,
}

impl BgpRoute {
    /// Total-order comparison per the decision process: `true` when `self`
    /// is preferred over `other`.
    pub fn better_than(&self, other: &BgpRoute) -> bool {
        (
            std::cmp::Reverse(self.local_pref),
            self.as_path_len,
            self.med,
            self.peer,
        ) < (
            std::cmp::Reverse(other.local_pref),
            other.as_path_len,
            other.med,
            other.peer,
        )
    }
}

/// One BGP update message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BgpUpdate {
    /// A route announcement (implicit withdraw of the peer's previous
    /// route for the prefix).
    Announce {
        /// The announced prefix.
        prefix: Ipv4Prefix,
        /// The path attributes.
        route: BgpRoute,
    },
    /// A withdrawal.
    Withdraw {
        /// The withdrawn prefix.
        prefix: Ipv4Prefix,
        /// The withdrawing peer.
        peer: PeerId,
    },
}

impl BgpUpdate {
    /// The prefix the update concerns.
    pub fn prefix(&self) -> Ipv4Prefix {
        match self {
            BgpUpdate::Announce { prefix, .. } | BgpUpdate::Withdraw { prefix, .. } => *prefix,
        }
    }
}

/// A change to the forwarding table (only emitted when the best path
/// actually changed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FibDelta {
    /// The prefix became reachable: install a route to the port.
    Add {
        /// Prefix to install.
        prefix: Ipv4Prefix,
        /// Egress port.
        port: u32,
    },
    /// The best path moved to a different port: rewrite the action.
    Replace {
        /// Affected prefix.
        prefix: Ipv4Prefix,
        /// Previous egress port.
        old_port: u32,
        /// New egress port.
        new_port: u32,
    },
    /// The prefix became unreachable: remove the route.
    Remove {
        /// Prefix to remove.
        prefix: Ipv4Prefix,
    },
}

/// The RIB: all learned paths plus the current best per prefix.
#[derive(Clone, Debug, Default)]
pub struct Rib {
    paths: BTreeMap<Ipv4Prefix, Vec<BgpRoute>>,
    best: BTreeMap<Ipv4Prefix, BgpRoute>,
    /// Updates processed.
    pub updates_processed: u64,
    /// Updates that changed the FIB.
    pub fib_changes: u64,
}

impl Rib {
    /// An empty RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current best route for a prefix.
    pub fn best(&self, prefix: Ipv4Prefix) -> Option<&BgpRoute> {
        self.best.get(&prefix)
    }

    /// Processes one update, returning the FIB delta if the best path
    /// changed. `None` means the update stayed in the RIB ("did not
    /// percolate down to the FIB").
    pub fn process(&mut self, update: BgpUpdate) -> Option<FibDelta> {
        self.updates_processed += 1;
        let prefix = update.prefix();
        let entry = self.paths.entry(prefix).or_default();
        match update {
            BgpUpdate::Announce { route, .. } => {
                // Implicit withdraw of this peer's previous path.
                entry.retain(|r| r.peer != route.peer);
                entry.push(route);
            }
            BgpUpdate::Withdraw { peer, .. } => {
                entry.retain(|r| r.peer != peer);
            }
        }
        let new_best = entry
            .iter()
            .copied()
            .reduce(|a, b| if b.better_than(&a) { b } else { a });
        if entry.is_empty() {
            self.paths.remove(&prefix);
        }
        let old_best = self.best.get(&prefix).copied();
        let delta = match (old_best, new_best) {
            (None, Some(nb)) => {
                self.best.insert(prefix, nb);
                Some(FibDelta::Add {
                    prefix,
                    port: nb.next_hop_port,
                })
            }
            (Some(ob), Some(nb)) => {
                self.best.insert(prefix, nb);
                if ob.next_hop_port != nb.next_hop_port {
                    Some(FibDelta::Replace {
                        prefix,
                        old_port: ob.next_hop_port,
                        new_port: nb.next_hop_port,
                    })
                } else {
                    None // best path changed attributes but not forwarding
                }
            }
            (Some(_), None) => {
                self.best.remove(&prefix);
                Some(FibDelta::Remove { prefix })
            }
            (None, None) => None,
        };
        if delta.is_some() {
            self.fib_changes += 1;
        }
        delta
    }

    /// Bulk-loads a full table — one `(prefix, route)` announcement per
    /// entry — and returns the surviving FIB deltas in order.
    ///
    /// Semantically identical to calling [`Rib::process`] with
    /// `BgpUpdate::Announce` per entry (counters included); it exists so
    /// the ~900k-prefix `bgp-replay` preload reads as one intent and
    /// stays equivalent by construction (see `preload_matches_process`).
    pub fn preload(
        &mut self,
        routes: impl IntoIterator<Item = (Ipv4Prefix, BgpRoute)>,
    ) -> Vec<FibDelta> {
        routes
            .into_iter()
            .filter_map(|(prefix, route)| self.process(BgpUpdate::Announce { prefix, route }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn route(peer: u32, local_pref: u32, as_len: u32, port: u32) -> BgpRoute {
        BgpRoute {
            local_pref,
            as_path_len: as_len,
            med: 0,
            peer: PeerId(peer),
            next_hop_port: port,
        }
    }

    #[test]
    fn decision_order() {
        // local_pref dominates.
        assert!(route(2, 200, 9, 1).better_than(&route(1, 100, 1, 2)));
        // then AS-path length.
        assert!(route(2, 100, 1, 1).better_than(&route(1, 100, 2, 2)));
        // then MED.
        let mut a = route(2, 100, 1, 1);
        a.med = 5;
        let mut b = route(1, 100, 1, 2);
        b.med = 9;
        assert!(a.better_than(&b));
        // then lowest peer id.
        assert!(route(1, 100, 1, 1).better_than(&route(2, 100, 1, 2)));
    }

    #[test]
    fn first_announce_adds() {
        let mut rib = Rib::new();
        let d = rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 100, 3, 7),
        });
        assert_eq!(
            d,
            Some(FibDelta::Add {
                prefix: p("10.0.0.0/8"),
                port: 7
            })
        );
    }

    #[test]
    fn worse_announce_does_not_reach_fib() {
        let mut rib = Rib::new();
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 100, 3, 7),
        });
        // Longer AS path from another peer: stays in RIB only.
        let d = rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(2, 100, 5, 9),
        });
        assert_eq!(d, None);
        assert_eq!(rib.fib_changes, 1);
        assert_eq!(rib.updates_processed, 2);
    }

    #[test]
    fn better_announce_replaces() {
        let mut rib = Rib::new();
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 100, 3, 7),
        });
        let d = rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(2, 200, 3, 9),
        });
        assert_eq!(
            d,
            Some(FibDelta::Replace {
                prefix: p("10.0.0.0/8"),
                old_port: 7,
                new_port: 9
            })
        );
    }

    #[test]
    fn attribute_change_same_port_is_silent() {
        let mut rib = Rib::new();
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 100, 3, 7),
        });
        // Better path, same egress port: no FIB change.
        let d = rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(2, 200, 3, 7),
        });
        assert_eq!(d, None);
    }

    #[test]
    fn withdraw_fails_over_then_removes() {
        let mut rib = Rib::new();
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 200, 3, 7),
        });
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(2, 100, 3, 9),
        });
        // Withdraw the best: fail over to the backup.
        let d = rib.process(BgpUpdate::Withdraw {
            prefix: p("10.0.0.0/8"),
            peer: PeerId(1),
        });
        assert_eq!(
            d,
            Some(FibDelta::Replace {
                prefix: p("10.0.0.0/8"),
                old_port: 7,
                new_port: 9
            })
        );
        // Withdraw the backup: prefix unreachable.
        let d = rib.process(BgpUpdate::Withdraw {
            prefix: p("10.0.0.0/8"),
            peer: PeerId(2),
        });
        assert_eq!(
            d,
            Some(FibDelta::Remove {
                prefix: p("10.0.0.0/8")
            })
        );
        assert_eq!(rib.paths.len(), 0);
    }

    #[test]
    fn implicit_withdraw_on_reannounce() {
        let mut rib = Rib::new();
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 200, 3, 7),
        });
        // Same peer re-announces with worse attributes and another peer's
        // path becomes best.
        rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(2, 150, 3, 9),
        });
        let d = rib.process(BgpUpdate::Announce {
            prefix: p("10.0.0.0/8"),
            route: route(1, 100, 3, 7),
        });
        assert_eq!(
            d,
            Some(FibDelta::Replace {
                prefix: p("10.0.0.0/8"),
                old_port: 7,
                new_port: 9
            })
        );
    }

    #[test]
    fn preload_matches_process() {
        let routes: Vec<(Ipv4Prefix, BgpRoute)> = (0u32..64)
            .map(|i| {
                (
                    Ipv4Prefix::new(0x0a00_0000 | (i << 8), 24),
                    route(i % 4, 100, 2, (i % 4) + 1),
                )
            })
            .collect();
        let mut bulk = Rib::new();
        let deltas = bulk.preload(routes.iter().copied());
        let mut serial = Rib::new();
        let expected: Vec<FibDelta> = routes
            .iter()
            .filter_map(|&(prefix, route)| serial.process(BgpUpdate::Announce { prefix, route }))
            .collect();
        assert_eq!(deltas, expected);
        assert_eq!(deltas.len(), 64, "fresh prefixes all reach the FIB");
        assert_eq!(bulk.paths.len(), serial.paths.len());
        assert_eq!(bulk.updates_processed, serial.updates_processed);
        assert_eq!(bulk.fib_changes, serial.fib_changes);
        for &(prefix, _) in &routes {
            assert_eq!(bulk.best(prefix), serial.best(prefix));
        }
    }

    #[test]
    fn withdraw_of_unknown_is_silent() {
        let mut rib = Rib::new();
        let d = rib.process(BgpUpdate::Withdraw {
            prefix: p("10.0.0.0/8"),
            peer: PeerId(1),
        });
        assert_eq!(d, None);
    }
}

//! The Forwarding Information Base compiler.
//!
//! Converts `FibDelta`s ([`crate::rib::FibDelta`]) into TCAM
//! [`ControlAction`]s. Longest-prefix-match semantics are encoded as rule
//! priority = prefix length (1..=33, leaving [`Priority::NONE`] for rules
//! without ordering), which is exactly how FIBs are laid out in real
//! TCAMs. Each installed prefix keeps a stable rule id so replaces become
//! in-place action modifications — the cheap operation §2.1 highlights.

use crate::rib::FibDelta;
use hermes_rules::prefix::Ipv4Prefix;
use hermes_rules::prelude::*;
use std::collections::BTreeMap;

/// Compiles FIB deltas into TCAM control actions.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    installed: BTreeMap<Ipv4Prefix, RuleId>,
    next_id: u64,
}

impl Fib {
    /// An empty FIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.installed.len()
    }

    /// `true` when nothing is installed.
    pub fn is_empty(&self) -> bool {
        self.installed.is_empty()
    }

    /// The TCAM priority encoding LPM for a prefix.
    pub fn priority_of(prefix: Ipv4Prefix) -> Priority {
        Priority(prefix.len() as u32 + 1)
    }

    /// Translates one delta into the control action that realizes it.
    pub fn compile(&mut self, delta: FibDelta) -> ControlAction {
        match delta {
            FibDelta::Add { prefix, port } => {
                let id = RuleId(self.next_id);
                self.next_id += 1;
                self.installed.insert(prefix, id);
                ControlAction::Insert(Rule {
                    id,
                    key: prefix.to_key(),
                    priority: Self::priority_of(prefix),
                    action: Action::Forward(port),
                })
            }
            FibDelta::Replace {
                prefix, new_port, ..
            } => {
                let id = *self.installed.get(&prefix).expect(
                    "INVARIANT: Rib emits Replace only for a prefix whose Add it already \
                     emitted, and compile installed it then",
                );
                ControlAction::Modify {
                    id,
                    action: Some(Action::Forward(new_port)),
                    priority: None,
                }
            }
            FibDelta::Remove { prefix } => {
                let id = self.installed.remove(&prefix).expect(
                    "INVARIANT: Rib emits Remove only for a prefix whose Add it already \
                     emitted, and compile installed it then",
                );
                ControlAction::Delete(id)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rib::{BgpRoute, BgpUpdate, PeerId, Rib};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn add_compiles_to_insert_with_lpm_priority() {
        let mut fib = Fib::new();
        let a = fib.compile(FibDelta::Add {
            prefix: p("10.0.0.0/8"),
            port: 3,
        });
        match a {
            ControlAction::Insert(r) => {
                assert_eq!(r.priority, Priority(9));
                assert_eq!(r.action, Action::Forward(3));
            }
            other => panic!("expected insert, got {other:?}"),
        }
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn longer_prefixes_get_higher_priority() {
        assert!(Fib::priority_of(p("10.0.0.0/24")) > Fib::priority_of(p("10.0.0.0/8")));
        assert!(Fib::priority_of(p("0.0.0.0/0")) > Priority::NONE);
    }

    #[test]
    fn replace_modifies_in_place() {
        let mut fib = Fib::new();
        let ControlAction::Insert(r) = fib.compile(FibDelta::Add {
            prefix: p("10.0.0.0/8"),
            port: 3,
        }) else {
            panic!()
        };
        let m = fib.compile(FibDelta::Replace {
            prefix: p("10.0.0.0/8"),
            old_port: 3,
            new_port: 5,
        });
        assert_eq!(
            m,
            ControlAction::Modify {
                id: r.id,
                action: Some(Action::Forward(5)),
                priority: None
            }
        );
        assert_eq!(fib.len(), 1, "replace keeps the entry installed");
    }

    #[test]
    fn remove_deletes_by_stable_id() {
        let mut fib = Fib::new();
        let ControlAction::Insert(r) = fib.compile(FibDelta::Add {
            prefix: p("10.0.0.0/8"),
            port: 3,
        }) else {
            panic!()
        };
        let d = fib.compile(FibDelta::Remove {
            prefix: p("10.0.0.0/8"),
        });
        assert_eq!(d, ControlAction::Delete(r.id));
        assert!(fib.is_empty());
    }

    #[test]
    fn end_to_end_rib_to_fib_pipeline() {
        let mut rib = Rib::new();
        let mut fib = Fib::new();
        let updates = [
            BgpUpdate::Announce {
                prefix: p("10.0.0.0/8"),
                route: BgpRoute {
                    local_pref: 100,
                    as_path_len: 2,
                    med: 0,
                    peer: PeerId(1),
                    next_hop_port: 1,
                },
            },
            // Ignored by the FIB (worse path).
            BgpUpdate::Announce {
                prefix: p("10.0.0.0/8"),
                route: BgpRoute {
                    local_pref: 100,
                    as_path_len: 5,
                    med: 0,
                    peer: PeerId(2),
                    next_hop_port: 2,
                },
            },
            // More specific prefix.
            BgpUpdate::Announce {
                prefix: p("10.1.0.0/16"),
                route: BgpRoute {
                    local_pref: 100,
                    as_path_len: 1,
                    med: 0,
                    peer: PeerId(2),
                    next_hop_port: 2,
                },
            },
            BgpUpdate::Withdraw {
                prefix: p("10.0.0.0/8"),
                peer: PeerId(1),
            },
        ];
        let actions: Vec<ControlAction> = updates
            .into_iter()
            .filter_map(|u| rib.process(u))
            .map(|d| fib.compile(d))
            .collect();
        // announce(add), announce(silent), announce(add), withdraw(failover→modify)
        assert_eq!(actions.len(), 3);
        assert!(matches!(actions[0], ControlAction::Insert(_)));
        assert!(matches!(actions[1], ControlAction::Insert(_)));
        assert!(matches!(actions[2], ControlAction::Modify { .. }));
        assert_eq!(rib.updates_processed, 4);
        assert_eq!(rib.fib_changes, 3);
    }
}

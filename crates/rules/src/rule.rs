//! Flow rules.
//!
//! A [`Rule`] is the unit that control-plane actions operate on: a ternary
//! match key, a priority, and an action. Rule identity is carried by a
//! [`RuleId`] assigned by the controller so that deletions and modifications
//! can name the rule they target even after Hermes has partitioned it into
//! several physical TCAM entries.

use crate::key::TernaryKey;
use std::fmt;

/// Controller-assigned rule identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Debug for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Rule priority. Higher values win; `Priority::NONE` marks rules that do
/// not care about ordering (the paper's "rules without priorities", which
/// switches can install much faster because no entries need to move).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Priority(pub u32);

impl Priority {
    /// A rule without an ordering requirement.
    pub const NONE: Priority = Priority(0);
    /// The highest priority.
    pub const MAX: Priority = Priority(u32::MAX);

    /// `true` when the rule carries no ordering requirement.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The forwarding action attached to a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Forward out of the given port.
    Forward(u32),
    /// Drop the packet.
    Drop,
    /// Punt the packet to the SDN controller.
    Controller,
    /// Fall through to the next table in the pipeline (the configured
    /// table-miss behaviour of Hermes shadow tables).
    GotoNextTable,
}

/// A flow rule: match key + priority + action.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Controller-visible identity.
    pub id: RuleId,
    /// Ternary match key.
    pub key: TernaryKey,
    /// Priority (higher wins).
    pub priority: Priority,
    /// Action to apply on match.
    pub action: Action,
}

impl Rule {
    /// Builds a rule.
    pub fn new(id: u64, key: TernaryKey, priority: Priority, action: Action) -> Self {
        Rule {
            id: RuleId(id),
            key,
            priority,
            action,
        }
    }

    /// Do the match regions of two rules overlap?
    pub fn overlaps(&self, other: &Rule) -> bool {
        self.key.overlaps(&other.key)
    }

    /// A copy with a different key (used when cutting rules into partitions).
    pub fn with_key(&self, key: TernaryKey) -> Rule {
        Rule { key, ..*self }
    }

    /// A copy with a different priority (used by the incremental atomic
    /// migration to bump rules above the entries they replace).
    pub fn with_priority(&self, priority: Priority) -> Rule {
        Rule { priority, ..*self }
    }
}

/// The kinds of control-plane action a controller can issue (the paper's
/// `flow-mod` family).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlAction {
    /// Insert a new rule.
    Insert(Rule),
    /// Delete the rule with the given id.
    Delete(RuleId),
    /// Modify the rule with the given id: replace action and/or priority.
    Modify {
        /// Target rule.
        id: RuleId,
        /// New action, if changing.
        action: Option<Action>,
        /// New priority, if changing (converted into delete+insert by
        /// Hermes, per §4.1).
        priority: Option<Priority>,
    },
}

impl ControlAction {
    /// The rule id the action refers to.
    pub fn rule_id(&self) -> RuleId {
        match self {
            ControlAction::Insert(r) => r.id,
            ControlAction::Delete(id) => *id,
            ControlAction::Modify { id, .. } => *id,
        }
    }

    /// `true` for insertions — the only action class that needs performance
    /// engineering (§2.1 takeaways).
    pub fn is_insert(&self) -> bool {
        matches!(self, ControlAction::Insert(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::Ipv4Prefix;

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(1))
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority(10) > Priority(1));
        assert!(Priority::NONE.is_none());
        assert!(!Priority(1).is_none());
        assert!(Priority::MAX > Priority(1_000_000));
    }

    #[test]
    fn rule_overlap_follows_keys() {
        let a = rule(1, "10.0.0.0/8", 10);
        let b = rule(2, "10.1.0.0/16", 5);
        let c = rule(3, "11.0.0.0/8", 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn control_action_accessors() {
        let r = rule(7, "10.0.0.0/8", 1);
        assert_eq!(ControlAction::Insert(r).rule_id(), RuleId(7));
        assert!(ControlAction::Insert(r).is_insert());
        assert_eq!(ControlAction::Delete(RuleId(9)).rule_id(), RuleId(9));
        assert!(!ControlAction::Delete(RuleId(9)).is_insert());
        let m = ControlAction::Modify {
            id: RuleId(3),
            action: Some(Action::Drop),
            priority: None,
        };
        assert_eq!(m.rule_id(), RuleId(3));
    }

    #[test]
    fn with_key_and_priority_preserve_identity() {
        let r = rule(1, "10.0.0.0/8", 10);
        let cut = r.with_key("10.128.0.0/9".parse::<Ipv4Prefix>().unwrap().to_key());
        assert_eq!(cut.id, r.id);
        assert_eq!(cut.priority, r.priority);
        let bumped = r.with_priority(Priority(11));
        assert_eq!(bumped.id, r.id);
        assert_eq!(bumped.key, r.key);
        assert_eq!(bumped.priority, Priority(11));
    }
}

//! # hermes-rules — classifier algebra for Hermes
//!
//! The rule-manipulation substrate of the Hermes reproduction (CoNEXT'17):
//! ternary match keys with overlap/containment/difference operations,
//! IPv4 prefixes, multi-field flow matches, a prefix-trie overlap index, the
//! flat slab and id index that rule tables store rules in, and
//! semantics-preserving rule-set minimization.
//!
//! Everything in this crate is pure data manipulation — no clocks, no I/O —
//! so it is shared by the TCAM device model, the Hermes framework, the
//! baselines and the BGP engine.
//!
//! ## Quick tour
//!
//! ```
//! use hermes_rules::prelude::*;
//!
//! // Fig. 4 of the paper: a /24 rule cut against a higher-priority /26.
//! let wide: Ipv4Prefix = "192.168.1.0/24".parse().unwrap();
//! let hole: Ipv4Prefix = "192.168.1.0/26".parse().unwrap();
//! let pieces = wide.difference(&hole);
//! assert_eq!(pieces.len(), 2); // 192.168.1.64/26 and 192.168.1.128/25
//!
//! // The same cut through the generic ternary algebra.
//! let pieces = wide.to_key().difference(&hole.to_key());
//! assert_eq!(pieces.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fields;
pub mod key;
pub mod merge;
pub mod overlap;
pub mod prefix;
pub mod rule;
pub mod store;
pub mod trie;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::fields::{FlowMatch, PacketHeader};
    pub use crate::key::TernaryKey;
    pub use crate::merge::{minimize_keys, optimize_ruleset};
    pub use crate::overlap::OverlapIndex;
    pub use crate::prefix::Ipv4Prefix;
    pub use crate::rule::{Action, ControlAction, Priority, Rule, RuleId};
    pub use crate::trie::PrefixTrie;
}

//! # hermes-netsim — Varys, the flow-level network simulator
//!
//! The evaluation substrate of the Hermes reproduction (§8.1.1 of the
//! paper): a deterministic discrete-event, flow-level simulator with
//! TCAM-aware switch control planes.
//!
//! * [`topology`] — fat trees (the paper's k=16 / 1024-host data center),
//!   Abilene, Geant and Quest ISP backbones, and a MicroBench star;
//! * [`flow`] — max-min fair bandwidth sharing (progressive filling);
//! * [`metrics`] — RIT / FCT / JCT collection and CDF rendering;
//! * [`sim`] — the event loop plus the proactive traffic-engineering
//!   SDNApp whose reconfigurations exercise the switch control planes,
//!   one fleet member per switch, each on its own worker lane.
//!
//! ## Example
//!
//! ```
//! use hermes_netsim::prelude::*;
//! use hermes_workloads::facebook::{FlowSpec, JobSpec};
//!
//! let topo = Topology::fat_tree(4, 10e9);
//! let mut sim = Varys::new(topo, VarysConfig::default());
//! sim.register_jobs(&[JobSpec {
//!     id: 0,
//!     arrival_s: 0.0,
//!     flows: vec![FlowSpec { src: 0, dst: 9, bytes: 10_000_000 }],
//! }]);
//! sim.run(10.0);
//! assert_eq!(sim.metrics.fct_s.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod flow;
pub mod metrics;
pub mod sim;
pub mod topology;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::flow::{ActiveFlow, FlowId, FlowTable, JobId};
    pub use crate::metrics::{median_improvement, RunMetrics, Samples};
    pub use crate::sim::{SwitchKind, Varys, VarysConfig};
    pub use crate::topology::{Link, LinkId, NodeId, NodeKind, Topology};
}

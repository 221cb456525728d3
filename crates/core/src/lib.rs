//! # hermes-core — the Hermes framework (CoNEXT'17)
//!
//! Hermes provides **tight latency guarantees for TCAM control-plane
//! actions** on commodity SDN switches. The key idea: rule insertion into a
//! TCAM is slow and variable because it must shift entries to preserve
//! priority order, and the cost grows with table occupancy. Hermes carves
//! the TCAM into a small, mostly-empty **shadow table** that services all
//! insertions (so every insertion is cheap and bounded) and a large **main
//! table** that holds the steady state; a Rule Manager migrates rules
//! shadow→main before the shadow fills.
//!
//! The crate implements the full paper architecture:
//!
//! * [`switch::HermesSwitch`] — the agent: logical-table facade over the
//!   shadow/main pair (Fig. 3);
//! * [`gatekeeper`] — admission control and routing (token bucket,
//!   predicates, low-priority bypass);
//! * [`partition`] — Algorithm 1 (`PartitionNewRule`) and its inverse
//!   bookkeeping for deletions;
//! * [`manager`] — migration triggering (predictive vs Hermes-SIMPLE
//!   threshold) and the migration report;
//! * [`predict`] — EWMA / Cubic Spline / ARMA predictors with Slack and
//!   Deadzone correctors (§5.1);
//! * [`api`] — the operator interface (`CreateTCAMQoS` …, §7);
//! * [`plane`] — the `ControlPlane` abstraction the fleet, the simulator
//!   and the comparison baselines drive, with Hermes behind it.
//!
//! ## Quickstart
//!
//! ```
//! use hermes_core::prelude::*;
//! use hermes_rules::prelude::*;
//! use hermes_tcam::{SimDuration, SimTime, SwitchModel};
//!
//! // A Pica8 P-3290 with a 5 ms insertion guarantee.
//! let config = HermesConfig::with_guarantee(SimDuration::from_ms(5.0));
//! let mut switch = HermesSwitch::new(SwitchModel::pica8_p3290(), config).unwrap();
//!
//! // Install a rule; Hermes places it in the shadow table.
//! let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
//! let rule = Rule::new(1, prefix.to_key(), Priority(10), Action::Forward(3));
//! let report = switch.insert(rule, SimTime::ZERO).unwrap();
//! assert!(report.latency <= SimDuration::from_ms(5.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod config;
pub mod gatekeeper;
pub mod manager;
pub mod multitable;
pub mod partition;
pub mod plane;
pub mod predict;
pub mod recovery;
pub mod resync;
pub mod switch;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::api::{HermesApi, QosHandle, ShadowId, SwitchId};
    pub use crate::config::{HermesConfig, MigrationMode, MigrationTrigger, RulePredicate};
    pub use crate::gatekeeper::{GateKeeper, Route, TokenBucket};
    pub use crate::manager::{MigrationReport, RuleManager};
    pub use crate::multitable::{MultiTableHermes, TableSpec};
    pub use crate::partition::{partition_new_rule, PartitionOutcome};
    pub use crate::predict::{Arma, Corrector, CubicSpline, Ewma, Predictor, PredictorKind};
    pub use crate::recovery::{AuditReport, RecoveryStats, RetryPolicy};
    pub use crate::resync::{
        IntentOp, IntentStore, ResyncMode, ResyncPolicy, ResyncReport, ResyncStats,
    };
    pub use crate::switch::{
        ActionReport, HermesError, HermesStats, HermesSwitch, ReportDetail, MAIN, SHADOW,
    };
}

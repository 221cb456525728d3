//! # hermes-tcam — TCAM device model
//!
//! The switch-hardware substrate of the Hermes reproduction (CoNEXT'17):
//!
//! * [`table`] — a priority-ordered TCAM table that accounts for the entry
//!   *shifts* each insertion causes (the root cause of slow, variable
//!   control-plane actions, §2.1 of the paper);
//! * [`perf`] — empirical per-switch latency models built from the
//!   occupancy→update-rate measurements the paper reprints in Table 1
//!   (Pica8 P-3290, Dell 8132F, plus a synthesized HP 5406zl);
//! * [`device`] — a switch ASIC with TCAM *carving* into slices, the SDK
//!   capability Hermes relies on (§6);
//! * [`fault`] — a seeded, deterministic fault injector for the control
//!   channel (transient failures, latency spikes, outages, silent drops,
//!   and crash-class faults: wipes, partial retention, disconnects);
//! * [`time`] — deterministic simulated time used across the workspace.
//!
//! ## Example: reproducing a Table 1 measurement
//!
//! ```
//! use hermes_tcam::perf::SwitchModel;
//!
//! let pica8 = SwitchModel::pica8_p3290();
//! // With 1000 entries installed the Pica8 sustains ~23 updates/s.
//! let rate = 1.0 / pica8.mean_update_latency(1000).as_secs();
//! assert!((rate - 23.0).abs() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod fault;
mod id_index;
mod match_index;
pub mod perf;
pub mod table;
pub mod time;

pub use device::{BatchOpReport, LookupResult, OpReport, Slice, TcamDevice};
pub use fault::{CrashKind, CrashSpec, FaultDecision, FaultPlan, FaultStats};
pub use perf::SwitchModel;
pub use table::{BatchReport, PlacementStrategy, TableStats, TcamError, TcamOp, TcamTable};
pub use time::{SimDuration, SimTime};

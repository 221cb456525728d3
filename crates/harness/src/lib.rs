//! # hermes-harness — the process-level scenario orchestrator
//!
//! Everything before this crate drives Hermes *inside* one process; the
//! harness runs the binaries the way CI and operators actually run them
//! (DESIGN.md §11). It loads the scenario matrix
//! (`scenarios/matrix.toml`, parsed by [`hermes_util::scenario`] — the
//! same parser the binaries use), spawns each scenario's release
//! `exp_*` binary as an OS process `runs` seeded times, and gives each
//! repetition a verdict: a nonzero exit, a timeout, or a traced rep
//! whose BENCH report is missing, unparsable or of the wrong schema
//! fails it. The verdicts go into a versioned [`report::SCHEMA`]
//! (`hermes-matrix-report/3`) document.
//!
//! The harness measures nothing: host time is the perf ledger's
//! (`benchmark/`), and the children's counters are gated byte-exact by
//! `perfgate.py counters` and the ledger digests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
pub mod run;

pub use run::{run_matrix, MatrixRun, RepResult, RunConfig, ScenarioRun};

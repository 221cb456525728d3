//! # hermes-harness — the process-level scenario orchestrator
//!
//! Everything before this crate measures Hermes *inside* one process; the
//! harness measures the binaries the way CI and operators actually run
//! them (DESIGN.md §11). It loads the scenario matrix
//! (`scenarios/matrix.toml`, parsed by [`hermes_util::scenario`] — the
//! same parser the binaries use), spawns each scenario's release
//! `exp_*` binary as an OS process `runs` seeded times, and gives each
//! repetition a verdict: a nonzero exit, a timeout, or a traced rep
//! whose BENCH report is missing, unparsable or of the wrong schema
//! fails it. It also measures what the `scripts/perfgate.py` envelopes
//! read — wall-clock and the peak RSS from `/proc/<pid>/status` — and
//! writes both into a versioned [`report::SCHEMA`]
//! (`hermes-matrix-report/2`) document.
//!
//! The children's counters are not read here: `perfgate.py counters`
//! and the ledger digests gate them byte-exact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod procsample;
pub mod report;
pub mod run;

pub use run::{run_matrix, MatrixRun, RepResult, RunConfig, ScenarioRun};

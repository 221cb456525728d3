//! # hermes-perf-ledger — the repo's host-time benchmark
//!
//! Five workloads drive the *public* API of each layer from outside —
//! single-threaded, closed loop, fixed op counts per repetition — and
//! report end-to-end host-time metrics (untraced run) and per-layer
//! attribution (traced run). See `README.md` beside this crate for every
//! workload's rationale and every metric's definition.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod ledger;
pub mod probes;
pub mod recorder;
pub mod summary;
pub mod verify;
pub mod workloads;

//! # hermes-util — the zero-dependency substrate
//!
//! Everything the Hermes workspace needs that would otherwise come from
//! crates.io, in-tree so the repo builds and tests fully offline:
//!
//! * [`rng`] — a seedable xoshiro256** PRNG with the distribution helpers
//!   the workloads use (uniform ranges, Bernoulli, exponential/Poisson
//!   arrivals, Pareto and log-normal sizes, weighted choice, shuffle).
//!   The API mirrors the subset of `rand` 0.8 this workspace used, so
//!   `rand::` call sites port by switching the path to `hermes_util::rng::`.
//! * [`json`] — a minimal JSON value, writer and reader for experiment
//!   output and trace files.
//! * [`check`] — a compact property-testing harness (see [`check!`]) with
//!   generator combinators, fixed default seeds, failure minimization by
//!   halving the generation size, and `HERMES_CHECK_*` env overrides.
//! * [`bench`] — [`bench::Stopwatch`], the one sanctioned wall-clock read
//!   (lint R1); the perf ledger and `hermes-harness` measure through it.
//! * [`stats`] — the shared nearest-rank quantile used by the scenario
//!   harness, the perf ledger and the netsim metric distributions.
//!
//! Policy (see README.md "Hermetic build"): this workspace takes **no**
//! external crate dependencies. Anything new must live here or be
//! vendored in-tree.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod check;
pub mod json;
pub mod rng;
pub mod scenario;
pub mod stats;

//! # hermes-lint — machine-checked workspace invariants
//!
//! Hermes's guarantees rest on conventions the compiler cannot see:
//! seeded runs must reproduce telemetry byte-for-byte, control-plane code
//! must never panic on a device fault, and the build must stay hermetic
//! with zero external crates. This crate turns each convention into a
//! lint rule over a token-level scan of the whole workspace
//! (DESIGN.md §9 "Static analysis"):
//!
//! | rule | name        | invariant |
//! |------|-------------|-----------|
//! | R1   | determinism | `Instant`/`SystemTime`/`HashMap`/`HashSet` forbidden outside the allowlist |
//! | R2   | panic-policy | `.unwrap()`/`.expect(`/`panic!`/`unreachable!` in non-test code needs an `INVARIANT:` comment |
//! | R3   | unsafe-forbid | every crate root carries `#![forbid(unsafe_code)]` |
//! | R4   | hermeticity | every Cargo.toml dependency is a workspace path dep; Cargo.lock has no external packages |
//! | R5   | telemetry-registry | metric/span names in code ↔ `crates/telemetry/registry.txt`; a non-literal name is a finding |
//! | R6   | exp-contract | every `exp_*` binary goes through `hermes_bench::run_experiment` |
//! | R7   | rng-stream-isolation | `seed_from_u64` mixes a `*_SALT` constant or seed variable; no raw literals, no cross-crate sharing |
//! | R8   | intent-pairing | device-mutating `HermesSwitch` methods record intent on every public path |
//! | R9   | swallowed-device-errors | `TcamError`/`HermesError` Results are not discarded without an `INVARIANT:` comment |
//! | S1   | suppression | a suppression must parse and carry a reason |
//!
//! R1–R6 and S1 run over the token stream; R7–R9 are flow-sensitive and
//! run over parsed `fn` items and a per-crate call graph
//! ([`parser`], [`flow`]). The id R10 is retired, not reused.
//!
//! Findings can be waived inline:
//!
//! ```text
//! // hermes-lint: allow(R1, reason = "lookup-only map; iteration order never observed")
//! // hermes-lint: allow-file(R1, reason = "whole file uses sorted iteration")
//! ```
//!
//! An `allow` on line *N* covers findings on lines *N* and *N+1* (so it
//! works both as a trailing comment and on the line above); `allow-file`
//! covers the whole file. A suppression without a reason is itself a
//! finding (S1) — the waiver must say *why* the invariant holds anyway.
//!
//! Run it with `cargo run -p hermes-lint -- --workspace`; the exit code
//! is the verdict.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod flow;
pub mod lexer;
pub mod manifest;
pub mod parser;
pub mod suppress;

use std::fmt;

/// The lint rules, in the order they are documented and reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R1 — wall clock and unseeded hash collections are forbidden.
    Determinism,
    /// R2 — panicking calls need an adjacent `INVARIANT:` justification.
    PanicPolicy,
    /// R3 — every crate root forbids `unsafe_code`.
    UnsafeForbid,
    /// R4 — all dependencies are in-tree workspace path deps.
    Hermeticity,
    /// R5 — telemetry names are string literals that match the checked-in
    /// registry, both ways.
    TelemetryRegistry,
    /// R6 — experiment binaries go through `hermes_bench::run_experiment`.
    ExpContract,
    /// R7 — every seeded RNG stream mixes a named `*_SALT` constant or a
    /// seed parameter; no raw literal seeds, no cross-crate stream sharing.
    RngStreamIsolation,
    /// R8 — device-mutating `HermesSwitch` methods pair with an intent
    /// hook on every path from the public API.
    IntentPairing,
    /// R9 — `Result`s carrying `TcamError`/`HermesError` may not be
    /// discarded via `let _ =` or `.ok()` without an `INVARIANT:` comment.
    SwallowedDeviceError,
    /// S1 — malformed or reason-less suppression directives.
    Suppression,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::Determinism,
    Rule::PanicPolicy,
    Rule::UnsafeForbid,
    Rule::Hermeticity,
    Rule::TelemetryRegistry,
    Rule::ExpContract,
    Rule::RngStreamIsolation,
    Rule::IntentPairing,
    Rule::SwallowedDeviceError,
    Rule::Suppression,
];

impl Rule {
    /// Short id (`R1`…`R9`, `S1`).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::Determinism => "R1",
            Rule::PanicPolicy => "R2",
            Rule::UnsafeForbid => "R3",
            Rule::Hermeticity => "R4",
            Rule::TelemetryRegistry => "R5",
            Rule::ExpContract => "R6",
            Rule::RngStreamIsolation => "R7",
            Rule::IntentPairing => "R8",
            Rule::SwallowedDeviceError => "R9",
            Rule::Suppression => "S1",
        }
    }

    /// Human-readable rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicPolicy => "panic-policy",
            Rule::UnsafeForbid => "unsafe-forbid",
            Rule::Hermeticity => "hermeticity",
            Rule::TelemetryRegistry => "telemetry-registry",
            Rule::ExpContract => "exp-contract",
            Rule::RngStreamIsolation => "rng-stream-isolation",
            Rule::IntentPairing => "intent-pairing",
            Rule::SwallowedDeviceError => "swallowed-device-errors",
            Rule::Suppression => "suppression",
        }
    }

    /// Looks a rule up by id (`R1`) or name (`determinism`).
    pub fn parse(s: &str) -> Option<Rule> {
        ALL_RULES
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(s) || r.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.id(), self.name())
    }
}

/// One lint finding, pointing at a workspace-relative file position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A suppression that was honoured, kept in the outcome so waived
/// invariants stay visible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppliedSuppression {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the directive.
    pub line: usize,
    /// Rule waived.
    pub rule: Rule,
    /// The stated reason.
    pub reason: String,
}

/// Result of linting a file tree.
#[derive(Clone, Debug, Default)]
pub struct LintOutcome {
    /// Findings, sorted by (file, line, col, rule).
    pub findings: Vec<Diagnostic>,
    /// Suppression directives found (whether or not anything matched).
    pub suppressions: Vec<AppliedSuppression>,
    /// Number of files scanned (`.rs` + manifests + registry).
    pub files_scanned: usize,
}

impl LintOutcome {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

//! # hermes-lint — machine-checked workspace invariants
//!
//! Hermes's guarantees rest on conventions neither rustc nor clippy can
//! see: control-plane code must never panic on a device fault, and
//! telemetry names must match the reviewed registry. This crate turns each
//! convention into a lint rule over a token-level scan of the whole
//! workspace (DESIGN.md §9 "Static analysis"):
//!
//! | rule | name        | invariant |
//! |------|-------------|-----------|
//! | R2   | panic-policy | `.unwrap()`/`.expect(`/`panic!`/`unreachable!` in non-test code needs an `INVARIANT:` comment |
//! | R5   | telemetry-registry | metric/span names in code ↔ `crates/telemetry/registry.txt`; a non-literal name is a finding |
//! | S1   | suppression | a suppression must parse and carry a reason |
//!
//! All three run over the token stream. The ids R1, R3, R4, R6, R7, R8,
//! R9 and R10 are retired, not reused. The toolchain makes R1's, R3's and
//! R9's checks (`clippy.toml` and the clippy stage's flags), the
//! `hermes_util::rng::Salt` type plus a `clippy.toml` ban makes R7's, and
//! two tests in the root `tests/matrix.rs` make R4's and R6's. R8 guarded
//! a controller-side rule store that nothing read; it went with the store.
//!
//! Findings can be waived inline:
//!
//! ```text
//! // hermes-lint: allow(R2, reason = "index bounded by the loop guard above")
//! // hermes-lint: allow-file(R2, reason = "whole file is a test helper")
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
pub mod lexer;
pub mod suppress;

use std::fmt;

/// The lint rules, in the order they are documented and reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// R2 — panicking calls need an adjacent `INVARIANT:` justification.
    PanicPolicy,
    /// R5 — telemetry names are string literals that match the checked-in
    /// registry, both ways.
    TelemetryRegistry,
    /// S1 — malformed or reason-less suppression directives.
    Suppression,
}

/// All rules, in reporting order.
pub const ALL_RULES: [Rule; 3] = [
    Rule::PanicPolicy,
    Rule::TelemetryRegistry,
    Rule::Suppression,
];

impl Rule {
    /// Short id (`R2`, `R5`, `S1`).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::PanicPolicy => "R2",
            Rule::TelemetryRegistry => "R5",
            Rule::Suppression => "S1",
        }
    }

    /// Human-readable rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::PanicPolicy => "panic-policy",
            Rule::TelemetryRegistry => "telemetry-registry",
            Rule::Suppression => "suppression",
        }
    }

    /// Looks a rule up by id (`R2`) or name (`panic-policy`).
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
    /// Number of files scanned (`.rs` + registry).
    pub files_scanned: usize,
}

impl LintOutcome {
    /// `true` when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

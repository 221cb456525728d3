//! The flow-sensitive rules R7–R9 (DESIGN.md §9).
//!
//! These run over [`crate::parser`] output rather than raw tokens: R7
//! inspects `seed_from_u64` argument shapes and resolves salt constants,
//! R8 walks a per-crate call graph rooted at the public `HermesSwitch`
//! surface, and R9 resolves discard sites against the workspace-wide set
//! of error-carrying function signatures.
//!
//! All three respect the same exemptions as the token rules: test-like
//! files and `#[cfg(test)]` regions are skipped, and an `INVARIANT:`
//! comment within three lines above a site is an accepted justification
//! ([`ParsedFile::justified`], the window R2 uses too).

use crate::lexer::TokKind;
use crate::parser::{Call, DiscardKind, FnItem, ParsedFile};
use crate::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// Everything the flow pass needs to know about one `.rs` file.
pub struct FlowFile<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Parsed items.
    pub parsed: &'a ParsedFile,
    /// Whole file is test-like (`tests/`, `benches/`, …).
    pub is_test: bool,
    /// `#[cfg(test)]`/`#[test]` line ranges inside a non-test file.
    pub test_regions: &'a [(usize, usize)],
}

impl FlowFile<'_> {
    fn exempt(&self, line: usize) -> bool {
        self.is_test
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| line >= a && line <= b)
    }
}

/// The `Self` type whose public surface R8 treats as the mutation roots.
const SWITCH_TYPE: &str = "HermesSwitch";

/// Method names that count as physical-table mutations when called on a
/// `device` receiver.
const DEVICE_MUTATORS: &[&str] = &[
    "insert",
    "delete",
    "modify",
    "modify_action",
    "apply",
    "apply_batch",
];

/// Error types whose `Result`s R9 refuses to see discarded.
const DEVICE_ERROR_TYPES: &[&str] = &["TcamError", "HermesError"];

/// Runs R7–R9 over the parsed tree.
pub fn check(files: &[FlowFile<'_>]) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    check_rng_streams(files, &mut findings);
    check_intent_pairing(files, &mut findings);
    check_swallowed_errors(files, &mut findings);
    findings
}

/// Crate key of a workspace-relative path (`crates/tcam/src/table.rs` →
/// `crates/tcam`).
fn crate_of(path: &str) -> String {
    let segs: Vec<&str> = path.split('/').collect();
    if segs.len() >= 2 && segs[0] == "crates" {
        format!("{}/{}", segs[0], segs[1])
    } else {
        segs[0].to_string()
    }
}

// ---------------------------------------------------------------- R7

fn check_rng_streams(files: &[FlowFile<'_>], findings: &mut Vec<Diagnostic>) {
    // Salt-value resolution: crate -> const name -> numeric value.
    let mut consts: BTreeMap<String, BTreeMap<String, u128>> = BTreeMap::new();
    for f in files {
        let entry = consts.entry(crate_of(f.path)).or_default();
        for c in &f.parsed.consts {
            if let Some(v) = parse_int(&c.value) {
                entry.insert(c.name.clone(), v);
            }
        }
    }

    // Pinned streams (no run-seed variable in the argument): signature ->
    // sites, for the cross-crate sharing check.
    let mut pinned: BTreeMap<String, Vec<(String, usize, usize)>> = BTreeMap::new();

    for f in files {
        let crate_consts = consts.get(&crate_of(f.path));
        for func in &f.parsed.fns {
            for call in &func.calls {
                if call.name != "seed_from_u64" || f.exempt(call.line) {
                    continue;
                }
                let idents: Vec<&str> = call
                    .args
                    .iter()
                    .filter(|(k, _)| matches!(k, TokKind::Ident | TokKind::RawIdent))
                    .map(|(_, t)| t.as_str())
                    .collect();
                let has_salt = idents
                    .iter()
                    .any(|s| s.ends_with("_SALT") || s.ends_with("_salt"));
                let has_var = idents.iter().any(|s| {
                    s.chars()
                        .next()
                        .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
                });
                if !has_salt && !has_var {
                    let msg = if idents.is_empty() {
                        "raw literal seed: name it (`const <SUBSYSTEM>_STREAM_SALT: u64 = …`) \
                         or mix a run-seed variable, so RNG streams stay isolated per subsystem"
                            .to_string()
                    } else {
                        format!(
                            "seed constant `{}` is not named `*_SALT`: rename it so stream \
                             ownership is auditable (CRASH_STREAM_SALT pattern)",
                            idents[0]
                        )
                    };
                    findings.push(Diagnostic {
                        file: f.path.to_string(),
                        line: call.line,
                        col: call.col,
                        rule: Rule::RngStreamIsolation,
                        message: msg,
                    });
                }
                if !has_var {
                    if let Some(sig) = pinned_signature(call, crate_consts) {
                        pinned.entry(sig).or_default().push((
                            f.path.to_string(),
                            call.line,
                            call.col,
                        ));
                    }
                }
            }
        }
    }

    // Cross-crate sharing: the same pinned seed value in two crates means
    // two subsystems draw the same stream.
    for (sig, sites) in &pinned {
        let crates: BTreeSet<String> = sites.iter().map(|(p, _, _)| crate_of(p)).collect();
        if crates.len() < 2 {
            continue;
        }
        for (path, line, col) in sites {
            let other = sites
                .iter()
                .find(|(p, _, _)| crate_of(p) != crate_of(path))
                .map(|(p, l, _)| format!("{p}:{l}"))
                .unwrap_or_default();
            findings.push(Diagnostic {
                file: path.clone(),
                line: *line,
                col: *col,
                rule: Rule::RngStreamIsolation,
                message: format!(
                    "RNG stream seed {sig} is shared across crates (also seeded at {other}): \
                     give each subsystem its own *_SALT value"
                ),
            });
        }
    }
}

/// Canonical signature of a pinned seed argument: numeric literals and
/// resolvable constants are folded to decimal, operators kept. Returns
/// `None` when an identifier cannot be resolved.
fn pinned_signature(call: &Call, consts: Option<&BTreeMap<String, u128>>) -> Option<String> {
    let mut parts = Vec::new();
    for (kind, text) in &call.args {
        match kind {
            TokKind::Num => parts.push(parse_int(text)?.to_string()),
            TokKind::Ident | TokKind::RawIdent => {
                parts.push(consts?.get(text)?.to_string());
            }
            TokKind::Punct => parts.push(text.clone()),
            _ => return None,
        }
    }
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(" "))
    }
}

/// Parses Rust integer literal text (`0x4845_524d`, `7u64`, `0b1010`).
fn parse_int(text: &str) -> Option<u128> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let t = t
        .trim_end_matches(|c: char| c.is_ascii_alphabetic())
        .to_string();
    // Put back the radix letter the suffix-trim may have eaten (0x → 0).
    let (radix, digits) = if let Some(d) = text.strip_prefix("0x").or(text.strip_prefix("0X")) {
        (16, d.chars().filter(|c| *c != '_').collect::<String>())
    } else if let Some(d) = text.strip_prefix("0b").or(text.strip_prefix("0B")) {
        (2, d.chars().filter(|c| *c != '_').collect::<String>())
    } else if let Some(d) = text.strip_prefix("0o").or(text.strip_prefix("0O")) {
        (8, d.chars().filter(|c| *c != '_').collect::<String>())
    } else {
        (10, t)
    };
    let digits: String = if radix == 16 {
        digits
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .collect()
    } else {
        digits.chars().take_while(|c| c.is_ascii_digit()).collect()
    };
    if digits.is_empty() {
        return None;
    }
    u128::from_str_radix(&digits, radix).ok()
}

// ---------------------------------------------------------------- R8

/// A mutator called on a `device` receiver, or any call handed
/// `&mut self.device`: the switch's retry chokepoint issues the device
/// call it is given as a closure, so lending the device out mutably is
/// the mutation as far as the call graph can tell.
fn is_device_mutation(call: &Call) -> bool {
    const LEND: [&str; 5] = ["&", "mut", "self", ".", "device"];
    (DEVICE_MUTATORS.contains(&call.name.as_str()) && call.recv.iter().any(|r| r == "device"))
        || call
            .args
            .windows(LEND.len())
            .any(|w| w.iter().map(|(_, text)| text.as_str()).eq(LEND))
}

fn is_intent_touch(call: &Call) -> bool {
    call.recv.iter().any(|r| r == "intent" || r == "IntentOp")
        || call.name.starts_with("intent")
}

fn check_intent_pairing(files: &[FlowFile<'_>], findings: &mut Vec<Diagnostic>) {
    // Group non-test fns by crate; only crates that implement the switch
    // type participate.
    let mut by_crate: BTreeMap<String, Vec<(&FlowFile<'_>, &FnItem)>> = BTreeMap::new();
    for f in files {
        for func in &f.parsed.fns {
            if f.exempt(func.line) {
                continue;
            }
            by_crate.entry(crate_of(f.path)).or_default().push((f, func));
        }
    }

    for fns in by_crate.values() {
        if !fns
            .iter()
            .any(|(_, func)| func.impl_type.as_deref() == Some(SWITCH_TYPE))
        {
            continue;
        }

        // Node facts.
        let touches_intent: Vec<bool> = fns
            .iter()
            .map(|(_, func)| func.calls.iter().any(is_intent_touch))
            .collect();
        let mutates_device: Vec<bool> = fns
            .iter()
            .map(|(_, func)| func.calls.iter().any(is_device_mutation))
            .collect();

        // Name-resolution tables.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_impl_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        for (idx, (_, func)) in fns.iter().enumerate() {
            by_name.entry(&func.name).or_default().push(idx);
            if let Some(ty) = &func.impl_type {
                by_impl_name
                    .entry((ty.as_str(), &func.name))
                    .or_default()
                    .push(idx);
            }
        }

        // Edges: self-calls resolve within the impl first, `Type::f` calls
        // by impl type, bare calls by name. Field/variable method calls
        // create no edge — their effects are detected directly above.
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (idx, (_, func)) in fns.iter().enumerate() {
            for call in &func.calls {
                let targets: Option<&Vec<usize>> = if call.recv.as_slice() == ["self"] {
                    func.impl_type
                        .as_deref()
                        .and_then(|ty| by_impl_name.get(&(ty, call.name.as_str())))
                        .or_else(|| by_name.get(call.name.as_str()))
                } else if call.recv.is_empty() {
                    by_name.get(call.name.as_str())
                } else if call.recv.len() == 1
                    && call.recv[0].chars().next().is_some_and(|c| c.is_ascii_uppercase())
                {
                    by_impl_name.get(&(call.recv[0].as_str(), call.name.as_str()))
                } else {
                    None
                };
                if let Some(ts) = targets {
                    for &t in ts {
                        if t != idx {
                            edges[idx].push(t);
                        }
                    }
                }
            }
        }

        // Direction 1: a device-mutating switch method with no intent hook
        // must not be reachable from the public surface through
        // intent-free callers.
        let roots: Vec<usize> = fns
            .iter()
            .enumerate()
            .filter(|(_, (_, func))| {
                func.is_pub && func.impl_type.as_deref() == Some(SWITCH_TYPE)
            })
            .map(|(i, _)| i)
            .collect();
        // BFS over intent-free nodes from each intent-free root.
        let mut reached_unguarded = vec![false; fns.len()];
        let mut queue: Vec<usize> = roots
            .iter()
            .copied()
            .filter(|&r| !touches_intent[r])
            .collect();
        for &r in &queue {
            reached_unguarded[r] = true;
        }
        while let Some(n) = queue.pop() {
            for &m in &edges[n] {
                if !touches_intent[m] && !reached_unguarded[m] {
                    reached_unguarded[m] = true;
                    queue.push(m);
                }
            }
        }
        for (idx, (f, func)) in fns.iter().enumerate() {
            if func.impl_type.as_deref() != Some(SWITCH_TYPE) {
                continue;
            }
            if mutates_device[idx]
                && !touches_intent[idx]
                && reached_unguarded[idx]
                && !f.parsed.justified(func.line)
            {
                findings.push(Diagnostic {
                    file: f.path.to_string(),
                    line: func.line,
                    col: func.col,
                    rule: Rule::IntentPairing,
                    message: format!(
                        "`{}` mutates the device table and is reachable from the public \
                         HermesSwitch API without an intent hook on the path: record the \
                         matching IntentOp or mark the fn as an intent-neutral chokepoint \
                         with an INVARIANT: comment",
                        func.name
                    ),
                });
            }
        }

        // Direction 2: a switch method that records intent must reach a
        // device mutation — an intent entry with no physical effect makes
        // resync replay ops the device never saw.
        let mut reaches_mutation = mutates_device.clone();
        // Fixed-point over the (small) crate graph.
        loop {
            let mut changed = false;
            for idx in 0..fns.len() {
                if reaches_mutation[idx] {
                    continue;
                }
                if edges[idx].iter().any(|&m| reaches_mutation[m]) {
                    reaches_mutation[idx] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (idx, (f, func)) in fns.iter().enumerate() {
            if func.impl_type.as_deref() != Some(SWITCH_TYPE) {
                continue;
            }
            let records = func.calls.iter().any(|c| {
                c.name == "record" && c.recv.iter().any(|r| r == "intent")
            });
            if records && !reaches_mutation[idx] && !f.parsed.justified(func.line) {
                findings.push(Diagnostic {
                    file: f.path.to_string(),
                    line: func.line,
                    col: func.col,
                    rule: Rule::IntentPairing,
                    message: format!(
                        "`{}` records an intent op but no device mutation is reachable from \
                         it: pair the hook with the physical write or add an INVARIANT: \
                         comment explaining where the write happens",
                        func.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- R9

fn check_swallowed_errors(files: &[FlowFile<'_>], findings: &mut Vec<Diagnostic>) {
    // Workspace-wide set of fn names whose signatures return device
    // errors. Name-granular: precise enough in a workspace that reserves
    // these verbs for table operations.
    let mut err_fns: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        for func in &f.parsed.fns {
            if DEVICE_ERROR_TYPES.iter().any(|t| func.ret.contains(t)) {
                err_fns.insert(&func.name);
            }
        }
    }
    if err_fns.is_empty() {
        return;
    }

    for f in files {
        for func in &f.parsed.fns {
            for d in &func.discards {
                if f.exempt(d.line) || f.parsed.justified(d.line) {
                    continue;
                }
                let Some(call) = &d.call else { continue };
                if !err_fns.contains(call.as_str()) {
                    continue;
                }
                let form = match d.kind {
                    DiscardKind::LetUnderscore => "`let _ =`",
                    DiscardKind::OkDrop => "`.ok()`",
                };
                findings.push(Diagnostic {
                    file: f.path.to_string(),
                    line: d.line,
                    col: d.col,
                    rule: Rule::SwallowedDeviceError,
                    message: format!(
                        "{form} discards the device-error Result of `{call}`: route the \
                         error to recovery or add an INVARIANT: comment saying why \
                         dropping it is sound"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_file;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(_, s)| parse_file(s)).collect();
        let flow: Vec<FlowFile<'_>> = files
            .iter()
            .zip(&parsed)
            .map(|((p, _), parsed)| FlowFile {
                path: p,
                parsed,
                is_test: false,
                test_regions: &[],
            })
            .collect();
        check(&flow)
    }

    #[test]
    fn r7_raw_literal_seed_flagged() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "fn f() { let r = StdRng::seed_from_u64(7); }\n",
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, Rule::RngStreamIsolation);
        assert!(out[0].message.contains("raw literal seed"));
    }

    #[test]
    fn r7_salt_const_and_seed_variable_are_clean() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "const A_STREAM_SALT: u64 = 7;\n\
             fn f(seed: u64) {\n\
                 let a = StdRng::seed_from_u64(A_STREAM_SALT);\n\
                 let b = StdRng::seed_from_u64(seed ^ 0xbeef);\n\
                 let c = StdRng::seed_from_u64(self.seed);\n\
             }\n",
        )]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r7_uppercase_const_without_salt_suffix_flagged() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "const JITTER_SEED: u64 = 3;\nfn f() { let r = StdRng::seed_from_u64(JITTER_SEED); }\n",
        )]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("JITTER_SEED"), "{}", out[0].message);
    }

    #[test]
    fn r7_cross_crate_shared_pinned_seed_flagged() {
        let out = run(&[
            (
                "crates/a/src/lib.rs",
                "const A_SALT: u64 = 0x10;\nfn f() { let r = StdRng::seed_from_u64(A_SALT); }\n",
            ),
            (
                "crates/b/src/lib.rs",
                "const B_SALT: u64 = 16;\nfn g() { let r = StdRng::seed_from_u64(B_SALT); }\n",
            ),
        ]);
        // Both sites fire: same resolved value 16 in two crates.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.message.contains("shared across crates")));
    }

    #[test]
    fn r8_unpaired_mutation_reachable_from_pub_flagged() {
        let src = "impl HermesSwitch {\n\
             pub fn migrate(&mut self) { self.apply_raw(); }\n\
             fn apply_raw(&mut self) { self.device.apply_batch(ops); }\n\
         }\n";
        let out = run(&[("crates/core/src/switch.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, Rule::IntentPairing);
        assert!(out[0].message.contains("apply_raw"));
    }

    #[test]
    fn r8_intent_on_path_or_invariant_is_clean() {
        let guarded = "impl HermesSwitch {\n\
             pub fn insert(&mut self, r: Rule) {\n\
                 self.intent.record(IntentOp::Install(r));\n\
                 self.dev_apply();\n\
             }\n\
             // INVARIANT: intent-neutral chokepoint; every caller records intent\n\
             fn dev_apply(&mut self) { self.device.apply(op); }\n\
         }\n";
        let out = run(&[("crates/core/src/switch.rs", guarded)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r8_intent_record_without_mutation_flagged() {
        let src = "impl HermesSwitch {\n\
             pub fn phantom(&mut self, r: Rule) { self.intent.record(IntentOp::Install(r)); }\n\
             pub fn real(&mut self, r: Rule) {\n\
                 self.intent.record(IntentOp::Install(r));\n\
                 self.device.apply(op);\n\
             }\n\
         }\n";
        let out = run(&[("crates/core/src/switch.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("phantom"));
    }

    #[test]
    fn r9_discarded_device_error_flagged_and_invariant_waives() {
        let src = "impl T {\n\
             fn delete(&mut self, id: u32) -> Result<Rule, TcamError> { Err(TcamError::Missing) }\n\
             fn replay(&mut self) {\n\
                 let _ = self.delete(1);\n\
                 self.delete(2).ok();\n\
                 // INVARIANT: replay mirrors the sequential path\n\
                 let _ = self.delete(3);\n\
             }\n\
         }\n";
        let out = run(&[("crates/tcam/src/table.rs", src)]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|d| d.rule == Rule::SwallowedDeviceError));
    }

    #[test]
    fn r9_non_error_results_not_flagged() {
        let src = "impl T {\n\
             fn reconcile(&mut self) -> Vec<u32> { Vec::new() }\n\
             fn tick(&mut self) { let _ = self.reconcile(); }\n\
         }\n";
        let out = run(&[("crates/core/src/lib.rs", src)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn parse_int_handles_radices_and_suffixes() {
        assert_eq!(parse_int("7"), Some(7));
        assert_eq!(parse_int("7u64"), Some(7));
        assert_eq!(parse_int("0x10"), Some(16));
        assert_eq!(parse_int("0x4845_524d"), Some(0x4845_524d));
        assert_eq!(parse_int("0b101"), Some(5));
        assert_eq!(parse_int("0o17"), Some(15));
    }
}

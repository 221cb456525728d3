//! The flow-sensitive rule R8 (DESIGN.md §9).
//!
//! It runs over [`crate::parser`] output rather than raw tokens: R8 walks
//! a per-crate call graph rooted at the public `HermesSwitch` surface.
//!
//! It respects the same exemptions as the token rules: test-like files
//! and `#[cfg(test)]` regions are skipped, and an `INVARIANT:` comment
//! within three lines above a site is an accepted justification
//! ([`ParsedFile::justified`], the window R2 uses too).

use crate::parser::{Call, FnItem, ParsedFile};
use crate::{Diagnostic, Rule};
use std::collections::BTreeMap;

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
            .any(|w| w.iter().map(String::as_str).eq(LEND))
}

fn is_intent_touch(call: &Call) -> bool {
    call.recv.iter().any(|r| r == "intent" || r == "IntentOp")
        || call.name.starts_with("intent")
}

/// Runs R8 over the parsed tree.
pub fn check(files: &[FlowFile<'_>]) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
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
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_tokens;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(_, s)| parse_tokens(&lex(s))).collect();
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
}

//! The rule engine: walks lexed token streams over a file tree and
//! produces [`Diagnostic`]s.
//!
//! The engine operates on an in-memory tree of `(relative path, content)`
//! pairs so fixtures can lint synthetic workspaces; [`load_workspace`]
//! reads the real one from disk.

use crate::flow::{self, FlowFile};
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{self, ParsedFile};
use crate::suppress::{self, Directive};
use crate::{AppliedSuppression, Diagnostic, LintOutcome, Rule};
use std::path::Path;

/// Workspace-relative path of the telemetry name registry (R5's source of
/// truth).
pub const REGISTRY_PATH: &str = "crates/telemetry/registry.txt";

/// Lints an in-memory file tree. Paths must be workspace-relative with
/// forward slashes. Findings come back sorted and deduplicated;
/// suppressed findings are dropped and the honoured directives echoed.
pub fn lint_tree(files: &[(String, String)]) -> LintOutcome {
    let mut findings: Vec<Diagnostic> = Vec::new();
    let mut suppressions: Vec<AppliedSuppression> = Vec::new();
    let mut uses: Vec<TelemetryUse> = Vec::new();
    let mut literals: Vec<String> = Vec::new();
    let mut registry_text: Option<&str> = None;
    // Per-file directive inventory and parsed items, for the cross-file
    // passes (R5 registry, R8 flow) that run after the loop.
    let mut directives: Vec<(String, Vec<Directive>)> = Vec::new();
    let mut parsed: Vec<ParsedEntry> = Vec::new();

    for (path, text) in files {
        if path == REGISTRY_PATH {
            registry_text = Some(text);
            continue;
        }
        if !path.ends_with(".rs") {
            continue;
        }
        let file = lint_rust_file(path, text);
        findings.extend(file.findings);
        uses.extend(file.uses);
        literals.extend(file.literals);
        parsed.push((path.clone(), file.parsed, file.test_regions));
        // Apply this file's suppressions to this file's findings only.
        let (kept, applied) = apply_suppressions(findings, path, &file.directives);
        findings = kept;
        suppressions.extend(applied);
        directives.push((path.clone(), file.directives));
    }

    // R5 is cross-file: compare collected uses against the registry. The
    // check only engages for trees that carry telemetry call sites or a
    // registry file, so synthetic fixture trees stay self-contained.
    if registry_text.is_some() || !uses.is_empty() {
        let (mut r5, applied) = check_registry(registry_text, &uses, &literals, files);
        // Registry findings at use sites may carry their own suppressions.
        suppressions.extend(applied);
        findings.append(&mut r5);
    }

    // R8: the flow-sensitive pass over parsed items (DESIGN.md §9).
    let flow_files: Vec<FlowFile<'_>> = parsed
        .iter()
        .map(|(path, parsed, test_regions)| FlowFile {
            path,
            parsed,
            is_test: is_test_like(path),
            test_regions,
        })
        .collect();
    let mut flow_findings = flow::check(&flow_files);
    for (path, ds) in &directives {
        let (kept, applied) = apply_suppressions(flow_findings, path, ds);
        flow_findings = kept;
        suppressions.extend(applied);
    }
    findings.append(&mut flow_findings);

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    findings.dedup();
    suppressions.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    // The cross-file R5 pass re-parses directives from files it touches;
    // a directive echoed by both passes is one waiver, not two.
    suppressions.dedup();
    LintOutcome {
        findings,
        suppressions,
        files_scanned: files.len(),
    }
}

/// Loads the workspace tree from disk: every `.rs` file and the
/// telemetry registry under `root`, skipping
/// `target/` and dot-directories. Paths are returned workspace-relative,
/// sorted, with forward slashes.
pub fn load_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds the lint's own golden corpus — synthetic
            // trees full of intentional violations, linted by the golden
            // tests in isolation, never as part of the workspace.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") || name == "registry.txt" {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Path, parsed items, and test regions of one scanned `.rs` file.
type ParsedEntry = (String, ParsedFile, Vec<(usize, usize)>);

/// One telemetry name used in code, with the site for diagnostics.
#[derive(Clone, Debug)]
struct TelemetryUse {
    kind: &'static str,
    name: String,
    file: String,
    line: usize,
    col: usize,
}

struct FileScan {
    findings: Vec<Diagnostic>,
    directives: Vec<Directive>,
    uses: Vec<TelemetryUse>,
    literals: Vec<String>,
    parsed: ParsedFile,
    test_regions: Vec<(usize, usize)>,
}

/// `true` for files whose whole content is test/bench/example code —
/// exempt from R2 (they may unwrap freely).
pub fn is_test_like(path: &str) -> bool {
    path.split('/').any(|seg| {
        seg == "tests" || seg == "benches" || seg == "examples" || seg == "fixtures"
    })
}

fn lint_rust_file(path: &str, text: &str) -> FileScan {
    let tokens = lex(text);
    let mut findings = Vec::new();
    let mut directives = Vec::new();
    let mut uses = Vec::new();
    let mut literals = Vec::new();

    // Suppression directives live in comments.
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let (ds, errs) = suppress::parse_comment(&t.text, path, t.line);
        directives.extend(ds);
        findings.extend(errs);
    }

    let parsed = parser::parse_tokens(&tokens);
    let test_lines = test_region_lines(&tokens);
    let in_test = |line: usize| test_lines.iter().any(|&(a, b)| line >= a && line <= b);
    let test_file = is_test_like(path);

    // Code tokens (comments stripped) drive the pattern rules; index
    // arithmetic below is over this filtered stream.
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Str && !test_file && !in_test(t.line) {
            literals.push(t.text.clone());
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let exempt = test_file || in_test(t.line);

        // R2 — panic policy.
        if !exempt {
            let is_method = |name: &str| {
                t.text == name
                    && i > 0
                    && code[i - 1].is_punct('.')
                    && code.get(i + 1).is_some_and(|n| n.is_punct('('))
            };
            let is_macro = |name: &str| {
                t.text == name && code.get(i + 1).is_some_and(|n| n.is_punct('!'))
            };
            let call = if is_method("unwrap") {
                Some(".unwrap()")
            } else if is_method("expect") {
                Some(".expect(")
            } else if is_macro("panic") {
                Some("panic!")
            } else if is_macro("unreachable") {
                Some("unreachable!")
            } else {
                None
            };
            if let Some(call) = call {
                // `expect("INVARIANT: …")`: the message itself states the invariant.
                let states_invariant = call == ".expect("
                    && code.get(i + 2).is_some_and(|a| {
                        a.kind == TokKind::Str && a.text.starts_with("INVARIANT:")
                    });
                if !states_invariant && !parsed.justified(t.line) {
                    findings.push(Diagnostic {
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        rule: Rule::PanicPolicy,
                        message: format!(
                            "`{call}` without an adjacent `INVARIANT:` comment: either \
                             document why the panic is unreachable or return a Result"
                        ),
                    });
                }
            }
        }

        // R5 — collect telemetry call sites (everywhere, including bins;
        // cfg(test) regions are exempt like R2).
        if !exempt {
            if let Some(u) = telemetry_use_at(&code, i, path) {
                uses.push(u);
            }
        }
    }

    FileScan {
        findings,
        directives,
        uses,
        literals,
        parsed,
        test_regions: test_lines,
    }
}

/// Recognizes `telemetry::counter("name", …)` (and gauge/observe/series/
/// span/span_enter) at code index `i`. Non-literal names yield an R5
/// finding through a sentinel use with an empty name.
fn telemetry_use_at(code: &[&Token], i: usize, path: &str) -> Option<TelemetryUse> {
    let t = code[i];
    let kind = match t.text.as_str() {
        "counter" => "counter",
        "gauge" => "gauge",
        "observe" => "histogram",
        "series" => "series",
        "span" | "span_enter" => "span",
        _ => return None,
    };
    // Must be a path call `telemetry::<f>(` or `hermes_telemetry::<f>(`.
    if i < 3
        || !code[i - 1].is_punct(':')
        || !code[i - 2].is_punct(':')
        || !(code[i - 3].is_ident("telemetry") || code[i - 3].is_ident("hermes_telemetry"))
        || !code.get(i + 1).is_some_and(|n| n.is_punct('('))
    {
        return None;
    }
    let first = code.get(i + 2)?;
    if kind == "span" {
        // span("subsystem", "name", …)
        let comma = code.get(i + 3);
        let second = code.get(i + 4);
        if first.kind == TokKind::Str
            && comma.is_some_and(|c| c.is_punct(','))
            && second.is_some_and(|s| s.kind == TokKind::Str)
        {
            return Some(TelemetryUse {
                kind,
                name: format!("{}.{}", first.text, second?.text),
                file: path.to_string(),
                line: t.line,
                col: t.col,
            });
        }
    } else if first.kind == TokKind::Str {
        return Some(TelemetryUse {
            kind,
            name: first.text.clone(),
            file: path.to_string(),
            line: t.line,
            col: t.col,
        });
    }
    // Dynamic name: flagged so the registry cannot silently drift.
    Some(TelemetryUse {
        kind,
        name: String::new(),
        file: path.to_string(),
        line: t.line,
        col: t.col,
    })
}

/// Lines covered by `#[cfg(test)]`/`#[test]` items, as inclusive ranges.
fn test_region_lines(tokens: &[Token]) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if code[i].is_punct('#') && code.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            // Collect the attribute's identifiers up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            while j < code.len() && depth > 0 {
                let t = code[j];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                } else if t.kind == TokKind::Ident {
                    idents.push(&t.text);
                }
                j += 1;
            }
            let is_test_attr = idents.first() == Some(&"test")
                || (idents.first() == Some(&"cfg") && idents.contains(&"test"));
            if is_test_attr {
                let start_line = code[i].line;
                // Skip any further attributes before the item.
                while j < code.len()
                    && code[j].is_punct('#')
                    && code.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    let mut d = 1usize;
                    let mut k = j + 2;
                    while k < code.len() && d > 0 {
                        if code[k].is_punct('[') {
                            d += 1;
                        } else if code[k].is_punct(']') {
                            d -= 1;
                        }
                        k += 1;
                    }
                    j = k;
                }
                // The item runs to its closing brace (or `;` for
                // brace-less items like `mod tests;` / `use …;`).
                let mut brace = 0usize;
                let mut end_line = code.get(j).map_or(start_line, |t| t.line);
                while j < code.len() {
                    let t = code[j];
                    end_line = t.line;
                    if t.is_punct('{') {
                        brace += 1;
                    } else if t.is_punct('}') {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    } else if t.is_punct(';') && brace == 0 {
                        break;
                    }
                    j += 1;
                }
                regions.push((start_line, end_line));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    regions
}

/// Drops findings in `path` covered by a directive; echoes honoured
/// directives (all parsed directives are echoed — an unused waiver is
/// harmless and keeps the outcome a full inventory of waived invariants).
fn apply_suppressions(
    findings: Vec<Diagnostic>,
    path: &str,
    directives: &[Directive],
) -> (Vec<Diagnostic>, Vec<AppliedSuppression>) {
    let kept = findings
        .into_iter()
        .filter(|f| {
            !(f.file == path
                && f.rule != Rule::Suppression
                && directives.iter().any(|d| d.covers(f.rule, f.line)))
        })
        .collect();
    let applied = directives
        .iter()
        .flat_map(|d| {
            d.rules.iter().map(|&rule| AppliedSuppression {
                file: path.to_string(),
                line: d.line,
                rule,
                reason: d.reason.clone(),
            })
        })
        .collect();
    (kept, applied)
}

/// R5: both directions of the registry check.
fn check_registry(
    registry_text: Option<&str>,
    uses: &[TelemetryUse],
    literals: &[String],
    files: &[(String, String)],
) -> (Vec<Diagnostic>, Vec<AppliedSuppression>) {
    let mut findings = Vec::new();
    let Some(text) = registry_text else {
        findings.push(Diagnostic {
            file: REGISTRY_PATH.to_string(),
            line: 1,
            col: 1,
            rule: Rule::TelemetryRegistry,
            message: "telemetry names are used in code but the registry file is missing"
                .to_string(),
        });
        return (findings, Vec::new());
    };

    // Parse the registry: `<kind> <name>` per line, `#` comments.
    let mut entries: Vec<(String, String, usize)> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let stripped = raw.split('#').next().unwrap_or("").trim();
        if stripped.is_empty() {
            continue;
        }
        let mut parts = stripped.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        let ok_kind = matches!(kind, "counter" | "gauge" | "histogram" | "series" | "span");
        if !ok_kind || name.is_empty() || parts.next().is_some() {
            findings.push(Diagnostic {
                file: REGISTRY_PATH.to_string(),
                line,
                col: 1,
                rule: Rule::TelemetryRegistry,
                message: format!(
                    "malformed registry line `{stripped}`: expected `<counter|gauge|histogram|series|span> <name>`"
                ),
            });
            continue;
        }
        if entries.iter().any(|(k, n, _)| k == kind && n == name) {
            findings.push(Diagnostic {
                file: REGISTRY_PATH.to_string(),
                line,
                col: 1,
                rule: Rule::TelemetryRegistry,
                message: format!("duplicate registry entry `{kind} {name}`"),
            });
            continue;
        }
        entries.push((kind.to_string(), name.to_string(), line));
    }

    // Code → registry.
    for u in uses {
        if u.name.is_empty() {
            findings.push(Diagnostic {
                file: u.file.clone(),
                line: u.line,
                col: u.col,
                rule: Rule::TelemetryRegistry,
                message: format!(
                    "telemetry {} with a non-literal name: the registry cannot check it; \
                     suppress with a reason naming the registry entries it resolves to",
                    u.kind
                ),
            });
        } else if !entries.iter().any(|(k, n, _)| *k == u.kind && *n == u.name) {
            findings.push(Diagnostic {
                file: u.file.clone(),
                line: u.line,
                col: u.col,
                rule: Rule::TelemetryRegistry,
                message: format!(
                    "{} `{}` is not in {REGISTRY_PATH}: add `{} {}` so the \
                     hermes-bench-report/1 schema cannot drift by typo",
                    u.kind, u.name, u.kind, u.name
                ),
            });
        }
    }

    // Registry → code: an entry is live if some direct use matches, or its
    // name appears as a string literal in non-test code (covers names
    // dispatched through helpers like Route::metric_name).
    for (kind, name, line) in &entries {
        let direct = uses.iter().any(|u| u.kind == kind && u.name == *name);
        let literal = literals.iter().any(|l| l == name)
            || (kind == "span"
                && name.split_once('.').is_some_and(|(sub, n)| {
                    literals.iter().any(|l| l == sub) && literals.iter().any(|l| l == n)
                }));
        if !direct && !literal {
            findings.push(Diagnostic {
                file: REGISTRY_PATH.to_string(),
                line: *line,
                col: 1,
                rule: Rule::TelemetryRegistry,
                message: format!(
                    "registry entry `{kind} {name}` is not emitted anywhere: remove it or \
                     restore the instrumentation"
                ),
            });
        }
    }

    // Suppressions for R5 findings at use sites live in the source files;
    // re-run the directive pass for files that own findings.
    let mut applied = Vec::new();
    let owners: Vec<String> = findings.iter().map(|f| f.file.clone()).collect();
    for (path, text) in files {
        if !owners.contains(path) || !path.ends_with(".rs") {
            continue;
        }
        let mut directives = Vec::new();
        for t in lex(text).iter().filter(|t| t.is_comment()) {
            let (ds, _) = suppress::parse_comment(&t.text, path, t.line);
            directives.extend(ds);
        }
        let (kept, ap) = apply_suppressions(findings, path, &directives);
        findings = kept;
        applied.extend(ap);
    }
    (findings, applied)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(files: &[(&str, &str)]) -> Vec<(String, String)> {
        files
            .iter()
            .map(|(p, t)| (p.to_string(), t.to_string()))
            .collect()
    }

    fn rules_fired(outcome: &LintOutcome) -> Vec<Rule> {
        outcome.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_file_is_clean() {
        let out = lint_tree(&tree(&[(
            "crates/x/src/helper.rs",
            "pub fn add(a: u32, b: u32) -> u32 { a + b }\n",
        )]));
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn s1_suppression_without_reason_is_a_finding() {
        let out = lint_tree(&tree(&[(
            "crates/x/src/helper.rs",
            "// hermes-lint: allow(R2)\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n",
        )]));
        // Both the malformed suppression AND the original violation fire
        // (sorted by position: the directive comment precedes the use).
        assert_eq!(rules_fired(&out), vec![Rule::Suppression, Rule::PanicPolicy]);
    }

    #[test]
    fn r2_unwrap_needs_invariant() {
        let src = "pub fn f(v: Vec<u32>) -> u32 {\n    *v.first().unwrap()\n}\n";
        let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
        assert_eq!(rules_fired(&out), vec![Rule::PanicPolicy]);

        let justified = "pub fn f(v: Vec<u32>) -> u32 {\n    // INVARIANT: caller checked non-empty\n    *v.first().unwrap()\n}\n";
        let out = lint_tree(&tree(&[("crates/x/src/helper.rs", justified)]));
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn r2_expect_message_can_state_invariant() {
        let src = "pub fn f(v: Vec<u32>) -> u32 {\n    *v.first().expect(\"INVARIANT: non-empty by construction\")\n}\n";
        let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn r2_macros_and_unrelated_idents() {
        let src = "pub fn f(x: u32) {\n    if x > 3 { panic!(\"boom\"); }\n}\npub fn unwrap_like(unwrap: u32) -> u32 { unwrap }\n";
        let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
        // Only the panic! fires; the ident named `unwrap` without `.`+`(` does not.
        assert_eq!(rules_fired(&out), vec![Rule::PanicPolicy]);
        assert_eq!(out.findings[0].line, 2);
    }

    #[test]
    fn r2_exempts_test_mods_and_test_files() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let out = lint_tree(&tree(&[
            ("crates/x/src/helper.rs", src),
            ("crates/x/benches/b.rs", "fn main() { Some(1).unwrap(); }\n"),
        ]));
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn r5_name_must_be_registered_both_ways() {
        let src = "pub fn f() { hermes_telemetry::counter(\"tcam.ops\", 1); }\n";
        let registry = "counter tcam.ops\ncounter tcam.ghost\n";
        let out = lint_tree(&tree(&[
            ("crates/x/src/helper.rs", src),
            (REGISTRY_PATH, registry),
        ]));
        assert_eq!(rules_fired(&out), vec![Rule::TelemetryRegistry]);
        assert!(out.findings[0].message.contains("tcam.ghost"));

        // Unregistered use direction.
        let out = lint_tree(&tree(&[
            ("crates/x/src/helper.rs", src),
            (REGISTRY_PATH, "counter other.c\n# but other.c is covered by literal? no\n"),
        ]));
        let fired = rules_fired(&out);
        assert!(fired.iter().all(|r| *r == Rule::TelemetryRegistry));
        assert_eq!(fired.len(), 2, "{:?}", out.findings);
    }

    #[test]
    fn r5_span_names_and_dynamic_names() {
        let src = "pub fn f(n: &'static str) {\n    let s = hermes_telemetry::span_enter(\"netsim\", \"te_tick\", 0);\n    s.end(1);\n    hermes_telemetry::counter(n, 1);\n}\n";
        let registry = "span netsim.te_tick\n";
        let out = lint_tree(&tree(&[
            ("crates/x/src/helper.rs", src),
            (REGISTRY_PATH, registry),
        ]));
        // The dynamic name is R5's finding; the span itself is registered.
        assert_eq!(rules_fired(&out), vec![Rule::TelemetryRegistry]);
        assert!(out.findings[0].message.contains("non-literal"));
    }

    #[test]
    fn r5_registry_entry_live_via_string_literal() {
        // Names dispatched through a helper still count as live if the
        // literal appears in code (Route::metric_name pattern).
        let src = "pub fn name(x: bool) -> &'static str {\n    if x { \"gk.route_a\" } else { \"gk.route_b\" }\n}\n";
        let registry = "counter gk.route_a\ncounter gk.route_b\n";
        let out = lint_tree(&tree(&[
            ("crates/x/src/helper.rs", src),
            (REGISTRY_PATH, registry),
        ]));
        assert!(out.is_clean(), "{:?}", out.findings);
    }

    #[test]
    fn findings_are_sorted_and_deterministic() {
        let files = tree(&[
            (
                "crates/b/src/lib.rs",
                "fn g() { None::<u32>.unwrap(); }\nfn f() { Some(1).unwrap(); }\n",
            ),
            ("crates/a/src/lib.rs", "fn h() { Some(2).unwrap(); }\n"),
        ]);
        let a = lint_tree(&files);
        let b = lint_tree(&files);
        assert_eq!(a.findings, b.findings);
        let keys: Vec<(&String, usize)> =
            a.findings.iter().map(|f| (&f.file, f.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}

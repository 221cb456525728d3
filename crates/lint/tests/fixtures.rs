//! Fixture-based integration tests: known-bad source trees must produce
//! exactly the expected diagnostics, suppressions must waive them, and
//! the real workspace must be lint-clean.

use hermes_lint::engine::{lint_tree, load_workspace, REGISTRY_PATH};
use hermes_lint::Rule;

fn tree(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect()
}

fn rules_fired(files: &[(&str, &str)]) -> Vec<Rule> {
    lint_tree(&tree(files)).findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_unwrap_needs_justification() {
    let bare = "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    assert_eq!(rules_fired(&[("crates/x/src/helper.rs", bare)]), vec![Rule::PanicPolicy]);

    let commented = "pub fn f(v: &[u32]) -> u32 {\n    // INVARIANT: caller guarantees non-empty\n    *v.first().unwrap()\n}\n";
    assert!(lint_tree(&tree(&[("crates/x/src/helper.rs", commented)])).is_clean());

    let in_message = "pub fn f(v: &[u32]) -> u32 { *v.first().expect(\"INVARIANT: caller guarantees non-empty\") }\n";
    assert!(lint_tree(&tree(&[("crates/x/src/helper.rs", in_message)])).is_clean());
}

#[test]
fn r2_comment_window_is_three_lines() {
    let far = "pub fn f(v: &[u32]) -> u32 {\n    // INVARIANT: non-empty\n    let _a = 1;\n    let _b = 2;\n    let _c = 3;\n    *v.first().unwrap()\n}\n";
    assert_eq!(rules_fired(&[("crates/x/src/helper.rs", far)]), vec![Rule::PanicPolicy]);
}

#[test]
fn r2_flags_panic_and_unreachable_macros() {
    let src = "pub fn f(x: u32) -> u32 {\n    if x > 9 { panic!(\"no\"); }\n    if x == 9 { unreachable!(); }\n    x\n}\n";
    let fired = rules_fired(&[("crates/x/src/helper.rs", src)]);
    assert_eq!(fired, vec![Rule::PanicPolicy, Rule::PanicPolicy]);
}

// ---------------------------------------------------------------- R5

const TELEMETRY_USE: &str =
    "pub fn f() { hermes_telemetry::counter(\"x.hits\", 1); }\n";

#[test]
fn r5_use_without_registry_entry() {
    let out = lint_tree(&tree(&[
        ("crates/x/src/helper.rs", TELEMETRY_USE),
        (REGISTRY_PATH, "counter x.other\n"),
    ]));
    let msgs: Vec<&str> = out.findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(out.findings.len(), 2, "{msgs:?}");
    // Missing from registry + stale registry entry.
    assert!(msgs.iter().any(|m| m.contains("x.hits")));
    assert!(msgs.iter().any(|m| m.contains("x.other")));
}

#[test]
fn r5_registry_and_use_agree() {
    let out = lint_tree(&tree(&[
        ("crates/x/src/helper.rs", TELEMETRY_USE),
        (REGISTRY_PATH, "# comment\ncounter x.hits\n"),
    ]));
    assert!(out.is_clean(), "{:?}", out.findings);
}

#[test]
fn r5_missing_registry_is_one_finding() {
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", TELEMETRY_USE)]));
    assert_eq!(out.findings.len(), 1);
    assert!(out.findings[0].message.contains("registry file is missing"));
}

#[test]
fn r5_dynamic_name_flagged_and_suppressible() {
    let dynamic = "pub fn f(n: &str) { hermes_telemetry::counter(n, 1); }\n";
    let out = lint_tree(&tree(&[
        ("crates/x/src/helper.rs", dynamic),
        (REGISTRY_PATH, ""),
    ]));
    assert_eq!(out.findings.len(), 1);
    assert_eq!(out.findings[0].rule, Rule::TelemetryRegistry);
    assert!(out.findings[0].message.contains("non-literal"));

    let waived = "pub fn f(n: &str) {\n    // hermes-lint: allow(R5, reason = \"names resolve to registry entries listed in helper()\")\n    hermes_telemetry::counter(n, 1);\n}\n";
    let out = lint_tree(&tree(&[
        ("crates/x/src/helper.rs", waived),
        (REGISTRY_PATH, ""),
    ]));
    assert!(out.is_clean(), "{:?}", out.findings);
    assert_eq!(out.suppressions.len(), 1);
}

#[test]
fn r5_registry_entry_satisfied_by_string_literal() {
    // Names dispatched through a helper (Route::metric_name style): the
    // literal lives in a match arm, not at the call site.
    let dispatch = "pub fn name(x: bool) -> &'static str { if x { \"x.a\" } else { \"x.b\" } }\n";
    let out = lint_tree(&tree(&[
        ("crates/x/src/helper.rs", dispatch),
        (REGISTRY_PATH, "counter x.a\ncounter x.b\n"),
    ]));
    assert!(out.is_clean(), "{:?}", out.findings);
}

#[test]
fn r5_malformed_and_duplicate_registry_lines() {
    let out = lint_tree(&tree(&[(
        REGISTRY_PATH,
        "bogus x.a\ncounter\ncounter x.c extra\n",
    )]));
    assert_eq!(out.findings.len(), 3);
    assert!(out.findings.iter().all(|f| f.rule == Rule::TelemetryRegistry));
}

// ------------------------------------------------------- suppressions

#[test]
fn suppression_waives_and_is_echoed() {
    let src = "// hermes-lint: allow(R2, reason = \"callers check emptiness first\")\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\npub fn g(v: &[u32]) -> u32 { *v.first().unwrap() + *v.last().unwrap() }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
    // Line 3's unwraps are outside the directive's 2-line span.
    assert_eq!(out.findings.iter().filter(|f| f.rule == Rule::PanicPolicy).count(), 2);
    assert_eq!(out.suppressions.len(), 1);
    assert_eq!(out.suppressions[0].reason, "callers check emptiness first");

    let file_wide = "// hermes-lint: allow-file(R2, reason = \"callers check emptiness first\")\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\npub fn g(v: &[u32]) -> u32 { *v.first().unwrap() + *v.last().unwrap() }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", file_wide)]));
    assert!(out.is_clean(), "{:?}", out.findings);
}

#[test]
fn s1_reasonless_suppression_is_a_finding_and_waives_nothing() {
    let src = "// hermes-lint: allow(R2)\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
    let fired: Vec<Rule> = out.findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, vec![Rule::Suppression, Rule::PanicPolicy]);
    assert!(out.suppressions.is_empty());
}

#[test]
fn suppression_inside_block_comment_works() {
    let src = "/* hermes-lint: allow(R2, reason = \"guarded by assert above\") */\npub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
    assert!(out.is_clean(), "{:?}", out.findings);
}

// ---------------------------------------------------------- rendering

#[test]
fn diagnostics_render_as_file_line_col() {
    let out = lint_tree(&tree(&[(
        "crates/x/src/lib.rs",
        "pub fn f(v: &[u32]) -> u32 { *v.first().unwrap() }\n",
    )]));
    let shown = out.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    assert!(
        shown.iter().any(|s| s.starts_with("crates/x/src/lib.rs:1:")
            && s.contains("R2[panic-policy]")),
        "{shown:?}"
    );
}

// ---------------------------------------------------- whole workspace

/// The real workspace must be lint-clean — this makes `cargo test`
/// itself a lint gate, independent of scripts/ci.sh.
#[test]
fn the_workspace_is_lint_clean() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = load_workspace(&root).expect("workspace readable");
    assert!(files.len() > 50, "walker found only {} files", files.len());
    // The static-analysis pass is part of the reproducibility story too:
    // its findings and waivers over the same tree must be a pure function
    // of the sources — no wall clock, no hash order, no paths that depend
    // on the invocation directory.
    let render = || {
        let out = lint_tree(&files);
        let mut s: String = out.findings.iter().map(|f| format!("{f}\n")).collect();
        for w in &out.suppressions {
            s.push_str(&format!("waived: {}:{} {} ({})\n", w.file, w.line, w.rule.id(), w.reason));
        }
        (out, s)
    };
    let (out, a) = render();
    let (_, b) = render();
    assert_eq!(a, b, "lint outcome must be byte-deterministic");
    assert!(out.is_clean(), "findings:\n{a}");
    // Every honoured waiver carries a reason (S1 guarantees this at parse
    // time; assert the invariant end to end).
    assert!(out.suppressions.iter().all(|s| !s.reason.is_empty()));
}

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

// ---------------------------------------------------------------- R1

#[test]
fn r1_flags_instant_and_hash_collections() {
    let src = "use std::time::Instant;\nfn f() { let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new(); let _ = (Instant::now(), m); }\n";
    let fired = rules_fired(&[("crates/x/src/helper.rs", src)]);
    assert!(fired.iter().filter(|r| **r == Rule::Determinism).count() >= 3);
}

#[test]
fn r1_allowlists_the_stopwatch_module() {
    let src = "use std::time::Instant;\npub fn t() -> Instant { Instant::now() }\n";
    assert!(
        lint_tree(&tree(&[("crates/util/src/bench.rs", src)])).is_clean(),
        "the bench timer is the one sanctioned wall-clock site"
    );
    // The allowlist covers Instant there, not HashMap.
    let with_map = "use std::collections::HashMap;\n";
    let fired = rules_fired(&[("crates/util/src/bench.rs", with_map)]);
    assert_eq!(fired, vec![Rule::Determinism]);
}

#[test]
fn r1_ignores_test_paths_and_test_regions() {
    let in_tests_dir = "use std::collections::HashMap;\nfn f() { let _: HashMap<u32, u32> = HashMap::new(); }\n";
    assert!(lint_tree(&tree(&[("crates/x/tests/it.rs", in_tests_dir)])).is_clean());

    let in_cfg_test = "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _: HashMap<u32, u32> = HashMap::new(); }\n}\n";
    assert!(lint_tree(&tree(&[("crates/x/src/helper.rs", in_cfg_test)])).is_clean());
}

#[test]
fn r1_mention_in_comment_or_string_is_not_a_use() {
    let src = "// HashMap iteration order is not deterministic\nfn f() -> &'static str { \"HashMap\" }\n";
    assert!(lint_tree(&tree(&[("crates/x/src/helper.rs", src)])).is_clean());
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

// ---------------------------------------------------------------- R3

#[test]
fn r3_crate_roots_must_forbid_unsafe() {
    let bare = "pub fn f() {}\n";
    assert_eq!(rules_fired(&[("crates/x/src/lib.rs", bare)]), vec![Rule::UnsafeForbid]);
    // Non-root modules are not required to repeat the attribute.
    assert!(lint_tree(&tree(&[("crates/x/src/helper.rs", bare)])).is_clean());
    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    assert!(lint_tree(&tree(&[("crates/x/src/lib.rs", good)])).is_clean());
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_external_deps_and_lock_sources_flagged() {
    let toml = "[dependencies]\nserde = \"1.0\"\nhermes-util = { path = \"../util\" }\n";
    let lock = "[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    let out = lint_tree(&tree(&[("crates/x/Cargo.toml", toml), ("Cargo.lock", lock)]));
    let fired: Vec<Rule> = out.findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, vec![Rule::Hermeticity, Rule::Hermeticity]);
    // Findings sort by file: Cargo.lock before crates/x/Cargo.toml.
    assert!(out.findings[0].message.contains("rand"));
    assert!(out.findings[1].message.contains("serde"));
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

// ---------------------------------------------------------------- R6

#[test]
fn r6_exp_binaries_must_use_run_experiment() {
    let raw = "fn main() { println!(\"hi\"); }\n";
    let fired = rules_fired(&[("crates/bench/src/bin/exp_demo.rs", raw)]);
    assert!(fired.contains(&Rule::ExpContract), "{fired:?}");

    let good = "#![forbid(unsafe_code)]\nfn main() -> std::process::ExitCode {\n    hermes_bench::run_experiment(\"exp_demo\", || {})\n}\n";
    assert!(lint_tree(&tree(&[("crates/bench/src/bin/exp_demo.rs", good)])).is_clean());
    // Non-exp binaries are exempt from R6.
    let cli = "#![forbid(unsafe_code)]\nfn main() {}\n";
    assert!(lint_tree(&tree(&[("crates/bench/src/bin/other_cli.rs", cli)])).is_clean());
}

// ------------------------------------------------------- suppressions

#[test]
fn suppression_waives_and_is_echoed() {
    let src = "// hermes-lint: allow(R1, reason = \"lookup-only; order never observed\")\nuse std::collections::HashMap;\npub fn f() { let _: HashMap<u32, u32> = HashMap::new(); }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
    // Line 3's constructor uses are outside the directive's 2-line span.
    assert_eq!(out.findings.iter().filter(|f| f.rule == Rule::Determinism).count(), 2);
    assert_eq!(out.suppressions.len(), 1);
    assert_eq!(out.suppressions[0].reason, "lookup-only; order never observed");

    let file_wide = "// hermes-lint: allow-file(R1, reason = \"lookup-only; order never observed\")\nuse std::collections::HashMap;\npub fn f() { let _: HashMap<u32, u32> = HashMap::new(); }\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", file_wide)]));
    assert!(out.is_clean(), "{:?}", out.findings);
}

#[test]
fn s1_reasonless_suppression_is_a_finding_and_waives_nothing() {
    let src = "// hermes-lint: allow(R1)\nuse std::collections::HashMap;\n";
    let out = lint_tree(&tree(&[("crates/x/src/helper.rs", src)]));
    let fired: Vec<Rule> = out.findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, vec![Rule::Suppression, Rule::Determinism]);
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
    let out = lint_tree(&files);
    let shown = out.findings.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    assert!(out.is_clean(), "findings:\n{}", shown.join("\n"));
    // Every honoured waiver carries a reason (S1 guarantees this at parse
    // time; assert the invariant end to end).
    assert!(out.suppressions.iter().all(|s| !s.reason.is_empty()));
}

//! Golden-file corpus: every directory under `tests/fixtures/` is a
//! synthetic workspace tree, and its `EXPECTED` file is the byte-exact
//! render of the lint outcome over that tree. The corpus pins the exact
//! diagnostic text, positions and suppression echoes for every rule
//! (R2, R5 and S1), so a wording or ordering change cannot slip
//! through unreviewed.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! HERMES_LINT_BLESS=1 cargo test -p hermes-lint --test golden
//! ```

use hermes_lint::engine::lint_tree;
use hermes_lint::{LintOutcome, Rule, ALL_RULES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Loads one case directory as an in-memory tree: paths are relative to
/// the case root with forward slashes, so path-sensitive rules (test
/// paths, the registry path) behave as in a real workspace. `EXPECTED` itself is not part of the tree.
fn load_case(case: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    collect(case, case, &mut files);
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).expect("case dir readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect(root, &path, out);
            continue;
        }
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name == "EXPECTED" {
            continue;
        }
        let rel = path
            .strip_prefix(root)
            .expect("under case root")
            .to_string_lossy()
            .replace('\\', "/");
        out.push((
            rel,
            std::fs::read_to_string(&path).expect("fixture readable"),
        ));
    }
}

/// The canonical render the `EXPECTED` files pin: findings in engine
/// order, then honoured suppressions, then a one-line tally.
fn render(out: &LintOutcome) -> String {
    let mut s = String::new();
    for f in &out.findings {
        s.push_str(&format!("{f}\n"));
    }
    for w in &out.suppressions {
        s.push_str(&format!(
            "waived: {}:{} {} ({})\n",
            w.file,
            w.line,
            w.rule.id(),
            w.reason
        ));
    }
    s.push_str(&format!(
        "{} finding(s), {} suppression(s)\n",
        out.findings.len(),
        out.suppressions.len()
    ));
    s
}

#[test]
fn golden_corpus_is_byte_exact_and_covers_every_rule() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    #[expect(
        clippy::disallowed_methods,
        reason = "HERMES_LINT_BLESS is a sanctioned reader"
    )]
    let bless = std::env::var_os("HERMES_LINT_BLESS").is_some();

    let mut cases: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("tests/fixtures exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(
        cases.len() >= ALL_RULES.len(),
        "corpus has only {} cases",
        cases.len()
    );

    let mut covered: BTreeSet<Rule> = BTreeSet::new();
    let mut failures = Vec::new();
    for case in &cases {
        let name = case
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let files = load_case(case);
        assert!(!files.is_empty(), "case {name} has no fixture files");
        let out = lint_tree(&files);
        covered.extend(out.findings.iter().map(|f| f.rule));
        let actual = render(&out);

        let expected_path = case.join("EXPECTED");
        if bless {
            std::fs::write(&expected_path, &actual).expect("EXPECTED writable");
            continue;
        }
        let expected = std::fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("case {name} has no EXPECTED file; bless the corpus"));
        if actual != expected {
            failures.push(format!(
                "case {name} diverged from EXPECTED.\n--- expected ---\n{expected}--- actual ---\n{actual}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n(if the change is intentional: HERMES_LINT_BLESS=1 cargo test -p hermes-lint --test golden)",
        failures.join("\n")
    );

    // Every rule must fire somewhere in the corpus — a rule nobody can
    // demonstrate is a rule nobody can trust.
    for rule in ALL_RULES {
        assert!(
            covered.contains(&rule),
            "no corpus case exercises {}",
            rule.id()
        );
    }
}

//! The committed scenario matrix and the build contracts the experiments
//! rest on.
//!
//! Three guarantees pinned here, from the workspace root so they see the
//! real `scenarios/matrix.toml`, lockfiles and experiment binaries:
//!
//! 1. The committed matrix is well-formed: every required scenario is
//!    present with the contracted repetition count, every referenced
//!    binary is a real `crates/bench` experiment, and every knob it sets
//!    is read by that binary (or the matrix drifts from the workspace
//!    silently). How each scenario runs, and that each has a test, is
//!    `crates/bench/tests/scenarios.rs`.
//! 2. The build is hermetic and every experiment goes through the one
//!    wrapper: neither lockfile records an external package, and every
//!    `exp_*` binary calls `hermes_bench::run_experiment("<its stem>", …)`
//!    (DESIGN.md §6, §9).
//! 3. The source conventions clippy cannot check: every non-test
//!    `.expect(` states its invariant, and every telemetry name in the
//!    `hermes_telemetry::names` table is emitted somewhere (DESIGN.md §9).

use hermes_util::scenario::Matrix;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn committed_matrix() -> Matrix {
    Matrix::load(&repo_root().join("scenarios/matrix.toml")).expect("committed matrix parses")
}

#[test]
fn committed_matrix_has_the_contracted_scenarios() {
    let matrix = committed_matrix();
    // The full tier: N ≥ 5 seeded reps each (ISSUE 6 acceptance).
    for name in [
        "baseline",
        "fan-out",
        "churn-storm",
        "chaos-suite",
        "1m-preload",
        "bgp-replay",
    ] {
        let sc = matrix
            .get(name)
            .unwrap_or_else(|| panic!("scenario {name:?} missing from scenarios/matrix.toml"));
        assert!(
            sc.runs >= 5,
            "{name}: full-tier scenarios need ≥5 reps, got {}",
            sc.runs
        );
    }
    // The CI smoke tier stays cheap.
    for name in ["smoke-chaos", "smoke-crash", "smoke-fleet"] {
        let sc = matrix.get(name).expect("smoke scenario present");
        assert!(sc.runs >= 3, "{name}: smoke needs ≥3 reps for a median");
    }
    assert_eq!(
        matrix.get("1m-preload").map(|s| s.scale),
        Some(10),
        "1m-preload must drive exp_scale to 1M rules"
    );
    assert_eq!(
        matrix.get("chaos-suite").and_then(|s| s.fault_seed),
        Some(42),
        "chaos-suite must arm the fault plan"
    );
}

/// Does `src` read the knob through a `knob_*("<name>"` call?
fn reads_knob(src: &str, name: &str) -> bool {
    src.match_indices(&format!("(\"{name}\"")).any(|(i, _)| {
        src[..i]
            .rsplit(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .next()
            .is_some_and(|call| call.starts_with("knob_"))
    })
}

#[test]
fn committed_matrix_binaries_exist_in_the_workspace() {
    let bins_dir = repo_root().join("crates/bench/src/bin");
    for sc in &committed_matrix().scenarios {
        let src = bins_dir.join(format!("{}.rs", sc.bin));
        assert!(
            src.is_file(),
            "scenario {:?} names binary {:?} but {} does not exist",
            sc.name,
            sc.bin,
            src.display()
        );
        // A knob the binary no longer reads would be ignored silently.
        let text = std::fs::read_to_string(&src).expect("binary source is readable");
        for name in sc.knobs.keys() {
            assert!(
                reads_knob(&text, name),
                "scenario {:?} sets knobs.{name} but {} never reads it via knob_*(\"{name}\", …)",
                sc.name,
                src.display()
            );
        }
    }
}

#[test]
fn lockfiles_record_no_external_package() {
    // A registry or git dependency anywhere in a manifest resolves to a
    // lockfile entry with a `source` key; workspace and path packages
    // have none.
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(repo_root().join(lock)).expect("lockfile is readable");
        let external: Vec<String> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| line.trim_start().starts_with("source ="))
            .map(|(i, line)| format!("{lock}:{}: {}", i + 1, line.trim()))
            .collect();
        assert!(
            external.is_empty(),
            "the build is hermetic (README \"Hermetic build\"): vendor the code into \
             crates/util or a new in-tree crate instead of\n{}",
            external.join("\n")
        );
    }
}

#[test]
fn every_experiment_binary_goes_through_run_experiment() {
    let bins_dir = repo_root().join("crates/bench/src/bin");
    let mut checked = 0;
    for entry in std::fs::read_dir(&bins_dir).expect("crates/bench/src/bin is readable") {
        let path = entry.expect("dir entry").path();
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if !stem.starts_with("exp_") || path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("binary source is readable");
        let call = format!("run_experiment(\"{stem}\"");
        assert!(
            src.lines()
                .any(|line| !line.trim_start().starts_with("//") && line.contains(&call)),
            "crates/bench/src/bin/{stem}.rs does not call \
             hermes_bench::run_experiment(\"{stem}\", …): the wrapper provides --out, \
             telemetry arming and panic containment, and the file-stem name keeps its \
             BENCH_*.json report traceable"
        );
        checked += 1;
    }
    assert!(
        checked >= 10,
        "found only {checked} exp_* binaries in {}",
        bins_dir.display()
    );
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("source dir is readable")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file of the library and binary sources: `crates/*/src`
/// and the root `src/`.
fn workspace_sources() -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    rust_files(&repo_root().join("src"), &mut files);
    let mut crates: Vec<_> = std::fs::read_dir(repo_root().join("crates"))
        .expect("crates/ is readable")
        .map(|e| e.expect("dir entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    crates.sort();
    for src in crates {
        rust_files(&src, &mut files);
    }
    files
}

/// `src` with every `//` comment line and every `#[cfg(test)]` item
/// blanked, line count kept. An item runs from the attribute to the line
/// where its braces balance, or to its `;` if it has no body (the regions
/// `scripts/loc.sh` counts as test lines).
fn non_test_code(src: &str) -> String {
    let (mut in_test, mut opened, mut depth) = (false, false, 0i64);
    let mut out = String::new();
    for line in src.lines() {
        let code = line.trim_start();
        if !in_test && code.starts_with("#[cfg(test)]") {
            (in_test, opened, depth) = (true, false, 0);
        }
        if !in_test && !code.starts_with("//") {
            out.push_str(line);
        }
        out.push('\n');
        if !in_test {
            continue;
        }
        // Braces inside a string or char literal do not nest.
        let (mut in_str, mut escaped) = (false, false);
        for c in code
            .replace("'{'", "")
            .replace("'}'", "")
            .replace("'\"'", "")
            .chars()
        {
            match (in_str, c) {
                (true, _) if escaped => escaped = false,
                (true, '\\') => escaped = true,
                (_, '"') => in_str = !in_str,
                (false, '{') => (depth, opened) = (depth + 1, true),
                (false, '}') => depth -= 1,
                _ => {}
            }
        }
        if (opened && depth <= 0) || (!opened && code.ends_with(';')) {
            in_test = false;
        }
    }
    out
}

#[test]
fn every_expect_states_its_invariant() {
    // The panic policy (DESIGN.md §9): clippy's `unwrap_used`, `panic`
    // and `unreachable` leave `.expect` as the one way library and binary
    // code may panic on a value, and its message must say why it cannot.
    let mut bare = Vec::new();
    let mut checked = 0;
    for path in workspace_sources() {
        let src = std::fs::read_to_string(&path).expect("source is readable");
        let code = non_test_code(&src);
        for (at, _) in code.match_indices(".expect(") {
            checked += 1;
            if !code[at + ".expect(".len()..]
                .trim_start()
                .starts_with("\"INVARIANT:")
            {
                let line = code[..at].matches('\n').count() + 1;
                let rel = path.strip_prefix(repo_root()).unwrap_or(&path);
                bare.push(format!("{}:{line}", rel.display()));
            }
        }
    }
    assert!(checked >= 50, "found only {checked} .expect( calls");
    assert!(
        bare.is_empty(),
        "outside #[cfg(test)], an .expect( message starts with \"INVARIANT: \" and says \
         why the value is always there:\n{}",
        bare.join("\n")
    );
}

#[test]
fn every_telemetry_name_is_emitted() {
    // The table makes an unregistered name a compile error; this is the
    // other direction, a registered name that no code emits.
    let table = repo_root().join("crates/telemetry/src/names.rs");
    let text = std::fs::read_to_string(&table).expect("the name table is readable");
    let entries: Vec<&str> = text
        .lines()
        .filter_map(|line| {
            let (kind, rest) = line.trim_start().split_once(' ')?;
            let handle = ["Counter", "Gauge", "Histogram", "Series", "Span"].contains(&kind);
            handle.then(|| rest.split_once(" = ").map(|(name, _)| name))?
        })
        .collect();
    assert!(
        entries.len() >= 80,
        "found only {} table entries",
        entries.len()
    );
    let mut idents = std::collections::BTreeSet::new();
    for path in workspace_sources().into_iter().filter(|p| *p != table) {
        let src = std::fs::read_to_string(&path).expect("source is readable");
        idents.extend(
            src.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .map(str::to_string),
        );
    }
    let unused: Vec<&str> = entries
        .into_iter()
        .filter(|name| !idents.contains(*name))
        .collect();
    assert!(
        unused.is_empty(),
        "hermes_telemetry::names lists names nothing emits: delete them, or emit them:\n{}",
        unused.join("\n")
    );
}

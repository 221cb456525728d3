//! `BENCHMARK.json` at the repo root and the in-code catalog say the same
//! thing, and the file stays inside the contract's limits.

use hermes_perf_ledger::catalog::{END_TO_END, PER_LAYER};
use hermes_perf_ledger::workloads::NAMES;
use hermes_util::json::Json;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    Json::parse(text.trim()).expect("BENCHMARK.json parses")
}

fn str_of<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing {key}"))
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn workloads_match_the_code() {
    let doc = benchmark_json();
    let listed: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            assert!(str_of(w, "why").len() <= 200);
            str_of(w, "name")
        })
        .collect();
    assert_eq!(listed, NAMES);
}

#[test]
fn end_to_end_metrics_match_the_catalog() {
    let doc = benchmark_json();
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(listed.len(), END_TO_END.len());
    for (j, m) in listed.iter().zip(END_TO_END) {
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better.as_str());
        assert_eq!(
            j.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25);
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
}

#[test]
fn per_layer_metrics_match_the_catalog() {
    let doc = benchmark_json();
    let listed = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert!(listed.len() <= 128);
    assert_eq!(listed.len(), PER_LAYER.len());
    let mut seen = std::collections::BTreeSet::new();
    for (j, m) in listed.iter().zip(PER_LAYER) {
        assert_eq!(str_of(j, "name"), m.name);
        assert_eq!(str_of(j, "unit"), m.unit);
        assert_eq!(str_of(j, "better"), m.better.as_str());
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} listed twice", m.name);
    }
    for m in END_TO_END {
        assert!(
            seen.insert(m.name),
            "{} is both end-to-end and per-layer",
            m.name
        );
    }
}

#[test]
fn command_and_paths_stay_inside_the_benchmark() {
    let doc = benchmark_json();
    let paths: Vec<&str> = doc
        .get("paths")
        .and_then(Json::as_arr)
        .expect("paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let command: Vec<&str> = doc
        .get("command")
        .and_then(Json::as_arr)
        .expect("command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32);
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

//! `compare` verdicts: ok / regressed / unresolved, and exact metrics.

use hermes_perf_ledger::catalog::Better;
use hermes_perf_ledger::compare::{compare_docs, judge, judge_exact, worsening, Verdict};
use hermes_perf_ledger::summary::Quartiles;
use hermes_util::json::Json;

fn q(median: f64, q1: f64, q3: f64) -> Quartiles {
    Quartiles {
        median,
        q1,
        q3,
        n: 5,
    }
}

#[test]
fn within_bound_is_ok_either_direction() {
    let a = q(100.0, 99.0, 101.0);
    assert_eq!(
        judge(Better::Lower, 0.10, &a, &q(109.0, 108.0, 110.0)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Lower, 0.10, &a, &q(50.0, 49.0, 51.0)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Higher, 0.10, &a, &q(91.0, 90.0, 92.0)),
        Verdict::Ok
    );
}

#[test]
fn beyond_bound_is_regressed() {
    let a = q(100.0, 99.0, 101.0);
    assert_eq!(
        judge(Better::Lower, 0.10, &a, &q(111.0, 110.0, 112.0)),
        Verdict::Regressed
    );
    assert_eq!(
        judge(Better::Higher, 0.10, &a, &q(89.0, 88.0, 90.0)),
        Verdict::Regressed
    );
    assert!((worsening(Better::Higher, &a, &q(89.0, 88.0, 90.0)) - 0.11).abs() < 1e-12);
}

#[test]
fn spread_wider_than_bound_is_unresolved_unless_wholly_better() {
    let noisy = q(100.0, 90.0, 110.0); // spread 20 % > 10 % bound
    assert_eq!(
        judge(Better::Lower, 0.10, &noisy, &q(100.0, 99.0, 101.0)),
        Verdict::Unresolved
    );
    assert_eq!(
        judge(Better::Lower, 0.10, &noisy, &q(130.0, 129.0, 131.0)),
        Verdict::Unresolved
    );
    // Every quartile of B better than every quartile of A: resolved.
    assert_eq!(
        judge(Better::Lower, 0.10, &noisy, &q(80.0, 79.0, 81.0)),
        Verdict::Ok
    );
    assert_eq!(
        judge(Better::Higher, 0.10, &noisy, &q(120.0, 115.0, 125.0)),
        Verdict::Ok
    );
}

#[test]
fn exact_metrics_must_be_identical() {
    assert_eq!(
        judge_exact(&q(42.0, 42.0, 42.0), &q(42.0, 42.0, 42.0)),
        Verdict::Ok
    );
    assert_eq!(
        judge_exact(&q(42.0, 42.0, 42.0), &q(43.0, 43.0, 43.0)),
        Verdict::Regressed
    );
    assert_eq!(
        judge_exact(&q(0.0, 0.0, 0.0), &q(0.0, 0.0, 0.0)),
        Verdict::Ok
    );
}

fn ledger(ops_per_s: f64, partition_calls: f64) -> Json {
    let metric = |v: f64| q(v, v * 0.99, v * 1.01).to_json();
    Json::obj([(
        "workloads",
        Json::obj([(
            "switch_churn",
            Json::obj([
                (
                    "end_to_end",
                    Json::obj([("metrics", Json::obj([("ops_per_s", metric(ops_per_s))]))]),
                ),
                (
                    "per_layer",
                    Json::obj([(
                        "metrics",
                        Json::obj([
                            ("core.partition_calls", metric(partition_calls)),
                            ("core.insert_ns_p50", metric(2000.0)),
                            ("netsim.run_s", metric(0.0)),
                        ]),
                    )]),
                ),
            ]),
        )]),
    )])
}

#[test]
fn document_comparison_covers_bounded_exact_and_info_rows() {
    let same = compare_docs(&ledger(250e3, 285842.0), &ledger(245e3, 285842.0));
    assert!(same.all_ok(), "{}", same.render());
    // ops_per_s (bounded), partition_calls (exact), insert_ns_p50 (info);
    // the idle netsim row is dropped.
    assert_eq!(same.rows.len(), 3);
    let verdict = |r: &hermes_perf_ledger::compare::Report, metric: &str| {
        r.rows
            .iter()
            .find(|row| row.metric == metric)
            .map(|row| row.verdict)
    };
    assert_eq!(verdict(&same, "core.insert_ns_p50"), Some(Verdict::Info));
    assert_eq!(verdict(&same, "netsim.run_s"), None);

    let slower = compare_docs(&ledger(250e3, 285842.0), &ledger(150e3, 285842.0));
    assert!(!slower.all_ok());
    assert_eq!(verdict(&slower, "ops_per_s"), Some(Verdict::Regressed));

    let moved = compare_docs(&ledger(250e3, 285842.0), &ledger(250e3, 285843.0));
    assert_eq!(
        verdict(&moved, "core.partition_calls"),
        Some(Verdict::Regressed),
        "a count moved"
    );
    assert!(moved.render().contains("regressed"));
}

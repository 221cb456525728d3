//! **§8.6 (text)** — sensitivity to prediction algorithms.
//!
//! Runs the full predictor × corrector matrix (EWMA / Cubic Spline / ARMA
//! × Slack / Deadzone / none) on MicroBench traces and reports mean RIT,
//! tail RIT and violations.
//!
//! Reproduction targets: Cubic Spline has the lowest prediction error,
//! and Cubic Spline + Slack reduces rule installation time by 80–94% over
//! the alternatives (the paper's quoted range spans its workload sweep;
//! here the comparison is at the burstiest setting).

#![forbid(unsafe_code)]

use hermes_baselines::ControlPlane;
use hermes_bench::Table;
use hermes_core::config::{HermesConfig, MigrationTrigger};
use hermes_core::predict::{Corrector, PredictorKind};
use hermes_netsim::metrics::Samples;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_workloads::microbench::MicroBench;

/// Runs Hermes with the given predictor/corrector and reports
/// (mean guaranteed-insert latency, p99, violation %).
fn run(kind: PredictorKind, corrector: Corrector, count: usize) -> (f64, f64, f64) {
    let config = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        trigger: MigrationTrigger::Predictive {
            predictor: kind,
            corrector,
        },
        rate_limit: Some(f64::INFINITY), // isolate the prediction machinery
        ..Default::default()
    };
    // Near the sustainable envelope with heavy partitioning pressure: the
    // regime where trigger timing decides outcomes.
    let stream = MicroBench {
        arrival_rate: 40.0,
        overlap_rate: 0.6,
        count,
        ..Default::default()
    }
    .generate();
    let mut plane = hermes_bench::hermes_plane(SwitchModel::pica8_p3290(), config).expect("INVARIANT: fixed experiment config is feasible for this model");
    let tick = SimDuration::from_ms(25.0);
    let mut next_tick = SimTime::ZERO + tick;
    let mut lat = Samples::new();
    let mut violations = 0u64;
    let mut attempts = 0u64;
    for ta in &stream {
        while next_tick <= ta.at {
            plane.tick(next_tick);
            next_tick += tick;
        }
        if let ControlAction::Insert(rule) = ta.action {
            let Ok(report) = plane.switch_mut().insert(rule, ta.at) else {
                continue;
            };
            attempts += 1;
            if report.violated() {
                violations += 1;
            }
            if matches!(report.route(), Some(hermes_core::gatekeeper::Route::Shadow)) {
                lat.push(report.latency.as_ms());
            }
        }
    }
    (
        lat.mean(),
        lat.percentile(0.99),
        100.0 * violations as f64 / attempts.max(1) as f64,
    )
}

/// One-step prediction error of each predictor on a synthetic rate series
/// (the paper's "Cubic Spline provided the lowest prediction error").
fn prediction_error(kind: PredictorKind) -> f64 {
    let mut p = kind.build();
    let mut err = 0.0;
    let mut n = 0usize;
    // Ramp + burst + decay series, the shape §5.1 worries about.
    let series: Vec<f64> = (0..200)
        .map(|t| {
            let t = t as f64;
            let base = 50.0 + 2.0 * t;
            let burst = if (80.0..100.0).contains(&t) {
                400.0
            } else {
                0.0
            };
            base + burst
        })
        .collect();
    for w in series.windows(2) {
        p.observe(w[0]);
        let pred = p.predict();
        err += (pred - w[1]).abs();
        n += 1;
    }
    err / n as f64
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_predict", run_experiment_body)
}

fn run_experiment_body() {
    let count = 800 * hermes_bench::scale();
    hermes_bench::report_meta("count", &(count as u64));
    println!("== §8.6: Prediction-algorithm sensitivity ==\n");

    println!("-- raw one-step prediction error (mean abs, synthetic bursty series) --");
    let mut t = Table::new(&["Predictor", "Mean abs error"]);
    for kind in PredictorKind::all() {
        t.row(&[
            format!("{kind:?}"),
            format!("{:.1}", prediction_error(kind)),
        ]);
    }
    t.print();

    println!("\n-- Hermes end-to-end, predictor x corrector (Pica8, 40 upd/s, 60% overlap) --");
    let mut t = Table::new(&[
        "Predictor",
        "Corrector",
        "Mean RIT (ms)",
        "p99 RIT (ms)",
        "Violations (%)",
    ]);
    let correctors = [
        Corrector::Slack(1.0),
        Corrector::Deadzone(50.0),
        Corrector::None,
    ];
    let mut best: Option<(String, f64)> = None;
    let mut results: Vec<(String, f64)> = Vec::new();
    for kind in PredictorKind::all() {
        for corrector in correctors {
            let (mean, p99, viol) = run(kind, corrector, count);
            let label = format!("{kind:?}+{corrector}");
            t.row(&[
                format!("{kind:?}"),
                corrector.to_string(),
                format!("{mean:.3}"),
                format!("{p99:.3}"),
                format!("{viol:.1}"),
            ]);
            if best.as_ref().map(|(_, b)| mean < *b).unwrap_or(true) {
                best = Some((label.clone(), mean));
            }
            results.push((label, mean));
        }
    }
    t.print();

    let (best_label, best_mean) = best.expect("INVARIANT: the sweep loop runs at least once");
    println!("\nbest configuration: {best_label} (mean RIT {best_mean:.3} ms)");
    for (label, mean) in &results {
        if *label != best_label {
            println!(
                "  vs {label:<24} RIT reduced by {:>5.1}%",
                (mean - best_mean) / mean * 100.0
            );
        }
    }
    println!("\npaper: \"the combination of Cubic Spline and Slack reduced rule installation\ntime by 80% - 94% over existing alternatives\"");
}

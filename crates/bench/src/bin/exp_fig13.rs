//! **Figure 13** — rule insertion latency vs. slack factor, at a low and a
//! high update rate across overlap rates 0–100%, on the Dell 8132F.
//!
//! Reproduction targets (§8.6): at the high rate, aggressive slack
//! (→100%) is needed to keep latency and violations down (more partitions
//! and a fuller shadow otherwise); at the low rate slack barely affects
//! the guarantee but still helps latency.
//!
//! Scaling note (see EXPERIMENTS.md): the paper drives 200 and 1000
//! updates/s. Under our empirical Dell model the *sustained* migration
//! drain rate at a few hundred installed rules is ~40–300 updates/s, so
//! 1000/s is not sustainable for any migration policy — the paper's
//! simulator evidently charges less for migration. We rescale the two
//! operating points into the sustainable envelope (50 and 200 updates/s)
//! where the slack mechanism, not raw overload, determines the outcome.

#![forbid(unsafe_code)]

use hermes_bench::{drive_inserts, Table};
use hermes_core::config::{HermesConfig, MigrationTrigger};
use hermes_core::predict::{Corrector, PredictorKind};
use hermes_tcam::{SimDuration, SwitchModel};
use hermes_workloads::microbench::MicroBench;

/// Mean latency of guaranteed (shadow-routed) insertions plus the
/// violation percentage across all qualifying insertions.
fn run(rate: f64, overlap: f64, slack: f64, count: usize) -> (f64, f64) {
    let config = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        trigger: MigrationTrigger::Predictive {
            predictor: PredictorKind::CubicSpline,
            corrector: Corrector::Slack(slack),
        },
        rate_limit: Some(f64::INFINITY), // isolate the migration policy
        ..Default::default()
    };
    let stream = MicroBench {
        arrival_rate: rate,
        overlap_rate: overlap,
        count,
        ..Default::default()
    }
    .generate();
    let mut plane = hermes_bench::hermes_plane(SwitchModel::dell_8132f(), config)
        .expect("INVARIANT: fixed experiment config is feasible for this model");
    let run = drive_inserts(&mut plane, &stream, SimDuration::from_ms(25.0));
    (run.shadow_ms.mean(), run.violation_pct())
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fig13", run_experiment_body)
}

fn run_experiment_body() {
    let count = 500 * hermes_bench::scale();
    hermes_bench::report_meta("count", &(count as u64));
    println!("== Figure 13: Guaranteed-insertion latency vs Slack Factor (Dell 8132F) ==");
    let slacks = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let overlaps = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];

    for rate in [50.0, 200.0] {
        println!("\n-- ({rate:.0} updates/s) mean guaranteed-insert latency (ms) --");
        let header: Vec<String> = std::iter::once("Slack (%)".to_string())
            .chain(overlaps.iter().map(|o| format!("{:.0}% ovl", o * 100.0)))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        let mut tv = Table::new(&header_refs);
        for &slack in &slacks {
            let mut row = vec![format!("{:.0}", slack * 100.0)];
            let mut vrow = vec![format!("{:.0}", slack * 100.0)];
            for &ovl in &overlaps {
                let (lat, viol) = run(rate, ovl, slack, count);
                row.push(format!("{lat:.3}"));
                vrow.push(format!("{viol:.1}"));
            }
            t.row(&row);
            tv.row(&vrow);
        }
        t.print();
        println!("   violations (%):");
        tv.print();
    }
    println!("\npaper: \"a slack of 100% is required to appropriately tackle the high\ninsertion rates; for lower insertion rates less drastic slack values are\nrequired\" (rates rescaled into the empirical models' sustainable envelope)");
}

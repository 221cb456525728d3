//! **Figure 10** — CDF of rule installation time: Tango vs ESPRES vs
//! Hermes, on the Facebook(-style) and Geant(-style) traces.
//!
//! Reproduction targets (§8.3): Hermes beats both baselines by >50% in the
//! median; the baselines vary wildly across the CDF; Tango matches or
//! outperforms ESPRES at the tail (rewriting helps on top of reordering),
//! with a larger gap on the data-center trace than on Geant.

#![forbid(unsafe_code)]

use hermes_baselines::{EspresSwitch, RawSwitch, TangoSwitch};
use hermes_bench::{drive_batches, print_cdf, print_summary, te_batches, StreamResult};
use hermes_core::config::HermesConfig;
use hermes_tcam::{SimDuration, SwitchModel};

fn run_all(dc: bool, total_rules: usize) -> Vec<(String, StreamResult)> {
    let model = SwitchModel::pica8_p3290();
    // ~0.5 reconfigurations/s of 8-32 rules each per switch — the paper's
    // TE cadence spread over its 320 switches. Occupancy grows over the
    // run, which is what separates the systems.
    let batches = te_batches(dc, total_rules, 0.5, 42);
    let tick = SimDuration::from_ms(100.0);
    vec![
        (
            "Tango".into(),
            drive_batches(TangoSwitch::new(model.clone()), &batches, tick),
        ),
        (
            "ESPRES".into(),
            drive_batches(EspresSwitch::new(model.clone()), &batches, tick),
        ),
        (
            "Hermes".into(),
            drive_batches(
                hermes_bench::hermes_plane(model.clone(), HermesConfig::default()).expect("INVARIANT: fixed experiment config is feasible for this model"),
                &batches,
                tick,
            ),
        ),
        (
            "Raw switch".into(),
            drive_batches(RawSwitch::new(model), &batches, tick),
        ),
    ]
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fig10", run)
}

fn run() {
    let total = 1500 * hermes_bench::scale();
    hermes_bench::report_meta("total_rules", &(total as u64));
    println!("== Figure 10: Rule Installation Time — Hermes vs Tango vs ESPRES ==");
    println!("(per-rule installation latency, Pica8 P-3290, {total} rules)");
    for (dc, label) in [(true, "Facebook"), (false, "Geant")] {
        println!("\n--- ({label}) trace ---");
        let mut results = run_all(dc, total);
        for (name, r) in &mut results {
            print_summary(&format!("{name} RIT (ms)"), &mut r.exec_ms);
        }
        let hermes_median = results
            .iter_mut()
            .find(|(n, _)| n == "Hermes")
            .map(|(_, r)| r.exec_ms.median())
            .expect("INVARIANT: the Hermes series is pushed above");
        for (name, r) in &mut results {
            if name == "Hermes" {
                continue;
            }
            let m = r.exec_ms.median();
            println!(
                "  Hermes median vs {name:<12} {:>5.0}% better   (final occupancy {name}: {})",
                (m - hermes_median) / m * 100.0,
                r.occupancy
            );
        }
        println!();
        for (name, r) in &mut results {
            if name == "Raw switch" {
                continue;
            }
            print_cdf(&format!("{label} / {name}"), &mut r.exec_ms, 20);
        }
    }
}

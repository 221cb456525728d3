//! **Figure 11** — time series of rule installation time for the first
//! 1000 rules: Tango vs ESPRES vs Hermes.
//!
//! Reproduction targets (§8.3): all systems start cheap; the baselines'
//! installation times grow as the table fills (diverging after a few
//! hundred rules), while Hermes stays flat under its bound.

#![forbid(unsafe_code)]

use hermes_baselines::{ControlPlane, CpQueue, EspresSwitch, TangoSwitch};
use hermes_bench::te_batches;
use hermes_core::config::HermesConfig;
use hermes_rules::rule::ControlAction;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};

/// Per-rule execution latency series (installation time of rule #i).
fn series<P: ControlPlane>(plane: P, batches: &[(SimTime, Vec<ControlAction>)]) -> Vec<f64> {
    let mut q = CpQueue::new(plane);
    let tick = SimDuration::from_ms(100.0);
    let mut next_tick = SimTime::ZERO + tick;
    let mut out = Vec::new();
    for (at, actions) in batches {
        while next_tick <= *at {
            q.plane_mut().tick(next_tick);
            next_tick += tick;
        }
        let (_, outcome) = q.submit(actions, *at);
        let insert_ids: std::collections::BTreeSet<_> = actions
            .iter()
            .filter(|a| a.is_insert())
            .map(|a| a.rule_id())
            .collect();
        for op in &outcome.ops {
            if insert_ids.contains(&op.id) {
                out.push(op.exec.as_ms());
            }
        }
    }
    out
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fig11", run)
}

fn run() {
    let count = 1000; // the figure plots exactly the first 1000 rules
    hermes_bench::report_meta("count", &(count as u64));
    hermes_bench::report_meta("batch_seed", &7u64);
    let model = SwitchModel::pica8_p3290();
    println!("== Figure 11: Time Series of Rule Installation Time (first {count} rules) ==");
    for (dc, label) in [(true, "Facebook"), (false, "Geant")] {
        let batches = te_batches(dc, count, 0.5, 7);
        let tango = series(TangoSwitch::new(model.clone()), &batches);
        let espres = series(EspresSwitch::new(model.clone()), &batches);
        let hermes = series(
            hermes_bench::hermes_plane(model.clone(), HermesConfig::default()).expect("INVARIANT: fixed experiment config is feasible for this model"),
            &batches,
        );
        println!("\n--- ({label}) trace ---");
        println!(
            "{:>6} {:>12} {:>12} {:>12}",
            "#rule", "Tango(ms)", "ESPRES(ms)", "Hermes(ms)"
        );
        for i in (9..count).step_by(50) {
            // Smooth with a 10-rule window like the paper's plot raster.
            let avg = |v: &[f64]| v[i - 9..=i].iter().sum::<f64>() / 10.0;
            println!(
                "{:>6} {:>12.3} {:>12.3} {:>12.3}",
                i + 1,
                avg(&tango),
                avg(&espres),
                avg(&hermes)
            );
        }
        let last_100 = |v: &[f64]| v[count - 100..].iter().sum::<f64>() / 100.0;
        let first_100 = |v: &[f64]| v[..100].iter().sum::<f64>() / 100.0;
        println!(
            "growth first→last 100 rules: Tango {:.1}x  ESPRES {:.1}x  Hermes {:.1}x",
            last_100(&tango) / first_100(&tango).max(1e-9),
            last_100(&espres) / first_100(&espres).max(1e-9),
            last_100(&hermes) / first_100(&hermes).max(1e-9),
        );
    }
}

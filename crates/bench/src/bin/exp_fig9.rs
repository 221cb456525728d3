//! **Figure 9** — CDF of flow completion time: the three raw switches vs
//! Hermes, for (a) all Facebook jobs, (b) short Facebook jobs, (c) Geant.
//!
//! Reproduction targets (§8.2): Hermes improves the median FCT (up to
//! 48% / 80% / 43% over the Dell / Pica8 / HP switches on Facebook); on
//! short jobs — where transfer and compute times cannot hide control
//! latency — the p95 improvement approaches the RIT-level gains (~80%).

#![forbid(unsafe_code)]

use hermes_bench::{print_cdf, print_summary, run_varys_facebook, run_varys_geant, Table};
use hermes_core::config::HermesConfig;
use hermes_netsim::metrics::Samples;
use hermes_netsim::sim::SwitchKind;
use hermes_tcam::SwitchModel;

/// Facebook coflow jobs at scale 1.
const FACEBOOK_JOBS: usize = 300;
/// Geant traffic-matrix replay length at scale 1, in seconds.
const GEANT_DURATION_S: f64 = 60.0;

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fig9", run)
}

fn run() {
    let scale = hermes_bench::scale();
    let facebook_jobs = FACEBOOK_JOBS * scale;
    let geant_duration_s = GEANT_DURATION_S * scale as f64;
    hermes_bench::report_meta("facebook_jobs", &(facebook_jobs as u64));
    hermes_bench::report_meta("geant_duration_s", &geant_duration_s);
    hermes_bench::report_meta("sim_seeds", &vec![33u64, 34]);
    println!("== Figure 9: Flow Completion Time CDFs ==\n");

    // For each raw switch model, Hermes runs *on that same model* so the
    // improvement isolates the control-plane design (as in the paper).
    let models = SwitchModel::paper_models();

    for workload in ["Facebook", "Geant"] {
        println!("--- ({workload}) ---");
        let run = |kind: SwitchKind| {
            if workload == "Facebook" {
                run_varys_facebook(kind, facebook_jobs, 33)
            } else {
                run_varys_geant(kind, geant_duration_s, 34)
            }
        };
        let mut all: Vec<(String, Samples, Samples)> = Vec::new();
        for m in &models {
            let sim = run(SwitchKind::Raw(m.clone()));
            all.push((
                m.name.clone(),
                sim.metrics.fct_s.clone(),
                sim.metrics.fct_short_s.clone(),
            ));
        }
        let hermes_sim = run(SwitchKind::Hermes(
            SwitchModel::pica8_p3290(),
            HermesConfig::default(),
        ));
        all.push((
            "Hermes".into(),
            hermes_sim.metrics.fct_s.clone(),
            hermes_sim.metrics.fct_short_s.clone(),
        ));

        let hermes_median = all
            .last_mut()
            .map(|(_, s, _)| s.median())
            .expect("INVARIANT: the Hermes series is pushed above");
        let hermes_short_p95 = all
            .last_mut()
            .map(|(_, _, s)| s.percentile(0.95))
            .expect("INVARIANT: the Hermes series is pushed above");

        let mut t = Table::new(&[
            "Switch",
            "median FCT (s)",
            "Hermes improvement",
            "p95 short-job FCT (s)",
            "Hermes improvement (short)",
        ]);
        for (name, fct, short) in &mut all {
            if name == "Hermes" {
                t.row(&[
                    name.clone(),
                    format!("{:.3}", fct.median()),
                    "-".into(),
                    format!("{:.3}", short.percentile(0.95)),
                    "-".into(),
                ]);
                continue;
            }
            let m = fct.median();
            let sp = short.percentile(0.95);
            t.row(&[
                name.clone(),
                format!("{m:.3}"),
                format!("{:.0}%", (m - hermes_median) / m * 100.0),
                format!("{sp:.3}"),
                if sp.is_nan() || sp <= 0.0 {
                    "-".into()
                } else {
                    format!("{:.0}%", (sp - hermes_short_p95) / sp * 100.0)
                },
            ]);
        }
        t.print();
        println!();
        for (name, fct, _) in &mut all {
            print_summary(&format!("{name} FCT (s)"), fct);
        }
        println!();
        for (name, fct, _) in &mut all {
            print_cdf(&format!("{workload} all / {name}"), fct, 20);
        }
        if workload == "Facebook" {
            println!("\n-- (b) short jobs only --");
            for (name, _, short) in &mut all {
                print_cdf(&format!("Facebook short / {name}"), short, 20);
            }
        }
        println!();
    }
    println!("paper: median FCT improvements up to 48%/80%/43% (Dell/Pica8/HP) on Facebook;\nshort-job p95 improvement ~80%");
}

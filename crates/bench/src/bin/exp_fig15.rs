//! **Figure 15** — Hermes's own overheads: CPU/memory utilization and
//! algorithm runtimes vs. rules processed.
//!
//! The paper ran its (Python) agent algorithms on an Edge-Core AS5712
//! switch CPU; we run the Rust implementation on the build machine — the
//! substitution preserves the *shapes* the paper reports:
//!
//! * (a) CPU time and memory grow linearly with the rules processed;
//! * (b) the insertion algorithm's per-rule runtime is ~flat, while the
//!   migration algorithm grows superlinearly with table size.

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_bgp::prelude::*;
use hermes_core::config::HermesConfig;
use hermes_core::prelude::*;
use hermes_rules::prelude::{ControlAction, Rule};
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_util::bench::Stopwatch;
use hermes_util::stats::{quantile_sorted, sort_samples};
use hermes_workloads::bgptrace::BgpTrace;

/// Builds `n` FIB insert actions from a BGP trace (only Adds, §8.7 uses
/// the BGPTrace data with the simple topology).
fn fib_inserts(n: usize) -> Vec<ControlAction> {
    let trace = BgpTrace {
        prefixes: n,
        duration_s: 3600.0,
        withdraw_frac: 0.0,
        base_rate: (n as f64 / 3000.0).max(10.0),
        ..Default::default()
    };
    let mut rib = Rib::new();
    let mut fib = Fib::new();
    let mut out = Vec::new();
    for u in trace.generate() {
        if out.len() >= n {
            break;
        }
        if let Some(d) = rib.process(u.update) {
            if matches!(d, FibDelta::Add { .. }) {
                out.push(fib.compile(d));
            }
        }
    }
    out
}

/// Timed repetitions of each size. The sweep runs the sizes ascending on
/// even repetitions and descending on odd ones, so host drift over the
/// run weighs on every size alike.
const REPS: usize = 11;

/// One timed pass at `n` rules: host µs per inserted rule, host µs per
/// migrated rule, and the approximate memory of the resident entries in
/// KB.
fn time_once(n: usize, actions: &[ControlAction]) -> (f64, f64, usize) {
    // A very large idealized switch so algorithm cost, not simulated
    // TCAM latency, is what we time.
    let mut model = SwitchModel::ideal();
    model.capacity = 2 * n + 64;
    let config = HermesConfig {
        guarantee: SimDuration::from_ms(5.0),
        shadow_size: Some(n.min(model.capacity / 2)),
        rate_limit: Some(f64::INFINITY),
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(model, config).expect(
        "INVARIANT: shadow_size/rate_limit above satisfy the feasibility check for \
         every size in `sizes`; a failure here is a bug in the sweep itself",
    );

    // Insertion algorithm: partition + gatekeeper + shadow write.
    let mut timer = Stopwatch::start();
    for a in actions {
        sw.submit(a, SimTime::ZERO).expect(
            "INVARIANT: the ideal model never faults and capacity covers 2n rules, \
             so submit cannot reject these inserts",
        );
    }
    let insert_elapsed = timer.lap();

    // Migration algorithm over the accumulated shadow.
    let report = sw.migrate(SimTime::ZERO);
    let migrate_elapsed = timer.elapsed();

    // Memory: entries resident across tables × entry footprint.
    let mem_kb = (sw.main_len() + sw.shadow_len()) * std::mem::size_of::<Rule>() / 1024;
    (
        insert_elapsed.as_secs_f64() * 1e6 / actions.len().max(1) as f64,
        migrate_elapsed.as_secs_f64() * 1e6 / report.rules_migrated.max(1) as f64,
        mem_kb,
    )
}

/// The median and the interquartile range `q1–q3` of `samples`, in µs.
fn median_iqr(samples: &mut [f64]) -> (String, String) {
    sort_samples(samples);
    let q = |p| quantile_sorted(samples, p);
    (
        format!("{:.2}", q(0.5)),
        format!("{:.2}–{:.2}", q(0.25), q(0.75)),
    )
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_fig15", run)
}

fn run() {
    let sizes: Vec<usize> = [1000usize, 2500, 5000, 10_000, 20_000]
        .iter()
        .map(|s| s * hermes_bench::scale())
        .collect();
    hermes_bench::report_meta(
        "sizes",
        &sizes.iter().map(|s| *s as u64).collect::<Vec<_>>(),
    );
    println!("== Figure 15: Hermes algorithm overheads (measured on this host) ==\n");

    println!("-- (b) processing time: insertion vs migration algorithm --");
    println!("   (per-rule host time: median and interquartile range of {REPS} runs per size)");
    let actions: Vec<_> = sizes.iter().map(|&n| fib_inserts(n)).collect();
    let mut insert_us = vec![Vec::with_capacity(REPS); sizes.len()];
    let mut migrate_us = vec![Vec::with_capacity(REPS); sizes.len()];
    let mut mem_kb = vec![0; sizes.len()];
    for rep in 0..REPS {
        let mut order: Vec<usize> = (0..sizes.len()).collect();
        if rep % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (ins, mig, mem) = time_once(sizes[i], &actions[i]);
            insert_us[i].push(ins);
            migrate_us[i].push(mig);
            mem_kb[i] = mem;
        }
    }
    let mut t = Table::new(&[
        "Rules",
        "Insert per-rule (us)",
        "Insert IQR (us)",
        "Migr. per-rule (us)",
        "Migr. IQR (us)",
        "Approx. mem (KB)",
    ]);
    for (i, &n) in sizes.iter().enumerate() {
        let (ins, ins_iqr) = median_iqr(&mut insert_us[i]);
        let (mig, mig_iqr) = median_iqr(&mut migrate_us[i]);
        t.row(&[
            n.to_string(),
            ins,
            ins_iqr,
            mig,
            mig_iqr,
            mem_kb[i].to_string(),
        ]);
    }
    t.print();

    println!("\n-- (a) simulated control-plane time per migrated rule (TCAM-write cost) --");
    println!("   (the superlinear component of Fig. 15(b): migration writes into an");
    println!("    ever larger main table)");
    let mut t = Table::new(&[
        "Main-table occupancy",
        "per-rule migration cost (ms, Pica8 model)",
    ]);
    let model = SwitchModel::pica8_p3290();
    for occ in [100usize, 500, 1000, 1500, 2000] {
        t.row(&[
            occ.to_string(),
            format!("{:.2}", model.mean_update_latency(occ).as_ms()),
        ]);
    }
    t.print();

    println!("\npaper: \"runtimes for the insertion algorithms are relatively constant …\nthe migration algorithm [has] a cubic growth pattern\" — and CPU/memory grow\nlinearly with the number of rules processed.");
}

//! **Ablations** — the design choices DESIGN.md §5 calls out, each toggled
//! in isolation:
//!
//! 1. migration consistency protocol: incremental make-before-break (the
//!    paper's choice) vs pause-and-swap (the rejected alternative) —
//!    measured as data-plane pause time. Both move the same rules; only
//!    pause-and-swap stalls the pipeline, for each migration's whole
//!    duration;
//! 2. the §4.2 lowest-priority bypass: on vs off — partitions created and
//!    main-table pressure;
//! 3. hardware shadow (Hermes) vs software shadow (ShadowSwitch \[26\]) —
//!    control-plane RIT vs data-plane slow-path exposure.

#![forbid(unsafe_code)]

use hermes_baselines::{ControlPlane, ShadowSwitch};
use hermes_bench::{drive_batches, Table};
use hermes_core::config::HermesConfig;
use hermes_core::prelude::HermesSwitch;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SimTime, SwitchModel};
use hermes_workloads::microbench::MicroBench;

fn stream(count: usize, overlap: f64) -> Vec<hermes_workloads::microbench::TimedAction> {
    MicroBench {
        arrival_rate: 20.0,
        overlap_rate: overlap,
        count,
        ..Default::default()
    }
    .generate()
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_ablation", run)
}

fn run() {
    let count = 800 * hermes_bench::scale();
    hermes_bench::report_meta("count", &(count as u64));
    println!("== Ablations ==\n");

    // ------------------------------------------------------------------
    println!("-- (1) migration consistency: make-before-break vs pause-and-swap --");
    let mut t = Table::new(&[
        "Mode",
        "Migrations",
        "Total data-plane pause (ms)",
        "Worst single pause (ms)",
    ]);
    let config = HermesConfig {
        rate_limit: Some(f64::INFINITY),
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config)
        .expect("INVARIANT: fixed experiment config is feasible for this model");
    let mut total_pause = SimDuration::ZERO;
    let mut worst_pause = SimDuration::ZERO;
    let mut migrations = 0u64;
    let mut next_tick = SimTime::ZERO;
    for ta in stream(count, 0.2) {
        while next_tick <= ta.at {
            if let Some(report) = sw.tick(next_tick) {
                migrations += 1;
                total_pause += report.duration;
                worst_pause = worst_pause.max(report.duration);
            }
            next_tick += SimDuration::from_ms(100.0);
        }
        #[expect(
            clippy::let_underscore_must_use,
            reason = "INVARIANT: this ablation measures migration pauses only; the admission verdicts are not part of it"
        )]
        let _ = sw.submit(&ta.action, ta.at);
    }
    // Make-before-break never stalls the pipeline; pause-and-swap would
    // stall it for every migration's whole duration.
    for (mode, total, worst) in [
        ("MakeBeforeBreak", SimDuration::ZERO, SimDuration::ZERO),
        ("PauseAndSwap", total_pause, worst_pause),
    ] {
        t.row(&[
            mode.to_string(),
            migrations.to_string(),
            format!("{:.1}", total.as_ms()),
            format!("{:.1}", worst.as_ms()),
        ]);
    }
    t.print();
    println!("(the paper rejects pipeline stalling: \"this impacts the data plane by\n slowing down data plane processing throughput\")\n");

    // ------------------------------------------------------------------
    println!("-- (2) §4.2 lowest-priority bypass: on vs off --");
    let mut t = Table::new(&[
        "Bypass",
        "Shadow inserts",
        "Main inserts",
        "Pieces written",
        "Mean RIT (ms)",
    ]);
    for bypass in [true, false] {
        // Overlap-heavy: exactly the workload where wide low-priority
        // rules fragment worst.
        let config = HermesConfig {
            low_priority_bypass: bypass,
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config)
            .expect("INVARIANT: fixed experiment config is feasible for this model");
        let mut next_tick = SimTime::ZERO;
        let mut lat_sum = 0.0;
        let mut n = 0u64;
        for ta in stream(count, 0.6) {
            while next_tick <= ta.at {
                sw.tick(next_tick);
                next_tick += SimDuration::from_ms(100.0);
            }
            if let Ok(rep) = sw.submit(&ta.action, ta.at) {
                lat_sum += rep.latency.as_ms();
                n += 1;
            }
        }
        let stats = sw.stats();
        t.row(&[
            bypass.to_string(),
            stats.shadow_inserts.to_string(),
            stats.main_inserts.to_string(),
            stats.pieces_written.to_string(),
            format!("{:.3}", lat_sum / n.max(1) as f64),
        ]);
    }
    t.print();
    println!("(bypassing the worst fragmenters keeps the shadow small and the cut count down)\n");

    // ------------------------------------------------------------------
    println!("-- (3) hardware shadow (Hermes) vs software shadow (ShadowSwitch) --");
    let mut t = Table::new(&[
        "System",
        "Median RIT (ms)",
        "p99 RIT (ms)",
        "Data-plane slow-path (% of lookups)",
    ]);
    let workload = stream(count, 0.2);
    {
        let config = HermesConfig {
            rate_limit: Some(f64::INFINITY),
            ..Default::default()
        };
        let plane = hermes_bench::hermes_plane(SwitchModel::pica8_p3290(), config)
            .expect("INVARIANT: fixed experiment config is feasible for this model");
        let batches: Vec<_> = workload.iter().map(|ta| (ta.at, [ta.action])).collect();
        let mut r = drive_batches(plane, &batches, SimDuration::from_ms(100.0));
        t.row(&[
            "Hermes".into(),
            format!("{:.3}", r.exec_ms.median()),
            format!("{:.3}", r.exec_ms.percentile(0.99)),
            "0.0 (hardware-resident)".into(),
        ]);
    }
    {
        // ShadowSwitch needs interleaved lookups to expose the slow path:
        // drive inserts and probe after each.
        let mut ss = ShadowSwitch::new(SwitchModel::pica8_p3290());
        let mut rit = hermes_netsim::metrics::Samples::new();
        for ta in &workload {
            let out = ss.apply_batch(std::slice::from_ref(&ta.action), ta.at);
            rit.push(out.ops[0].exec.as_ms());
            if let ControlAction::Insert(rule) = ta.action {
                // Probe the just-inserted rule: freshly installed rules are
                // exactly the ones still in software.
                ss.lookup(rule.key.value());
            }
        }
        t.row(&[
            "ShadowSwitch".into(),
            format!("{:.3}", rit.median()),
            format!("{:.3}", rit.percentile(0.99)),
            format!("{:.1}", ss.slow_path_fraction() * 100.0),
        ]);
    }
    t.print();
    println!("(ShadowSwitch's near-zero control latency is paid for on the data plane:\n fresh rules forward through the switch CPU until migrated — Hermes's\n hardware shadow never leaves the fast path)");
}

//! **Table 1** — Rule update rate vs. flow-table occupancy.
//!
//! Reproduces the paper's Table 1 by actually driving insertions through
//! the TCAM device model: fill the table to the target occupancy, then
//! measure the sustained update rate for a window of random-priority
//! insertions (delete+insert pairs, keeping occupancy constant, exactly
//! how the underlying measurement study \[42\] probes switches).
//!
//! Paper's measured values: Pica8 P-3290 @ {50:1266, 200:114, 1000:23,
//! 2000:12} updates/s; Dell 8132F @ {50:970, 250:494, 500:42, 750:29}.

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_rules::prelude::*;
use hermes_tcam::{SimDuration, SwitchModel, TcamDevice};
use hermes_util::rng::{stream, Rng, Salt};

fn measured_update_rate(model: &SwitchModel, occupancy: usize, probes: usize) -> f64 {
    let mut dev = TcamDevice::monolithic(model.clone());
    let mut rng = stream(0, Salt::EXP_TABLE1);
    // Fill to the target occupancy.
    let mut live: Vec<u64> = Vec::with_capacity(occupancy);
    for i in 0..occupancy {
        let addr = (i as u32) << 8;
        let rule = Rule::new(
            i as u64,
            Ipv4Prefix::new(addr, 24).to_key(),
            Priority(rng.gen_range(1..10_000)),
            Action::Forward(1),
        );
        dev.apply(0, &ControlAction::Insert(rule)).expect("INVARIANT: fault-free device with capacity sized for the fill");
        live.push(i as u64);
    }
    // Probe: delete a random live rule, insert a replacement at random
    // priority — occupancy stays pinned at the target.
    let mut busy = SimDuration::ZERO;
    for p in 0..probes {
        let next_id = (occupancy + p) as u64;
        let slot = rng.gen_range(0..live.len());
        let victim = RuleId(live.swap_remove(slot));
        busy += dev
            .apply(0, &ControlAction::Delete(victim))
            .expect("INVARIANT: deleting a rule installed above")
            .latency;
        let rule = Rule::new(
            next_id,
            Ipv4Prefix::new(((occupancy + p) as u32) << 8, 24).to_key(),
            Priority(rng.gen_range(1..10_000)),
            Action::Forward(1),
        );
        live.push(next_id);
        busy += dev
            .apply(0, &ControlAction::Insert(rule))
            .expect("INVARIANT: fault-free device with a free slot from the delete")
            .latency;
    }
    // The measurement study counts insert-update throughput; the paired
    // delete keeps occupancy constant (its cost is part of the probe, as
    // in the study's methodology).
    probes as f64 / busy.as_secs()
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_table1", run)
}

fn run() {
    println!("== Table 1: Rule Update Rate vs Occupancy ==\n");
    let probes = 200 * hermes_bench::scale();
    hermes_bench::report_meta("probes", &(probes as u64));

    let cases: [(&SwitchModel, &[(usize, f64)]); 2] = [
        (
            &SwitchModel::pica8_p3290(),
            &[(50, 1266.0), (200, 114.0), (1000, 23.0), (2000, 12.0)],
        ),
        (
            &SwitchModel::dell_8132f(),
            &[(50, 970.0), (250, 494.0), (500, 42.0), (750, 29.0)],
        ),
    ];

    for (model, expected) in cases {
        println!("ASIC: {} (capacity {})", model.name, model.capacity);
        let mut table = Table::new(&["Table Occupancy", "Update/s (measured)", "Update/s (paper)"]);
        for &(occ, paper) in expected {
            let rate = measured_update_rate(model, occ, probes);
            table.row(&[occ.to_string(), format!("{rate:.0}"), format!("{paper:.0}")]);
        }
        table.print();
        println!();
    }

    // The HP 5406zl occupancy table is synthesized (DESIGN.md §2); print
    // it for completeness.
    let hp = SwitchModel::hp_5406zl();
    println!(
        "ASIC: {} (synthesized points, capacity {})",
        hp.name, hp.capacity
    );
    let mut table = Table::new(&["Table Occupancy", "Update/s (measured)", "Update/s (model)"]);
    for &(occ, rate) in &hp.points.clone() {
        let measured = measured_update_rate(&hp, occ as usize, probes);
        table.row(&[
            format!("{occ:.0}"),
            format!("{measured:.0}"),
            format!("{rate:.0}"),
        ]);
    }
    table.print();
}

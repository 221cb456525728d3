//! **Crash storm** — the switch fault domain under seeded crash-class
//! faults (full TCAM wipes, partial retention, control-session loss).
//!
//! A Hermes agent ingests a batched rule stream while a `crashy` fault
//! plan periodically kills the switch; after the storm the plan is
//! disarmed and audit sweeps must drive every crash window closed. Each
//! resync diffs the logical view against the survivor subset and replays
//! the minimal repair set through one batched device transaction per
//! slice.
//!
//! The gated counters pin the whole path: `resync.*` proves crash
//! detection/recovery ran, and `tcam.batch_*` proves the repair sets
//! rode the batched pipeline rather than per-op writes.

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_core::prelude::*;
use hermes_rules::prelude::*;
use hermes_tcam::{FaultPlan, SimDuration, SimTime, SwitchModel};
use hermes_util::rng::{stream, Rng, Salt, StdRng};

struct Outcome {
    crashes: u64,
    resyncs: u64,
    reinstalled: u64,
    survivors: u64,
    gap_ms: f64,
    final_rules: usize,
    sweeps: u32,
}

fn storm_rule(id: u64, rng: &mut StdRng) -> Rule {
    let a = Rng::gen_range(rng, 0..200u32);
    let b = Rng::gen_range(rng, 0..250u32);
    let addr = (10u32 << 24) | (a << 16) | (b << 8);
    Rule::new(
        id,
        Ipv4Prefix::new(addr, 24).to_key(),
        Priority(1 + Rng::gen_range(rng, 0..1990u32)),
        Action::Forward(Rng::gen_range(rng, 1..48u32)),
    )
}

/// Probability that an entry survives a partial-retention crash.
const SURVIVOR_PROB: f64 = 0.5;
/// Reconnect attempts the rebooting device denies before accepting one.
const RECONNECT_DENIALS: u32 = 2;

fn run_storm(count: usize, crash_period: u64, seed: u64) -> Outcome {
    let config = HermesConfig {
        // Admission control off: every update attempts the shadow path, so
        // crash windows land on a busy pipeline rather than a throttled one.
        rate_limit: Some(f64::INFINITY),
        ..Default::default()
    };
    let mut sw = HermesSwitch::new(SwitchModel::pica8_p3290(), config)
        .expect("INVARIANT: fixed experiment config is feasible for this model");
    let mut plan = FaultPlan::crashy(seed);
    plan.crash_period = crash_period;
    plan.survivor_prob = SURVIVOR_PROB;
    plan.max_reconnect_denials = RECONNECT_DENIALS;
    sw.install_fault_plan(Some(plan));

    let mut rng = stream(seed, Salt::EXP_CRASH);
    let mut now = SimTime::ZERO;
    let mut next_id = 0u64;
    while (next_id as usize) < count {
        // Runs of eight inserts ride the batched admission pipeline — the
        // same path the resync engine's repair sets take.
        let batch: Vec<Rule> = (0..8)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                storm_rule(id, &mut rng)
            })
            .collect();
        now += SimDuration::from_ms(1.0);
        // INVARIANT: storm-phase failures are the experiment's point —
        // the fault plan injects them and the audit sweeps below repair
        // every divergence; per-op outcomes carry no signal here.
        let _ = sw.admit_batch(&batch, now);
        if next_id.is_multiple_of(64) {
            sw.tick(now);
        }
        if next_id.is_multiple_of(160) {
            // A sprinkle of deletes keeps the rebuild honest about removals.
            for _ in 0..4 {
                let victim = Rng::gen_range(&mut rng, 0..next_id);
                now += SimDuration::from_us(200.0);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "INVARIANT: deleting an already-lost victim during the storm is expected; the audit sweeps reconcile state"
                )]
                let _ = sw.delete(RuleId(victim), now);
            }
        }
    }

    // Disarm the plan and let audit sweeps close every crash window.
    sw.install_fault_plan(None);
    let mut sweeps = 0u32;
    loop {
        now += SimDuration::from_ms(5.0);
        sw.tick(now);
        let audit = sw.audit(now);
        if audit.clean() && !sw.is_down() && sw.deferred_len() == 0 {
            break;
        }
        sweeps += 1;
        assert!(
            sweeps < 64,
            "crash storm failed to quiesce within 64 audit sweeps"
        );
    }
    assert_eq!(
        sw.intent_len(),
        sw.logical_len(),
        "logical view must hold each rule once after recovery"
    );

    let stats = sw.resync_stats();
    assert!(
        stats.resyncs_completed >= 1,
        "the storm must force at least one completed resync"
    );
    Outcome {
        crashes: stats.crashes_detected,
        resyncs: stats.resyncs_completed,
        reinstalled: stats.rules_reinstalled,
        survivors: stats.survivors_kept,
        gap_ms: stats.guarantee_gap_ns as f64 / 1e6,
        final_rules: sw.logical_len(),
        sweeps,
    }
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_crash", run_experiment_body)
}

fn run_experiment_body() {
    let count = hermes_bench::scenario().knob_u64("count", 1500) as usize * hermes_bench::scale();
    let crash_period = hermes_bench::scenario().knob_u64("crash_period", 120);
    let seed = hermes_bench::scenario().fault_seed.unwrap_or(7);
    hermes_bench::report_meta("count", &(count as u64));
    hermes_bench::report_meta("crash_period", &crash_period);

    println!("== Crash storm: wipe/partial/disconnect faults vs the resync engine ==\n");
    println!(
        "{count} updates, a crash every ~{crash_period} device ops, survivor p={SURVIVOR_PROB}, \
         {RECONNECT_DENIALS} reconnect denial(s), fault seed {seed}\n"
    );

    let mut t = Table::new(&[
        "Crashes",
        "Resyncs",
        "Reinstalled",
        "Survivors kept",
        "Gap (ms)",
        "Final rules",
        "Sweeps",
    ]);
    let o = run_storm(count, crash_period, seed);
    t.row(&[
        o.crashes.to_string(),
        o.resyncs.to_string(),
        o.reinstalled.to_string(),
        o.survivors.to_string(),
        format!("{:.3}", o.gap_ms),
        o.final_rules.to_string(),
        o.sweeps.to_string(),
    ]);
    t.print();
    println!(
        "\nresync keeps crash survivors in place and replays the minimal diff\n\
         through batched device transactions, with the guarantee re-established\n\
         after every crash"
    );
}

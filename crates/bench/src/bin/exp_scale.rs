//! exp_scale — control-plane batching at scale (DESIGN.md §10).
//!
//! The paper's switch models top out at a few thousand entries; this
//! experiment instead drives the TCAM shift model itself at data-center
//! scale (100k × `HERMES_SCALE` rules) to measure what the batched
//! pipeline buys over per-op submission:
//!
//! 1. **per-op** — every rule submitted singly against a dense layout
//!    (the pre-batching hot path);
//! 2. **batched** — the same workload in 1024-op chunks through
//!    [`TcamTable::apply_batch`]'s coalesced shift plan.
//!
//! Both paths install the identical rule sequence; the experiment
//! asserts observational equivalence (same match-order entries) and that
//! batching cuts modeled shifts by at least 2× — the regression floor the
//! CI perf gate pins via `scale.*` counters.

#![forbid(unsafe_code)]

use hermes_bench::Table;
use hermes_rules::prelude::*;
use hermes_tcam::{PlacementStrategy, TcamOp, TcamTable};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};

/// Workload RNG stream for this experiment (R7: streams are named per
/// subsystem so two experiments never silently draw the same sequence).
const SCALE_STREAM_SALT: u64 = 7;
/// Batch size for the coalesced path (one "transaction" per chunk).
const CHUNK: usize = 1024;

fn workload(n: usize) -> Vec<Rule> {
    let mut rng = StdRng::seed_from_u64(SCALE_STREAM_SALT);
    (0..n)
        .map(|i| {
            Rule::new(
                i as u64,
                Ipv4Prefix::new((i as u32) << 8, 24).to_key(),
                Priority(rng.gen_range(1..1_000_000)),
                Action::Forward(1),
            )
        })
        .collect()
}

/// Phase 1: every rule submitted singly against a dense layout.
fn per_op_shifts(rules: &[Rule]) -> (u64, TcamTable) {
    let mut table = TcamTable::new(rules.len(), PlacementStrategy::PackedLow);
    let mut shifts = 0u64;
    for r in rules {
        shifts += table
            .insert(*r)
            .expect("INVARIANT: capacity sized for the workload, ids unique")
            .shifts as u64;
    }
    (shifts, table)
}

/// Phase 2: the same workload in CHUNK-sized coalesced batches.
fn batched_shifts(rules: &[Rule]) -> (u64, u64, TcamTable) {
    let mut table = TcamTable::new(rules.len(), PlacementStrategy::PackedLow);
    let (mut shifts, mut naive) = (0u64, 0u64);
    for chunk in rules.chunks(CHUNK) {
        let ops: Vec<TcamOp> = chunk.iter().map(|r| TcamOp::Insert(*r)).collect();
        let rep = table
            .apply_batch(&ops)
            .expect("INVARIANT: capacity sized for the workload, ids unique");
        shifts += rep.shifts as u64;
        naive += rep.naive_shifts as u64;
    }
    (shifts, naive, table)
}

fn main() -> std::process::ExitCode {
    hermes_bench::run_experiment("exp_scale", run)
}

fn run() {
    let n = hermes_bench::scenario().knob_u64("rules", 100_000) as usize
        * hermes_bench::scale();
    hermes_bench::report_meta("n", &(n as u64));
    println!("== control-plane batching at scale: {n} rules ==\n");

    let rules = workload(n);

    let (per_op, dense) = per_op_shifts(&rules);
    let (batch, batch_naive, batched) = batched_shifts(&rules);

    for t in [&dense, &batched] {
        assert_eq!(t.len(), n, "every path installs the full workload");
        assert!(t.check_invariants(), "table invariants hold at scale");
    }
    assert_eq!(
        dense.entries(),
        batched.entries(),
        "batched path is observationally equivalent to per-op"
    );

    hermes_telemetry::counter("scale.rules", n as u64);
    hermes_telemetry::counter("scale.per_op_shifts", per_op);
    hermes_telemetry::counter("scale.batch_shifts", batch);
    hermes_telemetry::counter("scale.batch_naive_shifts", batch_naive);

    let ratio = |a: u64, b: u64| {
        if b == 0 {
            f64::INFINITY
        } else {
            a as f64 / b as f64
        }
    };
    let mut t = Table::new(&["Path", "total shifts", "shifts/op", "vs per-op"]);
    for (name, s) in [("per-op (dense)", per_op), ("batched (1024-op)", batch)] {
        t.row(&[
            name.into(),
            s.to_string(),
            format!("{:.1}", s as f64 / n as f64),
            format!("{:.1}x", ratio(per_op, s)),
        ]);
    }
    t.print();
    println!(
        "\nbatch clamp: coalesced plan billed {batch} vs naive replay {batch_naive} \
         ({:.1}x reduction inside the batch path alone)",
        ratio(batch_naive, batch)
    );

    assert!(
        ratio(per_op, batch) >= 2.0,
        "batched pipeline must cut modeled shifts at least 2x at {n} rules \
         (got {:.2}x)",
        ratio(per_op, batch)
    );
}

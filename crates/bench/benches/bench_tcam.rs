//! Micro-benchmarks for the TCAM device model: insertion (by occupancy),
//! deletion, modification and lookup — the operations whose *simulated*
//! costs drive every experiment, benchmarked here for *real* wall-clock
//! cost to show the model itself is cheap.

use hermes_rules::prelude::*;
use hermes_tcam::{PlacementStrategy, SwitchModel, TcamDevice, TcamOp, TcamTable};
use hermes_util::bench::Bench;
use std::hint::black_box;

fn rule(id: u64, i: u32, prio: u32) -> Rule {
    Rule::new(
        id,
        Ipv4Prefix::new(i << 8, 24).to_key(),
        Priority(prio),
        Action::Forward(1),
    )
}

fn filled_table(n: usize) -> TcamTable {
    let mut t = TcamTable::new(n + 64, PlacementStrategy::PackedLow);
    for i in 0..n {
        t.insert(rule(i as u64, i as u32, (i % 1000) as u32 + 1))
            .expect("fill");
    }
    t
}

fn bench_insert() {
    let b = Bench::new("tcam_insert");
    for occ in [100usize, 1000, 4000] {
        let base = filled_table(occ);
        let mut i = occ as u64;
        b.run_batched(
            &occ.to_string(),
            || base.clone(),
            |mut t| {
                i += 1;
                t.insert(rule(i, i as u32, 500)).expect("insert");
                black_box(t.len())
            },
        );
    }
}

fn bench_lookup() {
    let b = Bench::new("tcam_lookup");
    for occ in [100usize, 1000, 4000] {
        let t = filled_table(occ);
        let pkt = ((occ as u32 / 2) << 8) as u128;
        b.run(&occ.to_string(), || black_box(t.peek(black_box(pkt << 96))));
    }
}

fn bench_lookup_miss() {
    let b = Bench::new("tcam_lookup_miss");
    for occ in [100usize, 1000, 4000] {
        let t = filled_table(occ);
        // One past the highest installed /24: matches nothing.
        let pkt = ((occ as u32) << 8) as u128;
        b.run(&occ.to_string(), || black_box(t.peek(black_box(pkt << 96))));
    }
}

/// One insert, one delete and one lookup per iteration on a warm table:
/// what a lookup structure costs the writes beside it.
fn bench_lookup_under_churn() {
    let occ = 1000usize;
    let mut t = filled_table(occ);
    let mut i = occ as u64;
    Bench::new("tcam_lookup_under_churn").run(&occ.to_string(), || {
        t.insert(rule(i, i as u32, (i % 1000) as u32 + 1))
            .expect("insert");
        t.delete(RuleId(i - occ as u64)).expect("delete");
        i += 1;
        black_box(t.peek(((i as u128 - 500) << 8) << 96))
    });
}

/// A 64-op batch (32 deletes, 32 inserts) into 1000 entries: under the
/// scratch-replay clamp, so the exact sequential cost is replayed too.
fn bench_apply_batch() {
    let occ = 1000usize;
    let base = filled_table(occ);
    let ops: Vec<TcamOp> = (0..32u64)
        .flat_map(|k| {
            let fresh = occ as u64 + k;
            [
                TcamOp::Delete(RuleId(k * 31)),
                TcamOp::Insert(rule(fresh, fresh as u32, (k * 29 % 1000) as u32 + 1)),
            ]
        })
        .collect();
    Bench::new("tcam_apply_batch").run_batched(
        "1000x64",
        || base.clone(),
        |mut t| black_box(t.apply_batch(&ops).expect("valid batch").shifts),
    );
}

fn bench_device_pipeline() {
    let model = SwitchModel::pica8_p3290();
    let mut dev = TcamDevice::carved(
        model,
        &[
            ("shadow", 64, hermes_tcam::MissBehavior::GotoNextSlice),
            ("main", 1900, hermes_tcam::MissBehavior::ToController),
        ],
    );
    for i in 0..500u64 {
        dev.apply(
            1,
            &ControlAction::Insert(rule(i, i as u32, (i % 100) as u32 + 1)),
        )
        .expect("fill");
    }
    let pkt = (250u128 << 8) << 96;
    Bench::new("device_shadow_main_lookup").run("", || black_box(dev.peek(black_box(pkt))));
}

fn bench_perf_model() {
    let m = SwitchModel::dell_8132f();
    Bench::new("perf_insert_latency_eval")
        .run("", || black_box(m.insert_latency(black_box(500), black_box(230))));
}

fn main() {
    bench_insert();
    bench_lookup();
    bench_lookup_miss();
    bench_lookup_under_churn();
    bench_apply_batch();
    bench_device_pipeline();
    bench_perf_model();
}

//! Layer probes (traced runs): a workload's own inputs replayed straight
//! into a lower layer's public functions, at the workload's occupancy.
//!
//! A probe gives a layer's ns per call *outside* the stack; multiplied by
//! the call count telemetry reports for the run it yields an **estimated**
//! share of the wall clock (`*.est_share`). They stay estimates until
//! in-program spans replace them (ROADMAP item 1's `measured.profile`).

use crate::summary::percentile;
use hermes_core::partition::partition_new_rule_bounded;
use hermes_core::prelude::*;
use hermes_rules::merge::minimize_keys;
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_tcam::TcamOp;
use hermes_util::bench::Stopwatch;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Inserts replayed per probe (the head of the workload's insert stream).
const SAMPLE: usize = 20_000;
/// Single-op `tcam` probes replay fewer: each costs up to tens of µs.
const TCAM_SAMPLE: usize = 4_000;

/// Mean ns per call of `f` over `items`.
fn mean_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let w = Stopwatch::start();
    for it in items {
        f(it);
    }
    w.elapsed().as_nanos() as f64 / items.len() as f64
}

/// Every single-switch probe: Algorithm 1 and the `rules` algebra over
/// `inserts` against the switch's main-table snapshot, and the `tcam`
/// calls on copies of that table.
pub fn at_switch(
    sw: &HermesSwitch,
    inserts: &[Rule],
    packets: &[u128],
) -> BTreeMap<&'static str, f64> {
    let mut out = partition_and_rules(sw, inserts);
    out.extend(tcam_at_occupancy(sw, inserts, packets));
    out
}

/// `core.partition_ns_*` and the `rules.*` probes: Algorithm 1 and the
/// algebra under it, over the workload's inserts against the switch's
/// main-table snapshot.
fn partition_and_rules(sw: &HermesSwitch, inserts: &[Rule]) -> BTreeMap<&'static str, f64> {
    let main = sw.device().slice(MAIN).table.entries();
    let sample = &inserts[..inserts.len().min(SAMPLE)];
    let mut out = BTreeMap::new();

    let mut index = OverlapIndex::new();
    out.insert(
        "rules.index_insert_ns",
        mean_ns(&main, |r| index.insert(*r)),
    );

    let mut per_call = Vec::with_capacity(sample.len());
    let mut cut: Vec<Vec<TernaryKey>> = Vec::new();
    // The bounded form with the switch's own piece budget: the call the
    // insert path makes (an over-budget rule is routed to the main table).
    let limit = sw.config().max_partitions;
    for r in sample {
        let w = Stopwatch::start();
        let o = black_box(partition_new_rule_bounded(black_box(r), &index, limit));
        per_call.push(w.elapsed().as_nanos() as f64);
        if let Ok(o) = o {
            if !o.cut_against.is_empty() {
                cut.push(o.pieces);
            }
        }
    }
    out.insert("core.partition_ns_p50", percentile(&per_call, 0.5));
    out.insert("core.partition_ns_p99", percentile(&per_call, 0.99));

    out.insert(
        "rules.overlap_query_ns",
        mean_ns(sample, |r| {
            black_box(index.overlapping_above(&r.key, r.priority));
        }),
    );
    // The cuts Algorithm 1 actually makes on these inputs; a workload of
    // disjoint rules makes none and the two probes below read 0.
    let pairs: Vec<(TernaryKey, TernaryKey)> = sample
        .iter()
        .flat_map(|r| {
            index
                .overlapping_above(&r.key, r.priority)
                .into_iter()
                .map(|o| (r.key, o.key))
        })
        .collect();
    out.insert(
        "rules.difference_ns",
        mean_ns(&pairs, |(a, b)| {
            black_box(a.difference(b));
        }),
    );
    out.insert(
        "rules.minimize_keys_ns",
        mean_ns(&cut, |pieces| {
            black_box(minimize_keys(pieces.clone()));
        }),
    );
    out
}

/// The `tcam.*` probes: single ops, lookups, a batched transaction and
/// the device wrapper, on copies of the switch's main table at its
/// current occupancy.
fn tcam_at_occupancy(
    sw: &HermesSwitch,
    inserts: &[Rule],
    packets: &[u128],
) -> BTreeMap<&'static str, f64> {
    let snapshot = &sw.device().slice(MAIN).table;
    // Rules not already in the snapshot, few enough to fit its free space.
    let sample: Vec<Rule> = inserts
        .iter()
        .filter(|r| !snapshot.contains(r.id))
        .take(TCAM_SAMPLE.min(snapshot.free()))
        .copied()
        .collect();
    let mut out = BTreeMap::new();

    let mut table = snapshot.clone();
    let (mut ins_ns, mut del_ns) = (0u128, 0u128);
    for r in &sample {
        let w = Stopwatch::start();
        // INVARIANT: the sample holds ids absent from the snapshot and the
        // pair leaves the occupancy unchanged, so neither call can fail.
        black_box(table.insert(*r)).expect("probe insert");
        ins_ns += w.elapsed().as_nanos();
        let w = Stopwatch::start();
        // INVARIANT: the rule was inserted two lines up.
        black_box(table.delete(r.id)).expect("probe delete");
        del_ns += w.elapsed().as_nanos();
    }
    let n = sample.len().max(1) as f64;
    out.insert("tcam.insert_ns", ins_ns as f64 / n);
    out.insert("tcam.delete_ns", del_ns as f64 / n);

    // Hits: the snapshot's own entries (a key's value matches the key).
    // Misses: whatever part of the workload's packet sample the table lacks.
    let hits: Vec<u128> = table.iter().take(1_000).map(|r| r.key.value()).collect();
    let misses: Vec<u128> = packets
        .iter()
        .copied()
        .filter(|p| table.peek(*p).is_none())
        .collect();
    out.insert(
        "tcam.peek_hit_ns",
        mean_ns(&hits, |p| {
            black_box(table.peek(*p));
        }),
    );
    out.insert(
        "tcam.peek_miss_ns",
        mean_ns(&misses, |p| {
            black_box(table.peek(*p));
        }),
    );

    let batches: Vec<Vec<TcamOp>> = sample
        .chunks(256)
        .flat_map(|c| {
            [
                c.iter().map(|r| TcamOp::Insert(*r)).collect(),
                c.iter().map(|r| TcamOp::Delete(r.id)).collect(),
            ]
        })
        .collect();
    let w = Stopwatch::start();
    for ops in &batches {
        // INVARIANT: each insert batch is undone by the delete batch after
        // it, so ids never collide and the table never fills.
        black_box(table.apply_batch(ops)).expect("probe batch");
    }
    out.insert(
        "tcam.apply_batch_ns_per_op",
        w.elapsed().as_nanos() as f64 / (2.0 * n),
    );

    let mut device = sw.device().clone();
    let w = Stopwatch::start();
    for r in &sample {
        // INVARIANT: same insert/delete pairing as the table probe above,
        // on a fault-free copy of the device.
        black_box(device.apply(MAIN, &ControlAction::Insert(*r))).expect("probe device insert");
        // INVARIANT: the rule was inserted on the line above.
        black_box(device.apply(MAIN, &ControlAction::Delete(r.id))).expect("probe device delete");
    }
    out.insert(
        "tcam.device_apply_ns",
        w.elapsed().as_nanos() as f64 / (2.0 * n),
    );
    out
}

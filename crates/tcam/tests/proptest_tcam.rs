//! Property-based tests for the TCAM model: ordering invariants under
//! arbitrary operation sequences, shift-count consistency, and latency
//! model sanity across the whole occupancy range. Runs under the in-tree
//! `hermes_util::check!` harness with pinned default seeds.

use hermes_rules::prelude::*;
use hermes_tcam::{PlacementStrategy, SimDuration, SwitchModel, TcamError, TcamOp, TcamTable};
use hermes_util::check::{arb, just, one_of, range, vec_of, weighted, zip2, zip3, Gen};

#[derive(Clone, Debug)]
enum Op {
    Insert { prio: u32, pfx_bits: u32, len: u8 },
    Delete { idx: usize },
    ModifyAction { idx: usize, port: u32 },
}

fn op() -> Gen<Op> {
    // One insert in eight is `Priority::NONE` (free placement).
    let prio = weighted(vec![(1, just(0u32)), (7, range(1u32..2000))]);
    weighted(vec![
        (
            3,
            zip3(prio, arb::<u32>(), range(8u8..=30)).map(
                |(prio, pfx_bits, len)| Op::Insert { prio, pfx_bits, len },
            ),
        ),
        (1, arb::<usize>().map(|idx| Op::Delete { idx })),
        (
            1,
            zip2(arb::<usize>(), range(0u32..48))
                .map(|(idx, port)| Op::ModifyAction { idx, port }),
        ),
    ])
}

/// Abstract batch op: indices are resolved against the set of live ids at
/// generation-replay time so every concrete batch is valid (the atomic
/// rejection path has its own unit tests).
#[derive(Clone, Debug)]
enum BOp {
    Insert { prio: u32, pfx_bits: u32, len: u8 },
    Delete { idx: usize },
    ModifyAction { idx: usize, port: u32 },
}

fn batch_op() -> Gen<BOp> {
    weighted(vec![
        (
            4,
            zip3(range(0u32..2000), arb::<u32>(), range(8u8..=30)).map(
                |(prio, pfx_bits, len)| BOp::Insert { prio, pfx_bits, len },
            ),
        ),
        (2, arb::<usize>().map(|idx| BOp::Delete { idx })),
        (
            1,
            zip2(arb::<usize>(), range(0u32..48))
                .map(|(idx, port)| BOp::ModifyAction { idx, port }),
        ),
    ])
}

/// Raw batch op with *unresolved* ids: duplicates, deletes of dead rules
/// and capacity overruns are all reachable, so the generated batches
/// exercise the atomic-rejection path as often as the happy path.
#[derive(Clone, Debug)]
enum RawOp {
    Insert { id: u64, prio: u32, pfx_bits: u32, len: u8 },
    Delete { id: u64 },
    ModifyAction { id: u64, port: u32 },
}

fn raw_op() -> Gen<RawOp> {
    // Ids from a pool barely larger than the table keeps collisions with
    // live and batch-pending rules frequent.
    let id = || range(0u64..24);
    weighted(vec![
        (
            4,
            zip3(id(), range(0u32..100), zip2(arb::<u32>(), range(8u8..=28))).map(
                |(id, prio, (pfx_bits, len))| RawOp::Insert { id, prio, pfx_bits, len },
            ),
        ),
        (2, id().map(|id| RawOp::Delete { id })),
        (
            1,
            zip2(id(), range(0u32..48)).map(|(id, port)| RawOp::ModifyAction { id, port }),
        ),
    ])
}

fn strategy() -> Gen<PlacementStrategy> {
    one_of(vec![
        just(PlacementStrategy::PackedLow),
        just(PlacementStrategy::PackedHigh),
        just(PlacementStrategy::Balanced),
    ])
}

hermes_util::check! {
    #![cases = 256]

    /// Invariants hold under any op sequence: priority-sorted entries,
    /// capacity respected, and every insert billed §2.1's closed form —
    /// the entries between its slot `pos` and the packing boundary:
    /// `len - pos` (PackedLow), `pos` (PackedHigh), the smaller of the two
    /// (Balanced), and nothing for a `Priority::NONE` rule.
    fn table_invariants_under_random_ops(
        ops in vec_of(op(), 1..200),
        placement in strategy(),
    ) {
        let mut table = TcamTable::new(64, placement);
        let mut live: Vec<RuleId> = Vec::new();
        let mut next = 0u64;
        for o in ops {
            match o {
                Op::Insert { prio, pfx_bits, len } => {
                    let rule = Rule::new(
                        next,
                        Ipv4Prefix::new(pfx_bits, len).to_key(),
                        Priority(prio),
                        Action::Forward(1),
                    );
                    next += 1;
                    match table.insert(rule) {
                        Ok(shifts) => {
                            let len = shifts.occupancy_before;
                            let pos = table.iter().position(|r| r.id == rule.id).expect("stored");
                            let want = match placement {
                                _ if rule.priority.is_none() => 0,
                                PlacementStrategy::PackedLow => len - pos,
                                PlacementStrategy::PackedHigh => pos,
                                PlacementStrategy::Balanced => pos.min(len - pos),
                            };
                            assert_eq!(shifts.shifts, want, "insert at {pos} of {len}");
                            live.push(rule.id);
                        }
                        Err(e) => {
                            assert_eq!(e, TcamError::Full, "only Full may fail");
                            assert_eq!(table.len(), 64);
                        }
                    }
                }
                Op::Delete { idx } => {
                    if !live.is_empty() {
                        let id = live.swap_remove(idx % live.len());
                        assert!(table.delete(id).is_ok());
                    }
                }
                Op::ModifyAction { idx, port } => {
                    if !live.is_empty() {
                        let id = live[idx % live.len()];
                        assert!(table.modify_action(id, Action::Forward(port)).is_ok());
                    }
                }
            }
            assert!(table.check_invariants());
            assert_eq!(table.len(), live.len());
        }
    }

    /// Lookup always returns the highest-priority matching rule (oracle:
    /// linear max scan).
    fn lookup_matches_priority_oracle(
        rules in vec_of(zip3(range(0u32..100), arb::<u32>(), range(8u8..=24)), 1..40),
        probe in arb::<u32>(),
    ) {
        let mut table = TcamTable::new(256, PlacementStrategy::PackedLow);
        let mut all = Vec::new();
        for (i, (prio, bits, len)) in rules.iter().enumerate() {
            let r = Rule::new(
                i as u64,
                Ipv4Prefix::new(*bits, *len).to_key(),
                Priority(*prio),
                Action::Forward(i as u32),
            );
            table.insert(r).expect("capacity");
            all.push(r);
        }
        let pkt = (probe as u128) << 96;
        let got = table.peek(pkt).map(|r| r.priority);
        let want = all.iter().filter(|r| r.key.matches(pkt)).map(|r| r.priority).max();
        assert_eq!(got, want);
    }

    /// The empirical latency model is monotone in occupancy and shifts for
    /// every switch, and worst-case sizing really bounds the worst case.
    fn latency_model_laws(occ in range(0usize..2000), shifts in range(0usize..2000)) {
        for m in SwitchModel::paper_models() {
            let occ = occ.min(m.capacity - 1);
            let shifts = shifts.min(occ);
            let lat = m.insert_latency(occ, shifts);
            assert!(lat >= m.base);
            assert!(lat <= m.insert_latency(occ, occ) + SimDuration::from_nanos(1));
            // Guarantee sizing: any table within the sized bound meets it.
            let g = SimDuration::from_ms(5.0);
            if let Some(size) = m.max_table_for_guarantee(g) {
                if size > 0 {
                    assert!(m.worst_insert_latency(size) <= g);
                }
            }
        }
    }

    /// `apply_batch` is observationally equivalent to the same ops applied
    /// singly — identical final entries (including FIFO order among equal
    /// priorities) — and the coalesced plan never bills more shifts than
    /// the per-op sum. Exercised across all strategies.
    fn batch_equals_sequential(
        init in vec_of(zip3(range(0u32..500), arb::<u32>(), range(8u8..=28)), 0..40),
        ops in vec_of(batch_op(), 1..60),
        placement in strategy(),
    ) {
        const CAP: usize = 128;
        let mut table = TcamTable::new(CAP, placement);
        let mut live: Vec<u64> = Vec::new();
        for (i, (prio, bits, len)) in init.iter().enumerate() {
            let r = Rule::new(
                i as u64,
                Ipv4Prefix::new(*bits, *len).to_key(),
                Priority(*prio),
                Action::Forward(i as u32),
            );
            table.insert(r).expect("capacity");
            live.push(i as u64);
        }
        // Resolve the abstract ops into a concretely valid batch.
        let mut next = 10_000u64;
        let mut occ = table.len();
        let mut concrete: Vec<TcamOp> = Vec::new();
        for o in ops {
            match o {
                BOp::Insert { prio, pfx_bits, len } if occ < CAP => {
                    concrete.push(TcamOp::Insert(Rule::new(
                        next,
                        Ipv4Prefix::new(pfx_bits, len).to_key(),
                        Priority(prio),
                        Action::Forward(7),
                    )));
                    live.push(next);
                    next += 1;
                    occ += 1;
                }
                BOp::Delete { idx } if !live.is_empty() => {
                    let id = live.swap_remove(idx % live.len());
                    concrete.push(TcamOp::Delete(RuleId(id)));
                    occ -= 1;
                }
                BOp::ModifyAction { idx, port } if !live.is_empty() => {
                    concrete.push(TcamOp::ModifyAction {
                        id: RuleId(live[idx % live.len()]),
                        action: Action::Forward(port),
                    });
                }
                _ => {} // op not applicable in this state; skip
            }
        }
        // Sequential reference: same ops, one at a time.
        let mut seq = table.clone();
        let mut per_op_shifts = 0usize;
        for op in &concrete {
            match op {
                TcamOp::Insert(r) => {
                    per_op_shifts += seq.insert(*r).expect("valid by construction").shifts;
                }
                TcamOp::Delete(id) => {
                    seq.delete(*id).expect("valid by construction");
                }
                TcamOp::ModifyAction { id, action } => {
                    seq.modify_action(*id, *action).expect("valid by construction");
                }
            }
        }
        let rep = table.apply_batch(&concrete).expect("valid by construction");
        assert_eq!(table.entries(), seq.entries(), "final tables diverge");
        assert_eq!(table.len(), seq.len());
        assert!(
            rep.shifts <= per_op_shifts,
            "batch billed {} > per-op sum {}",
            rep.shifts,
            per_op_shifts
        );
        assert!(table.check_invariants());
    }

    /// `apply_batch` over *unvalidated* mixed op sequences — duplicate
    /// ids, deletes/modifies of dead rules, capacity overruns — agrees
    /// with sequential semantics on both sides of the validity line: a
    /// batch that would fail sequentially is rejected with exactly the
    /// first sequential error and the table untouched; a batch that
    /// would succeed matches the sequential outcome.
    fn batch_rejection_is_atomic_and_matches_sequential(
        init_n in range(0usize..14),
        ops in vec_of(raw_op(), 1..40),
        placement in strategy(),
    ) {
        const CAP: usize = 16;
        let mut table = TcamTable::new(CAP, placement);
        for i in 0..init_n as u64 {
            table
                .insert(Rule::new(
                    i,
                    Ipv4Prefix::new(i as u32 * 7919, 24).to_key(),
                    Priority(i as u32 + 1),
                    Action::Forward(i as u32),
                ))
                .expect("capacity");
        }
        let concrete: Vec<TcamOp> = ops
            .iter()
            .map(|o| match *o {
                RawOp::Insert { id, prio, pfx_bits, len } => TcamOp::Insert(Rule::new(
                    id,
                    Ipv4Prefix::new(pfx_bits, len).to_key(),
                    Priority(prio),
                    Action::Forward(9),
                )),
                RawOp::Delete { id } => TcamOp::Delete(RuleId(id)),
                RawOp::ModifyAction { id, port } => TcamOp::ModifyAction {
                    id: RuleId(id),
                    action: Action::Forward(port),
                },
            })
            .collect();
        // Sequential reference: apply singly, first error wins.
        let mut seq = table.clone();
        let mut first_err = None;
        for op in &concrete {
            let r = match op {
                TcamOp::Insert(r) => seq.insert(*r).map(|_| ()),
                TcamOp::Delete(id) => seq.delete(*id).map(|_| ()),
                TcamOp::ModifyAction { id, action } => seq.modify_action(*id, *action),
            };
            if let Err(e) = r {
                first_err = Some(e);
                break;
            }
        }
        let before = table.entries();
        match (table.apply_batch(&concrete), first_err) {
            (Ok(_), None) => {
                assert_eq!(table.entries(), seq.entries(), "valid batch diverges from sequential");
            }
            (Err(got), Some(want)) => {
                assert_eq!(got, want, "batch error differs from first sequential error");
                assert_eq!(
                    table.entries(),
                    before,
                    "rejected batch must leave the table untouched"
                );
            }
            (got, want) => panic!(
                "batch validity disagrees with sequential: batch={got:?} sequential={want:?}"
            ),
        }
        assert!(table.check_invariants());
    }

    /// Delete+reinsert is an identity for lookups (modulo FIFO ties).
    fn delete_reinsert_identity(
        rules in vec_of(zip3(range(1u32..1000), arb::<u32>(), range(8u8..=24)), 2..30),
        victim in arb::<usize>(),
        probes in vec_of(arb::<u32>(), 20..21),
    ) {
        // Unique priorities so FIFO order can't matter.
        let mut table = TcamTable::new(256, PlacementStrategy::Balanced);
        let mut seen = std::collections::HashSet::new();
        let mut all = Vec::new();
        for (i, (prio, bits, len)) in rules.iter().enumerate() {
            if !seen.insert(*prio) {
                continue;
            }
            let r = Rule::new(
                i as u64,
                Ipv4Prefix::new(*bits, *len).to_key(),
                Priority(*prio),
                Action::Forward(i as u32),
            );
            table.insert(r).expect("capacity");
            all.push(r);
        }
        if all.is_empty() {
            return;
        }
        let v = all[victim % all.len()];
        let before: Vec<_> = probes.iter().map(|&p| table.peek((p as u128) << 96)).collect();
        table.delete(v.id).expect("live");
        table.insert(v).expect("room");
        let after: Vec<_> = probes.iter().map(|&p| table.peek((p as u128) << 96)).collect();
        assert_eq!(before, after);
    }
}

//! Differential property for the tuple-space match index inside
//! `TcamTable` (DESIGN.md §15): after every step of a random history,
//! `peek` answers exactly as the linear scan it replaced, kept here as
//! [`reference`]. Runs under the in-tree `hermes_util::check!` harness with
//! pinned default seeds.
//!
//! Mutants of `match_index.rs` / `table.rs` this property kills (each was
//! applied by hand and seen to fail): the first matching mask wins instead
//! of the minimum across masks; a later candidate replaces the best without
//! the `ek < best` test; `reset`
//! (behind `clear`/`drain`) leaves the index populated; `insert` overwrites
//! a slot with an equal tag, collapsing entries that share one
//! `(mask, value)`; `remove` always writes EMPTY, so a vacated slot ends
//! the probe run of the entries behind it; `raw_insert` or `raw_remove`
//! skips the index; the index is never rebuilt; `rebuild` keeps the old
//! tuples. One more changes no answer and dies on `check_invariants`
//! alone: `remove` keeps a dead tuple's mask.

use hermes_rules::prelude::*;
use hermes_tcam::{PlacementStrategy, TcamOp, TcamTable};
use hermes_util::check::{arb, just, one_of, range, vec_of, weighted, zip2, zip3, Gen};
use hermes_util::rng::rngs::StdRng;
use hermes_util::rng::{Rng, SeedableRng};

/// The match loop as it stood before `TcamTable` kept a match index: walk
/// the entries in match order, first hit wins. Test-only (an integration
/// test cannot see `#[cfg(test)]` items of the library, so it lives here).
mod reference {
    use super::*;

    pub fn scan(table: &TcamTable, packet: u128) -> Option<Rule> {
        table.iter().find(|r| r.key.matches(packet)).copied()
    }
}

/// Stream for the probe packets' free bits.
const PROBE_STREAM_SALT: u64 = 0x4d49_4458_5052_4f42;

const CAPACITY: usize = 40;

/// Four header words that share a /8 (0–2) and a /16 (0–1) on the
/// destination, so one packet sits under several masks at once.
const WORDS: [u128; 4] = [
    0x0a01_0203_c0a8_0001_0600_5000_1f90_0001,
    0x0a01_0909_c0a8_0001_1100_3500_1f90_0002,
    0x0a07_0001_c0a8_0002_0600_5000_0050_0001,
    0x6300_0000_0000_0000_0000_0000_0000_0000,
];

/// Masks that nest (ANY ⊂ /8 ⊂ /16 ⊂ /32 ⊂ exact) plus two that do not
/// (protocol + destination port; a scattered bit pattern).
const MASKS: [u128; 7] = [
    0,
    0xff00_0000 << 96,
    0xffff_0000 << 96,
    0xffff_ffff << 96,
    u128::MAX,
    0xff00_ffff << 40,
    0x0f0f_0000_0000_0000_00ff_0000_0000_f00f,
];

#[derive(Clone, Debug)]
enum Op {
    Single(TcamOp),
    Batch(Vec<TcamOp>),
    Clear,
    Drain,
}

/// Ids from a pool a little larger than the table, priorities from four
/// values (`0` is `Priority::NONE`): duplicates, dead targets, full
/// tables and FIFO ties are all frequent.
fn entry_op() -> Gen<TcamOp> {
    let id = || range(0u64..48).map(RuleId);
    let key = || {
        zip2(range(0usize..MASKS.len()), range(0usize..WORDS.len()))
            .map(|(mask, word)| TernaryKey::new(WORDS[word], MASKS[mask]))
    };
    weighted(vec![
        (
            6,
            zip3(range(0u64..48), range(0u32..4), key()).map(|(id, prio, key)| {
                TcamOp::Insert(Rule::new(id, key, Priority(prio), Action::Forward(id as u32)))
            }),
        ),
        (3, id().map(TcamOp::Delete)),
        (
            1,
            zip2(id(), range(0u32..48)).map(|(id, port)| TcamOp::ModifyAction {
                id,
                action: Action::Forward(port),
            }),
        ),
    ])
}

fn op() -> Gen<Op> {
    weighted(vec![
        (40, entry_op().map(Op::Single)),
        (6, vec_of(entry_op(), 1..12).map(Op::Batch)),
        (1, just(Op::Clear)),
        (1, just(Op::Drain)),
    ])
}

fn strategy() -> Gen<PlacementStrategy> {
    one_of(vec![
        just(PlacementStrategy::PackedLow),
        just(PlacementStrategy::PackedHigh),
        just(PlacementStrategy::Balanced),
    ])
}

/// Applies one entry op through the single-op API. Rejections (full,
/// duplicate, not found) are part of the history.
fn apply_singly(table: &mut TcamTable, op: TcamOp) {
    let _ = match op {
        TcamOp::Insert(rule) => table.insert(rule).map(|_| ()),
        TcamOp::Delete(id) => table.delete(id).map(|_| ()),
        TcamOp::ModifyAction { id, action } => table.modify_action(id, action),
    };
}

hermes_util::check! {
    #![cases = 256]

    /// `peek` (the index) equals the reference linear scan after every
    /// step, for packets under every live key, under keys that have left
    /// the table, and at random.
    fn indexed_lookup_matches_linear_scan(
        ops in vec_of(op(), 1..160),
        placement in strategy(),
        noise in arb::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(noise ^ PROBE_STREAM_SALT);
        let mut table = TcamTable::new(CAPACITY, placement);
        // Every key the table has ever held.
        let mut seen: Vec<TernaryKey> = Vec::new();
        for o in &ops {
            match o {
                Op::Single(op) => apply_singly(&mut table, op.clone()),
                Op::Batch(batch) => {
                    let before = table.entries();
                    if table.apply_batch(batch).is_err() {
                        assert_eq!(table.entries(), before, "a rejected batch changes nothing");
                    }
                }
                Op::Clear => {
                    table.clear();
                }
                Op::Drain => {
                    table.drain();
                }
            }
            assert!(table.check_invariants(), "after {o:?}");
            for r in table.iter() {
                if !seen.contains(&r.key) {
                    seen.push(r.key);
                }
            }
            // A packet under each key ever held (live or gone), with the
            // bits the key ignores drawn at random, then pure noise.
            let mut probes: Vec<u128> = WORDS.to_vec();
            for k in &seen {
                probes.push(k.value() | (rng.gen::<u128>() & !k.mask()));
            }
            probes.extend((0..4).map(|_| rng.gen::<u128>()));
            for packet in probes {
                assert_eq!(
                    table.peek(packet),
                    reference::scan(&table, packet),
                    "packet {packet:#034x} after {o:?}"
                );
            }
        }
        // The counting path shares the match loop.
        let before = table.stats().lookups;
        for packet in WORDS {
            assert_eq!(table.lookup(packet), reference::scan(&table, packet));
        }
        assert_eq!(table.stats().lookups, before + WORDS.len() as u64);
    }
}

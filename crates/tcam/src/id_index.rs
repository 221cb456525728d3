//! The id index behind [`TcamTable`](crate::TcamTable): rule id → the
//! entry's sort key and slab slot, in expected `O(1)` (DESIGN.md §15).
//!
//! One flat open-addressed slot array, a power of two long, probed
//! linearly from a fixed multiplicative hash of the id — no per-process
//! state, so runs replay exactly. A slot is 24 bytes, the id beside the
//! flattened sort key and the slab slot. It is free when its `seq` is
//! `u64::MAX`, a value real sequence numbers never reach, so every `u64`
//! is a legal id. Removal shifts the rest of the probe run back instead of
//! leaving a tombstone, so runs never rot under churn. The array doubles
//! when an insert would fill it past three quarters, and nothing is
//! allocated before the first insert. There is no iteration: slot order
//! never reaches an output.

use crate::table::EntryKey;
use hermes_rules::prelude::RuleId;

/// Slot array allocated by the first insert.
const MIN_SLOTS: usize = 8;
/// Highest share of the slot array (as a fraction) live ids may fill.
/// ⅝ looked ids up faster on `batch_resync` but cost `varys_fattree`'s
/// many small tables 5 % peak RSS (DESIGN.md §15).
const MAX_LOAD: (usize, usize) = (3, 4);
/// `seq` of a free slot.
const FREE: u64 = u64::MAX;

const K0: u64 = 0x9e37_79b9_7f4a_7c15;

/// `EntryKey` flattened beside the id and the slab slot, so the whole
/// slot stays 24 bytes.
#[derive(Clone, Copy, Debug)]
struct Slot {
    id: u64,
    seq: u64,
    rp: u32,
    slab: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    const FREE: Slot = Slot {
        id: 0,
        seq: FREE,
        rp: 0,
        slab: 0,
    };

    fn is_free(&self) -> bool {
        self.seq == FREE
    }

    fn entry(&self) -> (EntryKey, u32) {
        (
            EntryKey {
                rp: self.rp,
                seq: self.seq,
            },
            self.slab,
        )
    }
}

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdIndex {
    /// Empty or a power of two long.
    slots: Vec<Slot>,
    len: usize,
}

impl IdIndex {
    /// Number of ids held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Home slot of `id` under the slot-array mask `m`: the high half of a
    /// 128-bit product folded into the low one.
    fn home(id: u64, m: usize) -> usize {
        let p = u128::from(id) * u128::from(K0);
        ((p as u64 ^ (p >> 64) as u64) >> 32) as usize & m
    }

    /// The slot holding `id`, or the free slot that ends its probe run.
    /// Requires a non-empty array, which then always has a free slot.
    fn probe(&self, id: u64) -> usize {
        let m = self.slots.len() - 1;
        let mut i = Self::home(id, m);
        while !self.slots[i].is_free() && self.slots[i].id != id {
            i = (i + 1) & m;
        }
        i
    }

    /// The sort key and slab slot filed under `id`.
    pub(crate) fn get(&self, id: RuleId) -> Option<(EntryKey, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let s = self.slots[self.probe(id.0)];
        (!s.is_free()).then(|| s.entry())
    }

    /// Files `key` and slab slot `slab` under `id`, replacing what was
    /// there.
    pub(crate) fn insert(&mut self, id: RuleId, key: EntryKey, slab: u32) {
        debug_assert!(
            key.seq != FREE,
            "real sequence numbers never reach u64::MAX"
        );
        if (self.len + 1) * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0 {
            self.grow();
        }
        let i = self.probe(id.0);
        if self.slots[i].is_free() {
            self.len += 1;
        }
        self.slots[i] = Slot {
            id: id.0,
            seq: key.seq,
            rp: key.rp,
            slab,
        };
    }

    /// Doubles the slot array (or allocates the first one) and re-files
    /// every id.
    fn grow(&mut self) {
        let n = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::FREE; n]);
        for s in old.into_iter().filter(|s| !s.is_free()) {
            let i = self.probe(s.id);
            self.slots[i] = s;
        }
    }

    /// Takes `id` out, returning its sort key and slab slot if it was
    /// filed.
    pub(crate) fn remove(&mut self, id: RuleId) -> Option<(EntryKey, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.probe(id.0);
        let removed = self.slots[i];
        if removed.is_free() {
            return None;
        }
        // Backward shift: walk the rest of the run. A slot at `j` whose home
        // does not lie in `(i, j]` is probed for across the hole at `i`, so
        // it moves into the hole and leaves the hole at `j`.
        let m = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & m;
            let s = self.slots[j];
            if s.is_free() {
                break;
            }
            if (j.wrapping_sub(Self::home(s.id, m)) & m) >= (j.wrapping_sub(i) & m) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = Slot::FREE;
        self.len -= 1;
        Some(removed.entry())
    }

    /// Forgets every id, keeping the slot array.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(Slot::FREE);
        self.len = 0;
    }

    /// `true` when `len` counts the filed ids exactly, the array is empty
    /// or a power of two long and at most [`MAX_LOAD`] full, and every id
    /// is filed once, reachable from its home slot without crossing a
    /// free one.
    pub(crate) fn check(&self) -> bool {
        if self.slots.is_empty() {
            return self.len == 0;
        }
        let live = self.slots.iter().filter(|s| !s.is_free()).count();
        if !self.slots.len().is_power_of_two()
            || live != self.len
            || self.len * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0
        {
            return false;
        }
        (0..self.slots.len())
            .filter(|&p| !self.slots[p].is_free())
            .all(|p| self.probe(self.slots[p].id) == p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_util::check::{arb, just, range, vec_of, weighted, zip2, Gen};
    use std::collections::BTreeMap;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u64, u64),
        Remove(u64),
        Get(u64),
        Clear,
    }

    /// Ids the slot array gets wrong if anything does: multiples of one
    /// power of two (low bits all equal), a run above `1 << 62` (how
    /// `HermesSwitch` numbers physical entries), the two ends of `u64`,
    /// and small dense ids.
    fn id() -> Gen<u64> {
        weighted(vec![
            (
                3,
                zip2(range(0u32..64), range(0u64..24)).map(|(k, m)| m.wrapping_shl(k)),
            ),
            (3, range(0u64..40).map(|n| (1 << 62) + n)),
            (1, just(0)),
            (1, just(u64::MAX)),
            (1, range(u64::MAX - 8..u64::MAX)),
            (3, range(0u64..64)),
            (1, arb::<u64>()),
        ])
    }

    fn op() -> Gen<Op> {
        weighted(vec![
            (
                8,
                zip2(id(), range(0u64..1 << 20)).map(|(id, seq)| Op::Insert(id, seq)),
            ),
            (5, id().map(Op::Remove)),
            (3, id().map(Op::Get)),
            (1, just(Op::Clear)),
        ])
    }

    fn key(seq: u64) -> (EntryKey, u32) {
        let key = EntryKey {
            rp: seq as u32 ^ 0x5a5a,
            seq,
        };
        (key, (seq as u32).rotate_left(7))
    }

    fn file(index: &mut IdIndex, id: u64, (key, slab): (EntryKey, u32)) {
        index.insert(RuleId(id), key, slab);
    }

    hermes_util::check! {
        #![cases = 256]

        /// After every step of an insert/remove/get/clear history the index
        /// answers as the `BTreeMap` it replaced, for every id the history
        /// touched, and passes `check`. Before the history, `refill` ids
        /// are filed and half of them removed, then the array is grown
        /// past them and the removed half filed again.
        fn id_index_matches_btreemap(
            ops in vec_of(op(), 1..400),
            refill in range(0usize..40),
        ) {
            let mut index = IdIndex::default();
            let mut want: BTreeMap<u64, (EntryKey, u32)> = BTreeMap::new();
            let mut touched: Vec<u64> = vec![0, u64::MAX];
            let mut refile = |index: &mut IdIndex, want: &mut BTreeMap<u64, (EntryKey, u32)>, id: u64| {
                file(index, id, key(id >> 3));
                want.insert(id, key(id >> 3));
                touched.push(id);
            };
            // Ids filed, half of them removed, more filed until the array
            // has grown, and the removed half filed again.
            let first: Vec<u64> = (0..refill as u64).map(|n| n << 40).collect();
            for &id in &first {
                refile(&mut index, &mut want, id);
            }
            for &id in first.iter().step_by(2) {
                assert_eq!(index.remove(RuleId(id)), want.remove(&id), "drain {id:#x}");
            }
            for n in 0..refill as u64 {
                refile(&mut index, &mut want, (1 << 62) + n);
            }
            for &id in first.iter().step_by(2) {
                refile(&mut index, &mut want, id);
            }
            assert!(index.check() && index.len() == want.len(), "after the refill");
            for o in &ops {
                match *o {
                    Op::Insert(id, seq) => {
                        file(&mut index, id, key(seq));
                        want.insert(id, key(seq));
                    }
                    Op::Remove(id) => {
                        assert_eq!(index.remove(RuleId(id)), want.remove(&id), "remove {id:#x}");
                    }
                    Op::Get(id) => {
                        assert_eq!(index.get(RuleId(id)), want.get(&id).copied(), "get {id:#x}");
                    }
                    Op::Clear => {
                        index.clear();
                        want.clear();
                    }
                }
                if let Op::Insert(id, _) | Op::Remove(id) | Op::Get(id) = *o {
                    touched.push(id);
                }
                assert!(index.check(), "check after {o:?}");
                assert_eq!(index.len(), want.len(), "len after {o:?}");
                for &id in &touched {
                    assert_eq!(index.get(RuleId(id)), want.get(&id).copied(), "{id:#x} after {o:?}");
                }
            }
        }
    }

    /// The array doubles exactly when an insert would take it past ¾
    /// full, and an id removed before the growth and filed again after it
    /// resolves like the rest.
    #[test]
    fn grows_past_three_quarters_and_never_before() {
        let mut index = IdIndex::default();
        assert_eq!(
            index.slots.capacity(),
            0,
            "nothing allocated before the first insert"
        );
        let ids: Vec<u64> = (0..6)
            .map(|n| (n << 62) | n)
            .chain([u64::MAX - 1, u64::MAX])
            .collect();
        for (seq, &id) in ids[..6].iter().enumerate() {
            file(&mut index, id, key(seq as u64));
        }
        assert_eq!(index.slots.len(), 8, "six ids fill eight slots to ¾");
        assert_eq!(index.remove(RuleId(ids[1])), Some(key(1)));
        file(&mut index, ids[6], key(6));
        assert_eq!(index.slots.len(), 8, "a freed slot is filled first");
        file(&mut index, ids[7], key(7));
        assert_eq!(index.slots.len(), 16, "the seventh id doubles the array");
        file(&mut index, ids[1], key(1));
        assert!(index.check() && index.len() == 8);
        for (seq, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(RuleId(id)), Some(key(seq as u64)), "{id:#x}");
        }
    }
}

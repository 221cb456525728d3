//! The id index behind [`TcamTable`](crate::TcamTable): rule id → the
//! entry's sort key and slab slot, in expected `O(1)` (DESIGN.md §15).
//!
//! A [`hermes_rules::store::IdIndex`] — one flat open-addressed slot
//! array probed linearly from a fixed hash of the id, with backward-shift
//! removal — filing the sort key flattened beside the slab slot, so a
//! slot stays 24 bytes. A slot is free when its `seq` is `u64::MAX`, a
//! value real sequence numbers never reach, so every `u64` is a legal id.
//! Nothing here iterates: slot order never reaches an output.

use crate::table::EntryKey;
use hermes_rules::prelude::RuleId;
use hermes_rules::store::{self, Filed};

/// `EntryKey` flattened beside the slab slot.
#[derive(Clone, Copy, Debug)]
struct Entry {
    seq: u64,
    rp: u32,
    slab: u32,
}

impl Filed for Entry {
    const FREE: Entry = Entry {
        seq: u64::MAX,
        rp: 0,
        slab: 0,
    };

    fn is_free(&self) -> bool {
        self.seq == u64::MAX
    }
}

impl Entry {
    fn split(self) -> (EntryKey, u32) {
        (
            EntryKey {
                rp: self.rp,
                seq: self.seq,
            },
            self.slab,
        )
    }
}

const _: () = assert!(std::mem::size_of::<(u64, Entry)>() == 24);

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct IdIndex(store::IdIndex<Entry>);

impl IdIndex {
    /// Number of ids held.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The sort key and slab slot filed under `id`.
    pub(crate) fn get(&self, id: RuleId) -> Option<(EntryKey, u32)> {
        self.0.get(id).map(Entry::split)
    }

    /// Files `key` and slab slot `slab` under `id`, replacing what was
    /// there.
    pub(crate) fn insert(&mut self, id: RuleId, key: EntryKey, slab: u32) {
        let entry = Entry {
            seq: key.seq,
            rp: key.rp,
            slab,
        };
        self.0.insert(id, entry);
    }

    /// Files `key` and slab slot `slab` under `id` unless `id` is already
    /// filed, in one probe; `false` when it was.
    pub(crate) fn try_insert(&mut self, id: RuleId, key: EntryKey, slab: u32) -> bool {
        let entry = Entry {
            seq: key.seq,
            rp: key.rp,
            slab,
        };
        self.0.try_insert(id, entry)
    }

    /// Takes `id` out, returning its sort key and slab slot if it was
    /// filed.
    pub(crate) fn remove(&mut self, id: RuleId) -> Option<(EntryKey, u32)> {
        self.0.remove(id).map(Entry::split)
    }

    /// Forgets every id, keeping the slot array.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    /// [`hermes_rules::store::IdIndex::check`].
    pub(crate) fn check(&self) -> bool {
        self.0.check()
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
        TryInsert(u64, u64),
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
            (
                4,
                zip2(id(), range(0u64..1 << 20)).map(|(id, seq)| Op::TryInsert(id, seq)),
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

        /// After every step of an insert/try-insert/remove/get/clear history
        /// the index answers as the `BTreeMap` it replaced, for every id the history
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
                    Op::TryInsert(id, seq) => {
                        let (k, slab) = key(seq);
                        let vacant = !want.contains_key(&id);
                        want.entry(id).or_insert((k, slab));
                        assert_eq!(index.try_insert(RuleId(id), k, slab), vacant, "try_insert {id:#x}");
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
                if let Op::Insert(id, _) | Op::TryInsert(id, _) | Op::Remove(id) | Op::Get(id) = *o {
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
            index.0.capacity(),
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
        assert_eq!(index.0.capacity(), 8, "six ids fill eight slots to ¾");
        assert_eq!(index.remove(RuleId(ids[1])), Some(key(1)));
        file(&mut index, ids[6], key(6));
        assert_eq!(index.0.capacity(), 8, "a freed slot is filled first");
        file(&mut index, ids[7], key(7));
        assert_eq!(index.0.capacity(), 16, "the seventh id doubles the array");
        file(&mut index, ids[1], key(1));
        assert!(index.check() && index.len() == 8);
        for (seq, &id) in ids.iter().enumerate() {
            assert_eq!(index.get(RuleId(id)), Some(key(seq as u64)), "{id:#x}");
        }
    }
}

//! The tuple-space match index behind [`TcamTable`](crate::TcamTable)
//! lookups (DESIGN.md §15).
//!
//! A ternary entry `(value, mask)` matches a packet iff
//! `packet & mask == value`, so all entries sharing one mask form an
//! exact-match family keyed by `packet & mask`. The index keeps one
//! [`Tuple`] per distinct mask in the table and one flat open-addressed
//! slot array for all families; a lookup probes once per mask and keeps the
//! entry lowest in the *priority order* — never an address, so shifts and
//! layout rebuilds never touch the index.
//!
//! A slot is 16 bytes: the entry's insertion `seq` (which alone identifies
//! it), the slab slot holding its rule and a 32-bit tag of the hashed
//! `(mask, value)`. The tag only filters; the caller confirms a candidate
//! with one load of the stored rule, which also yields its priority, so a
//! tag collision costs a wasted load and never a wrong answer. Entries
//! with equal `(mask, value)` occupy separate slots of one probe run,
//! removals leave tombstones, and the array is re-laid from the table
//! (sized from its occupancy) when live slots plus tombstones pass five
//! eighths of it. The hash is a fixed multiplicative fold — no per-process
//! state, so runs replay exactly.

use crate::table::EntryKey;
use hermes_rules::prelude::TernaryKey;

/// Smallest slot array allocated.
const MIN_SLOTS: usize = 8;
/// Highest share of the slot array (as a fraction) that live slots plus
/// tombstones may fill. With arrays rebuilt to at most 0.4 full this is the
/// measured middle: ½ with 3–6× arrays looked up 12 % faster on
/// `lookup_mix` but cost `varys_fattree`'s 320 small tables 7 % peak RSS,
/// ¾ with 2–4× arrays was 13 % slower (DESIGN.md §15).
const MAX_LOAD: (usize, usize) = (5, 8);
/// `seq` value of a never-used slot; ends a probe run.
const EMPTY: u64 = u64::MAX;
/// `seq` value of a vacated slot; a probe run continues past it. Real
/// sequence numbers count up from zero and never reach either sentinel.
const TOMB: u64 = u64::MAX - 1;

const K0: u64 = 0x9e37_79b9_7f4a_7c15;
const K1: u64 = 0xd6e8_feb8_6659_fd93;

/// Folds the 128-bit product of `a` and `b` into 64 bits.
fn fold(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Hash seed of the family of entries carrying `mask`.
fn seed_of(mask: u128) -> u64 {
    fold(mask as u64 ^ K0, (mask >> 64) as u64 ^ K1)
}

/// Hash of one `(mask, value)` pair; `seed` stands in for the mask.
fn hash(seed: u64, value: u128) -> u64 {
    let (lo, hi) = (value as u64, (value >> 64) as u64);
    fold((lo ^ seed).wrapping_mul(K0).rotate_left(32) ^ hi, K1)
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    slab: u32,
    tag: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

impl Slot {
    const EMPTY: Slot = Slot {
        seq: EMPTY,
        slab: 0,
        tag: 0,
    };
}

/// One exact-match family: the entries whose key carries `mask`.
#[derive(Clone, Copy, Debug)]
struct Tuple {
    mask: u128,
    /// Hash seed derived from `mask`, so families spread independently.
    seed: u64,
    /// Entries in the family; the tuple is dropped when it reaches zero.
    live: u32,
}

/// See the module docs.
#[derive(Clone, Debug, Default)]
pub(crate) struct MatchIndex {
    tuples: Vec<Tuple>,
    /// Empty or a power of two long.
    slots: Vec<Slot>,
    live: usize,
    tombs: usize,
}

impl MatchIndex {
    /// `true` when `n` more [`insert`](Self::insert)s keep live slots plus
    /// tombstones within [`MAX_LOAD`] of the array; otherwise the owner
    /// calls [`rebuild`](Self::rebuild) instead.
    pub(crate) fn has_room(&self, n: usize) -> bool {
        !self.overloaded(self.live + self.tombs + n)
    }

    fn overloaded(&self, used: usize) -> bool {
        used * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0
    }

    /// First slot of the probe run for hash `h`, and the slot-array mask.
    fn home(&self, h: u64) -> (usize, usize) {
        let m = self.slots.len() - 1;
        ((h >> 32) as usize & m, m)
    }

    /// Adds the entry `seq`, stored in slab slot `slab`, under `key`. Equal
    /// keys take separate slots. Requires `has_room(1)`, which also
    /// guarantees the probe meets a free slot.
    pub(crate) fn insert(&mut self, key: TernaryKey, seq: u64, slab: u32) {
        debug_assert!(self.has_room(1));
        let seed = match self.tuples.iter_mut().find(|t| t.mask == key.mask()) {
            Some(t) => {
                t.live += 1;
                t.seed
            }
            None => {
                let mask = key.mask();
                let seed = seed_of(mask);
                self.tuples.push(Tuple {
                    mask,
                    seed,
                    live: 1,
                });
                seed
            }
        };
        let h = hash(seed, key.value());
        let (mut i, m) = self.home(h);
        while self.slots[i].seq < TOMB {
            i = (i + 1) & m;
        }
        if self.slots[i].seq == TOMB {
            self.tombs -= 1;
        }
        self.slots[i] = Slot {
            seq,
            slab,
            tag: h as u32,
        };
        self.live += 1;
    }

    /// Removes the entry `seq`, which must be indexed under `key`.
    pub(crate) fn remove(&mut self, key: TernaryKey, seq: u64) {
        let ti = self
            .tuples
            .iter()
            .position(|t| t.mask == key.mask())
            .expect("INVARIANT: every indexed entry's mask has a tuple");
        let (mut i, m) = self.home(hash(self.tuples[ti].seed, key.value()));
        while self.slots[i].seq != seq {
            assert!(
                self.slots[i].seq != EMPTY,
                "INVARIANT: a stored entry sits in the probe run of its current key"
            );
            i = (i + 1) & m;
        }
        // Inside a run a vacated slot must stay a tombstone so the slots
        // behind it stay reachable. One that ends its run goes straight
        // back to empty, and so do the tombstones it then leaves at the end.
        if self.slots[(i + 1) & m].seq == EMPTY {
            self.slots[i].seq = EMPTY;
            let mut j = i.wrapping_sub(1) & m;
            while self.slots[j].seq == TOMB {
                self.slots[j].seq = EMPTY;
                self.tombs -= 1;
                j = j.wrapping_sub(1) & m;
            }
        } else {
            self.slots[i].seq = TOMB;
            self.tombs += 1;
        }
        self.live -= 1;
        self.tuples[ti].live -= 1;
        if self.tuples[ti].live == 0 {
            self.tuples.swap_remove(ti);
        }
    }

    /// Forgets everything, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.tuples.clear();
        self.slots.clear();
        self.live = 0;
        self.tombs = 0;
    }

    /// Re-lays the index for exactly the `n` given entries, sizing the slot
    /// array to 2.5–5× `n` so the next rebuild is at least `n / 2` inserts
    /// away.
    pub(crate) fn rebuild(
        &mut self,
        n: usize,
        entries: impl Iterator<Item = (TernaryKey, u64, u32)>,
    ) {
        self.clear();
        self.slots
            .resize((5 * n / 2).next_power_of_two().max(MIN_SLOTS), Slot::EMPTY);
        for (key, seq, slab) in entries {
            self.insert(key, seq, slab);
        }
    }

    /// The one match loop. Probes each mask's family for `packet & mask`
    /// and returns the slab slot of the highest-precedence entry `confirm`
    /// accepted. `confirm(slab, key)` must return the `rp` of the rule in
    /// slab slot `slab` iff that rule stores exactly `key`, and is asked
    /// about every candidate whose tag matches: its answer is the only
    /// source of the priority that ranks it.
    pub(crate) fn lookup(
        &self,
        packet: u128,
        mut confirm: impl FnMut(u32, TernaryKey) -> Option<u32>,
    ) -> Option<u32> {
        let mut best: Option<(EntryKey, u32)> = None;
        for t in &self.tuples {
            let key = TernaryKey::new(packet, t.mask);
            let h = hash(t.seed, key.value());
            let (mut i, m) = self.home(h);
            loop {
                let s = self.slots[i];
                if s.seq == EMPTY {
                    break;
                }
                if s.tag == h as u32 && s.seq != TOMB {
                    if let Some(rp) = confirm(s.slab, key) {
                        let ek = EntryKey { rp, seq: s.seq };
                        if best.is_none_or(|(b, _)| ek < b) {
                            best = Some((ek, s.slab));
                        }
                    }
                }
                i = (i + 1) & m;
            }
        }
        best.map(|(_, slab)| slab)
    }

    /// `true` when the index holds exactly the `n` given entries (key,
    /// `seq`, slab slot), each once and in the probe run of its key, and
    /// the tuples count them by mask.
    pub(crate) fn check(
        &self,
        n: usize,
        entries: impl Iterator<Item = (TernaryKey, u64, u32)>,
    ) -> bool {
        let occupied = self.slots.iter().filter(|s| s.seq < TOMB).count();
        let tombs = self.slots.iter().filter(|s| s.seq == TOMB).count();
        if occupied != n || self.live != n || self.tombs != tombs {
            return false;
        }
        if !(self.slots.is_empty() || self.slots.len().is_power_of_two())
            || self.overloaded(self.live + self.tombs)
        {
            return false;
        }
        let mut per_tuple = vec![0u32; self.tuples.len()];
        for (key, seq, slab) in entries {
            let Some(ti) = self.tuples.iter().position(|t| t.mask == key.mask()) else {
                return false;
            };
            per_tuple[ti] += 1;
            let h = hash(self.tuples[ti].seed, key.value());
            let (mut i, m) = self.home(h);
            let mut found = 0;
            while self.slots[i].seq != EMPTY {
                let s = self.slots[i];
                if s.seq == seq && s.slab == slab && s.tag == h as u32 {
                    found += 1;
                }
                i = (i + 1) & m;
            }
            if found != 1 {
                return false;
            }
        }
        // `position` counts under the first tuple of a mask, so a duplicate
        // or dead tuple shows up as a zero count.
        self.tuples
            .iter()
            .zip(&per_tuple)
            .all(|(t, &c)| t.live == c && c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tag is a filter, `confirm` decides: a candidate it rejects (as
    /// the table does on a tag collision) must not shadow a worse one it
    /// accepts, and every candidate under the packet's key is asked once,
    /// since only the stored rule knows its priority.
    #[test]
    fn a_rejected_candidate_does_not_shadow_an_accepted_one() {
        let key = TernaryKey::new(0xabcd << 96, 0xffff << 96);
        let mut index = MatchIndex::default();
        index.rebuild(0, std::iter::empty());
        // (rp, seq, slab): slab slot 1 holds the best entry, 0 the next.
        let entries = [(5, 2, 0), (1, 0, 1), (9, 1, 2)];
        for (_, seq, slab) in entries {
            index.insert(key, seq, slab);
        }
        let packet = (0xabcd << 96) | 0x1234;
        let mut offered = Vec::new();
        let hit = index.lookup(packet, |slab, k| {
            assert_eq!(k, key);
            offered.push(slab);
            let (rp, _, _) = entries[slab as usize];
            (slab != 1).then_some(rp)
        });
        assert_eq!(hit, Some(0));
        offered.sort_unstable();
        assert_eq!(offered, [0, 1, 2]);
        let filed = entries.map(|(_, seq, slab)| (key, seq, slab));
        assert!(index.check(3, filed.into_iter()));
    }

    /// A 32-bit tag collision cannot answer a lookup: a birthday search
    /// finds two values under one mask with equal tags and equal homes in
    /// the 8-slot array of a two-entry table, so each one's probe run
    /// passes the other. With the colliding rule at the higher priority,
    /// a `confirm` that ignored the key would answer the other value's
    /// lookups with it.
    #[test]
    fn a_tag_collision_does_not_answer_a_lookup() {
        use crate::table::{PlacementStrategy, TcamTable};
        use hermes_rules::prelude::{Action, Priority, Rule};

        // Exact-match keys, values spread over all 128 bits.
        let mask = u128::MAX;
        let seed = seed_of(mask);
        let home_mask = MIN_SLOTS as u64 - 1;
        // Tag plus the home bits of an 8-slot array: ~2^17.5 draws expected.
        let mut seen = std::collections::BTreeMap::new();
        let (a, b) = (1u128..1 << 20)
            .find_map(|i| {
                let value = i.wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835);
                let h = hash(seed, value);
                let probe = (h as u32, (h >> 32) & home_mask);
                seen.insert(probe, value).map(|other| (other, value))
            })
            .expect("a collision among 2^20 values");
        let (key_a, key_b) = (TernaryKey::new(a, mask), TernaryKey::new(b, mask));

        // Both probe runs offer both entries.
        let mut index = MatchIndex::default();
        index.rebuild(2, [(key_a, 0, 0), (key_b, 1, 1)].into_iter());
        assert_eq!(index.slots.len(), MIN_SLOTS);
        for packet in [a, b] {
            let mut offered = Vec::new();
            index.lookup(packet, |slab, _| {
                offered.push(slab);
                None
            });
            offered.sort_unstable();
            assert_eq!(offered, [0, 1], "both candidates share a probe run");
        }

        let mut table = TcamTable::new(16, PlacementStrategy::PackedLow);
        table
            .insert(Rule::new(1, key_a, Priority(9), Action::Forward(1)))
            .unwrap();
        table
            .insert(Rule::new(2, key_b, Priority(1), Action::Forward(2)))
            .unwrap();
        assert_eq!(table.peek(a).map(|r| r.id.0), Some(1));
        assert_eq!(table.peek(b).map(|r| r.id.0), Some(2));
        assert_eq!(table.lookup(b).map(|r| r.id.0), Some(2));
    }
}

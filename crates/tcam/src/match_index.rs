//! The tuple-space match index behind [`TcamTable`](crate::TcamTable)
//! lookups (DESIGN.md §15).
//!
//! A ternary entry `(value, mask)` matches a packet iff
//! `packet & mask == value`, so all entries sharing one mask form an
//! exact-match family keyed by `packet & mask`. The index keeps one
//! [`Tuple`] per distinct mask in the table and one flat open-addressed
//! slot array for all families; a lookup probes once per mask and keeps the
//! lowest [`EntryKey`] — the entry's position in the *priority order*, not
//! its address, so shifts and layout rebuilds never touch the index.
//!
//! A slot is 16 bytes: the `EntryKey` plus a 32-bit tag of the hashed
//! `(mask, value)`. The tag only filters; the caller confirms a candidate
//! against the stored rule, so a tag collision costs a wasted confirmation
//! and never a wrong answer. Entries with equal `(mask, value)` occupy
//! separate slots of one probe run, removals leave tombstones, and the
//! array is re-laid from the table (sized from its occupancy) when live
//! slots plus tombstones pass five eighths of it. The hash is a fixed
//! multiplicative fold — no per-process state, so runs replay exactly.

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

/// Hash of one `(mask, value)` pair; `seed` stands in for the mask.
fn hash(seed: u64, value: u128) -> u64 {
    let (lo, hi) = (value as u64, (value >> 64) as u64);
    fold((lo ^ seed).wrapping_mul(K0).rotate_left(32) ^ hi, K1)
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    seq: u64,
    rp: u32,
    tag: u32,
}

impl Slot {
    const EMPTY: Slot = Slot {
        seq: EMPTY,
        rp: 0,
        tag: 0,
    };

    fn holds(&self, ek: EntryKey) -> bool {
        self.seq == ek.seq && self.rp == ek.rp
    }
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

    /// Adds `ek` under `key`. Equal keys take separate slots. Requires
    /// `has_room(1)`, which also guarantees the probe meets a free slot.
    pub(crate) fn insert(&mut self, key: TernaryKey, ek: EntryKey) {
        debug_assert!(self.has_room(1));
        let seed = match self.tuples.iter_mut().find(|t| t.mask == key.mask()) {
            Some(t) => {
                t.live += 1;
                t.seed
            }
            None => {
                let mask = key.mask();
                let seed = fold(mask as u64 ^ K0, (mask >> 64) as u64 ^ K1);
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
            seq: ek.seq,
            rp: ek.rp,
            tag: h as u32,
        };
        self.live += 1;
    }

    /// Removes `ek`, which must be indexed under `key`.
    pub(crate) fn remove(&mut self, key: TernaryKey, ek: EntryKey) {
        let ti = self
            .tuples
            .iter()
            .position(|t| t.mask == key.mask())
            .expect("INVARIANT: every indexed entry's mask has a tuple");
        let (mut i, m) = self.home(hash(self.tuples[ti].seed, key.value()));
        while !self.slots[i].holds(ek) {
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
    pub(crate) fn rebuild(&mut self, n: usize, entries: impl Iterator<Item = (TernaryKey, EntryKey)>) {
        self.clear();
        self.slots
            .resize((5 * n / 2).next_power_of_two().max(MIN_SLOTS), Slot::EMPTY);
        for (key, ek) in entries {
            self.insert(key, ek);
        }
    }

    /// The one match loop. Probes each mask's family for `packet & mask`
    /// and returns what `confirm` made of the lowest-keyed entry it
    /// accepted. `confirm(ek, key)` must return `Some` iff entry `ek`
    /// currently stores exactly `key`; it is only asked about candidates
    /// that would beat the best so far.
    pub(crate) fn lookup<T>(
        &self,
        packet: u128,
        mut confirm: impl FnMut(EntryKey, TernaryKey) -> Option<T>,
    ) -> Option<T> {
        let mut best: Option<(EntryKey, T)> = None;
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
                    let ek = EntryKey {
                        rp: s.rp,
                        seq: s.seq,
                    };
                    if best.as_ref().is_none_or(|(b, _)| ek < *b) {
                        if let Some(hit) = confirm(ek, key) {
                            best = Some((ek, hit));
                        }
                    }
                }
                i = (i + 1) & m;
            }
        }
        best.map(|(_, hit)| hit)
    }

    /// `true` when the index holds exactly the `n` given entries, each once
    /// and in the probe run of its key, and the tuples count them by mask.
    pub(crate) fn check(&self, n: usize, entries: impl Iterator<Item = (TernaryKey, EntryKey)>) -> bool {
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
        for (key, ek) in entries {
            let Some(ti) = self.tuples.iter().position(|t| t.mask == key.mask()) else {
                return false;
            };
            per_tuple[ti] += 1;
            let h = hash(self.tuples[ti].seed, key.value());
            let (mut i, m) = self.home(h);
            let mut found = 0;
            while self.slots[i].seq != EMPTY {
                if self.slots[i].holds(ek) && self.slots[i].tag == h as u32 {
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
        self.tuples.iter().zip(&per_tuple).all(|(t, &c)| t.live == c && c > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ek(rp: u32, seq: u64) -> EntryKey {
        EntryKey { rp, seq }
    }

    /// The tag is a filter, `confirm` decides: a candidate it rejects (as
    /// the table does on a tag collision) must not hide a worse one it
    /// accepts, and candidates that cannot win are not offered at all.
    #[test]
    fn a_rejected_candidate_does_not_shadow_an_accepted_one() {
        let key = TernaryKey::new(0xabcd << 96, 0xffff << 96);
        let mut index = MatchIndex::default();
        index.rebuild(0, std::iter::empty());
        for e in [ek(5, 2), ek(1, 0), ek(9, 1)] {
            index.insert(key, e);
        }
        let packet = (0xabcd << 96) | 0x1234;
        let mut offered = Vec::new();
        let hit = index.lookup(packet, |e, k| {
            assert_eq!(k, key);
            offered.push(e);
            (e != ek(1, 0)).then_some(e)
        });
        assert_eq!(hit, Some(ek(5, 2)));
        assert!(offered.contains(&ek(1, 0)) && !offered.contains(&ek(9, 1)));
        assert!(index.check(3, [ek(5, 2), ek(1, 0), ek(9, 1)].map(|e| (key, e)).into_iter()));
    }
}

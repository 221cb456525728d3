//! Flat storage for rule tables: a paged [`Slab`] that gives each stored
//! value a `u32` slot it keeps while stored, and an [`IdIndex`] from
//! [`RuleId`] to such a slot (DESIGN.md §16).
//!
//! Neither walks a tree. A lookup by id is one hash and a short linear
//! probe in one flat array, and a value is one page load away from its
//! slot. Neither has an order that may reach an output: the index's
//! [`iter`](IdIndex::iter) visits ids in hash order, so a caller that
//! needs an order sorts what it collects.

use crate::rule::RuleId;

/// Values per slab page.
const PAGE: usize = 64;

/// Values stored once each, at a `u32` slot that stays put while the value
/// is stored, in pages of exactly 64 values' capacity that are never
/// reallocated (a growing `Vec` fragments the heap of a process holding
/// many tables, DESIGN.md §15). Slots `0..top` have been handed out since
/// the last [`clear`](Self::clear), and the pages hold exactly those; the
/// ones not in use are on `free`, which [`alloc`](Self::alloc) pops before
/// it extends `top`. A freed slot keeps its stale value until reused.
#[derive(Debug)]
pub struct Slab<T> {
    pages: Vec<Vec<T>>,
    top: usize,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            pages: Vec::new(),
            top: 0,
            free: Vec::new(),
        }
    }
}

impl<T: Clone> Clone for Slab<T> {
    /// Page by page at full capacity: `Vec::clone` would allocate each
    /// page at its length, and the next `alloc` would reallocate it.
    fn clone(&self) -> Self {
        let page = |p: &Vec<T>| {
            let mut copy = Vec::with_capacity(PAGE);
            copy.extend_from_slice(p);
            copy
        };
        Slab {
            pages: self.pages.iter().map(page).collect(),
            top: self.top,
            free: self.free.clone(),
        }
    }
}

impl<T> Slab<T> {
    /// The value at `slot`.
    pub fn get(&self, slot: u32) -> &T {
        let slot = slot as usize;
        &self.pages[slot / PAGE][slot % PAGE]
    }

    /// The value at `slot`, mutably.
    pub fn get_mut(&mut self, slot: u32) -> &mut T {
        let slot = slot as usize;
        &mut self.pages[slot / PAGE][slot % PAGE]
    }

    /// Stores `value` in the most recently freed slot, else in the next
    /// one never handed out, opening a page when the last is full.
    pub fn alloc(&mut self, value: T) -> u32 {
        if let Some(slot) = self.free.pop() {
            *self.get_mut(slot) = value;
            return slot;
        }
        let slot = self.top;
        if slot / PAGE == self.pages.len() {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        self.pages[slot / PAGE].push(value);
        self.top += 1;
        u32::try_from(slot).expect("INVARIANT: a slab holds fewer than 2^32 values")
    }

    /// Puts `slot` on the free list. Its value stays until the slot is
    /// reused.
    pub fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Frees every slot, keeping the pages.
    pub fn clear(&mut self) {
        self.pages.iter_mut().for_each(Vec::clear);
        self.top = 0;
        self.free.clear();
    }

    /// The slots handed out since the last `clear`, page by page in slot
    /// order, freed ones with their stale values; then any pages `clear`
    /// emptied.
    pub fn pages(&self) -> impl ExactSizeIterator<Item = &[T]> {
        self.pages.iter().map(Vec::as_slice)
    }

    /// `true` when the pages are full ones followed by the one `alloc`
    /// fills next (then any emptied by `clear`), each at its fixed
    /// capacity and holding exactly the slots below `top`, and `held` —
    /// the slots the caller stores values at — and the free list name
    /// every such slot exactly once between them.
    pub fn check(&self, held: impl IntoIterator<Item = u32>) -> bool {
        let paged = self.pages.len() * PAGE >= self.top
            && (self.pages.iter().enumerate()).all(|(i, p)| {
                p.capacity() == PAGE && p.len() == self.top.saturating_sub(i * PAGE).min(PAGE)
            });
        let mut seen = vec![false; self.top];
        let mut claim = |slot: u32| match seen.get_mut(slot as usize) {
            Some(s) if !*s => {
                *s = true;
                true
            }
            _ => false,
        };
        let mut count = 0;
        let all_held = held.into_iter().all(|slot| {
            count += 1;
            claim(slot)
        });
        paged
            && all_held
            && self.free.iter().all(|&slot| claim(slot))
            && count + self.free.len() == self.top
    }
}

/// Slot array allocated by the first insert.
const MIN_SLOTS: usize = 8;
/// Highest share of the slot array (as a fraction) live ids may fill.
/// ⅝ looked ids up faster on `batch_resync` but cost `varys_fattree`'s
/// many small tables 5 % peak RSS (DESIGN.md §15).
const MAX_LOAD: (usize, usize) = (3, 4);

const K0: u64 = 0x9e37_79b9_7f4a_7c15;

/// What an [`IdIndex`] files under an id: a `Copy` value with one bit
/// pattern, [`FREE`](Self::FREE), that marks a free slot and is never
/// filed.
pub trait Filed: Copy {
    /// The value of a free slot.
    const FREE: Self;

    /// `true` for [`FREE`](Self::FREE).
    fn is_free(&self) -> bool;
}

/// A slot number: no slab or queue an index names reaches `u32::MAX`
/// values, so that value marks a free slot.
impl Filed for u32 {
    const FREE: u32 = u32::MAX;

    fn is_free(&self) -> bool {
        *self == u32::MAX
    }
}

/// One id and its value: 16 bytes for a `u32` value.
#[derive(Clone, Copy, Debug)]
struct Slot<V> {
    id: u64,
    val: V,
}

const _: () = assert!(std::mem::size_of::<Slot<u32>>() == 16);

impl<V: Filed> Slot<V> {
    const FREE: Slot<V> = Slot {
        id: 0,
        val: V::FREE,
    };

    fn is_free(&self) -> bool {
        self.val.is_free()
    }
}

/// Rule id → value (a `u32` slot unless a table files more beside it) in
/// expected `O(1)`: one flat open-addressed slot array, a power of two
/// long, probed linearly from a fixed multiplicative hash of the id — no
/// per-process state, so runs replay exactly. Every `u64` is a legal id.
/// Removal shifts the rest of the probe run back instead of leaving a
/// tombstone, so runs never rot under churn. The array doubles when an
/// insert would fill it past three quarters, and nothing is allocated
/// before the first insert.
#[derive(Clone, Debug)]
pub struct IdIndex<V = u32> {
    /// Empty or a power of two long.
    slots: Vec<Slot<V>>,
    len: usize,
}

impl<V> Default for IdIndex<V> {
    fn default() -> Self {
        IdIndex {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V: Filed> IdIndex<V> {
    /// Number of ids held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no id is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Length of the slot array: 0 before the first insert, then a power
    /// of two.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The value filed under `id`. An empty index answers without a
    /// probe: a crash rebuild into a wiped table asks once for every id it
    /// installs, and each probe of the kept slot array is a cache miss.
    pub fn get(&self, id: RuleId) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let s = self.slots[self.probe(id.0)];
        (!s.is_free()).then_some(s.val)
    }

    /// Files `val` under `id`, replacing what was there.
    pub fn insert(&mut self, id: RuleId, val: V) {
        let i = self.place(id, &val);
        if self.slots[i].is_free() {
            self.len += 1;
        }
        self.slots[i] = Slot { id: id.0, val };
    }

    /// Files `val` under `id` unless `id` is already filed, in one probe;
    /// `false` when it was, with the filed value left as it is.
    pub fn try_insert(&mut self, id: RuleId, val: V) -> bool {
        let i = self.place(id, &val);
        if !self.slots[i].is_free() {
            return false;
        }
        self.len += 1;
        self.slots[i] = Slot { id: id.0, val };
        true
    }

    /// The slot holding `id`, or the free one `id` would be filed in,
    /// after doubling the array if one more id would fill it past
    /// `MAX_LOAD`.
    fn place(&mut self, id: RuleId, val: &V) -> usize {
        debug_assert!(!val.is_free(), "the free marker is never filed");
        if (self.len + 1) * MAX_LOAD.1 > self.slots.len() * MAX_LOAD.0 {
            self.grow();
        }
        self.probe(id.0)
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

    /// Takes `id` out, returning its value if it was filed.
    pub fn remove(&mut self, id: RuleId) -> Option<V> {
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
        Some(removed.val)
    }

    /// Forgets every id, keeping the slot array.
    pub fn clear(&mut self) {
        self.slots.fill(Slot::FREE);
        self.len = 0;
    }

    /// Every filed id and its value, in hash order: sort before anything
    /// reaches an output.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, V)> + '_ {
        (self.slots.iter())
            .filter(|s| !s.is_free())
            .map(|s| (RuleId(s.id), s.val))
    }

    /// `true` when `len` counts the filed ids exactly, the array is empty
    /// or a power of two long and at most three quarters full, and every id
    /// is filed once, reachable from its home slot without crossing a
    /// free one.
    pub fn check(&self) -> bool {
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
        Insert(u64, u32),
        TryInsert(u64, u32),
        Remove(u64),
        Get(u64),
        Clear,
    }

    /// Ids the slot array gets wrong if anything does: multiples of one
    /// power of two (low bits all equal), a run above `1 << 62`, the two
    /// ends of `u64`, and small dense ids.
    fn id() -> Gen<u64> {
        weighted(vec![
            (
                3,
                zip2(range(0u32..64), range(0u64..24)).map(|(k, m)| m.wrapping_shl(k)),
            ),
            (3, range(0u64..40).map(|n| (1 << 62) + n)),
            (1, just(0)),
            (1, just(u64::MAX)),
            (3, range(0u64..64)),
            (1, arb::<u64>()),
        ])
    }

    fn op() -> Gen<Op> {
        weighted(vec![
            (
                8,
                zip2(id(), range(0u32..1 << 20)).map(|(id, v)| Op::Insert(id, v)),
            ),
            (
                4,
                zip2(id(), range(0u32..1 << 20)).map(|(id, v)| Op::TryInsert(id, v)),
            ),
            (5, id().map(Op::Remove)),
            (3, id().map(Op::Get)),
            (1, just(Op::Clear)),
        ])
    }

    hermes_util::check! {
        #![cases = 256]

        /// After every step of an insert/try-insert/remove/get/clear history
        /// the index answers as a `BTreeMap` would, for every id the history touched,
        /// passes `check`, and `iter` sorted by id is the map's contents.
        fn id_index_matches_a_btreemap(ops in vec_of(op(), 1..300)) {
            let mut index = IdIndex::default();
            let mut want: BTreeMap<u64, u32> = BTreeMap::new();
            let mut touched: Vec<u64> = vec![0, u64::MAX];
            for o in &ops {
                match *o {
                    Op::Insert(id, v) => {
                        index.insert(RuleId(id), v);
                        want.insert(id, v);
                    }
                    Op::TryInsert(id, v) => {
                        let vacant = !want.contains_key(&id);
                        want.entry(id).or_insert(v);
                        assert_eq!(index.try_insert(RuleId(id), v), vacant, "try_insert {id:#x}");
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
                assert_eq!((index.len(), index.is_empty()), (want.len(), want.is_empty()));
                for &id in &touched {
                    assert_eq!(index.get(RuleId(id)), want.get(&id).copied(), "{id:#x} after {o:?}");
                }
                let mut listed: Vec<(u64, u32)> = index.iter().map(|(id, v)| (id.0, v)).collect();
                listed.sort_unstable();
                assert_eq!(listed, want.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>());
            }
        }
    }

    /// Freed slots are reused last-freed first before `top` grows, pages
    /// keep their capacity, and `check` catches a slot held twice, a held
    /// slot that is also free, and a slot nobody accounts for.
    #[test]
    fn slab_reuses_freed_slots_and_checks_its_accounting() {
        let mut slab = Slab::default();
        let slots: Vec<u32> = (0..130u32).map(|v| slab.alloc(v)).collect();
        assert_eq!(slots, (0..130).collect::<Vec<_>>());
        assert_eq!(slab.pages.len(), 3);
        slab.release(5);
        slab.release(70);
        assert_eq!(slab.alloc(1000), 70);
        assert_eq!(slab.alloc(1001), 5);
        assert_eq!(slab.alloc(1002), 130);
        assert_eq!(
            (*slab.get(70), *slab.get(5), *slab.get(130)),
            (1000, 1001, 1002)
        );
        assert!(slab.check(0..131));
        slab.release(7);
        assert!(slab.check((0..131).filter(|&s| s != 7)));
        assert!(!slab.check(0..131), "a held slot is also free");
        assert!(
            !slab.check((0..131).filter(|&s| s != 8 && s != 7)),
            "slot 8 unaccounted"
        );
        assert!(
            !slab.check((0..131).filter(|&s| s != 7).chain([9])),
            "slot 9 twice"
        );
        let copy = slab.clone();
        assert!(copy.pages.iter().all(|p| p.capacity() == PAGE));
        slab.clear();
        assert!(slab.check([]) && slab.pages.len() == 3);
        assert_eq!(slab.alloc(9), 0);
    }
}

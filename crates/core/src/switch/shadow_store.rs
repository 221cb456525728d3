//! The shadow residents: one FIFO store behind a flat id index.
//!
//! Residents sit in one vector in admission order, and the id index maps
//! a rule id to its position, so `contains`, `get`, the re-cut search and
//! the migration drain read contiguous memory and no call walks a tree
//! (DESIGN.md §16). A resident that leaves mid-queue leaves a hole; the
//! holes are squeezed out, in order, by the next push that finds them
//! outnumbering the residents, and the last resident out empties the
//! store. So iteration is admission order, the FIFO the migration order
//! keeps among equal priorities, and never the index's hash order.
//!
//! A store whose shadow capacity reaches [`INDEX_CROSSOVER`] also files
//! each resident's position under its original's destination prefix, so
//! a main-table landing's re-cut visits only the residents it may overlap
//! instead of all of them. Upkeep is lazy: a push only notes the
//! position, the next re-cut search files what is still resident, and
//! what a compaction or the emptying of the store invalidates is cleared
//! by the search after it.

use super::ShadowEntry;
use hermes_rules::prelude::{FlowMatch, Ipv4Prefix, PrefixTrie, RuleId, TernaryKey};
use hermes_rules::store::IdIndex;

/// Holes tolerated before a push compacts, however few the residents.
const MIN_HOLES: usize = 16;

/// The shadow capacity, in entries, from which a store keeps its
/// residents' originals in a prefix index. Below it a re-cut scans every
/// resident, which costs less than the index's upkeep there (DESIGN.md
/// §16 has the measured crossover).
pub(super) const INDEX_CROSSOVER: usize = 256;

/// See the module docs.
#[derive(Debug, Default)]
pub(super) struct ShadowStore {
    /// Residents in admission order; `None` where one has left.
    queue: Vec<Option<ShadowEntry>>,
    /// Rule id → position in `queue`.
    index: IdIndex,
    /// Positions by their original's key; kept only from
    /// [`INDEX_CROSSOVER`] on, boxed so a small store stays one pointer
    /// larger than without it.
    prefixes: Option<Box<PrefixIndex>>,
    /// Queue positions the re-cut searches have visited, holes included.
    #[cfg(test)]
    pub(super) visits: u64,
}

/// Queue positions filed by their resident's original key: a destination
/// prefix trie and a list for non-prefix destinations, the layout of
/// [`hermes_rules::prelude::OverlapIndex`]. Every position is filed at most
/// once, or waits in `pending`; a position whose resident left stays
/// filed, and the search skips it, until a compaction or the emptying of
/// the store marks everything filed stale. The next search clears it
/// before it files, so a store drained several times between two
/// re-cuts tears its trie down once, and a migration drain not at all.
#[derive(Debug, Default)]
struct PrefixIndex {
    trie: PrefixTrie<u32>,
    /// Positions whose original has a non-contiguous destination mask.
    fallback: Vec<u32>,
    /// Positions pushed since the last search, or marked by a
    /// compaction, not filed yet.
    pending: Vec<u32>,
    /// The filed positions predate a compaction or an emptying: they name
    /// nothing, and every resident is pending.
    stale: bool,
}

impl PrefixIndex {
    /// Files every pending position that still holds a resident, first
    /// clearing the filed positions if they are stale.
    fn file_pending(&mut self, queue: &[Option<ShadowEntry>]) {
        if self.stale {
            self.trie.clear();
            self.fallback.clear();
            self.stale = false;
        }
        for pos in self.pending.drain(..) {
            let Some(entry) = &queue[pos as usize] else {
                continue;
            };
            match FlowMatch::dst_prefix_of_key(&entry.original.key) {
                Some(pre) => {
                    self.trie.insert(pre, pos);
                }
                None => self.fallback.push(pos),
            }
        }
    }

    /// Marks every filed position stale and the first `live` pending.
    fn refile(&mut self, live: usize) {
        self.stale = true;
        self.pending.clear();
        self.pending.extend(0..live as u32);
    }

    /// `true` when the position of every resident in `queue` is pending,
    /// or filed where its original's key says while the filing is not
    /// stale, and no more positions are filed or pending than `queue`
    /// has.
    #[cfg(test)]
    fn check(&self, queue: &[Option<ShadowEntry>]) -> bool {
        let filed = self.trie.len() + self.fallback.len();
        self.trie.check_invariants()
            && (self.stale || filed + self.pending.len() <= queue.len())
            && (queue.iter().enumerate()).all(|(pos, e)| {
                let pos = pos as u32;
                e.as_ref().is_none_or(|e| {
                    self.pending.contains(&pos)
                        || !self.stale
                            && match FlowMatch::dst_prefix_of_key(&e.original.key) {
                                Some(pre) => (self.trie.find(pre))
                                    .is_some_and(|at| self.trie.holds(at, &pos)),
                                None => self.fallback.contains(&pos),
                            }
                })
            })
    }
}

impl ShadowStore {
    /// An empty store for a shadow of `capacity` entries, indexed from
    /// [`INDEX_CROSSOVER`] on.
    pub(super) fn for_capacity(capacity: usize) -> Self {
        ShadowStore {
            prefixes: (capacity >= INDEX_CROSSOVER).then(Box::default),
            ..ShadowStore::default()
        }
    }

    /// Number of residents.
    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub(super) fn contains(&self, id: RuleId) -> bool {
        self.index.get(id).is_some()
    }

    pub(super) fn get(&self, id: RuleId) -> Option<&ShadowEntry> {
        let pos = self.index.get(id)?;
        self.queue[pos as usize].as_ref()
    }

    /// A resident to update in place. Its original's key must not change:
    /// the prefix index filed it under that key.
    pub(super) fn get_mut(&mut self, id: RuleId) -> Option<&mut ShadowEntry> {
        let pos = self.index.get(id)?;
        self.queue[pos as usize].as_mut()
    }

    /// Appends a resident at the back of the queue. Its id must not be
    /// resident already.
    pub(super) fn push(&mut self, entry: ShadowEntry) {
        debug_assert!(!self.contains(entry.original.id), "one entry per resident");
        let holes = self.queue.len() - self.len();
        if holes >= MIN_HOLES && holes > self.len() {
            self.compact();
        }
        let pos = u32::try_from(self.queue.len())
            .expect("INVARIANT: the shadow holds fewer than 2^32 - 1 residents");
        self.index.insert(entry.original.id, pos);
        self.queue.push(Some(entry));
        if let Some(prefixes) = &mut self.prefixes {
            prefixes.pending.push(pos);
        }
    }

    /// Squeezes the holes out of the queue, keeping the residents' order,
    /// and files each resident's new position (in the prefix index, as
    /// pending).
    fn compact(&mut self) {
        self.queue.retain(Option::is_some);
        for (pos, entry) in self.queue.iter().flatten().enumerate() {
            self.index.insert(entry.original.id, pos as u32);
        }
        if let Some(prefixes) = &mut self.prefixes {
            prefixes.refile(self.queue.len());
        }
    }

    /// Takes a resident out, leaving a hole in its place; the last one out
    /// empties the queue and leaves the prefix index nothing to file.
    pub(super) fn remove(&mut self, id: RuleId) -> Option<ShadowEntry> {
        let pos = self.index.remove(id)?;
        let entry = self.queue[pos as usize].take();
        if self.index.is_empty() {
            self.queue.clear();
            if let Some(prefixes) = &mut self.prefixes {
                prefixes.refile(0);
            }
        }
        entry
    }

    /// The residents in admission order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &ShadowEntry> {
        self.queue.iter().flatten()
    }

    /// Hands `f` every resident whose original may overlap `key`: with the
    /// prefix index, those filed under a destination prefix overlapping
    /// `key`'s (every one when `key`'s destination is not a prefix) and
    /// those in the fallback list, in no set order; without it, every
    /// resident in admission order.
    pub(super) fn for_each_candidate(&mut self, key: &TernaryKey, mut f: impl FnMut(&ShadowEntry)) {
        #[cfg(test)]
        let visits = &mut self.visits;
        let Some(prefixes) = &mut self.prefixes else {
            for entry in self.queue.iter().flatten() {
                #[cfg(test)]
                {
                    *visits += 1;
                }
                f(entry);
            }
            return;
        };
        prefixes.file_pending(&self.queue);
        let queue = &self.queue;
        let mut visit = |&pos: &u32| {
            #[cfg(test)]
            {
                *visits += 1;
            }
            if let Some(entry) = &queue[pos as usize] {
                f(entry);
            }
        };
        match FlowMatch::dst_prefix_of_key(key) {
            Some(pre) => prefixes.trie.for_each_overlapping(pre, &mut visit),
            None => (prefixes.trie).for_each_descendant(Ipv4Prefix::DEFAULT, &mut visit),
        }
        prefixes.fallback.iter().for_each(visit);
    }

    /// The positions the prefix index has filed and those it has pending,
    /// `(0, 0)` without one.
    #[cfg(test)]
    pub(super) fn filing(&self) -> (usize, usize) {
        (self.prefixes.as_ref()).map_or((0, 0), |p| {
            (p.trie.len() + p.fallback.len(), p.pending.len())
        })
    }

    /// `true` when the index names exactly the residents, each at its
    /// position in the queue, and a prefix index holds every resident's
    /// position, pending or filed under its original's key.
    #[cfg(test)]
    pub(super) fn check(&self) -> bool {
        self.index.check()
            && self.iter().count() == self.len()
            && (self.queue.iter().enumerate()).all(|(pos, e)| {
                e.as_ref()
                    .is_none_or(|e| self.index.get(e.original.id) == Some(pos as u32))
            })
            && (self.prefixes.as_ref()).is_none_or(|p| p.check(&self.queue))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rules::prelude::*;
    use hermes_util::check::{just, range, vec_of, weighted, zip3, Gen};

    fn entry(id: u64) -> ShadowEntry {
        ShadowEntry {
            original: Rule::new(id, TernaryKey::ANY, Priority(1), Action::Drop),
            pieces: Vec::new(),
            cut_against: Vec::new(),
        }
    }

    fn ids(store: &ShadowStore) -> Vec<u64> {
        store.iter().map(|e| e.original.id.0).collect()
    }

    /// Removals from the middle keep the survivors in admission order
    /// through the compactions pushes trigger, and every position the
    /// index names stays right, with and without the prefix index.
    #[test]
    fn fifo_order_survives_holes_and_compaction() {
        for capacity in [0, INDEX_CROSSOVER] {
            let mut store = ShadowStore::for_capacity(capacity);
            let mut want: Vec<u64> = Vec::new();
            for id in 0..200u64 {
                store.push(entry(id));
                want.push(id);
                if id % 3 != 0 {
                    let gone = want.remove(want.len() / 2);
                    assert_eq!(
                        store.remove(RuleId(gone)).map(|e| e.original.id.0),
                        Some(gone)
                    );
                }
                assert!(store.check(), "after {id}");
                assert_eq!(ids(&store), want);
            }
            assert!(store.queue.len() <= 2 * store.len() + MIN_HOLES + 1);
            assert!(store.remove(RuleId(1_000)).is_none());
            for id in want.clone() {
                assert!(store.get(RuleId(id)).is_some() && store.contains(RuleId(id)));
                store.remove(RuleId(id));
            }
            assert!(store.is_empty() && store.queue.is_empty() && store.check());
        }
    }

    /// Destination prefixes of the property's keys: nested and disjoint,
    /// `/0` and `/32` among them.
    const POOL: [&str; 10] = [
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.1.0.0/16",
        "10.1.2.0/24",
        "10.1.2.3/32",
        "10.1.3.0/24",
        "10.128.0.0/9",
        "11.0.0.0/8",
        "11.0.0.7/32",
        "192.168.0.0/16",
    ];

    /// A key over `POOL[p]`: the prefix (twice as likely), the prefix
    /// narrowed to TCP, or its address under a holed destination mask.
    fn key(p: usize, shape: u8) -> TernaryKey {
        let pre: Ipv4Prefix = POOL[p].parse().unwrap();
        match shape {
            0 | 1 => pre.to_key(),
            2 => FlowMatch::dst_prefix(pre).with_proto(6).to_key(),
            _ => {
                let mask = pre.netmask() | 0x0000_ff0f;
                TernaryKey::new(u128::from(pre.addr() & mask) << 96, u128::from(mask) << 96)
            }
        }
    }

    /// `a ∩ b` as one key, when some packet matches both.
    fn intersection(a: &TernaryKey, b: &TernaryKey) -> Option<TernaryKey> {
        a.overlaps(b)
            .then(|| TernaryKey::new(a.value() | b.value(), a.mask() | b.mask()))
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push a fresh resident: its key (pool index, shape), priority.
        Push((usize, u8, u32)),
        /// Remove the live resident at this position (mod the live count).
        Remove(usize),
        /// A main rule lands: its key (pool index, shape), priority. The
        /// affected residents' pieces are then cut against it.
        Recut((usize, u8, u32)),
        /// Remove every resident, oldest first.
        Drain,
    }

    /// Priorities from a few values, so equal priorities are common.
    fn op() -> Gen<Op> {
        let key = || zip3(range(0usize..POOL.len()), range(0u8..4), range(1u32..5));
        weighted(vec![
            (8, key().map(Op::Push)),
            (5, range(0usize..64).map(Op::Remove)),
            (4, key().map(Op::Recut)),
            (1, just(Op::Drain)),
        ])
    }

    /// The ids of the residents of priority below `rule`'s with a piece
    /// overlapping its key, ascending: the re-cut's selection.
    fn affected(store: &mut ShadowStore, rule: &Rule, scan: bool) -> Vec<RuleId> {
        let hit = |e: &ShadowEntry| {
            e.original.priority < rule.priority
                && e.pieces.iter().any(|(_, k)| k.overlaps(&rule.key))
        };
        let mut out: Vec<RuleId> = Vec::new();
        if scan {
            out.extend(store.iter().filter(|e| hit(e)).map(|e| e.original.id));
        } else {
            store.for_each_candidate(&rule.key, |e| {
                if hit(e) {
                    out.push(e.original.id);
                }
            });
        }
        out.sort_unstable_by_key(|id| id.0);
        out
    }

    hermes_util::check! {
        #![cases = 256]

        /// On a store above the crossover, the prefix index's candidates
        /// filtered by the re-cut's test give exactly the full scan's
        /// sorted ids, through pushes, removals, re-cuts that narrow the
        /// pieces, compactions and emptying; after every step the index
        /// holds every resident under its original's key.
        fn indexed_recut_matches_scan(ops in vec_of(op(), 0..400)) {
            let mut store = ShadowStore::for_capacity(INDEX_CROSSOVER);
            assert!(store.prefixes.is_some());
            let mut next = 0u64;
            for op in ops {
                match op {
                    Op::Push((p, shape, prio)) => {
                        let original = Rule::new(next, key(p, shape), Priority(prio), Action::Drop);
                        // Pieces inside the original: itself, or its
                        // intersections with a few pool keys.
                        let pieces = match next % 3 {
                            0 => vec![original.key],
                            1 => Vec::new(),
                            _ => (0..POOL.len())
                                .filter(|q| (q + next as usize).is_multiple_of(4))
                                .filter_map(|q| intersection(&original.key, &key(q, 0)))
                                .collect(),
                        };
                        let pieces = (pieces.into_iter().enumerate())
                            .map(|(j, k)| (RuleId(1_000_000 + 16 * next + j as u64), k))
                            .collect();
                        store.push(ShadowEntry { original, pieces, cut_against: Vec::new() });
                        next += 1;
                    }
                    Op::Remove(k) => {
                        let live = ids(&store);
                        if !live.is_empty() {
                            let id = RuleId(live[k % live.len()]);
                            assert_eq!(store.remove(id).map(|e| e.original.id), Some(id));
                        }
                    }
                    Op::Recut((p, shape, prio)) => {
                        let rule = Rule::new(u64::MAX, key(p, shape), Priority(prio), Action::Drop);
                        let want = affected(&mut store, &rule, true);
                        assert_eq!(affected(&mut store, &rule, false), want, "{rule:?}");
                        for id in want {
                            let e = store.get_mut(id).expect("a resident");
                            e.pieces = (e.pieces.iter())
                                .flat_map(|&(pid, k)| {
                                    let cut = if k.overlaps(&rule.key) {
                                        k.difference(&rule.key)
                                    } else {
                                        vec![k]
                                    };
                                    cut.into_iter().map(move |k| (pid, k))
                                })
                                .collect();
                        }
                    }
                    Op::Drain => {
                        for id in ids(&store) {
                            store.remove(RuleId(id));
                        }
                        assert!(store.queue.is_empty());
                    }
                }
                assert!(store.check(), "after {op:?}");
            }
        }
    }
}

//! Overlap detection index.
//!
//! Algorithm 1 (`PartitionNewRule`) needs, for every incoming rule, the set
//! of *higher-priority* main-table rules whose match regions overlap the new
//! rule. [`OverlapIndex`] answers that query via a destination-prefix trie
//! (the coarse filter) followed by an exact ternary check on the full key
//! (the fine filter).
//!
//! Rules whose destination bits are not prefix shaped (possible only for
//! hand-crafted ternary keys; every [`crate::fields::FlowMatch`]
//! and every partition Hermes itself produces is prefix shaped in the
//! destination field) fall back to a linear side list so correctness never
//! depends on the fast path.

use crate::fields::FlowMatch;
use crate::key::TernaryKey;
use crate::prefix::Ipv4Prefix;
use crate::rule::{Priority, Rule, RuleId};
use crate::store::{IdIndex, Slab};
use crate::trie::PrefixTrie;

/// Share of the kept id order (as a fraction) the ids touched since the
/// last ordered read may reach before the order is dropped. Past half, the
/// merge (a sort of the touched ids, then a pass over the whole kept list)
/// costs about what one sort of every id does, and the touched list, which
/// holds repeats, never outgrows half the index.
const REBUILD_SHARE: (usize, usize) = (1, 2);

/// An index over a set of rules supporting fast "which rules overlap this
/// key?" queries.
///
/// Each rule is stored once, in a paged slab, and found by id through a
/// flat id index; the trie and the fallback list hold its `u32` slab slot
/// (DESIGN.md §16). Which slot a rule gets never reaches an output: walks
/// visit slots in the positions `insert` and `remove` leave them in, and
/// [`iter`](Self::iter) walks ascending ids.
#[derive(Debug, Default)]
pub struct OverlapIndex {
    trie: PrefixTrie<u32>,
    /// Slots of the rules whose destination mask is non-contiguous.
    fallback: Vec<u32>,
    rules: Slab<Rule>,
    /// Rule id → slab slot.
    ids: IdIndex,
    /// The id order [`iter`](Self::iter) last read, kept up to date by
    /// merging in what changed since.
    order: IdOrder,
}

/// The rules' `(id, slot)` pairs in ascending id order as of the last
/// ordered read, and the ids inserted or removed since. Nothing is kept
/// before the first ordered read, nor once the touched ids pass
/// [`REBUILD_SHARE`] of the kept list: the next read then sorts every id.
/// A re-insert of a live id keeps its slot, so it touches nothing.
#[derive(Debug, Default)]
struct IdOrder {
    kept: bool,
    pairs: Vec<(RuleId, u32)>,
    /// Ids that came or went since the last read, repeats included; a read
    /// fills in the slots of those still live before merging them.
    touched: Vec<(RuleId, u32)>,
}

impl IdOrder {
    /// Notes that `id` came or went.
    fn touch(&mut self, id: RuleId) {
        if !self.kept {
            return;
        }
        self.touched.push((id, u32::MAX));
        if self.touched.len() * REBUILD_SHARE.1 > self.pairs.len() * REBUILD_SHARE.0 {
            self.forget();
        }
    }

    /// Drops the kept order, keeping the buffers.
    fn forget(&mut self) {
        self.kept = false;
        self.pairs.clear();
        self.touched.clear();
    }

    /// Brings `pairs` level with `ids`: the touched ids, sorted, leave the
    /// kept list in one pass, and those still live merge back in with the
    /// slots `ids` holds now. With no order kept, one sort of every id.
    fn refresh(&mut self, ids: &IdIndex) {
        if !self.kept {
            self.pairs.extend(ids.iter());
            self.pairs.sort_unstable_by_key(|&(id, _)| id);
            self.kept = true;
            return;
        }
        if self.touched.is_empty() {
            return;
        }
        self.touched.sort_unstable_by_key(|&(id, _)| id);
        self.touched.dedup_by_key(|&mut (id, _)| id);
        let touched = &self.touched;
        let mut next = 0;
        self.pairs.retain(|&(id, _)| {
            while touched.get(next).is_some_and(|&(t, _)| t < id) {
                next += 1;
            }
            touched.get(next).is_none_or(|&(t, _)| t != id)
        });
        // Those still live take the slots they hold now.
        self.touched.retain_mut(|(id, slot)| match ids.get(*id) {
            Some(live) => {
                *slot = live;
                true
            }
            None => false,
        });
        merge_back(&mut self.pairs, &self.touched);
        self.touched.clear();
    }

    /// `true` when nothing is kept, or when the kept pairs ascend by id and
    /// agree with `ids` on every id not touched since, and the touched ids
    /// stay within [`REBUILD_SHARE`].
    fn check(&self, ids: &IdIndex) -> bool {
        if !self.kept {
            return self.pairs.is_empty() && self.touched.is_empty();
        }
        let mut touched: Vec<RuleId> = self.touched.iter().map(|&(id, _)| id).collect();
        touched.sort_unstable();
        let untouched = |id: &RuleId| touched.binary_search(id).is_err();
        let at = |id: RuleId| {
            (self.pairs.binary_search_by_key(&id, |&(id, _)| id)).map(|i| self.pairs[i].1)
        };
        self.pairs.windows(2).all(|w| w[0].0 < w[1].0)
            && (self.pairs.iter()).all(|&(id, slot)| !untouched(&id) || ids.get(id) == Some(slot))
            && (ids.iter()).all(|(id, slot)| !untouched(&id) || at(id) == Ok(slot))
            && self.touched.len() * REBUILD_SHARE.1 <= self.pairs.len() * REBUILD_SHARE.0
    }
}

/// Merges `fresh` (ascending, no id already in `pairs`) into `pairs`
/// (ascending) in place, back to front: every run of old pairs moves once,
/// and the pairs below the smallest fresh id not at all.
fn merge_back(pairs: &mut Vec<(RuleId, u32)>, fresh: &[(RuleId, u32)]) {
    let mut end = pairs.len();
    pairs.extend_from_slice(fresh);
    for (j, &pair) in fresh.iter().enumerate().rev() {
        let start = pairs[..end].partition_point(|&(id, _)| id < pair.0);
        pairs.copy_within(start..end, start + j + 1);
        pairs[start + j] = pair;
        end = start;
    }
}

impl OverlapIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed rules.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when no rules are indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Indexes a rule. A rule id may be indexed only once; re-inserting an
    /// id replaces the previous entry.
    pub fn insert(&mut self, rule: Rule) {
        // The replaced entry leaves before the new one is filed, so a
        // re-insert under the same prefix lands where insert-after-remove
        // would put it. It keeps its slab slot.
        let slot = match self.ids.get(rule.id) {
            Some(slot) => {
                let old = self.rules.get(slot).key;
                self.unfile(&old, slot);
                *self.rules.get_mut(slot) = rule;
                slot
            }
            None => {
                let slot = self.rules.alloc(rule);
                self.ids.insert(rule.id, slot);
                self.order.touch(rule.id);
                slot
            }
        };
        match FlowMatch::dst_prefix_of_key(&rule.key) {
            Some(pre) => self.trie.insert(pre, slot),
            None => self.fallback.push(slot),
        }
    }

    /// Removes a rule by id. Returns the removed rule if present.
    pub fn remove(&mut self, id: RuleId) -> Option<Rule> {
        let slot = self.ids.remove(id)?;
        self.order.touch(id);
        let rule = *self.rules.get(slot);
        self.unfile(&rule.key, slot);
        self.rules.release(slot);
        Some(rule)
    }

    /// Takes `slot` out of the trie node or the fallback list `insert`
    /// filed it under for `key`.
    fn unfile(&mut self, key: &TernaryKey, slot: u32) {
        match FlowMatch::dst_prefix_of_key(key) {
            Some(pre) => {
                self.trie.remove(pre, &slot);
            }
            None => {
                if let Some(pos) = self.fallback.iter().position(|&s| s == slot) {
                    self.fallback.swap_remove(pos);
                }
            }
        }
    }

    /// Looks up a rule by id.
    pub fn get(&self, id: RuleId) -> Option<Rule> {
        self.ids.get(id).map(|slot| *self.rules.get(slot))
    }

    /// `true` when the id is indexed.
    pub fn contains(&self, id: RuleId) -> bool {
        self.ids.get(id).is_some()
    }

    /// Removes every rule.
    pub fn clear(&mut self) {
        self.trie.clear();
        self.fallback.clear();
        self.rules.clear();
        self.ids.clear();
        self.order.forget();
    }

    /// All rules overlapping `key` (in no particular order).
    pub fn overlapping(&self, key: &TernaryKey) -> Vec<Rule> {
        let mut out = Vec::new();
        self.for_each_overlapping(key, |r| out.push(*r));
        out
    }

    /// All rules overlapping `key` with priority *strictly above* `below`
    /// — exactly the `O` set of Algorithm 1 line 3.
    pub fn overlapping_above(&self, key: &TernaryKey, below: Priority) -> Vec<Rule> {
        let mut out = Vec::new();
        self.for_each_overlapping(key, |r| {
            if r.priority > below {
                out.push(*r);
            }
        });
        out
    }

    /// Visits each overlapping rule.
    pub fn for_each_overlapping(&self, key: &TernaryKey, mut f: impl FnMut(&Rule)) {
        let rules = &self.rules;
        let mut visit = |&slot: &u32| {
            let r = rules.get(slot);
            if r.key.overlaps(key) {
                f(r);
            }
        };
        match FlowMatch::dst_prefix_of_key(key) {
            Some(pre) => self.trie.for_each_overlapping(pre, &mut visit),
            // Non-prefix query: the trie cannot prune, walk everything.
            None => self
                .trie
                .for_each_descendant(Ipv4Prefix::DEFAULT, &mut visit),
        }
        self.fallback.iter().for_each(visit);
    }

    /// Iterates over all indexed rules in ascending id order.
    ///
    /// The index keeps the order of its last ordered read and the ids
    /// inserted or removed since, so a read sorts only those and merges
    /// them into the rest: a whole-table view costs what changed since the
    /// last one, plus one pass over the kept order. The first read, and
    /// one after churn past half the index, sorts every id instead.
    pub fn iter(&mut self) -> impl Iterator<Item = &Rule> + '_ {
        self.order.refresh(&self.ids);
        let rules = &self.rules;
        (self.order.pairs.iter()).map(move |&(_, slot)| rules.get(slot))
    }

    /// Checks the storage invariants (debug aid / property tests): the
    /// trie's own, the id index's own, every id's slot holds the rule of
    /// that id and is filed once, under the rule's destination prefix or
    /// in the fallback list when it has none, and the filed slots and the
    /// slab's free list account for every slab slot exactly once, and a
    /// kept id order agrees with the id index on every id not touched since
    /// it was read.
    pub fn check_invariants(&self) -> bool {
        let filed = self.trie.len() + self.fallback.len();
        let each_filed = self.ids.iter().all(|(id, slot)| {
            let rule = self.rules.get(slot);
            rule.id == id
                && match FlowMatch::dst_prefix_of_key(&rule.key) {
                    Some(pre) => self.trie.items_at(pre).contains(&slot),
                    None => self.fallback.contains(&slot),
                }
        });
        // `len` distinct slots each filed at least once among `len` filed
        // items: each is filed exactly once, and nothing else is.
        let mut held: Vec<u32> = self.fallback.clone();
        self.trie
            .for_each_descendant(Ipv4Prefix::DEFAULT, |&slot| held.push(slot));
        self.trie.check_invariants()
            && self.ids.check()
            && filed == self.ids.len()
            && each_filed
            && self.rules.check(held)
            && self.order.check(&self.ids)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;
    use crate::rule::Action;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        Rule::new(id, p(pfx).to_key(), Priority(prio), Action::Forward(1))
    }

    #[test]
    fn insert_get_remove() {
        let mut idx = OverlapIndex::new();
        let r = rule(1, "10.0.0.0/8", 5);
        idx.insert(r);
        assert_eq!(idx.len(), 1);
        assert!(idx.contains(RuleId(1)));
        assert_eq!(idx.get(RuleId(1)), Some(r));
        assert_eq!(idx.remove(RuleId(1)), Some(r));
        assert!(idx.is_empty());
        assert_eq!(idx.remove(RuleId(1)), None);
    }

    #[test]
    fn reinsert_replaces() {
        let mut idx = OverlapIndex::new();
        idx.insert(rule(1, "10.0.0.0/8", 5));
        idx.insert(rule(1, "11.0.0.0/8", 9));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(RuleId(1)).unwrap().priority, Priority(9));
    }

    #[test]
    fn overlapping_above_filters_priority() {
        let mut idx = OverlapIndex::new();
        idx.insert(rule(1, "10.0.0.0/8", 10));
        idx.insert(rule(2, "10.1.0.0/16", 3));
        idx.insert(rule(3, "11.0.0.0/8", 10));
        let query = p("10.1.2.0/24").to_key();
        let hits = idx.overlapping_above(&query, Priority(5));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, RuleId(1));
        let all = idx.overlapping(&query);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn multi_field_keys_fine_filter() {
        let mut idx = OverlapIndex::new();
        // Same destination, different protocol: the trie's coarse filter
        // returns both but the fine ternary check must reject the TCP rule.
        let tcp = Rule::new(
            1,
            FlowMatch::dst_prefix(p("10.0.0.0/8"))
                .with_proto(6)
                .to_key(),
            Priority(5),
            Action::Drop,
        );
        let udp_query = FlowMatch::dst_prefix(p("10.0.0.0/8"))
            .with_proto(17)
            .to_key();
        idx.insert(tcp);
        assert!(idx.overlapping(&udp_query).is_empty());
        let any_query = p("10.0.0.0/8").to_key();
        assert_eq!(idx.overlapping(&any_query).len(), 1);
    }

    #[test]
    fn fallback_handles_non_prefix_destinations() {
        let mut idx = OverlapIndex::new();
        // A key with a non-contiguous destination mask (odd bits).
        let weird = Rule::new(
            1,
            TernaryKey::new(0, 0b101u128 << 96),
            Priority(1),
            Action::Drop,
        );
        idx.insert(weird);
        assert_eq!(idx.len(), 1);
        let hits = idx.overlapping(&TernaryKey::ANY);
        assert_eq!(hits.len(), 1);
        assert_eq!(idx.remove(RuleId(1)).unwrap().id, RuleId(1));
    }

    #[test]
    fn agrees_with_naive_scan_on_random_rules() {
        use hermes_util::rng::{Rng, SeedableRng};
        let mut rng = hermes_util::rng::rngs::StdRng::seed_from_u64(7);
        let mut idx = OverlapIndex::new();
        let mut all = Vec::new();
        for i in 0..400u64 {
            let len = rng.gen_range(8..=28);
            let pre = Ipv4Prefix::new(rng.gen(), len);
            let mut m = FlowMatch::dst_prefix(pre);
            if rng.gen_bool(0.3) {
                m = m.with_proto(if rng.gen_bool(0.5) { 6 } else { 17 });
            }
            let r = Rule::new(i, m.to_key(), Priority(rng.gen_range(1..100)), Action::Drop);
            idx.insert(r);
            all.push(r);
        }
        for q in all.iter().step_by(23) {
            let mut via_idx: Vec<u64> = idx.overlapping(&q.key).iter().map(|r| r.id.0).collect();
            let mut via_scan: Vec<u64> = all
                .iter()
                .filter(|r| r.key.overlaps(&q.key))
                .map(|r| r.id.0)
                .collect();
            via_idx.sort_unstable();
            via_scan.sort_unstable();
            assert_eq!(via_idx, via_scan);
        }
    }

    #[test]
    fn iter_returns_everything() {
        let mut idx = OverlapIndex::new();
        for i in 0..10u64 {
            idx.insert(rule(i, "10.0.0.0/8", (i + 1) as u32));
        }
        let mut ids: Vec<u64> = idx.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }
}

//! Property-based tests for the classifier algebra — the invariants the
//! whole Hermes correctness story rests on (DESIGN.md §5). Runs under the
//! in-tree `hermes_util::check!` harness with pinned default seeds.
//!
//! `reclaiming_trie_matches_reference` checks `PrefixTrie` against the
//! trie as it stood before `remove` reclaimed nodes and before path
//! compression, kept here as [`reference`] (DESIGN.md §16). Mutants of
//! `trie.rs` it kills, each applied by hand and seen to fail: no pruning
//! (an emptied node stays linked); freeing (and so reusing) a slot without
//! resetting it; no splice on remove, either of an emptied node with one
//! child or of a parent left itemless with one child; the wrong branch bit
//! on an edge split (the old child filed on the new leaf's side); a walk
//! that descends into a child that does not contain the query (its items
//! reported as ancestors).
//!
//! `overlap_index_churn_matches_reference` checks `OverlapIndex` against
//! the index as it stood before it kept each rule once in a slab behind a
//! flat id index, kept here as [`reference_index`] (DESIGN.md §16).

use hermes_rules::merge::{minimize_keys, optimize_ruleset};
use hermes_rules::overlap::OverlapIndex;
use hermes_rules::prelude::*;
use hermes_util::check::{arb, just, range, vec_of, weighted, zip2, zip3, Gen};

/// The overlap index before it stored each rule once: every rule sat both
/// in a `BTreeMap` by id and, as a copy, in its trie node or the fallback
/// list. Its storage and walks, verbatim, over the plain [`reference`]
/// trie, whose walks `reclaiming_trie_matches_reference` equates with the
/// library trie's.
mod reference_index {
    use hermes_rules::fields::FlowMatch;
    use hermes_rules::key::TernaryKey;
    use hermes_rules::prefix::Ipv4Prefix;
    use hermes_rules::rule::{Priority, Rule, RuleId};
    use std::collections::BTreeMap;

    // The plain trie above, not the library's: a trie mutant cannot move
    // both sides of the comparison at once.
    use super::reference::PrefixTrie;

    /// An index over a set of rules supporting fast "which rules overlap this
    /// key?" queries.
    #[derive(Debug, Default)]
    pub struct OverlapIndex {
        trie: PrefixTrie<Rule>,
        /// Rules whose destination mask is non-contiguous.
        fallback: Vec<Rule>,
        /// Every indexed rule by id: serves `get` and `iter` without touching
        /// the trie, and tells `remove` where the rule is filed.
        by_id: BTreeMap<RuleId, Rule>,
    }

    impl OverlapIndex {
        /// An empty index.
        pub fn new() -> Self {
            Self::default()
        }

        /// Number of indexed rules.
        pub fn len(&self) -> usize {
            self.by_id.len()
        }

        /// `true` when no rules are indexed.
        pub fn is_empty(&self) -> bool {
            self.by_id.is_empty()
        }

        /// Indexes a rule. A rule id may be indexed only once; re-inserting an
        /// id replaces the previous entry.
        pub fn insert(&mut self, rule: Rule) {
            // The replaced entry leaves before the new one is filed, so a
            // re-insert under the same prefix lands where insert-after-remove
            // would put it.
            if let Some(old) = self.by_id.insert(rule.id, rule) {
                self.unfile(&old);
            }
            match FlowMatch::dst_prefix_of_key(&rule.key) {
                Some(pre) => self.trie.insert(pre, rule),
                None => self.fallback.push(rule),
            }
        }

        /// Removes a rule by id. Returns the removed rule if present.
        pub fn remove(&mut self, id: RuleId) -> Option<Rule> {
            let rule = self.by_id.remove(&id)?;
            self.unfile(&rule);
            Some(rule)
        }

        /// Takes `rule` out of the trie node or the fallback list `insert`
        /// filed it under.
        fn unfile(&mut self, rule: &Rule) {
            match FlowMatch::dst_prefix_of_key(&rule.key) {
                Some(pre) => {
                    self.trie.remove(pre, rule);
                }
                None => {
                    if let Some(pos) = self.fallback.iter().position(|r| r.id == rule.id) {
                        self.fallback.swap_remove(pos);
                    }
                }
            }
        }

        /// Looks up a rule by id.
        pub fn get(&self, id: RuleId) -> Option<Rule> {
            self.by_id.get(&id).copied()
        }

        /// `true` when the id is indexed.
        pub fn contains(&self, id: RuleId) -> bool {
            self.by_id.contains_key(&id)
        }

        /// Removes every rule.
        pub fn clear(&mut self) {
            self.trie.clear();
            self.fallback.clear();
            self.by_id.clear();
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
            match FlowMatch::dst_prefix_of_key(key) {
                Some(pre) => {
                    self.trie.for_each_overlapping(pre, |r| {
                        if r.key.overlaps(key) {
                            f(r);
                        }
                    });
                }
                None => {
                    // Non-prefix query: the trie cannot prune, walk everything.
                    self.trie.for_each_descendant(Ipv4Prefix::DEFAULT, |r| {
                        if r.key.overlaps(key) {
                            f(r);
                        }
                    });
                }
            }
            for r in &self.fallback {
                if r.key.overlaps(key) {
                    f(r);
                }
            }
        }

        /// Iterates over all indexed rules in ascending id order.
        pub fn iter(&self) -> impl Iterator<Item = Rule> + '_ {
            self.by_id.values().copied()
        }
    }
}

/// The prefix trie before `remove` reclaimed emptied nodes: nodes are
/// never given back, so the array grows with every prefix ever inserted.
/// Its storage and walks, verbatim. Test-only (an integration test cannot
/// see `#[cfg(test)]` items of the library, so it lives here).
mod reference {
    use hermes_rules::prelude::Ipv4Prefix;

    #[derive(Debug)]
    struct Node<T> {
        items: Vec<T>,
        children: [Option<usize>; 2],
        /// Number of items stored in this node's entire subtree (including the
        /// node itself); lets walks skip empty subtrees.
        subtree_items: usize,
    }

    impl<T> Node<T> {
        fn new() -> Self {
            Node {
                items: Vec::new(),
                children: [None, None],
                subtree_items: 0,
            }
        }
    }

    #[derive(Debug)]
    pub struct PrefixTrie<T> {
        nodes: Vec<Node<T>>,
        len: usize,
    }

    impl<T> Default for PrefixTrie<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> PrefixTrie<T> {
        /// An empty trie.
        pub fn new() -> Self {
            PrefixTrie {
                nodes: vec![Node::new()],
                len: 0,
            }
        }

        /// Total number of stored items.
        pub fn len(&self) -> usize {
            self.len
        }

        /// `true` when no items are stored.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }

        /// Removes every item.
        pub fn clear(&mut self) {
            self.nodes.clear();
            self.nodes.push(Node::new());
            self.len = 0;
        }

        /// The bit of `addr` at depth `depth` (0 = most significant).
        fn bit(addr: u32, depth: u8) -> usize {
            ((addr >> (31 - depth)) & 1) as usize
        }

        /// Walks (creating nodes as needed) to the node for `prefix`, returning
        /// its index. Updates `subtree_items` along the way by `delta`.
        fn walk_mut(&mut self, prefix: Ipv4Prefix, delta: isize) -> usize {
            let mut idx = 0;
            for depth in 0..prefix.len() {
                self.bump(idx, delta);
                let b = Self::bit(prefix.addr(), depth);
                idx = match self.nodes[idx].children[b] {
                    Some(c) => c,
                    None => {
                        let c = self.nodes.len();
                        self.nodes.push(Node::new());
                        self.nodes[idx].children[b] = Some(c);
                        c
                    }
                };
            }
            self.bump(idx, delta);
            idx
        }

        fn bump(&mut self, idx: usize, delta: isize) {
            let n = &mut self.nodes[idx];
            n.subtree_items = (n.subtree_items as isize + delta) as usize;
        }

        /// Inserts `item` under `prefix`.
        pub fn insert(&mut self, prefix: Ipv4Prefix, item: T) {
            let idx = self.walk_mut(prefix, 1);
            self.nodes[idx].items.push(item);
            self.len += 1;
        }

        /// Walks to the node for `prefix` without creating nodes.
        fn walk(&self, prefix: Ipv4Prefix) -> Option<usize> {
            let mut idx = 0;
            for depth in 0..prefix.len() {
                let b = Self::bit(prefix.addr(), depth);
                idx = self.nodes[idx].children[b]?;
            }
            Some(idx)
        }

        /// Visits every item whose prefix is *contained in* the query
        /// (descendants, including the query node itself).
        pub fn for_each_descendant<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a T)) {
            let Some(start) = self.walk(prefix) else {
                return;
            };
            let mut stack = vec![start];
            while let Some(idx) = stack.pop() {
                let node = &self.nodes[idx];
                if node.subtree_items == 0 {
                    continue;
                }
                for item in &node.items {
                    f(item);
                }
                for child in node.children.into_iter().flatten() {
                    stack.push(child);
                }
            }
        }

        /// Visits every item whose prefix overlaps the query. For prefixes this
        /// is exactly ancestors ∪ descendants; the query node itself is visited
        /// once.
        pub fn for_each_overlapping<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a T)) {
            // Ancestors, excluding the query node (handled by the descendant
            // walk so items at the query node are reported exactly once).
            let mut idx = 0;
            for depth in 0..prefix.len() {
                for item in &self.nodes[idx].items {
                    f(item);
                }
                let b = Self::bit(prefix.addr(), depth);
                match self.nodes[idx].children[b] {
                    Some(c) => idx = c,
                    None => return,
                }
            }
            self.for_each_descendant(prefix, f);
        }
    }

    impl<T: PartialEq> PrefixTrie<T> {
        /// Removes one occurrence of `item` stored under `prefix`. Returns
        /// `true` when found. Empty nodes are left in place (the trie is an
        /// index over a bounded TCAM; node reclamation isn't worth the
        /// complexity — `clear` releases everything).
        pub fn remove(&mut self, prefix: Ipv4Prefix, item: &T) -> bool {
            let Some(idx) = self.walk(prefix) else {
                return false;
            };
            let node = &mut self.nodes[idx];
            let Some(pos) = node.items.iter().position(|i| i == item) else {
                return false;
            };
            node.items.swap_remove(pos);
            self.len -= 1;
            // Fix up subtree counters along the path.
            self.walk_mut(prefix, -1);
            true
        }
    }
}

/// Prefixes the trie property draws from: a nested chain /0 ⊃ /1 ⊃ /8 ⊃
/// /12 ⊃ /16 ⊃ /24 ⊃ /25 ⊃ /31 ⊃ /32, siblings at several depths and a
/// disjoint branch, so removals prune chains of every length and shared
/// stems survive. The /12 and the /25 land part-way down edges the others
/// leave, so inserts split edges and removes splice the forks back out.
const TRIE_POOL: [&str; 14] = [
    "0.0.0.0/0",
    "0.0.0.0/1",
    "10.0.0.0/8",
    "10.0.0.0/12",
    "10.1.0.0/16",
    "10.1.2.0/24",
    "10.1.2.0/25",
    "10.1.2.2/31",
    "10.1.2.3/32",
    "10.1.2.2/32",
    "10.1.3.0/24",
    "10.128.0.0/9",
    "192.168.1.1/32",
    "255.255.255.255/32",
];

/// Queries beyond the pool: prefixes that hold no items but cut through
/// stored paths, end part-way down an edge (/10, /20, /26), or leave an
/// edge part-way for a branch nothing is stored under (10.64/10,
/// 10.1.2.128/25).
const TRIE_QUERIES: [&str; 8] = [
    "10.1.2.0/23",
    "10.0.0.0/7",
    "10.1.2.0/30",
    "10.0.0.0/10",
    "10.1.0.0/20",
    "10.1.2.0/26",
    "10.64.0.0/10",
    "10.1.2.128/25",
];

#[derive(Clone, Debug)]
enum TrieOp {
    Insert(usize, u8),
    Remove(usize, u8),
    Clear,
}

/// Items from a pool of 4 so one prefix holds several (equal ones too),
/// and removes aim at absent items often.
fn trie_op() -> Gen<TrieOp> {
    let slot = || zip2(range(0usize..TRIE_POOL.len()), range(0u8..4));
    weighted(vec![
        (10, slot().map(|(p, v)| TrieOp::Insert(p, v))),
        (10, slot().map(|(p, v)| TrieOp::Remove(p, v))),
        (1, just(TrieOp::Clear)),
    ])
}

/// The visit sequence of each walk from `q` — for either trie, which
/// share the method names but no trait.
macro_rules! trie_walks {
    ($trie:expr, $q:expr) => {{
        let (mut over, mut desc) = (Vec::new(), Vec::new());
        $trie.for_each_overlapping($q, |v| over.push(*v));
        $trie.for_each_descendant($q, |v| desc.push(*v));
        (over, desc)
    }};
}

/// Non-contiguous destination masks: a rule keyed on one of them is filed
/// in the overlap index's fallback list.
const HOLED_MASKS: [u32; 4] = [0xff00_ff00, 0x00ff_ffff, 0xffff_00ff, 0x8000_0001];

/// Id draws 0..24, so inserts often hit a live id.
const CHURN_IDS: u64 = 24;

/// The id of draw `k`: every fourth far above the rest, so `iter` sorts
/// sparse id sets as well as dense ones.
fn churn_id(k: u64) -> RuleId {
    RuleId(if k % 4 == 3 { k << 40 } else { k })
}

/// A rule key from `TRIE_POOL[p]` in one of four shapes: the prefix
/// (twice as likely), the prefix narrowed to TCP, or its address under a
/// holed mask.
fn churn_key(p: usize, shape: u8) -> TernaryKey {
    let pre: Ipv4Prefix = TRIE_POOL[p].parse().unwrap();
    match shape {
        0 | 1 => pre.to_key(),
        2 => FlowMatch::dst_prefix(pre).with_proto(6).to_key(),
        _ => {
            let mask = HOLED_MASKS[p % HOLED_MASKS.len()];
            TernaryKey::new(u128::from(pre.addr() & mask) << 96, u128::from(mask) << 96)
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum ChurnOp {
    /// Insert under an id draw (live or not): pool prefix, key shape,
    /// priority.
    Insert(u64, usize, u8, u32),
    /// Re-insert the live id at this position (mod the live count) with a
    /// new key and priority.
    Reinsert(usize, usize, u8, u32),
    /// Remove an id draw, live or absent.
    Remove(u64),
    /// Remove the live id at this position (mod the live count).
    RemoveLive(usize),
    /// Remove the live id at this position (mod the live count) and insert
    /// it again with a new key and priority.
    Bounce(usize, usize, u8, u32),
    Clear,
}

/// Priorities from a few values so equal priorities are common.
fn churn_op() -> Gen<ChurnOp> {
    let key = || {
        zip3(
            range(0usize..TRIE_POOL.len()),
            range(0u8..4),
            range(1u32..6),
        )
    };
    weighted(vec![
        (
            10,
            zip2(range(0u64..CHURN_IDS), key())
                .map(|(id, (p, s, pr))| ChurnOp::Insert(id, p, s, pr)),
        ),
        (
            4,
            zip2(range(0usize..64), key()).map(|(k, (p, s, pr))| ChurnOp::Reinsert(k, p, s, pr)),
        ),
        (4, range(0u64..CHURN_IDS + 8).map(ChurnOp::Remove)),
        (4, range(0usize..64).map(ChurnOp::RemoveLive)),
        (
            2,
            zip2(range(0usize..64), key()).map(|(k, (p, s, pr))| ChurnOp::Bounce(k, p, s, pr)),
        ),
        (1, just(ChurnOp::Clear)),
    ])
}

/// `a ∩ b` as one key, when some packet matches both.
fn intersection(a: &TernaryKey, b: &TernaryKey) -> Option<TernaryKey> {
    a.overlaps(b)
        .then(|| TernaryKey::new(a.value() | b.value(), a.mask() | b.mask()))
}

/// Generator: an arbitrary ternary key over a narrow (16-bit) window so
/// exhaustive packet checks stay cheap.
fn small_key() -> Gen<TernaryKey> {
    zip2(arb::<u16>(), arb::<u16>())
        .map(|(v, m)| TernaryKey::new((v as u128) << 96, (m as u128) << 96))
}

/// All packets in the 16-bit window.
fn window_packets() -> impl Iterator<Item = u128> {
    (0u32..=0xffff).map(|v| (v as u128) << 96)
}

/// Generator: an arbitrary IPv4 prefix within 10.0.0.0/8 with length 8..=28.
fn prefix() -> Gen<Ipv4Prefix> {
    zip2(arb::<u32>(), range(8u8..=28))
        .map(|(addr, len)| Ipv4Prefix::new(0x0a00_0000 | (addr >> 8), len))
}

hermes_util::check! {
    #![cases = 256]

    /// `overlaps` is symmetric and consistent with a witness packet search.
    fn overlap_symmetry_and_witness(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        let witness = window_packets().any(|p| a.matches(p) && b.matches(p));
        assert_eq!(a.overlaps(&b), witness);
    }

    /// Containment a ⊇ b ⇔ every packet of b matches a.
    fn containment_is_semantic(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        let semantic = window_packets().all(|p| !b.matches(p) || a.matches(p));
        assert_eq!(a.contains(&b), semantic);
    }

    /// Intersection matches exactly the packets both keys match.
    fn intersection_semantics(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        match intersection(&a, &b) {
            Some(i) => {
                for p in window_packets() {
                    assert_eq!(i.matches(p), a.matches(p) && b.matches(p));
                }
            }
            None => {
                assert!(!a.overlaps(&b));
            }
        }
    }

    /// Difference: pieces are pairwise disjoint and cover exactly `a \ b`.
    fn difference_is_exact_disjoint_cover(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        let pieces = a.difference(&b);
        for p in window_packets() {
            let expect = a.matches(p) && !b.matches(p);
            let n = pieces.iter().filter(|k| k.matches(p)).count();
            assert_eq!(n, usize::from(expect), "packet {:#x}", p);
        }
    }

    /// try_merge result matches exactly the union of its inputs.
    fn merge_is_exact_union(pair in zip2(small_key(), small_key())) {
        let (a, b) = pair;
        if let Some(m) = a.try_merge(&b) {
            for p in window_packets() {
                assert_eq!(m.matches(p), a.matches(p) || b.matches(p));
            }
        }
    }

    /// minimize_keys preserves the matched set and never grows it.
    fn minimize_preserves_union(keys in vec_of(small_key(), 0..12)) {
        let minimized = minimize_keys(keys.clone());
        assert!(minimized.len() <= keys.len().max(1));
        for p in window_packets().step_by(7) {
            let before = keys.iter().any(|k| k.matches(p));
            let after = minimized.iter().any(|k| k.matches(p));
            assert_eq!(before, after, "packet {:#x}", p);
        }
    }

    /// Prefix difference agrees with brute force over the prefix's hosts.
    fn prefix_difference_semantics(pair in zip2(prefix(), prefix())) {
        let (a, b) = pair;
        let pieces = a.difference(&b);
        // Sample addresses inside `a`.
        let span = 32 - a.len();
        for i in 0..256u32 {
            let host = if span >= 8 { i << (span - 8) } else { i & ((1 << span) - 1) };
            let addr = a.addr() | host;
            let expect = a.matches(addr) && !b.matches(addr);
            let got = pieces.iter().filter(|q| q.matches(addr)).count();
            assert_eq!(got, usize::from(expect), "addr {:#x}", addr);
        }
    }

    /// Prefix containment/overlap laws.
    fn prefix_laws(pair in zip2(prefix(), prefix())) {
        let (a, b) = pair;
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        if a.contains(&b) && b.contains(&a) {
            assert_eq!(a, b);
        }
        // Parent always contains child.
        if let Some(parent) = a.parent() {
            assert!(parent.contains(&a));
        }
        if let Some((l, r)) = a.children() {
            assert!(a.contains(&l) && a.contains(&r));
            assert!(!l.overlaps(&r));
        }
    }

    /// The overlap index returns exactly what a naive scan returns, after
    /// random inserts (re-inserts of an id included) and removals; `iter`
    /// walks it in ascending id order and `get` agrees with every rule.
    fn overlap_index_matches_naive(
        prefixes in vec_of(zip3(range(0u64..40), prefix(), range(1u32..100)), 1..40),
        removes in vec_of(range(0u64..40), 0..20),
        query in prefix(),
    ) {
        let mut idx = OverlapIndex::new();
        let mut all: Vec<Rule> = Vec::new();
        for (id, p, prio) in &prefixes {
            let r = Rule::new(*id, p.to_key(), Priority(*prio), Action::Drop);
            idx.insert(r);
            all.retain(|q| q.id != r.id);
            all.push(r);
        }
        for id in removes {
            let want = all.iter().position(|r| r.id.0 == id).map(|i| all.remove(i));
            assert_eq!(idx.remove(RuleId(id)), want);
        }
        all.sort_unstable_by_key(|r| r.id);
        assert_eq!(idx.iter().copied().collect::<Vec<_>>(), all, "iter walks ascending ids");
        assert_eq!(idx.len(), all.len());
        for id in (0..40).map(RuleId) {
            assert_eq!(idx.get(id), all.iter().find(|r| r.id == id).copied());
        }
        let qkey = query.to_key();
        let mut got: Vec<u64> = idx.overlapping(&qkey).iter().map(|r| r.id.0).collect();
        let mut want: Vec<u64> = all
            .iter()
            .filter(|r| r.key.overlaps(&qkey))
            .map(|r| r.id.0)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// optimize_ruleset preserves classification (actions tied to priority
    /// so same-priority overlap is unambiguous).
    fn optimize_ruleset_preserves_semantics(
        prefixes in vec_of(zip2(prefix(), range(1u32..6)), 1..25),
    ) {
        let rules: Vec<Rule> = prefixes
            .iter()
            .enumerate()
            .map(|(i, (p, prio))| {
                Rule::new(i as u64, p.to_key(), Priority(*prio), Action::Forward(prio % 3))
            })
            .collect();
        let optimized = optimize_ruleset(rules.clone());
        assert!(optimized.len() <= rules.len());
        let classify = |set: &[Rule], pkt: u128| {
            set.iter()
                .filter(|r| r.key.matches(pkt))
                .max_by_key(|r| r.priority)
                .map(|r| r.action)
        };
        for i in 0..512u32 {
            let pkt = ((0x0a00_0000u32 | (i.wrapping_mul(2654435761) % (1 << 24))) as u128) << 96;
            assert_eq!(classify(&rules, pkt), classify(&optimized, pkt));
        }
    }

    /// Trie removal really removes (and only removes one occurrence).
    fn trie_insert_remove_roundtrip(items in vec_of(zip2(prefix(), range(0u32..50)), 1..30)) {
        let mut trie = PrefixTrie::new();
        for (p, v) in &items {
            trie.insert(*p, *v);
        }
        assert_eq!(trie.len(), items.len());
        for (p, v) in &items {
            assert!(trie.remove(*p, v));
        }
        assert!(trie.is_empty());
        assert!(trie.check_invariants());
    }

    /// The reclaiming trie answers exactly as the one that never freed a
    /// node: same return values, and after every step the invariants hold
    /// and every walk visits the same items in the same order.
    fn reclaiming_trie_matches_reference(ops in vec_of(trie_op(), 1..200)) {
        let pool: Vec<Ipv4Prefix> = TRIE_POOL.iter().map(|s| s.parse().unwrap()).collect();
        let queries: Vec<Ipv4Prefix> = TRIE_QUERIES
            .iter()
            .map(|s| s.parse().unwrap())
            .chain(pool.iter().copied())
            .collect();
        let mut trie = PrefixTrie::new();
        let mut reference = reference::PrefixTrie::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                TrieOp::Insert(p, v) => {
                    trie.insert(pool[p], v);
                    reference.insert(pool[p], v);
                }
                TrieOp::Remove(p, v) => {
                    assert_eq!(trie.remove(pool[p], &v), reference.remove(pool[p], &v), "step {step}");
                }
                TrieOp::Clear => {
                    trie.clear();
                    reference.clear();
                }
            }
            assert!(trie.check_invariants(), "step {step}: {op:?}");
            assert_eq!((trie.len(), trie.is_empty()), (reference.len(), reference.is_empty()));
            for &q in &queries {
                assert_eq!(trie_walks!(trie, q), trie_walks!(reference, q), "step {step}: {op:?}, query {q}");
            }
        }
    }

    /// The overlap index over its slab and id index answers exactly as the
    /// one that kept every rule in a `BTreeMap` and a trie copy, through
    /// inserts, re-inserts of live ids, removes of live and absent ids, a
    /// live id removed and inserted again, and clears (holed destination
    /// masks included, so the fallback list churns too): after every step
    /// `get`, `contains`, `len` and `is_empty` agree, `overlapping` and
    /// `overlapping_above` return the same rules in the same order for
    /// every query, and the storage invariants hold. `iter` is read only
    /// at about one step in eight and at the end, so the id order the
    /// index keeps between reads sees windows of one change and windows of
    /// churn past the share that drops it.
    fn overlap_index_churn_matches_reference(
        ops in vec_of(zip2(churn_op(), range(0u8..8)), 1..120),
    ) {
        let mut queries: Vec<TernaryKey> = TRIE_QUERIES
            .iter()
            .map(|s| s.parse::<Ipv4Prefix>().unwrap().to_key())
            .collect();
        queries.extend((0..TRIE_POOL.len()).flat_map(|p| [2, 3].map(|s| churn_key(p, s))));
        queries.push(TernaryKey::ANY);
        let mut idx = OverlapIndex::new();
        let mut reference = reference_index::OverlapIndex::new();
        for (step, &(op, read)) in ops.iter().enumerate() {
            let live: Vec<RuleId> = reference.iter().map(|r| r.id).collect();
            let nth_live = |k: usize| (!live.is_empty()).then(|| live[k % live.len()]);
            match op {
                ChurnOp::Insert(k, p, shape, prio) => {
                    let r = Rule::new(churn_id(k).0, churn_key(p, shape), Priority(prio), Action::Forward(k as u32));
                    idx.insert(r);
                    reference.insert(r);
                }
                ChurnOp::Reinsert(k, p, shape, prio) => {
                    if let Some(id) = nth_live(k) {
                        let r = Rule::new(id.0, churn_key(p, shape), Priority(prio), Action::Drop);
                        idx.insert(r);
                        reference.insert(r);
                    }
                }
                ChurnOp::Remove(k) => {
                    assert_eq!(idx.remove(churn_id(k)), reference.remove(churn_id(k)), "step {step}");
                }
                ChurnOp::RemoveLive(k) => {
                    if let Some(id) = nth_live(k) {
                        assert_eq!(idx.remove(id), reference.remove(id), "step {step}");
                    }
                }
                ChurnOp::Bounce(k, p, shape, prio) => {
                    if let Some(id) = nth_live(k) {
                        assert_eq!(idx.remove(id), reference.remove(id), "step {step}");
                        let r = Rule::new(id.0, churn_key(p, shape), Priority(prio), Action::Drop);
                        idx.insert(r);
                        reference.insert(r);
                    }
                }
                ChurnOp::Clear => {
                    idx.clear();
                    reference.clear();
                }
            }
            assert!(idx.check_invariants(), "step {step}: {op:?}");
            assert_eq!((idx.len(), idx.is_empty()), (reference.len(), reference.is_empty()));
            if read == 0 || step + 1 == ops.len() {
                let got: Vec<Rule> = idx.iter().copied().collect();
                assert_eq!(got, reference.iter().collect::<Vec<_>>(), "step {step}");
                assert!(idx.check_invariants(), "step {step}: after the read");
            }
            for id in (0..CHURN_IDS + 8).map(churn_id) {
                assert_eq!(idx.get(id), reference.get(id), "step {step}: {id}");
                assert_eq!(idx.contains(id), reference.contains(id), "step {step}: {id}");
            }
            for q in &queries {
                assert_eq!(idx.overlapping(q), reference.overlapping(q), "step {step}: {op:?}, {q:?}");
                for below in [Priority::NONE, Priority(3)] {
                    assert_eq!(
                        idx.overlapping_above(q, below),
                        reference.overlapping_above(q, below),
                        "step {step}: {op:?}, {q:?} above {below:?}"
                    );
                }
            }
        }
    }
}

//! Binary prefix trie, path compressed.
//!
//! The overlap-detection index stores every rule under its destination
//! prefix in a binary trie. For prefixes, *overlap implies containment one
//! way or the other*, so all prefixes overlapping a query `q` are found on
//! the root-to-`q` path (ancestors of `q`) plus in the subtree rooted at `q`
//! (descendants). This turns the O(n) scan of Algorithm 1's overlap
//! detection into an output-sensitive walk — one of the "efficient data
//! structures" §3 calls for.
//!
//! **Only nodes that hold items or branch exist.** A node stores its own
//! prefix, so a child may sit any number of bits below its parent: the
//! chain of itemless one-child nodes a plain binary trie keeps between
//! them is left out. Every non-root node holds items or has two children,
//! and a child's prefix is strictly longer than its parent's, lies inside
//! it, and sits on the side its bit at depth `parent.len` names. So an
//! insert adds at most two nodes (the leaf, and a fork where it leaves an
//! edge part-way) and a remove frees at most two (the emptied node, and a
//! parent left itemless with one child, which is spliced out). With P
//! distinct live prefixes, at most P nodes hold items and each itemless
//! non-root node is one of the fewer-than-P binary forks between them, so
//! at most 2P − 1 non-root nodes are reachable.
//!
//! **Storage is bounded by the live prefixes.** Nodes live in one array,
//! slot 0 the root (`0.0.0.0/0`). A freed node is reset and its slot put on
//! a free list that inserts draw from before the array grows, so the array
//! grows only while every slot is reachable and never holds more than
//! 2P slots at its high-water mark. There is no compaction pass.
//!
//! **Visit order is structural.** Every walk goes root-to-node by address
//! bits and the descendant walk is a depth-first search that visits a
//! node's items in storage order and then child 1's subtree before child
//! 0's. None of that reads a slot number, so which slots a node happens to
//! occupy — fresh or reused — cannot change what a query visits or in what
//! order; and a node the compression leaves out would have held no items,
//! so skipping it skips nothing.

use crate::prefix::Ipv4Prefix;
use std::num::NonZeroU32;

/// The most a descendant walk's stack ever holds. Each level down is at
/// least one bit longer, so a node with children sits at most 31 levels
/// below the walk's start; when it is popped the stack holds at most one
/// pending sibling per level above it, and it pushes two.
const STACK_SLOTS: usize = 33;

/// One trie node: 40 bytes.
#[derive(Debug)]
struct Node<T> {
    items: Vec<T>,
    /// Child slots by the address bit at depth `prefix.len()`. Slot 0 is
    /// the root and is never a child, so `NonZeroU32` leaves room for the
    /// `None` niche.
    children: [Option<NonZeroU32>; 2],
    /// The prefix this node stands for (`0.0.0.0/0` on the root and on a
    /// freed node).
    prefix: Ipv4Prefix,
}

impl<T> Node<T> {
    fn new(prefix: Ipv4Prefix) -> Self {
        Node {
            items: Vec::new(),
            children: [None, None],
            prefix,
        }
    }
}

/// A binary trie mapping [`Ipv4Prefix`]es to collections of items.
///
/// Multiple items may live under the same prefix (rules with different
/// priorities or actions frequently share a match).
#[derive(Debug)]
pub struct PrefixTrie<T> {
    // INVARIANT: reclamation keeps `nodes.len()` ≤ 2 × `len` + 1 at its
    // high-water mark, so slot numbers fit `u32` for any table this
    // indexes, far below `u32::MAX`.
    nodes: Vec<Node<T>>,
    /// Slots of freed nodes, each reset; reused before `nodes` grows.
    free: Vec<NonZeroU32>,
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
            nodes: vec![Node::new(Ipv4Prefix::DEFAULT)],
            free: Vec::new(),
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
        self.nodes.push(Node::new(Ipv4Prefix::DEFAULT));
        self.free.clear();
        self.len = 0;
    }

    /// The bit of `addr` at depth `depth` (0 = most significant).
    fn bit(addr: u32, depth: u8) -> usize {
        ((addr >> (31 - depth)) & 1) as usize
    }

    /// The slot of `idx`'s child on side `b`, if any.
    fn child(&self, idx: usize, b: usize) -> Option<usize> {
        self.nodes[idx].children[b].map(|c| c.get() as usize)
    }

    /// A node for `prefix` with no items or children: a freed slot if any,
    /// else a new one at the end.
    fn alloc(&mut self, prefix: Ipv4Prefix) -> NonZeroU32 {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot.get() as usize].prefix = prefix;
            return slot;
        }
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .and_then(NonZeroU32::new)
            .expect(
                "INVARIANT: the root holds slot 0 and the node bound keeps slots below u32::MAX",
            );
        self.nodes.push(Node::new(prefix));
        slot
    }

    /// Resets the node at `slot` (never the root) and puts it on the free
    /// list.
    fn release(&mut self, slot: usize) {
        self.nodes[slot] = Node::new(Ipv4Prefix::DEFAULT);
        self.free.push(
            NonZeroU32::new(slot as u32).expect("INVARIANT: only child slots are freed, never 0"),
        );
    }

    /// Allocates a node for `prefix` and links it as `parent`'s child on
    /// side `b`, returning its slot.
    fn attach(&mut self, parent: usize, b: usize, prefix: Ipv4Prefix) -> usize {
        let slot = self.alloc(prefix);
        self.nodes[parent].children[b] = Some(slot);
        slot.get() as usize
    }

    /// Inserts `item` under `prefix`, adding its node — and a fork where
    /// it leaves an edge part-way — if missing.
    pub fn insert(&mut self, prefix: Ipv4Prefix, item: T) {
        let mut idx = 0;
        // Loop invariant: the node at `idx` contains `prefix`.
        while self.nodes[idx].prefix.len() < prefix.len() {
            let depth = self.nodes[idx].prefix.len();
            let b = Self::bit(prefix.addr(), depth);
            let Some(c) = self.nodes[idx].children[b] else {
                idx = self.attach(idx, b, prefix);
                break;
            };
            let below = self.nodes[c.get() as usize].prefix;
            if below.contains(&prefix) {
                idx = c.get() as usize;
                continue;
            }
            // `prefix` leaves the edge to `c` part-way or ends on it: a fork
            // at the longest prefix of both takes `c` on its side and,
            // unless the fork is `prefix` itself, a new leaf on the other.
            let fork = Ipv4Prefix::new(prefix.addr(), common_len(below, prefix));
            let mid = self.attach(idx, b, fork);
            self.nodes[mid].children[Self::bit(below.addr(), fork.len())] = Some(c);
            idx = if fork == prefix {
                mid
            } else {
                self.attach(mid, Self::bit(prefix.addr(), fork.len()), prefix)
            };
            break;
        }
        self.nodes[idx].items.push(item);
        self.len += 1;
    }

    /// Follows `prefix`'s bits down from the root, handing every node
    /// whose prefix strictly contains `prefix` to `above` (root first).
    /// Returns the topmost node inside `prefix` — its own node if there is
    /// one — or `None` when no node lies inside it.
    fn descend<'a>(
        &'a self,
        prefix: Ipv4Prefix,
        mut above: impl FnMut(&'a Node<T>),
    ) -> Option<usize> {
        let mut idx = 0;
        // Loop invariant: the node at `idx` overlaps `prefix`, so it lies
        // inside `prefix` exactly when it is at least as long.
        loop {
            let node = &self.nodes[idx];
            if node.prefix.len() >= prefix.len() {
                return Some(idx);
            }
            above(node);
            let c = self.child(idx, Self::bit(prefix.addr(), node.prefix.len()))?;
            let below = self.nodes[c].prefix;
            if common_len(below, prefix) < below.len().min(prefix.len()) {
                return None;
            }
            idx = c;
        }
    }

    /// The items stored exactly at `prefix`, in storage order.
    pub fn items_at(&self, prefix: Ipv4Prefix) -> &[T] {
        match self.descend(prefix, |_| {}) {
            Some(idx) if self.nodes[idx].prefix == prefix => &self.nodes[idx].items,
            _ => &[],
        }
    }

    /// Visits every item whose prefix is *contained in* the query
    /// (descendants, including the query node itself).
    pub fn for_each_descendant<'a>(&'a self, prefix: Ipv4Prefix, f: impl FnMut(&'a T)) {
        if let Some(start) = self.descend(prefix, |_| {}) {
            self.for_each_in_subtree(start, f);
        }
    }

    /// Visits every item whose prefix overlaps the query. For prefixes this
    /// is exactly ancestors ∪ descendants; the query node itself is visited
    /// once.
    pub fn for_each_overlapping<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a T)) {
        // Ancestors strictly above the query on the way down, then the
        // subtree under it (which holds the query node's own items).
        let below = self.descend(prefix, |node| node.items.iter().for_each(&mut f));
        if let Some(start) = below {
            self.for_each_in_subtree(start, f);
        }
    }

    /// Visits the items of the subtree at `start` depth-first: a node's
    /// items in storage order, then child 1's subtree, then child 0's.
    fn for_each_in_subtree<'a>(&'a self, start: usize, mut f: impl FnMut(&'a T)) {
        // `remove` leaves no empty subtree below the root: no node to skip.
        let mut stack = [0usize; STACK_SLOTS];
        stack[0] = start;
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top]];
            for item in &node.items {
                f(item);
            }
            for child in node.children.into_iter().flatten() {
                stack[top] = child.get() as usize;
                top += 1;
            }
        }
    }

    /// Collects overlapping items into a vector (convenience wrapper).
    pub fn overlapping(&self, prefix: Ipv4Prefix) -> Vec<&T> {
        let mut out = Vec::new();
        self.for_each_overlapping(prefix, |t| out.push(t));
        // Rebind to drop the closure borrow.
        out
    }

    /// Checks the structural invariants (debug aid / property tests): the
    /// root is `0.0.0.0/0`; every reachable itemless non-root node has two
    /// children; every child is strictly inside its parent, on the side
    /// its bit at the parent's length names; the reachable items number
    /// `len`; and the reachable nodes and the free list partition the
    /// array, with freed slots reset.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let (mut reachable, mut items) = (0, 0);
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            if seen[idx] {
                return false;
            }
            seen[idx] = true;
            reachable += 1;
            let node = &self.nodes[idx];
            items += node.items.len();
            let branches = node.children.iter().flatten().count();
            if idx != 0 && node.items.is_empty() && branches != 2 {
                return false;
            }
            for (side, c) in node.children.into_iter().enumerate() {
                let Some(c) = c else { continue };
                let c = c.get() as usize;
                let Some(child) = self.nodes.get(c) else {
                    return false;
                };
                let (parent, inner) = (node.prefix, child.prefix);
                if inner.len() <= parent.len()
                    || !parent.contains(&inner)
                    || Self::bit(inner.addr(), parent.len()) != side
                {
                    return false;
                }
                stack.push(c);
            }
        }
        for slot in &self.free {
            let slot = slot.get() as usize;
            match (self.nodes.get(slot), seen.get_mut(slot)) {
                (Some(node), Some(seen)) if !*seen => {
                    *seen = true;
                    if !node.items.is_empty()
                        || node.children != [None, None]
                        || node.prefix != Ipv4Prefix::DEFAULT
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        self.nodes[0].prefix == Ipv4Prefix::DEFAULT
            && reachable + self.free.len() == self.nodes.len()
            && items == self.len
    }
}

impl<T: PartialEq> PrefixTrie<T> {
    /// Removes one occurrence of `item` stored under `prefix`. Returns
    /// `true` when found.
    ///
    /// One walk down keeps the node's parent and grandparent. A non-root
    /// node left itemless goes if it has fewer than two children: with
    /// none it is unlinked, with one its child takes its place. Unlinking
    /// can leave the parent itemless with one child, and then the parent
    /// is spliced out the same way. So at most two nodes are freed.
    pub fn remove(&mut self, prefix: Ipv4Prefix, item: &T) -> bool {
        let (mut grand, mut parent, mut idx) = (0, 0, 0);
        // Loop invariant: the node at `idx` contains `prefix`.
        while self.nodes[idx].prefix.len() < prefix.len() {
            let b = Self::bit(prefix.addr(), self.nodes[idx].prefix.len());
            match self.child(idx, b) {
                Some(c) if self.nodes[c].prefix.contains(&prefix) => {
                    (grand, parent, idx) = (parent, idx, c);
                }
                _ => return false,
            }
        }
        let node = &mut self.nodes[idx];
        let Some(pos) = node.items.iter().position(|i| i == item) else {
            return false;
        };
        node.items.swap_remove(pos);
        self.len -= 1;
        if idx == 0 || !node.items.is_empty() {
            return true;
        }
        let side = Self::bit(prefix.addr(), self.nodes[parent].prefix.len());
        match self.nodes[idx].children {
            [Some(_), Some(_)] => return true,
            [Some(only), None] | [None, Some(only)] => {
                self.nodes[parent].children[side] = Some(only);
            }
            [None, None] => {
                self.nodes[parent].children[side] = None;
                if parent != 0 && self.nodes[parent].items.is_empty() {
                    let [a, b] = self.nodes[parent].children;
                    let up = Self::bit(prefix.addr(), self.nodes[grand].prefix.len());
                    self.nodes[grand].children[up] = a.or(b);
                    self.release(parent);
                }
            }
        }
        self.release(idx);
        true
    }
}

/// The length of the longest prefix containing both `a` and `b`.
fn common_len(a: Ipv4Prefix, b: Ipv4Prefix) -> u8 {
    let agree = (a.addr() ^ b.addr()).leading_zeros() as u8;
    agree.min(a.len()).min(b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn insert_and_query_at() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1u32);
        t.insert(p("10.0.0.0/8"), 2);
        t.insert(p("10.1.0.0/16"), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(t.items_at(p("10.0.0.0/8")), &[1, 2]);
        assert_eq!(t.items_at(p("10.1.0.0/16")), &[3]);
        assert!(t.items_at(p("10.2.0.0/16")).is_empty());
    }

    #[test]
    fn overlapping_finds_ancestors_and_descendants() {
        let mut t = PrefixTrie::new();
        t.insert(Ipv4Prefix::DEFAULT, "default");
        t.insert(p("10.0.0.0/8"), "ten8");
        t.insert(p("10.1.0.0/16"), "ten1-16");
        t.insert(p("10.1.2.0/24"), "ten12-24");
        t.insert(p("11.0.0.0/8"), "eleven");

        let mut got: Vec<&str> = t
            .overlapping(p("10.1.0.0/16"))
            .into_iter()
            .copied()
            .collect();
        got.sort();
        assert_eq!(got, vec!["default", "ten1-16", "ten12-24", "ten8"]);

        let got2: Vec<&str> = t
            .overlapping(p("12.0.0.0/8"))
            .into_iter()
            .copied()
            .collect();
        assert_eq!(got2, vec!["default"]);
    }

    #[test]
    fn query_node_items_reported_once() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 42u32);
        let hits = t.overlapping(p("10.0.0.0/8"));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn remove_works_and_fixes_counters() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 1u32);
        t.insert(p("10.1.0.0/16"), 2);
        assert!(t.remove(p("10.0.0.0/8"), &1));
        assert!(!t.remove(p("10.0.0.0/8"), &1));
        assert_eq!(t.len(), 1);
        let got: Vec<u32> = t
            .overlapping(p("10.0.0.0/8"))
            .into_iter()
            .copied()
            .collect();
        assert_eq!(got, vec![2]);
        assert!(t.check_invariants());
    }

    #[test]
    fn ancestor_descendant_split() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.0.0.0/8"), 'a');
        t.insert(p("10.1.0.0/16"), 'b');
        t.insert(p("10.1.2.0/24"), 'c');

        // Ancestors: the items above the query on the way down, then its own.
        let mut anc: Vec<char> = Vec::new();
        t.descend(p("10.1.0.0/16"), |node| anc.extend(&node.items));
        anc.extend(t.items_at(p("10.1.0.0/16")));
        assert_eq!(anc, vec!['a', 'b']);

        let mut desc = Vec::new();
        t.for_each_descendant(p("10.1.0.0/16"), |x| desc.push(*x));
        desc.sort();
        assert_eq!(desc, vec!['b', 'c']);
    }

    #[test]
    fn clear_resets() {
        let mut t = PrefixTrie::new();
        for i in 0..100u32 {
            t.insert(Ipv4Prefix::new(i << 8, 24), i);
        }
        assert!(t.remove(Ipv4Prefix::new(0, 24), &0));
        assert!(!t.free.is_empty());
        assert_eq!(t.len(), 99);
        t.clear();
        assert!(t.is_empty());
        assert!(t.free.is_empty() && t.nodes.len() == 1);
        assert!(t.check_invariants());
        assert!(t.overlapping(Ipv4Prefix::DEFAULT).is_empty());
    }

    #[test]
    fn nodes_are_40_bytes() {
        assert_eq!(std::mem::size_of::<Node<u64>>(), 40);
    }

    #[test]
    fn removing_the_last_item_prunes_back_to_the_root() {
        let mut t = PrefixTrie::new();
        t.insert(p("10.1.2.0/24"), 1u32);
        // The /16 lands on the edge to the /24 and becomes its parent.
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.nodes.len(), 3);
        // The sibling /24 splits the edge below the /16 at a /23 fork.
        t.insert(p("10.1.3.0/24"), 3);
        assert_eq!(t.nodes.len(), 5);
        assert!(t.check_invariants());
        // Its leaf goes, and the fork, left itemless with one child, is
        // spliced out: the /16's child is the other /24 again.
        assert!(t.remove(p("10.1.3.0/24"), &3));
        assert_eq!(t.free.len(), 2);
        assert_eq!(t.nodes[t.child(0, 0).unwrap()].prefix, p("10.1.0.0/16"));
        assert!(t.check_invariants());
        // The /16 still holds an item: only the /24 below it goes.
        assert!(t.remove(p("10.1.2.0/24"), &1));
        assert_eq!(t.free.len(), 3);
        assert!(t.check_invariants());
        assert!(t.remove(p("10.1.0.0/16"), &2));
        assert_eq!(t.free.len(), 4);
        assert_eq!(t.nodes[0].children, [None, None]);
        assert!(t.check_invariants());
        // The next insert reuses a freed slot instead of growing the array.
        t.insert(p("192.168.0.0/16"), 3);
        assert_eq!((t.nodes.len(), t.free.len()), (5, 3));
        assert!(t.check_invariants());
    }

    #[test]
    fn churn_keeps_the_array_bounded_by_live_prefixes() {
        // 100 000 distinct /24s pass through the trie, at most 8 live at a
        // time: the array must stay within the root plus 2 × 8 − 1 slots.
        let mut t = PrefixTrie::new();
        let mut x: u32 = 0x2545_f491;
        let mut live = std::collections::VecDeque::new();
        for i in 0..100_000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let pre = Ipv4Prefix::new(x, 24);
            if live.len() == 8 {
                let (old, id) = live.pop_front().unwrap();
                assert!(t.remove(old, &id));
            }
            t.insert(pre, i);
            live.push_back((pre, i));
            assert!(t.nodes.len() <= 2 * 8, "step {i}: {} slots", t.nodes.len());
        }
        assert!(t.check_invariants());
        for (pre, id) in live {
            assert!(t.remove(pre, &id));
        }
        assert!(t.is_empty());
        assert_eq!(t.free.len(), t.nodes.len() - 1);
        assert!(t.check_invariants());
    }

    #[test]
    fn dense_random_consistency_with_naive_scan() {
        use std::collections::BTreeSet;
        let mut t = PrefixTrie::new();
        let mut all: Vec<(Ipv4Prefix, u32)> = Vec::new();
        // Deterministic pseudo-random prefixes.
        let mut x: u32 = 0x9e3779b9;
        for i in 0..500u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let len = (x % 25) as u8 + 8;
            let pre = Ipv4Prefix::new(x, len);
            t.insert(pre, i);
            all.push((pre, i));
        }
        for &(q, _) in all.iter().step_by(37) {
            let via_trie: BTreeSet<u32> = t.overlapping(q).into_iter().copied().collect();
            let via_scan: BTreeSet<u32> = all
                .iter()
                .filter(|(p, _)| p.overlaps(&q))
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(via_trie, via_scan, "query {q}");
        }
    }
}

//! Binary prefix trie.
//!
//! The overlap-detection index stores every rule under its destination
//! prefix in a binary trie. For prefixes, *overlap implies containment one
//! way or the other*, so all prefixes overlapping a query `q` are found on
//! the root-to-`q` path (ancestors of `q`) plus in the subtree rooted at `q`
//! (descendants). This turns the O(n) scan of Algorithm 1's overlap
//! detection into an output-sensitive walk — one of the "efficient data
//! structures" §3 calls for.
//!
//! **Storage is bounded by the live prefixes.** Nodes live in one array,
//! slot 0 the root. [`PrefixTrie::remove`] gives back every non-root node
//! whose subtree it empties: the node is unlinked, reset and its slot put
//! on a free list that inserts draw from before the array grows. So every
//! reachable non-root node has at least one item below it, and the array
//! never holds more than 1 + Σ (lengths of the distinct live prefixes)
//! slots at its high-water mark — it follows the rules that are installed,
//! not the history of every prefix ever installed. There is no compaction
//! pass.
//!
//! **Visit order is structural.** Every walk goes root-to-node by address
//! bits and the descendant walk is a depth-first search that visits a
//! node's items in storage order and then child 1's subtree before child
//! 0's. None of that reads a slot number, so which slots a node happens to
//! occupy — fresh or reused — cannot change what a query visits or in what
//! order; a pruned node held no items and is skipped exactly as a walk
//! skips an absent one.

use crate::prefix::Ipv4Prefix;
use std::num::NonZeroU32;

/// Slots on a root-to-node path (the root plus one per level down to a
/// `/32`) — also the most a descendant walk's stack ever holds: one
/// pending sibling per depth, plus two at the deepest, `/32` nodes having
/// no children.
const PATH_SLOTS: usize = 33;

/// One trie node: 40 bytes.
#[derive(Debug)]
struct Node<T> {
    items: Vec<T>,
    /// Child slots by address bit. Slot 0 is the root and is never a
    /// child, so `NonZeroU32` leaves room for the `None` niche.
    children: [Option<NonZeroU32>; 2],
    /// Number of items stored in this node's entire subtree (including the
    /// node itself). Never 0 on a reachable non-root node.
    subtree_items: u32,
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

/// A binary trie mapping [`Ipv4Prefix`]es to collections of items.
///
/// Multiple items may live under the same prefix (rules with different
/// priorities or actions frequently share a match).
#[derive(Debug)]
pub struct PrefixTrie<T> {
    // INVARIANT: reclamation keeps `nodes.len()` ≤ 1 + 32 × `len` at its
    // high-water mark, so slot numbers fit `u32` (and subtree counts, at
    // most `len`, too) for any table this indexes, far below `u32::MAX`.
    nodes: Vec<Node<T>>,
    /// Slots of pruned nodes, each reset; reused before `nodes` grows.
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
            nodes: vec![Node::new()],
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
        self.nodes.push(Node::new());
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

    /// A reset node's slot: a freed one if any, else a new one at the end.
    fn alloc(&mut self) -> NonZeroU32 {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .and_then(NonZeroU32::new)
            .expect(
                "INVARIANT: the root holds slot 0 and the node bound keeps slots below u32::MAX",
            );
        self.nodes.push(Node::new());
        slot
    }

    /// Inserts `item` under `prefix`, creating the path's missing nodes.
    pub fn insert(&mut self, prefix: Ipv4Prefix, item: T) {
        let mut idx = 0;
        for depth in 0..prefix.len() {
            self.nodes[idx].subtree_items += 1;
            let b = Self::bit(prefix.addr(), depth);
            idx = match self.child(idx, b) {
                Some(c) => c,
                None => {
                    let c = self.alloc();
                    self.nodes[idx].children[b] = Some(c);
                    c.get() as usize
                }
            };
        }
        let node = &mut self.nodes[idx];
        node.subtree_items += 1;
        node.items.push(item);
        self.len += 1;
    }

    /// Walks to the node for `prefix` without creating nodes.
    fn walk(&self, prefix: Ipv4Prefix) -> Option<usize> {
        let mut idx = 0;
        for depth in 0..prefix.len() {
            idx = self.child(idx, Self::bit(prefix.addr(), depth))?;
        }
        Some(idx)
    }

    /// Visits every item stored exactly at `prefix`.
    pub fn items_at(&self, prefix: Ipv4Prefix) -> &[T] {
        match self.walk(prefix) {
            Some(idx) => &self.nodes[idx].items,
            None => &[],
        }
    }

    /// Visits every item whose prefix *contains* the query (ancestors,
    /// including the query node itself).
    pub fn for_each_ancestor<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a T)) {
        let mut idx = 0;
        for depth in 0..prefix.len() {
            for item in &self.nodes[idx].items {
                f(item);
            }
            match self.child(idx, Self::bit(prefix.addr(), depth)) {
                Some(c) => idx = c,
                None => return,
            }
        }
        for item in &self.nodes[idx].items {
            f(item);
        }
    }

    /// Visits every item whose prefix is *contained in* the query
    /// (descendants, including the query node itself).
    pub fn for_each_descendant<'a>(&'a self, prefix: Ipv4Prefix, mut f: impl FnMut(&'a T)) {
        let Some(start) = self.walk(prefix) else {
            return;
        };
        // `remove` leaves no empty subtree below the root: no node to skip.
        let mut stack = [0usize; PATH_SLOTS];
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
            match self.child(idx, Self::bit(prefix.addr(), depth)) {
                Some(c) => idx = c,
                None => return,
            }
        }
        self.for_each_descendant(prefix, f);
    }

    /// Collects overlapping items into a vector (convenience wrapper).
    pub fn overlapping(&self, prefix: Ipv4Prefix) -> Vec<&T> {
        let mut out = Vec::new();
        self.for_each_overlapping(prefix, |t| out.push(t));
        // Rebind to drop the closure borrow.
        out
    }

    /// Checks the structural invariants (debug aid / property tests):
    /// every reachable non-root node has items below it, each node's
    /// `subtree_items` is its own items plus its children's counts, the
    /// reachable nodes and the free list partition the array with freed
    /// slots reset, and `len` is the root's count.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut reachable = 0;
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            if seen[idx] {
                return false;
            }
            seen[idx] = true;
            reachable += 1;
            let node = &self.nodes[idx];
            if idx != 0 && node.subtree_items == 0 {
                return false;
            }
            let mut sum = node.items.len();
            for c in node.children.into_iter().flatten() {
                let c = c.get() as usize;
                let Some(child) = self.nodes.get(c) else {
                    return false;
                };
                sum += child.subtree_items as usize;
                stack.push(c);
            }
            if sum != node.subtree_items as usize {
                return false;
            }
        }
        for slot in &self.free {
            let slot = slot.get() as usize;
            match (self.nodes.get(slot), seen.get_mut(slot)) {
                (Some(node), Some(seen)) if !*seen => {
                    *seen = true;
                    if !node.items.is_empty()
                        || node.children != [None, None]
                        || node.subtree_items != 0
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        reachable + self.free.len() == self.nodes.len()
            && self.len == self.nodes[0].subtree_items as usize
    }
}

impl<T: PartialEq> PrefixTrie<T> {
    /// Removes one occurrence of `item` stored under `prefix`. Returns
    /// `true` when found.
    ///
    /// One walk down records the root-to-node path; the counts along it are
    /// then decremented bottom-up. Counts never grow going down a path, so
    /// the nodes this removal empties are a suffix of it: the topmost is
    /// unlinked from its parent and every one of them (never the root) is
    /// reset and its slot freed for the next insert.
    pub fn remove(&mut self, prefix: Ipv4Prefix, item: &T) -> bool {
        let depth = prefix.len() as usize;
        let mut path = [0usize; PATH_SLOTS];
        for d in 0..depth {
            match self.child(path[d], Self::bit(prefix.addr(), d as u8)) {
                Some(c) => path[d + 1] = c,
                None => return false,
            }
        }
        let node = &mut self.nodes[path[depth]];
        let Some(pos) = node.items.iter().position(|i| i == item) else {
            return false;
        };
        node.items.swap_remove(pos);
        self.len -= 1;
        let mut emptied = depth + 1;
        for d in (0..=depth).rev() {
            let node = &mut self.nodes[path[d]];
            node.subtree_items -= 1;
            if node.subtree_items == 0 && d > 0 {
                emptied = d;
            }
        }
        if emptied <= depth {
            let b = Self::bit(prefix.addr(), (emptied - 1) as u8);
            self.nodes[path[emptied - 1]].children[b] = None;
            for &slot in &path[emptied..=depth] {
                self.nodes[slot] = Node::new();
                self.free.push(
                    NonZeroU32::new(slot as u32)
                        .expect("INVARIANT: a path slot below the root is a child slot, never 0"),
                );
            }
        }
        true
    }
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

        let mut anc = Vec::new();
        t.for_each_ancestor(p("10.1.0.0/16"), |x| anc.push(*x));
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
        t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.nodes.len(), 25);
        // The /16 still holds an item: only the 8 nodes below it go.
        assert!(t.remove(p("10.1.2.0/24"), &1));
        assert_eq!(t.free.len(), 8);
        assert!(t.check_invariants());
        assert!(t.remove(p("10.1.0.0/16"), &2));
        assert_eq!(t.free.len(), 24);
        assert_eq!(t.nodes[0].children, [None, None]);
        assert!(t.check_invariants());
        // The next insert reuses freed slots instead of growing the array.
        t.insert(p("192.168.0.0/16"), 3);
        assert_eq!((t.nodes.len(), t.free.len()), (25, 8));
        assert!(t.check_invariants());
    }

    #[test]
    fn churn_keeps_the_array_bounded_by_live_prefixes() {
        // 100 000 distinct /24s pass through the trie, at most 8 live at a
        // time: the array must stay within 1 + 8 × 24 slots.
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
            assert!(
                t.nodes.len() <= 1 + 8 * 24,
                "step {i}: {} slots",
                t.nodes.len()
            );
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
        use std::collections::HashSet;
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
            let via_trie: HashSet<u32> = t.overlapping(q).into_iter().copied().collect();
            let via_scan: HashSet<u32> = all
                .iter()
                .filter(|(p, _)| p.overlaps(&q))
                .map(|&(_, i)| i)
                .collect();
            assert_eq!(via_trie, via_scan, "query {q}");
        }
    }
}

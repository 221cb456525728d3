//! Binary prefix trie, path compressed, in one array of compact nodes.
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
//! **Compact nodes, items inline.** Nodes live in one array, slot 0 the
//! root (`0.0.0.0/0`). A node holds its prefix, its two child slots, its
//! parent's slot and its first item: 32 bytes for `u32` items, and no heap
//! allocation of its own. A node's second and later items sit in one
//! overflow pool that all nodes share, as a ring the node names by its
//! last entry. The items at a node keep the order a `Vec` would give them:
//! an insert appends, and a removal moves the last item into the removed
//! one's place, as `Vec::swap_remove` does.
//!
//! **A removal starts at the node.** [`insert`](PrefixTrie::insert)
//! returns the node it filed the item at as a [`Handle`]. A node that
//! holds items is never freed or moved, so the handle names that node for
//! as long as the item stays filed. [`remove`](PrefixTrie::remove) goes
//! straight there and prunes upward through the parent links: it reads at
//! most four nodes, however deep the node sits.
//!
//! **Storage is bounded by the live prefixes.** A freed node is reset and
//! its slot put on a free list that inserts draw from before the array
//! grows, so the array grows only while every slot is reachable and never
//! holds more than 2P slots at its high-water mark. A freed overflow entry
//! goes on the pool's own free chain the same way, so the pool never holds
//! more entries than the live items at its high-water mark. There is no
//! compaction pass.
//!
//! **Visit order is structural.** Every walk goes root-to-node by address
//! bits and the descendant walk is a depth-first search that visits a
//! node's items in storage order and then child 1's subtree before child
//! 0's. None of that reads a slot number, so which slots a node or an
//! overflow entry happens to occupy — fresh or reused — cannot change what
//! a query visits or in what order; and a node the compression leaves out
//! would have held no items, so skipping it skips nothing.

use crate::prefix::Ipv4Prefix;
use std::num::NonZeroU32;

/// The most a descendant walk's stack ever holds. Each level down is at
/// least one bit longer, so a node with children sits at most 31 levels
/// below the walk's start; when it is popped the stack holds at most one
/// pending sibling per level above it, and it pushes two.
const STACK_SLOTS: usize = 33;

/// No overflow entry: a node with at most one item, or the end of the
/// pool's free chain.
const NIL: u32 = u32::MAX;

/// The node [`PrefixTrie::insert`] filed an item at. It names that node
/// for as long as the item stays filed; what it names after the item is
/// removed is unspecified.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Handle(u32);

/// One trie node: 32 bytes for `u32` items.
#[derive(Debug)]
struct Node<T> {
    /// The prefix this node stands for (`0.0.0.0/0` on the root and on a
    /// freed node).
    prefix: Ipv4Prefix,
    /// Child slots by the address bit at depth `prefix.len()`. Slot 0 is
    /// the root and is never a child, so `NonZeroU32` leaves room for the
    /// `None` niche.
    children: [Option<NonZeroU32>; 2],
    /// The parent's slot (0 on the root and on a freed node).
    parent: u32,
    /// The pool entry of the node's last item when it has two or more,
    /// else `NIL`. The entries after `first` form a ring: each entry's
    /// `next` is the following item's, and the last one's the second
    /// item's.
    last: u32,
    /// The node's first item; `None` exactly when it holds none.
    first: Option<T>,
}

impl<T> Node<T> {
    fn new(prefix: Ipv4Prefix, parent: u32) -> Self {
        Node {
            prefix,
            children: [None, None],
            parent,
            last: NIL,
            first: None,
        }
    }
}

/// A second or later item of a node, in the overflow pool.
#[derive(Debug)]
struct Extra<T> {
    item: T,
    /// The next entry of the node's ring, or of the pool's free chain.
    next: u32,
}

/// A binary trie mapping [`Ipv4Prefix`]es to collections of items.
///
/// Multiple items may live under the same prefix (rules with different
/// priorities or actions frequently share a match).
#[derive(Debug)]
pub struct PrefixTrie<T> {
    // INVARIANT: reclamation keeps `nodes.len()` ≤ 2 × `len` + 1 and
    // `pool.len()` ≤ `len` at their high-water marks, so slot numbers fit
    // `u32` for any table this indexes, far below `u32::MAX`.
    nodes: Vec<Node<T>>,
    /// Slots of freed nodes, each reset; reused before `nodes` grows.
    free: Vec<NonZeroU32>,
    /// Every node's items past its first.
    pool: Vec<Extra<T>>,
    /// The first free pool entry, the rest chained through `next`; `NIL`
    /// when none is free. A free entry keeps its stale item until reused.
    spare: u32,
    len: usize,
    /// Nodes the removals have read since the trie was built.
    #[cfg(test)]
    pub(crate) removal_reads: u64,
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
            nodes: vec![Node::new(Ipv4Prefix::DEFAULT, 0)],
            free: Vec::new(),
            pool: Vec::new(),
            spare: NIL,
            len: 0,
            #[cfg(test)]
            removal_reads: 0,
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
        self.nodes.push(Node::new(Ipv4Prefix::DEFAULT, 0));
        self.free.clear();
        self.pool.clear();
        self.spare = NIL;
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

    /// A node for `prefix` under `parent` with no items or children: a
    /// freed slot if any, else a new one at the end.
    fn alloc(&mut self, prefix: Ipv4Prefix, parent: usize) -> NonZeroU32 {
        let parent = parent as u32;
        if let Some(slot) = self.free.pop() {
            let node = &mut self.nodes[slot.get() as usize];
            (node.prefix, node.parent) = (prefix, parent);
            return slot;
        }
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .and_then(NonZeroU32::new)
            .expect(
                "INVARIANT: the root holds slot 0 and the node bound keeps slots below u32::MAX",
            );
        self.nodes.push(Node::new(prefix, parent));
        slot
    }

    /// Resets the node at `slot` (never the root) and puts it on the free
    /// list.
    fn release(&mut self, slot: usize) {
        self.nodes[slot] = Node::new(Ipv4Prefix::DEFAULT, 0);
        self.free.push(
            NonZeroU32::new(slot as u32).expect("INVARIANT: only child slots are freed, never 0"),
        );
    }

    /// Allocates a node for `prefix` and links it as `parent`'s child on
    /// side `b`, returning its slot.
    fn attach(&mut self, parent: usize, b: usize, prefix: Ipv4Prefix) -> usize {
        let slot = self.alloc(prefix, parent);
        self.nodes[parent].children[b] = Some(slot);
        slot.get() as usize
    }

    /// Inserts `item` under `prefix`, adding its node — and a fork where
    /// it leaves an edge part-way — if missing. Returns the node it filed
    /// the item at, which [`remove`](Self::remove) takes.
    pub fn insert(&mut self, prefix: Ipv4Prefix, item: T) -> Handle {
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
            self.nodes[c.get() as usize].parent = mid as u32;
            idx = if fork == prefix {
                mid
            } else {
                self.attach(mid, Self::bit(prefix.addr(), fork.len()), prefix)
            };
            break;
        }
        self.push(idx, item);
        self.len += 1;
        Handle(idx as u32)
    }

    /// Appends `item` to the items of the node at `idx`: inline when it
    /// holds none, else as a pool entry after its last.
    fn push(&mut self, idx: usize, item: T) {
        let node = &mut self.nodes[idx];
        if node.first.is_none() {
            node.first = Some(item);
            return;
        }
        let entry = match self.spare {
            NIL => {
                let entry = u32::try_from(self.pool.len())
                    .ok()
                    .filter(|&e| e != NIL)
                    .expect("INVARIANT: the pool holds fewer entries than items, below u32::MAX");
                self.pool.push(Extra { item, next: NIL });
                entry
            }
            entry => {
                let reused = &mut self.pool[entry as usize];
                self.spare = reused.next;
                reused.item = item;
                entry
            }
        };
        // The new entry follows the old last one and leads back to the
        // ring's first (itself, when it is the only one).
        let head = match node.last {
            NIL => entry,
            last => std::mem::replace(&mut self.pool[last as usize].next, entry),
        };
        self.pool[entry as usize].next = head;
        node.last = entry;
    }

    /// The items of `node` in storage order.
    fn items_of<'a>(&'a self, node: &'a Node<T>) -> impl Iterator<Item = &'a T> {
        let last = node.last;
        let ring = (last != NIL).then(|| self.pool[last as usize].next);
        let rest = std::iter::successors(ring, move |&e| {
            (e != last).then(|| self.pool[e as usize].next)
        });
        (node.first.iter()).chain(rest.map(|e| &self.pool[e as usize].item))
    }

    /// The items of the node `at` names, in storage order.
    pub fn items(&self, at: Handle) -> impl Iterator<Item = &T> {
        self.items_of(&self.nodes[at.0 as usize])
    }

    /// The node standing for exactly `prefix`, if there is one. It may
    /// hold no items: the root always stands for `0.0.0.0/0`, and a fork
    /// for the longest prefix of its two subtrees.
    pub fn find(&self, prefix: Ipv4Prefix) -> Option<Handle> {
        match self.descend(prefix, |_| {}) {
            Some(idx) if self.nodes[idx].prefix == prefix => Some(Handle(idx as u32)),
            _ => None,
        }
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
        let below = self.descend(prefix, |node| self.items_of(node).for_each(&mut f));
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
            self.items_of(node).for_each(&mut f);
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

    /// Counts `n` nodes read by a removal, in test builds.
    fn tally(&mut self, n: u64) {
        #[cfg(test)]
        {
            self.removal_reads += n;
        }
        #[cfg(not(test))]
        let _ = n;
    }

    /// Unlinks the node at `idx` (never the root), which holds no items
    /// and at most one child: that child, if any, takes its place under
    /// its parent. Frees it and returns the parent's slot.
    fn unlink(&mut self, idx: usize) -> usize {
        let node = &self.nodes[idx];
        let (parent, only) = (node.parent as usize, node.children[0].or(node.children[1]));
        let up = &mut self.nodes[parent].children;
        let side = usize::from(up[1] == NonZeroU32::new(idx as u32));
        up[side] = only;
        if let Some(c) = only {
            self.nodes[c.get() as usize].parent = parent as u32;
        }
        self.tally(1 + u64::from(only.is_some()));
        self.release(idx);
        parent
    }

    /// Checks the structural invariants (debug aid / property tests): the
    /// root is `0.0.0.0/0`; every reachable itemless non-root node has two
    /// children; every child is strictly inside its parent, on the side
    /// its bit at the parent's length names, and links back to it; the
    /// reachable items number `len`; the reachable nodes and the free list
    /// partition the array, with freed slots reset; and the reachable
    /// nodes' overflow rings and the pool's free chain partition the pool.
    pub fn check_invariants(&self) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut pooled = vec![false; self.pool.len()];
        let mut claim = |e: u32| match pooled.get_mut(e as usize) {
            Some(seen) if !*seen => {
                *seen = true;
                true
            }
            _ => false,
        };
        let (mut reachable, mut items) = (0, 0);
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            if seen[idx] {
                return false;
            }
            seen[idx] = true;
            reachable += 1;
            let node = &self.nodes[idx];
            if node.first.is_some() {
                items += 1;
            } else if node.last != NIL {
                return false;
            }
            // The ring: every entry claimed once on the way back to `last`.
            if node.last != NIL {
                let mut e = node.last;
                loop {
                    let Some(entry) = self.pool.get(e as usize) else {
                        return false;
                    };
                    e = entry.next;
                    if !claim(e) {
                        return false;
                    }
                    items += 1;
                    if e == node.last {
                        break;
                    }
                }
            }
            let branches = node.children.iter().flatten().count();
            if idx != 0 && node.first.is_none() && branches != 2 {
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
                    || child.parent as usize != idx
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
                    if node.first.is_some()
                        || node.last != NIL
                        || node.children != [None, None]
                        || node.parent != 0
                        || node.prefix != Ipv4Prefix::DEFAULT
                    {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        let mut e = self.spare;
        while e != NIL {
            if !claim(e) {
                return false;
            }
            e = self.pool[e as usize].next;
        }
        self.nodes[0].prefix == Ipv4Prefix::DEFAULT
            && reachable + self.free.len() == self.nodes.len()
            && items == self.len
            && pooled.iter().all(|&claimed| claimed)
    }
}

impl<T: Copy + PartialEq> PrefixTrie<T> {
    /// `true` when the node `at` names holds `item`.
    pub fn holds(&self, at: Handle, item: &T) -> bool {
        (self.nodes.get(at.0 as usize)).is_some_and(|node| self.items_of(node).any(|i| i == item))
    }

    /// Removes one occurrence of `item` from the node `at` names, the
    /// handle [`insert`](Self::insert) returned when it filed the item.
    /// Returns `true` when found.
    ///
    /// The node's last item takes the removed one's place, as
    /// `Vec::swap_remove` does. A non-root node left itemless goes if it
    /// has fewer than two children: with none it is unlinked, with one its
    /// child takes its place. Unlinking can leave the parent itemless with
    /// one child, and then the parent is spliced out the same way. So at
    /// most two nodes are freed, and the parent links reach every node the
    /// pruning touches: nothing walks down from the root.
    pub fn remove(&mut self, at: Handle, item: &T) -> bool {
        let idx = at.0 as usize;
        self.tally(1);
        if !self.take(idx, item) {
            return false;
        }
        self.len -= 1;
        let node = &self.nodes[idx];
        if idx != 0 && node.first.is_none() && node.children.contains(&None) {
            let parent = self.unlink(idx);
            let node = &self.nodes[parent];
            if parent != 0 && node.first.is_none() && node.children.contains(&None) {
                self.unlink(parent);
            }
        }
        true
    }

    /// Takes the first occurrence of `item` out of the items of the node
    /// at `idx`, copying its last item into the gap. Returns `true` when
    /// found.
    fn take(&mut self, idx: usize, item: &T) -> bool {
        let node = &mut self.nodes[idx];
        let last = node.last;
        if node.first.as_ref() == Some(item) {
            if last == NIL {
                node.first = None;
                return true;
            }
            node.first = Some(self.pool[last as usize].item);
        } else {
            if last == NIL {
                return false;
            }
            let mut e = self.pool[last as usize].next;
            while self.pool[e as usize].item != *item {
                if e == last {
                    return false;
                }
                e = self.pool[e as usize].next;
            }
            self.pool[e as usize].item = self.pool[last as usize].item;
        }
        // `last` leaves the ring; its predecessor becomes the last entry.
        let pool = &mut self.pool;
        let mut pred = last;
        while pool[pred as usize].next != last {
            pred = pool[pred as usize].next;
        }
        node.last = if pred == last {
            NIL
        } else {
            pool[pred as usize].next = pool[last as usize].next;
            pred
        };
        pool[last as usize].next = self.spare;
        self.spare = last;
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

    /// The items filed at exactly `prefix`, in storage order.
    fn items_at<T: Copy>(t: &PrefixTrie<T>, prefix: Ipv4Prefix) -> Vec<T> {
        t.find(prefix)
            .map_or(Vec::new(), |at| t.items(at).copied().collect())
    }

    #[test]
    fn insert_and_query_at() {
        let mut t = PrefixTrie::new();
        let at = t.insert(p("10.0.0.0/8"), 1u32);
        assert_eq!(t.insert(p("10.0.0.0/8"), 2), at);
        t.insert(p("10.1.0.0/16"), 3);
        assert_eq!(t.len(), 3);
        assert_eq!(items_at(&t, p("10.0.0.0/8")), [1, 2]);
        assert_eq!(items_at(&t, p("10.1.0.0/16")), [3]);
        assert!(items_at(&t, p("10.2.0.0/16")).is_empty());
        assert_eq!(t.find(p("10.0.0.0/8")), Some(at));
        assert!(t.holds(at, &2) && !t.holds(at, &3));
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
        let ten = t.insert(p("10.0.0.0/8"), 1u32);
        t.insert(p("10.0.0.0/8"), 3);
        t.insert(p("10.1.0.0/16"), 2);
        assert!(t.remove(ten, &1));
        assert!(!t.remove(ten, &1));
        assert_eq!(t.len(), 2);
        assert!(t.remove(ten, &3));
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
        t.descend(p("10.1.0.0/16"), |node| anc.extend(t.items_of(node)));
        anc.extend(items_at(&t, p("10.1.0.0/16")));
        assert_eq!(anc, vec!['a', 'b']);

        let mut desc = Vec::new();
        t.for_each_descendant(p("10.1.0.0/16"), |x| desc.push(*x));
        desc.sort();
        assert_eq!(desc, vec!['b', 'c']);
    }

    #[test]
    fn clear_resets() {
        let mut t = PrefixTrie::new();
        let first = t.insert(Ipv4Prefix::new(0, 24), 0u32);
        for i in 1..100u32 {
            t.insert(Ipv4Prefix::new(i << 8, 24), i);
            t.insert(Ipv4Prefix::new(i << 8, 24), i + 100);
        }
        assert!(t.remove(first, &0));
        assert!(!t.free.is_empty() && !t.pool.is_empty());
        assert_eq!(t.len(), 198);
        t.clear();
        assert!(t.is_empty());
        assert!(t.free.is_empty() && t.nodes.len() == 1);
        assert!(t.pool.is_empty() && t.spare == NIL);
        assert!(t.check_invariants());
        assert!(t.overlapping(Ipv4Prefix::DEFAULT).is_empty());
    }

    #[test]
    fn nodes_are_32_bytes() {
        assert_eq!(std::mem::size_of::<Node<u32>>(), 32);
    }

    /// A node's items keep exactly a `Vec`'s order under push and
    /// `swap_remove`: the inline first item and pool entries alike, with
    /// freed pool entries reused before the pool grows.
    #[test]
    fn items_keep_vec_order_under_push_and_swap_remove() {
        let mut t = PrefixTrie::new();
        let mut want: Vec<u32> = Vec::new();
        let at = t.insert(p("10.1.0.0/16"), 0);
        want.push(0);
        for v in 1..6 {
            assert_eq!(t.insert(p("10.1.0.0/16"), v), at);
            want.push(v);
        }
        assert_eq!(t.pool.len(), 5);
        // The inline first, a middle entry, the last entry, an absent item.
        for v in [0, 3, 4, 9, 5, 1] {
            let pos = want.iter().position(|&w| w == v);
            assert_eq!(t.remove(at, &v), pos.is_some(), "{v}");
            if let Some(pos) = pos {
                want.swap_remove(pos);
            }
            assert_eq!(items_at(&t, p("10.1.0.0/16")), want, "after {v}");
            assert!(t.check_invariants(), "after {v}");
        }
        for v in 10..14 {
            t.insert(p("10.1.0.0/16"), v);
            want.push(v);
        }
        assert_eq!(items_at(&t, p("10.1.0.0/16")), want);
        assert_eq!(t.pool.len(), 5, "freed entries are reused first");
        assert!(t.check_invariants());
    }

    #[test]
    fn removing_the_last_item_prunes_back_to_the_root() {
        let mut t = PrefixTrie::new();
        let a = t.insert(p("10.1.2.0/24"), 1u32);
        // The /16 lands on the edge to the /24 and becomes its parent.
        let b = t.insert(p("10.1.0.0/16"), 2);
        assert_eq!(t.nodes.len(), 3);
        // The sibling /24 splits the edge below the /16 at a /23 fork.
        let c = t.insert(p("10.1.3.0/24"), 3);
        assert_eq!(t.nodes.len(), 5);
        assert!(t.check_invariants());
        // Its leaf goes, and the fork, left itemless with one child, is
        // spliced out: the /16's child is the other /24 again.
        assert!(t.remove(c, &3));
        assert_eq!(t.free.len(), 2);
        assert_eq!(t.nodes[t.child(0, 0).unwrap()].prefix, p("10.1.0.0/16"));
        assert!(t.check_invariants());
        // The /16 still holds an item: only the /24 below it goes.
        assert!(t.remove(a, &1));
        assert_eq!(t.free.len(), 3);
        assert!(t.check_invariants());
        assert!(t.remove(b, &2));
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
                let (at, id) = live.pop_front().unwrap();
                assert!(t.remove(at, &id));
            }
            live.push_back((t.insert(pre, i), i));
            assert!(t.nodes.len() <= 2 * 8, "step {i}: {} slots", t.nodes.len());
        }
        assert!(t.check_invariants());
        for (at, id) in live {
            assert!(t.remove(at, &id));
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

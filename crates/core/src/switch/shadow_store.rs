//! The shadow residents: one FIFO store behind a flat id index.
//!
//! Residents sit in one vector in admission order, and the id index maps
//! a rule id to its position, so `contains`, `get`, the re-cut scan and
//! the migration drain read contiguous memory and no call walks a tree
//! (DESIGN.md §16). A resident that leaves mid-queue leaves a hole; the
//! holes are squeezed out, in order, by the next push that finds them
//! outnumbering the residents, and the last resident out empties the
//! store. So iteration is admission order, the FIFO the migration order
//! keeps among equal priorities, and never the index's hash order.

use super::ShadowEntry;
use hermes_rules::prelude::RuleId;
use hermes_rules::store::IdIndex;

/// Holes tolerated before a push compacts, however few the residents.
const MIN_HOLES: usize = 16;

/// See the module docs.
#[derive(Debug, Default)]
pub(super) struct ShadowStore {
    /// Residents in admission order; `None` where one has left.
    queue: Vec<Option<ShadowEntry>>,
    /// Rule id → position in `queue`.
    index: IdIndex,
}

impl ShadowStore {
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
    }

    /// Squeezes the holes out of the queue, keeping the residents' order,
    /// and files each resident's new position.
    fn compact(&mut self) {
        self.queue.retain(Option::is_some);
        for (pos, entry) in self.queue.iter().flatten().enumerate() {
            self.index.insert(entry.original.id, pos as u32);
        }
    }

    /// Takes a resident out, leaving a hole in its place; the last one out
    /// empties the queue.
    pub(super) fn remove(&mut self, id: RuleId) -> Option<ShadowEntry> {
        let pos = self.index.remove(id)?;
        let entry = self.queue[pos as usize].take();
        if self.index.is_empty() {
            self.queue.clear();
        }
        entry
    }

    /// The residents in admission order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &ShadowEntry> {
        self.queue.iter().flatten()
    }

    /// `true` when the index names exactly the residents, each at its
    /// position in the queue.
    #[cfg(test)]
    pub(super) fn check(&self) -> bool {
        self.index.check()
            && self.iter().count() == self.len()
            && (self.queue.iter().enumerate()).all(|(pos, e)| {
                e.as_ref()
                    .is_none_or(|e| self.index.get(e.original.id) == Some(pos as u32))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_rules::prelude::*;

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
    /// index names stays right.
    #[test]
    fn fifo_order_survives_holes_and_compaction() {
        let mut store = ShadowStore::default();
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

//! The TCAM table model.
//!
//! A TCAM stores entries at physical addresses; on lookup *every* entry is
//! compared in parallel and the lowest-address match wins. To honour rule
//! priorities the switch software must therefore keep entries physically
//! sorted by priority — and that is exactly why insertions are expensive:
//! making room at the right address means *shifting* existing entries
//! (§2.1: "the insertion time is a function of the time to perform this
//! move which is proportional to the number of entries that must be moved").
//!
//! [`TcamTable`] models the entry list plus the shift accounting. It does
//! not know about latency — the [`perf`](crate::perf) module converts shift
//! counts into simulated time per switch model.
//!
//! ## Storage layout (a slab of rules, indexes of handles)
//!
//! Each stored [`Rule`] lives exactly once, in the table's [`Slab`]:
//! pages of 64 rules that are never reallocated, plus a free list of
//! slots. A rule keeps its `u32` slot while it is stored, and everything
//! else refers to it by that handle.
//!
//! The physical side is the private `Layout`: the priority order as
//! fixed-fanout *blocks* (a chunked vector), each block a contiguous run
//! of it as parallel vectors of sort keys — the private `EntryKey`
//! `{!priority, insertion seq}` — and slab slots, 20 bytes an entry. A
//! control action moves 20-byte handles in one block (`O(block)`
//! memmove), never a rule and never the whole table. The blocks are a
//! host-side storage detail that no modeled number reads: the shift bill
//! is §2.1's dense closed form, where an insertion at position `pos`
//! moves `len - pos` entries (PackedLow), `pos` (PackedHigh) or the
//! smaller of the two (Balanced). Shift accounting reads sort keys only:
//! a batch's sequential bill is counted from its own events' ranks among
//! the stored keys, with no copy of the layout.
//!
//! Two indexes hold slab slots beside the sort key, so shifts and block
//! splits leave both alone: the id index (`id_index.rs`, `id → (EntryKey,
//! slot)` in expected `O(1)` per control action, so `get` and
//! `modify_action` never search the blocks) and the tuple-space match
//! index (`match_index.rs`, DESIGN.md §15) that serves every lookup — one
//! probe per distinct mask in the table instead of a walk over every
//! entry, each candidate confirmed by one slab load. The match index is
//! maintained at `raw_insert`, `delete`, `reset`, the batch's delete and
//! insert passes and `retain`'s drop pass, and nowhere else: a stored
//! entry's match never changes in place (Hermes modifies actions, and
//! priorities via delete+insert, §4.1).
//!
//! ## Batched updates
//!
//! [`TcamTable::apply_batch`] validates a whole [`TcamOp`] sequence
//! atomically, plans the final layout once, and charges one *coalesced*
//! shift plan: an entry disturbed by several ops in the batch moves (and is
//! billed) once, which is where batched control channels get their speedup.
//! The host work follows the same shape and scales with the batch, not the
//! table: one validation pass over the ops against the id index, a bill
//! counted over the batch's own events, and one landing pass per touched
//! block (a compaction for its deletes, a merge for its inserts) instead
//! of one `Vec::insert` per op (DESIGN.md §10).

use crate::id_index::IdIndex;
use crate::match_index::MatchIndex;
use hermes_rules::prelude::*;
use hermes_rules::store::Slab;

/// Target block size for the chunked entry storage; blocks split at twice
/// this length.
const BLOCK_TARGET: usize = 512;
/// Maximum block length before a split.
const BLOCK_MAX: usize = 2 * BLOCK_TARGET;
/// Up to this table-plus-batch size, `apply_batch` also counts the exact
/// sequential per-op cost and charges the minimum — a hard guarantee that
/// a batch is never billed worse than its ops applied singly. Above it,
/// the coalesced plan is clamped by an estimate against the pre-batch
/// table instead. The count costs `O(m log m)` for `m` ops whatever the
/// table holds, so the limit no longer exists for speed: it stays
/// because removing it would change the bill of batches on bigger tables.
const NAIVE_CLAMP_LIMIT: usize = 8192;

/// How the switch software packs entries into the physical TCAM, which
/// determines how many entries move per insertion. Real switches differ
/// (§2.1: insertion-order effects of 10× between ascending and descending
/// priority order), and Tango-style baselines exploit knowledge of this
/// strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Entries packed toward low addresses; an insertion at position `p`
    /// shifts everything below it down. Inserting in *descending* priority
    /// order is cheap (always appends).
    PackedLow,
    /// Entries packed toward high addresses; an insertion shifts everything
    /// above it up. Inserting in *ascending* priority order is cheap.
    PackedHigh,
    /// The management software moves whichever side is smaller (free space
    /// kept at both ends). Insertions in the middle still cost ~half the
    /// table.
    Balanced,
}

/// Why a TCAM operation was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcamError {
    /// The table is at capacity.
    Full,
    /// No entry with the given rule id exists.
    NotFound(RuleId),
    /// An entry with this rule id already exists (ids must be unique per
    /// table).
    Duplicate(RuleId),
    /// The control channel transiently rejected the op (injected fault);
    /// a retry may succeed.
    ChannelBusy,
    /// The control channel is inside an outage window (injected fault);
    /// retries fail until the window closes.
    Outage,
    /// The device crashed or rebooted and dropped its control session;
    /// every op fails until the controller reconnects and resyncs
    /// (crash-class fault, see [`FaultPlan`](crate::FaultPlan)).
    Disconnected,
}

impl TcamError {
    /// `true` for errors a retry can clear (channel faults), `false` for
    /// state errors (full / not-found / duplicate) where retrying is
    /// pointless.
    pub fn is_transient(&self) -> bool {
        matches!(self, TcamError::ChannelBusy | TcamError::Outage)
    }
}

impl std::fmt::Display for TcamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcamError::Full => write!(f, "TCAM table full"),
            TcamError::NotFound(id) => write!(f, "no TCAM entry for rule {id}"),
            TcamError::Duplicate(id) => write!(f, "duplicate TCAM entry for rule {id}"),
            TcamError::ChannelBusy => write!(f, "TCAM control channel busy (transient)"),
            TcamError::Outage => write!(f, "TCAM control channel outage"),
            TcamError::Disconnected => {
                write!(
                    f,
                    "TCAM control session lost (device crash; resync required)"
                )
            }
        }
    }
}

impl std::error::Error for TcamError {}

/// Counters accumulated over the table's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Number of successful insertions.
    pub inserts: u64,
    /// Number of successful deletions.
    pub deletes: u64,
    /// Number of successful in-place modifications.
    pub modifies: u64,
    /// Total entries shifted across all insertions.
    pub total_shifts: u64,
    /// Number of lookups served.
    pub lookups: u64,
}

/// The outcome of a successful mutation: how many entries physically moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpShifts {
    /// Entries moved to make room (0 for appends, deletions and in-place
    /// modifications).
    pub shifts: usize,
    /// Occupancy *before* the operation (the latency model keys off this).
    pub occupancy_before: usize,
}

/// One entry in a batched update sequence (see
/// [`TcamTable::apply_batch`]). Sequential semantics: each op observes the
/// effect of the ops before it in the slice, so `[Delete(x), Insert(x')]`
/// is a replace and `[Insert(y), Delete(y)]` nets to nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TcamOp {
    /// Install a new entry.
    Insert(Rule),
    /// Remove the entry with this id.
    Delete(RuleId),
    /// Rewrite an entry's action in place.
    ModifyAction {
        /// Target entry.
        id: RuleId,
        /// Replacement action.
        action: Action,
    },
}

impl TcamOp {
    /// The id of the entry the op targets.
    pub fn id(&self) -> RuleId {
        match self {
            TcamOp::Insert(rule) => rule.id,
            TcamOp::Delete(id) | TcamOp::ModifyAction { id, .. } => *id,
        }
    }
}

/// The outcome of a successful [`TcamTable::apply_batch`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Entries physically moved under the coalesced plan (each disturbed
    /// entry billed once). This is what the latency model charges.
    pub shifts: usize,
    /// Modeled cost of the same ops applied singly: exact (counted over
    /// the batch's own events) while table plus batch stay within
    /// `NAIVE_CLAMP_LIMIT`, else the sum of its surviving inserts' costs
    /// against the pre-batch table. `shifts` is never charged above it.
    pub naive_shifts: usize,
    /// Net new entries written (inserts surviving the batch).
    pub inserts: usize,
    /// Pre-existing entries removed.
    pub deletes: usize,
    /// In-place modifications applied.
    pub modifies: usize,
    /// Occupancy before the batch.
    pub occupancy_before: usize,
}

/// Sort key for the priority order: `rp` is the bitwise complement of the
/// priority (so higher priorities sort first and [`Priority::NONE`] sorts
/// last) and `seq` breaks ties FIFO.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EntryKey {
    pub(crate) rp: u32,
    pub(crate) seq: u64,
}

impl EntryKey {
    fn new(priority: Priority, seq: u64) -> Self {
        EntryKey {
            rp: !priority.0,
            seq,
        }
    }
}

/// A contiguous run of the priority order. `handles` holds one payload per
/// key: the rule's slab slot in a table, `()` in the tests' per-op replay.
#[derive(Clone, Debug)]
struct Block<P> {
    keys: Vec<EntryKey>,
    handles: Vec<P>,
}

impl<P> Block<P> {
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn last_key(&self) -> EntryKey {
        *self
            .keys
            .last()
            .expect("INVARIANT: Layout never keeps an empty block")
    }
}

impl<P: Copy> Block<P> {
    /// Merges `fresh` (ascending, no key already stored) into the block in
    /// place: one backward pass in which every run of old entries moves
    /// once, straight to its final slot.
    fn merge(&mut self, fresh: &[(EntryKey, P)]) {
        let mut end = self.len();
        self.keys.extend(fresh.iter().map(|&(key, _)| key));
        self.handles
            .extend(fresh.iter().map(|&(_, payload)| payload));
        for (j, &(key, payload)) in fresh.iter().enumerate().rev() {
            // Old entries in `start..end` sort between this fresh entry and
            // the next: the `j + 1` fresh entries up to here push them up.
            let start = self.keys[..end].partition_point(|k| *k < key);
            self.keys.copy_within(start..end, start + j + 1);
            self.handles.copy_within(start..end, start + j + 1);
            self.keys[start + j] = key;
            self.handles[start + j] = payload;
            end = start;
        }
    }

    /// Removes the entries keyed by `doomed` (ascending, all stored here)
    /// in one compaction pass, handing each to `removed` on its way out.
    fn compact(&mut self, doomed: &[EntryKey], mut removed: impl FnMut(EntryKey, P)) {
        let Some(first) = doomed.first() else {
            return;
        };
        let start = self.keys.partition_point(|k| k < first);
        let (mut kept, mut next) = (start, 0);
        for i in start..self.len() {
            let (key, payload) = (self.keys[i], self.handles[i]);
            if doomed.get(next) == Some(&key) {
                removed(key, payload);
                next += 1;
            } else {
                self.keys[kept] = key;
                self.handles[kept] = payload;
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.handles.truncate(kept);
    }

    /// The block cut into [`chunk_ranges`], every chunk allocated at
    /// exactly its length. On a block one past `BLOCK_MAX` this is the
    /// classic halving split.
    fn chunks(&self) -> Vec<Block<P>> {
        chunk_ranges(self.len())
            .map(|r| Block {
                keys: self.keys[r.clone()].to_vec(),
                handles: self.handles[r].to_vec(),
            })
            .collect()
    }
}

/// The runs a block of `len` entries is cut into: one while it fits
/// `BLOCK_MAX`, else `BLOCK_TARGET`-entry chunks with the last one also
/// taking the remainder (so each holds `BLOCK_TARGET..BLOCK_MAX`).
fn chunk_ranges(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let n = if len > BLOCK_MAX {
        len / BLOCK_TARGET
    } else {
        1
    };
    (0..n).map(move |i| {
        let lo = i * BLOCK_TARGET;
        lo..if i + 1 == n { len } else { lo + BLOCK_TARGET }
    })
}

/// The physical side of a table: which sort key sits in which block and
/// what an insertion at a given point shifts. Everything the shift
/// accounting needs and nothing a lookup needs, so the tests' per-op
/// replay runs over a `Layout<()>`.
#[derive(Clone, Debug)]
struct Layout<P> {
    blocks: Vec<Block<P>>,
    next_seq: u64,
    len: usize,
    capacity: usize,
    strategy: PlacementStrategy,
}

impl<P: Copy> Layout<P> {
    /// Index of the block containing `key`, plus the offset within it.
    fn locate(&self, key: EntryKey) -> Option<(usize, usize)> {
        let bi = self.blocks.partition_point(|b| b.last_key() < key);
        if bi == self.blocks.len() {
            return None;
        }
        let wi = self.blocks[bi].keys.binary_search(&key).ok()?;
        Some((bi, wi))
    }

    /// The block a new entry with `key` lands in: the first whose last key
    /// sorts after it, else (past the end) the final block.
    fn target_block(&self, key: EntryKey) -> usize {
        let bi = self.blocks.partition_point(|b| b.last_key() < key);
        bi.min(self.blocks.len().saturating_sub(1))
    }

    /// Where a new entry with `key` would land: `(block, offset, global)`.
    /// For an empty table returns `(0, 0, 0)`.
    fn insertion_point(&self, key: EntryKey) -> (usize, usize, usize) {
        if self.blocks.is_empty() {
            return (0, 0, 0);
        }
        let bi = self.target_block(key);
        let wi = self.blocks[bi].keys.partition_point(|k| *k < key);
        let before: usize = self.blocks[..bi].iter().map(Block::len).sum();
        (bi, wi, before + wi)
    }

    /// The global position of each of `keys` (ascending) in one walk over
    /// the blocks: a stored key's own index, any other key's
    /// [`insertion_point`](Self::insertion_point).
    fn ranks(&self, keys: impl IntoIterator<Item = EntryKey>) -> Vec<usize> {
        let (mut bi, mut before) = (0, 0);
        keys.into_iter()
            .map(|key| {
                while bi + 1 < self.blocks.len() && self.blocks[bi].last_key() < key {
                    before += self.blocks[bi].len();
                    bi += 1;
                }
                let wi = self
                    .blocks
                    .get(bi)
                    .map_or(0, |b| b.keys.partition_point(|k| *k < key));
                before + wi
            })
            .collect()
    }

    /// Physical insert with no shift accounting (the caller has already
    /// planned and billed the move).
    fn raw_insert(&mut self, bi: usize, wi: usize, key: EntryKey, payload: P) {
        if self.blocks.is_empty() {
            self.blocks.push(Block {
                keys: Vec::new(),
                handles: Vec::new(),
            });
        }
        self.blocks[bi].keys.insert(wi, key);
        self.blocks[bi].handles.insert(wi, payload);
        self.len += 1;
        if self.blocks[bi].len() > BLOCK_MAX {
            self.split_block(bi);
        }
    }

    /// Replaces an oversized block with its [`Block::chunks`].
    fn split_block(&mut self, bi: usize) {
        let chunks = self.blocks[bi].chunks();
        self.blocks.splice(bi..=bi, chunks);
    }

    /// Physical removal with no shift accounting; an emptied block is
    /// dropped.
    fn raw_remove(&mut self, bi: usize, wi: usize) -> P {
        self.blocks[bi].keys.remove(wi);
        let payload = self.blocks[bi].handles.remove(wi);
        self.len -= 1;
        if self.blocks[bi].keys.is_empty() {
            self.blocks.remove(bi);
        }
        payload
    }

    /// Draws the next sort key for `priority`, finds where it lands and
    /// models the shifts that open the slot there. The caller follows with
    /// `raw_insert(bi, wi, key, ..)`. Returns `(key, bi, wi, shifts)`.
    fn open_slot(&mut self, priority: Priority) -> (EntryKey, usize, usize, usize) {
        let key = EntryKey::new(priority, self.next_seq);
        self.next_seq += 1;
        let (bi, wi, pos) = self.insertion_point(key);
        let shifts = if priority.is_none() {
            0
        } else {
            self.single_insert_cost(pos, self.len)
        };
        (key, bi, wi, shifts)
    }

    /// Removes the entries keyed by `doomed` (ascending, all stored) with
    /// one compaction per touched block, handing each to `removed`.
    /// Emptied blocks are dropped.
    fn remove_sorted(&mut self, mut doomed: &[EntryKey], mut removed: impl FnMut(EntryKey, P)) {
        let mut bi = 0;
        while let Some(first) = doomed.first() {
            bi += self.blocks[bi..].partition_point(|b| b.last_key() < *first);
            let block = &mut self.blocks[bi];
            let here = doomed.partition_point(|k| *k <= block.last_key());
            block.compact(&doomed[..here], &mut removed);
            self.len -= here;
            doomed = &doomed[here..];
            bi += 1;
        }
        self.blocks.retain(|b| !b.keys.is_empty());
    }

    /// Lands a batch's new entries (ascending, no key already stored) with
    /// one merge per touched block. Each entry lands in the block
    /// [`target_block`](Self::target_block) names before the batch. A block
    /// grown past `BLOCK_MAX` is then re-cut into [`Block::chunks`]. Into an
    /// empty layout (the crash-resync shape) the entries are cut straight
    /// into the same [`chunk_ranges`], with no merged block to split.
    fn insert_fresh(&mut self, fresh: &[(EntryKey, P)]) {
        if fresh.is_empty() {
            return;
        }
        self.len += fresh.len();
        if self.blocks.is_empty() {
            self.blocks.extend(chunk_ranges(fresh.len()).map(|r| Block {
                keys: fresh[r.clone()].iter().map(|&(key, _)| key).collect(),
                handles: fresh[r].iter().map(|&(_, payload)| payload).collect(),
            }));
            return;
        }
        // Back to front, so a split never moves a block still to be merged:
        // block `bi` takes what sorts after the last key of block `bi - 1`.
        let mut rest = fresh;
        for bi in (0..self.blocks.len()).rev() {
            let split = match bi {
                0 => 0,
                _ => rest.partition_point(|(key, _)| *key < self.blocks[bi - 1].last_key()),
            };
            let (lower, here) = rest.split_at(split);
            rest = lower;
            if here.is_empty() {
                continue;
            }
            self.blocks[bi].merge(here);
            if self.blocks[bi].len() > BLOCK_MAX {
                self.split_block(bi);
            }
        }
    }

    /// The shifts a single insertion at global position `pos` among `len`
    /// entries pays under §2.1's dense cost model: every entry between the
    /// new slot and the strategy's packing boundary moves — `len - pos`
    /// (PackedLow), `pos` (PackedHigh), whichever is smaller (Balanced).
    fn single_insert_cost(&self, pos: usize, len: usize) -> usize {
        match self.strategy {
            PlacementStrategy::PackedLow => len - pos,
            PlacementStrategy::PackedHigh => pos,
            PlacementStrategy::Balanced => pos.min(len - pos),
        }
    }
}

impl Layout<u32> {
    /// Every stored entry in match order as the match index files it: key,
    /// `seq` and slab slot.
    fn indexed<'a>(
        &'a self,
        slab: &'a Slab<Rule>,
    ) -> impl Iterator<Item = (TernaryKey, u64, u32)> + 'a {
        (self.blocks.iter())
            .flat_map(|b| b.keys.iter().zip(&b.handles))
            .map(|(key, &slot)| (slab.get(slot).key, key.seq, slot))
    }
}

/// A priority-ordered TCAM table with bounded capacity.
///
/// Entries are kept sorted by descending [`Priority`]; among equal
/// priorities, earlier-inserted entries match first (standard switch-agent
/// behaviour). Lookup returns the first matching entry, which is exactly
/// the highest-priority match.
///
/// ```
/// use hermes_rules::prelude::*;
/// use hermes_tcam::{PlacementStrategy, TcamTable};
///
/// let mut table = TcamTable::new(1024, PlacementStrategy::PackedLow);
/// let wide: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
/// let narrow: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
/// table.insert(Rule::new(1, wide.to_key(), Priority(1), Action::Forward(1))).unwrap();
/// let shifts = table.insert(Rule::new(2, narrow.to_key(), Priority(9), Action::Drop)).unwrap();
/// // The higher-priority rule displaced the earlier entry.
/// assert_eq!(shifts.shifts, 1);
/// // Lookup returns the highest-priority match.
/// let pkt = (u32::from_be_bytes([10, 1, 2, 3]) as u128) << 96;
/// assert_eq!(table.peek(pkt).unwrap().action, Action::Drop);
/// ```
#[derive(Clone, Debug)]
pub struct TcamTable {
    /// The priority order: sort key and slab slot per entry.
    layout: Layout<u32>,
    /// Every stored rule, once.
    slab: Slab<Rule>,
    /// Per-id index: id → its sort key and slab slot (expected `O(1)`).
    by_id: IdIndex,
    /// Match index: `(mask, packet & mask)` → `seq`s and slab slots of
    /// the entries stored under that key. Serves every lookup.
    index: MatchIndex,
    stats: TableStats,
}

impl TcamTable {
    /// An empty table with the given capacity and placement strategy.
    pub fn new(capacity: usize, strategy: PlacementStrategy) -> Self {
        TcamTable {
            layout: Layout {
                blocks: Vec::new(),
                next_seq: 0,
                len: 0,
                capacity,
                strategy,
            },
            slab: Slab::default(),
            by_id: IdIndex::default(),
            index: MatchIndex::default(),
            stats: TableStats::default(),
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.layout.len
    }

    /// `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.layout.len == 0
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.layout.capacity
    }

    /// Remaining free entries.
    pub fn free(&self) -> usize {
        self.layout.capacity - self.layout.len
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The entries in match order (highest precedence first). `O(n)` copy;
    /// meant for audits, oracles and tests — use [`iter`](Self::iter) to
    /// walk without copying.
    pub fn entries(&self) -> Vec<Rule> {
        self.iter().copied().collect()
    }

    /// Iterates the entries in match order without copying.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        (self.layout.blocks.iter()).flat_map(|b| b.handles.iter().map(|&slot| self.slab.get(slot)))
    }

    /// Looks up a rule by id via the per-id index (expected `O(1)`).
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        let (_, slot) = self.by_id.get(id)?;
        Some(self.slab.get(slot))
    }

    /// `true` when an entry with this id exists.
    pub fn contains(&self, id: RuleId) -> bool {
        self.by_id.get(id).is_some()
    }

    /// Stores an entry the layout has already made room for and files it
    /// in both indexes, re-laying the match index from the stored entries
    /// (this one included) when it is out of room.
    fn raw_insert(&mut self, bi: usize, wi: usize, key: EntryKey, rule: Rule) {
        let slot = self.slab.alloc(rule);
        self.layout.raw_insert(bi, wi, key, slot);
        self.by_id.insert(rule.id, key, slot);
        if self.index.has_room(1) {
            self.index.insert(rule.key, key.seq, slot);
        } else {
            self.index
                .rebuild(self.layout.len, self.layout.indexed(&self.slab));
        }
    }

    /// Drops every entry (no stats), keeping the slab's pages.
    fn reset(&mut self) {
        self.layout.blocks.clear();
        self.layout.len = 0;
        self.slab.clear();
        self.by_id.clear();
        self.index.clear();
    }

    /// Inserts a rule, returning the shift count for the latency model.
    ///
    /// Rules with [`Priority::NONE`] carry no ordering requirement: the
    /// switch drops them into any free slot without moving anything (§2.1:
    /// "rules with priorities are five times slower than rules without
    /// priorities"). They sort below all prioritized rules.
    pub fn insert(&mut self, rule: Rule) -> Result<OpShifts, TcamError> {
        if self.layout.len >= self.layout.capacity {
            return Err(TcamError::Full);
        }
        if self.contains(rule.id) {
            return Err(TcamError::Duplicate(rule.id));
        }
        let occupancy_before = self.layout.len;
        let (key, bi, wi, shifts) = self.layout.open_slot(rule.priority);
        self.raw_insert(bi, wi, key, rule);
        self.stats.inserts += 1;
        self.stats.total_shifts += shifts as u64;
        Ok(OpShifts {
            shifts,
            occupancy_before,
        })
    }

    /// Deletes the rule with the given id. Deletion is an in-place
    /// invalidation in real TCAMs — no shifting (§2.1: "deletion is a simple
    /// and fast operation").
    pub fn delete(&mut self, id: RuleId) -> Result<Rule, TcamError> {
        let (key, slot) = self.by_id.remove(id).ok_or(TcamError::NotFound(id))?;
        let (bi, wi) = (self.layout.locate(key))
            .expect("INVARIANT: by_id keys always resolve to a stored entry");
        self.layout.raw_remove(bi, wi);
        let rule = *self.slab.get(slot);
        self.slab.release(slot);
        self.index.remove(rule.key, key.seq);
        self.stats.deletes += 1;
        Ok(rule)
    }

    /// Modifies the action of an existing rule in place. Constant time in
    /// hardware ("modifying 5000 entries could be six times faster than
    /// adding new flows"). Priority changes are *not* handled here — Hermes
    /// converts them into delete+insert (§4.1).
    pub fn modify_action(&mut self, id: RuleId, action: Action) -> Result<(), TcamError> {
        let (_, slot) = self.by_id.get(id).ok_or(TcamError::NotFound(id))?;
        self.slab.get_mut(slot).action = action;
        self.stats.modifies += 1;
        Ok(())
    }

    /// The one match path: the highest-precedence (lowest sort key) entry
    /// matching the packet, out of the match index, each candidate
    /// confirmed by one slab load. `lookup` and `peek` both defer here.
    fn scan(&self, packet: u128) -> Option<Rule> {
        let slot = self.index.lookup(packet, |slot, key| {
            let rule = self.slab.get(slot);
            (rule.key == key).then_some(!rule.priority.0)
        })?;
        Some(*self.slab.get(slot))
    }

    /// TCAM lookup: the first (highest-precedence) entry matching the packet.
    pub fn lookup(&mut self, packet: u128) -> Option<Rule> {
        self.stats.lookups += 1;
        self.scan(packet)
    }

    /// Lookup without touching statistics (for oracles and tests).
    pub fn peek(&self, packet: u128) -> Option<Rule> {
        self.scan(packet)
    }

    /// Removes all entries (used when the Rule Manager empties the shadow
    /// table after migration — a batch of in-place invalidations).
    pub fn clear(&mut self) -> usize {
        let n = self.layout.len;
        self.stats.deletes += n as u64;
        self.reset();
        n
    }

    /// Keeps the entries `keep` accepts, asked once per entry in match
    /// order, and drops the rest in one compaction pass; returns how many
    /// were dropped. Billed as the table emptied and the survivors
    /// re-inserted in match order (a switch re-seating what a crash left):
    /// every entry counts a delete, every survivor an insert, and each
    /// prioritized survivor the shifts of an append behind the ones before
    /// it — its index among them for PackedHigh, 0 otherwise.
    pub fn retain(&mut self, mut keep: impl FnMut(&Rule) -> bool) -> usize {
        let mut doomed = Vec::new();
        let mut prioritized = 0u64;
        for b in &self.layout.blocks {
            for (key, &slot) in b.keys.iter().zip(&b.handles) {
                let rule = self.slab.get(slot);
                if !keep(rule) {
                    doomed.push(*key);
                    self.by_id.remove(rule.id);
                } else if !rule.priority.is_none() {
                    prioritized += 1;
                }
            }
        }
        self.remove_sorted(&doomed);
        self.stats.deletes += (self.layout.len + doomed.len()) as u64;
        self.stats.inserts += self.layout.len as u64;
        if self.layout.strategy == PlacementStrategy::PackedHigh {
            self.stats.total_shifts += prioritized * prioritized.saturating_sub(1) / 2;
        }
        doomed.len()
    }

    /// Removes the entries keyed by `doomed` (ascending, all stored) from
    /// the layout, the match index and the slab. The caller has already
    /// taken their ids out of `by_id`, which may file one of them again
    /// (a batch's delete then re-insert).
    fn remove_sorted(&mut self, doomed: &[EntryKey]) {
        let (slab, index) = (&mut self.slab, &mut self.index);
        self.layout.remove_sorted(doomed, |key, slot| {
            index.remove(slab.get(slot).key, key.seq);
            slab.release(slot);
        });
    }

    /// Checks the structural invariants (debug aid / property tests):
    /// priority ordering with every `seq` below the next one drawn, block
    /// shape (none empty, none past
    /// `BLOCK_MAX`), that every block handle names a distinct slab slot
    /// holding a rule of its key's priority that the id index files under
    /// that key and slot, that the free slots are exactly the rest and
    /// every page keeps its fixed capacity, that the entries fit the
    /// capacity, and that the match index holds every stored entry exactly
    /// once under its current key and nothing else.
    pub fn check_invariants(&self) -> bool {
        let (layout, slab) = (&self.layout, &self.slab);
        // First, so that every handle the loop below reads is a live slot.
        if !slab.check((layout.blocks.iter()).flat_map(|b| b.handles.iter().copied())) {
            return false;
        }
        let mut prev: Option<EntryKey> = None;
        let mut counted = 0;
        for b in &layout.blocks {
            if b.keys.is_empty() || b.keys.len() != b.handles.len() || b.len() > BLOCK_MAX {
                return false;
            }
            for (k, &slot) in b.keys.iter().zip(&b.handles) {
                if prev.is_some_and(|p| *k <= p) || k.seq >= layout.next_seq {
                    return false;
                }
                prev = Some(*k);
                let r = slab.get(slot);
                if k.rp != !r.priority.0 || self.by_id.get(r.id) != Some((*k, slot)) {
                    return false;
                }
                counted += 1;
            }
        }
        counted == layout.len
            && self.by_id.len() == layout.len
            && self.by_id.check()
            && layout.len <= layout.capacity
            && self.index.check(layout.len, layout.indexed(slab))
    }

    /// Applies a whole op sequence as one planned transaction.
    ///
    /// The batch is **atomic**: the first op that violates the sequential
    /// semantics ([`TcamError::Full`] / [`TcamError::Duplicate`] /
    /// [`TcamError::NotFound`]) rejects the entire batch with the table as
    /// it was. On success the final layout is computed once and the batch
    /// is charged a *coalesced* shift plan: an entry disturbed by several
    /// ops moves once, and slots freed by the batch's own deletes absorb
    /// its inserts. The result is observationally equivalent to applying
    /// the ops singly (same final entries, same per-op stats) but never
    /// billed more shifts.
    pub fn apply_batch(&mut self, ops: &[TcamOp]) -> Result<BatchReport, TcamError> {
        let occupancy_before = self.layout.len;
        let next_seq = self.layout.next_seq;
        // Insert op `k` (its ordinal among the insert ops) takes seq
        // `next_seq + k`, so `(!priority, k)` packed in one `u64` sorts
        // exactly as its `EntryKey`. `slots[k]` holds the op's index until
        // the slab gives its rule a slot.
        let n = ops.iter().filter_map(inserted).count();
        let (mut packed, mut slots) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (at, op) in ops.iter().enumerate() {
            if let TcamOp::Insert(rule) = op {
                let at = u32::try_from(at).expect("INVARIANT: a batch holds fewer than 2^32 ops");
                packed.push((u64::from(!rule.priority.0) << 32) | slots.len() as u64);
                slots.push(at);
            }
        }
        packed.sort_unstable();
        // Into the slab in sort-key order, so a batch into an emptied table
        // (the crash rebuild) leaves the slab in match order.
        for &p in &packed {
            let k = p as u32 as usize;
            let rule =
                inserted(&ops[slots[k] as usize]).expect("INVARIANT: slots[k] names an insert");
            slots[k] = self.slab.alloc(*rule);
        }
        // One pass in submission order against `by_id`, which then holds
        // the sequential live state: the first error is the one with the
        // lowest op index, and an insert checks `Full` first.
        let mut live = self.layout.len;
        let mut inserts = 0;
        // The key each delete took out, in op order: a stored entry's, or
        // that of the in-batch insert it nets out.
        let mut gone: Vec<EntryKey> = Vec::with_capacity(ops.len() - n);
        // Modifies of stored entries, applied once the batch is known good;
        // a pending insert's rule is rewritten in its fresh slot at once.
        let mut modified: Vec<(EntryKey, u32, Action)> = Vec::new();
        for (at, op) in ops.iter().enumerate() {
            let failed = match op {
                TcamOp::Insert(_) if live >= self.layout.capacity => Some(TcamError::Full),
                TcamOp::Insert(rule) => {
                    let key = EntryKey::new(rule.priority, next_seq + inserts as u64);
                    let filed = self.by_id.try_insert(rule.id, key, slots[inserts]);
                    inserts += usize::from(filed);
                    live += usize::from(filed);
                    (!filed).then_some(TcamError::Duplicate(rule.id))
                }
                TcamOp::Delete(id) => {
                    self.by_id
                        .remove(*id)
                        .map_or(Some(TcamError::NotFound(*id)), |(key, _)| {
                            gone.push(key);
                            live -= 1;
                            None
                        })
                }
                TcamOp::ModifyAction { id, action } => match self.by_id.get(*id) {
                    Some((key, slot)) if key.seq >= next_seq => {
                        self.slab.get_mut(slot).action = *action;
                        None
                    }
                    Some((key, slot)) => {
                        modified.push((key, slot, *action));
                        None
                    }
                    None => Some(TcamError::NotFound(*id)),
                },
            };
            if let Some(err) = failed {
                self.undo_batch(&ops[..at], &gone, &packed, &slots);
                return Err(err);
            }
        }
        let (mut netted, mut deleted) = (Vec::new(), Vec::with_capacity(gone.len()));
        for &key in &gone {
            if key.seq < next_seq {
                deleted.push(key);
            } else {
                netted.push(key);
            }
        }
        netted.sort_unstable();
        deleted.sort_unstable();
        let (shifts, naive_shifts) = if inserts == 0 {
            (0, 0)
        } else {
            self.plan_batch_shifts(ops, &packed, &deleted, &netted, &gone)
        };
        // Mutate, one pass per touched block: in-place modifies, then the
        // deletes (freeing slots), then the fresh entries merged in. The
        // coalesced plan already billed every move.
        for &(_, slot, action) in &modified {
            self.slab.get_mut(slot).action = action;
        }
        modified.sort_by_key(|&(key, _, _)| key);
        modified.dedup_by_key(|&mut (key, _, _)| key);
        let modifies = (modified.iter())
            .filter(|(key, _, _)| deleted.binary_search(key).is_err())
            .count();
        for key in &netted {
            self.slab.release(slots[(key.seq - next_seq) as usize]);
        }
        self.remove_sorted(&deleted);
        self.layout.next_seq += inserts as u64;
        let mut fresh = Vec::with_capacity(n - netted.len());
        fresh.extend(
            (packed.iter())
                .map(|&p| (unpack(p, next_seq), slots[p as u32 as usize]))
                .filter(|(key, _)| netted.binary_search(key).is_err()),
        );
        // The match index takes the entries one by one, or is re-laid once
        // for the final occupancy when they would overfill it.
        let index_fits = self.index.has_room(fresh.len());
        if index_fits {
            for &(key, slot) in &fresh {
                self.index.insert(self.slab.get(slot).key, key.seq, slot);
            }
        }
        self.layout.insert_fresh(&fresh);
        if !index_fits {
            self.index
                .rebuild(self.layout.len, self.layout.indexed(&self.slab));
        }
        self.stats.inserts += inserts as u64;
        self.stats.deletes += gone.len() as u64;
        self.stats.modifies += (ops.len() - inserts - gone.len()) as u64;
        self.stats.total_shifts += shifts as u64;
        Ok(BatchReport {
            shifts,
            naive_shifts,
            inserts: fresh.len(),
            deletes: deleted.len(),
            modifies,
            occupancy_before,
        })
    }

    /// Puts `by_id` and the slab back as they were before a batch whose
    /// ops `done` went through and whose next op failed: `gone` holds the
    /// keys those ops deleted, `packed` and `slots` the batch's insert keys
    /// and the slots allocated for them. Every id an insert filed comes
    /// out, then every stored entry a delete took out is filed again
    /// (a re-inserted id takes both steps), and the slots go back in the
    /// reverse of the order they were allocated in.
    fn undo_batch(&mut self, done: &[TcamOp], gone: &[EntryKey], packed: &[u64], slots: &[u32]) {
        for rule in done.iter().filter_map(inserted) {
            self.by_id.remove(rule.id);
        }
        let next_seq = self.layout.next_seq;
        for &key in gone.iter().filter(|key| key.seq < next_seq) {
            let (bi, wi) = (self.layout.locate(key))
                .expect("INVARIANT: a stored entry stays laid out until the batch lands");
            let slot = self.layout.blocks[bi].handles[wi];
            self.by_id.insert(self.slab.get(slot).id, key, slot);
        }
        for &p in packed.iter().rev() {
            self.slab.release(slots[p as u32 as usize]);
        }
    }

    /// The coalesced shift plan and the sequential bill of a validated
    /// batch with at least one insert. `packed` holds every insert op's
    /// packed key, ascending; `deleted` the keys of the stored entries the
    /// batch removes and `netted` those of its inserts a later delete nets
    /// out, both ascending; `gone` the key each delete took out, in op
    /// order. The coalesced plan counts the pre-existing surviving entries
    /// the batch disturbs, letting batch-freed slots absorb inserts in the
    /// strategy's shift direction, and is clamped by the sequential bill
    /// so a batch is never billed worse than its ops applied singly.
    fn plan_batch_shifts(
        &self,
        ops: &[TcamOp],
        packed: &[u64],
        deleted: &[EntryKey],
        netted: &[EntryKey],
        gone: &[EntryKey],
    ) -> (usize, usize) {
        let layout = &self.layout;
        // Every event key, ascending: each insert op's and each deleted
        // stored entry's (a netted insert's is already among the former).
        let mut events = Vec::with_capacity(packed.len() + deleted.len());
        let mut stored = deleted.iter().copied().peekable();
        for key in packed.iter().map(|&p| unpack(p, layout.next_seq)) {
            while let Some(d) = stored.next_if(|d| *d < key) {
                events.push(d);
            }
            events.push(key);
        }
        events.extend(stored);
        // Their positions among the *current* entries, one walk over the
        // blocks. `NONE` inserts sort last and are placed freely: no
        // ordering pressure.
        let ranks = layout.ranks(events.iter().copied());
        let mut insert_pos = Vec::with_capacity(packed.len());
        let mut delete_pos = Vec::with_capacity(deleted.len());
        for (key, &pos) in events.iter().zip(&ranks) {
            if key.seq < layout.next_seq {
                delete_pos.push(pos);
            } else if key.rp != !Priority::NONE.0 && netted.binary_search(key).is_err() {
                insert_pos.push(pos);
            }
        }
        let (ins, del) = (insert_pos.iter().copied(), delete_pos.iter().copied());
        let fwd = coalesced_moves_forward(layout.len, ins, del);
        let bwd = coalesced_moves_backward(layout.len, &insert_pos, &delete_pos);
        let formula = match layout.strategy {
            PlacementStrategy::PackedLow => fwd,
            PlacementStrategy::PackedHigh => bwd,
            PlacementStrategy::Balanced => fwd.min(bwd),
        };
        if layout.len + ops.len() <= NAIVE_CLAMP_LIMIT {
            let naive = self.count_singly(ops, &events, &ranks, gone);
            (formula.min(naive), naive)
        } else {
            // Estimate of the per-op sequential cost against the pre-batch
            // table.
            let estimate: usize = (insert_pos.iter())
                .map(|&p| layout.single_insert_cost(p, layout.len))
                .sum();
            (formula.min(estimate), estimate)
        }
    }

    /// Exact sequential cost of a validated batch: what its ops cost
    /// applied singly, counted over its own events instead of replayed on
    /// a copy of the layout. `events` holds every event key ascending,
    /// `ranks` their positions among the current entries, `gone` the key
    /// each delete took out, in op order. A Fenwick tree over `events`
    /// holds +1 for every insert placed so far and −1 for every entry
    /// deleted so far, so an insert lands at its rank plus the prefix sum
    /// below its key, among the current entries plus the net so far.
    /// `O(m log m)` for `m` ops whatever the table holds.
    fn count_singly(
        &self,
        ops: &[TcamOp],
        events: &[EntryKey],
        ranks: &[usize],
        gone: &[EntryKey],
    ) -> usize {
        let layout = &self.layout;
        let at = |key: &EntryKey| {
            (events.binary_search(key)).expect("INVARIANT: every event key is among `events`")
        };
        let mut tree = vec![0isize; events.len() + 1];
        let (mut len, mut seq, mut deletes) = (layout.len, layout.next_seq, gone.iter());
        let mut total = 0;
        for op in ops {
            match op {
                TcamOp::Insert(rule) => {
                    let i = at(&EntryKey::new(rule.priority, seq));
                    seq += 1;
                    if !rule.priority.is_none() {
                        let pos = (ranks[i].checked_add_signed(fenwick_prefix(&tree, i)))
                            .expect("INVARIANT: a position is never negative");
                        total += layout.single_insert_cost(pos, len);
                    }
                    fenwick_add(&mut tree, i, 1);
                    len += 1;
                }
                TcamOp::Delete(_) => {
                    let key = deletes.next().expect("INVARIANT: one key per delete");
                    fenwick_add(&mut tree, at(key), -1);
                    len -= 1;
                }
                TcamOp::ModifyAction { .. } => {}
            }
        }
        total
    }
}

/// The rule an insert op carries.
fn inserted(op: &TcamOp) -> Option<&Rule> {
    match op {
        TcamOp::Insert(rule) => Some(rule),
        TcamOp::Delete(_) | TcamOp::ModifyAction { .. } => None,
    }
}

/// The sort key of packed insert key `p` (see [`TcamTable::apply_batch`])
/// in a batch whose first insert takes seq `next_seq`.
fn unpack(p: u64, next_seq: u64) -> EntryKey {
    EntryKey {
        rp: (p >> 32) as u32,
        seq: next_seq + u64::from(p as u32),
    }
}

/// The sum of a Fenwick `tree`'s values at indices below `i` (index `j`
/// lives at `tree[j + 1]`).
fn fenwick_prefix(tree: &[isize], mut i: usize) -> isize {
    let mut sum = 0;
    while i > 0 {
        sum += tree[i];
        i &= i - 1;
    }
    sum
}

/// Adds `v` at index `i` of a Fenwick `tree`.
fn fenwick_add(tree: &mut [isize], i: usize, v: isize) {
    let mut i = i + 1;
    while i < tree.len() {
        tree[i] += v;
        i += i & i.wrapping_neg();
    }
}

/// Entries moved when every insert opens its slot by shifting *forward*
/// (toward high addresses). A left-to-right sweep carries the unabsorbed
/// insert flow; a slot freed by a batch delete cancels flow arriving from
/// the left, and whatever remains spills into the tail. An entry is billed
/// iff any flow crosses it — i.e. each disturbed entry exactly once. One
/// linear merge of the ascending insert positions (an insert at `p` lands
/// before the entry at `p`) and the ascending delete positions.
fn coalesced_moves_forward(
    len: usize,
    insert_pos: impl Iterator<Item = usize>,
    delete_pos: impl Iterator<Item = usize>,
) -> usize {
    let (mut ins, mut del) = (insert_pos.peekable(), delete_pos.peekable());
    let (mut moved, mut flow, mut cursor) = (0usize, 0usize, 0usize);
    loop {
        let pos = match (ins.peek(), del.peek()) {
            (None, None) => break,
            (Some(&i), Some(&d)) => i.min(d),
            (Some(&p), None) | (None, Some(&p)) => p,
        };
        if flow > 0 {
            moved += pos - cursor;
        }
        cursor = pos;
        while ins.next_if_eq(&pos).is_some() {
            flow += 1;
        }
        if del.next_if_eq(&pos).is_some() {
            // The entry at this index is removed by the batch: its slot
            // absorbs one unit of flow, and it is skipped.
            flow = flow.saturating_sub(1);
            cursor = pos + 1;
        }
    }
    if flow > 0 {
        moved += len - cursor;
    }
    moved
}

/// Mirror of [`coalesced_moves_forward`]: every insert shifts *backward*
/// (toward low addresses), with the spill at the head.
fn coalesced_moves_backward(len: usize, insert_pos: &[usize], delete_pos: &[usize]) -> usize {
    // Reflect positions around the table end, which reverses their order:
    // an entry at index i becomes index len-1-i; a boundary position p
    // becomes len-p.
    coalesced_moves_forward(
        len,
        insert_pos.iter().rev().map(|&p| len - p),
        delete_pos.iter().rev().map(|&p| len - 1 - p),
    )
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod tests {
    use super::*;

    fn rule(id: u64, pfx: &str, prio: u32) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), Action::Forward(id as u32))
    }

    #[test]
    fn insert_orders_by_priority() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        t.insert(rule(2, "10.0.0.0/8", 10)).unwrap();
        t.insert(rule(3, "10.0.0.0/8", 1)).unwrap();
        let prios: Vec<u32> = t.entries().iter().map(|r| r.priority.0).collect();
        assert_eq!(prios, vec![10, 5, 1]);
        assert!(t.check_invariants());
    }

    #[test]
    fn equal_priority_is_fifo() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        t.insert(rule(2, "11.0.0.0/8", 5)).unwrap();
        let ids: Vec<u64> = t.entries().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn shift_counting_packed_low() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        // Descending priority: always appends, zero shifts.
        for (i, p) in [50u32, 40, 30, 20, 10].iter().enumerate() {
            let s = t.insert(rule(i as u64, "10.0.0.0/8", *p)).unwrap();
            assert_eq!(s.shifts, 0, "descending insert must not shift");
            assert_eq!(s.occupancy_before, i);
        }
        // A top-priority insert shifts everything.
        let s = t.insert(rule(99, "10.0.0.0/8", 60)).unwrap();
        assert_eq!(s.shifts, 5);
    }

    #[test]
    fn shift_counting_packed_high() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedHigh);
        // Ascending priority: always at the top, zero shifts for PackedHigh.
        for (i, p) in [10u32, 20, 30, 40, 50].iter().enumerate() {
            let s = t.insert(rule(i as u64, "10.0.0.0/8", *p)).unwrap();
            assert_eq!(s.shifts, 0, "ascending insert must not shift");
        }
        let s = t.insert(rule(99, "10.0.0.0/8", 5)).unwrap();
        assert_eq!(s.shifts, 5);
    }

    #[test]
    fn shift_counting_balanced() {
        let mut t = TcamTable::new(16, PlacementStrategy::Balanced);
        for (i, p) in [50u32, 40, 30, 20, 10].iter().enumerate() {
            t.insert(rule(i as u64, "10.0.0.0/8", p * 10)).unwrap();
        }
        // Insert in the middle of 5 entries: min(above, below) = 2.
        let s = t.insert(rule(99, "10.0.0.0/8", 250)).unwrap();
        assert_eq!(s.shifts, 2);
    }

    #[test]
    fn none_priority_is_free_and_lowest() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedHigh);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        let s = t.insert(rule(2, "0.0.0.0/0", 0)).unwrap();
        assert_eq!(s.shifts, 0);
        assert_eq!(t.entries().last().unwrap().id.0, 2);
    }

    #[test]
    fn capacity_enforced() {
        let mut t = TcamTable::new(2, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 1)).unwrap();
        t.insert(rule(2, "10.0.0.0/8", 2)).unwrap();
        assert_eq!(t.insert(rule(3, "10.0.0.0/8", 3)), Err(TcamError::Full));
        // A priority-free rule shifts nothing but still needs a slot.
        assert_eq!(t.insert(rule(4, "10.0.0.0/8", 0)), Err(TcamError::Full));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut t = TcamTable::new(8, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 1)).unwrap();
        assert_eq!(
            t.insert(rule(1, "11.0.0.0/8", 2)),
            Err(TcamError::Duplicate(RuleId(1)))
        );
    }

    #[test]
    fn lookup_returns_highest_priority_match() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "192.168.1.0/24", 1)).unwrap(); // port 1
        t.insert(rule(2, "192.168.1.0/26", 9)).unwrap(); // port 2, higher prio
        let pkt = ("192.168.1.5/32".parse::<Ipv4Prefix>().unwrap().addr() as u128) << 96;
        let hit = t.lookup(pkt).unwrap();
        assert_eq!(hit.id.0, 2);
        // Outside the /26 the /24 matches.
        let pkt2 = ("192.168.1.200/32".parse::<Ipv4Prefix>().unwrap().addr() as u128) << 96;
        assert_eq!(t.lookup(pkt2).unwrap().id.0, 1);
        // Miss entirely.
        let pkt3 = ("10.0.0.1/32".parse::<Ipv4Prefix>().unwrap().addr() as u128) << 96;
        assert!(t.lookup(pkt3).is_none());
        assert_eq!(t.stats().lookups, 3);
    }

    #[test]
    fn delete_and_modify() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        t.insert(rule(2, "11.0.0.0/8", 5)).unwrap();
        t.modify_action(RuleId(1), Action::Drop).unwrap();
        assert_eq!(t.get(RuleId(1)).unwrap().action, Action::Drop);
        let removed = t.delete(RuleId(1)).unwrap();
        assert_eq!(removed.id.0, 1);
        assert_eq!(t.delete(RuleId(1)), Err(TcamError::NotFound(RuleId(1))));
        assert_eq!(
            t.modify_action(RuleId(1), Action::Drop),
            Err(TcamError::NotFound(RuleId(1)))
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().deletes, 1);
        assert_eq!(t.stats().modifies, 1);
    }

    #[test]
    fn clear_and_retain() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        for i in 0..5 {
            t.insert(rule(i, "10.0.0.0/8", (i + 1) as u32)).unwrap();
        }
        let mut emptied = t.clone();
        assert_eq!(emptied.retain(|_| false), 5);
        assert_eq!(t.clear(), 5);
        assert!(t.is_empty() && emptied.is_empty());
        assert_eq!(emptied.stats(), t.stats());
        assert!(emptied.check_invariants());
    }

    #[test]
    fn random_ops_maintain_invariants() {
        use hermes_util::rng::{Rng, SeedableRng};
        let mut rng = hermes_util::rng::rngs::StdRng::seed_from_u64(3);
        let mut t = TcamTable::new(64, PlacementStrategy::Balanced);
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..2000 {
            if live.is_empty() || (rng.gen_bool(0.6) && t.free() > 0) {
                let r = rule(next_id, "10.0.0.0/8", rng.gen_range(0..100));
                if t.insert(r).is_ok() {
                    live.push(next_id);
                }
                next_id += 1;
            } else {
                let i = rng.gen_range(0..live.len());
                let id = live.swap_remove(i);
                t.delete(RuleId(id)).unwrap();
            }
            assert!(t.check_invariants());
        }
    }

    #[test]
    fn id_index_survives_block_splits() {
        // More than BLOCK_MAX entries forces splits; every id must still
        // resolve through the index.
        let mut t = TcamTable::new(4096, PlacementStrategy::PackedLow);
        for i in 0..3000u64 {
            t.insert(rule(i, "10.0.0.0/8", (i % 37) as u32 + 1))
                .unwrap();
        }
        assert!(t.check_invariants());
        for i in (0..3000u64).step_by(97) {
            assert_eq!(t.get(RuleId(i)).unwrap().id.0, i);
        }
        assert!(t.get(RuleId(5000)).is_none());
        // Deleting through the index keeps everything consistent.
        for i in (0..3000u64).step_by(3) {
            t.delete(RuleId(i)).unwrap();
        }
        assert!(t.check_invariants());
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn a_block_splits_as_soon_as_it_passes_block_max() {
        let fill = |n: u64| {
            let mut t = TcamTable::new(4096, PlacementStrategy::PackedLow);
            for i in 0..n {
                t.insert(rule(i, "10.0.0.0/8", 5000 - i as u32)).unwrap();
                assert!(t.check_invariants(), "{} entries", i + 1);
            }
            t
        };
        // Single inserts: the one that takes a block past BLOCK_MAX splits it.
        fill(BLOCK_MAX as u64 + 1);
        // So does a batch that takes a full block one past BLOCK_MAX.
        let mut t = fill(BLOCK_MAX as u64);
        assert_eq!(t.layout.blocks.len(), 1);
        t.apply_batch(&[TcamOp::Insert(rule(9999, "10.0.0.0/8", 1))])
            .unwrap();
        assert!(t.check_invariants());
    }

    #[test]
    fn batch_insert_coalesces_shifts() {
        // 100 entries, then a batch of 10 top-priority inserts: per-op
        // would charge ~100 each (PackedLow), the coalesced plan disturbs
        // each existing entry once.
        let mut t = TcamTable::new(256, PlacementStrategy::PackedLow);
        for i in 0..100u64 {
            t.insert(rule(i, "10.0.0.0/8", 1000 - i as u32)).unwrap();
        }
        let ops: Vec<TcamOp> = (0..10u64)
            .map(|i| TcamOp::Insert(rule(500 + i, "10.0.0.0/8", 5000 + i as u32)))
            .collect();
        let mut singly = t.clone();
        let mut per_op = 0usize;
        for op in &ops {
            if let TcamOp::Insert(r) = op {
                per_op += singly.insert(*r).unwrap().shifts;
            }
        }
        let rep = t.apply_batch(&ops).unwrap();
        assert_eq!(rep.inserts, 10);
        assert!(rep.shifts <= per_op, "{} > per-op {}", rep.shifts, per_op);
        assert!(rep.shifts <= 100, "coalesced plan disturbs each entry once");
        assert_eq!(t.entries(), singly.entries(), "same final table");
        assert!(t.check_invariants());
    }

    #[test]
    fn batch_is_atomic_on_error() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        let before = t.entries();
        let stats_before = t.stats();
        // Second op is invalid: the whole batch must be rejected.
        let ops = vec![
            TcamOp::Insert(rule(2, "11.0.0.0/8", 6)),
            TcamOp::Delete(RuleId(99)),
        ];
        assert_eq!(t.apply_batch(&ops), Err(TcamError::NotFound(RuleId(99))));
        assert_eq!(t.entries(), before);
        assert_eq!(t.stats(), stats_before);
        // Capacity overflow mid-batch also rejects atomically.
        let too_many: Vec<TcamOp> = (10..30u64)
            .map(|i| TcamOp::Insert(rule(i, "10.0.0.0/8", i as u32)))
            .collect();
        assert_eq!(t.apply_batch(&too_many), Err(TcamError::Full));
        assert_eq!(t.entries(), before);
    }

    #[test]
    fn batch_sequential_semantics() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        // Replace id 1, insert-and-delete id 2, modify a pending insert.
        let ops = vec![
            TcamOp::Delete(RuleId(1)),
            TcamOp::Insert(rule(1, "12.0.0.0/8", 7)),
            TcamOp::Insert(rule(2, "13.0.0.0/8", 3)),
            TcamOp::Delete(RuleId(2)),
            TcamOp::Insert(rule(3, "14.0.0.0/8", 9)),
            TcamOp::ModifyAction {
                id: RuleId(3),
                action: Action::Drop,
            },
        ];
        let rep = t.apply_batch(&ops).unwrap();
        assert_eq!((rep.inserts, rep.deletes), (2, 1));
        let ids: Vec<u64> = t.entries().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![3, 1]);
        assert_eq!(t.get(RuleId(3)).unwrap().action, Action::Drop);
        assert!(!t.contains(RuleId(2)));
        assert!(t.check_invariants());
    }

    #[test]
    fn batch_delete_slots_absorb_inserts() {
        // A batch that deletes low-priority entries and inserts
        // high-priority ones reuses the freed slots: cheaper than the
        // naive sum.
        let mut t = TcamTable::new(64, PlacementStrategy::PackedLow);
        for i in 0..40u64 {
            t.insert(rule(i, "10.0.0.0/8", 1000 - i as u32)).unwrap();
        }
        let ops = vec![
            TcamOp::Delete(RuleId(39)),
            TcamOp::Insert(rule(100, "10.0.0.0/8", 2000)),
        ];
        let rep = t.apply_batch(&ops).unwrap();
        // The freed tail slot absorbs the top insert: everything between
        // moves once — exactly the per-op cost here, never more.
        assert!(rep.shifts <= rep.naive_shifts);
        assert!(t.check_invariants());
    }

    #[test]
    fn batch_empty_is_noop() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        t.insert(rule(1, "10.0.0.0/8", 5)).unwrap();
        let rep = t.apply_batch(&[]).unwrap();
        assert_eq!(
            rep,
            BatchReport {
                occupancy_before: 1,
                ..BatchReport::default()
            }
        );
        assert_eq!(t.len(), 1);
    }

    /// `check_invariants` catches a block handle naming a freed slot, one
    /// naming a slot another handle holds, and two handles swapped across
    /// priorities.
    #[test]
    fn a_planted_stale_handle_fails_the_invariants() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        for i in 0..4 {
            t.insert(rule(i, "10.0.0.0/8", 10 - i as u32)).unwrap();
        }
        let (_, freed) = t.by_id.get(RuleId(3)).unwrap();
        t.delete(RuleId(3)).unwrap();
        assert!(t.check_invariants());
        let plant = |f: fn(&mut Vec<u32>, u32)| {
            let mut bad = t.clone();
            f(&mut bad.layout.blocks[0].handles, freed);
            bad.check_invariants()
        };
        assert!(!plant(|h, freed| h[0] = freed), "a freed slot");
        assert!(!plant(|h, _| h[0] = h[1]), "a slot held twice");
        assert!(!plant(|h, _| h.swap(0, 1)), "a rule of another priority");
    }

    /// Delete/insert churn at a steady occupancy, single and batched,
    /// lands in freed slots: the slab keeps the pages its peak needed. A
    /// batch takes its inserts' slots before its deletes free theirs, so
    /// batched churn hands out one batch's inserts (30) beyond the peak,
    /// once, and reuses them from then on.
    #[test]
    fn churn_reuses_slots_without_adding_pages() {
        let mut t = TcamTable::new(256, PlacementStrategy::Balanced);
        for i in 0..200u64 {
            t.insert(rule(i, "10.0.0.0/8", (i % 50) as u32 + 1))
                .unwrap();
        }
        let handed_out = |t: &TcamTable| t.slab.pages().map(<[Rule]>::len).sum::<usize>();
        assert_eq!((t.slab.pages().len(), handed_out(&t)), (4, 200));
        for i in 0..2000u64 {
            t.delete(RuleId(i)).unwrap();
            t.insert(rule(200 + i, "10.0.0.0/8", (i % 70) as u32 + 1))
                .unwrap();
        }
        for round in 0..50u64 {
            let base = 2000 + 30 * round;
            let ops: Vec<TcamOp> = (base..base + 30)
                .map(|id| TcamOp::Delete(RuleId(id)))
                .chain((base..base + 30).map(|id| TcamOp::Insert(rule(200 + id, "11.0.0.0/8", 7))))
                .collect();
            t.apply_batch(&ops).unwrap();
        }
        assert_eq!(
            (t.slab.pages().len(), handed_out(&t), t.len()),
            (4, 230, 200)
        );
        assert!(t.check_invariants());
    }

    /// `clear` keeps the slab's pages, and a refill, single or batched,
    /// lands in them without adding or reallocating one. The batch lands
    /// in sort-key order, so the slab then reads in match order.
    #[test]
    fn clear_then_refill_adds_no_pages() {
        let mut t = TcamTable::new(512, PlacementStrategy::PackedLow);
        let rules: Vec<Rule> = (0..300u64)
            .map(|i| rule(i, "10.0.0.0/8", (i % 13) as u32))
            .collect();
        let fill = |t: &mut TcamTable| {
            for &r in &rules {
                t.insert(r).unwrap();
            }
        };
        fill(&mut t);
        let pages = |t: &TcamTable| t.slab.pages().map(<[Rule]>::as_ptr).collect::<Vec<_>>();
        let before = pages(&t);
        assert_eq!(before.len(), 5);
        t.clear();
        assert!(t.check_invariants() && pages(&t) == before);
        fill(&mut t);
        assert!(t.check_invariants() && pages(&t) == before);
        t.clear();
        let ops: Vec<TcamOp> = rules.iter().map(|&r| TcamOp::Insert(r)).collect();
        t.apply_batch(&ops).unwrap();
        assert!(t.check_invariants() && pages(&t) == before);
        assert!(t.slab.pages().flatten().eq(t.iter()), "slab in match order");
    }
}

/// `apply_batch` against itself as it stood before the sorted planner and
/// the per-block merge, kept here as [`reference`](batch_merge::reference):
/// the merge on tables big enough that one batch grows blocks past
/// `BLOCK_MAX` (the crash-resync shape), the planner on batches full of
/// repeated ids, rejected ops and capacity edges.
#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod batch_merge {
    use super::*;
    use hermes_util::check::{arb, just, one_of, range};
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// The `BTreeMap` planner — a sequential walk of the ops keeping the
    /// pending inserts, deletes and modifies by id, the two coalesced
    /// sweeps over a map of events, and the sequential bill replayed op by
    /// op on a scratch copy of the layout — then the deletes one
    /// `Layout::raw_remove` at a time in id order and the surviving inserts
    /// one `Vec::insert` at a time in submission order.
    pub(super) mod reference {
        use super::*;

        impl<P: Copy> Layout<P> {
            /// The same keys with the payloads dropped.
            fn shape(&self) -> Layout<()> {
                Layout {
                    blocks: self
                        .blocks
                        .iter()
                        .map(|b| Block {
                            keys: b.keys.clone(),
                            handles: vec![(); b.len()],
                        })
                        .collect(),
                    next_seq: self.next_seq,
                    len: self.len,
                    capacity: self.capacity,
                    strategy: self.strategy,
                }
            }
        }

        /// Exact sequential cost of a *validated* batch: its inserts and
        /// deletes applied singly to a scratch copy of the layout. Shifts
        /// depend on sort keys alone, so the scratch carries no rules
        /// and no match index, and the in-place modifies are skipped.
        pub(super) fn replay_singly(t: &TcamTable, ops: &[TcamOp]) -> usize {
            let mut scratch = t.layout.shape();
            // Sort keys of the entries the replay itself placed (no slab slot
            // behind them); every other live id is where `by_id` says.
            let mut placed = IdIndex::default();
            let mut total = 0usize;
            for op in ops {
                match op {
                    TcamOp::Insert(rule) => {
                        let (key, bi, wi, shifts) = scratch.open_slot(rule.priority);
                        scratch.raw_insert(bi, wi, key, ());
                        placed.insert(rule.id, key, 0);
                        total += shifts;
                    }
                    TcamOp::Delete(id) => {
                        let (key, _) = placed
                            .remove(*id)
                            .or_else(|| t.by_id.get(*id))
                            .expect("INVARIANT: validated batch deletes live entries only");
                        let (bi, wi) = scratch
                            .locate(key)
                            .expect("INVARIANT: validated batch deletes live entries only");
                        scratch.raw_remove(bi, wi);
                    }
                    TcamOp::ModifyAction { .. } => {}
                }
            }
            total
        }

        /// Sequential-walk state for a validated batch.
        #[derive(Default)]
        struct BatchPlan {
            /// Rules to be inserted at end-state, by id.
            pending: BTreeMap<RuleId, Rule>,
            /// Submission order of the surviving inserts (FIFO among equals).
            pending_order: Vec<RuleId>,
            /// Pre-existing entries the batch removes, with their sort keys.
            deleted: BTreeMap<RuleId, EntryKey>,
            /// Pre-existing entries modified in place, with their final action.
            modified: BTreeMap<RuleId, Action>,
            n_inserts: u64,
            n_deletes: u64,
            n_modifies: u64,
        }

        fn validate_batch(t: &TcamTable, ops: &[TcamOp]) -> Result<BatchPlan, TcamError> {
            let mut plan = BatchPlan::default();
            for op in ops {
                match op {
                    TcamOp::Insert(rule) => {
                        let live = t.layout.len - plan.deleted.len() + plan.pending.len();
                        if live >= t.layout.capacity {
                            return Err(TcamError::Full);
                        }
                        let exists_in_table =
                            t.contains(rule.id) && !plan.deleted.contains_key(&rule.id);
                        if exists_in_table || plan.pending.contains_key(&rule.id) {
                            return Err(TcamError::Duplicate(rule.id));
                        }
                        plan.pending.insert(rule.id, *rule);
                        plan.pending_order.push(rule.id);
                        plan.n_inserts += 1;
                    }
                    TcamOp::Delete(id) => {
                        if plan.pending.remove(id).is_some() {
                            plan.pending_order.retain(|p| p != id);
                        } else if t.contains(*id) && !plan.deleted.contains_key(id) {
                            plan.deleted
                                .insert(*id, t.by_id.get(*id).expect("live id").0);
                            plan.modified.remove(id);
                        } else {
                            return Err(TcamError::NotFound(*id));
                        }
                        plan.n_deletes += 1;
                    }
                    TcamOp::ModifyAction { id, action } => {
                        if let Some(r) = plan.pending.get_mut(id) {
                            r.action = *action;
                        } else if t.contains(*id) && !plan.deleted.contains_key(id) {
                            plan.modified.insert(*id, *action);
                        } else {
                            return Err(TcamError::NotFound(*id));
                        }
                        plan.n_modifies += 1;
                    }
                }
            }
            Ok(plan)
        }

        fn plan_batch_shifts(t: &TcamTable, ops: &[TcamOp], plan: &BatchPlan) -> (usize, usize) {
            let layout = &t.layout;
            let mut insert_pos: Vec<usize> = Vec::with_capacity(plan.pending_order.len());
            for id in &plan.pending_order {
                let rule = &plan.pending[id];
                if rule.priority.is_none() {
                    continue;
                }
                let key = EntryKey::new(rule.priority, layout.next_seq);
                insert_pos.push(layout.insertion_point(key).2);
            }
            insert_pos.sort_unstable();
            let mut delete_pos: Vec<usize> = plan
                .deleted
                .values()
                .map(|k| {
                    let (bi, wi) = layout.locate(*k).expect("validated batch");
                    layout.blocks[..bi].iter().map(Block::len).sum::<usize>() + wi
                })
                .collect();
            delete_pos.sort_unstable();
            let fwd = coalesced_moves_forward(layout.len, &insert_pos, &delete_pos);
            let bwd = coalesced_moves_backward(layout.len, &insert_pos, &delete_pos);
            let formula = match layout.strategy {
                PlacementStrategy::PackedLow => fwd,
                PlacementStrategy::PackedHigh => bwd,
                PlacementStrategy::Balanced => fwd.min(bwd),
            };
            let estimate: usize = insert_pos
                .iter()
                .map(|&p| layout.single_insert_cost(p, layout.len))
                .sum();
            if layout.len + ops.len() <= NAIVE_CLAMP_LIMIT {
                let naive = replay_singly(t, ops);
                (formula.min(naive), naive)
            } else {
                (formula.min(estimate), estimate)
            }
        }

        fn coalesced_moves_forward(
            len: usize,
            insert_pos: &[usize],
            delete_pos: &[usize],
        ) -> usize {
            let mut events: BTreeMap<usize, (usize, bool)> = BTreeMap::new();
            for &p in insert_pos {
                events.entry(p).or_default().0 += 1;
            }
            for &p in delete_pos {
                events.entry(p).or_default().1 = true;
            }
            let mut moved = 0usize;
            let mut flow = 0usize;
            let mut cursor = 0usize;
            for (&pos, &(ins, is_delete)) in &events {
                if flow > 0 {
                    moved += pos - cursor;
                }
                cursor = pos;
                flow += ins;
                if is_delete {
                    flow = flow.saturating_sub(1);
                    cursor = pos + 1;
                }
            }
            if flow > 0 {
                moved += len - cursor;
            }
            moved
        }

        fn coalesced_moves_backward(
            len: usize,
            insert_pos: &[usize],
            delete_pos: &[usize],
        ) -> usize {
            let ins: Vec<usize> = insert_pos.iter().map(|&p| len - p).collect();
            let del: Vec<usize> = delete_pos.iter().map(|&p| len - 1 - p).collect();
            coalesced_moves_forward(len, &ins, &del)
        }

        pub(super) fn apply_batch(
            t: &mut TcamTable,
            ops: &[TcamOp],
        ) -> Result<BatchReport, TcamError> {
            let occupancy_before = t.layout.len;
            let plan = validate_batch(t, ops)?;
            let (shifts, naive_shifts) = plan_batch_shifts(t, ops, &plan);
            for (id, action) in &plan.modified {
                let (_, slot) = t.by_id.get(*id).expect("validated batch");
                t.slab.get_mut(slot).action = *action;
            }
            for (id, key) in &plan.deleted {
                let (bi, wi) = t.layout.locate(*key).expect("validated batch");
                let slot = t.layout.raw_remove(bi, wi);
                t.index.remove(t.slab.get(slot).key, key.seq);
                t.slab.release(slot);
                t.by_id.remove(*id);
            }
            for id in &plan.pending_order {
                let rule = plan.pending[id];
                let key = EntryKey::new(rule.priority, t.layout.next_seq);
                t.layout.next_seq += 1;
                let (bi, wi, _) = t.layout.insertion_point(key);
                t.raw_insert(bi, wi, key, rule);
            }
            t.stats.inserts += plan.n_inserts;
            t.stats.deletes += plan.n_deletes;
            t.stats.modifies += plan.n_modifies;
            t.stats.total_shifts += shifts as u64;
            Ok(BatchReport {
                shifts,
                naive_shifts,
                inserts: plan.pending_order.len(),
                deletes: plan.deleted.len(),
                modifies: plan.modified.len(),
                occupancy_before,
            })
        }
    }

    const MERGE_STREAM_SALT: u64 = 0x4d45_5247_455f_4241;
    const PLAN_STREAM_SALT: u64 = 0x504c_414e_5f42_4154;
    const SHAPE_STREAM_SALT: u64 = 0x5348_4150_455f_4241;
    const BILL_STREAM_SALT: u64 = 0x4249_4c4c_5f43_4e54;

    /// A rule under 10.0.0.0/12 (/8, /16 or /24, so packets hit several
    /// entries at once) with a priority from `prios`, or one time in twenty
    /// `Priority::NONE`.
    pub(super) fn rule(rng: &mut StdRng, id: u64, prios: Range<u32>) -> Rule {
        let len = [8u8, 16, 24][rng.gen_range(0..3usize)];
        let addr = 0x0a00_0000 | (rng.gen::<u32>() & 0x000f_ff00);
        let prio = if rng.gen_bool(0.05) {
            0
        } else {
            rng.gen_range(prios)
        };
        let action = Action::Forward(rng.gen_range(0..8u32));
        Rule::new(
            id,
            Ipv4Prefix::new(addr, len).to_key(),
            Priority(prio),
            action,
        )
    }

    /// A valid op sequence against `t`: deletes of `sweep` entries
    /// adjacent in match order (at the head, the tail or anywhere, so whole
    /// blocks empty), then `len` draws of inserts of new ids (never past
    /// capacity), deletes and modifies of live ids, and
    /// delete-then-reinsert replacements of one id.
    fn batch(
        rng: &mut StdRng,
        t: &TcamTable,
        next_id: &mut u64,
        (sweep, len): (usize, usize),
        prios: Range<u32>,
    ) -> Vec<TcamOp> {
        let mut live: Vec<u64> = t.iter().map(|r| r.id.0).collect();
        let sweep = sweep.min(live.len());
        let start = match rng.gen_range(0..3u32) {
            0 => 0,
            1 => live.len() - sweep,
            _ => rng.gen_range(0..=live.len() - sweep),
        };
        let mut ops: Vec<TcamOp> = (live.drain(start..start + sweep))
            .map(|id| TcamOp::Delete(RuleId(id)))
            .collect();
        let mut occupancy = t.len() - sweep;
        for _ in 0..len {
            match rng.gen_range(0..10u32) {
                0..=4 if occupancy < t.capacity() => {
                    ops.push(TcamOp::Insert(rule(rng, *next_id, prios.clone())));
                    live.push(*next_id);
                    *next_id += 1;
                    occupancy += 1;
                }
                5..=7 if !live.is_empty() => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    ops.push(TcamOp::Delete(RuleId(id)));
                    occupancy -= 1;
                }
                8 if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    let action = Action::Forward(rng.gen_range(8..16u32));
                    ops.push(TcamOp::ModifyAction {
                        id: RuleId(id),
                        action,
                    });
                }
                9 if !live.is_empty() => {
                    let id = live[rng.gen_range(0..live.len())];
                    ops.push(TcamOp::Delete(RuleId(id)));
                    ops.push(TcamOp::Insert(rule(rng, id, prios.clone())));
                }
                _ => {}
            }
        }
        ops
    }

    /// An op sequence against `t` with the shapes a planner gets wrong:
    /// `len` draws, most on a pool of eight ids (four stored, four new), so
    /// insert → modify → delete → re-insert chains on one id are common,
    /// the rest inserts of new ids and ops on any stored id. Up to the
    /// first rejected op it tracks which ids live and how full the table
    /// is. With `slips`, one draw in twelve (one in three at capacity) is
    /// an op the table must reject — a duplicate insert or a delete or
    /// modify of a dead id — and an insert never waits for room; without,
    /// every op is valid.
    fn messy_batch(
        rng: &mut StdRng,
        t: &TcamTable,
        next_id: &mut u64,
        len: usize,
        prios: Range<u32>,
        slips: bool,
    ) -> Vec<TcamOp> {
        let stored: Vec<u64> = t.iter().map(|r| r.id.0).collect();
        let mut live: BTreeSet<u64> = stored.iter().copied().collect();
        let mut fresh_id = || {
            *next_id += 1;
            *next_id - 1
        };
        let mut pool: Vec<u64> = (0..4).map(|_| fresh_id()).collect();
        if !stored.is_empty() {
            pool.extend((0..4).map(|_| stored[rng.gen_range(0..stored.len())]));
        }
        let mut occupancy = t.len();
        let mut ops = Vec::with_capacity(len);
        for _ in 0..len {
            let id = match rng.gen_range(0..10u32) {
                0..=5 => pool[rng.gen_range(0..pool.len())],
                6 | 7 if !stored.is_empty() => stored[rng.gen_range(0..stored.len())],
                _ => fresh_id(),
            };
            let full = occupancy >= t.capacity();
            let slip = slips && rng.gen_range(0..if full { 3u32 } else { 12 }) == 0;
            let alive = live.contains(&id);
            let op = match (alive, slip, rng.gen_bool(0.5)) {
                (true, false, true) | (false, true, true) => TcamOp::Delete(RuleId(id)),
                (true, false, false) | (false, true, false) => TcamOp::ModifyAction {
                    id: RuleId(id),
                    action: Action::Forward(rng.gen_range(8..16u32)),
                },
                (false, false, _) if full && !slips => continue,
                (true, true, _) | (false, false, _) => TcamOp::Insert(rule(rng, id, prios.clone())),
            };
            if !slip {
                match op {
                    TcamOp::Insert(_) => {
                        live.insert(id);
                        occupancy += 1;
                    }
                    TcamOp::Delete(_) => {
                        live.remove(&id);
                        occupancy -= 1;
                    }
                    TcamOp::ModifyAction { .. } => {}
                }
            }
            ops.push(op);
        }
        ops
    }

    /// The two batch shapes the workloads send most: `len` inserts of new
    /// ids, as many as fit (a migration's main-table batch, a crash
    /// rebuild), or deletes of up to `len` distinct stored ids in random
    /// order (a shadow drain). With `slips`, one op the table must reject
    /// is planted: among inserts, a duplicate of an earlier insert of the
    /// batch or of a stored id, or a run on past capacity with a
    /// duplicate behind the op that overfills it; among deletes, a
    /// repeated delete or a delete of an id never stored.
    fn shaped_batch(
        rng: &mut StdRng,
        t: &TcamTable,
        next_id: &mut u64,
        len: usize,
        inserts: bool,
        slips: bool,
    ) -> Vec<TcamOp> {
        let mut stored: Vec<u64> = t.iter().map(|r| r.id.0).collect();
        let slip = if slips {
            rng.gen_range(0..3u32)
        } else {
            u32::MAX
        };
        if inserts {
            let n = match slip {
                2 => t.free() + 1 + rng.gen_range(0..8usize),
                _ => len.min(t.free()),
            };
            let mut ops: Vec<TcamOp> = (0..n)
                .map(|_| {
                    *next_id += 1;
                    TcamOp::Insert(rule(rng, *next_id - 1, 1..400))
                })
                .collect();
            let (dup, lo) = match slip {
                0 if !ops.is_empty() => (ops[rng.gen_range(0..ops.len())].id().0, 0),
                1 if !stored.is_empty() => (stored[rng.gen_range(0..stored.len())], 0),
                2 if t.free() > 0 => (ops[rng.gen_range(0..t.free())].id().0, t.free() + 1),
                _ => return ops,
            };
            // Behind the first insert of `dup` (and behind the overfill).
            let first = ops
                .iter()
                .position(|op| op.id().0 == dup)
                .map_or(0, |i| i + 1);
            let at = rng.gen_range(first.max(lo)..=ops.len());
            ops.insert(at, TcamOp::Insert(rule(rng, dup, 1..400)));
            ops
        } else {
            let mut ops = Vec::new();
            while ops.len() < len && !stored.is_empty() {
                let id = stored.swap_remove(rng.gen_range(0..stored.len()));
                ops.push(TcamOp::Delete(RuleId(id)));
            }
            let dead = match slip {
                0 | 1 if !ops.is_empty() => ops[rng.gen_range(0..ops.len())].id(),
                2 => {
                    *next_id += 1;
                    RuleId(*next_id - 1)
                }
                _ => return ops,
            };
            let first = ops
                .iter()
                .position(|op| op.id() == dead)
                .map_or(0, |i| i + 1);
            let at = rng.gen_range(first..=ops.len());
            ops.insert(at, TcamOp::Delete(dead));
            ops
        }
    }

    /// Everything a caller can observe of two tables agrees: entries in
    /// match order, every id ever used, lookups on a packet sample and
    /// stats; both are well formed, and no block of `got` holds more than
    /// twice `BLOCK_MAX` of memory.
    pub(super) fn assert_same(got: &TcamTable, want: &TcamTable, ids: u64, rng: &mut StdRng) {
        assert_eq!(got.entries(), want.entries(), "entries");
        for id in (0..ids).map(RuleId) {
            assert_eq!(got.get(id), want.get(id), "get({id})");
        }
        let entries = got.entries();
        for i in 0..64 {
            let packet = match entries.get(rng.gen_range(0..entries.len().max(1))) {
                Some(r) if i % 2 == 0 => r.key.value() | (rng.gen::<u128>() & !r.key.mask()),
                _ => {
                    let dst = 0x0a00_0000 | (rng.gen::<u32>() & 0x00ff_ffff);
                    (u128::from(dst) << 96) | u128::from(rng.gen::<u64>())
                }
            };
            assert_eq!(got.peek(packet), want.peek(packet), "peek({packet:#x})");
        }
        assert_eq!(got.stats(), want.stats(), "stats");
        assert!(
            got.check_invariants() && want.check_invariants(),
            "invariants"
        );
        for b in &got.layout.blocks {
            assert!(
                b.keys.capacity() <= 2 * BLOCK_MAX && b.handles.capacity() <= 2 * BLOCK_MAX,
                "a block of {} entries holds {} slots",
                b.len(),
                b.handles.capacity()
            );
        }
    }

    /// `apply_batch` draws one seq per insert op, the reference one per
    /// surviving insert, so after a good batch the table is ahead by the
    /// inserts a later delete netted out; after a rejected one neither
    /// moved.
    fn assert_next_seq(
        got: &TcamTable,
        want: &TcamTable,
        ops: &[TcamOp],
        result: &Result<BatchReport, TcamError>,
    ) {
        let netted = result.as_ref().map_or(0, |report| {
            ops.iter().filter_map(inserted).count() - report.inserts
        });
        assert_eq!(
            got.layout.next_seq,
            want.layout.next_seq + netted as u64,
            "next seq"
        );
    }

    pub(super) fn strategy() -> hermes_util::check::Gen<PlacementStrategy> {
        one_of(vec![
            just(PlacementStrategy::PackedLow),
            just(PlacementStrategy::PackedHigh),
            just(PlacementStrategy::Balanced),
        ])
    }

    hermes_util::check! {
        #![cases = 64]

        /// One merged batch leaves a 2 000–6 000-entry table exactly as the
        /// per-op loop does, for every strategy, with capacity either tight
        /// or roomy. `narrow` piles every insert into one priority band, so
        /// one block takes the whole batch. Block cuts may differ between
        /// the two, but no bill reads them: the next batch and the next
        /// single insert are billed the same shifts.
        fn merged_batch_matches_per_op_loop(
            seed in arb::<u64>(),
            n in range(2000usize..6000),
            ops in range(1usize..3000),
            extra in one_of(vec![range(0usize..200), range(0usize..3000)]),
            placement in strategy(),
            narrow in arb::<bool>(),
            sweep in one_of(vec![just(0usize), range(0usize..1500)]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ MERGE_STREAM_SALT);
            let mut table = TcamTable::new(n + extra, placement);
            for id in 0..n as u64 {
                table.insert(rule(&mut rng, id, 1..400)).expect("capacity");
            }
            let prios = if narrow { 200..203 } else { 1..400 };
            let mut next_id = n as u64;
            let ops = batch(&mut rng, &table, &mut next_id, (sweep, ops), prios);
            let mut want = table.clone();
            let want_report = reference::apply_batch(&mut want, &ops);
            assert_eq!(table.apply_batch(&ops), want_report, "batch report");
            assert_same(&table, &want, next_id, &mut rng);
            assert_next_seq(&table, &want, &ops, &want_report);
            let follow = batch(&mut rng, &table, &mut next_id, (0, 64), 1..400);
            assert_eq!(table.apply_batch(&follow), want.apply_batch(&follow), "follow-up batch");
            let single = rule(&mut rng, next_id, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
        }
    }

    hermes_util::check! {
        #![cases = 256]

        /// The sorted planner rejects what the `BTreeMap` one rejects, with
        /// the same first error, and otherwise bills and lands the batch
        /// the same, on 1 100–3 000-entry tables (two to six blocks) for
        /// every strategy. Capacity is tight or roomy, `narrow` makes FIFO
        /// ties between the batch's own inserts, and `slips` plants
        /// rejected ops. The next single insert is billed the same shifts.
        fn sorted_planner_matches_reference(
            seed in arb::<u64>(),
            n in range(1100usize..3000),
            extra in one_of(vec![range(0usize..8), range(0usize..400)]),
            len in range(1usize..200),
            placement in strategy(),
            narrow in arb::<bool>(),
            slips in arb::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ PLAN_STREAM_SALT);
            let mut table = TcamTable::new(n + extra, placement);
            for id in 0..n as u64 {
                table.insert(rule(&mut rng, id, 1..400)).expect("capacity");
            }
            let prios = if narrow { 200..203 } else { 1..400 };
            let mut next_id = n as u64;
            let ops = messy_batch(&mut rng, &table, &mut next_id, len, prios, slips);
            let mut want = table.clone();
            let want_result = reference::apply_batch(&mut want, &ops);
            assert_eq!(table.apply_batch(&ops), want_result, "batch result");
            assert_same(&table, &want, next_id, &mut rng);
            assert_next_seq(&table, &want, &ops, &want_result);
            let single = rule(&mut rng, next_id, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
        }
    }

    hermes_util::check! {
        #![cases = 256]

        /// The batch shapes the workloads send most, insert-only and
        /// delete-only, against the `BTreeMap` planner, on 0–60-entry and
        /// 1 100–3 000-entry tables for every strategy: the same first
        /// error, and on success the same report and table. A rejected
        /// batch leaves entries, stats, every `get` and the invariants as
        /// they were (the reference never touches the table before it has
        /// validated the whole batch). The next single insert and batch are
        /// billed the same.
        fn shaped_batches_match_reference(
            seed in arb::<u64>(),
            n in one_of(vec![range(0usize..60), range(1100usize..3000)]),
            extra in one_of(vec![range(0usize..8), range(0usize..400)]),
            len in one_of(vec![range(1usize..8), range(1usize..300)]),
            placement in strategy(),
            inserts in arb::<bool>(),
            slips in arb::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ SHAPE_STREAM_SALT);
            let mut table = TcamTable::new(n + extra, placement);
            for id in 0..n as u64 {
                table.insert(rule(&mut rng, id, 1..400)).expect("capacity");
            }
            let mut next_id = n as u64;
            let ops = shaped_batch(&mut rng, &table, &mut next_id, len, inserts, slips);
            let mut want = table.clone();
            let want_result = reference::apply_batch(&mut want, &ops);
            assert_eq!(table.apply_batch(&ops), want_result, "batch result");
            assert!(slips || want_result.is_ok(), "an unslipped batch is valid");
            assert_same(&table, &want, next_id, &mut rng);
            assert_next_seq(&table, &want, &ops, &want_result);
            let follow = messy_batch(&mut rng, &table, &mut next_id, 32, 1..400, false);
            assert_eq!(table.apply_batch(&follow), want.apply_batch(&follow), "follow-up batch");
            let single = rule(&mut rng, next_id, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
            assert_same(&table, &want, next_id + 1, &mut rng);
        }
    }

    hermes_util::check! {
        #![cases = 256]

        /// The sequential bill counted over the batch's events equals the
        /// per-op replay on a scratch copy of the layout, for valid
        /// batches full of insert → delete and delete → re-insert chains on
        /// one id (stored or new), `NONE` inserts and FIFO ties, every
        /// strategy, and tables from empty to past two `BLOCK_MAX` blocks,
        /// some of them holding the gaps an earlier batch's deletes left.
        fn counted_bill_matches_layout_replay(
            seed in arb::<u64>(),
            n in one_of(vec![range(0usize..40), range(0usize..2 * BLOCK_MAX + 300)]),
            extra in one_of(vec![range(0usize..8), range(0usize..400)]),
            len in range(1usize..200),
            placement in strategy(),
            narrow in arb::<bool>(),
            churned in arb::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ BILL_STREAM_SALT);
            let mut table = TcamTable::new(n + extra, placement);
            for id in 0..n as u64 {
                table.insert(rule(&mut rng, id, 1..400)).expect("capacity");
            }
            let prios = if narrow { 200..203 } else { 1..400 };
            let mut next_id = n as u64;
            if churned {
                let warm = messy_batch(&mut rng, &table, &mut next_id, 64, prios.clone(), false);
                table.apply_batch(&warm).expect("a valid batch");
            }
            let ops = messy_batch(&mut rng, &table, &mut next_id, len, prios, false);
            let want = reference::replay_singly(&table, &ops);
            let got = table.apply_batch(&ops).expect("a valid batch");
            assert_eq!(got.naive_shifts, want, "sequential bill");
        }
    }

    /// A batch into an empty table is cut straight into blocks, the same
    /// ones merging it into one block and then re-cutting that with
    /// `chunks()` gave: one block up to `BLOCK_MAX` entries, else
    /// `BLOCK_TARGET`-entry chunks with the remainder on the last. Checked
    /// at one entry, at `BLOCK_MAX`, one past it, and the 12 000-entry
    /// resync shape, against the per-op reference.
    #[test]
    fn batch_into_empty_table_cuts_like_merge_then_chunks() {
        let mut rng = StdRng::seed_from_u64(MERGE_STREAM_SALT);
        let cases = [
            (1, vec![1]),
            (BLOCK_MAX, vec![BLOCK_MAX]),
            (BLOCK_MAX + 1, vec![BLOCK_TARGET, BLOCK_TARGET + 1]),
            (
                12_000,
                [vec![BLOCK_TARGET; 22], vec![12_000 - 22 * BLOCK_TARGET]].concat(),
            ),
        ];
        for (n, lens) in cases {
            let ops: Vec<TcamOp> = (0..n as u64)
                .map(|id| TcamOp::Insert(rule(&mut rng, id, 1..400)))
                .collect();
            let mut table = TcamTable::new(16_384, PlacementStrategy::PackedLow);
            let mut want = table.clone();
            assert_eq!(
                table.apply_batch(&ops),
                reference::apply_batch(&mut want, &ops)
            );
            assert_same(&table, &want, n as u64, &mut rng);
            assert_eq!(table.layout.next_seq, want.layout.next_seq, "next seq");
            let got: Vec<usize> = table.layout.blocks.iter().map(Block::len).collect();
            assert_eq!(got, lens, "{n} entries");
            for b in &table.layout.blocks {
                assert_eq!(
                    (b.keys.capacity(), b.handles.capacity()),
                    (b.len(), b.len())
                );
            }
        }
    }
}

/// `retain` against the drain and re-insert loop it replaced in the crash
/// re-seat, kept here as [`reference`](retain_reseat::reference).
#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests pin streams by literal seed"
)]
mod retain_reseat {
    use super::batch_merge::{assert_same, rule, strategy};
    use super::*;
    use hermes_util::check::{arb, just, one_of, range};
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::{Rng, SeedableRng};

    mod reference {
        use super::*;

        /// Empties the table, then re-inserts the entries `keep` accepts
        /// one at a time in match order; returns how many were dropped.
        pub(super) fn retain(t: &mut TcamTable, mut keep: impl FnMut(&Rule) -> bool) -> usize {
            let all = t.entries();
            t.clear();
            let mut dropped = 0;
            for r in all {
                if keep(&r) {
                    t.insert(r).expect("a survivor fits the table it came from");
                } else {
                    dropped += 1;
                }
            }
            dropped
        }
    }

    const RETAIN_STREAM_SALT: u64 = 0x5245_5441_494e_5f4b;

    hermes_util::check! {
        #![cases = 256]

        /// A re-seat by `retain` leaves 0–3 000-entry tables exactly as
        /// drain and re-insert does, for every strategy and keep share
        /// (all, none, or a random mask over prioritized and `NONE`
        /// entries alike): the same entries, stats (PackedHigh's append
        /// shifts included) and lookups, and the next single insert and
        /// batch are billed the same.
        fn retain_matches_drain_and_reinsert(
            seed in arb::<u64>(),
            n in range(0usize..3000),
            extra in range(0usize..64),
            placement in strategy(),
            keep_share in one_of(vec![just(0.0f64), just(1.0), range(0.0f64..1.0)]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed ^ RETAIN_STREAM_SALT);
            let mut table = TcamTable::new(n + extra, placement);
            for id in 0..n as u64 {
                table.insert(rule(&mut rng, id, 1..400)).expect("capacity");
            }
            let mut want = table.clone();
            let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(keep_share)).collect();
            let (mut a, mut b) = (mask.iter(), mask.iter());
            let dropped = table.retain(|_| *a.next().expect("one ask per entry"));
            assert!(a.next().is_none(), "one ask per entry");
            assert_eq!(dropped, reference::retain(&mut want, |_| *b.next().unwrap()));
            assert_same(&table, &want, n as u64, &mut rng);
            let mut next_id = n as u64;
            let follow: Vec<TcamOp> = (0..rng.gen_range(1..64))
                .map(|_| {
                    next_id += 1;
                    TcamOp::Insert(rule(&mut rng, next_id, 1..400))
                })
                .collect();
            assert_eq!(table.apply_batch(&follow), want.apply_batch(&follow), "follow-up batch");
            let single = rule(&mut rng, next_id + 1, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
            assert_same(&table, &want, next_id + 2, &mut rng);
        }
    }
}

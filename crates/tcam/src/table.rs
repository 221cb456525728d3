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
//! smaller of the two (Balanced). Shift accounting reads sort keys only,
//! so the layout is generic over what it stores per key and the batch
//! replay runs on a `Layout<()>`.
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
//! The host work follows the same shape: the batch lands in one pass per
//! touched block (a compaction for its deletes, a merge for its inserts)
//! instead of one `Vec::insert` per op (DESIGN.md §10).

use crate::id_index::IdIndex;
use crate::match_index::MatchIndex;
use hermes_rules::prelude::*;
use hermes_rules::store::Slab;

/// Target block size for the chunked entry storage; blocks split at twice
/// this length.
const BLOCK_TARGET: usize = 512;
/// Maximum block length before a split.
const BLOCK_MAX: usize = 2 * BLOCK_TARGET;
/// Below this table-plus-batch size, `apply_batch` also computes the exact
/// sequential per-op cost on a scratch layout and charges the minimum — a
/// hard guarantee that a batch is never billed worse than its ops applied
/// singly. Above it, the closed-form coalesced plan is used alone (the
/// scratch replay would dominate the runtime it is modeling).
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
    /// Modeled cost of the same ops applied singly (exact when the table
    /// is small enough for a scratch replay, a dense-layout estimate
    /// otherwise) — `shifts` is never charged above the exact figure.
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
/// key: the rule's slab slot in a table, `()` in the replay scratch.
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
/// accounting needs and nothing a lookup needs, so
/// [`TcamTable::replay_singly`] can replay a batch over a `Layout<()>`.
#[derive(Clone, Debug)]
struct Layout<P> {
    blocks: Vec<Block<P>>,
    next_seq: u64,
    len: usize,
    capacity: usize,
    strategy: PlacementStrategy,
}

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
            self.single_insert_cost(pos)
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

    /// The shifts a single insertion at global position `pos` pays under
    /// §2.1's dense cost model: every entry between the new slot and the
    /// strategy's packing boundary moves — `len - pos` (PackedLow), `pos`
    /// (PackedHigh), whichever is smaller (Balanced).
    fn single_insert_cost(&self, pos: usize) -> usize {
        match self.strategy {
            PlacementStrategy::PackedLow => self.len - pos,
            PlacementStrategy::PackedHigh => pos,
            PlacementStrategy::Balanced => pos.min(self.len - pos),
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
    /// the layout, both indexes and the slab.
    fn remove_sorted(&mut self, doomed: &[EntryKey]) {
        let (slab, index, by_id) = (&mut self.slab, &mut self.index, &mut self.by_id);
        self.layout.remove_sorted(doomed, |key, slot| {
            let rule = slab.get(slot);
            index.remove(rule.key, key.seq);
            by_id.remove(rule.id);
            slab.release(slot);
        });
    }

    /// Checks the structural invariants (debug aid / property tests):
    /// priority ordering, block shape (none empty, none past
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
                if prev.is_some_and(|p| *k <= p) {
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
    /// The batch is **atomic**: every op is validated against the
    /// sequential semantics first, and the first violation
    /// ([`TcamError::Full`] / [`TcamError::Duplicate`] /
    /// [`TcamError::NotFound`]) rejects the entire batch with the table
    /// untouched. On success the final layout is computed once and the
    /// batch is charged a *coalesced* shift plan: an entry disturbed by
    /// several ops moves once, and slots freed by the batch's own deletes
    /// absorb its inserts. The result is observationally equivalent to
    /// applying the ops singly (same final entries, same per-op stats) but
    /// never billed more shifts.
    pub fn apply_batch(&mut self, ops: &[TcamOp]) -> Result<BatchReport, TcamError> {
        let occupancy_before = self.layout.len;
        let plan = self.validate_batch(ops)?;
        // The surviving inserts take fresh seqs in submission order (FIFO
        // among equal priorities); one sort by sort key then serves the
        // shift plan, the slab writes and the merge. Insert `i` takes seq
        // `next_seq + i`, so `(!priority, i)` packed in one `u64` sorts
        // exactly as its `EntryKey`. Each key carries `i` until the slab
        // gives it a slot.
        let n = u32::try_from(plan.inserts.len())
            .expect("INVARIANT: a batch holds fewer than 2^32 inserts");
        let mut packed: Vec<u64> = (plan.inserts.iter().zip(0..n))
            .map(|(&(rule, _), i)| (u64::from(!rule.priority.0) << 32) | u64::from(i))
            .collect();
        packed.sort_unstable();
        let next_seq = self.layout.next_seq;
        let mut fresh: Vec<(EntryKey, u32)> = (packed.into_iter())
            .map(|k| {
                let (rp, i) = ((k >> 32) as u32, k as u32);
                let seq = next_seq + u64::from(i);
                (EntryKey { rp, seq }, i)
            })
            .collect();
        let (shifts, naive_shifts) = self.plan_batch_shifts(ops, &fresh, &plan.deleted);
        // Mutate, one pass per touched block: in-place modifies, then the
        // deletes (freeing slots), then the fresh entries merged in. The
        // coalesced plan already billed every move.
        for &(slot, action) in &plan.modified {
            self.slab.get_mut(slot).action = action;
        }
        self.remove_sorted(&plan.deleted);
        self.layout.next_seq += fresh.len() as u64;
        // Into the slab in sort-key order, so a batch into an emptied table
        // (the crash rebuild) leaves the slab in match order. The match
        // index takes the entries one by one, or is re-laid once for the
        // final occupancy when they would overfill it.
        let index_fits = self.index.has_room(fresh.len());
        for (key, handle) in &mut fresh {
            let (rule, action) = plan.inserts[*handle as usize];
            let rule = Rule { action, ..*rule };
            *handle = self.slab.alloc(rule);
            self.by_id.insert(rule.id, *key, *handle);
            if index_fits {
                self.index.insert(rule.key, key.seq, *handle);
            }
        }
        self.layout.insert_fresh(&fresh);
        if !index_fits {
            self.index
                .rebuild(self.layout.len, self.layout.indexed(&self.slab));
        }
        self.stats.inserts += plan.n_inserts;
        self.stats.deletes += plan.n_deletes;
        self.stats.modifies += plan.n_modifies;
        self.stats.total_shifts += shifts as u64;
        Ok(BatchReport {
            shifts,
            naive_shifts,
            inserts: fresh.len(),
            deletes: plan.deleted.len(),
            modifies: plan.modified.len(),
            occupancy_before,
        })
    }

    /// Walks the ops under sequential semantics without touching the
    /// table; the first violation (by op index) rejects the batch
    /// atomically. Two passes, no map: `Full` is a prefix count of the live
    /// entries in submission order, and `Duplicate`/`NotFound` come from
    /// walking each id's ops in order after one sort of `(id, op index)`
    /// pairs. An insert checks `Full` first, so on one op `Full` wins.
    fn validate_batch<'a>(&self, ops: &'a [TcamOp]) -> Result<BatchPlan<'a>, TcamError> {
        // Every op before the first error succeeded, so the count is exact
        // up to there.
        let mut live = self.layout.len;
        let mut first_err = ops
            .iter()
            .position(|op| match op {
                TcamOp::Insert(_) => {
                    live += 1;
                    live > self.layout.capacity
                }
                TcamOp::Delete(_) => {
                    live = live.saturating_sub(1);
                    false
                }
                TcamOp::ModifyAction { .. } => false,
            })
            .map(|at| (at, TcamError::Full));
        let mut order: Vec<(RuleId, usize)> = ops.iter().map(TcamOp::id).zip(0..).collect();
        order.sort_unstable();
        let mut plan = BatchPlan::default();
        // Surviving inserts with the index of the op that made them and
        // their final action.
        let mut survivors: Vec<(usize, &Rule, Action)> = Vec::new();
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let id = group[0].0;
            // The stored entry while it lives and the action the batch last
            // gave it; the in-batch insert that is live, with its op index.
            let mut stored = self.by_id.get(id);
            let mut action = None;
            let mut pending: Option<(usize, &Rule, Action)> = None;
            for &(_, at) in group {
                let live = stored.is_some() || pending.is_some();
                match (&ops[at], live) {
                    (TcamOp::Insert(rule), false) => {
                        pending = Some((at, rule, rule.action));
                        plan.n_inserts += 1;
                    }
                    (TcamOp::Delete(_), true) => {
                        // An in-batch insert nets out; else the stored
                        // entry goes.
                        if pending.take().is_none() {
                            plan.deleted.extend(stored.take().map(|(key, _)| key));
                        }
                        plan.n_deletes += 1;
                    }
                    (TcamOp::ModifyAction { action: a, .. }, true) => {
                        match &mut pending {
                            Some((_, _, action)) => *action = *a,
                            None => action = Some(*a),
                        }
                        plan.n_modifies += 1;
                    }
                    (op, _) => {
                        let err = match op {
                            TcamOp::Insert(_) => TcamError::Duplicate(id),
                            _ => TcamError::NotFound(id),
                        };
                        if first_err.is_none_or(|(first, _)| at < first) {
                            first_err = Some((at, err));
                        }
                        break;
                    }
                }
            }
            if let (Some((_, slot)), Some(action)) = (stored, action) {
                plan.modified.push((slot, action));
            }
            survivors.extend(pending);
        }
        if let Some((_, err)) = first_err {
            return Err(err);
        }
        survivors.sort_unstable_by_key(|&(at, _, _)| at);
        plan.inserts = survivors
            .into_iter()
            .map(|(_, rule, action)| (rule, action))
            .collect();
        plan.deleted.sort_unstable();
        Ok(plan)
    }

    /// The coalesced shift plan for `fresh` (the surviving inserts' sort
    /// keys, ascending) and `deleted` (ascending): counts the pre-existing
    /// surviving entries the batch disturbs, letting batch-freed slots
    /// absorb inserts in the strategy's shift direction. Clamped by an
    /// exact sequential replay on small tables so a batch is never billed
    /// worse than its ops applied singly.
    fn plan_batch_shifts(
        &self,
        ops: &[TcamOp],
        fresh: &[(EntryKey, u32)],
        deleted: &[EntryKey],
    ) -> (usize, usize) {
        let layout = &self.layout;
        // Positions of the batch's events among the *current* entries, one
        // walk over the blocks each. `NONE` inserts sort last and are
        // placed freely: no ordering pressure.
        let prioritized = fresh.partition_point(|(key, _)| key.rp != !Priority::NONE.0);
        let insert_pos = layout.ranks(fresh[..prioritized].iter().map(|&(key, _)| key));
        let delete_pos = layout.ranks(deleted.iter().copied());
        let (ins, del) = (insert_pos.iter().copied(), delete_pos.iter().copied());
        let fwd = coalesced_moves_forward(layout.len, ins, del);
        let bwd = coalesced_moves_backward(layout.len, &insert_pos, &delete_pos);
        let formula = match layout.strategy {
            PlacementStrategy::PackedLow => fwd,
            PlacementStrategy::PackedHigh => bwd,
            PlacementStrategy::Balanced => fwd.min(bwd),
        };
        // Estimate of the per-op sequential cost against the pre-batch
        // table (for the telemetry "saved" metric when the exact replay is
        // skipped).
        let estimate: usize = insert_pos
            .iter()
            .map(|&p| layout.single_insert_cost(p))
            .sum();
        if layout.len + ops.len() <= NAIVE_CLAMP_LIMIT {
            let naive = self.replay_singly(ops);
            (formula.min(naive), naive)
        } else {
            (formula.min(estimate), estimate)
        }
    }

    /// Exact sequential cost of a *validated* batch: its inserts and
    /// deletes applied singly to a scratch copy of the layout. Shifts
    /// depend on sort keys alone, so the scratch carries no rules
    /// and no match index, and the in-place modifies are skipped. Only
    /// used under [`NAIVE_CLAMP_LIMIT`].
    fn replay_singly(&self, ops: &[TcamOp]) -> usize {
        let mut scratch = self.layout.shape();
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
                        .or_else(|| self.by_id.get(*id))
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
}

/// A validated batch's net effect. It holds no rule of its own: an insert
/// stays in its op, beside the action the batch left it.
#[derive(Default)]
struct BatchPlan<'a> {
    /// Surviving inserts in submission order, each with its final action.
    inserts: Vec<(&'a Rule, Action)>,
    /// Sort keys of the pre-existing entries the batch removes, ascending.
    deleted: Vec<EntryKey>,
    /// Pre-existing entries the batch modifies and keeps: slab slot and
    /// final action.
    modified: Vec<(u32, Action)>,
    /// Per-op tallies (sequential semantics: an insert later deleted still
    /// counts one insert and one delete).
    n_inserts: u64,
    n_deletes: u64,
    n_modifies: u64,
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
    /// lands in freed slots: the slab keeps the pages its peak needed.
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
            (4, 200, 200)
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
    /// pending inserts, deletes and modifies by id, and the two coalesced
    /// sweeps over a map of events — then the deletes one `Layout::raw_remove` at
    /// a time in id order and the surviving inserts one `Vec::insert` at a
    /// time in submission order.
    mod reference {
        use super::*;

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
                .map(|&p| layout.single_insert_cost(p))
                .sum();
            if layout.len + ops.len() <= NAIVE_CLAMP_LIMIT {
                let naive = t.replay_singly(ops);
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
            assert_eq!(table.layout.next_seq, want.layout.next_seq, "next seq");
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
            assert_eq!(table.layout.next_seq, want.layout.next_seq, "next seq");
            let single = rule(&mut rng, next_id, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
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

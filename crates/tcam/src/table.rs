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
//! ## Storage layout (two sides, three indexes)
//!
//! A table has a *physical* side and a *match* side that meet only in the
//! entry's sort key, [`EntryKey`] `{!priority, insertion seq}`.
//!
//! The physical side is the private `Layout`: entries live in fixed-fanout
//! *blocks* (a chunked vector), each block holding a contiguous run of the
//! priority order as parallel `keys`/`rules` vectors. A control action
//! touches one block (`O(block)` memmove) instead of the whole table. The
//! blocks are a host-side storage detail that no modeled number reads: the
//! shift bill is §2.1's dense closed form, where an insertion at position
//! `pos` moves `len - pos` entries (PackedLow), `pos` (PackedHigh) or the
//! smaller of the two (Balanced). Shift accounting reads sort keys only,
//! so the layout is generic over what it stores per key and the batch
//! replay runs on a `Layout<()>`.
//!
//! Two indexes point into it by sort key, never by address, so shifts and
//! block splits leave both alone: a per-id `BTreeMap` (`id → EntryKey`,
//! `O(log n)` control actions) and the tuple-space match index (`match_index.rs`, DESIGN.md §15) that serves
//! every lookup — one probe per distinct mask in the table instead of a
//! walk over every entry. The match index is maintained at `raw_insert`,
//! `raw_remove`, `reset` and the batch's delete and insert passes, and
//! nowhere else: a stored entry's match never changes in place (Hermes
//! modifies actions, and priorities via delete+insert, §4.1).
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

use crate::match_index::MatchIndex;
use hermes_rules::prelude::*;
use std::collections::BTreeMap;

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
                write!(f, "TCAM control session lost (device crash; resync required)")
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

/// A contiguous run of the priority order. `rules` holds one payload per
/// key: the [`Rule`] in a table, `()` in the replay scratch.
#[derive(Clone, Debug)]
struct Block<P> {
    keys: Vec<EntryKey>,
    rules: Vec<P>,
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
        self.rules.extend(fresh.iter().map(|&(_, payload)| payload));
        for (j, &(key, payload)) in fresh.iter().enumerate().rev() {
            // Old entries in `start..end` sort between this fresh entry and
            // the next: the `j + 1` fresh entries up to here push them up.
            let start = self.keys[..end].partition_point(|k| *k < key);
            self.keys.copy_within(start..end, start + j + 1);
            self.rules.copy_within(start..end, start + j + 1);
            self.keys[start + j] = key;
            self.rules[start + j] = payload;
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
            let (key, payload) = (self.keys[i], self.rules[i]);
            if doomed.get(next) == Some(&key) {
                removed(key, payload);
                next += 1;
            } else {
                self.keys[kept] = key;
                self.rules[kept] = payload;
                kept += 1;
            }
        }
        self.keys.truncate(kept);
        self.rules.truncate(kept);
    }

    /// The block cut into `BLOCK_TARGET`-entry chunks, the last one also
    /// taking the remainder (so each holds `BLOCK_TARGET..BLOCK_MAX`), every
    /// one allocated at exactly its length. On a block one past `BLOCK_MAX`
    /// this is the classic halving split.
    fn chunks(&self) -> Vec<Block<P>> {
        let len = self.len();
        let n = (len / BLOCK_TARGET).max(1);
        (0..n)
            .map(|i| {
                let lo = i * BLOCK_TARGET;
                let hi = if i + 1 == n { len } else { lo + BLOCK_TARGET };
                Block {
                    keys: self.keys[lo..hi].to_vec(),
                    rules: self.rules[lo..hi].to_vec(),
                }
            })
            .collect()
    }
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
                    rules: vec![(); b.len()],
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

    /// Physical insert with no shift accounting (the caller has already
    /// planned and billed the move).
    fn raw_insert(&mut self, bi: usize, wi: usize, key: EntryKey, payload: P) {
        if self.blocks.is_empty() {
            self.blocks.push(Block {
                keys: Vec::new(),
                rules: Vec::new(),
            });
        }
        self.blocks[bi].keys.insert(wi, key);
        self.blocks[bi].rules.insert(wi, payload);
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
        let payload = self.blocks[bi].rules.remove(wi);
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

    /// Lands a batch's new entries with one merge per touched block. Each
    /// entry lands in the block [`target_block`](Self::target_block) names
    /// before the batch. A block grown past `BLOCK_MAX` is then re-cut into
    /// [`Block::chunks`].
    fn insert_fresh(&mut self, fresh: &mut [(EntryKey, P)]) {
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable_by_key(|&(key, _)| key);
        if self.blocks.is_empty() {
            self.blocks.push(Block {
                keys: Vec::new(),
                rules: Vec::new(),
            });
        }
        self.len += fresh.len();
        // Back to front, so a split never moves a block still to be merged:
        // block `bi` takes what sorts after the last key of block `bi - 1`.
        let mut rest: &[(EntryKey, P)] = fresh;
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

impl Layout<Rule> {
    /// Every stored entry as the match index files it.
    fn indexed(&self) -> impl Iterator<Item = (TernaryKey, EntryKey)> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.rules.iter().map(|r| r.key).zip(b.keys.iter().copied()))
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
    layout: Layout<Rule>,
    /// Per-id index: id → its sort key (locates the entry in `O(log n)`).
    by_id: BTreeMap<RuleId, EntryKey>,
    /// Match index: `(mask, packet & mask)` → sort keys of the entries
    /// stored under that key. Serves every lookup.
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
            by_id: BTreeMap::new(),
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
        self.layout.blocks.iter().flat_map(|b| b.rules.iter())
    }

    /// Looks up a rule by id via the per-id index (`O(log n)`).
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        let (bi, wi) = self.find(id).ok()?;
        Some(&self.layout.blocks[bi].rules[wi])
    }

    /// `true` when an entry with this id exists.
    pub fn contains(&self, id: RuleId) -> bool {
        self.by_id.contains_key(&id)
    }

    /// Block and offset of the entry with this id.
    fn find(&self, id: RuleId) -> Result<(usize, usize), TcamError> {
        let key = *self.by_id.get(&id).ok_or(TcamError::NotFound(id))?;
        Ok(self
            .layout
            .locate(key)
            .expect("INVARIANT: by_id keys always resolve to a stored entry"))
    }

    /// Stores an entry the layout has already made room for and files it
    /// in both indexes, re-laying the match index from the stored entries
    /// (this one included) when it is out of room.
    fn raw_insert(&mut self, bi: usize, wi: usize, key: EntryKey, rule: Rule) {
        self.layout.raw_insert(bi, wi, key, rule);
        self.by_id.insert(rule.id, key);
        if self.index.has_room(1) {
            self.index.insert(rule.key, key);
        } else {
            self.index.rebuild(self.layout.len, self.layout.indexed());
        }
    }

    /// Takes an entry out of the layout and both indexes.
    fn raw_remove(&mut self, bi: usize, wi: usize) -> Rule {
        let key = self.layout.blocks[bi].keys[wi];
        let rule = self.layout.raw_remove(bi, wi);
        self.by_id.remove(&rule.id);
        self.index.remove(rule.key, key);
        rule
    }

    /// Drops every entry (no stats).
    fn reset(&mut self) {
        self.layout.blocks.clear();
        self.layout.len = 0;
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
        let (bi, wi) = self.find(id)?;
        let rule = self.raw_remove(bi, wi);
        self.stats.deletes += 1;
        Ok(rule)
    }

    /// Modifies the action of an existing rule in place. Constant time in
    /// hardware ("modifying 5000 entries could be six times faster than
    /// adding new flows"). Priority changes are *not* handled here — Hermes
    /// converts them into delete+insert (§4.1).
    pub fn modify_action(&mut self, id: RuleId, action: Action) -> Result<(), TcamError> {
        let (bi, wi) = self.find(id)?;
        self.layout.blocks[bi].rules[wi].action = action;
        self.stats.modifies += 1;
        Ok(())
    }

    /// The one match path: the highest-precedence (lowest sort key) entry
    /// matching the packet, out of the match index. `lookup` and `peek`
    /// both defer here.
    fn scan(&self, packet: u128) -> Option<Rule> {
        self.index.lookup(packet, |ek, key| {
            let (bi, wi) = self
                .layout
                .locate(ek)
                .expect("INVARIANT: the match index holds stored entries only");
            let rule = &self.layout.blocks[bi].rules[wi];
            (rule.key == key).then_some(*rule)
        })
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

    /// Drains and returns all entries (step 1 of the migration workflow
    /// copies rules out of the tables).
    pub fn drain(&mut self) -> Vec<Rule> {
        let out: Vec<Rule> = self.entries();
        self.stats.deletes += out.len() as u64;
        self.reset();
        out
    }

    /// Checks the structural invariants (debug aid / property tests):
    /// priority ordering, id-index consistency, block shape (none empty,
    /// none past `BLOCK_MAX`), that the entries fit the capacity, and that
    /// the match index holds every stored entry exactly once under its
    /// current key and nothing else.
    pub fn check_invariants(&self) -> bool {
        let layout = &self.layout;
        let mut prev: Option<EntryKey> = None;
        let mut counted = 0;
        for b in &layout.blocks {
            if b.keys.is_empty() || b.keys.len() != b.rules.len() || b.len() > BLOCK_MAX {
                return false;
            }
            for (k, r) in b.keys.iter().zip(&b.rules) {
                if let Some(p) = prev {
                    if *k <= p {
                        return false;
                    }
                }
                prev = Some(*k);
                if k.rp != !r.priority.0 || self.by_id.get(&r.id) != Some(k) {
                    return false;
                }
                counted += 1;
            }
        }
        counted == layout.len
            && self.by_id.len() == layout.len
            && layout.len <= layout.capacity
            && self.index.check(layout.len, layout.indexed())
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
        let (shifts, naive_shifts) = self.plan_batch_shifts(ops, &plan);
        // Mutate, one pass per touched block: in-place modifies, then the
        // deletes (freeing slots), then the surviving inserts merged in
        // (fresh seqs in submission order keep FIFO). The coalesced plan
        // already billed every move.
        for (id, action) in &plan.modified {
            let (bi, wi) = self
                .find(*id)
                .expect("INVARIANT: validated batch targets existing entries");
            self.layout.blocks[bi].rules[wi].action = *action;
        }
        let mut doomed: Vec<EntryKey> = plan.deleted.values().copied().collect();
        doomed.sort_unstable();
        let index = &mut self.index;
        self.layout
            .remove_sorted(&doomed, |key, rule| index.remove(rule.key, key));
        for id in plan.deleted.keys() {
            self.by_id.remove(id);
        }
        let seqs = self.layout.next_seq..;
        let mut fresh: Vec<(EntryKey, Rule)> = (plan.pending_order.iter().zip(seqs))
            .map(|(id, seq)| {
                let rule = plan.pending[id];
                (EntryKey::new(rule.priority, seq), rule)
            })
            .collect();
        self.layout.next_seq += fresh.len() as u64;
        // The match index takes the entries one by one, or is re-laid once
        // for the final occupancy when they would overfill it.
        let index_fits = self.index.has_room(fresh.len());
        for &(key, rule) in &fresh {
            self.by_id.insert(rule.id, key);
            if index_fits {
                self.index.insert(rule.key, key);
            }
        }
        self.layout.insert_fresh(&mut fresh);
        if !index_fits {
            self.index.rebuild(self.layout.len, self.layout.indexed());
        }
        self.stats.inserts += plan.n_inserts;
        self.stats.deletes += plan.n_deletes;
        self.stats.modifies += plan.n_modifies;
        self.stats.total_shifts += shifts as u64;
        Ok(BatchReport {
            shifts,
            naive_shifts,
            inserts: plan.pending_order.len(),
            deletes: plan.deleted.len(),
            modifies: plan.modified.len(),
            occupancy_before,
        })
    }

    /// Walks the ops under sequential semantics without touching the
    /// table; errors reject the batch atomically.
    fn validate_batch(&self, ops: &[TcamOp]) -> Result<BatchPlan, TcamError> {
        let mut plan = BatchPlan::default();
        for op in ops {
            match op {
                TcamOp::Insert(rule) => {
                    let live = self.layout.len - plan.deleted.len() + plan.pending.len();
                    if live >= self.layout.capacity {
                        return Err(TcamError::Full);
                    }
                    let exists_in_table =
                        self.contains(rule.id) && !plan.deleted.contains_key(&rule.id);
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
                    } else if self.contains(*id) && !plan.deleted.contains_key(id) {
                        plan.deleted.insert(*id, self.by_id[id]);
                        plan.modified.remove(id);
                    } else {
                        return Err(TcamError::NotFound(*id));
                    }
                    plan.n_deletes += 1;
                }
                TcamOp::ModifyAction { id, action } => {
                    if let Some(r) = plan.pending.get_mut(id) {
                        r.action = *action;
                    } else if self.contains(*id) && !plan.deleted.contains_key(id) {
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

    /// The coalesced shift plan: counts the pre-existing surviving entries
    /// the batch disturbs, letting batch-freed slots absorb inserts in the
    /// strategy's shift direction. Clamped by an exact sequential replay on
    /// small tables so a batch is never billed worse than its ops applied
    /// singly.
    fn plan_batch_shifts(&self, ops: &[TcamOp], plan: &BatchPlan) -> (usize, usize) {
        let layout = &self.layout;
        // Positions of the batch's events among the *current* entries.
        let mut insert_pos: Vec<usize> = Vec::with_capacity(plan.pending_order.len());
        for id in &plan.pending_order {
            let rule = &plan.pending[id];
            if rule.priority.is_none() {
                continue; // free placement, no ordering pressure
            }
            let key = EntryKey::new(rule.priority, layout.next_seq);
            insert_pos.push(layout.insertion_point(key).2);
        }
        insert_pos.sort_unstable();
        let mut delete_pos: Vec<usize> = plan
            .deleted
            .values()
            .map(|k| {
                let (bi, wi) = layout
                    .locate(*k)
                    .expect("INVARIANT: validated batch targets existing entries");
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
        // Estimate of the per-op sequential cost against the pre-batch
        // table (for the telemetry "saved" metric when the exact replay is
        // skipped).
        let estimate: usize = insert_pos.iter().map(|&p| layout.single_insert_cost(p)).sum();
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
        // Sort keys of the entries the replay itself placed; every other
        // live id is where `by_id` says.
        let mut placed: BTreeMap<RuleId, EntryKey> = BTreeMap::new();
        let mut total = 0usize;
        for op in ops {
            match op {
                TcamOp::Insert(rule) => {
                    let (key, bi, wi, shifts) = scratch.open_slot(rule.priority);
                    scratch.raw_insert(bi, wi, key, ());
                    placed.insert(rule.id, key);
                    total += shifts;
                }
                TcamOp::Delete(id) => {
                    let key = placed.remove(id).unwrap_or_else(|| self.by_id[id]);
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
/// iff any flow crosses it — i.e. each disturbed entry exactly once.
fn coalesced_moves_forward(len: usize, insert_pos: &[usize], delete_pos: &[usize]) -> usize {
    // Per position: the inserts landing before the entry there, and
    // whether the batch deletes that entry.
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
    // Reflect positions around the table end and reuse the forward sweep.
    // An entry at index i becomes index len-1-i; a boundary position p
    // becomes len-p.
    let ins: Vec<usize> = insert_pos.iter().map(|&p| len - p).collect();
    let del: Vec<usize> = delete_pos.iter().map(|&p| len - 1 - p).collect();
    coalesced_moves_forward(len, &ins, &del)
}

#[cfg(test)]
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
    fn clear_and_drain() {
        let mut t = TcamTable::new(16, PlacementStrategy::PackedLow);
        for i in 0..5 {
            t.insert(rule(i, "10.0.0.0/8", (i + 1) as u32)).unwrap();
        }
        let drained = t.clone().drain();
        assert_eq!(drained.len(), 5);
        assert_eq!(t.clear(), 5);
        assert!(t.is_empty());
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
            t.insert(rule(i, "10.0.0.0/8", (i % 37) as u32 + 1)).unwrap();
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
        t.apply_batch(&[TcamOp::Insert(rule(9999, "10.0.0.0/8", 1))]).unwrap();
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
        assert_eq!(rep, BatchReport {
            occupancy_before: 1,
            ..BatchReport::default()
        });
        assert_eq!(t.len(), 1);
    }

}

/// The batch mutate phase against the per-op loop it replaced, kept here
/// as [`reference`](batch_merge::reference), on tables big enough that one
/// batch grows blocks past `BLOCK_MAX` (the crash-resync shape).
#[cfg(test)]
mod batch_merge {
    use super::*;
    use hermes_util::check::{arb, just, one_of, range};
    use hermes_util::rng::rngs::StdRng;
    use hermes_util::rng::{Rng, SeedableRng};
    use std::ops::Range;

    /// `apply_batch` as it stood before the merge: the same validation and
    /// coalesced bill, then the deletes one `raw_remove` at a time in id
    /// order and the surviving inserts one `Vec::insert` at a time in
    /// submission order.
    mod reference {
        use super::*;

        pub(super) fn apply_batch(
            t: &mut TcamTable,
            ops: &[TcamOp],
        ) -> Result<BatchReport, TcamError> {
            let occupancy_before = t.layout.len;
            let plan = t.validate_batch(ops)?;
            let (shifts, naive_shifts) = t.plan_batch_shifts(ops, &plan);
            for (id, action) in &plan.modified {
                let (bi, wi) = t.find(*id).expect("validated batch");
                t.layout.blocks[bi].rules[wi].action = *action;
            }
            for key in plan.deleted.values() {
                let (bi, wi) = t.layout.locate(*key).expect("validated batch");
                t.raw_remove(bi, wi);
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

    /// A rule under 10.0.0.0/12 (/8, /16 or /24, so packets hit several
    /// entries at once) with a priority from `prios`, or one time in twenty
    /// `Priority::NONE`.
    fn rule(rng: &mut StdRng, id: u64, prios: Range<u32>) -> Rule {
        let len = [8u8, 16, 24][rng.gen_range(0..3usize)];
        let addr = 0x0a00_0000 | (rng.gen::<u32>() & 0x000f_ff00);
        let prio = if rng.gen_bool(0.05) { 0 } else { rng.gen_range(prios) };
        let action = Action::Forward(rng.gen_range(0..8u32));
        Rule::new(id, Ipv4Prefix::new(addr, len).to_key(), Priority(prio), action)
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
                    ops.push(TcamOp::ModifyAction { id: RuleId(id), action });
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

    /// Everything a caller can observe of two tables agrees: entries in
    /// match order, every id ever used, lookups on a packet sample, stats
    /// and the next sequence number; both are well formed,
    /// and no block of `got` holds more than twice `BLOCK_MAX` of memory.
    fn assert_same(got: &TcamTable, want: &TcamTable, ids: u64, rng: &mut StdRng) {
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
        assert_eq!(got.layout.next_seq, want.layout.next_seq, "next seq");
        assert!(got.check_invariants() && want.check_invariants(), "invariants");
        for b in &got.layout.blocks {
            assert!(
                b.keys.capacity() <= 2 * BLOCK_MAX && b.rules.capacity() <= 2 * BLOCK_MAX,
                "a block of {} entries holds {} slots",
                b.len(),
                b.rules.capacity()
            );
        }
    }

    fn strategy() -> hermes_util::check::Gen<PlacementStrategy> {
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
            let follow = batch(&mut rng, &table, &mut next_id, (0, 64), 1..400);
            assert_eq!(table.apply_batch(&follow), want.apply_batch(&follow), "follow-up batch");
            let single = rule(&mut rng, next_id, 1..400);
            assert_eq!(table.insert(single), want.insert(single), "follow-up insert");
        }
    }

    /// The resync shape — a whole table reinstalled into an empty one —
    /// lands in chunks of `BLOCK_TARGET..BLOCK_MAX` entries, each allocated
    /// at exactly its length.
    #[test]
    fn batch_into_empty_table_lands_in_exact_chunks() {
        let mut rng = StdRng::seed_from_u64(MERGE_STREAM_SALT);
        let ops: Vec<TcamOp> = (0..12_000)
            .map(|id| TcamOp::Insert(rule(&mut rng, id, 1..400)))
            .collect();
        let mut table = TcamTable::new(16_384, PlacementStrategy::PackedLow);
        let mut want = table.clone();
        assert_eq!(table.apply_batch(&ops), reference::apply_batch(&mut want, &ops));
        assert_same(&table, &want, 12_000, &mut rng);
        for b in &table.layout.blocks {
            assert!((BLOCK_TARGET..BLOCK_MAX).contains(&b.len()), "block of {}", b.len());
            assert_eq!((b.keys.capacity(), b.rules.capacity()), (b.len(), b.len()));
        }
    }
}

//! The persistent violation index: per compiled CFD, the LHS keys of the
//! indexed rows, each with its members, a count of their RHS codes and
//! the judgement its live violation contribution reflects.
//!
//! The index reproduces `dcd_cfd::detect_simple`'s group semantics
//! exactly, but *statefully*: it is built once from the initial
//! fragments and then updated per delta batch, at a cost proportional to
//! the batch's rows plus the members of the keys whose judgement the
//! batch changes. The maintained [`ViolationSet`] is therefore
//! bit-identical (as a set of tuple ids and decoded patterns) to a
//! from-scratch `detect_simple` run on the materialized relation after
//! every batch — the invariant the workspace proptests pin.
//!
//! ## Why per-key maintenance is sound
//!
//! * Grouping keys on `t[X]` partition the tuples, so the per-key
//!   violation contributions are disjoint: retracting a key's old
//!   contribution and adding its new one never disturbs another key's.
//! * Key → pattern matching is stable over time. The tableau's
//!   patterns holding a [`NO_CODE`] cell are recompiled at every batch
//!   (an insert can intern their constant), but a freshly interned code
//!   appears in no pre-existing row, hence in no pre-existing key — only
//!   keys created in the same batch can match the newly feasible
//!   pattern, and those are matched against the fresh tableau.
//!   Conversely, a compiled cell that matched a key keeps its code
//!   forever (dictionaries are append-only), so the per-key
//!   matched-pattern list computed at key creation never goes stale.
//! * A constant RHS cell that gains a code later changes nothing for
//!   untouched keys: their members' codes all predate (and therefore
//!   differ from) the fresh code, so "mismatch" stays true either way.
//!
//! ## Why a key's counts and one judgement suffice
//!
//! * A key's RHS-code counts are all that [`judge`] and the flagged
//!   count read: the conflict bit is "≥ 2 distinct codes", and a
//!   judgement flags no member when `Clean`, every member when `All` or
//!   `EachMismatches`, and all but the members coded `c` when
//!   `Differing(c)`. So the decoded key enters or leaves `Vioπ` exactly
//!   when that number crosses 0, found without reading a member.
//! * A key's `Vio` contribution is exactly the members its stored
//!   judgement flags. A delete retracts its tid if that judgement
//!   flagged it. At the end of the batch the key is judged once. If the
//!   judgement holds, the old members' flags are still right, and only
//!   the batch's new members are flagged. If it changed, the surviving
//!   old flags are retracted and every member is flagged anew. A batch
//!   therefore reads its own rows plus the old members of the keys whose
//!   judgement it changed, which is the count [`ViolationIndex::apply`]
//!   returns.
//!
//! ## Routing a delete
//!
//! The index finds a tid's `(slot, position)`; a delete reads one member.
//! It `swap_remove`s the member at that position and re-points the tail
//! member that moved into it, so no member list is scanned, and members
//! change order exactly as a search followed by `swap_remove` would.
//!
//! ## Position tables, no second copy
//!
//! Every lookup goes through a [`PositionTable`], the workspace's one
//! open-addressing table (it also holds every dictionary's value → code
//! index), which stores where an entry lives and nothing else. The tid
//! table holds an 8-byte `(slot, at)` per indexed row and compares a
//! probe through the tid of `slots[slot].members[at]`; the key table
//! holds a 4-byte slot per key and compares through that slot's codes in
//! `slot_keys`. Each tid and each key is therefore stored once, in the
//! member list or `slot_keys`. An insert into either probes once: a
//! probe that misses ends at the free bucket the new entry fills, and a
//! tid probe that hits is the repeated-tid panic. The hash maps they
//! replace held a second copy: `FxHashMap<TupleId, (u32, u32)>` at 17 B
//! a bucket and `FxHashMap<CodeKey, u32>` at 49 B, where the tables take
//! 8 B and 4 B at load ≤ 7/8.
//!
//! ## Bytes per row and per key
//!
//! A member is a packed 12-byte `(tid, rhs code)`, where the pair pads
//! to 16, and a key's state is 64 bytes: its member list, RHS counts and
//! judgement, and a `u32` naming its matched-pattern list. The lists
//! themselves are held once per distinct list in [`PatternLists`], found
//! through a third position table that compares through the lists; a
//! list is fixed by which of the tableau's LHS constants a key carries,
//! so there are as many as the tableau allows, however long the stream.
//! No key stores whether it is in `Vioπ`: that is whether its judgement
//! flags a member, read when a batch first touches it. On `cust_incr`'s
//! 135 762 indexed rows under 10 197 keys the index holds ≈ 5.3 MiB,
//! ≈ 41 B per indexed row (≈ 79 B with the hash maps, ≈ 49 B with
//! 16-byte members, 80-byte states and one boxed list per key): the tid
//! table 2 MiB, the members ≈ 2.1 MiB, the 16 384 slots 1 MiB, the key
//! table 64 KiB. Capacities still double as they grow; sizing a build
//! exactly only moves the growth to the stream's first batch.

use dcd_cfd::pattern::CompiledPattern;
use dcd_cfd::{judge, Judgement, LhsIndex, SimpleCfd, ViolationSet};
use dcd_relation::table::{spread, Position, PositionTable};
use dcd_relation::{Dictionary, FxHashMap, TupleId, Value, NO_CODE};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// How many of a key's members carry each RHS code: inline while the
/// key holds at most two distinct codes, which is all a clean key or a
/// two-valued conflict needs, and a map once it has held three.
#[derive(Debug)]
enum RhsCounts {
    /// `(code, count)` cells; a zero count marks an empty cell.
    Inline([(u32, u32); 2]),
    Spilled(Box<FxHashMap<u32, u32>>),
}

impl RhsCounts {
    const EMPTY: RhsCounts = RhsCounts::Inline([(0, 0); 2]);

    fn add(&mut self, code: u32) {
        match self {
            RhsCounts::Inline(cells) => {
                if let Some(cell) = cells.iter_mut().find(|&&mut (c, n)| n > 0 && c == code) {
                    cell.1 += 1;
                } else if let Some(cell) = cells.iter_mut().find(|&&mut (_, n)| n == 0) {
                    *cell = (code, 1);
                } else {
                    let mut map: FxHashMap<u32, u32> = cells.iter().copied().collect();
                    map.insert(code, 1);
                    *self = RhsCounts::Spilled(Box::new(map));
                }
            }
            RhsCounts::Spilled(map) => *map.entry(code).or_insert(0) += 1,
        }
    }

    /// Removes one member coded `code`, which must be counted.
    fn remove(&mut self, code: u32) {
        match self {
            RhsCounts::Inline(cells) => {
                if let Some(cell) = cells.iter_mut().find(|&&mut (c, n)| n > 0 && c == code) {
                    cell.1 -= 1;
                }
            }
            RhsCounts::Spilled(map) => {
                if let Entry::Occupied(mut count) = map.entry(code) {
                    *count.get_mut() -= 1;
                    if *count.get() == 0 {
                        count.remove();
                    }
                }
            }
        }
    }

    fn count(&self, code: u32) -> usize {
        match self {
            RhsCounts::Inline(cells) => {
                cells.iter().find(|&&(c, n)| n > 0 && c == code).map_or(0, |&(_, n)| n as usize)
            }
            RhsCounts::Spilled(map) => map.get(&code).map_or(0, |&n| n as usize),
        }
    }

    /// Whether the members hold ≥ 2 distinct codes.
    fn conflict(&self) -> bool {
        match self {
            RhsCounts::Inline(cells) => cells.iter().all(|&(_, n)| n > 0),
            RhsCounts::Spilled(map) => map.len() > 1,
        }
    }
}

/// [`KeyState::fresh`] of a key the current batch has not touched.
const IDLE: u32 = u32::MAX;

/// One indexed row: its tuple id and RHS code, 12 bytes where the
/// `(TupleId, u32)` pair it replaces pads to 16. Packed to 4-byte
/// alignment, its fields are only ever read by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
struct Member {
    tid: TupleId,
    rhs: u32,
}

/// Per-key state: the members, their RHS counts, and what the key
/// contributes to the live violation set.
#[derive(Debug)]
struct KeyState {
    /// `(tid, rhs code)` per member row.
    members: Vec<Member>,
    counts: RhsCounts,
    /// The judgement the key's live contribution reflects: its members
    /// in `Vio` are those this judgement flags, and its decoded key is in
    /// `Vioπ` exactly when it flags one.
    judgement: Judgement,
    /// The list in [`PatternLists`] of the tableau indices (in tableau
    /// order) of the patterns whose compiled LHS matches this key.
    /// Computed once at key creation; stable for the key's lifetime (see
    /// module docs). [`PatternLists::EMPTY`] for a free slot.
    matched: u32,
    /// While a batch touches the key, `members[fresh..]` arrived in it;
    /// [`IDLE`] between batches.
    fresh: u32,
}

// The layout the module docs' byte counts rest on.
const _: () = assert!(size_of::<Member>() == 12);
const _: () = assert!(size_of::<KeyState>() <= 64);

impl KeyState {
    fn new(matched: u32) -> Self {
        KeyState {
            members: Vec::new(),
            counts: RhsCounts::EMPTY,
            judgement: Judgement::Clean,
            matched,
            fresh: IDLE,
        }
    }

    /// How many members `judgement` flags.
    fn flagged(&self) -> usize {
        match self.judgement {
            Judgement::Clean => 0,
            Judgement::All | Judgement::EachMismatches => self.members.len(),
            Judgement::Differing(c) => self.members.len() - self.counts.count(c),
        }
    }
}

/// The distinct matched-pattern lists of an index's keys, each held
/// once and named by a `u32` id; id [`Self::EMPTY`] is the empty list
/// of a free slot, and the first list interned is id 1. A key's list is
/// fixed by which of the tableau's LHS constants its codes carry, so
/// the lists are bounded by the tableau, not by the stream, and none is
/// ever dropped.
#[derive(Debug, Default)]
struct PatternLists {
    /// The lists' tableau indices, one list after another.
    ranks: Vec<u32>,
    /// Where each list ends in `ranks`: list `id` ends at
    /// `ends[id - 1]` and starts where list `id - 1` ends.
    ends: Vec<u32>,
    /// Each list's id, found through its ranks.
    ids: PositionTable<u32>,
}

impl PatternLists {
    const EMPTY: u32 = 0;

    /// The list named `id`.
    fn get(&self, id: u32) -> &[u32] {
        list_of(&self.ranks, &self.ends, id)
    }

    /// The id of the non-empty list `ranks`, interned if it is new.
    fn intern(&mut self, ranks: &[u32]) -> u32 {
        let PatternLists { ranks: all, ends, ids } = self;
        let hash = spread(ranks);
        match ids.find(hash, |id| list_of(all, ends, id) == ranks) {
            Ok(id) => id,
            Err(free) => {
                all.extend_from_slice(ranks);
                // The table's empty mark is no list's end.
                let end = u32::try_from(all.len()).ok().filter(|&end| end != u32::EMPTY);
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: the lists hold fewer than 2³² − 1 tableau indices (16 GiB of them)"
                )]
                ends.push(end.expect("fewer list ranks than u32::MAX"));
                // Every list holds a rank, so no id passes its list's end.
                let id = ends.len() as u32;
                ids.fill(free, hash, id, |id| spread(list_of(all, ends, id)));
                id
            }
        }
    }

    fn heap_bytes(&self) -> usize {
        (self.ranks.capacity() + self.ends.capacity()) * size_of::<u32>() + self.ids.heap_bytes()
    }
}

/// List `id` of [`PatternLists`] over its `ranks` and `ends`.
fn list_of<'a>(ranks: &'a [u32], ends: &[u32], id: u32) -> &'a [u32] {
    let end = |id: u32| id.checked_sub(1).map_or(0, |i| ends[i as usize] as usize);
    &ranks[end(id.saturating_sub(1))..end(id)]
}

/// The tid of the member at `(slot, at)`.
fn member_tid(slots: &[KeyState], (slot, at): (u32, u32)) -> TupleId {
    slots[slot as usize].members[at as usize].tid
}

/// The LHS codes of `slot`'s key: `width` cells of `slot_keys`.
fn key_codes(slot_keys: &[u32], width: usize, slot: u32) -> &[u32] {
    &slot_keys[slot as usize * width..][..width]
}

/// The persistent violation index of one `(X → A, Tp)` CFD.
///
/// Holds shared dictionaries (so codes shipped from any fragment over
/// the same dictionaries are directly comparable), the compiled
/// tableau (its infeasible patterns refreshed per batch), the per-key
/// states in a slab of slots, the keys' distinct matched-pattern lists,
/// two `PositionTable`s — keys to slots, found through `slot_keys`, and
/// tids to `(slot, position)`, found through the members, for delete
/// routing: a delete reads one member, and re-points the one its
/// `swap_remove` moved — and the live [`ViolationSet`] maintained
/// incrementally.
#[derive(Debug)]
pub struct ViolationIndex {
    cfd: SimpleCfd,
    /// Schema positions of the LHS attributes (into full code rows).
    lhs_pos: Vec<usize>,
    /// Schema position of the RHS attribute.
    rhs_pos: usize,
    lhs_dicts: Vec<Arc<Dictionary>>,
    rhs_dict: Arc<Dictionary>,
    compiled: Vec<CompiledPattern>,
    /// The kernel's bucketing of `compiled`: answers a new key's matched
    /// list in one probe per wildcard mask.
    lhs_index: LhsIndex,
    /// Each indexed key's slot in `slots`, found by the key's codes in
    /// `slot_keys`.
    keys: PositionTable<u32>,
    slots: Vec<KeyState>,
    /// The LHS codes of each slot's key, `lhs_pos.len()` cells per slot.
    slot_keys: Vec<u32>,
    /// Slots whose key left the index, for the next new key.
    free: Vec<u32>,
    /// The keys' matched-pattern lists, each held once.
    lists: PatternLists,
    /// Invariant: there is one entry per member, `(slot, at)` where
    /// `slots[slot].members[at]` is the member, found by its tid.
    tid_key: PositionTable<(u32, u32)>,
    live: ViolationSet,
}

impl ViolationIndex {
    /// An empty index for `cfd`, over the relation's shared
    /// dictionaries (`dicts` in schema order, one per attribute).
    pub fn new(cfd: SimpleCfd, dicts: &[Arc<Dictionary>]) -> Self {
        let lhs_pos: Vec<usize> = cfd.lhs.iter().map(|a| a.index()).collect();
        let rhs_pos = cfd.rhs.index();
        let lhs_dicts: Vec<Arc<Dictionary>> = lhs_pos.iter().map(|&p| dicts[p].clone()).collect();
        let rhs_dict = dicts[rhs_pos].clone();
        let compiled: Vec<CompiledPattern> = cfd
            .tableau
            .iter()
            .map(|p| CompiledPattern::compile_with(p, &lhs_dicts, &rhs_dict))
            .collect();
        ViolationIndex {
            lhs_index: LhsIndex::of_compiled(&compiled),
            compiled,
            cfd,
            lhs_pos,
            rhs_pos,
            lhs_dicts,
            rhs_dict,
            keys: PositionTable::new(),
            slots: Vec::new(),
            slot_keys: Vec::new(),
            free: Vec::new(),
            lists: PatternLists::default(),
            tid_key: PositionTable::new(),
            live: ViolationSet::default(),
        }
    }

    /// The CFD this index maintains.
    pub fn cfd(&self) -> &SimpleCfd {
        &self.cfd
    }

    /// Number of distinct LHS keys currently indexed.
    pub(crate) fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of rows currently indexed (rows matching some feasible
    /// pattern; rows matching nothing are never stored).
    pub fn indexed_rows(&self) -> usize {
        self.tid_key.len()
    }

    /// Bytes the index holds on the heap for its keys and rows, computed
    /// from capacities: the slots (each key's state and member list), the
    /// key codes, the free list, the matched-pattern lists with their
    /// table, and both position tables. It leaves out what
    /// [`Self::new`] allocates for the CFD and its compiled tableau, the
    /// live [`ViolationSet`], and a key's RHS counts once they spill into
    /// a map, whose hash tables are std's to size.
    pub fn heap_bytes(&self) -> usize {
        let members: usize = self.slots.iter().map(|s| s.members.capacity()).sum();
        self.slots.capacity() * size_of::<KeyState>()
            + members * size_of::<Member>()
            + self.slot_keys.capacity() * size_of::<u32>()
            + self.free.capacity() * size_of::<u32>()
            + self.lists.heap_bytes()
            + self.keys.heap_bytes()
            + self.tid_key.heap_bytes()
    }

    /// The live violation set (maintained, not recomputed).
    pub fn current(&self) -> &ViolationSet {
        &self.live
    }

    /// A copy of the live violation set (what report revisions carry).
    pub fn snapshot(&self) -> ViolationSet {
        self.live.clone()
    }

    /// Recompiles the patterns holding a [`NO_CODE`] cell against the
    /// (append-only, possibly grown) dictionaries — a cell compiled to a
    /// real code keeps it — and re-buckets the tableau when one gained a
    /// code. [`Self::apply`] runs it first; a session also runs it before
    /// its sites judge a batch's rows ([`Self::matched_into`]), and a
    /// second call finds nothing left to gain.
    pub(crate) fn recompile(&mut self) {
        let mut grown = false;
        for (pattern, compiled) in self.cfd.tableau.iter().zip(&mut self.compiled) {
            if compiled.feasible && compiled.rhs != NO_CODE {
                continue;
            }
            let fresh = CompiledPattern::compile_with(pattern, &self.lhs_dicts, &self.rhs_dict);
            if fresh != *compiled {
                *compiled = fresh;
                grown = true;
            }
        }
        if grown {
            self.lhs_index = LhsIndex::of_compiled(&self.compiled);
        }
    }

    /// Fills `ranks` with the tableau ranks, ascending, of the patterns
    /// whose LHS the full-width code row `codes` matches, as the last
    /// [`Self::recompile`] compiled them (`lhs` and `probe` are scratch).
    /// After the batch's recompile, an insert lands in a key exactly
    /// when `ranks` comes back non-empty, and a deleted row was indexed
    /// exactly then too: a key is opened only for a matching LHS, and a
    /// code interned since its row arrived appears in no older row.
    pub(crate) fn matched_into(
        &self,
        codes: &[u32],
        lhs: &mut Vec<u32>,
        probe: &mut Vec<u32>,
        ranks: &mut Vec<u32>,
    ) {
        lhs.clear();
        lhs.extend(self.lhs_pos.iter().map(|&p| codes[p]));
        self.lhs_index.matched_into(lhs, probe, ranks);
    }

    /// Applies one batch — deletes (by tuple id) then inserts
    /// (full-width code rows) — and settles every key it touched.
    /// Returns the number of members examined, the analytic cost driver
    /// of coordinator-side maintenance: one per delete or insert that
    /// lands in an indexed key, plus every surviving old member of a key
    /// whose judgement the batch changed. A build (every key new, so
    /// none has an old member) examines exactly the rows it indexes.
    ///
    /// A delete of a tuple the index never stored (it matched no
    /// feasible pattern) is a no-op, mirroring `detect_simple`'s group
    /// membership rule.
    pub fn apply(&mut self, deletes: &[TupleId], inserts: &[(TupleId, Box<[u32]>)]) -> usize {
        self.recompile();
        // Each key the batch touches, with whether its decoded key was in
        // `Vioπ` before the batch: whether its judgement flagged a member
        // then, read before any member moves.
        let mut touched: Vec<(u32, bool)> = Vec::new();
        let mut examined = 0;

        for tid in deletes {
            let slots = &self.slots;
            let tid_of = |at| member_tid(slots, at);
            let removed =
                self.tid_key.remove(spread(tid), |at| tid_of(at) == *tid, |at| spread(&tid_of(at)));
            let Some((slot, at)) = removed else { continue };
            let state = &self.slots[slot as usize];
            if state.fresh == IDLE {
                touched.push((slot, state.flagged() > 0));
            }
            let tail = state.members.len() as u32 - 1;
            if at != tail {
                // The tail member moves into `at`: re-point its entry.
                let moved = state.members[tail as usize].tid;
                let entry = self.tid_key.get_mut(spread(&moved), |e| e == (slot, tail));
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: every member has its `tid_key` entry"
                )]
                let entry = entry.expect("the `tid_key` invariant");
                *entry = (slot, at);
            }
            let state = &mut self.slots[slot as usize];
            let Member { rhs, .. } = state.members.swap_remove(at as usize);
            state.counts.remove(rhs);
            if state.judgement.flags(rhs) {
                self.live.remove(*tid);
            }
            // Deletes precede inserts: no member has arrived yet.
            state.fresh = state.members.len() as u32;
            examined += 1;
        }

        // Room for every insert up front, so that a build never rehashes;
        // what the rows matching no pattern left unused is given back
        // below.
        let slots = &self.slots;
        self.tid_key.reserve(inserts.len(), |at| spread(&member_tid(slots, at)));
        let width = self.lhs_pos.len();
        let mut lhs: Vec<u32> = Vec::with_capacity(width);
        let mut probe_buf: Vec<u32> = Vec::new();
        let mut ranks: Vec<u32> = Vec::new();
        for (tid, codes) in inserts {
            lhs.clear();
            lhs.extend(self.lhs_pos.iter().map(|&p| codes[p]));
            let hash = spread(lhs.as_slice());
            let slot_keys = &self.slot_keys;
            let slot = match self.keys.find(hash, |s| key_codes(slot_keys, width, s) == lhs) {
                Ok(slot) => slot,
                Err(free) => {
                    self.lhs_index.matched_into(&lhs, &mut probe_buf, &mut ranks);
                    if ranks.is_empty() {
                        // The row matches no feasible pattern: it is in no
                        // detection group and never will be (see module
                        // docs), so it is not indexed at all.
                        continue;
                    }
                    let slot = self.open_slot(&lhs, &ranks);
                    let slot_keys = &self.slot_keys;
                    self.keys.fill(free, hash, slot, |s| spread(key_codes(slot_keys, width, s)));
                    slot
                }
            };
            let slots = &self.slots;
            let tid_of = |at| member_tid(slots, at);
            let hash = spread(tid);
            // A second entry for one tid would leave a member no delete
            // can reach, and a later delete would re-point a stranger.
            #[expect(
                clippy::panic,
                reason = "internal invariant: a session's partition and delta checks refuse a repeated tuple id"
            )]
            let Err(free) = self.tid_key.find(hash, |at| tid_of(at) == *tid) else {
                panic!("the `tid_key` invariant: an inserted tuple id is indexed already")
            };
            let at = u32::try_from(slots[slot as usize].members.len());
            #[expect(
                clippy::expect_used,
                reason = "internal invariant: a key holds fewer than 2³² members (64 GiB of them)"
            )]
            let at = at.expect("fewer members than u32::MAX");
            self.tid_key.fill(free, hash, (slot, at), |at| spread(&tid_of(at)));
            let state = &mut self.slots[slot as usize];
            if state.fresh == IDLE {
                state.fresh = at;
                touched.push((slot, state.flagged() > 0));
            }
            let rhs = codes[self.rhs_pos];
            state.members.push(Member { tid: *tid, rhs });
            state.counts.add(rhs);
            examined += 1;
        }
        let slots = &self.slots;
        self.tid_key.shrink(|at| spread(&member_tid(slots, at)));

        for (slot, in_patterns) in touched {
            examined += self.settle(slot, in_patterns);
        }
        examined
    }

    /// A slot for a new key with LHS codes `lhs` matching the patterns
    /// `matched` — a freed one if any.
    fn open_slot(&mut self, lhs: &[u32], matched: &[u32]) -> u32 {
        let state = KeyState::new(self.lists.intern(matched));
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                self.slot_keys[slot as usize * lhs.len()..][..lhs.len()].copy_from_slice(lhs);
                slot
            }
            None => {
                // The key table's empty mark is no slot.
                let slot = u32::try_from(self.slots.len()).ok().filter(|&s| s != u32::EMPTY);
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: an index holds fewer than 2³² − 1 keys (320 GiB of slots)"
                )]
                let slot = slot.expect("fewer keys than u32::MAX");
                self.slots.push(state);
                self.slot_keys.extend_from_slice(lhs);
                slot
            }
        }
    }

    /// Ends the batch for one touched key: judges it once over its new
    /// counts, flags its new members — or, if the judgement changed,
    /// retracts the surviving old flags and flags every member — moves
    /// its decoded key into or out of `Vioπ` if the flagged count crossed
    /// 0 (`in_patterns` says whether it was in before the batch), and
    /// frees the slot of a key left without members. Returns the old
    /// members examined.
    fn settle(&mut self, slot: u32, in_patterns: bool) -> usize {
        let state = &mut self.slots[slot as usize];
        let fresh = std::mem::replace(&mut state.fresh, IDLE) as usize;
        let matched = self.lists.get(state.matched);
        let specs = matched.iter().map(|&pi| self.compiled[pi as usize].rhs_spec());
        let judgement = judge(specs, state.counts.conflict(), false);
        let mut examined = 0;
        if judgement == state.judgement {
            for m in &state.members[fresh..] {
                if judgement.flags(m.rhs) {
                    self.live.insert(m.tid);
                }
            }
        } else {
            for m in &state.members[..fresh] {
                if state.judgement.flags(m.rhs) {
                    self.live.remove(m.tid);
                }
            }
            for m in &state.members {
                if judgement.flags(m.rhs) {
                    self.live.insert(m.tid);
                }
            }
            state.judgement = judgement;
            examined = fresh;
        }

        let width = self.lhs_pos.len();
        let codes = key_codes(&self.slot_keys, width, slot);
        let flagging = state.flagged() > 0;
        if flagging != in_patterns {
            let decoded: Vec<Value> =
                self.lhs_dicts.iter().zip(codes).map(|(d, &c)| d.value(c)).collect();
            if flagging {
                self.live.insert_pattern(decoded);
            } else {
                self.live.remove_pattern(&decoded);
            }
        }
        if state.members.is_empty() {
            // Last member gone: the key leaves the index entirely (a
            // later re-appearance recomputes `matched` freshly).
            *state = KeyState::new(PatternLists::EMPTY);
            let slot_keys = &self.slot_keys;
            self.keys.remove(
                spread(codes),
                |s| s == slot,
                |s| spread(key_codes(slot_keys, width, s)),
            );
            self.free.push(slot);
        }
        examined
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::{detect_simple, parse_cfd};
    use dcd_relation::{vals, DeltaEffect, Relation, RelationDelta, Schema, Tuple, ValueType};
    use std::collections::{BTreeMap, BTreeSet};

    impl ViolationIndex {
        /// The slot of the key with LHS codes `lhs`, if it is indexed.
        fn slot_of(&self, lhs: &[u32]) -> Option<u32> {
            let width = self.lhs_pos.len();
            self.keys.get(spread(lhs), |slot| key_codes(&self.slot_keys, width, slot) == lhs)
        }
    }

    /// SplitMix64: a random stream derives from its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn dicts_of(rel: &Relation) -> Vec<Arc<Dictionary>> {
        rel.columns().iter().map(|c| c.dict().clone()).collect()
    }

    fn full_rows(rel: &Relation) -> Vec<(TupleId, Box<[u32]>)> {
        (0..rel.len())
            .map(|i| {
                let codes: Box<[u32]> = rel.columns().iter().map(|c| c.codes().get(i)).collect();
                (rel.tids()[i], codes)
            })
            .collect()
    }

    fn assert_matches_full(index: &ViolationIndex, rel: &Relation) {
        let full = detect_simple(rel, index.cfd());
        assert_eq!(index.current(), &full, "Vio, Vioπ drifted from detect_simple");
    }

    #[test]
    fn build_matches_detect_simple() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "c"],
                vals![7, "z9", "x"],
            ],
        )
        .unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        let touched = index.apply(&[], &full_rows(&rel));
        assert_eq!(touched, 2, "only the cc=44 rows are indexed");
        assert_eq!(index.indexed_rows(), 2);
        assert_matches_full(&index, &rel);
    }

    #[test]
    fn deltas_track_detect_simple_step_by_step() {
        let s = schema();
        let mut rel = Relation::from_rows(
            s.clone(),
            vec![vals![44, "z1", "a"], vals![44, "z2", "b"], vals![31, "z1", "c"]],
        )
        .unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);
        assert!(index.current().is_empty());

        // Insert a conflicting partner → violation appears.
        let d1 = RelationDelta::new(vec![Tuple::new(TupleId(10), vals![44, "z1", "zz"])], vec![]);
        let eff = rel.apply_delta(&d1).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().len(), 2);

        // Delete the original partner → violation disappears again.
        let d2 = RelationDelta::new(vec![], vec![TupleId(0)]);
        let eff = rel.apply_delta(&d2).unwrap();
        index.apply(&[TupleId(0)], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert!(index.current().is_empty());

        // Empty keys vanish from the index.
        let d3 = RelationDelta::new(vec![], vec![TupleId(10)]);
        let eff = rel.apply_delta(&d3).unwrap();
        index.apply(&[TupleId(10)], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.key_count(), 2, "the (44, z1) key is gone");
    }

    #[test]
    fn late_interned_constants_become_matchable() {
        let s = schema();
        // Initially no tuple carries cc=31, so the second pattern is
        // infeasible (NO_CODE) at build time.
        let mut rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "a"]]).unwrap();
        let a = parse_cfd(&s, "a", "([cc=44, zip] -> [street])").unwrap();
        let b = parse_cfd(&s, "b", "([cc=31, zip] -> [street])").unwrap();
        let merged = dcd_cfd::Cfd::merge("phi", &[&a, &b]).unwrap();
        let simple = merged.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);

        // Two conflicting cc=31 tuples arrive: the recompiled pattern
        // must catch them.
        let d = RelationDelta::new(
            vec![
                Tuple::new(TupleId(5), vals![31, "q", "x"]),
                Tuple::new(TupleId(6), vals![31, "q", "y"]),
            ],
            vec![],
        );
        let eff = rel.apply_delta(&d).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().len(), 2);
    }

    #[test]
    fn a_late_interned_rhs_constant_rejudges_an_existing_key() {
        let s = schema();
        // No tuple carries street=Main at build time: the constant
        // compiles to NO_CODE, and every cc=44 member differs from it.
        let rows = vec![vals![44, "z1", "a"], vals![44, "z1", "a"]];
        let mut rel = Relation::from_rows(s.clone(), rows).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street=Main])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        assert_eq!(index.apply(&[], &full_rows(&rel)), 2);
        assert_eq!(index.key_count(), 1);
        assert_eq!(index.slots[0].judgement, Judgement::Differing(NO_CODE));
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().len(), 2);

        // An insert into the existing key interns Main.
        let d = RelationDelta::new(vec![Tuple::new(TupleId(7), vals![44, "z1", "Main"])], vec![]);
        let eff = rel.apply_delta(&d).unwrap();
        let main = eff.inserted[0].1[2];
        // The insert, plus the two old members of a re-judged key.
        assert_eq!(index.apply(&[], &eff.inserted), 1 + 2);
        assert_eq!(index.slots[0].judgement, Judgement::Differing(main));
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().len(), 2, "the Main row is clean");
    }

    #[test]
    fn constant_rhs_patterns_flag_single_tuples() {
        let s = schema();
        let mut rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "Main"]]).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street=Main])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);
        assert!(index.current().is_empty());

        let d = RelationDelta::new(vec![Tuple::new(TupleId(9), vals![44, "z3", "Side"])], vec![]);
        let eff = rel.apply_delta(&d).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().len(), 1);
        assert_eq!(index.current().pattern_count(), 1);
    }

    #[test]
    fn deleting_unindexed_tuples_is_a_noop() {
        let s = schema();
        let mut rel = Relation::from_rows(s.clone(), vec![vals![7, "z", "x"]]).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_eq!(index.indexed_rows(), 0);
        let eff = rel.apply_delta(&RelationDelta::new(vec![], vec![TupleId(0)])).unwrap();
        assert_eq!(eff.deleted.len(), 1);
        let touched = index.apply(&[TupleId(0)], &[]);
        assert_eq!(touched, 0);
        assert_matches_full(&index, &rel);
    }

    #[test]
    fn rhs_counts_spill_past_two_codes_and_keep_counting() {
        let mut counts = RhsCounts::EMPTY;
        for code in [4, 4, 9] {
            counts.add(code);
        }
        assert!(counts.conflict());
        assert_eq!((counts.count(4), counts.count(9), counts.count(0)), (2, 1, 0));
        counts.remove(9);
        assert!(!counts.conflict());
        counts.add(0);
        counts.add(7);
        assert!(matches!(counts, RhsCounts::Spilled(_)));
        for code in [4, 0, 4] {
            counts.remove(code);
        }
        assert!(!counts.conflict(), "one code left: 7");
        assert_eq!((counts.count(7), counts.count(4)), (1, 0));
    }

    /// Members examined and judgements changed, as a from-scratch reading
    /// of the member lists expects them of one batch.
    #[derive(Debug, Default, PartialEq)]
    struct Expected {
        /// Deletes and inserts landing in an indexed key.
        landed: usize,
        /// `landed` plus the surviving old members of re-judged keys.
        examined: usize,
        changed: usize,
    }

    /// Each indexed key's members and the judgement as of the last batch
    /// that touched it, kept without counts, slots or fresh marks: keys
    /// are matched against the tableau compiled now, and judged over
    /// their whole member list.
    #[derive(Default)]
    struct Naive {
        keys: BTreeMap<Vec<u32>, NaiveKey>,
    }

    /// A key's `(tid, rhs code)` members and its last judgement.
    type NaiveKey = (Vec<(TupleId, u32)>, Judgement);

    impl Naive {
        fn apply(&mut self, cfd: &SimpleCfd, rel: &Relation, effect: &DeltaEffect) -> Expected {
            let dicts = dicts_of(rel);
            let lhs_dicts: Vec<_> = cfd.lhs.iter().map(|a| dicts[a.index()].clone()).collect();
            let rhs_dict = &dicts[cfd.rhs.index()];
            let compiled: Vec<CompiledPattern> = cfd
                .tableau
                .iter()
                .map(|p| CompiledPattern::compile_with(p, &lhs_dicts, rhs_dict))
                .collect();
            let key_of =
                |codes: &[u32]| -> Vec<u32> { cfd.lhs.iter().map(|a| codes[a.index()]).collect() };
            let specs = |key: &[u32]| -> Vec<_> {
                compiled.iter().filter(|p| p.matches_codes(key)).map(|p| p.rhs_spec()).collect()
            };
            let mut expected = Expected::default();
            // Per touched key: its member ids and judgement before the batch.
            let mut before: BTreeMap<Vec<u32>, (Vec<TupleId>, Judgement)> = BTreeMap::new();
            let mut remember = |key: &[u32], (members, judgement): &NaiveKey| {
                let ids = members.iter().map(|&(t, _)| t).collect();
                before.entry(key.to_vec()).or_insert((ids, *judgement));
            };
            for (tid, codes) in &effect.deleted {
                let key = key_of(codes);
                let Some(entry) = self.keys.get_mut(&key) else { continue };
                remember(&key, entry);
                entry.0.retain(|&(t, _)| t != *tid);
                expected.landed += 1;
            }
            for (tid, codes) in &effect.inserted {
                let key = key_of(codes);
                if specs(&key).is_empty() {
                    continue;
                }
                let entry = self.keys.entry(key.clone()).or_insert((Vec::new(), Judgement::Clean));
                remember(&key, entry);
                entry.0.push((*tid, codes[cfd.rhs.index()]));
                expected.landed += 1;
            }
            let deleted: BTreeSet<TupleId> = effect.deleted.iter().map(|&(t, _)| t).collect();
            expected.examined = expected.landed;
            for (key, (old_ids, old)) in before {
                let (members, judgement) = self.keys.get_mut(&key).expect("a touched key");
                let conflict = members.iter().any(|&(_, rhs)| rhs != members[0].1);
                *judgement = judge(specs(&key), conflict, false);
                if *judgement != old {
                    expected.changed += 1;
                    expected.examined += old_ids.iter().filter(|t| !deleted.contains(t)).count();
                }
                if members.is_empty() {
                    self.keys.remove(&key);
                }
            }
            expected
        }
    }

    /// Applies `delta` to `rel` and the index, then checks the index
    /// against the pairwise oracle over the materialized rows and the
    /// count `apply` returned against the naive reading.
    fn step(
        index: &mut ViolationIndex,
        naive: &mut Naive,
        rel: &mut Relation,
        delta: RelationDelta,
    ) -> Expected {
        let effect = rel.apply_delta(&delta).unwrap();
        let deletes: Vec<TupleId> = effect.deleted.iter().map(|&(t, _)| t).collect();
        let examined = index.apply(&deletes, &effect.inserted);
        let expected = naive.apply(index.cfd(), rel, &effect);
        let label = format!("after {delta:?}");
        assert_eq!(examined, expected.examined, "members examined {label}");
        if expected.changed == 0 {
            assert_eq!(examined, expected.landed, "no re-judged key: the delta rows {label}");
        }
        let tuples: Vec<Tuple> = rel.iter().collect();
        let want = dcd_cfd::oracle::vio(&tuples.iter().collect::<Vec<_>>(), index.cfd());
        assert_eq!(index.current(), &want, "Vio, Vioπ {label}");
        assert_eq!(index.key_count(), naive.keys.len(), "{label}");
        let members: usize = naive.keys.values().map(|(m, _)| m.len()).sum();
        assert_eq!(index.indexed_rows(), members, "{label}");
        assert_routing(index, &label);
        expected
    }

    /// The delete routing invariant: one `tid_key` entry per member, each
    /// naming a member that carries its tid, and every member found by its
    /// tid. Finding each member's own position is one distinct entry per
    /// member, so with as many entries as members there is no other. The
    /// key table likewise finds each live key's slot by its codes.
    fn assert_routing(index: &ViolationIndex, label: &str) {
        let members: usize = index.slots.iter().map(|s| s.members.len()).sum();
        assert_eq!(index.tid_key.len(), members, "one routing entry per member {label}");
        for (slot, state) in (0u32..).zip(&index.slots) {
            for (at, m) in (0u32..).zip(&state.members) {
                let tid = m.tid;
                let found = index.tid_key.get(spread(&tid), |e| member_tid(&index.slots, e) == tid);
                assert_eq!(found, Some((slot, at)), "{tid:?} is found at its member {label}");
            }
        }
        let live: Vec<u32> = (0u32..)
            .zip(&index.slots)
            .filter(|(_, s)| !s.members.is_empty())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(index.key_count(), live.len(), "one key entry per live slot {label}");
        let width = index.lhs_pos.len();
        for slot in live {
            let codes = key_codes(&index.slot_keys, width, slot);
            assert_eq!(index.slot_of(codes), Some(slot), "slot {slot} is found by its key {label}");
        }
    }

    #[test]
    fn transitions_track_the_oracle() {
        let s = schema();
        // Wild and constant RHS patterns; cc=31 and street=Late are on
        // no tuple until the stream interns them.
        let tableau = [
            "([cc=44, zip] -> [street])",
            "([cc, zip=z1] -> [street=Main])",
            "([cc=31, zip] -> [street])",
            "([cc=44, zip=z2] -> [street=Late])",
        ];
        let parts: Vec<_> = tableau.iter().map(|p| parse_cfd(&s, "p", p).unwrap()).collect();
        let cfd = dcd_cfd::Cfd::merge("phi", &parts.iter().collect::<Vec<_>>()).unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let ins = |tid: u64, cc: i64, zip: &str, street: &str| {
            Tuple::new(TupleId(tid), vals![cc, zip, street])
        };
        let build = vec![
            vals![44, "z1", "a"],
            vals![44, "z1", "a"],
            vals![44, "z2", "b"],
            vals![7, "z3", "a"],
            vals![7, "z1", "Main"],
            vals![44, "z3", "a"],
        ];
        // By construction, in order: (44, z3) turns conflicting and back;
        // a batch re-judges nothing (and deletes the unindexed tid 3);
        // (44, z2) is emptied and recreated in one batch, then across two;
        // tid 0 is deleted and re-inserted in one batch; cc=31 and Late
        // are interned, Late into the existing (44, z2).
        let scripted = [
            RelationDelta::new(vec![ins(10, 44, "z3", "b")], vec![]),
            RelationDelta::new(vec![], vec![TupleId(10)]),
            RelationDelta::new(vec![ins(11, 44, "z3", "a")], vec![TupleId(3)]),
            RelationDelta::new(vec![ins(12, 44, "z2", "c")], vec![TupleId(2)]),
            RelationDelta::new(vec![], vec![TupleId(12)]),
            RelationDelta::new(vec![ins(13, 44, "z2", "b")], vec![]),
            RelationDelta::new(vec![ins(0, 44, "z1", "b")], vec![TupleId(0)]),
            RelationDelta::new(
                vec![ins(14, 31, "q", "x"), ins(15, 31, "q", "y"), ins(16, 44, "z2", "Late")],
                vec![],
            ),
        ];
        // An emptied key keeps its judgement until it leaves the index.
        let want_changed = [1, 1, 0, 0, 0, 1, 1, 2];

        for seed in 0..6 {
            let mut rel = Relation::from_rows(s.clone(), build.clone()).unwrap();
            let mut index = ViolationIndex::new(simple.clone(), &dicts_of(&rel));
            let mut naive = Naive::default();
            let built = DeltaEffect { inserted: full_rows(&rel), deleted: Vec::new() };
            assert_eq!(
                index.apply(&[], &built.inserted),
                naive.apply(&simple, &rel, &built).examined
            );
            assert_routing(&index, "after the build");
            for (delta, changed) in scripted.iter().zip(want_changed) {
                let expected = step(&mut index, &mut naive, &mut rel, delta.clone());
                assert_eq!(expected.changed, changed, "the script's transitions");
            }

            // Then random batches over the same small domains: deletes,
            // inserts, ids re-inserted in the batch that deletes them,
            // and now and then a street no pattern names.
            let mut rng = Rng(seed);
            let mut next = 100;
            for batch in 0..30 {
                let deletes: Vec<TupleId> =
                    rel.tids().iter().copied().filter(|_| rng.below(4) == 0).collect();
                let mut inserts: Vec<Tuple> = Vec::new();
                for _ in 0..rng.below(4) {
                    let tid = match deletes.get(rng.below(8) as usize) {
                        Some(&t) if inserts.iter().all(|i| i.tid != t) => t.0,
                        _ => {
                            next += 1;
                            next
                        }
                    };
                    let cc = [44, 7, 31][rng.below(3) as usize];
                    let zip = ["z1", "z2", "z3"][rng.below(3) as usize];
                    let fresh = format!("s{batch}");
                    let street = ["a", "b", "Main", "Late", fresh.as_str()][rng.below(5) as usize];
                    inserts.push(ins(tid, cc, zip, street));
                }
                step(&mut index, &mut naive, &mut rel, RelationDelta::new(inserts, deletes));
            }
        }
    }

    #[test]
    #[should_panic(expected = "the `tid_key` invariant: an inserted tuple id is indexed already")]
    fn an_inserted_tid_that_is_indexed_already_panics() {
        let s = schema();
        let rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "a"]]).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
        let mut index = ViolationIndex::new(cfd.simplify().pop().unwrap(), &dicts_of(&rel));
        let rows = full_rows(&rel);
        index.apply(&[], &rows);
        index.apply(&[], &rows);
    }

    /// What the deletes of a random stream did to their keys' member
    /// lists, counted so the test can show the stream reached each case.
    #[derive(Debug, Default)]
    struct Routes {
        /// The key's only member at the start of the batch.
        only: usize,
        /// The last member of a key that held several.
        emptied: usize,
        /// The tail member: nothing moves.
        tail: usize,
        /// Any other member: the tail moves into its place.
        moved: usize,
        /// An indexed tid deleted and inserted again in one batch.
        reinserted: usize,
    }

    #[test]
    fn deletes_find_their_member_by_position_through_random_streams() {
        let s = schema();
        // One wildcard pattern: every row is indexed, keyed by cc alone,
        // so the three common ccs hold many members each.
        let cfd = parse_cfd(&s, "phi", "([cc] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut routes = Routes::default();
        for seed in 0..4 {
            let rows: Vec<Vec<Value>> =
                (0..24).map(|i| vals![i % 3, "z", ["a", "b"][i as usize % 2]]).collect();
            let mut rel = Relation::from_rows(s.clone(), rows).unwrap();
            let mut index = ViolationIndex::new(simple.clone(), &dicts_of(&rel));
            index.apply(&[], &full_rows(&rel));
            let mut rng = Rng(seed);
            let mut next = 1000;
            for batch in 0..60 {
                let label = format!("seed {seed}, batch {batch}");
                // Random deletes; now and then every member of one key.
                let emptied_cc = (rng.below(5) == 0).then(|| rng.below(4) as i64);
                let live: Vec<Tuple> = rel.iter().collect();
                let deletes: Vec<TupleId> = live
                    .iter()
                    .filter(|t| {
                        let everyone = emptied_cc.is_some_and(|cc| t.values()[0] == Value::Int(cc));
                        everyone || rng.below(5) == 0
                    })
                    .map(|t| t.tid)
                    .collect();
                let mut inserts: Vec<Tuple> = Vec::new();
                for _ in 0..rng.below(7) {
                    let tid = match deletes.get(rng.below(6) as usize) {
                        Some(&t) if inserts.iter().all(|i| i.tid != t) => t,
                        _ => {
                            next += 1;
                            TupleId(next)
                        }
                    };
                    // Mostly the three common keys, sometimes one of its own.
                    let cc = if rng.below(6) == 0 { 100 + batch } else { rng.below(3) as i64 };
                    let street = ["a", "b", "c"][rng.below(3) as usize];
                    inserts.push(Tuple::new(tid, vals![cc, "z", street]));
                }
                routes.reinserted += inserts.iter().filter(|i| deletes.contains(&i.tid)).count();

                // The member lists a search for each deleted tid followed
                // by `swap_remove` leaves, keyed by LHS codes.
                let width = index.lhs_pos.len();
                let mut lists: BTreeMap<Vec<u32>, Vec<Member>> = (0u32..)
                    .zip(&index.slots)
                    .filter(|(_, s)| !s.members.is_empty())
                    .map(|(slot, s)| {
                        (key_codes(&index.slot_keys, width, slot).to_vec(), s.members.clone())
                    })
                    .collect();
                let start: BTreeMap<Vec<u32>, usize> =
                    lists.iter().map(|(k, m)| (k.clone(), m.len())).collect();
                for tid in &deletes {
                    let (key, members) = lists
                        .iter_mut()
                        .find(|(_, m)| m.iter().any(|&Member { tid: t, .. }| t == *tid))
                        .unwrap();
                    let at = members.iter().position(|&Member { tid: t, .. }| t == *tid).unwrap();
                    match (start[key], members.len()) {
                        (1, _) => routes.only += 1,
                        (_, 1) => routes.emptied += 1,
                        (_, len) if at + 1 == len => routes.tail += 1,
                        _ => routes.moved += 1,
                    }
                    members.swap_remove(at);
                }

                let effect =
                    rel.apply_delta(&RelationDelta::new(inserts, deletes.clone())).unwrap();
                for (tid, codes) in &effect.inserted {
                    let key: Vec<u32> = index.lhs_pos.iter().map(|&p| codes[p]).collect();
                    lists
                        .entry(key)
                        .or_default()
                        .push(Member { tid: *tid, rhs: codes[index.rhs_pos] });
                }
                lists.retain(|_, m| !m.is_empty());
                index.apply(&deletes, &effect.inserted);

                assert_routing(&index, &label);
                assert_eq!(index.key_count(), lists.len(), "{label}");
                for (key, members) in &lists {
                    let slot = index.slot_of(key).unwrap();
                    assert_eq!(&index.slots[slot as usize].members, members, "{label}");
                }
                let tuples: Vec<Tuple> = rel.iter().collect();
                let want = dcd_cfd::oracle::vio(&tuples.iter().collect::<Vec<_>>(), index.cfd());
                assert_eq!(index.current(), &want, "Vio, Vioπ {label}");
            }
        }
        let Routes { only, emptied, tail, moved, reinserted } = routes;
        assert!([only, emptied, tail, moved, reinserted].iter().all(|&n| n > 0), "{routes:?}");
    }

    #[test]
    fn a_build_gives_back_the_reserve_its_unmatched_rows_left() {
        let s = schema();
        // 2 000 rows, of which the 40 with cc = 3 match the pattern.
        let rows: Vec<Vec<Value>> = (0..2000).map(|i| vals![i % 50, "z", "a"]).collect();
        let rel = Relation::from_rows(s.clone(), rows).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc=3] -> [street])").unwrap();
        let mut index = ViolationIndex::new(cfd.simplify().pop().unwrap(), &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_eq!(index.indexed_rows(), 40);
        assert_eq!(index.tid_key.bucket_count(), 64, "sized for 40 entries, not 2 000");
        assert_routing(&index, "after the build");
    }

    #[test]
    fn a_stream_over_a_fixed_size_relation_keeps_its_bytes_and_buckets() {
        let s = schema();
        // 2 000 rows under 50 keys, 40 members each, so that the stream
        // keeps every key and its member list within the 64 members the
        // build's capacity holds.
        let cfd = parse_cfd(&s, "phi", "([cc] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let rows: Vec<Vec<Value>> =
            (0..2000).map(|i| vals![i % 50, "z", ["a", "b"][i as usize % 7 / 6]]).collect();
        let mut rel = Relation::from_rows(s.clone(), rows).unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        let built = index.heap_bytes();
        let buckets = (index.keys.bucket_count(), index.tid_key.bucket_count());
        assert_eq!(buckets, (64, 4096), "the build's reserve, and growth for 50 keys");
        let mut rng = Rng(7);
        let mut next = 10_000;
        for batch in 0..300 {
            let label = format!("batch {batch}");
            // Half deletes, half inserts with fresh ids: |D| stays 2 000.
            let deletes: Vec<TupleId> =
                rel.tids().iter().copied().filter(|_| rng.below(100) == 0).collect();
            let inserts: Vec<Tuple> = deletes
                .iter()
                .map(|_| {
                    next += 1;
                    let street = ["a", "b", "c"][rng.below(3) as usize];
                    Tuple::new(TupleId(next), vals![rng.below(50) as i64, "z", street])
                })
                .collect();
            let effect = rel.apply_delta(&RelationDelta::new(inserts, deletes.clone())).unwrap();
            index.apply(&deletes, &effect.inserted);
            assert_eq!(index.indexed_rows(), 2000, "{label}");
            assert!(
                index.heap_bytes() * 10 <= built * 11,
                "{} B after {label}, {built} B built",
                index.heap_bytes()
            );
            assert_eq!(
                (index.keys.bucket_count(), index.tid_key.bucket_count()),
                buckets,
                "{label}"
            );
        }
        assert_routing(&index, "after the stream");
        let tuples: Vec<Tuple> = rel.iter().collect();
        let want = dcd_cfd::oracle::vio(&tuples.iter().collect::<Vec<_>>(), index.cfd());
        assert_eq!(index.current(), &want);
    }
}

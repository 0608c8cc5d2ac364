//! Dictionary-encoded columnar storage, chunked for morsel-driven scans.
//!
//! Every [`Relation`](crate::Relation) stores its cells as one [`Column`]
//! per attribute: a dense array of `u32` *codes*, each code naming a
//! distinct [`Value`] in the column's [`Dictionary`]. The hot detection
//! loops (GROUP BY on `t[X]`, σ-partitioning, pattern matching,
//! join keys) then run on integer codes instead of hashing and comparing
//! owned values:
//!
//! * two cells of one column are equal iff their codes are equal — the
//!   dictionary is a bijection between codes and distinct values;
//! * a pattern constant compiles to *one* dictionary lookup per relation
//!   (see `dcd_cfd::CompiledPattern`), after which the match operator `≍`
//!   is a `u32` compare;
//! * a group key over `k` attributes is a `[u32; k]` (packed into a single
//!   `u64` when `k ≤ 2`), so the group-by hash touches no string payloads.
//!
//! Dictionaries are shared across fragments of one relation (`Arc`): a
//! fragment constructor re-encodes nothing, and codes remain comparable
//! between the parent and every fragment. Interning is append-only behind
//! an `RwLock`; the per-tuple hot paths never take the lock — they read
//! dense code chunks and only touch the dictionary to decode one value per
//! *group* (or per pattern constant), not per tuple.
//!
//! A dictionary holds each distinct value once: `values[code]`, plus an
//! open-addressing index of `(hash, code)` slots over that vector. A
//! lookup hashes once and compares values only where the stored hash
//! agrees; a miss costs the same one hash; growing the index moves slots
//! by their stored hashes and reads no value. A batch is interned in one
//! pass ([`Column::extend_values`]): known values under the read lock,
//! each run of unseen ones under one acquisition of the write lock.
//!
//! # Chunked layout
//!
//! A column's codes are stored as a sequence of fixed-size dense chunks
//! ([`Column::chunk_rows`] codes each; only the last chunk may be
//! shorter). The chunk is the execution layer's *morsel*: `dcd_dist::pool`
//! hands out `(site, chunk)` units one at a time to its scoped workers, so
//! a skewed partition still parallelizes inside its one big fragment. Scans
//! use [`CodesView::chunks`] (plain `&[u32]` slices, no per-row division);
//! random access goes through [`CodesView::at`]. The chunk size is a
//! property of the relation: one built from scratch gets
//! [`DEFAULT_CHUNK_ROWS`], one built from another takes its source's size,
//! and `Relation::with_chunk_rows` re-lays one explicitly. Every column of
//! one relation shares its layout, so multi-column scans zip aligned
//! chunks.

use crate::fxhash::FxBuildHasher;
use crate::value::Value;
use std::fmt;
use std::hash::BuildHasher;
use std::ops::Index;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Sentinel code meaning "matches any value" in compiled pattern cells.
/// Never assigned to a real value.
pub const WILDCARD_CODE: u32 = u32::MAX;

/// Sentinel code meaning "this value is not in the dictionary" (e.g. a
/// pattern constant that no tuple carries, or a join key with no partner).
/// Never assigned to a real value, and never equal to any stored code.
pub const NO_CODE: u32 = u32::MAX - 1;

/// Codes at or above this bound are reserved for the sentinels above.
const CODE_LIMIT: u32 = u32::MAX - 2;

/// Rows per column chunk of every relation built from scratch: 64Ki codes
/// (256 KiB per chunk) — large enough that per-chunk bookkeeping is
/// noise, small enough that one fragment yields many morsels.
pub const DEFAULT_CHUNK_ROWS: usize = 64 * 1024;

/// Does nothing. [`DEFAULT_CHUNK_ROWS`] is now the only process layout:
/// a relation built from scratch gets it, one built from another takes
/// its source's size, and `Relation::with_chunk_rows` is the one way to
/// choose another. The stub stays only because `benchmark/src/main.rs`
/// pins the default through it; ROADMAP item 2 deletes that call and
/// this stub.
#[doc(hidden)]
pub fn set_chunk_rows(rows: Option<usize>) {
    debug_assert!(
        rows.is_none_or(|n| n == DEFAULT_CHUNK_ROWS),
        "chunk size is a property of the relation: see `Relation::with_chunk_rows`"
    );
}

/// One slot of a dictionary's index: the 32-bit hash of an interned
/// value beside its code. An empty slot holds [`WILDCARD_CODE`], which
/// [`CODE_LIMIT`] keeps from ever being assigned.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    code: u32,
}

const EMPTY_SLOT: Slot = Slot { hash: 0, code: WILDCARD_CODE };

/// The 32-bit hash the index keys on: the Fx hash, folded and multiplied
/// once more (by 2⁶⁴/φ), upper half. Fx alone leaves near-equal strings
/// near each other in every 32-bit window of its output, and linear
/// probing pays for that in long runs: over the 79 751 distinct names of
/// a 160 000-tuple cust relation a miss walked 12 slots on average
/// without the second multiply and 0.24 with it.
#[inline]
fn hash32(v: &Value) -> u32 {
    let h = FxBuildHasher::default().hash_one(v);
    ((h ^ (h >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32
}

#[derive(Debug, Default, Clone)]
struct DictInner {
    /// `values[code]` is the canonical value for `code` — the only copy
    /// the dictionary keeps.
    values: Vec<Value>,
    /// Inverse index, value → code: an open-addressing table over
    /// `values`, linear probe. Its length is zero or a power of two and
    /// at least twice `values.len()`, so a probe always ends at an empty
    /// slot.
    slots: Vec<Slot>,
}

impl DictInner {
    /// The code of `v` (whose [`hash32`] is `hash`), or the empty slot its
    /// probe ended at — where [`DictInner::insert_at`] puts it, provided
    /// [`DictInner::reserve_one`] ran since the last insert. With no
    /// table yet the miss names no slot (`Err(0)`).
    #[inline]
    fn find(&self, v: &Value, hash: u32) -> Result<u32, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else { return Err(0) };
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.code == WILDCARD_CODE {
                return Err(at);
            }
            if slot.hash == hash && self.values[slot.code as usize] == *v {
                return Ok(slot.code);
            }
            at = (at + 1) & mask;
        }
    }

    /// Makes room for one more value at load ≤ ½, doubling the table if
    /// it has to. Growth re-places the slots from their stored hashes:
    /// no value is read, hashed or compared.
    fn reserve_one(&mut self) {
        if (self.values.len() + 1) * 2 <= self.slots.len() {
            return;
        }
        let len = (self.slots.len() * 2).max(8);
        let mask = len - 1;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; len]);
        for slot in old.into_iter().filter(|s| s.code != WILDCARD_CODE) {
            let mut at = slot.hash as usize & mask;
            while self.slots[at].code != WILDCARD_CODE {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
        }
    }

    /// Assigns the next code to `v`, indexing it at the empty slot `at`
    /// that [`DictInner::find`] reported.
    fn insert_at(&mut self, at: usize, v: Value, hash: u32) -> u32 {
        let code = self.values.len() as u32;
        assert!(code < CODE_LIMIT, "dictionary exhausted the u32 code space");
        self.values.push(v);
        self.slots[at] = Slot { hash, code };
        code
    }
}

/// An append-only interning dictionary for one attribute: each distinct
/// [`Value`] maps to a dense `u32` code in first-seen order.
///
/// Each distinct value is stored once, in the code → value vector; the
/// value → code direction is an index of 8-byte `(hash, code)` slots over
/// that vector. A lookup hashes the value once and compares it only
/// against slots whose stored hash agrees; a miss costs that same one
/// hash; growth moves slots and touches no value.
///
/// Shared via `Arc` between a relation and all of its fragments, so codes
/// are comparable across them. All methods take `&self`; interning is
/// synchronized internally.
#[derive(Debug, Default)]
pub struct Dictionary {
    inner: RwLock<DictInner>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, DictInner> {
        self.inner.read().expect("dictionary lock poisoned")
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.read().values.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns `v`, returning its code.
    pub fn intern(&self, v: &Value) -> u32 {
        let mut code = NO_CODE;
        self.intern_each(std::iter::once(v), |c| code = c);
        code
    }

    /// Interns `values` in order, handing each code to `sink` — the one
    /// interning loop. Known values are looked up under the read lock,
    /// which is held across the run, so a batch of known values costs
    /// one lock acquisition. The first value the dictionary has not seen
    /// trades it for the write lock, which then stays for the whole *run*
    /// of unseen values that follows — a column of distinct values is
    /// interned under one acquisition, not one per value — and is traded
    /// back at the first known value. The value that caused the upgrade
    /// is looked up again under the write lock: another thread may have
    /// interned it between the two locks.
    /// No other lock is taken meanwhile: neither `values` nor `sink` may
    /// touch this dictionary.
    pub(crate) fn intern_each<'a>(
        &self,
        values: impl IntoIterator<Item = &'a Value>,
        mut sink: impl FnMut(u32),
    ) {
        let mut values = values.into_iter();
        loop {
            let (mut v, mut hash) = {
                let inner = self.read();
                loop {
                    let Some(v) = values.next() else { return };
                    let hash = hash32(v);
                    match inner.find(v, hash) {
                        Ok(code) => sink(code),
                        Err(_) => break (v, hash),
                    }
                }
            };
            let mut inner = self.inner.write().expect("dictionary lock poisoned");
            loop {
                inner.reserve_one();
                match inner.find(v, hash) {
                    // Raced — somebody interned it between the two
                    // locks — or the run of unseen values has ended.
                    Ok(code) => {
                        drop(inner);
                        sink(code);
                        break;
                    }
                    Err(at) => sink(inner.insert_at(at, v.clone(), hash)),
                }
                let Some(next) = values.next() else { return };
                (v, hash) = (next, hash32(next));
            }
        }
    }

    /// The code of `v`, if it has been interned ([`NO_CODE`]-free lookup
    /// used when compiling pattern constants and translating join keys).
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.read().find(v, hash32(v)).ok()
    }

    /// The canonical value of `code` (O(1) clone — see [`Value`]).
    ///
    /// Panics if `code` was never assigned (codes must come from this
    /// dictionary or a relation sharing it).
    pub fn value(&self, code: u32) -> Value {
        self.read().values[code as usize].clone()
    }

    /// A point-in-time copy of the code → value table (test/debug helper).
    pub fn snapshot(&self) -> Vec<Value> {
        self.read().values.clone()
    }
}

impl Clone for Dictionary {
    /// Deep copy: the clone interns independently from the original.
    /// (Fragments that must share codes clone the `Arc`, not the
    /// dictionary.)
    fn clone(&self) -> Self {
        Dictionary { inner: RwLock::new(self.read().clone()) }
    }
}

/// One dictionary-encoded column of a relation: a shared [`Dictionary`]
/// plus a dense array of codes, one per row in insertion order, stored
/// as fixed-size chunks (see the module docs).
///
/// Invariant: every chunk holds exactly `chunk_rows` codes except the
/// last, which holds `1..=chunk_rows`.
///
/// A column is written two ways, and both cost what is written rather
/// than what is stored. Values append through [`Column::extend_values`]
/// (one pass: the dictionary's read lock across known values, its write
/// lock across each run of values not seen before; [`Column::push`] is
/// the one-value case); codes copied from a column over the same
/// dictionary append as they are, a chunk run at a time. Rows leave
/// through [`Column::remove_rows`], which closes the gaps in place — one
/// `memmove` of the codes behind the first removed row — and allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct Column {
    dict: Arc<Dictionary>,
    chunks: Vec<Vec<u32>>,
    len: usize,
    chunk_rows: usize,
}

impl Column {
    /// Creates an empty column over a fresh dictionary, in chunks of
    /// [`DEFAULT_CHUNK_ROWS`].
    pub fn new() -> Self {
        Column::sharing(Arc::new(Dictionary::new()))
    }

    /// Creates an empty column sharing `dict` (codes stay comparable with
    /// every other column over `dict`), in chunks of
    /// [`DEFAULT_CHUNK_ROWS`].
    pub fn sharing(dict: Arc<Dictionary>) -> Self {
        Column::with_layout(dict, 0, DEFAULT_CHUNK_ROWS)
    }

    /// An empty column sharing `dict` with room for `cap` rows, in chunks
    /// of `chunk_rows` (at least one). A relation builds all its columns
    /// with its one size.
    pub(crate) fn with_layout(dict: Arc<Dictionary>, cap: usize, chunk_rows: usize) -> Self {
        let mut c = Column { dict, chunks: Vec::new(), len: 0, chunk_rows };
        c.reserve(cap);
        c
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// A read view of the code array, one entry per row (chunk-aware:
    /// see [`CodesView`]).
    #[inline]
    pub fn codes(&self) -> CodesView<'_> {
        CodesView { chunks: &self.chunks, len: self.len, chunk_rows: self.chunk_rows }
    }

    /// The chunk size this column was built with.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an already interned code. The caller guarantees the
    /// dictionary assigned it ([`Dictionary::len`] bounds the valid ones).
    #[inline]
    pub(crate) fn push_raw(&mut self, code: u32) {
        if self.len == self.chunks.len() * self.chunk_rows {
            self.chunks.push(Vec::with_capacity(self.chunk_rows.min(4096)));
        }
        self.chunks.last_mut().expect("chunk just ensured").push(code);
        self.len += 1;
    }

    /// Appends a value, interning it; returns its code.
    pub fn push(&mut self, v: &Value) -> u32 {
        let code = self.dict.intern(v);
        self.push_raw(code);
        code
    }

    /// Appends `values` in order, interning them in one pass: known
    /// values under the dictionary's read lock, each run of values it
    /// has not seen under one acquisition of its write lock. Codes and
    /// dictionary contents are those of [`Column::push`] per value. Bulk
    /// ingest and delta inserts run column by column through this, so a
    /// thread holds one dictionary lock at a time and parallel sites
    /// over shared dictionaries cannot deadlock. `values` must not touch
    /// this column's dictionary.
    pub fn extend_values<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        let dict = Arc::clone(&self.dict);
        dict.intern_each(values, |code| self.push_raw(code));
    }

    /// Appends the codes `src` holds at `rows`, in the given order. The
    /// caller guarantees both columns share one dictionary, so the codes
    /// mean the same here as there. The list is walked as [`chunk_runs`]
    /// of `src`, and each run fills this column's tail chunk with one
    /// `extend` per destination seam it crosses: a division per run
    /// rather than per cell, and no seam test in between.
    pub(crate) fn extend_from_rows(&mut self, src: &Column, rows: &[usize]) {
        self.reserve(rows.len());
        let cr = self.chunk_rows;
        let end = self.len + rows.len();
        for (ci, mut run) in chunk_runs(rows, src.chunk_rows) {
            let (chunk, base) = (&src.chunks[ci], ci * src.chunk_rows);
            while !run.is_empty() {
                if self.len == self.chunks.len() * cr {
                    self.chunks.push(Vec::with_capacity(cr.min(end - self.len)));
                }
                let (now, later) = run.split_at(run.len().min(self.chunks.len() * cr - self.len));
                let tail = self.chunks.last_mut().expect("tail chunk just ensured");
                tail.extend(now.iter().map(|&r| chunk[r - base]));
                self.len += now.len();
                run = later;
            }
        }
    }

    /// Reserves room for `extra` more rows (bounded by the chunk size:
    /// chunks past the current one are allocated as they fill).
    pub fn reserve(&mut self, extra: usize) {
        if extra == 0 {
            return;
        }
        let tail_room = self.chunks.len() * self.chunk_rows - self.len;
        if extra > tail_room {
            let want = (self.chunk_rows - self.len % self.chunk_rows).min(extra);
            if self.len == self.chunks.len() * self.chunk_rows {
                self.chunks.push(Vec::with_capacity(want.min(self.chunk_rows)));
            } else if let Some(last) = self.chunks.last_mut() {
                last.reserve(want.saturating_sub(last.capacity() - last.len()));
            }
        }
    }

    /// Removes the rows at `rows` (strictly increasing positions),
    /// preserving the order of the others. The delta-maintenance hook:
    /// dictionaries are append-only, so a removed row's code simply
    /// stops being referenced — codes are never recycled and stay
    /// decodable. Each run of survivors between two removed rows moves
    /// left in place, across chunk seams where it has to; emptied tail
    /// chunks are dropped and nothing is reallocated, so the cost is
    /// `O(rows.len())` plus one `memmove` of the codes behind the first
    /// removed row, and the chunk invariant holds afterwards.
    pub fn remove_rows(&mut self, rows: &[usize]) {
        let cr = self.chunk_rows;
        for (run, to) in survivor_runs(rows, self.len) {
            let (mut src, mut dst) = (run.start, to);
            // Piecewise: each piece ends at the next seam on either side.
            while src < run.end {
                let (sc, so) = (src / cr, src % cr);
                let (dc, d_off) = (dst / cr, dst % cr);
                let n = (run.end - src).min(cr - so).min(cr - d_off);
                if sc == dc {
                    self.chunks[sc].copy_within(so..so + n, d_off);
                } else {
                    let (head, tail) = self.chunks.split_at_mut(sc);
                    head[dc][d_off..d_off + n].copy_from_slice(&tail[0][so..so + n]);
                }
                src += n;
                dst += n;
            }
        }
        self.len -= rows.len();
        self.chunks.truncate(self.len.div_ceil(cr));
        if let Some(last) = self.chunks.last_mut() {
            last.truncate(self.len - (self.len - 1) / cr * cr);
        }
    }

    /// Decodes the value at `row`.
    pub fn decode(&self, row: usize) -> Value {
        self.dict.value(self.codes().at(row))
    }

    /// Decodes rows `start..end` in order under one dictionary read
    /// lock, handing each value to `f` (which must not intern).
    pub(crate) fn decode_range(&self, start: usize, end: usize, mut f: impl FnMut(Value)) {
        let inner = self.dict.read();
        zip_chunks_range(&[self.codes()], start, end, |_, lo, hi, chunk| {
            for &code in &chunk[0][lo..hi] {
                f(inner.values[code as usize].clone());
            }
        });
    }
}

/// The runs of rows that survive removing the strictly increasing
/// positions `removed` from `0..len`, each with the position its first
/// row moves to: `(source range, destination start)`, in row order. Rows
/// before the first removed position stay put and are not listed.
pub(crate) fn survivor_runs(
    removed: &[usize],
    len: usize,
) -> impl Iterator<Item = (std::ops::Range<usize>, usize)> + '_ {
    // Stored rows depend on these: out-of-order positions would overwrite
    // survivors.
    assert!(removed.windows(2).all(|w| w[0] < w[1]), "removed positions must strictly increase");
    assert!(removed.last().is_none_or(|&r| r < len), "removed positions must be in bounds");
    removed.iter().enumerate().map(move |(k, &r)| {
        let end = removed.get(k + 1).copied().unwrap_or(len);
        (r + 1..end, r - k)
    })
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Column[{} rows, {} distinct]", self.len, self.dict.len())
    }
}

/// A borrowed read view of a column's codes across its chunks.
///
/// Sequential scans should iterate [`CodesView::chunks`] — each chunk is
/// a plain dense `&[u32]`, so the inner loop pays no per-row division.
/// Random access uses [`CodesView::at`] (or indexing, which returns the
/// code by value). All columns of one relation share a chunk layout, so
/// views over them yield aligned chunks (see
/// [`zip_chunks`](crate::Relation::code_views) users).
#[derive(Clone, Copy)]
pub struct CodesView<'a> {
    chunks: &'a [Vec<u32>],
    len: usize,
    chunk_rows: usize,
}

impl<'a> CodesView<'a> {
    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The chunk size of the underlying column.
    #[inline]
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Number of chunks (0 for an empty column).
    #[inline]
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The codes of chunk `ci` as a dense slice.
    #[inline]
    pub fn chunk(&self, ci: usize) -> &'a [u32] {
        &self.chunks[ci]
    }

    /// The code at `row` (random access: one division by the chunk
    /// size). Panics if `row` is out of bounds.
    #[inline]
    pub fn at(&self, row: usize) -> u32 {
        self.chunks[row / self.chunk_rows][row % self.chunk_rows]
    }

    /// The code at `row`, or `None` past the end.
    #[inline]
    pub fn get(&self, row: usize) -> Option<u32> {
        if row < self.len {
            Some(self.at(row))
        } else {
            None
        }
    }

    /// The last code, if any.
    pub fn last(&self) -> Option<u32> {
        self.chunks.last().and_then(|c| c.last().copied())
    }

    /// Iterates all codes in row order (chunk-wise internally).
    pub fn iter(&self) -> impl Iterator<Item = u32> + 'a {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// Iterates the chunks as dense slices, in row order — the scan
    /// fast path.
    pub fn chunks(&self) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.chunks.iter().map(Vec::as_slice)
    }

    /// Collects the codes into one contiguous vector (test/debug and
    /// cold-path helper).
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        for c in self.chunks {
            out.extend_from_slice(c);
        }
        out
    }
}

impl Index<usize> for CodesView<'_> {
    type Output = u32;
    #[inline]
    fn index(&self, row: usize) -> &u32 {
        &self.chunks[row / self.chunk_rows][row % self.chunk_rows]
    }
}

impl fmt::Debug for CodesView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for CodesView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<[u32]> for CodesView<'_> {
    fn eq(&self, other: &[u32]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl PartialEq<&[u32]> for CodesView<'_> {
    fn eq(&self, other: &&[u32]) -> bool {
        *self == **other
    }
}

impl PartialEq<Vec<u32>> for CodesView<'_> {
    fn eq(&self, other: &Vec<u32>) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<[u32; N]> for CodesView<'_> {
    fn eq(&self, other: &[u32; N]) -> bool {
        *self == other[..]
    }
}

impl<const N: usize> PartialEq<&[u32; N]> for CodesView<'_> {
    fn eq(&self, other: &&[u32; N]) -> bool {
        *self == other[..]
    }
}

/// Walks the aligned chunks of several views in lockstep, calling
/// `f(base_row, chunk_slices)` once per chunk with the dense per-column
/// slices of that chunk. Every view must have the same length and chunk
/// size (true for columns of one relation — the constructors capture one
/// chunk size for all of them); with no views, `f` is never called.
///
/// This is the multi-column scan fast path: the callee indexes plain
/// `&[u32]` slices relative to the chunk, with `base_row` recovering
/// global row indices.
pub fn zip_chunks<'a>(views: &[CodesView<'a>], mut f: impl FnMut(usize, &[&'a [u32]])) {
    let Some(first) = views.first() else { return };
    zip_chunks_range(views, 0, first.len, |base, lo, hi, slices| {
        debug_assert!(lo == 0 && base % first.chunk_rows == 0);
        debug_assert_eq!(hi, slices[0].len());
        f(base, slices);
    });
}

/// [`zip_chunks`] restricted to the global row range `start..end`: calls
/// `f(chunk_base_row, lo, hi, chunk_slices)` once per chunk overlapping
/// the range, where the in-range rows of that chunk are
/// `chunk_base_row + r` for `r in lo..hi`. Morsel workers use this to
/// scan one chunk-aligned slice of a fragment; unaligned ranges work too
/// (the first/last chunks are walked partially).
pub fn zip_chunks_range<'a>(
    views: &[CodesView<'a>],
    start: usize,
    end: usize,
    mut f: impl FnMut(usize, usize, usize, &[&'a [u32]]),
) {
    let Some(first) = views.first() else { return };
    debug_assert!(
        views.iter().all(|v| v.len == first.len && v.chunk_rows == first.chunk_rows),
        "zip_chunks requires aligned chunk layouts (columns of one relation)"
    );
    debug_assert!(start <= end && end <= first.len);
    if start >= end {
        return;
    }
    let cr = first.chunk_rows;
    let mut slices: Vec<&'a [u32]> = Vec::with_capacity(views.len());
    for ci in start / cr..end.div_ceil(cr) {
        let base = ci * cr;
        slices.clear();
        slices.extend(views.iter().map(|v| v.chunk(ci)));
        let lo = start.saturating_sub(base);
        let hi = (end - base).min(slices[0].len());
        f(base, lo, hi, &slices);
    }
}

/// Cuts a row list into maximal runs that stay inside one chunk:
/// `(chunk index, the run's rows)`, in list order. A gather then pays its
/// division once per run and indexes the chunk's plain slice in between
/// ([`CodesView::at`] divides per cell). An ascending list — a σ block —
/// yields one run per chunk it touches; any other order still works, run
/// by run.
pub(crate) fn chunk_runs(
    rows: &[usize],
    chunk_rows: usize,
) -> impl Iterator<Item = (usize, &[usize])> {
    let mut rest = rows;
    std::iter::from_fn(move || {
        let ci = rest.first()? / chunk_rows;
        let inside = ci * chunk_rows..(ci + 1) * chunk_rows;
        let n = rest.iter().take_while(|&i| inside.contains(i)).count();
        let (run, tail) = rest.split_at(n);
        rest = tail;
        Some((ci, run))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_runs_cut_at_seams_and_at_every_step_back() {
        let runs = |rows: &[usize]| {
            chunk_runs(rows, 4).map(|(ci, run)| (ci, run.to_vec())).collect::<Vec<_>>()
        };
        assert!(runs(&[]).is_empty());
        // Ascending: one run per chunk touched.
        assert_eq!(runs(&[1, 3, 4, 5, 11]), [(0, vec![1, 3]), (1, vec![4, 5]), (2, vec![11])]);
        // Any order: a run ends wherever the next row leaves the chunk.
        assert_eq!(runs(&[5, 4, 0, 7, 7]), [(1, vec![5, 4]), (0, vec![0]), (1, vec![7, 7])]);
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let d = Dictionary::new();
        let a = d.intern(&Value::str("x"));
        let b = d.intern(&Value::Int(7));
        let a2 = d.intern(&Value::str("x"));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a, a2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.code_of(&Value::Int(7)), Some(1));
        assert_eq!(d.code_of(&Value::Null), None);
        assert_eq!(d.value(0), Value::str("x"));
    }

    #[test]
    fn canonical_value_shares_allocation() {
        let d = Dictionary::new();
        let first = d.value(d.intern(&Value::str("hello")));
        let second = d.value(d.intern(&Value::str(String::from("hello"))));
        if let (Value::Str(a), Value::Str(b)) = (&first, &second) {
            assert!(Arc::ptr_eq(a, b), "decode should return the canonical payload");
        } else {
            panic!("expected strings");
        }
    }

    #[test]
    fn each_distinct_value_is_held_once() {
        let d = Dictionary::new();
        let v = Value::str("only copy");
        d.intern(&v);
        d.intern(&v.clone());
        let Value::Str(payload) = &v else { panic!("expected a string") };
        // The caller's handle plus the one in the code → value vector;
        // the index holds a hash and a code, not the value.
        assert_eq!(Arc::strong_count(payload), 2);
    }

    #[test]
    fn the_index_survives_its_growths() {
        let value = |i: usize| match i % 2 {
            0 => Value::Int(i as i64 - 1000),
            _ => Value::str(format!("v{i}")),
        };
        let d = Dictionary::new();
        let n = 100_000;
        let (mut growths, mut table) = (0, 0);
        for i in 0..n {
            assert_eq!(d.intern(&value(i)) as usize, i);
            let slots = d.read().slots.len();
            assert!(slots.is_power_of_two() && slots >= 2 * (i + 1), "{slots} slots at {i}");
            growths += usize::from(slots != table);
            table = slots;
        }
        assert!(growths >= 10, "only {growths} growths");
        assert_eq!(d.len(), n);
        for i in 0..n {
            assert_eq!(d.code_of(&value(i)), Some(i as u32));
            assert_eq!(d.intern(&value(i)) as usize, i, "interning is idempotent");
        }
        for absent in [Value::Null, Value::Int(-1001), Value::Int(1), Value::str("v0")] {
            assert_eq!(d.code_of(&absent), None);
        }
        // A deep clone carries the index and interns on its own.
        let copy = d.clone();
        assert_eq!(copy.intern(&Value::Null) as usize, n);
        assert_eq!(copy.code_of(&value(n - 1)), Some(n as u32 - 1));
        assert_eq!((d.len(), d.code_of(&Value::Null)), (n, None));
    }

    #[test]
    fn column_round_trips_values() {
        let mut c = Column::new();
        c.push(&Value::Int(1));
        c.push(&Value::str("v"));
        c.push(&Value::Int(1));
        assert_eq!(c.len(), 3);
        assert_eq!(c.codes(), &[0, 1, 0]);
        assert_eq!(c.decode(1), Value::str("v"));
        assert_eq!(c.to_string(), "Column[3 rows, 2 distinct]");
    }

    #[test]
    fn extend_values_agrees_with_push() {
        let values = [Value::str("x"), Value::Int(3), Value::str("x"), Value::str("y")];
        let mut plain = Column::new();
        for v in &values {
            plain.push(v);
        }
        let mut bulk = Column::new();
        bulk.extend_values(&values);
        assert_eq!(plain.codes(), bulk.codes());
        assert_eq!(bulk.dict().snapshot(), plain.dict().snapshot());
        // Two columns over one dictionary: the second run starts from
        // what the first interned, bulk or not.
        let more = [Value::str("y"), Value::str("z"), Value::Int(3)];
        let mut plain_b = Column::sharing(plain.dict().clone());
        for v in &more {
            plain_b.push(v);
        }
        let mut bulk_b = Column::sharing(bulk.dict().clone());
        bulk_b.extend_values(&more);
        assert_eq!(plain_b.codes(), bulk_b.codes());
        assert_eq!(bulk_b.codes(), &[2, 3, 1]);
        assert_eq!(bulk.dict().snapshot(), plain.dict().snapshot());
    }

    #[test]
    fn remove_rows_keeps_order_and_dictionary() {
        let mut c = Column::new();
        for v in ["a", "b", "a", "c", "b"] {
            c.push(&Value::str(v));
        }
        c.remove_rows(&[1, 3]);
        assert_eq!(c.codes(), &[0, 0, 1]);
        // The dictionary keeps every value it ever interned.
        assert_eq!(c.dict().len(), 3);
        assert_eq!(c.decode(2), Value::str("b"));
    }

    #[test]
    fn sharing_columns_agree_on_codes() {
        let mut a = Column::new();
        a.push(&Value::str("x"));
        a.push(&Value::str("y"));
        let mut b = Column::sharing(a.dict().clone());
        b.push(&Value::str("y"));
        assert_eq!(b.codes(), &[1], "shared dictionary must reuse the parent's codes");
    }

    #[test]
    fn sentinels_are_disjoint_from_codes() {
        assert_ne!(WILDCARD_CODE, NO_CODE);
        let d = Dictionary::new();
        let code = d.intern(&Value::Int(0));
        // NO_CODE < WILDCARD_CODE, so this bounds the code below both.
        assert!(code < NO_CODE);
    }

    #[test]
    fn chunked_column_matches_flat_semantics() {
        let codes: Vec<u32> = (0..23).map(|i| i % 5).collect();
        for rows in [1, 3, 7, 23, 64] {
            let mut c = Column::with_layout(Arc::new(Dictionary::new()), 0, rows);
            for &k in &codes {
                c.push(&Value::Int(k as i64));
            }
            assert_eq!(c.chunk_rows(), rows);
            assert_eq!(c.codes().to_vec(), codes, "rows = {rows}");
            assert_eq!(c.codes().n_chunks(), codes.len().div_ceil(rows));
            for (i, &k) in codes.iter().enumerate() {
                assert_eq!(c.codes().at(i), k);
                assert_eq!(c.codes()[i], k);
            }
            assert_eq!(c.codes().get(codes.len()), None);
            assert_eq!(c.codes().last(), codes.last().copied());
            // Every chunk except the last is exactly full.
            let sizes: Vec<usize> = c.codes().chunks().map(<[u32]>::len).collect();
            for (ci, &s) in sizes.iter().enumerate() {
                if ci + 1 < sizes.len() {
                    assert_eq!(s, rows, "chunk {ci} of {sizes:?}");
                } else {
                    assert!(s >= 1 && s <= rows);
                }
            }
        }
    }

    /// A column of `codes` at chunk size `rows`, bypassing interning.
    fn column_of(codes: &[u32], rows: usize) -> Column {
        let mut c = Column::with_layout(Arc::new(Dictionary::new()), 0, rows);
        for &code in codes {
            c.push_raw(code);
        }
        c
    }

    fn chunk_sizes(c: &Column) -> Vec<usize> {
        c.codes().chunks().map(<[u32]>::len).collect()
    }

    #[test]
    fn remove_rows_repacks_across_chunk_seams() {
        let codes: Vec<u32> = (0..11).collect();
        let mut c = column_of(&codes, 4);
        c.remove_rows(&[1, 4, 7, 10]);
        assert_eq!(c.codes().to_vec(), vec![0, 2, 3, 5, 6, 8, 9]);
        // Re-packed dense: all chunks full except the last.
        assert_eq!(chunk_sizes(&c), vec![4, 3]);
        // A whole chunk, then everything: the emptied chunks are gone.
        c.remove_rows(&[0, 1, 2, 3]);
        assert_eq!(c.codes().to_vec(), vec![6, 8, 9]);
        assert_eq!(chunk_sizes(&c), vec![3]);
        c.remove_rows(&[0, 1, 2]);
        assert!(c.is_empty());
        assert_eq!(c.codes().n_chunks(), 0);
        c.push_raw(7);
        assert_eq!(c.codes(), &[7]);
    }

    #[test]
    fn extend_from_rows_equals_the_per_cell_copy() {
        let codes: Vec<u32> = (0..29).map(|i| i * 3 + 1).collect();
        let lists: [&[usize]; 5] = [
            &[],
            // Ascending across every seam, as a fragment constructor reads.
            &[0, 1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 16, 17, 23, 24, 25, 28],
            // Any order, stepping back into chunks already left.
            &[28, 0, 14, 15, 13, 2, 27, 3, 4, 21, 8, 7],
            // Repeated rows.
            &[6, 6, 6, 7, 7, 6, 28, 28, 0, 0, 0, 0, 0],
            &[9],
        ];
        for src_rows in 1..=8 {
            let src = column_of(&codes, src_rows);
            for dst_rows in (1..=8).filter(|&d| d != src_rows) {
                // The destination starts empty, mid-chunk and on a seam.
                for held in [0, 1, dst_rows] {
                    let mut want: Vec<u32> = (0..held as u32).collect();
                    let mut dst = column_of(&want, dst_rows);
                    for rows in lists {
                        dst.extend_from_rows(&src, rows);
                        want.extend(rows.iter().map(|&r| src.codes().at(r)));
                        assert_eq!(dst.len(), want.len());
                        assert_eq!(dst.codes().to_vec(), want, "{src_rows} → {dst_rows} rows");
                        let sizes = chunk_sizes(&dst);
                        assert_eq!(sizes.len(), want.len().div_ceil(dst_rows));
                        assert!(sizes.iter().rev().skip(1).all(|&s| s == dst_rows), "{sizes:?}");
                    }
                    dst.push_raw(5);
                    assert_eq!(dst.codes().last(), Some(5));
                    assert_eq!(dst.len(), want.len() + 1);
                }
            }
        }
    }

    proptest::proptest! {
        /// `remove_rows` against a plain `Vec<u32>`, at chunk sizes below,
        /// beside and above the data: the survivors keep their order, the
        /// chunk invariant holds and the column still appends. `picks`
        /// are reduced to positions; `edge` adds the first row, the last
        /// row, the whole second chunk or every row.
        #[test]
        fn remove_rows_matches_a_vec_model(
            n in 0..40usize,
            picks in proptest::collection::vec(0..40usize, 0..12),
            edge in 0..5u8,
        ) {
            for rows in [1, 3, 4, 257] {
                let model: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
                let mut removed: Vec<usize> = picks.iter().filter(|_| n > 0).map(|p| p % n).collect();
                match edge {
                    1 if n > 0 => removed.push(0),
                    2 if n > 0 => removed.push(n - 1),
                    3 => removed.extend((rows..2 * rows).filter(|&r| r < n)),
                    4 => removed.extend(0..n),
                    _ => {}
                }
                removed.sort_unstable();
                removed.dedup();
                let mut c = column_of(&model, rows);
                c.remove_rows(&removed);
                let mut want: Vec<u32> = model
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| removed.binary_search(i).is_err())
                    .map(|(_, &code)| code)
                    .collect();
                proptest::prop_assert_eq!(c.len(), want.len());
                proptest::prop_assert_eq!(c.codes().to_vec(), want.clone(), "chunk rows {}", rows);
                c.push_raw(5);
                want.push(5);
                proptest::prop_assert_eq!(c.codes().to_vec(), want.clone());
                let sizes = chunk_sizes(&c);
                proptest::prop_assert_eq!(sizes.len(), want.len().div_ceil(rows));
                proptest::prop_assert!(sizes.iter().rev().skip(1).all(|&s| s == rows));
            }
        }
    }

    #[test]
    fn zip_chunks_walks_aligned_layouts() {
        let mut a = Column::with_layout(Arc::new(Dictionary::new()), 0, 5);
        let mut b = Column::with_layout(Arc::new(Dictionary::new()), 0, 5);
        for i in 0..12 {
            a.push(&Value::Int(i));
            b.push(&Value::Int(i * 10));
        }
        let mut seen: Vec<(usize, u32, u32)> = Vec::new();
        zip_chunks(&[a.codes(), b.codes()], |base, cols| {
            assert_eq!(cols.len(), 2);
            for (i, (&ca, &cb)) in cols[0].iter().zip(cols[1]).enumerate() {
                seen.push((base + i, ca, cb));
            }
        });
        assert_eq!(seen.len(), 12);
        for (row, ca, cb) in seen {
            assert_eq!(a.codes().at(row), ca);
            assert_eq!(b.codes().at(row), cb);
        }
    }
}

//! Dictionary-encoded columnar storage.
//!
//! Every [`Relation`](crate::Relation) stores its cells as one [`Column`]
//! per attribute: one dense vector of *codes*, each code naming a
//! distinct [`Value`] in the column's [`Dictionary`]. A column stores its
//! codes as `u8`, `u16` or `u32` — the narrowest of the three that holds
//! every code the column has held — and lends them out as a width-tagged
//! [`Codes`] view. The hot detection loops (GROUP BY on `t[X]`,
//! σ-partitioning, pattern matching, join keys) then run on integer codes
//! instead of hashing and comparing owned values:
//!
//! * two cells of one column are equal iff their codes are equal — the
//!   dictionary is a bijection between codes and distinct values;
//! * a pattern constant compiles to *one* dictionary lookup per relation
//!   (see `dcd_cfd::CompiledPattern`), after which the match operator `≍`
//!   is a `u32` compare;
//! * a group key over `k` attributes is a `[u32; k]` (packed into a single
//!   `u64` when `k ≤ 2`), so the group-by hash touches no string payloads.
//!
//! Every code leaves a column as a `u32`, whatever its stored width: a
//! reader dispatches on the width once per column and per scan (or chunk
//! of one), through [`Codes::zip_in`] / [`Codes::zip_at`], and
//! the loop under it reads one typed slice. [`Codes::get`] reads a single
//! cell, for what runs once per key or group rather than once per row.
//!
//! Dictionaries are shared across fragments of one relation (`Arc`): a
//! fragment constructor re-encodes nothing, and codes remain comparable
//! between the parent and every fragment. Interning is append-only behind
//! an `RwLock`; the per-tuple hot paths never take the lock — they read
//! code views ([`Column::codes`]) and only touch the dictionary to decode
//! one value per *group* (or per pattern constant), not per tuple.
//!
//! A dictionary is typed by its attribute's [`ValueType`] and holds each
//! distinct value once, as that type, indexed by code. An Int dictionary
//! is one `Vec<u32>` of offsets from a base its first value fixes (4
//! bytes a value), until a value lands more than 2³¹ from that first one:
//! the table then widens to a `Vec<i64>` (8 bytes a value), once and for
//! good. A Str dictionary is one `String` holding the distinct strings
//! back to back plus one `Vec<u32>` of their end offsets (a string's
//! bytes plus 4). Interning copies a first-seen string into that table
//! and keeps no caller's `Arc`; decoding copies it out into a fresh one.
//! `Null`, which any attribute may hold, is one code kept out of line,
//! with a placeholder entry at its index (offset `0`, or the empty
//! string) so that codes stay dense and first-seen. Beside that table
//! sits the value → code index, a [`PositionTable`] (the workspace's one
//! open-addressing table, [`crate::table`]). An Int index holds 4-byte
//! codes alone: a probe compares each entry it meets through the table,
//! and growth re-hashes each code from its value, one multiply. A Str
//! index holds 8-byte `(hash, code)` entries: a probe compares strings
//! only where the stored hash agrees, and growth moves entries by their
//! stored hashes and reads no string. Either way a lookup hashes once, and
//! a miss costs the same one hash and ends at the free bucket an insert
//! fills, so interning probes once. A column's new cells are interned
//! in one pass (`Dictionary::intern_each`, which a relation's one encode
//! step runs for every way a value comes in) under one acquisition of
//! the write lock, one probe per value. The pass hashes 32 values into a
//! stack buffer before it probes the first of them, so the cache misses of 32
//! payloads, and then of 32 buckets, are taken together rather than one
//! after another.
//!
//! The index is derived data, and it exists only while something probes
//! it. Detection runs on codes and looks values up only to compile
//! pattern constants, so a relation built from rows drops every
//! dictionary's index after the load. The first [`Dictionary::code_of`]
//! or interning miss that finds none rebuilds it in one pass, at the
//! length growth from empty reaches; `Null` never needs it.
//!
//! A dictionary whose values arrived in ascending order needs no index
//! at all: while each non-null value it interns exceeds the last one, it
//! is *sorted*, and a lookup searches the table itself — an Int range
//! with one interpolation probe and then a binary search (over the
//! offsets while the table is narrow), a Str range with a binary search —
//! either side of `Null`'s placeholder. A value
//! above the last appends; the first miss below it ends sorted mode for
//! good and builds the index. Codes and their order depend neither on
//! whether the index was there nor on the mode.
//!
//! A column is one allocation, of 1, 2 or 4 bytes a row. It starts at one
//! byte and widens when a code it is handed needs more — in one copy
//! that keeps the capacity, as a narrow Int table widens — and it never
//! narrows. Every constructor reserves exactly the rows it will hold, and
//! a relation built from rows trims each dictionary's value table to its
//! length, so a built relation carries no spare capacity and no index;
//! appends grow a column or a table the way a `Vec` grows.

use crate::ops::RowSource;
use crate::schema::ValueType;
use crate::table::{spread, PositionTable, Vacant};
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Sentinel code meaning "matches any value" in compiled pattern cells.
/// Never assigned to a real value.
pub const WILDCARD_CODE: u32 = u32::MAX;

/// Sentinel code meaning "this value is not in the dictionary" (e.g. a
/// pattern constant that no tuple carries, or a join key with no partner).
/// Never assigned to a real value, and never equal to any stored code.
pub const NO_CODE: u32 = u32::MAX - 1;

/// Codes at or above this bound are reserved for the sentinels above.
const CODE_LIMIT: u32 = u32::MAX - 2;

/// What a dictionary has run out of when it cannot take one more value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exhausted {
    /// Every code below [`CODE_LIMIT`] is assigned.
    Codes,
    /// A Str table's bytes would pass the 4 GiB its `u32` offsets address.
    Bytes,
}

impl Exhausted {
    /// What ran out, as the refusal and the panic name it.
    pub(crate) fn what(self) -> &'static str {
        match self {
            Exhausted::Codes => "the u32 code space",
            Exhausted::Bytes => "the 4 GiB its string table can address",
        }
    }
}

/// The code, and the end offset in a string table, of one more value of
/// `add` bytes in a dictionary of `len` codes whose table holds `bytes`
/// bytes (an Int value adds none): refused once the code would reach
/// [`CODE_LIMIT`] or the end pass `u32::MAX`. Interning checks every new
/// value through this before anything of it is stored.
fn room(len: usize, bytes: usize, add: usize) -> Result<(u32, u32), Exhausted> {
    let code = u32::try_from(len).ok().filter(|&code| code < CODE_LIMIT).ok_or(Exhausted::Codes)?;
    let end = bytes.checked_add(add).and_then(|end| u32::try_from(end).ok());
    Ok((code, end.ok_or(Exhausted::Bytes)?))
}

/// Names nothing: columns are not chunked. It stays, with
/// [`set_chunk_rows`], only because `benchmark/src/main.rs` still spells
/// both; ROADMAP item 2 deletes that call and these two items.
#[doc(hidden)]
pub const DEFAULT_CHUNK_ROWS: usize = 64 * 1024;

/// Does nothing; see [`DEFAULT_CHUNK_ROWS`].
#[doc(hidden)]
pub fn set_chunk_rows(_rows: Option<usize>) {}

/// A borrowed view of one value: what a probing [`Value`] and a table
/// entry both produce, so that [`hash32`] and [`DictInner::find`] see
/// the two alike. Its variants mirror [`Value`]'s, so it hashes as the
/// value it views. Its order is the one a sorted dictionary ascends in:
/// integers by value, strings by their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Key<'a> {
    Null,
    Int(i64),
    Str(&'a str),
}

impl<'a> From<&'a Value> for Key<'a> {
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => Key::Null,
            Value::Int(i) => Key::Int(*i),
            Value::Str(s) => Key::Str(s),
        }
    }
}

impl From<Key<'_>> for Value {
    /// An owned value: a string is copied into a fresh `Arc<str>`.
    #[inline]
    fn from(k: Key<'_>) -> Self {
        match k {
            Key::Null => Value::Null,
            Key::Int(i) => Value::Int(i),
            Key::Str(s) => Value::Str(Arc::from(s)),
        }
    }
}

/// The 32-bit hash an index buckets a value on, which a Str entry stores
/// and an Int entry recomputes from its value: the upper half of
/// [`spread`]. Fx alone leaves near-equal strings near each other in
/// every 32-bit window of its output, and linear probing would pay for
/// that in long runs; over `spread`'s upper bits the `table` units
/// `probes_match_linear_probing_theory` (`Name{i}` for i < 80 000, in
/// `(hash, code)` entries) and `code_only_probes_match_linear_probing_theory`
/// (80 000 random 7-digit integers, in code entries) hold the mean probes
/// per hit and per miss within 1.25× of Knuth's.
#[inline]
fn hash32(k: Key<'_>) -> u32 {
    (spread(&k) >> 32) as u32
}

/// What the index buckets on for a [`hash32`] `h`: `h` as the upper
/// half, so that the home bucket is `h`'s top bits.
#[inline]
fn wide(h: u32) -> u64 {
    u64::from(h) << 32
}

/// How many values [`Dictionary::intern_each`] hashes before it probes
/// any of them.
const RUN: usize = 32;

/// The values of an interning pass not yet interned, with their hashes:
/// up to [`RUN`] of them, hashed in one go before the first is probed.
/// Hashing a run reads its payloads back to back, and probing it then
/// reads its buckets back to back, so the CPU overlaps those cache misses
/// instead of taking them one value at a time. The run lives on the
/// stack: an interning pass allocates nothing of its own.
struct Run<'a> {
    cells: [(&'a Value, u32); RUN],
    len: usize,
    at: usize,
}

impl<'a> Run<'a> {
    fn new() -> Self {
        Run { cells: [(&Value::Null, 0); RUN], len: 0, at: 0 }
    }

    /// The next value and its [`hash32`], hashing the next run of
    /// `values` once this one is spent; `None` when both are.
    #[inline]
    fn peek(&mut self, values: &mut impl Iterator<Item = &'a Value>) -> Option<(&'a Value, u32)> {
        if self.at == self.len {
            (self.len, self.at) = (0, 0);
            while self.len < RUN {
                let Some(v) = values.next() else { break };
                self.cells[self.len] = (v, hash32(Key::from(v)));
                self.len += 1;
            }
        }
        (self.at < self.len).then(|| self.cells[self.at])
    }

    /// Moves past the value [`Run::peek`] returned.
    #[inline]
    fn advance(&mut self) {
        self.at += 1;
    }
}

/// A Str dictionary's values: the distinct strings back to back in one
/// `String`, and the end offset of each, so that entry `i` is
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first). A string costs
/// its bytes plus one `u32`: no allocation and no pointer of its own.
#[derive(Debug, Clone, Default)]
struct Strings {
    bytes: String,
    ends: Vec<u32>,
}

impl Strings {
    #[inline]
    fn get(&self, at: usize) -> &str {
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.bytes[start..self.ends[at] as usize]
    }

    /// The entry in `range`, whose entries ascend, that is `s`: a binary
    /// search.
    fn search(&self, range: std::ops::Range<usize>, s: &str) -> Option<usize> {
        let (mut lo, mut hi) = (range.start, range.end);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.get(mid).cmp(s) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Appends a copy of `s`, whose end offset [`room`] computed.
    fn push(&mut self, s: &str, end: u32) {
        self.ends.push(end);
        self.bytes.push_str(s);
    }
}

/// An Int dictionary's values. While every value lies in the 32-bit
/// window `base..=base + u32::MAX`, each is stored as its `u32` offset
/// from `base`, which the first non-null value fixes half a window below
/// itself. The first value outside the window widens the table to the
/// values themselves, in one copy that keeps the capacity, for good —
/// as the `sorted` flag only ever turns off once.
#[derive(Debug, Clone)]
enum Ints {
    Narrow { base: i64, offsets: Vec<u32> },
    Wide(Vec<i64>),
}

impl Ints {
    fn len(&self) -> usize {
        match self {
            Ints::Narrow { offsets, .. } => offsets.len(),
            Ints::Wide(t) => t.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Ints::Narrow { offsets, .. } => offsets.capacity(),
            Ints::Wide(t) => t.capacity(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Ints::Narrow { offsets, .. } => offsets.capacity() * size_of::<u32>(),
            Ints::Wide(t) => t.capacity() * size_of::<i64>(),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Ints::Narrow { offsets, .. } => offsets.shrink_to_fit(),
            Ints::Wide(t) => t.shrink_to_fit(),
        }
    }

    #[inline]
    fn get(&self, at: usize) -> i64 {
        match self {
            // A stored offset names a value that is an `i64`: no overflow.
            Ints::Narrow { base, offsets } => base + i64::from(offsets[at]),
            Ints::Wide(t) => t[at],
        }
    }

    /// The entry in `range`, whose entries ascend, that is `x`: one
    /// interpolation probe and a binary search ([`search_ints`]), over
    /// the offsets while the table is narrow. A value outside the window
    /// is absent from a narrow table.
    fn search(&self, range: std::ops::Range<usize>, x: i64) -> Option<usize> {
        let start = range.start;
        let at = match self {
            Ints::Narrow { base, offsets } => search_ints(&offsets[range], offset_from(*base, x)?)?,
            Ints::Wide(t) => search_ints(&t[range], x)?,
        };
        Some(start + at)
    }

    /// Appends `x`; `first` says it is the first non-null value, which
    /// fixes a narrow table's base. A value outside the window widens
    /// the table first.
    fn push(&mut self, x: i64, first: bool) {
        if let Ints::Narrow { base, offsets } = self {
            if first {
                *base = x.saturating_sub(1 << 31);
            }
            if let Some(o) = offset_from(*base, x) {
                offsets.push(o);
                return;
            }
            let mut wide = Vec::with_capacity(offsets.capacity());
            wide.extend(offsets.iter().map(|&o| *base + i64::from(o)));
            *self = Ints::Wide(wide);
        }
        if let Ints::Wide(t) = self {
            t.push(x);
        }
    }

    /// Appends `Null`'s placeholder: offset 0, or `0`.
    fn push_placeholder(&mut self) {
        match self {
            Ints::Narrow { offsets, .. } => offsets.push(0),
            Ints::Wide(t) => t.push(0),
        }
    }
}

/// `x`'s offset from `base`, if `x` lies in the window above it.
#[inline]
fn offset_from(base: i64, x: i64) -> Option<u32> {
    u32::try_from(x.checked_sub(base)?).ok()
}

/// A dictionary's code → value table, of the attribute's type, with its
/// value → code index. The entry at the `Null` code, if any, is a
/// placeholder (offset `0`, or the empty string).
///
/// The index holds one entry per code, and none while the dictionary
/// holds no index, as it always is while sorted. An Int index holds the
/// codes alone: a probe compares through the table, and growth re-hashes
/// each code from its value, one multiply. A Str index holds a
/// `(hash32, code)` entry per code: a probe compares a string's bytes
/// only where the stored hash agrees, and growth re-places entries by
/// their stored hashes and reads no string.
#[derive(Debug, Clone)]
enum Table {
    Int { values: Ints, index: PositionTable<u32> },
    Str { strings: Strings, index: PositionTable<(u32, u32)> },
}

impl Table {
    fn len(&self) -> usize {
        match self {
            Table::Int { values, .. } => values.len(),
            Table::Str { strings, .. } => strings.ends.len(),
        }
    }

    /// Entries the table holds room for without reallocating.
    fn capacity(&self) -> usize {
        match self {
            Table::Int { values, .. } => values.capacity(),
            Table::Str { strings, .. } => strings.ends.capacity(),
        }
    }

    /// Bytes the values and the index hold on the heap, from their
    /// capacities.
    fn heap_bytes(&self) -> usize {
        match self {
            Table::Int { values, index } => values.heap_bytes() + index.heap_bytes(),
            Table::Str { strings, index } => {
                strings.bytes.capacity()
                    + strings.ends.capacity() * size_of::<u32>()
                    + index.heap_bytes()
            }
        }
    }

    /// Releases the values' spare capacity and drops the index.
    fn trim(&mut self) {
        match self {
            Table::Int { values, index } => {
                values.shrink_to_fit();
                *index = PositionTable::new();
            }
            Table::Str { strings, index } => {
                strings.bytes.shrink_to_fit();
                strings.ends.shrink_to_fit();
                *index = PositionTable::new();
            }
        }
    }

    fn index_buckets(&self) -> usize {
        match self {
            Table::Int { index, .. } => index.bucket_count(),
            Table::Str { index, .. } => index.bucket_count(),
        }
    }

    fn value_type(&self) -> ValueType {
        match self {
            Table::Int { .. } => ValueType::Int,
            Table::Str { .. } => ValueType::Str,
        }
    }
}

/// The entry of `code` in an Int table: `Null` at the null code.
#[inline]
fn int_key(values: &Ints, null: Option<u32>, code: u32) -> Key<'static> {
    if null == Some(code) {
        Key::Null
    } else {
        Key::Int(values.get(code as usize))
    }
}

/// What an Int index buckets `code` on, re-hashed from its value.
#[inline]
fn int_home(values: &Ints, null: Option<u32>, code: u32) -> u64 {
    wide(hash32(int_key(values, null, code)))
}

/// The entry of `code` in a Str table: `Null` at the null code.
#[inline]
fn str_key(strings: &Strings, null: Option<u32>, code: u32) -> Key<'_> {
    if null == Some(code) {
        Key::Null
    } else {
        Key::Str(strings.get(code as usize))
    }
}

/// Where `x` is in `t`, which ascends strictly: one probe where `x`
/// would sit if `t`'s values were spread evenly between its two ends,
/// then a binary search of the side the probe leaves. Dense values hit
/// in the one probe. The arithmetic is in `i128`, which no pair of `i64`s
/// overflows.
fn search_ints<T: Copy + Ord + Into<i128>>(t: &[T], x: T) -> Option<usize> {
    let (&first, &last) = (t.first()?, t.last()?);
    if x < first || x > last {
        return None;
    }
    let span = (last.into() - first.into()) as u128;
    let offset = (x.into() - first.into()) as u128;
    // `offset ≤ span`, so the probe lands inside `t`.
    let probe = (offset * (t.len() as u128 - 1)).checked_div(span).unwrap_or(0) as usize;
    match t[probe].cmp(&x) {
        Ordering::Equal => Some(probe),
        Ordering::Less => t[probe + 1..].binary_search(&x).ok().map(|at| probe + 1 + at),
        Ordering::Greater => t[..probe].binary_search(&x).ok(),
    }
}

/// A dictionary's state behind its lock: the typed table with its
/// index, the null code and the sorted flag.
#[derive(Debug, Clone)]
struct DictInner {
    /// `table[code]` is the value of `code` — the only copy the
    /// dictionary keeps — for every code but `null`; beside it, the
    /// inverse index, value → code, which covers every code when it is
    /// there.
    table: Table,
    /// The code of `Null`, once interned. Its entry in `table` is a
    /// placeholder that no probe matches: its key is `Null`.
    null: Option<u32>,
    /// Whether each non-null value was interned above the one before it
    /// ([`Key`] order). While it is, the entries either side of the null
    /// code ascend and [`DictInner::search`] finds codes without an
    /// index. The first miss below the last value clears it for good.
    sorted: bool,
}

impl DictInner {
    /// The entry of `code`, borrowed from the table: `Null` at the null
    /// code, whatever its placeholder holds.
    #[inline]
    fn key(&self, code: u32) -> Key<'_> {
        match &self.table {
            Table::Int { values, .. } => int_key(values, self.null, code),
            Table::Str { strings, .. } => str_key(strings, self.null, code),
        }
    }

    /// The value of `code`; a string is copied out of the table into a
    /// fresh `Arc<str>`.
    #[inline]
    fn value(&self, code: u32) -> Value {
        self.key(code).into()
    }

    /// The code of `v` (whose [`hash32`] is `hash`), or the free bucket
    /// its probe ended at — where [`DictInner::find_or_insert`] puts it.
    /// A sorted dictionary searches its table first; it has no index, so
    /// a miss there, like any miss with no index, ends at the empty
    /// index's vacancy. An Int probe compares each entry it meets through
    /// the table; a Str probe reads a string only behind an equal stored
    /// hash. A value of the other type is held by no code.
    #[inline]
    fn find(&self, v: &Value, hash: u32) -> Result<u32, Vacant> {
        let k = Key::from(v);
        if self.sorted {
            if let Some(code) = self.search(k) {
                return Ok(code);
            }
        }
        match &self.table {
            Table::Int { values, index } => {
                let (h, null) = (wide(hash), self.null);
                match (k, values) {
                    // A value outside a narrow table's window has no
                    // offset, and matches no entry.
                    (Key::Int(x), Ints::Narrow { base, offsets }) => {
                        let o = offset_from(*base, x);
                        index
                            .find(h, |code| Some(offsets[code as usize]) == o && Some(code) != null)
                    }
                    (Key::Int(x), Ints::Wide(t)) => {
                        index.find(h, |code| t[code as usize] == x && Some(code) != null)
                    }
                    _ => index.find(h, |code| k == Key::Null && Some(code) == null),
                }
            }
            Table::Str { strings, index } => index
                .find(wide(hash), |(h, code)| h == hash && str_key(strings, self.null, code) == k)
                .map(|(_, code)| code),
        }
    }

    /// The code of `k` in a sorted dictionary, searched in the table:
    /// the entries below the null code ascend, and so do those above it,
    /// every one above the last below. A value of the other type has
    /// none.
    fn search(&self, k: Key<'_>) -> Option<u32> {
        if k == Key::Null {
            return self.null;
        }
        let len = self.table.len();
        let (below, above) = match self.null {
            Some(null) => (0..null as usize, null as usize + 1..len),
            None => (0..len, len..len),
        };
        let range =
            if below.end > 0 && k <= self.key(below.end as u32 - 1) { below } else { above };
        let at = match (&self.table, k) {
            (Table::Int { values, .. }, Key::Int(x)) => values.search(range, x)?,
            (Table::Str { strings, .. }, Key::Str(s)) => strings.search(range, s)?,
            _ => return None,
        };
        Some(at as u32)
    }

    /// The last non-null entry, if there is one.
    fn last(&self) -> Option<Key<'_>> {
        let mut code = (self.table.len() as u32).checked_sub(1)?;
        if self.null == Some(code) {
            code = code.checked_sub(1)?;
        }
        Some(self.key(code))
    }

    /// Whether the dictionary holds no index and is not sorted, so that a
    /// lookup must build one.
    fn unindexed(&self) -> bool {
        !self.sorted && self.table.index_buckets() == 0
    }

    /// Builds the index, if there is none and the dictionary is not
    /// sorted, over every code, `Null`'s included, at the bucket count
    /// growth from empty reaches for them.
    fn index_if_absent(&mut self) {
        if !self.unindexed() {
            return;
        }
        let null = self.null;
        match &mut self.table {
            Table::Int { values, index } => {
                let hash_of = |code| int_home(values, null, code);
                index.reserve(values.len(), hash_of);
                for code in 0..values.len() as u32 {
                    index.insert(hash_of(code), code, hash_of);
                }
            }
            Table::Str { strings, index } => {
                let len = strings.ends.len();
                index.reserve(len, |(h, _)| wide(h));
                for code in 0..len as u32 {
                    let hash = hash32(str_key(strings, null, code));
                    index.insert(wide(hash), (hash, code), |(h, _)| wide(h));
                }
            }
        }
    }

    /// Under the write lock: the code of `v` (whose [`hash32`] is
    /// `hash`), assigned now if it is not known yet. A sorted dictionary
    /// appends `v` if it is `Null` or above the last value; any other
    /// miss ends sorted mode and builds the index. A value that finds no
    /// index builds one first, except `Null`: it has its code out of
    /// line, or appends without an index, since a later build covers it.
    /// The index grows only for a value that misses it, and its entry
    /// goes where the miss's probe ended. A new value the dictionary has
    /// no [`room`] for is refused, and nothing of it is stored.
    fn find_or_insert(&mut self, v: &Value, hash: u32) -> Result<u32, Exhausted> {
        if self.sorted {
            let k = Key::from(v);
            if let Some(code) = self.search(k) {
                return Ok(code);
            }
            if k == Key::Null || self.last().is_none_or(|last| k > last) {
                return self.push(v);
            }
            self.sorted = false;
        }
        if v.is_null() && self.table.index_buckets() == 0 {
            return self.null.map_or_else(|| self.push(v), Ok);
        }
        self.index_if_absent();
        let free = match self.find(v, hash) {
            Ok(code) => return Ok(code),
            Err(free) => free,
        };
        let code = self.push(v)?;
        let null = self.null;
        match &mut self.table {
            // Growth re-hashes each code from its value, the new one's too.
            Table::Int { values, index } => {
                index.fill(free, wide(hash), code, |c| int_home(values, null, c));
            }
            // Growth re-places entries by their stored hashes: no string is read.
            Table::Str { index, .. } => {
                index.fill(free, wide(hash), (hash, code), |(h, _)| wide(h));
            }
        }
        Ok(code)
    }

    /// Assigns the next code to `v` in the table alone, if there is
    /// [`room`] for it. Panics if `v` is a non-null value of the other
    /// type (see [`Dictionary::intern`]).
    fn push(&mut self, v: &Value) -> Result<u32, Exhausted> {
        let add = v.as_str().map_or(0, str::len);
        let bytes = match &self.table {
            Table::Str { strings, .. } => strings.bytes.len(),
            Table::Int { .. } => 0,
        };
        let (code, end) = room(self.table.len(), bytes, add)?;
        // No non-null value yet: at most `Null`'s placeholder.
        let first = code == u32::from(self.null.is_some());
        match (&mut self.table, v) {
            (Table::Int { values, .. }, Value::Int(i)) => values.push(*i, first),
            (Table::Str { strings, .. }, Value::Str(s)) => strings.push(s, end),
            (Table::Int { values, .. }, Value::Null) => values.push_placeholder(),
            (Table::Str { strings, .. }, Value::Null) => strings.push("", end),
            #[expect(
                clippy::panic,
                reason = "internal invariant: every `Relation` path checks a value against its \
                          schema before interning it, and `with_dictionaries` refuses a \
                          dictionary of another type than its attribute"
            )]
            (table, v) => {
                panic!("{v:?} is not a value of this {} dictionary", table.value_type().name())
            }
        }
        if v.is_null() {
            self.null = Some(code);
        }
        Ok(code)
    }
}

/// An append-only interning dictionary for one attribute: each distinct
/// [`Value`] of the attribute's type, and `Null`, maps to a dense `u32`
/// code in first-seen order.
///
/// Each distinct value is stored once, in a code → value table of the
/// attribute's type: `u32` offsets from a base while every integer lies
/// in one 32-bit window, a `Vec<i64>` once one does not, or one byte
/// table of the strings back to back with a `u32` end offset each. The
/// value → code direction is an index over that table, in the
/// workspace's one open-addressing table ([`PositionTable`]): 4-byte
/// codes for integers, compared through the table, and 8-byte
/// `(hash, code)` entries for strings, compared only where the stored
/// hash agrees. A lookup hashes the value once; a miss costs that same
/// one hash and one probe, whose free bucket an insert fills.
///
/// The index exists only while something probes it. A relation built
/// from rows drops it ([`Dictionary::is_indexed`] is then false), and
/// the first [`Dictionary::code_of`] or interning miss rebuilds it under
/// the write lock. `Null` is answered from its out-of-line code and never
/// builds it. A session that will intern every batch builds it up front
/// ([`Dictionary::ensure_indexed`]).
///
/// Shared via `Arc` between a relation and all of its fragments, so codes
/// are comparable across them. All methods take `&self`; interning is
/// synchronized internally.
#[derive(Debug)]
pub struct Dictionary {
    inner: RwLock<DictInner>,
}

impl Dictionary {
    /// Creates an empty dictionary for values of type `ty` (and `Null`).
    pub fn new(ty: ValueType) -> Self {
        let table = match ty {
            ValueType::Int => Table::Int {
                values: Ints::Narrow { base: 0, offsets: Vec::new() },
                index: PositionTable::new(),
            },
            ValueType::Str => {
                Table::Str { strings: Strings::default(), index: PositionTable::new() }
            }
        };
        let inner = DictInner { table, null: None, sorted: true };
        Dictionary { inner: RwLock::new(inner) }
    }

    // The one panic under the write lock, a value of the other type,
    // fires before `DictInner` changes (the room check refuses before
    // anything is stored, too), so a lock a panicking writer poisoned
    // still guards a whole dictionary.
    fn read(&self) -> RwLockReadGuard<'_, DictInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, DictInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The type of the values this dictionary holds.
    pub(crate) fn value_type(&self) -> ValueType {
        self.read().table.value_type()
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.read().table.len()
    }

    /// Whether no value has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries the code → value table holds room for without
    /// reallocating (for strings, end offsets; their bytes grow apart).
    pub fn capacity(&self) -> usize {
        self.read().table.capacity()
    }

    /// Whether the dictionary holds a value → code index. A relation
    /// built from rows leaves its dictionaries without one until their
    /// first lookup or interning miss; a sorted dictionary never has one.
    pub fn is_indexed(&self) -> bool {
        self.index_slots() > 0
    }

    /// Whether every non-null value was interned above the one before it,
    /// so that lookups search the table and no index is kept. Once false,
    /// false for good.
    pub fn is_sorted(&self) -> bool {
        self.read().sorted
    }

    /// Buckets in the value → code index: zero while there is none, else
    /// a power of two at least `max(8, ⌈8 · len / 7⌉)` — exactly that
    /// when the index was built at the current length.
    pub fn index_slots(&self) -> usize {
        self.read().table.index_buckets()
    }

    /// Bytes the dictionary holds on the heap: its value table's buffers
    /// and its index, computed from their capacities.
    pub fn heap_bytes(&self) -> usize {
        self.read().table.heap_bytes()
    }

    /// Builds the value → code index now if it is absent and the
    /// dictionary is not sorted, so that no later lookup or interning
    /// miss pays for it.
    pub fn ensure_indexed(&self) {
        let absent = self.read().unindexed();
        if absent {
            self.write().index_if_absent();
        }
    }

    /// Releases the code → value table's spare capacity (for strings,
    /// both the bytes and the offsets) and drops the index. Interning
    /// afterwards grows the table again, the way a `Vec` grows; the index
    /// comes back with the first probe, unless the dictionary is sorted,
    /// which it stays.
    pub(crate) fn trim(&self) {
        self.write().table.trim();
    }

    /// Interns `v`, returning its code.
    ///
    /// # Panics
    ///
    /// If `v` is neither `Null` nor of this dictionary's type. That is an
    /// internal invariant, not an input error: every [`Relation`] path
    /// validates values against its schema before interning, and
    /// [`Relation::with_dictionaries`] refuses a dictionary whose type
    /// differs from its attribute's. Also if `v` is new and the
    /// dictionary has no room left for it: every code below the two
    /// sentinels is taken, or a Str table would pass 4 GiB. This is the
    /// one way in that panics there: every [`Relation`] path refuses that
    /// case with [`RelationError::DictionaryExhausted`] instead.
    ///
    /// [`Relation`]: crate::Relation
    /// [`Relation::with_dictionaries`]: crate::Relation::with_dictionaries
    /// [`RelationError::DictionaryExhausted`]: crate::RelationError::DictionaryExhausted
    pub fn intern(&self, v: &Value) -> u32 {
        if let (Value::Null, Some(code)) = (v, self.read().null) {
            return code;
        }
        let mut code = NO_CODE;
        exhausted_panics(self.intern_each(std::iter::once(v), |c| code = c));
        code
    }

    /// Interns `values` in order, handing each code to `sink` — the one
    /// interning loop, run by [`Dictionary::intern`] and by a relation's
    /// one encode step, and by nothing else: one acquisition of the write
    /// lock for the whole pass, and one probe per value ([`DictInner::find_or_insert`]),
    /// which assigns the next code on a miss. Values are hashed 32 at a
    /// time into a buffer on the stack ([`Run`]) before any of those 32
    /// is probed, so the payload reads of the hashes overlap, and so do
    /// the bucket reads of the probes; codes and their order are those of
    /// one value at a time. Concurrent passes over one dictionary take
    /// turns at the lock, a whole pass each. A new value the dictionary
    /// has no [`room`] for ends the pass with [`Exhausted`]: the codes
    /// before it were handed out, and it and the values after it were
    /// not interned. No other lock is taken meanwhile: neither `values`
    /// nor `sink` may touch this dictionary. Panics on a value of the
    /// other type, as [`Dictionary::intern`] does.
    pub(crate) fn intern_each<'a>(
        &self,
        values: impl IntoIterator<Item = &'a Value>,
        mut sink: impl FnMut(u32),
    ) -> Result<(), Exhausted> {
        let mut values = values.into_iter();
        let mut run = Run::new();
        let mut inner = self.write();
        while let Some((v, hash)) = run.peek(&mut values) {
            run.advance();
            sink(inner.find_or_insert(v, hash)?);
        }
        Ok(())
    }

    /// The code of `v`, if it has been interned ([`NO_CODE`]-free lookup
    /// used when compiling pattern constants and translating join keys).
    /// A non-null value of the other type has none. A sorted dictionary
    /// searches its table and builds nothing; otherwise a miss that finds
    /// no index builds it and looks again. `Null` needs none.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        if v.is_null() {
            return self.read().null;
        }
        let hash = hash32(Key::from(v));
        {
            let inner = self.read();
            match inner.find(v, hash) {
                Ok(code) => return Some(code),
                Err(_) if !inner.unindexed() => return None,
                Err(_) => {}
            }
        }
        let mut inner = self.write();
        inner.index_if_absent();
        inner.find(v, hash).ok()
    }

    /// The value of `code`. A string is copied out of the table into a
    /// fresh `Arc<str>`, so cloning what this returns stays O(1).
    ///
    /// Panics if `code` was never assigned (codes must come from this
    /// dictionary or a relation sharing it).
    pub fn value(&self, code: u32) -> Value {
        self.read().value(code)
    }

    /// A point-in-time copy of the code → value table (test/debug helper).
    pub fn snapshot(&self) -> Vec<Value> {
        let inner = self.read();
        (0..inner.table.len() as u32).map(|code| inner.value(code)).collect()
    }
}

/// Unwraps an interning pass for [`Dictionary::intern`], the one caller
/// that returns no error.
fn exhausted_panics(pass: Result<(), Exhausted>) {
    if let Err(what) = pass {
        #[expect(
            clippy::panic,
            reason = "input reaches it (2³² distinct values, or 4 GiB of distinct strings, in \
                      one dictionary) through the infallible `intern`, a public signature; \
                      every `Relation` path refuses it with `DictionaryExhausted`"
        )]
        {
            panic!("dictionary exhausted {}", what.what());
        }
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

/// Runs `$body` with `$s` bound to the typed slice under a [`Codes`]
/// view: one match on the width, each arm its own instance of `$body`,
/// so the loop inside reads one width without asking again.
macro_rules! with_codes {
    ($codes:expr, $s:ident => $body:expr) => {
        match $codes {
            Codes::U8($s) => $body,
            Codes::U16($s) => $body,
            Codes::U32($s) => $body,
        }
    };
}

/// [`with_codes!`] over a column's own vector, mutably.
macro_rules! with_vec {
    ($codes:expr, $v:ident => $body:expr) => {
        match $codes {
            CodeVec::U8($v) => $body,
            CodeVec::U16($v) => $body,
            CodeVec::U32($v) => $body,
        }
    };
}

/// A column's codes, borrowed at the width the column stores them: one
/// byte a row while every code the column has held is below 2⁸, two
/// below 2¹⁶, four otherwise. Every code reads out as a `u32`. A scan
/// reads through [`Codes::zip_in`] or [`Codes::zip_at`], which
/// match on the width once and loop over the typed slice;
/// [`Codes::get`] matches per call, for reads made once per key or
/// group. Two views are equal iff they have one width and equal codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codes<'a> {
    /// Codes below 2⁸.
    U8(&'a [u8]),
    /// Codes below 2¹⁶.
    U16(&'a [u16]),
    /// Any code.
    U32(&'a [u32]),
}

impl Codes<'_> {
    /// Number of rows.
    pub fn len(self) -> usize {
        with_codes!(self, s => s.len())
    }

    /// Whether the view holds no rows.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Bytes a row: 1, 2 or 4.
    pub fn width(self) -> usize {
        match self {
            Codes::U8(_) => 1,
            Codes::U16(_) => 2,
            Codes::U32(_) => 4,
        }
    }

    /// The code of `row`. Panics if `row` is out of bounds.
    #[inline]
    pub fn get(self, row: usize) -> u32 {
        with_codes!(self, s => widen(s[row]))
    }

    /// Every code, widened to `u32`.
    pub fn to_vec(self) -> Vec<u32> {
        with_codes!(self, s => s.iter().map(|&c| widen(c)).collect())
    }

    /// Hands `f` each item of `out` with the code of the matching row of
    /// `rows`, in order, until either runs out: a scan writing one
    /// output per row (a slot id, a gathered cell) walks both without an
    /// index. Panics if `rows` is out of bounds.
    #[inline]
    pub fn zip_in<T>(
        self,
        rows: Range<usize>,
        out: impl IntoIterator<Item = T>,
        mut f: impl FnMut(T, u32),
    ) {
        with_codes!(self, s => {
            for (o, &c) in out.into_iter().zip(&s[rows]) {
                f(o, widen(c));
            }
        });
    }

    /// [`Codes::zip_in`] over the rows `rows` names, in the order given.
    /// Panics if a row is out of bounds.
    #[inline]
    pub fn zip_at<T>(
        self,
        rows: &[usize],
        out: impl IntoIterator<Item = T>,
        mut f: impl FnMut(T, u32),
    ) {
        with_codes!(self, s => {
            for (o, &r) in out.into_iter().zip(rows) {
                f(o, widen(s[r]));
            }
        });
    }
}

/// A stored code's type: `u8`, `u16` or `u32`.
trait Cell: Copy + Into<u32> {
    /// `code` at this width; the caller has checked that it fits.
    fn of(code: u32) -> Self;
}

impl Cell for u8 {
    #[inline]
    fn of(code: u32) -> Self {
        debug_assert!(code <= u32::from(u8::MAX));
        code as u8
    }
}

impl Cell for u16 {
    #[inline]
    fn of(code: u32) -> Self {
        debug_assert!(code <= u32::from(u16::MAX));
        code as u16
    }
}

impl Cell for u32 {
    #[inline]
    fn of(code: u32) -> Self {
        code
    }
}

/// A stored code as the `u32` every reader sees. A generic function, not
/// a bare `.into()`, because [`with_codes!`] expands its body for `u32`
/// too, where `.into()` is a same-type conversion clippy refuses.
#[inline]
fn widen<C: Cell>(c: C) -> u32 {
    c.into()
}

/// Bytes a row a column needs to hold `code`.
fn width_of(code: u32) -> usize {
    if code <= u32::from(u8::MAX) {
        1
    } else if code <= u32::from(u16::MAX) {
        2
    } else {
        4
    }
}

/// A column's own codes, at its width.
#[derive(Debug, Clone)]
enum CodeVec {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl CodeVec {
    fn view(&self) -> Codes<'_> {
        match self {
            CodeVec::U8(v) => Codes::U8(v),
            CodeVec::U16(v) => Codes::U16(v),
            CodeVec::U32(v) => Codes::U32(v),
        }
    }

    fn capacity(&self) -> usize {
        with_vec!(self, v => v.capacity())
    }

    /// Widens the vector, if it is narrower, to the width `code` needs:
    /// one copy into a vector of the same capacity. Never narrows.
    fn widen_for(&mut self, code: u32) {
        let need = width_of(code);
        if need <= self.view().width() {
            return;
        }
        let cap = self.capacity();
        *self = match need {
            2 => CodeVec::U16(widened(self.view(), cap)),
            _ => CodeVec::U32(widened(self.view(), cap)),
        };
    }

    /// Appends `code`, widening first if it needs it.
    #[inline]
    fn push(&mut self, code: u32) {
        match self {
            CodeVec::U8(v) if code <= u32::from(u8::MAX) => v.push(u8::of(code)),
            CodeVec::U16(v) if code <= u32::from(u16::MAX) => v.push(u16::of(code)),
            CodeVec::U32(v) => v.push(code),
            _ => self.widen_then_push(code),
        }
    }

    /// [`CodeVec::push`]'s way out, taken at most twice in a column's
    /// life.
    #[cold]
    #[inline(never)]
    fn widen_then_push(&mut self, code: u32) {
        self.widen_for(code);
        self.push(code);
    }
}

/// Appends `codes` to `v`, each at `v`'s cell type; the caller has
/// widened `v` to hold them.
#[inline]
fn extend_cells<D: Cell>(v: &mut Vec<D>, codes: impl Iterator<Item = u32>) {
    v.extend(codes.map(D::of));
}

/// `codes` at the wider cell type `D`, in a vector of capacity `cap`.
fn widened<D: Cell>(codes: Codes<'_>, cap: usize) -> Vec<D> {
    let mut v = Vec::with_capacity(cap);
    with_codes!(codes, s => v.extend(s.iter().map(|&c| D::of(widen(c)))));
    v
}

/// One dictionary-encoded column of a relation: a shared [`Dictionary`]
/// plus one dense vector of codes, one per row in insertion order, at
/// the narrowest width (1, 2 or 4 bytes) that holds every code the
/// column has held. A code that needs more than the column's width
/// widens it first, in one copy that keeps the capacity; nothing
/// narrows it. [`Column::codes`] lends the codes out as a width-tagged
/// [`Codes`] view.
///
/// Only the [`Relation`](crate::Relation) that holds a column writes
/// it: no public method here does, and what a relation writes costs
/// what is written rather than what is stored. Values append through
/// the relation's one encode step, which interns a column's cells in one
/// pass under the dictionary's write lock, one probe a value, and hands
/// each code straight to the column (a delta's inserts are encoded
/// before any site appends them, so a pool task appends codes and never
/// interns); codes copied from a column over the same dictionary append
/// as they are, each source row read once. Rows leave through
/// `remove_rows`, which closes the gaps in place — one `copy_within` per
/// run of survivors — and allocates nothing.
#[derive(Debug, Clone)]
pub struct Column {
    dict: Arc<Dictionary>,
    codes: CodeVec,
}

impl Column {
    /// An empty column sharing `dict` with room for exactly `cap` rows,
    /// one byte each until a code needs more.
    pub(crate) fn with_capacity(dict: Arc<Dictionary>, cap: usize) -> Self {
        Column { dict, codes: CodeVec::U8(Vec::with_capacity(cap)) }
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// The codes, one per row, at the column's width.
    #[inline]
    pub fn codes(&self) -> Codes<'_> {
        self.codes.view()
    }

    /// Bytes a row: 1, 2 or 4, the narrowest that holds every code the
    /// column has held.
    pub fn width(&self) -> usize {
        self.codes().width()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes().len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows the column holds room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.codes.capacity()
    }

    /// Bytes the codes hold on the heap: the capacity at the width.
    pub fn heap_bytes(&self) -> usize {
        self.capacity() * self.width()
    }

    /// The column's dictionary, beside a sink that appends a code to the
    /// column, widening it the first time a code needs it: the two ends
    /// of an encode step that writes straight into the column. The
    /// caller guarantees the dictionary assigned every code it sinks.
    pub(crate) fn sink(&mut self) -> (&Dictionary, impl FnMut(u32) + '_) {
        let codes = &mut self.codes;
        (&self.dict, move |code| codes.push(code))
    }

    /// Appends the codes `src` holds at `rows`, in the given order,
    /// reading each row once. While `src` is no wider than this column
    /// every code fits, and they append in one typed pass; otherwise each
    /// appends through the widening push, so the column widens only for
    /// a code that needs it. The caller guarantees both columns share one
    /// dictionary, so the codes mean the same here as there.
    pub(crate) fn extend_from_rows(&mut self, src: &Column, rows: impl RowSource) {
        let from = src.codes();
        if from.width() > self.width() {
            rows.zip_codes(from, 0.., |_, code| self.codes.push(code));
            return;
        }
        with_codes!(from, s => with_vec!(&mut self.codes, v => {
            extend_cells(v, rows.rows().map(|r| widen(s[r])));
        }));
    }

    /// Reserves room for `extra` more rows.
    pub(crate) fn reserve(&mut self, extra: usize) {
        with_vec!(&mut self.codes, v => v.reserve(extra));
    }

    /// Drops every row from `len` on. The width stays.
    pub(crate) fn truncate(&mut self, len: usize) {
        with_vec!(&mut self.codes, v => v.truncate(len));
    }

    /// Removes the rows at `rows` (strictly increasing positions),
    /// preserving the order of the others. The delta-maintenance hook:
    /// dictionaries are append-only, so a removed row's code simply
    /// stops being referenced — codes are never recycled and stay
    /// decodable. Nothing is reallocated, and the width stays.
    pub(crate) fn remove_rows(&mut self, rows: &[usize]) {
        with_vec!(&mut self.codes, v => remove_positions(v, rows));
    }

    /// Decodes the value at `row`.
    pub fn decode(&self, row: usize) -> Value {
        self.dict.value(self.codes().get(row))
    }

    /// Decodes rows `start..start + rows.len()` under one dictionary read
    /// lock, pushing each value onto its row.
    pub(crate) fn decode_range(&self, start: usize, rows: &mut [Vec<Value>]) {
        let inner = self.dict.read();
        self.codes().zip_in(start..start + rows.len(), 0.., |k, code| {
            rows[k].push(inner.value(code));
        });
    }
}

/// Removes the strictly increasing positions `removed` from `v`, keeping
/// the order of the rest: each run of survivors between two removed
/// positions moves left with one `copy_within`, and nothing is
/// reallocated. The tid column and every code column of a relation lose
/// their rows through this.
pub(crate) fn remove_positions<T: Copy>(v: &mut Vec<T>, removed: &[usize]) {
    // Stored rows depend on these: out-of-order positions would overwrite
    // survivors.
    assert!(removed.windows(2).all(|w| w[0] < w[1]), "removed positions must strictly increase");
    assert!(removed.last().is_none_or(|&r| r < v.len()), "removed positions must be in bounds");
    for (k, &r) in removed.iter().enumerate() {
        let end = removed.get(k + 1).copied().unwrap_or(v.len());
        v.copy_within(r + 1..end, r - k);
    }
    v.truncate(v.len() - removed.len());
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Column[{} rows, {} distinct]", self.len(), self.dict.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [ValueType; 2] = [ValueType::Int, ValueType::Str];

    /// The `k`-th distinct non-null value of type `ty`.
    fn nth(ty: ValueType, k: usize) -> Value {
        match ty {
            ValueType::Int => Value::Int(k as i64 - 1000),
            ValueType::Str => Value::str(format!("v{k}")),
        }
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        for ty in TYPES {
            let (x, y) = (nth(ty, 0), nth(ty, 7));
            let d = Dictionary::new(ty);
            let a = d.intern(&x);
            let b = d.intern(&y);
            let a2 = d.intern(&x);
            assert_eq!(a, 0);
            assert_eq!(b, 1);
            assert_eq!(a, a2);
            assert_eq!(d.len(), 2);
            assert_eq!(d.code_of(&y), Some(1));
            assert_eq!(d.code_of(&Value::Null), None);
            assert_eq!(d.value(0), x);
        }
    }

    /// Strings of every shape the byte table slices: one of 10 000 bytes
    /// (first, so that the short ones after it grow the table past what
    /// it holds), empty, one byte, and two-, three- and four-byte UTF-8.
    fn awkward_strings() -> Vec<Value> {
        let short = ["", "a", "é", "ünïcødé", "日本語", "🦀x🦀", "a\0b"].map(Value::str);
        [Value::str("ß".repeat(5_000))].into_iter().chain(short).collect()
    }

    #[test]
    fn interning_keeps_no_caller_allocation() {
        let d = Dictionary::new(ValueType::Str);
        let v = Value::str("only copy");
        let code = d.intern(&v);
        assert_eq!(d.intern(&v.clone()), code);
        let Value::Str(payload) = &v else { panic!("expected a string") };
        // The table copied the bytes; the index holds a hash and a code.
        assert_eq!(Arc::strong_count(payload), 1);
        let Value::Str(decoded) = d.value(code) else { panic!("expected a string") };
        assert!(!Arc::ptr_eq(payload, &decoded), "a decode is a fresh copy");
        assert_eq!((Arc::strong_count(payload), &*decoded), (1, "only copy"));
    }

    #[test]
    fn a_decoded_value_equals_the_interned_one() {
        let mut feed = awkward_strings();
        feed.insert(3, Value::Null);
        let d = Dictionary::new(ValueType::Str);
        for v in feed.iter().chain(&feed) {
            assert_eq!(&d.value(d.intern(v)), v);
        }
        assert_eq!(d.snapshot(), feed);
        d.trim();
        for (code, v) in feed.iter().enumerate() {
            assert_eq!((d.value(code as u32), d.code_of(v)), (v.clone(), Some(code as u32)));
        }
    }

    #[test]
    fn a_trimmed_string_table_holds_each_distinct_byte_once() {
        let distinct = awkward_strings();
        let d = Dictionary::new(ValueType::Str);
        for v in distinct.iter().chain([&Value::Null]).chain(distinct.iter().rev()) {
            d.intern(v);
        }
        d.trim();
        let want: usize = distinct.iter().filter_map(Value::as_str).map(str::len).sum();
        let inner = d.read();
        let Table::Str { strings: t, .. } = &inner.table else { panic!("a Str dictionary") };
        // `Null`'s placeholder is an empty entry: an offset, no bytes.
        assert_eq!((t.bytes.len(), t.bytes.capacity()), (want, want));
        assert_eq!((t.ends.len(), t.ends.capacity()), (distinct.len() + 1, distinct.len() + 1));
        assert_eq!(d.capacity(), distinct.len() + 1);
    }

    #[test]
    fn room_runs_out_at_the_code_limit_and_at_4_gib() {
        let (limit, max) = (CODE_LIMIT as usize, u32::MAX as usize);
        // The last code below the sentinels, and the last byte an offset
        // reaches, are granted.
        assert_eq!(room(limit - 1, 0, 0), Ok((CODE_LIMIT - 1, 0)));
        assert_eq!(room(0, max - 5, 5), Ok((0, u32::MAX)));
        assert_eq!(room(7, 10, 3), Ok((7, 13)));
        // One past either is refused, whichever of the two comes first.
        for len in [limit, limit + 1, max, usize::MAX] {
            assert_eq!(room(len, 0, 0), Err(Exhausted::Codes), "{len} codes");
        }
        for (bytes, add) in [(max, 1), (0, max + 1), (usize::MAX, 1)] {
            assert_eq!(room(3, bytes, add), Err(Exhausted::Bytes), "{bytes} + {add}");
        }
        assert_eq!(room(limit, max, 1), Err(Exhausted::Codes));
        assert_eq!(Exhausted::Bytes.what(), "the 4 GiB its string table can address");
        assert_eq!(Exhausted::Codes.what(), "the u32 code space");
    }

    #[test]
    fn an_exhausted_pass_panics_where_it_returns_no_error() {
        let refused = std::panic::catch_unwind(|| exhausted_panics(Err(Exhausted::Bytes)));
        let message = refused.expect_err("exhausted").downcast::<String>().map(|m| *m);
        assert_eq!(
            message.ok().as_deref(),
            Some("dictionary exhausted the 4 GiB its string table can address")
        );
        exhausted_panics(Ok(()));
    }

    #[test]
    fn null_is_one_code_beside_the_typed_values() {
        for ty in TYPES {
            // What the placeholder cell at the null code holds.
            let lookalike = match ty {
                ValueType::Int => Value::Int(0),
                ValueType::Str => Value::str(""),
            };
            let d = Dictionary::new(ty);
            let feed = [nth(ty, 1), Value::Null, lookalike.clone(), Value::Null, nth(ty, 1)];
            let codes: Vec<u32> = feed.iter().map(|v| d.intern(v)).collect();
            assert_eq!(codes, [0, 1, 2, 1, 0]);
            assert_eq!(d.snapshot(), [nth(ty, 1), Value::Null, lookalike.clone()]);
            assert_eq!((d.code_of(&Value::Null), d.code_of(&lookalike)), (Some(1), Some(2)));
            assert_eq!(d.value_type(), ty);
        }
    }

    #[test]
    #[should_panic(expected = "Str(\"x\") is not a value of this Int dictionary")]
    fn a_value_of_the_other_type_is_not_interned() {
        let d = Dictionary::new(ValueType::Int);
        d.intern(&Value::Int(1));
        assert_eq!(d.code_of(&Value::str("x")), None, "a lookup answers no");
        d.intern(&Value::str("x"));
    }

    /// The index length growth from empty reaches at `len` values.
    fn grown_len(len: usize) -> usize {
        (8 * len).div_ceil(7).max(8).next_power_of_two()
    }

    /// The `k`-th value of a feed that is not ascending: `nth(ty, k ^ 1)`,
    /// so the second value is below the first and ends sorted mode.
    fn unsorted(ty: ValueType, k: usize) -> Value {
        nth(ty, k ^ 1)
    }

    #[test]
    fn the_index_survives_its_growths() {
        for ty in TYPES {
            let value = |i: usize| unsorted(ty, i);
            let d = Dictionary::new(ty);
            let n = 100_000;
            let (mut growths, mut table) = (0, 0);
            for i in 0..n {
                // Halfway, the index goes as after a load; the next
                // intern rebuilds it and growth carries on from there.
                if i == n / 2 {
                    d.trim();
                    assert!(!d.is_indexed());
                }
                assert_eq!(d.intern(&value(i)) as usize, i);
                let slots = d.index_slots();
                // One value is sorted; the second, below it, builds the index.
                assert_eq!((d.is_sorted(), slots == 0), (i == 0, i == 0), "at {i}");
                if i == 0 {
                    continue;
                }
                assert!(slots.is_power_of_two() && 8 * (i + 1) <= 7 * slots, "{slots} at {i}");
                assert_eq!(slots, grown_len(i + 1), "at {i}");
                growths += usize::from(slots != table);
                table = slots;
            }
            assert!(growths >= 10, "only {growths} growths");
            assert_eq!(d.len(), n);
            for i in 0..n {
                assert_eq!(d.code_of(&value(i)), Some(i as u32));
                assert_eq!(d.intern(&value(i)) as usize, i, "interning is idempotent");
            }
            let other = TYPES.into_iter().find(|&t| t != ty).unwrap();
            for absent in [Value::Null, value(n), value(2 * n), nth(other, 0)] {
                assert_eq!(d.code_of(&absent), None);
            }
            // A deep clone carries the index and interns on its own.
            let copy = d.clone();
            assert_eq!(copy.intern(&Value::Null) as usize, n);
            assert_eq!(copy.code_of(&value(n - 1)), Some(n as u32 - 1));
            assert_eq!((d.len(), d.code_of(&Value::Null)), (n, None));
        }
    }

    #[test]
    fn a_rebuilt_index_has_the_length_growth_reaches() {
        for ty in TYPES {
            for len in 0..=300 {
                // A null after the first value, when there is room for
                // one (a first null would leave the index unbuilt).
                let d = Dictionary::new(ty);
                for i in 0..len {
                    d.intern(&if i > 0 && i == len / 2 { Value::Null } else { unsorted(ty, i) });
                }
                // Below 4 values the null takes the second value's place,
                // and what is left ascends: no index, before or after.
                assert_eq!(d.is_sorted(), len < 4, "{ty:?} at {len}");
                let grown = d.index_slots();
                d.trim();
                assert_eq!((d.is_indexed(), d.index_slots()), (false, 0));
                d.ensure_indexed();
                let want = if len < 4 { 0 } else { grown_len(len) };
                assert_eq!((d.index_slots(), grown), (want, want), "{ty:?} at {len}");
                // Every code is indexed, the null code included.
                let inner = d.read();
                for code in 0..len as u32 {
                    let v = inner.value(code);
                    assert_eq!(inner.find(&v, hash32(Key::from(&v))), Ok(code));
                }
            }
        }
    }

    #[test]
    fn a_trimmed_dictionary_answers_lookups_as_before() {
        for ty in TYPES {
            let other = TYPES.into_iter().find(|&t| t != ty).unwrap();
            let d = Dictionary::new(ty);
            let feed = [nth(ty, 1), Value::Null, nth(ty, 0), nth(ty, 2)];
            for v in &feed {
                d.intern(v);
            }
            assert!(!d.is_sorted());
            let probes = [nth(ty, 0), nth(ty, 9), Value::Null, nth(other, 1)];
            let before: Vec<Option<u32>> = probes.iter().map(|v| d.code_of(v)).collect();
            assert_eq!(before, [Some(2), None, Some(1), None]);
            d.trim();
            // `Null` is answered from its own code, indexed or not.
            assert_eq!((d.code_of(&Value::Null), d.intern(&Value::Null)), (Some(1), 1));
            assert!(!d.is_indexed(), "Null built the index");
            for (v, want) in probes.iter().zip(&before) {
                assert_eq!(d.code_of(v), *want, "{v:?}");
            }
            assert!(d.is_indexed());
            assert_eq!(d.index_slots(), grown_len(4));
            assert_eq!(d.snapshot(), feed);
        }
    }

    #[test]
    fn a_first_null_appends_without_an_index() {
        for ty in TYPES {
            let d = Dictionary::new(ty);
            d.intern(&nth(ty, 1));
            d.intern(&nth(ty, 0));
            d.trim();
            assert_eq!((d.is_sorted(), d.is_indexed()), (false, false));
            let mut codes = Vec::new();
            d.intern_each(&[Value::Null, Value::Null], |code| codes.push(code)).unwrap();
            codes.push(d.intern(&Value::Null));
            assert_eq!((codes, d.len(), d.is_indexed()), (vec![2, 2, 2], 3, false));
            // The next miss builds an index that covers the null code.
            assert_eq!(d.intern(&nth(ty, 5)), 3);
            assert_eq!(d.index_slots(), grown_len(4));
            let inner = d.read();
            assert_eq!(inner.find(&Value::Null, hash32(Key::Null)), Ok(2));
        }
    }

    /// An interning pass grows the index only for a value that misses:
    /// a pass whose write-lock run ends on a known value leaves the index
    /// as long as one value at a time does, at every length around the
    /// growth boundaries.
    #[test]
    fn a_known_value_after_a_miss_does_not_grow_the_index() {
        for ty in TYPES {
            for len in 2..=60 {
                let base = Dictionary::new(ty);
                for i in 0..len {
                    base.intern(&unsorted(ty, i));
                }
                assert!(base.is_indexed());
                let (pass, single) = (base.clone(), base.clone());
                let feed = [nth(ty, 1000), unsorted(ty, 0)];
                let mut codes = Vec::new();
                pass.intern_each(&feed, |code| codes.push(code)).unwrap();
                let want: Vec<u32> = feed.iter().map(|v| single.intern(v)).collect();
                assert_eq!((codes, pass.index_slots()), (want, single.index_slots()), "at {len}");
                assert_eq!(pass.index_slots(), grown_len(len + 1), "{ty:?} at {len}");
            }
        }
    }

    /// Feeds that put hits, misses and `Null` on either side of the
    /// interning loop's run boundaries: `hit(k)` is interned already,
    /// `miss(k)` is not.
    fn boundary_feeds(
        hit: impl Fn(usize) -> Value,
        miss: impl Fn(usize) -> Value,
    ) -> Vec<Vec<Value>> {
        let mut feeds = Vec::new();
        for len in [0, 1, 31, 32, 33, 65] {
            let feed = |pick: &dyn Fn(usize) -> Value| (0..len).map(pick).collect::<Vec<_>>();
            feeds.push(feed(&hit));
            feeds.push(feed(&miss));
            for first in [0, 31, 32, len.saturating_sub(1)].into_iter().filter(|&f| f < len) {
                // Misses from `first` on, and a lone miss at `first`.
                feeds.push(feed(&|k| if k < first { hit(k) } else { miss(k) }));
                feeds.push(feed(&|k| if k == first { miss(k) } else { hit(k) }));
            }
            feeds.push(feed(&|k| if k % 2 == 0 { hit(k) } else { miss(k) }));
            // `Null` inside the run, and misses that repeat within it.
            feeds.push(feed(&|k| match k % 4 {
                1 => Value::Null,
                3 => miss(k % 3),
                _ => hit(k),
            }));
        }
        feeds
    }

    #[test]
    fn an_interning_pass_agrees_with_one_value_at_a_time_across_runs() {
        for ty in TYPES {
            for indexed in [true, false] {
                let base = Dictionary::new(ty);
                for i in 0..40 {
                    base.intern(&nth(ty, i));
                }
                if !indexed {
                    base.trim();
                }
                let feeds = boundary_feeds(|k| nth(ty, k % 40), |k| nth(ty, 1000 + k));
                for feed in &feeds {
                    let label =
                        format!("{ty:?}, indexed {indexed}, {} values: {feed:?}", feed.len());
                    let (pass, single) = (base.clone(), base.clone());
                    let mut codes = Vec::new();
                    pass.intern_each(feed, |code| codes.push(code)).unwrap();
                    let want: Vec<u32> = feed.iter().map(|v| single.intern(v)).collect();
                    assert_eq!(codes, want, "{label}");
                    assert_eq!(pass.snapshot(), single.snapshot(), "{label}");
                    assert_eq!(pass.index_slots(), single.index_slots(), "{label}");
                    // First-seen order, read off a linear model.
                    let mut model = base.snapshot();
                    for (v, &code) in feed.iter().zip(&codes) {
                        let at = model.iter().position(|m| m == v).unwrap_or_else(|| {
                            model.push(v.clone());
                            model.len() - 1
                        });
                        assert_eq!(code as usize, at, "{label}");
                    }
                    assert_eq!(pass.snapshot(), model, "{label}");
                }
                assert_eq!(base.len(), 40, "the clones are deep");
            }
        }
    }

    /// A column over a fresh dictionary of type `ty`, fed `values` the
    /// way a relation's encode step feeds it.
    fn fed(ty: ValueType, values: &[Value]) -> Column {
        let mut c = Column::with_capacity(Arc::new(Dictionary::new(ty)), 0);
        let (dict, sink) = c.sink();
        dict.intern_each(values, sink).unwrap();
        c
    }

    #[test]
    fn column_round_trips_values() {
        for ty in TYPES {
            let c = fed(ty, &[nth(ty, 1), nth(ty, 2), nth(ty, 1)]);
            assert_eq!(c.len(), 3);
            assert_eq!(c.codes().to_vec(), [0, 1, 0]);
            assert_eq!(c.decode(1), nth(ty, 2));
            assert_eq!(c.to_string(), "Column[3 rows, 2 distinct]");
        }
    }

    #[test]
    fn remove_rows_keeps_order_and_dictionary() {
        let mut c = fed(ValueType::Str, &["a", "b", "a", "c", "b"].map(Value::str));
        c.remove_rows(&[1, 3]);
        assert_eq!(c.codes().to_vec(), [0, 0, 1]);
        // The dictionary keeps every value it ever interned.
        assert_eq!(c.dict().len(), 3);
        assert_eq!(c.decode(2), Value::str("b"));
    }

    #[test]
    fn sentinels_are_disjoint_from_codes() {
        assert_ne!(WILDCARD_CODE, NO_CODE);
        let d = Dictionary::new(ValueType::Int);
        let code = d.intern(&Value::Int(0));
        // NO_CODE < WILDCARD_CODE, so this bounds the code below both.
        assert!(code < NO_CODE);
    }

    proptest::proptest! {
        /// `remove_rows` against a plain `Vec<u32>`: the survivors keep
        /// their order and the column still appends. `picks` are reduced
        /// to positions; `edge` adds the first row, the last row, rows
        /// 3..6 or every row.
        #[test]
        fn remove_rows_matches_a_vec_model(
            n in 0..40usize,
            picks in proptest::collection::vec(0..40usize, 0..12),
            edge in 0..5u8,
        ) {
            let model: Vec<u32> = (0..n as u32).map(|i| i * 7 + 1).collect();
            let mut removed: Vec<usize> = picks.iter().filter(|_| n > 0).map(|p| p % n).collect();
            match edge {
                1 if n > 0 => removed.push(0),
                2 if n > 0 => removed.push(n - 1),
                3 => removed.extend((3..6).filter(|&r| r < n)),
                4 => removed.extend(0..n),
                _ => {}
            }
            removed.sort_unstable();
            removed.dedup();
            let values: Vec<Value> = model.iter().map(|&k| Value::Int(i64::from(k))).collect();
            let mut c = fed(ValueType::Int, &values);
            let codes = c.codes().to_vec();
            c.remove_rows(&removed);
            let mut want: Vec<u32> = codes
                .iter()
                .enumerate()
                .filter(|(i, _)| removed.binary_search(i).is_err())
                .map(|(_, &code)| code)
                .collect();
            proptest::prop_assert_eq!(c.codes().to_vec(), want.clone());
            c.sink().1(5);
            want.push(5);
            proptest::prop_assert_eq!(c.codes().to_vec(), want);
        }
    }
}

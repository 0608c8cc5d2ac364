//! Dictionary-encoded columnar storage.
//!
//! Every [`Relation`](crate::Relation) stores its cells as one [`Column`]
//! per attribute: one dense `Vec<u32>` of *codes*, each code naming a
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
//! code slices ([`Column::codes`]) and only touch the dictionary to decode
//! one value per *group* (or per pattern constant), not per tuple.
//!
//! A dictionary is typed by its attribute's [`ValueType`] and holds each
//! distinct value once, as that type: an Int dictionary is one `Vec<i64>`
//! (8 bytes a value), a Str dictionary one `Vec<Arc<str>>` (16 bytes
//! beside the shared payload), indexed by code. `Null`, which any
//! attribute may hold, is one code kept out of line, with a placeholder
//! cell at its index so that codes stay dense and first-seen. Over that
//! table sits an open-addressing index of `(hash, code)` slots. A lookup
//! hashes once and compares values only where the stored hash agrees; a
//! miss costs the same one hash; growing the index moves slots by their
//! stored hashes and reads no value. A batch is interned in one pass
//! ([`Column::extend_values`]): known values under the read lock, each
//! run of unseen ones under one acquisition of the write lock.
//!
//! A column is one allocation. Every constructor reserves exactly the rows
//! it will hold, and a relation built from rows trims each dictionary's
//! value table to its length, so a built relation carries no spare
//! capacity; only appends to a built relation grow a column or a table,
//! the way a `Vec` grows.

use crate::fxhash::FxBuildHasher;
use crate::schema::ValueType;
use crate::value::Value;
use std::fmt;
use std::hash::BuildHasher;
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

/// Names nothing: columns are not chunked. It stays, with
/// [`set_chunk_rows`], only because `benchmark/src/main.rs` still spells
/// both; ROADMAP item 2 deletes that call and these two items.
#[doc(hidden)]
pub const DEFAULT_CHUNK_ROWS: usize = 64 * 1024;

/// Does nothing; see [`DEFAULT_CHUNK_ROWS`].
#[doc(hidden)]
pub fn set_chunk_rows(_rows: Option<usize>) {}

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

/// A dictionary's code → value table, one vector of the attribute's
/// type. The cell at the `Null` code, if any, is a placeholder.
#[derive(Debug, Clone)]
enum Table {
    Int(Vec<i64>),
    Str(Vec<Arc<str>>),
}

impl Table {
    fn len(&self) -> usize {
        match self {
            Table::Int(t) => t.len(),
            Table::Str(t) => t.len(),
        }
    }

    fn capacity(&self) -> usize {
        match self {
            Table::Int(t) => t.capacity(),
            Table::Str(t) => t.capacity(),
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Table::Int(t) => t.shrink_to_fit(),
            Table::Str(t) => t.shrink_to_fit(),
        }
    }

    fn value_type(&self) -> ValueType {
        match self {
            Table::Int(_) => ValueType::Int,
            Table::Str(_) => ValueType::Str,
        }
    }
}

#[derive(Debug, Clone)]
struct DictInner {
    /// `table[code]` is the canonical value for `code` — the only copy
    /// the dictionary keeps — for every code but `null`.
    table: Table,
    /// The code of `Null`, once interned. Its cell in `table` is a
    /// placeholder that [`DictInner::holds`] never matches.
    null: Option<u32>,
    /// Inverse index, value → code: an open-addressing table over
    /// `table`, linear probe. Its length is zero or a power of two and
    /// at least twice `table.len()`, so a probe always ends at an empty
    /// slot.
    slots: Vec<Slot>,
}

impl DictInner {
    /// Whether `code` is the code of `v`. A value of the other type is
    /// held by no code. Strings compare as `Arc`s, so a caller holding
    /// the canonical payload matches without reading it.
    #[inline]
    fn holds(&self, code: u32, v: &Value) -> bool {
        let at = code as usize;
        match (&self.table, v) {
            (_, Value::Null) => self.null == Some(code),
            (Table::Int(t), Value::Int(i)) => t[at] == *i && self.null != Some(code),
            (Table::Str(t), Value::Str(s)) => t[at] == *s && self.null != Some(code),
            _ => false,
        }
    }

    /// The canonical value of `code` (O(1) — see [`Value`]).
    #[inline]
    fn value(&self, code: u32) -> Value {
        let at = code as usize;
        match &self.table {
            _ if self.null == Some(code) => Value::Null,
            Table::Int(t) => Value::Int(t[at]),
            Table::Str(t) => Value::Str(Arc::clone(&t[at])),
        }
    }

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
            if slot.hash == hash && self.holds(slot.code, v) {
                return Ok(slot.code);
            }
            at = (at + 1) & mask;
        }
    }

    /// Makes room for one more value at load ≤ ½, doubling the table if
    /// it has to. Growth re-places the slots from their stored hashes:
    /// no value is read, hashed or compared.
    fn reserve_one(&mut self) {
        if (self.table.len() + 1) * 2 <= self.slots.len() {
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
    /// that [`DictInner::find`] reported. Panics if `v` is a non-null
    /// value of the other type (see [`Dictionary::intern`]).
    fn insert_at(&mut self, at: usize, v: &Value, hash: u32) -> u32 {
        let code = self.table.len() as u32;
        assert!(code < CODE_LIMIT, "dictionary exhausted the u32 code space");
        match (&mut self.table, v) {
            (Table::Int(t), Value::Int(i)) => t.push(*i),
            (Table::Str(t), Value::Str(s)) => t.push(Arc::clone(s)),
            (Table::Int(t), Value::Null) => t.push(0),
            (Table::Str(t), Value::Null) => t.push(Arc::from("")),
            (table, v) => {
                panic!("{v:?} is not a value of this {} dictionary", table.value_type().name())
            }
        }
        if v.is_null() {
            self.null = Some(code);
        }
        self.slots[at] = Slot { hash, code };
        code
    }
}

/// An append-only interning dictionary for one attribute: each distinct
/// [`Value`] of the attribute's type, and `Null`, maps to a dense `u32`
/// code in first-seen order.
///
/// Each distinct value is stored once, in a code → value vector of the
/// attribute's type (`i64` or `Arc<str>`); the value → code direction is
/// an index of 8-byte `(hash, code)` slots over that vector. A lookup
/// hashes the value once and compares it only against slots whose stored
/// hash agrees; a miss costs that same one hash; growth moves slots and
/// touches no value.
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
            ValueType::Int => Table::Int(Vec::new()),
            ValueType::Str => Table::Str(Vec::new()),
        };
        Dictionary { inner: RwLock::new(DictInner { table, null: None, slots: Vec::new() }) }
    }

    fn read(&self) -> RwLockReadGuard<'_, DictInner> {
        self.inner.read().expect("dictionary lock poisoned")
    }

    /// The type of the values this dictionary holds.
    pub fn value_type(&self) -> ValueType {
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

    /// Values the code → value table holds room for without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.read().table.capacity()
    }

    /// Releases the code → value table's spare capacity. Interning
    /// afterwards grows it again, the way a `Vec` grows.
    pub(crate) fn shrink_to_fit(&self) {
        self.inner.write().expect("dictionary lock poisoned").table.shrink_to_fit();
    }

    /// Interns `v`, returning its code.
    ///
    /// # Panics
    ///
    /// If `v` is neither `Null` nor of this dictionary's type. That is an
    /// internal invariant, not an input error: every [`Relation`] path
    /// validates values against its schema before interning, and
    /// [`Relation::with_dictionaries`] refuses a dictionary whose type
    /// differs from its attribute's.
    ///
    /// [`Relation`]: crate::Relation
    /// [`Relation::with_dictionaries`]: crate::Relation::with_dictionaries
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
    /// touch this dictionary. Panics as [`Dictionary::intern`] does.
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
                    Err(at) => sink(inner.insert_at(at, v, hash)),
                }
                let Some(next) = values.next() else { return };
                (v, hash) = (next, hash32(next));
            }
        }
    }

    /// The code of `v`, if it has been interned ([`NO_CODE`]-free lookup
    /// used when compiling pattern constants and translating join keys).
    /// A non-null value of the other type has none.
    pub fn code_of(&self, v: &Value) -> Option<u32> {
        self.read().find(v, hash32(v)).ok()
    }

    /// The canonical value of `code` (O(1) clone — see [`Value`]).
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

impl Clone for Dictionary {
    /// Deep copy: the clone interns independently from the original.
    /// (Fragments that must share codes clone the `Arc`, not the
    /// dictionary.)
    fn clone(&self) -> Self {
        Dictionary { inner: RwLock::new(self.read().clone()) }
    }
}

/// One dictionary-encoded column of a relation: a shared [`Dictionary`]
/// plus one dense vector of codes, one per row in insertion order.
///
/// A column is written two ways, and both cost what is written rather
/// than what is stored. Values append through [`Column::extend_values`]
/// (one pass: the dictionary's read lock across known values, its write
/// lock across each run of values not seen before; [`Column::push`] is
/// the one-value case); codes copied from a column over the same
/// dictionary append as they are. Rows leave through
/// [`Column::remove_rows`], which closes the gaps in place — one
/// `copy_within` per run of survivors — and allocates nothing.
#[derive(Debug, Clone)]
pub struct Column {
    dict: Arc<Dictionary>,
    codes: Vec<u32>,
}

impl Column {
    /// Creates an empty column over a fresh dictionary for values of
    /// type `ty`.
    pub fn new(ty: ValueType) -> Self {
        Column::sharing(Arc::new(Dictionary::new(ty)))
    }

    /// Creates an empty column sharing `dict` (codes stay comparable with
    /// every other column over `dict`).
    pub fn sharing(dict: Arc<Dictionary>) -> Self {
        Column::with_capacity(dict, 0)
    }

    /// An empty column sharing `dict` with room for exactly `cap` rows.
    pub(crate) fn with_capacity(dict: Arc<Dictionary>, cap: usize) -> Self {
        Column { dict, codes: Vec::with_capacity(cap) }
    }

    /// The column's dictionary.
    pub fn dict(&self) -> &Arc<Dictionary> {
        &self.dict
    }

    /// The codes, one per row.
    #[inline]
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Rows the column holds room for without reallocating.
    pub fn capacity(&self) -> usize {
        self.codes.capacity()
    }

    /// Appends an already interned code. The caller guarantees the
    /// dictionary assigned it ([`Dictionary::len`] bounds the valid ones).
    #[inline]
    pub(crate) fn push_raw(&mut self, code: u32) {
        self.codes.push(code);
    }

    /// Appends a value, interning it; returns its code. Panics as
    /// [`Dictionary::intern`] does.
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
    /// this column's dictionary. Panics as [`Dictionary::intern`] does.
    pub fn extend_values<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        let dict = Arc::clone(&self.dict);
        dict.intern_each(values, |code| self.push_raw(code));
    }

    /// Appends the codes `src` holds at `rows`, in the given order. The
    /// caller guarantees both columns share one dictionary, so the codes
    /// mean the same here as there.
    pub(crate) fn extend_from_rows(&mut self, src: &Column, rows: &[usize]) {
        self.codes.extend(rows.iter().map(|&r| src.codes[r]));
    }

    /// Reserves room for `extra` more rows.
    pub fn reserve(&mut self, extra: usize) {
        self.codes.reserve(extra);
    }

    /// Removes the rows at `rows` (strictly increasing positions),
    /// preserving the order of the others. The delta-maintenance hook:
    /// dictionaries are append-only, so a removed row's code simply
    /// stops being referenced — codes are never recycled and stay
    /// decodable. Nothing is reallocated.
    pub fn remove_rows(&mut self, rows: &[usize]) {
        remove_positions(&mut self.codes, rows);
    }

    /// Decodes the value at `row`.
    pub fn decode(&self, row: usize) -> Value {
        self.dict.value(self.codes[row])
    }

    /// Decodes rows `start..end` in order under one dictionary read
    /// lock, handing each value to `f` (which must not intern).
    pub(crate) fn decode_range(&self, start: usize, end: usize, mut f: impl FnMut(Value)) {
        let inner = self.dict.read();
        for &code in &self.codes[start..end] {
            f(inner.value(code));
        }
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

    #[test]
    fn canonical_value_shares_allocation() {
        let d = Dictionary::new(ValueType::Str);
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
        let d = Dictionary::new(ValueType::Str);
        let v = Value::str("only copy");
        d.intern(&v);
        d.intern(&v.clone());
        let Value::Str(payload) = &v else { panic!("expected a string") };
        // The caller's handle plus the one in the code → value vector;
        // the index holds a hash and a code, not the value.
        assert_eq!(Arc::strong_count(payload), 2);
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

    #[test]
    fn the_index_survives_its_growths() {
        for ty in TYPES {
            let value = |i: usize| nth(ty, i);
            let d = Dictionary::new(ty);
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
    fn column_round_trips_values() {
        for ty in TYPES {
            let mut c = Column::new(ty);
            c.push(&nth(ty, 1));
            c.push(&nth(ty, 2));
            c.push(&nth(ty, 1));
            assert_eq!(c.len(), 3);
            assert_eq!(c.codes(), &[0, 1, 0]);
            assert_eq!(c.decode(1), nth(ty, 2));
            assert_eq!(c.to_string(), "Column[3 rows, 2 distinct]");
        }
    }

    #[test]
    fn extend_values_agrees_with_push() {
        for ty in TYPES {
            let [x, three, y, z] = [0, 3, 1, 2].map(|k| nth(ty, k));
            let values = [x.clone(), three.clone(), x, y.clone()];
            let mut plain = Column::new(ty);
            for v in &values {
                plain.push(v);
            }
            let mut bulk = Column::new(ty);
            bulk.extend_values(&values);
            assert_eq!(plain.codes(), bulk.codes());
            assert_eq!(bulk.dict().snapshot(), plain.dict().snapshot());
            // Two columns over one dictionary: the second run starts from
            // what the first interned, bulk or not.
            let more = [y, z, three];
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
    }

    #[test]
    fn remove_rows_keeps_order_and_dictionary() {
        let mut c = Column::new(ValueType::Str);
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
        let mut a = Column::new(ValueType::Str);
        a.push(&Value::str("x"));
        a.push(&Value::str("y"));
        let mut b = Column::sharing(a.dict().clone());
        b.push(&Value::str("y"));
        assert_eq!(b.codes(), &[1], "shared dictionary must reuse the parent's codes");
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
            let mut c = Column::new(ValueType::Int);
            c.extend_values(&model.iter().map(|&k| Value::Int(i64::from(k))).collect::<Vec<_>>());
            let codes = c.codes().to_vec();
            c.remove_rows(&removed);
            let mut want: Vec<u32> = codes
                .iter()
                .enumerate()
                .filter(|(i, _)| removed.binary_search(i).is_err())
                .map(|(_, &code)| code)
                .collect();
            proptest::prop_assert_eq!(c.codes(), &want[..]);
            c.push_raw(5);
            want.push(5);
            proptest::prop_assert_eq!(c.codes(), &want[..]);
        }
    }
}

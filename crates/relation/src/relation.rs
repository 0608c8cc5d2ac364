//! In-memory relations: a schema, a tuple-id column and one code column
//! per attribute.

use crate::delta::{DeltaEffect, RelationDelta};
use crate::error::RelationError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::schema::{AttrId, Schema, ValueType};
use crate::store::{remove_positions, Codes, Column, Dictionary};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Rows [`Relation::iter`] decodes per dictionary lock acquisition.
const DECODE_BATCH: usize = 1024;

/// Wire rows [`Relation::code_rows`] builds before it gathers their
/// cells a column at a time: 256 boxed rows of a cust-width relation are
/// ≈ 16 KB, inside L1, where a whole σ-block's rows are not.
const WIRE_BLOCK_ROWS: usize = 256;

/// Rows a load or a push interns per pass over the columns. Each column
/// pass re-reads the block's rows, so the block has to stay
/// cache-resident across all of them: 256 rows of a 16-attribute
/// relation are ≈ 100 KB of `Value`s plus their row buffers — inside a
/// private L2, where the whole input (read once per column) is not —
/// while still amortizing the per-pass lock acquisitions over hundreds
/// of rows.
const INGEST_BLOCK_ROWS: usize = 256;

/// An instance `D` of a relation schema `R`.
///
/// Storage is dictionary-encoded and columnar, and it is the *only* copy
/// of the data: one `Vec<TupleId>` plus one [`Column`] of codes per
/// attribute — 1, 2 or 4 bytes a code, as narrow as the column's codes
/// allow — each backed by a shareable [`Dictionary`] (see
/// [`crate::store`]). Row `i` of the relation is `tids()[i]` together with
/// the `i`-th code of every column; the tid column and all code columns
/// always have the same length.
///
/// Values enter as rows ([`Relation::push`], [`Relation::push_tuple`],
/// [`Relation::extend_rows`], [`Relation::extend_tuples`],
/// [`Relation::from_rows`], [`Relation::from_tuples`] and
/// [`Relation::apply_delta`]'s inserts), and every one of them becomes a
/// code in one encode step: a column's cells in row order, one
/// dictionary pass each, a full dictionary refused with
/// [`RelationError::DictionaryExhausted`]. Nothing value-typed is kept.
/// Values leave by *decode on demand*: [`Relation::iter`] and
/// [`Relation::row`] build owned [`Tuple`]s from the dictionaries,
/// [`Relation::decode_projection`] decodes one key. The detection engines
/// never decode rows — they read [`Relation::tids`] and the code columns
/// — so decode happens at the edges: reporting, predicates over values,
/// tests. Codes move between relations that share dictionaries as they
/// are: rows (fragments, selections, reassembly) through
/// [`Relation::extend_from`], whole columns (a vertical gather) through
/// [`Relation::from_columns`]. Only a relation writes its columns.
///
/// Tuples keep their [`TupleId`]s across fragmentation, projection and
/// shipment; pushing fresh rows assigns ids from an internal counter.
/// Relations are *bags* structurally, but detection semantics treat tuples
/// with equal ids as the same tuple.
#[derive(Debug, Clone)]
pub struct Relation {
    schema: Arc<Schema>,
    tids: Vec<TupleId>,
    /// One per schema attribute; the count never changes.
    columns: Box<[Column]>,
    next_tid: u64,
    /// Whether `tids` is strictly ascending, so that an id is found by
    /// binary search. Kept current by [`Relation::push_tid`]; removing
    /// rows cannot falsify it.
    ascending: bool,
}

impl Relation {
    /// Creates an empty relation over `schema`, with fresh dictionaries.
    pub fn new(schema: Arc<Schema>) -> Self {
        Relation::with_capacity(schema, 0)
    }

    /// Creates an empty relation with room for `cap` tuples, with one
    /// fresh dictionary per attribute, of the attribute's type.
    pub fn with_capacity(schema: Arc<Schema>, cap: usize) -> Self {
        let dicts = schema.attrs().iter().map(|a| Arc::new(Dictionary::new(a.ty))).collect();
        Relation::over(schema, dicts, cap)
    }

    /// Creates an empty relation with room for exactly `cap` tuples,
    /// whose columns share the given dictionaries (one per attribute, in
    /// schema order). This is the fragment constructor: fragments built
    /// over a parent relation's dictionaries keep their codes comparable
    /// with the parent and with each other, so nothing is re-encoded when
    /// tuples move between them. A dictionary whose value type differs
    /// from its attribute's type is a [`RelationError::SchemaMismatch`].
    pub fn with_dictionaries(
        schema: Arc<Schema>,
        dicts: Vec<Arc<Dictionary>>,
        cap: usize,
    ) -> Result<Self, RelationError> {
        if dicts.len() != schema.arity() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "{} dictionaries for arity-{} schema `{}`",
                    dicts.len(),
                    schema.arity(),
                    schema.name()
                ),
            });
        }
        let attrs = schema.attrs().iter();
        if let Some((attr, dict)) = attrs.zip(&dicts).find(|(a, d)| d.value_type() != a.ty) {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "`{}` of `{}` is {} but its dictionary holds {}",
                    attr.name,
                    schema.name(),
                    attr.ty.name(),
                    dict.value_type().name()
                ),
            });
        }
        Ok(Relation::over(schema, dicts, cap))
    }

    /// [`Self::with_dictionaries`] over dictionaries known to fit:
    /// one per attribute, each of its attribute's type.
    fn over(schema: Arc<Schema>, dicts: Vec<Arc<Dictionary>>, cap: usize) -> Self {
        let columns = dicts.into_iter().map(|d| Column::with_capacity(d, cap)).collect();
        Relation { schema, tids: Vec::with_capacity(cap), columns, next_tid: 0, ascending: true }
    }

    /// Creates an empty relation with this relation's schema and
    /// dictionaries — the natural start of a same-schema fragment,
    /// selection result, or reassembly target.
    pub fn empty_like(&self) -> Self {
        self.with_capacity_like(0)
    }

    /// [`Self::empty_like`] with room for `cap` tuples.
    pub fn with_capacity_like(&self, cap: usize) -> Self {
        let dicts = self.columns.iter().map(|c| c.dict().clone()).collect();
        Relation::over(self.schema.clone(), dicts, cap)
    }

    /// The schema of this relation.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty()
    }

    /// Tuples the tid column holds room for without reallocating (each
    /// code column reports its own, [`Column::capacity`]). Every
    /// constructor reserves exactly what it stores.
    pub fn capacity(&self) -> usize {
        self.tids.capacity()
    }

    /// Bytes the relation holds on the heap, from capacities: the tid
    /// column, the column array and each code column at its width
    /// ([`Column::heap_bytes`]), and each distinct
    /// dictionary once ([`Dictionary::heap_bytes`] plus its `Arc`'s
    /// allocation). What a drop frees when the relation is its
    /// dictionaries' last owner; the schema is not counted.
    pub fn heap_bytes(&self) -> usize {
        let arc = size_of::<Dictionary>() + 2 * size_of::<usize>();
        let dicts: usize = self
            .columns
            .iter()
            .enumerate()
            .filter(|&(at, c)| !self.columns[..at].iter().any(|p| Arc::ptr_eq(p.dict(), c.dict())))
            .map(|(_, c)| arc + c.dict().heap_bytes())
            .sum();
        let codes: usize = self.columns.iter().map(Column::heap_bytes).sum();
        self.tids.capacity() * size_of::<TupleId>() + size_of_val(&*self.columns) + codes + dicts
    }

    /// Appends a fresh row, assigning it the next tuple id. Values are
    /// validated against the schema (arity and types; `Null` is allowed
    /// for any type). A one-row [`Relation::extend_rows`].
    pub fn push(&mut self, values: Vec<Value>) -> Result<TupleId, RelationError> {
        let tid = TupleId(self.next_tid);
        self.push_tuple(Tuple::new(tid, values))?;
        Ok(tid)
    }

    /// Appends an existing tuple *preserving its id* (used when building
    /// fragments of an already-identified relation over foreign
    /// dictionaries, and by tests). The internal id counter is advanced
    /// past it, which is why `TupleId(u64::MAX)` is refused
    /// ([`RelationError::TupleIdOutOfRange`]). A one-tuple
    /// [`Relation::extend_tuples`].
    pub fn push_tuple(&mut self, tuple: Tuple) -> Result<(), RelationError> {
        self.extend_tuples(vec![tuple])
    }

    /// The one place a tuple id is appended; the caller has run
    /// [`check_tid`] on it.
    fn push_tid(&mut self, tid: TupleId) {
        self.ascending = self.tids.last().is_none_or(|&last| self.ascending && last < tid);
        self.next_tid = self.next_tid.max(tid.0 + 1);
        self.tids.push(tid);
    }

    /// Appends `rows` in order, assigning sequential ids. All rows are
    /// validated before anything is appended or interned, so a row the
    /// schema refuses leaves the relation and its dictionaries unchanged.
    /// The rows are then consumed a fixed block at a time — each block
    /// run through the encode step column by column, straight into the
    /// column, so a thread holds one dictionary lock at a time and every
    /// dictionary sees its values in row order — and released block by
    /// block, so the peak memory of a bulk load is the relation plus one
    /// block, not the relation plus the input. A dictionary with no room
    /// for a new value refuses the call with
    /// [`RelationError::DictionaryExhausted`]: the rows it appended are
    /// dropped again, and the dictionaries keep what it interned.
    pub fn extend_rows(&mut self, rows: Vec<Vec<Value>>) -> Result<(), RelationError> {
        let first = self.next_tid;
        // Ids past the last assignable one saturate onto it and are
        // refused by the validation pass.
        self.extend_encoding(rows, |i, row| (TupleId(first.saturating_add(i as u64)), &row[..]))
    }

    /// Appends pre-identified tuples in order through the same block loop
    /// as [`Relation::extend_rows`], releasing them block by block and
    /// refusing as it does. All tuples are validated before anything is
    /// appended; ids are preserved and the internal counter advances past
    /// the largest one seen.
    pub fn extend_tuples(&mut self, tuples: Vec<Tuple>) -> Result<(), RelationError> {
        self.extend_encoding(tuples, |_, t| (t.tid, t.values()))
    }

    /// The one value-ingest path: validate everything, then take the
    /// owned input [`INGEST_BLOCK_ROWS`] rows at a time — each block's
    /// columns run through [`encode`] with the column as the sink, then
    /// its ids appended — and drop each block before the next one is
    /// read. `row_of(i, item)` is the id and values of the `i`-th item.
    /// With one dictionary per column (every relation the constructors
    /// here and in `dcd-dist` build) each dictionary sees its values in
    /// row order, call after call, so the codes do not depend on how the
    /// rows are cut into calls. A refusal puts back the rows, the id
    /// counter and the order flag the call found.
    fn extend_encoding<T>(
        &mut self,
        items: Vec<T>,
        row_of: impl Fn(usize, &T) -> (TupleId, &[Value]),
    ) -> Result<(), RelationError> {
        for (i, item) in items.iter().enumerate() {
            let (tid, values) = row_of(i, item);
            check_tid(tid)?;
            self.validate(values)?;
        }
        let (total, found) = (items.len(), (self.len(), self.next_tid, self.ascending));
        self.reserve(total);
        let mut rest = items.into_iter();
        while rest.len() > 0 {
            let (done, n) = (total - rest.len(), rest.len().min(INGEST_BLOCK_ROWS));
            let block = &rest.as_slice()[..n];
            let rows = || block.iter().enumerate().map(|(k, item)| row_of(done + k, item));
            for j in 0..self.columns.len() {
                let (dict, sink) = self.columns[j].sink();
                let cells = rows().map(|(_, values)| &values[j]);
                if let Err(refused) = encode(&self.schema, j, dict, cells, sink) {
                    self.roll_back(found);
                    return Err(refused);
                }
            }
            for (tid, _) in rows() {
                self.push_tid(tid);
            }
            rest.by_ref().take(n).for_each(drop);
        }
        Ok(())
    }

    /// Puts back what a refused load found: its length — every row past
    /// it is dropped, each column keeping its width — its id counter and
    /// its order flag.
    fn roll_back(&mut self, (len, next_tid, ascending): (usize, u64, bool)) {
        self.tids.truncate(len);
        for col in &mut self.columns {
            col.truncate(len);
        }
        (self.next_tid, self.ascending) = (next_tid, ascending);
    }

    /// Reserves room for `extra` more rows, once per batch rather than
    /// once per block of the ingest loop.
    fn reserve(&mut self, extra: usize) {
        self.tids.reserve(extra);
        for col in &mut self.columns {
            col.reserve(extra);
        }
    }

    /// The row position of each of `ids`, `None` for an id no row
    /// carries. While the tid column is strictly ascending — every
    /// fragment the `dcd-dist` constructors build, and every relation
    /// fed fresh ids — this is a binary search per id,
    /// `O(|ids| log |D|)`, and no search at all for an id above the last
    /// one (a fresh id, the common probe of a delta's inserts);
    /// otherwise (re-used ids, rows copied in arbitrary order,
    /// reassembled partitions) one scan of the tid column probing a map
    /// of `ids`, which reports the first row when several carry one id.
    /// Which one runs is read off the tid column; no caller chooses.
    pub fn positions_of(&self, ids: &[TupleId]) -> Vec<Option<usize>> {
        if self.ascending {
            let last = self.tids.last();
            return ids
                .iter()
                .map(|tid| {
                    if last.is_some_and(|last| tid <= last) {
                        self.tids.binary_search(tid).ok()
                    } else {
                        None
                    }
                })
                .collect();
        }
        let mut first: FxHashMap<TupleId, Option<usize>> =
            ids.iter().map(|&tid| (tid, None)).collect();
        for (i, tid) in self.tids.iter().enumerate() {
            if let Some(slot) = first.get_mut(tid) {
                slot.get_or_insert(i);
            }
        }
        ids.iter().map(|tid| first[tid]).collect()
    }

    /// Applies one delta batch in place — deletes first (order
    /// preserved among survivors), then inserts, interned column by
    /// column in row order, as [`Relation::extend_tuples`] interns. Returns the
    /// [`DeltaEffect`]: the full-width dictionary code rows of every
    /// affected tuple, which is both what the distributed delta protocol
    /// ships (4 bytes per cell) and what a violation index needs to stay
    /// current.
    ///
    /// This is [`Relation::locate_delta`], [`PendingDelta::encode`] and
    /// [`EncodedDelta::apply`]: everything is checked before a row
    /// mutates, so an error leaves the relation's rows unchanged.
    pub fn apply_delta(&mut self, delta: &RelationDelta) -> Result<DeltaEffect, RelationError> {
        Ok(self.locate_delta(delta)?.encode()?.apply())
    }

    /// The check half of [`Relation::apply_delta`]: validates `delta`
    /// against this relation and locates its deletes, mutating nothing.
    /// A delete id that is absent (or repeated within the delta), an
    /// insert that fails schema validation or carries `TupleId(u64::MAX)`,
    /// or an insert whose id is already live (present and not deleted by
    /// this same delta) or repeated within the delta, is an error. The id
    /// checks matter beyond hygiene: a violation index keyed by tuple id
    /// silently corrupts if two live rows ever share one.
    ///
    /// The result holds the relation until it is applied or dropped, so
    /// nothing moves the located rows in between, and dropping it leaves
    /// the relation as it was. A caller applying one batch across several
    /// relations locates every part before applying any, and a rejected
    /// batch then mutates none of them: `dcd-dist`'s
    /// `HorizontalPartition::apply_delta` and
    /// `VerticalPartition::apply_delta` do, its two callers. They then
    /// encode every part on one thread, in part order, and append the
    /// encoded parts in parallel, so no two threads ever intern and the
    /// codes do not depend on how many there are.
    ///
    /// Ids are located through [`Relation::positions_of`], once each:
    /// `O(|Δ| log |D|)` while the tid column is ascending, one scan of it
    /// otherwise.
    pub fn locate_delta<'r, 'd>(
        &'r mut self,
        delta: &'d RelationDelta,
    ) -> Result<PendingDelta<'r, 'd>, RelationError> {
        let mut insert_ids: FxHashSet<TupleId> = FxHashSet::default();
        for t in &delta.inserts {
            check_tid(t.tid)?;
            self.validate(t.values())?;
            if !insert_ids.insert(t.tid) {
                return Err(RelationError::DuplicateTuple { tid: t.tid.0 });
            }
        }
        // A repeated delete reports the first id, in delete order, that
        // occurs more than once: one pass finds the repeated ids, and a
        // second finds the first of them.
        let mut wanted: FxHashSet<TupleId> =
            FxHashSet::with_capacity_and_hasher(delta.deletes.len(), Default::default());
        let mut repeated: FxHashSet<TupleId> = FxHashSet::default();
        for &tid in &delta.deletes {
            if !wanted.insert(tid) {
                repeated.insert(tid);
            }
        }
        if let Some(dup) = delta.deletes.iter().find(|tid| repeated.contains(tid)) {
            return Err(RelationError::UnknownTuple { tid: dup.0 });
        }
        // One lookup locates every delete and every inserted id that is
        // live and not deleted by this very delta; of those, the first
        // in row order is reported.
        let inserted = delta.inserts.iter().map(|t| t.tid).filter(|tid| !wanted.contains(tid));
        let probe: Vec<TupleId> = delta.deletes.iter().copied().chain(inserted).collect();
        let found = self.positions_of(&probe);
        let (located, live) = found.split_at(delta.deletes.len());
        if let Some(&i) = live.iter().flatten().min() {
            return Err(RelationError::DuplicateTuple { tid: self.tids[i].0 });
        }
        let doomed = delta
            .deletes
            .iter()
            .zip(located)
            .map(|(tid, pos)| pos.ok_or(RelationError::UnknownTuple { tid: tid.0 }))
            .collect::<Result<_, _>>()?;
        Ok(PendingDelta { rel: self, delta, doomed })
    }

    /// The tuple ids, in row order — row `i` is `tids()[i]` plus the
    /// `i`-th code of every column. This is what engine code that only
    /// needs ids reads; it never decodes a row.
    pub fn tids(&self) -> &[TupleId] {
        &self.tids
    }

    /// All dictionary-encoded columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The dictionary-encoded column of one attribute.
    #[inline]
    pub fn column(&self, attr: AttrId) -> &Column {
        &self.columns[attr.index()]
    }

    /// The dictionary of one attribute's column.
    #[inline]
    pub fn dictionary(&self, attr: AttrId) -> &Arc<Dictionary> {
        self.columns[attr.index()].dict()
    }

    /// The dictionaries of the given attributes, cloned `Arc`s in the
    /// given order (what fragment constructors pass to
    /// [`Relation::with_dictionaries`]).
    pub fn dictionaries_of(&self, attrs: &[AttrId]) -> Vec<Arc<Dictionary>> {
        attrs.iter().map(|&a| self.columns[a.index()].dict().clone()).collect()
    }

    /// The code views of the given attributes, in order, each at its
    /// column's width — the inputs of every code-keyed hot loop
    /// (group-by, σ-partitioning, join keys).
    pub fn code_views(&self, attrs: &[AttrId]) -> Vec<Codes<'_>> {
        attrs.iter().map(|&a| self.columns[a.index()].codes()).collect()
    }

    /// Decodes a code vector produced over `attrs` back into values
    /// (e.g. a group key) — one dictionary read per attribute, not per
    /// tuple.
    pub fn decode_projection(&self, attrs: &[AttrId], codes: &[u32]) -> Vec<Value> {
        attrs
            .iter()
            .zip(codes)
            .map(|(&a, &code)| self.columns[a.index()].dict().value(code))
            .collect()
    }

    /// The `(tid, codes)` wire rows of the given tuple indices,
    /// projected onto `attrs` (in the given order) — what a site
    /// serializes when shipping a σ-block to a coordinator over the
    /// code-native wire. One `u32` per cell, whatever width the columns
    /// store; decoding happens only at the receiver, and only for
    /// violating group keys. The rows are built 256 at a
    /// time, and each block's cells are gathered a column at a time while
    /// its rows are still in cache.
    pub fn code_rows(&self, attrs: &[AttrId], rows: &[usize]) -> Vec<(TupleId, Box<[u32]>)> {
        let mut out: Vec<(TupleId, Box<[u32]>)> = Vec::with_capacity(rows.len());
        for block in rows.chunks(WIRE_BLOCK_ROWS) {
            let start = out.len();
            let blank = |&i: &usize| (self.tids[i], vec![0u32; attrs.len()].into_boxed_slice());
            out.extend(block.iter().map(blank));
            for (j, &a) in attrs.iter().enumerate() {
                let cells = &mut out[start..];
                self.columns[a.index()]
                    .codes()
                    .zip_at(block, cells, |(_, row), code| row[j] = code);
            }
        }
        out
    }

    /// A relation over `schema` on `dicts` (one per attribute, in schema
    /// order) whose rows carry `tids`: column `a` is a copy of
    /// `columns[a]`, whole, or `Null` in every row where that is `None`
    /// — the receiving end of a vertical gather, which ships columns, not
    /// rows. No value is decoded, hashed or interned, and each copied row
    /// is read once. A copied column must hold one row per id and share
    /// its attribute's dictionary (`Arc` identity, as
    /// [`Relation::extend_from`] checks — that is what makes a code mean
    /// the same value on both sides), and a padded attribute's dictionary
    /// must hold `Null`; anything else is a
    /// [`RelationError::SchemaMismatch`], as a dictionary of another type
    /// is ([`Relation::with_dictionaries`]). `TupleId(u64::MAX)` is a
    /// [`RelationError::TupleIdOutOfRange`].
    pub fn from_columns(
        schema: Arc<Schema>,
        dicts: Vec<Arc<Dictionary>>,
        tids: &[TupleId],
        columns: &[Option<&Column>],
    ) -> Result<Self, RelationError> {
        let (n, mut out) = (tids.len(), Relation::with_dictionaries(schema, dicts, tids.len())?);
        for &tid in tids {
            check_tid(tid)?;
            out.push_tid(tid);
        }
        let mut fits = columns.len() == out.columns.len();
        for (src, col) in columns.iter().zip(&mut out.columns) {
            fits &= match src {
                Some(src) if Arc::ptr_eq(src.dict(), col.dict()) && src.len() == n => {
                    col.extend_from_rows(src, 0..n);
                    true
                }
                Some(_) => false,
                None => {
                    let null = col.dict().code_of(&Value::Null);
                    null.map(|null| std::iter::repeat_n(null, n).for_each(col.sink().1)).is_some()
                }
            };
        }
        if !fits {
            let detail = format!(
                "`{}` takes a column per attribute, over its dictionary and {n} rows long, \
                 or a pad over a dictionary holding Null",
                out.schema.name()
            );
            return Err(RelationError::SchemaMismatch { detail });
        }
        Ok(out)
    }

    /// Appends rows `rows` of `src` by copying their ids and codes — no
    /// value is decoded, hashed or interned. Column `j` of this relation
    /// is fed from `src`'s column `attrs[j]`, and each such pair must
    /// share one dictionary (`Arc` identity — that is what makes a code
    /// mean the same value on both sides); anything else is a
    /// [`RelationError::SchemaMismatch`] and appends nothing. This is how
    /// rows move between a relation and its fragments, selections,
    /// projections and reassemblies. Panics if a row index is out of
    /// bounds for `src`.
    pub fn extend_from(
        &mut self,
        src: &Relation,
        attrs: &[AttrId],
        rows: &[usize],
    ) -> Result<(), RelationError> {
        let shared = attrs.len() == self.columns.len()
            && attrs
                .iter()
                .zip(&self.columns)
                .all(|(&a, col)| Arc::ptr_eq(col.dict(), src.dictionary(a)));
        if !shared {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "`{}` does not share the dictionaries of the {} column(s) copied from `{}`",
                    self.schema.name(),
                    attrs.len(),
                    src.schema.name()
                ),
            });
        }
        self.append_rows(src, attrs, rows);
        Ok(())
    }

    /// [`Self::extend_from`] once its columns are known to share `src`'s
    /// dictionaries.
    fn append_rows(&mut self, src: &Relation, attrs: &[AttrId], rows: &[usize]) {
        self.tids.reserve(rows.len());
        for &r in rows {
            self.push_tid(src.tids[r]);
        }
        for (&a, col) in attrs.iter().zip(&mut self.columns) {
            col.extend_from_rows(src.column(a), rows);
        }
    }

    /// The given rows of this relation as a new relation over the same
    /// schema and dictionaries, in the given order
    /// ([`Relation::extend_from`] onto [`Relation::empty_like`]).
    pub fn copy_rows(&self, rows: &[usize]) -> Relation {
        let attrs: Vec<AttrId> = self.schema.attr_ids().collect();
        let mut out = self.with_capacity_like(rows.len());
        // A relation shares its own dictionaries.
        out.append_rows(self, &attrs, rows);
        out
    }

    /// Decodes row `i` into an owned tuple. Panics if `i` is out of
    /// bounds.
    pub fn row(&self, i: usize) -> Tuple {
        Tuple::new(self.tids[i], self.columns.iter().map(|c| c.decode(i)).collect())
    }

    /// Iterates over the tuples in row order, decoding each into an owned
    /// [`Tuple`]. Decoding runs a batch of rows at a time, column by
    /// column, so a scan takes each dictionary's read lock once per
    /// batch rather than once per cell, and holds none between items.
    pub fn iter(&self) -> Rows<'_> {
        Rows { rel: self, next: 0, batch: Vec::new().into_iter() }
    }

    fn decode_range(&self, start: usize, end: usize) -> Vec<Tuple> {
        let arity = self.columns.len();
        let mut cells: Vec<Vec<Value>> =
            self.tids[start..end].iter().map(|_| Vec::with_capacity(arity)).collect();
        for col in &self.columns {
            col.decode_range(start, &mut cells);
        }
        self.tids[start..end].iter().zip(cells).map(|(&tid, vs)| Tuple::new(tid, vs)).collect()
    }

    /// Builds a relation from pre-identified tuples, via the bulk
    /// [`Relation::extend_tuples`] path. Its fresh dictionaries are
    /// trimmed to what they hold and unindexed until probed.
    pub fn from_tuples(schema: Arc<Schema>, tuples: Vec<Tuple>) -> Result<Self, RelationError> {
        let mut rel = Relation::with_capacity(schema, tuples.len());
        rel.extend_tuples(tuples)?;
        Ok(rel.trimmed())
    }

    /// Builds a relation from literal rows, assigning fresh ids in
    /// order, via the bulk [`Relation::extend_rows`] path. Its fresh
    /// dictionaries are trimmed to what they hold and unindexed until
    /// probed.
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Vec<Value>>) -> Result<Self, RelationError> {
        let mut rel = Relation::with_capacity(schema, rows.len());
        rel.extend_rows(rows)?;
        Ok(rel.trimmed())
    }

    /// Releases the spare capacity of the value tables a load filled —
    /// the columns were sized exactly up front, a dictionary cannot be,
    /// since its length is the number of distinct values — and drops
    /// their value → code indexes, which detection probes only to
    /// compile pattern constants.
    fn trimmed(self) -> Self {
        for col in &self.columns {
            col.dict().trim();
        }
        self
    }

    fn validate(&self, values: &[Value]) -> Result<(), RelationError> {
        if values.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            let attr = self.schema.attr(AttrId(i as u16));
            let ok = matches!(
                (attr.ty, v),
                (_, Value::Null)
                    | (ValueType::Int, Value::Int(_))
                    | (ValueType::Str, Value::Str(_))
            );
            if !ok {
                return Err(RelationError::TypeMismatch {
                    attr: attr.name.clone(),
                    expected: attr.ty.name(),
                    got: format!("{v:?}"),
                });
            }
        }
        Ok(())
    }
}

/// A delta that [`Relation::locate_delta`] checked against one relation
/// and located in it. It holds that relation until
/// [`PendingDelta::encode`] interns its inserts; dropped instead, it
/// leaves the relation as it was.
#[derive(Debug)]
pub struct PendingDelta<'r, 'd> {
    rel: &'r mut Relation,
    delta: &'d RelationDelta,
    /// The row of each delete, in delete order.
    doomed: Vec<usize>,
}

impl<'r, 'd> PendingDelta<'r, 'd> {
    /// Interns the inserts' values into the relation's dictionaries — a
    /// column at a time, each column's values in row order, one
    /// dictionary pass each — and keeps their codes for
    /// [`EncodedDelta::apply`]. No row of the relation changes. A column
    /// whose new values its dictionary has no room for is refused with
    /// [`RelationError::DictionaryExhausted`]; the values of that column
    /// interned before the refusal stay in its dictionary, where no row
    /// refers to them, as a deleted row's values stay.
    pub fn encode(self) -> Result<EncodedDelta<'r, 'd>, RelationError> {
        let PendingDelta { rel, delta, doomed } = self;
        let mut codes = Vec::with_capacity(rel.columns.len() * delta.inserts.len());
        for (j, col) in rel.columns.iter().enumerate() {
            let cells = delta.inserts.iter().map(|t| &t.values()[j]);
            encode(&rel.schema, j, col.dict(), cells, |code| codes.push(code))?;
        }
        Ok(EncodedDelta { rel, delta, doomed, codes })
    }
}

/// The one encode step, where a value becomes a code: interns `cells`,
/// attribute `j`'s values in row order, into its dictionary `dict` in
/// one pass (`Dictionary::intern_each`), handing each code to `sink`.
/// Every way a value enters a relation runs it: a load or a push with
/// the column itself as the sink, a delta into a buffer that
/// [`EncodedDelta::apply`] appends later. A new value `dict` has no
/// room for is refused with [`RelationError::DictionaryExhausted`]; the
/// codes before it reached `sink`, and their values stay in `dict`.
fn encode<'a>(
    schema: &Schema,
    j: usize,
    dict: &Dictionary,
    cells: impl Iterator<Item = &'a Value>,
    sink: impl FnMut(u32),
) -> Result<(), RelationError> {
    dict.intern_each(cells, sink).map_err(|full| RelationError::DictionaryExhausted {
        attr: schema.attr_name(AttrId(j as u16)).to_string(),
        what: full.what(),
    })
}

/// A located delta whose inserts are interned: what is left to do
/// appends codes and moves rows, and interns nothing.
#[derive(Debug)]
pub struct EncodedDelta<'r, 'd> {
    rel: &'r mut Relation,
    delta: &'d RelationDelta,
    doomed: Vec<usize>,
    /// The inserts' codes, column-major: column `j`'s are
    /// `codes[j * n..(j + 1) * n]` for `n` inserts.
    codes: Vec<u32>,
}

impl EncodedDelta<'_, '_> {
    /// Applies the delta: the deletes' rows leave every column in place
    /// (one `copy_within` per run of survivors, no allocation), then the
    /// inserts' codes append, a column at a time. Returns the code rows
    /// of every deleted and inserted tuple.
    pub fn apply(self) -> DeltaEffect {
        let EncodedDelta { rel, delta, mut doomed, codes } = self;
        let attrs: Vec<AttrId> = rel.schema.attr_ids().collect();
        let deleted = rel.code_rows(&attrs, &doomed);
        doomed.sort_unstable();
        remove_positions(&mut rel.tids, &doomed);
        for col in &mut rel.columns {
            col.remove_rows(&doomed);
        }

        let first_new = rel.tids.len();
        let n = delta.inserts.len();
        rel.reserve(n);
        if n > 0 {
            for (col, column) in rel.columns.iter_mut().zip(codes.chunks(n)) {
                column.iter().copied().for_each(col.sink().1);
            }
        }
        for t in &delta.inserts {
            rel.push_tid(t.tid);
        }
        let new_rows: Vec<usize> = (first_new..rel.tids.len()).collect();
        DeltaEffect { inserted: rel.code_rows(&attrs, &new_rows), deleted }
    }
}

/// Refuses the one id the counter cannot advance past: `next_tid` is
/// always one more than the largest id seen.
fn check_tid(tid: TupleId) -> Result<(), RelationError> {
    match tid.0 {
        u64::MAX => Err(RelationError::TupleIdOutOfRange { tid: tid.0 }),
        _ => Ok(()),
    }
}

/// The decoding row iterator of a [`Relation`] (see [`Relation::iter`]).
#[derive(Debug)]
pub struct Rows<'a> {
    rel: &'a Relation,
    /// First row not yet decoded into `batch`.
    next: usize,
    batch: std::vec::IntoIter<Tuple>,
}

impl Iterator for Rows<'_> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.batch.as_slice().is_empty() && self.next < self.rel.len() {
            let end = (self.next + DECODE_BATCH).min(self.rel.len());
            self.batch = self.rel.decode_range(self.next, end).into_iter();
            self.next = end;
        }
        self.batch.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.batch.len() + self.rel.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} [{} tuples]", self.schema, self.len())?;
        for t in self.decode_range(0, self.len().min(20)) {
            writeln!(f, "  {t}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  … {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vals;

    fn schema() -> Arc<Schema> {
        Schema::builder("r").attr("a", ValueType::Int).attr("b", ValueType::Str).build().unwrap()
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut r = Relation::new(schema());
        assert_eq!(r.push(vals![1, "x"]).unwrap(), TupleId(0));
        assert_eq!(r.push(vals![2, "y"]).unwrap(), TupleId(1));
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn arity_validation() {
        let mut r = Relation::new(schema());
        let err = r.push(vals![1]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { expected: 2, got: 1 }));
    }

    #[test]
    fn type_validation_allows_null() {
        let mut r = Relation::new(schema());
        r.push(vals![Value::Null, Value::Null]).unwrap();
        let err = r.push(vals!["oops", "x"]).unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
    }

    #[test]
    fn push_tuple_preserves_and_advances_ids() {
        let mut r = Relation::new(schema());
        r.push_tuple(Tuple::new(TupleId(10), vals![1, "x"])).unwrap();
        // Fresh pushes continue after the max seen id.
        assert_eq!(r.push(vals![2, "y"]).unwrap(), TupleId(11));
        assert_eq!(r.tids(), &[TupleId(10), TupleId(11)]);
    }

    #[test]
    fn from_rows_and_from_tuples() {
        let r = Relation::from_rows(schema(), vec![vals![1, "a"], vals![2, "b"]]).unwrap();
        assert_eq!(r.len(), 2);
        let r2 = Relation::from_tuples(schema(), r.iter().collect()).unwrap();
        assert_eq!(r2.len(), 2);
        assert_eq!(r2.tids()[0], TupleId(0));
        assert!(r2.iter().eq(r.iter()));
    }

    /// One value sequence through every way in — a row at a time by
    /// `push` and `push_tuple`, `extend_rows` cut at 1, 255, 256 and 257
    /// rows (either side of a load's block edge), `from_tuples`, and
    /// `apply_delta` inserts — leaves equal codes, widths and
    /// dictionaries. Column `a` takes 300 distinct values, so its codes
    /// cross the one-byte edge; `b` repeats four strings and `Null`.
    #[test]
    fn extend_rows_matches_cell_by_cell_push() {
        let rows: Vec<Vec<Value>> = (0..600)
            .map(|i| match i % 11 {
                5 => vals![i % 300, Value::Null],
                _ => vals![i % 300, format!("s{}", i % 4)],
            })
            .collect();
        let tuples = || -> Vec<Tuple> {
            rows.iter().enumerate().map(|(i, r)| Tuple::new(TupleId(i as u64), r.clone())).collect()
        };
        let mut pushed = Relation::new(schema());
        for row in rows.clone() {
            pushed.push(row).unwrap();
        }
        let mut ways = vec![("push_tuple", Relation::new(schema()))];
        for t in tuples() {
            ways[0].1.push_tuple(t).unwrap();
        }
        for cut in [1, 255, 256, 257] {
            let mut bulk = Relation::new(schema());
            for block in rows.chunks(cut) {
                bulk.extend_rows(block.to_vec()).unwrap();
            }
            ways.push(("extend_rows", bulk));
        }
        ways.push(("from_tuples", Relation::from_tuples(schema(), tuples()).unwrap()));
        let mut delta = Relation::new(schema());
        let mut head = tuples();
        let tail = head.split_off(256);
        for inserts in [head, tail] {
            delta.apply_delta(&crate::RelationDelta::new(inserts, vec![])).unwrap();
        }
        ways.push(("apply_delta", delta));
        assert_eq!(pushed.columns()[0].width(), 2, "the codes of `a` cross 255");
        for (way, rel) in &mut ways {
            assert!(rel.iter().eq(pushed.iter()), "{way}");
            for (a, b) in rel.columns().iter().zip(pushed.columns()) {
                assert_eq!((a.codes(), a.width()), (b.codes(), b.width()), "{way}");
                assert_eq!(a.dict().snapshot(), b.dict().snapshot(), "{way}");
            }
            // Fresh pushes continue after the batch.
            assert_eq!(rel.push(vals![9, "z"]).unwrap(), TupleId(600), "{way}");
        }
    }

    #[test]
    fn extend_rows_validates_everything_before_appending() {
        let mut r = Relation::new(schema());
        r.push(vals![1, "x"]).unwrap();
        let err = r.extend_rows(vec![vals![2, "y"], vals![3]]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(r.len(), 1, "a failing batch must leave the relation unchanged");
        assert_eq!(r.columns()[0].len(), 1);
    }

    #[test]
    fn extend_tuples_preserves_ids_and_advances_counter() {
        let mut r = Relation::new(schema());
        r.extend_tuples(vec![
            Tuple::new(TupleId(5), vals![1, "x"]),
            Tuple::new(TupleId(2), vals![1, "y"]),
        ])
        .unwrap();
        assert_eq!(r.push(vals![2, "z"]).unwrap(), TupleId(6));
        assert_eq!(r.tids(), &[TupleId(5), TupleId(2), TupleId(6)]);
        assert_eq!(r.columns()[0].codes().to_vec(), &[0, 0, 1]);
    }

    #[test]
    fn apply_delta_deletes_then_inserts_and_reports_codes() {
        let mut r =
            Relation::from_rows(schema(), vec![vals![1, "x"], vals![2, "y"], vals![3, "x"]])
                .unwrap();
        let delta = crate::RelationDelta::new(
            vec![Tuple::new(TupleId(10), vals![2, "z"])],
            vec![TupleId(1)],
        );
        let effect = r.apply_delta(&delta).unwrap();
        // Deleted row 1 carried codes (1, 1); the insert re-uses code 1
        // for value 2 and interns "z" fresh.
        assert_eq!(effect.deleted, vec![(TupleId(1), vec![1, 1].into())]);
        assert_eq!(effect.inserted, vec![(TupleId(10), vec![1, 2].into())]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.columns()[0].codes().to_vec(), &[0, 2, 1]);
        assert_eq!(r.columns()[1].codes().to_vec(), &[0, 0, 2]);
        // Survivor order is preserved; the id counter advanced.
        assert_eq!(r.tids(), &[TupleId(0), TupleId(2), TupleId(10)]);
        assert_eq!(r.push(vals![9, "w"]).unwrap(), TupleId(11));
    }

    #[test]
    fn apply_delta_is_all_or_nothing() {
        let mut r = Relation::from_rows(schema(), vec![vals![1, "x"], vals![2, "y"]]).unwrap();
        let snapshot: Vec<Tuple> = r.iter().collect();
        // Unknown delete id.
        let err = r.apply_delta(&crate::RelationDelta::new(vec![], vec![TupleId(99)])).unwrap_err();
        assert!(matches!(err, RelationError::UnknownTuple { tid: 99 }));
        // Duplicated delete id.
        let err = r
            .apply_delta(&crate::RelationDelta::new(vec![], vec![TupleId(0), TupleId(0)]))
            .unwrap_err();
        assert!(matches!(err, RelationError::UnknownTuple { tid: 0 }));
        // Ill-typed insert, alongside a valid delete that must not run.
        let err = r
            .apply_delta(&crate::RelationDelta::new(
                vec![Tuple::new(TupleId(5), vals!["oops", "x"])],
                vec![TupleId(0)],
            ))
            .unwrap_err();
        assert!(matches!(err, RelationError::TypeMismatch { .. }));
        assert!(r.iter().eq(snapshot.iter().cloned()), "failed deltas must not mutate");
        assert_eq!(r.columns()[0].len(), 2);
    }

    #[test]
    fn a_repeated_delete_reports_the_first_repeated_id_in_delete_order() {
        let mut r = Relation::from_rows(schema(), (0..4).map(|i| vals![i, "x"]).collect()).unwrap();
        let snapshot: Vec<Tuple> = r.iter().collect();
        let [a, b, c, absent] = [0, 1, 2, 99].map(TupleId);
        let cases = [
            (vec![a, b, b, a], a),
            (vec![b, a, a, b], b),
            (vec![c, a, b, b], b),
            (vec![a, b, c, c, b], b),
            (vec![c, b, a, c, a, b], c),
            // The repeat is reported before any id is looked up.
            (vec![absent, a, a], a),
            (vec![absent, absent], absent),
        ];
        for (deletes, want) in cases {
            let err =
                r.apply_delta(&crate::RelationDelta::new(vec![], deletes.clone())).unwrap_err();
            assert_eq!(err, RelationError::UnknownTuple { tid: want.0 }, "{deletes:?}");
        }
        assert!(r.iter().eq(snapshot.iter().cloned()), "failed deltas must not mutate");
    }

    #[test]
    fn a_million_deletes_with_one_repeat_are_refused_in_linear_time() {
        // Pairwise counting took seconds at 80 000 deletes and would take
        // minutes here.
        let mut r = Relation::from_rows(schema(), vec![vals![1, "x"]]).unwrap();
        let mut deletes: Vec<TupleId> = (0..1_000_000).map(TupleId).collect();
        deletes.push(TupleId(500_000));
        let err = r.apply_delta(&crate::RelationDelta::new(vec![], deletes)).unwrap_err();
        assert_eq!(err, RelationError::UnknownTuple { tid: 500_000 });
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn apply_delta_rejects_duplicate_insert_ids() {
        let mut r = Relation::from_rows(schema(), vec![vals![1, "x"], vals![2, "y"]]).unwrap();
        let snapshot: Vec<Tuple> = r.iter().collect();
        // Inserting an id that is already live fails.
        let err = r
            .apply_delta(&crate::RelationDelta::new(
                vec![Tuple::new(TupleId(1), vals![9, "z"])],
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateTuple { tid: 1 }));
        // The same id twice within one delta fails.
        let err = r
            .apply_delta(&crate::RelationDelta::new(
                vec![Tuple::new(TupleId(5), vals![8, "a"]), Tuple::new(TupleId(5), vals![9, "b"])],
                vec![],
            ))
            .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateTuple { tid: 5 }));
        assert!(r.iter().eq(snapshot.iter().cloned()), "failed deltas must not mutate");
        // Delete-then-reinsert of one id within a single delta is fine
        // (deletes apply first).
        r.apply_delta(&crate::RelationDelta::new(
            vec![Tuple::new(TupleId(0), vals![7, "w"])],
            vec![TupleId(0)],
        ))
        .unwrap();
        assert_eq!(r.len(), 2);
        let reinserted = r.iter().find(|t| t.tid == TupleId(0)).unwrap();
        assert_eq!(reinserted.get(AttrId(0)), &Value::Int(7));
    }

    #[test]
    fn positions_of_agrees_on_ascending_and_unordered_ids() {
        let asc = Relation::from_rows(schema(), (0..9).map(|i| vals![i, "x"]).collect()).unwrap();
        let mixed = asc.copy_rows(&[4, 0, 8, 2, 6]);
        let ids = [TupleId(8), TupleId(3), TupleId(0), TupleId(8), TupleId(77)];
        assert_eq!(asc.positions_of(&ids), vec![Some(8), Some(3), Some(0), Some(8), None]);
        assert_eq!(mixed.positions_of(&ids), vec![Some(2), None, Some(1), Some(2), None]);
        assert!(asc.positions_of(&[]).is_empty());
        // Ids below, inside, between and above a column's range: 10..20
        // by twos, ascending, and the same rows in another order.
        let sparse = Relation::from_tuples(
            schema(),
            (10..20).step_by(2).map(|i| Tuple::new(TupleId(i), vals![i as i64, "x"])).collect(),
        )
        .unwrap();
        let unordered = sparse.copy_rows(&[3, 0, 4, 1, 2]);
        let probe = [3, 10, 13, 16, 18, 19, 20, u64::MAX - 1].map(TupleId);
        let want = [None, Some(0), None, Some(3), Some(4), None, None, None];
        assert_eq!(sparse.positions_of(&probe), want);
        let want = [None, Some(1), None, Some(0), Some(2), None, None, None];
        assert_eq!(unordered.positions_of(&probe), want);
        assert_eq!(sparse.empty_like().positions_of(&probe), [None; 8]);
        // Deleting keeps an ascending column ascending; emptying any
        // column makes it ascending again.
        let mut r = mixed;
        r.apply_delta(&crate::RelationDelta::new(vec![], r.tids().to_vec())).unwrap();
        r.push_tuple(Tuple::new(TupleId(5), vals![1, "y"])).unwrap();
        r.push_tuple(Tuple::new(TupleId(9), vals![1, "y"])).unwrap();
        assert_eq!(r.positions_of(&[TupleId(9), TupleId(5)]), vec![Some(1), Some(0)]);
    }

    #[test]
    fn the_largest_tuple_id_is_refused_before_anything_is_stored() {
        let mut r = Relation::from_rows(schema(), vec![vals![1, "x"]]).unwrap();
        let top = || Tuple::new(TupleId(u64::MAX), vals![2, "y"]);
        let refused = RelationError::TupleIdOutOfRange { tid: u64::MAX };
        assert_eq!(r.push_tuple(top()).unwrap_err(), refused);
        let batch = vec![Tuple::new(TupleId(7), vals![2, "y"]), top()];
        assert_eq!(r.extend_tuples(batch).unwrap_err(), refused);
        let gathered = Relation::from_columns(
            r.schema().clone(),
            r.dictionaries_of(&[AttrId(0), AttrId(1)]),
            &[TupleId(u64::MAX)],
            &[None, None],
        );
        assert_eq!(gathered.unwrap_err(), refused);
        let delta = crate::RelationDelta::new(vec![top()], vec![TupleId(0)]);
        assert_eq!(r.apply_delta(&delta).unwrap_err(), refused);
        // Fresh ids run out one short of the top, without wrapping.
        r.push_tuple(Tuple::new(TupleId(u64::MAX - 2), vals![2, "y"])).unwrap();
        assert_eq!(r.extend_rows(vec![vals![3, "z"]; 3]).unwrap_err(), refused);
        assert_eq!(r.tids(), &[TupleId(0), TupleId(u64::MAX - 2)]);
        assert!(r.columns().iter().all(|c| c.len() == 2));
        assert_eq!(r.dictionary(AttrId(1)).len(), 2, "nothing was interned on the way");
        assert_eq!(r.push(vals![3, "z"]).unwrap(), TupleId(u64::MAX - 1));
        assert_eq!(r.push(vals![3, "z"]).unwrap_err(), refused);
    }

    #[test]
    fn apply_delta_matches_manual_rebuild() {
        let mut live = Relation::from_rows(
            schema(),
            (0..20).map(|i| vals![i % 5, format!("s{}", i % 3)]).collect(),
        )
        .unwrap();
        let delta = crate::RelationDelta::new(
            (0..4).map(|i| Tuple::new(TupleId(100 + i), vals![7, format!("n{i}")])).collect(),
            vec![TupleId(3), TupleId(11), TupleId(19)],
        );
        live.apply_delta(&delta).unwrap();
        // A from-scratch rebuild of the same final row multiset agrees
        // tuple for tuple (ids and values).
        let survivors: Vec<Tuple> = live.iter().collect();
        let rebuilt = Relation::from_tuples(schema(), survivors.clone()).unwrap();
        assert!(rebuilt.iter().eq(survivors));
        assert_eq!(live.len(), 21);
    }

    #[test]
    fn code_rows_ship_the_codes_of_the_rows_asked_for() {
        let parent =
            Relation::from_rows(schema(), vec![vals![1, "x"], vals![2, "y"], vals![1, "y"]])
                .unwrap();
        let rows = parent.code_rows(&[AttrId(1), AttrId(0)], &[2, 0]);
        assert_eq!(rows, vec![(TupleId(2), vec![1, 0].into()), (TupleId(0), vec![0, 0].into())]);
    }

    #[test]
    fn from_columns_copies_whole_columns_and_pads_with_null() {
        // 300 distinct values in `a`, then the rows past code 255 deleted:
        // the parent's column stays two bytes wide, its codes need one.
        let rows: Vec<Vec<Value>> = (0..300).map(|i| vals![i, format!("s{}", i % 3)]).collect();
        let mut parent = Relation::from_rows(schema(), rows).unwrap();
        let late: Vec<TupleId> = parent.tids()[256..].to_vec();
        parent.apply_delta(&crate::RelationDelta::new(vec![], late)).unwrap();
        let (a, b) = (AttrId(0), AttrId(1));
        let both = [Some(parent.column(a)), Some(parent.column(b))];
        let dicts = || parent.dictionaries_of(&[a, b]);
        let copy =
            Relation::from_columns(parent.schema().clone(), dicts(), parent.tids(), &both).unwrap();
        assert!(copy.iter().eq(parent.iter()));
        assert_eq!(copy.column(a).codes().to_vec(), parent.column(a).codes().to_vec());
        assert_eq!((parent.column(a).width(), copy.column(a).width()), (2, 1));
        // The id counter goes past the largest id the copy holds.
        assert_eq!(copy.clone().push(vals![5, "q"]).unwrap(), TupleId(256));
        // `b` padded with Null, on a dictionary of its own.
        let pad = Arc::new(Dictionary::new(ValueType::Str));
        pad.intern(&Value::Null);
        let padded = Relation::from_columns(
            parent.schema().clone(),
            vec![parent.dictionary(a).clone(), pad.clone()],
            parent.tids(),
            &[Some(parent.column(a)), None],
        )
        .unwrap();
        assert_eq!(padded.row(7), Tuple::new(TupleId(7), vals![7, Value::Null]));
        assert_eq!(padded.column(b).codes().to_vec(), vec![0; 256]);
        // A column over another dictionary, of another length, a pad
        // without Null, or a column too few are refused.
        let foreign = Relation::from_rows(schema(), vec![vals![1, "x"]; 256]).unwrap();
        let short = parent.copy_rows(&[0, 1]);
        let refusals = [
            (dicts(), vec![Some(foreign.column(a)), Some(parent.column(b))]),
            (dicts(), vec![Some(parent.column(a)), Some(short.column(b))]),
            (dicts(), vec![Some(parent.column(a)), None]),
            (dicts(), vec![Some(parent.column(a))]),
        ];
        for (dicts, columns) in refusals {
            let refused =
                Relation::from_columns(parent.schema().clone(), dicts, parent.tids(), &columns);
            assert!(matches!(refused, Err(RelationError::SchemaMismatch { .. })), "{columns:?}");
        }
    }

    #[test]
    fn extend_from_copies_codes_onto_a_column_subset() {
        let parent =
            Relation::from_rows(schema(), vec![vals![1, "x"], vals![2, "y"], vals![1, "y"]])
                .unwrap();
        let copy = parent.copy_rows(&[2, 0]);
        assert_eq!(copy.tids(), &[TupleId(2), TupleId(0)]);
        assert_eq!(copy.row(0), parent.row(2));
        assert_eq!(copy.row(1), parent.row(0));
        assert!(Arc::ptr_eq(copy.dictionary(AttrId(1)), parent.dictionary(AttrId(1))));
        assert_eq!(copy.clone().push(vals![5, "q"]).unwrap(), TupleId(3));
        // Onto the single column `b`.
        let b = AttrId(1);
        let only_b = parent.schema().project("r_b", &[b]).unwrap();
        let mut proj =
            Relation::with_dictionaries(only_b, parent.dictionaries_of(&[b]), 0).unwrap();
        proj.extend_from(&parent, &[b], &[1, 2]).unwrap();
        assert_eq!(proj.columns()[0].codes().to_vec(), &[1, 1]);
        assert_eq!(proj.row(0), Tuple::new(TupleId(1), vals!["y"]));
        // Foreign dictionaries (or a wrong column count) are refused
        // and append nothing.
        let mut foreign = Relation::new(schema());
        let all = [AttrId(0), AttrId(1)];
        assert!(matches!(
            foreign.extend_from(&parent, &all, &[0]),
            Err(RelationError::SchemaMismatch { .. })
        ));
        assert!(proj.extend_from(&parent, &all, &[0]).is_err());
        assert!(foreign.is_empty());
        assert_eq!(proj.len(), 2);
    }

    #[test]
    fn a_dictionary_of_another_type_is_refused() {
        let int = || Arc::new(Dictionary::new(ValueType::Int));
        let str = || Arc::new(Dictionary::new(ValueType::Str));
        assert!(Relation::with_dictionaries(schema(), vec![int(), str()], 0).is_ok());
        let err = Relation::with_dictionaries(schema(), vec![int(), int()], 4).unwrap_err();
        assert_eq!(
            err,
            RelationError::SchemaMismatch {
                detail: "`b` of `r` is Str but its dictionary holds Int".into()
            }
        );
        assert!(Relation::with_dictionaries(schema(), vec![str(), str()], 0).is_err());
    }

    #[test]
    fn a_built_relation_has_no_spare_dictionary_capacity() {
        // 300 rows: 100 distinct ints plus a null, 38 distinct strings;
        // neither table length is a power of two.
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|i| match i {
                7 => vals![Value::Null, "n"],
                _ => vals![i % 100, format!("s{}", i % 37)],
            })
            .collect();
        let by_rows = Relation::from_rows(schema(), rows).unwrap();
        let by_tuples = Relation::from_tuples(schema(), by_rows.iter().collect()).unwrap();
        for rel in [by_rows, by_tuples] {
            let dicts = rel.dictionaries_of(&[AttrId(0), AttrId(1)]);
            assert_eq!(dicts.iter().map(|d| d.len()).collect::<Vec<_>>(), [101, 38]);
            assert!(dicts.iter().all(|d| d.capacity() == d.len()), "spare capacity");
            assert!(dicts.iter().all(|d| !d.is_indexed()), "an index outlived the load");
            // A later insert still appends under the next code.
            let mut rel = rel;
            let insert = Tuple::new(TupleId(900), vals![-5, "s0"]);
            let effect = rel.apply_delta(&crate::RelationDelta::new(vec![insert], vec![])).unwrap();
            assert_eq!(effect.inserted, vec![(TupleId(900), vec![101, 0].into())]);
            assert_eq!(rel.dictionary(AttrId(0)).value(101), Value::Int(-5));
        }
    }

    #[test]
    fn iter_decodes_across_batches() {
        let n = DECODE_BATCH * 2 + 7;
        let rows: Vec<Vec<Value>> =
            (0..n).map(|i| vals![i as i64 % 11, format!("s{}", i % 5)]).collect();
        let r = Relation::from_rows(schema(), rows.clone()).unwrap();
        let mut it = r.iter();
        assert_eq!(it.len(), n);
        it.next();
        assert_eq!(it.len(), n - 1);
        assert_eq!(r.iter().count(), n);
        for (i, t) in r.iter().enumerate() {
            assert_eq!(t.tid, TupleId(i as u64));
            assert_eq!(t.values(), &rows[i][..]);
        }
        assert_eq!(r.row(n - 1).values(), &rows[n - 1][..]);
        assert_eq!(Relation::new(schema()).iter().count(), 0);
    }

    #[test]
    fn display_truncates() {
        let mut r = Relation::new(schema());
        for i in 0..25 {
            r.push(vals![i, "v"]).unwrap();
        }
        let s = r.to_string();
        assert!(s.contains("25 tuples"));
        assert!(s.contains("… 5 more"));
    }
}

//! The code-level group key, its flat code space, and bag projection.
//!
//! Every scan that groups on codes (the detection kernel's GROUP BY on
//! `t[X]`, σ-partitioning, the local constant check, the incremental
//! index) keys on dictionary *codes* rather than owned values: a group
//! key over `k` attributes is `k` dense `u32`s, so the hot loops never
//! hash or clone string payloads — see [`crate::store`]. A key is either
//! packed into a [`CodeKey`] and hashed with the Fx hasher from
//! [`crate::fxhash`], or — when its columns' dictionaries are small next
//! to the rows a call scans — turned into one index of a flat slot table
//! by its [`CodeSpace`]. A [`CodeMemo`] makes that choice for a scan,
//! and [`CodeMemo::resolve`] walks the scan's rows through it: on a slot
//! table a chunk of rows' slot ids at a time, one pass per key column;
//! on a hash map a chunk of rows' keys at a time ([`for_each_key`]), one
//! pass per key column. The rows are a [`RowSource`]: a contiguous range,
//! or a selection of row indices read where they lie (a σ-block, the rows
//! a vertical gather kept). Each pass matches on its column's width once
//! ([`Codes`]), so no loop here asks a cell's width.

use crate::error::RelationError;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::schema::AttrId;
use crate::store::Codes;
use std::ops::Range;

/// A group key over code columns: at most two codes packed into one
/// `u64`, three or four into a `u128`, wider keys as boxed code vectors.
/// Hashing and equality are pure integer work for every LHS width the
/// paper's workloads use (≤ 4 attributes), with no per-row allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CodeKey {
    /// ≤ 2 codes in one word (`hi << 32 | lo`; zero attributes → 0).
    Packed(u64),
    /// 3–4 codes in one wide word, first attribute in the top lane.
    Packed128(u128),
    /// 5+ codes, in attribute order.
    Wide(Box<[u32]>),
}

impl CodeKey {
    /// The key of row `i` over the given code views, one per key column
    /// (delegates to [`CodeKey::of_codes`], which owns the packing
    /// layout). It reads each cell on its own ([`Codes::get`]): for a
    /// row met once per key or per flagged row; a scan's keys come from
    /// [`for_each_key`].
    #[inline]
    pub fn of_row(cols: &[Codes<'_>], i: usize) -> CodeKey {
        if cols.len() <= 4 {
            let mut buf = [0u32; 4];
            for (slot, col) in buf.iter_mut().zip(cols) {
                *slot = col.get(i);
            }
            CodeKey::of_codes(&buf[..cols.len()])
        } else {
            CodeKey::Wide(cols.iter().map(|c| c.get(i)).collect())
        }
    }

    /// The key of a materialized code vector. This is the single place
    /// that defines the packing layout; every key construction
    /// ([`CodeKey::of_row`], the kernel's and the incremental index's probes)
    /// goes through it, so index and probe keys can never diverge.
    #[inline]
    pub fn of_codes(codes: &[u32]) -> CodeKey {
        match *codes {
            [] => CodeKey::Packed(0),
            [a] => CodeKey::Packed(u64::from(a)),
            [a, b] => CodeKey::Packed((u64::from(a) << 32) | u64::from(b)),
            [a, b, c] => {
                CodeKey::Packed128((u128::from(a) << 64) | (u128::from(b) << 32) | u128::from(c))
            }
            [a, b, c, d] => CodeKey::Packed128(
                (u128::from(a) << 96)
                    | (u128::from(b) << 64)
                    | (u128::from(c) << 32)
                    | u128::from(d),
            ),
            _ => CodeKey::Wide(codes.into()),
        }
    }

    /// Recovers the per-attribute codes (`width` = number of attributes
    /// the key was built over).
    pub fn codes(&self, width: usize) -> Vec<u32> {
        match self {
            CodeKey::Packed(_) if width == 0 => Vec::new(),
            CodeKey::Packed(p) if width == 1 => vec![*p as u32],
            CodeKey::Packed(p) => vec![(*p >> 32) as u32, *p as u32],
            CodeKey::Packed128(p) => {
                (0..width).map(|j| (*p >> (32 * (width - 1 - j))) as u32).collect()
            }
            CodeKey::Wide(codes) => codes.to_vec(),
        }
    }
}

/// The code space of a key: every combination of its columns' codes,
/// numbered densely in mixed radix (the last column varies fastest). A
/// [`CodeMemo`] that has one indexes a flat slot table by it instead of
/// hashing a [`CodeKey`] per row.
///
/// It exists only when the table it sizes is no larger than the rows the
/// scan reads and no larger than `u32::MAX` slots (`CodeSpace::fit`), so
/// a slot table never outgrows its input and a slot id is one `u32`. The
/// sizes must be the dictionaries' lengths read at the call that scans:
/// dictionaries are append-only, so every code of an existing row is
/// below them, while a size cached from an earlier call could be exceeded
/// and alias two keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSpace {
    /// `(dictionary size, stride)` per key column, in key order.
    radix: Vec<(u32, u32)>,
    slots: usize,
}

impl CodeSpace {
    /// The code space of a key whose columns' dictionaries hold `sizes`
    /// codes, for a scan over `rows` rows: `Some` iff the product of the
    /// sizes is at most `rows` and at most `u32::MAX` (a product past
    /// either is not). This is the one rule that chooses a slot table
    /// over a hash table; a key over no column is one slot.
    fn fit(sizes: impl IntoIterator<Item = usize>, rows: usize) -> Option<CodeSpace> {
        let sizes = sizes.into_iter().map(|size| u32::try_from(size).ok().map(|size| (size, 0)));
        let mut radix: Vec<(u32, u32)> = sizes.collect::<Option<_>>()?;
        let mut slots = 1u32;
        for (size, stride) in radix.iter_mut().rev() {
            *stride = slots;
            slots = slots.checked_mul(*size)?;
        }
        let slots = slots as usize;
        (slots <= rows).then_some(CodeSpace { radix, slots })
    }

    /// Writes the slot of each of `rows` over the key's code views (one
    /// per column, in key order — as for [`CodeKey::of_row`]) into
    /// `ids`, one pass per column.
    #[inline]
    fn slots_of(&self, cols: &[Codes<'_>], rows: &impl RowSource, ids: &mut [u32]) {
        debug_assert_eq!(cols.len(), self.radix.len());
        ids.fill(0);
        for (&col, &(size, stride)) in cols.iter().zip(&self.radix) {
            rows.zip_codes(col, ids.iter_mut(), |id, code| {
                debug_assert!(code < size, "code {code} outside a dictionary of {size}");
                *id += code * stride;
            });
        }
    }
}

/// Rows whose slot ids or keys a scan computes, a column at a time,
/// before it reads them: 4 KiB of slot ids on the stack, or a key
/// buffer of at most this many rows.
const CHUNK: usize = 1024;

/// The rows a scan reads, in order: a `Range` of row indices, or a
/// selection of them (`&[usize]`). [`CodeMemo::resolve`] is generic over
/// it, so a range keeps its loop over contiguous slices.
pub trait RowSource: Clone {
    /// The rows at positions `at` of this source.
    fn part(&self, at: Range<usize>) -> Self;
    /// The row indices.
    fn rows(&self) -> impl ExactSizeIterator<Item = usize>;
    /// The row at position `k` of this source.
    fn at(&self, k: usize) -> usize;
    /// Hands `f` each item of `out` with `col`'s code at the matching
    /// row, in order: one match on `col`'s width, then a typed loop
    /// ([`Codes::zip_in`], [`Codes::zip_at`]).
    fn zip_codes<T>(&self, col: Codes<'_>, out: impl IntoIterator<Item = T>, f: impl FnMut(T, u32));
}

impl RowSource for Range<usize> {
    fn part(&self, at: Range<usize>) -> Self {
        self.start + at.start..self.start + at.end
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = usize> {
        self.clone()
    }

    #[inline]
    fn at(&self, k: usize) -> usize {
        self.start + k
    }

    #[inline]
    fn zip_codes<T>(
        &self,
        col: Codes<'_>,
        out: impl IntoIterator<Item = T>,
        f: impl FnMut(T, u32),
    ) {
        col.zip_in(self.clone(), out, f);
    }
}

impl RowSource for &[usize] {
    fn part(&self, at: Range<usize>) -> Self {
        &self[at]
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = usize> {
        self.iter().copied()
    }

    #[inline]
    fn at(&self, k: usize) -> usize {
        self[k]
    }

    #[inline]
    fn zip_codes<T>(
        &self,
        col: Codes<'_>,
        out: impl IntoIterator<Item = T>,
        f: impl FnMut(T, u32),
    ) {
        col.zip_at(self, out, f);
    }
}

/// Hands `f` each of `rows` with its key — the codes `cols` hold at it,
/// in column order — in the order `rows` reads. The keys are gathered a
/// chunk of rows at a time, a column at a time, into one buffer per
/// call: one match on a column's width per chunk, never one per cell.
pub fn for_each_key(cols: &[Codes<'_>], rows: impl RowSource, f: impl FnMut(usize, &[u32])) {
    gather_keys(cols, None, rows, &mut Vec::new(), f);
}

/// [`for_each_key`], with `beside`'s code, if any, as one more cell
/// after the key's, gathered into `keys`, which keeps its capacity for
/// the caller's next gather.
fn gather_keys(
    cols: &[Codes<'_>],
    beside: Option<Codes<'_>>,
    rows: impl RowSource,
    keys: &mut Vec<u32>,
    mut f: impl FnMut(usize, &[u32]),
) {
    let width = cols.len() + usize::from(beside.is_some());
    // A key over no column is empty: each row still gets its call.
    let stride = width.max(1);
    let n = rows.rows().len();
    // Sized to the rows there are, up to a chunk: a scan of a small
    // σ-block zeroes only what it reads.
    keys.clear();
    keys.resize(n.min(CHUNK) * stride, 0);
    for start in (0..n).step_by(CHUNK) {
        let chunk = rows.part(start..n.min(start + CHUNK));
        for (j, col) in cols.iter().copied().chain(beside).enumerate() {
            chunk.zip_codes(col, keys.chunks_exact_mut(stride), |key, code| key[j] = code);
        }
        for (k, r) in chunk.rows().enumerate() {
            f(r, &keys[k * stride..][..width]);
        }
    }
}

/// A memo from a row's key to a value, filled on the key's first sight:
/// a scan's group ids, σ's first match, the constant check's verdicts.
/// The table is chosen once, at [`CodeMemo::new`], by `CodeSpace::fit`:
/// a flat slot table when the key's code space is no larger than the
/// rows the scan reads, else a hash map of packed [`CodeKey`]s. Both
/// answer every lookup alike, so what a scan computes does not depend on
/// which one it got. [`CodeMemo::resolve`] is the one way to read it.
#[derive(Debug, Clone)]
pub enum CodeMemo<V> {
    /// One cell per slot of the key's code space, `None` until the
    /// slot's key is first seen.
    Slots(CodeSpace, Vec<Option<V>>),
    /// One entry per key seen, and the buffer a chunk of rows' keys is
    /// gathered into, kept from one [`CodeMemo::resolve`] to the next.
    Hashed(FxHashMap<CodeKey, V>, Vec<u32>),
}

impl<V: Copy> CodeMemo<V> {
    /// An empty memo for a key whose columns' dictionaries hold `sizes`
    /// codes — read with `Dictionary::len()` at this call — over a scan
    /// of `rows` rows.
    pub fn new(sizes: impl IntoIterator<Item = usize>, rows: usize) -> Self {
        match CodeSpace::fit(sizes, rows) {
            Some(space) => {
                let cells = vec![None; space.slots];
                CodeMemo::Slots(space, cells)
            }
            None => CodeMemo::Hashed(FxHashMap::default(), Vec::new()),
        }
    }

    /// Resolves the keys of `rows` over the key's code views (one per
    /// column, in key order — as for [`CodeKey::of_row`]): `make(r)` runs
    /// once per key not yet in the memo, at that key's first row in the
    /// order `rows` reads, and its value is kept; `each(r, v)` then sees
    /// every row, in that order, with its key's value. A slot table
    /// computes a chunk of rows' slot ids a column at a time before it
    /// reads their cells; a hash map gathers a chunk of rows' keys a
    /// column at a time ([`for_each_key`]) and probes one [`CodeKey`] per
    /// row.
    pub fn resolve(
        &mut self,
        cols: &[Codes<'_>],
        rows: impl RowSource,
        make: impl FnMut(usize) -> V,
        mut each: impl FnMut(usize, V),
    ) {
        self.resolve_with(cols, None, rows, make, |r, v, _| each(r, v));
    }

    /// [`CodeMemo::resolve`], reading one more column beside the key —
    /// `beside`, gathered with the key a chunk at a time — and handing
    /// `each` its code at the row too: `each(r, v, code)`. The kernel
    /// reads a row's RHS code this way, and the constant check the code
    /// its key holds the row to.
    pub fn resolve_beside(
        &mut self,
        cols: &[Codes<'_>],
        beside: Codes<'_>,
        rows: impl RowSource,
        make: impl FnMut(usize) -> V,
        each: impl FnMut(usize, V, u32),
    ) {
        self.resolve_with(cols, Some(beside), rows, make, each);
    }

    fn resolve_with(
        &mut self,
        cols: &[Codes<'_>],
        beside: Option<Codes<'_>>,
        rows: impl RowSource,
        mut make: impl FnMut(usize) -> V,
        mut each: impl FnMut(usize, V, u32),
    ) {
        match self {
            CodeMemo::Slots(space, cells) => {
                let mut ids = [0u32; CHUNK];
                let n = rows.rows().len();
                let mut visit = |r: usize, slot: u32, code: u32| {
                    let cell = &mut cells[slot as usize];
                    let v = match *cell {
                        Some(v) => v,
                        None => *cell.insert(first_sight(&mut make, r)),
                    };
                    each(r, v, code);
                };
                for start in (0..n).step_by(CHUNK) {
                    let chunk = rows.part(start..n.min(start + CHUNK));
                    let ids = &mut ids[..chunk.rows().len()];
                    space.slots_of(cols, &chunk, ids);
                    let slots = chunk.rows().zip(ids.iter());
                    match beside {
                        // The row loop reads the column beside as it goes.
                        Some(col) => {
                            chunk.zip_codes(col, slots, |(r, &slot), code| visit(r, slot, code));
                        }
                        None => slots.for_each(|(r, &slot)| visit(r, slot, 0)),
                    }
                }
            }
            CodeMemo::Hashed(map, keys) => {
                // The column beside rides as the key's last cell.
                let width = cols.len();
                gather_keys(cols, beside, rows, keys, |r, cells| {
                    let key = CodeKey::of_codes(&cells[..width]);
                    let v = *map.entry(key).or_insert_with(|| first_sight(&mut make, r));
                    each(r, v, cells.get(width).copied().unwrap_or(0));
                });
            }
        }
    }
}

/// `make(r)`, out of line: a scan calls it once per key, not per row,
/// so it stays out of the row loop and the per-row work inlines there.
#[cold]
#[inline(never)]
fn first_sight<V>(make: &mut impl FnMut(usize) -> V, r: usize) -> V {
    make(r)
}

/// `π_X(D)` as a new relation named `name`, preserving tuple ids and
/// duplicates (bag projection). The output's columns share `rel`'s
/// dictionaries for the kept attributes.
pub fn project(rel: &Relation, name: &str, attrs: &[AttrId]) -> Result<Relation, RelationError> {
    let schema = rel.schema().project(name, attrs)?;
    let dicts = rel.dictionaries_of(attrs);
    let mut out = Relation::with_dictionaries(schema, dicts, rel.len())?;
    out.extend_from(rel, attrs, &(0..rel.len()).collect::<Vec<_>>())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, ValueType};
    use crate::vals;
    use std::sync::Arc;

    #[test]
    fn project_keeps_the_bag_and_shares_dictionaries() {
        let schema = Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("cc", ValueType::Int)
            .key(&["id"])
            .build()
            .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vals![1, "MTS", 44],
                vals![2, "DMTS", 44],
                vals![3, "MTS", 31],
                vals![4, "VP", 1],
                vals![5, "MTS", 44],
            ],
        )
        .unwrap();
        let cc = r.schema().require("cc").unwrap();
        let p = project(&r, "emp_cc", &[cc]).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.schema().arity(), 1);
        // The projected column shares the parent's dictionary.
        assert!(Arc::ptr_eq(p.dictionary(AttrId(0)), r.dictionary(cc)));
    }

    #[test]
    fn code_key_round_trips_widths() {
        let cols_data: Vec<Vec<u32>> = vec![vec![7], vec![9], vec![11], vec![13]];
        for width in 0..=4usize {
            let cols: Vec<Codes<'_>> = cols_data[..width].iter().map(|c| Codes::U32(c)).collect();
            let key = CodeKey::of_row(&cols, 0);
            let expect: Vec<u32> = cols.iter().map(|c| c.get(0)).collect();
            assert_eq!(key.codes(width), expect, "width {width}");
        }
    }

    /// The slot of each row of `cols`, through [`CodeSpace::slots_of`].
    fn slots(space: &CodeSpace, cols: &[Codes<'_>], rows: usize) -> Vec<u32> {
        let mut ids = vec![u32::MAX; rows];
        space.slots_of(cols, &(0..rows), &mut ids);
        ids
    }

    #[test]
    fn code_space_numbers_its_box_one_to_one() {
        let sizes = [3usize, 1, 4, 2];
        let space = CodeSpace::fit(sizes, 24).unwrap();
        assert_eq!(space.slots, 24);
        // Every combination, one row each.
        let mut codes: [Vec<u32>; 4] = Default::default();
        for a in 0..3 {
            for c in 0..4 {
                for d in 0..2 {
                    for (col, code) in codes.iter_mut().zip([a, 0, c, d]) {
                        col.push(code);
                    }
                }
            }
        }
        let cols: Vec<Codes<'_>> = codes.iter().map(|c| Codes::U32(c)).collect();
        let mut seen = vec![false; space.slots];
        for (r, slot) in slots(&space, &cols, 24).into_iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[slot as usize], true), "row {r} aliases");
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn code_space_exists_only_up_to_the_rows_scanned() {
        // 5 × 60: exactly as many slots as rows is a slot table, one row
        // fewer is a hash table.
        assert_eq!(CodeSpace::fit([5, 60], 300).map(|s| s.slots), Some(300));
        assert_eq!(CodeSpace::fit([5, 60], 299), None);
        // A product past usize is hashed, however many rows.
        assert_eq!(CodeSpace::fit([usize::MAX, 2], usize::MAX), None);
        // A slot id is one u32: u32::MAX slots fit, one more is hashed,
        // however many rows.
        let most = CodeSpace::fit([3, 5, 17, 257, 65_537], usize::MAX).unwrap();
        assert_eq!(most.slots, u32::MAX as usize);
        assert_eq!(CodeSpace::fit([65_536, 65_536], usize::MAX), None);
        assert_eq!(CodeSpace::fit([2, 1 << 31], usize::MAX), None);
        assert_eq!(CodeSpace::fit([u32::MAX as usize + 1], usize::MAX), None);
        // A key over no column is one slot.
        let unit = CodeSpace::fit([], 1).unwrap();
        assert_eq!((unit.slots, slots(&unit, &[], 3)), (1, vec![0; 3]));
        assert_eq!(CodeSpace::fit([], 0), None);
    }

    /// Every `(row, value)` pair `resolve` hands `each`, and every row
    /// `make` ran at, over `rows` of `cols`; `make` hands out `0, 1, …`.
    fn resolved(
        memo: &mut CodeMemo<usize>,
        cols: &[Codes<'_>],
        rows: impl RowSource,
    ) -> (Vec<(usize, usize)>, Vec<usize>) {
        let (mut seen, mut made) = (Vec::new(), Vec::new());
        memo.resolve(
            cols,
            rows,
            |r| {
                made.push(r);
                made.len() - 1
            },
            |r, v| seen.push((r, v)),
        );
        (seen, made)
    }

    /// The model of [`resolved`] on a fresh memo: first-seen numbering
    /// of `key` over `rows`, in the order read.
    fn first_seen(
        key: impl Fn(usize) -> usize,
        rows: impl Iterator<Item = usize>,
    ) -> (Vec<(usize, usize)>, Vec<usize>) {
        let mut first: Vec<usize> = Vec::new();
        let seen = rows.map(|r| match first.iter().position(|&f| key(f) == key(r)) {
            Some(v) => (r, v),
            None => {
                first.push(r);
                (r, first.len() - 1)
            }
        });
        (seen.collect(), first)
    }

    /// Selections of 1023, 1024, 1025 and 3079 rows out of `n`, in no
    /// order and repeating rows once they outnumber them.
    fn selections(n: usize) -> impl Iterator<Item = Vec<usize>> {
        let lens = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7];
        lens.into_iter().map(move |len| (0..len).map(|i| (i * 1543 + 11) % n).collect())
    }

    #[test]
    fn both_memo_tables_keep_the_first_value_per_key() {
        // Keys (0, 1), (2, 0), (0, 1), (1, 1), (2, 0), (0, 0) over
        // dictionaries of 3 × 2: six slots fit six rows, not five.
        let (a, b): ([u32; 6], [u32; 6]) = ([0, 2, 0, 1, 2, 0], [1, 0, 1, 1, 0, 0]);
        let cols: [Codes<'_>; 2] = [Codes::U32(&a), Codes::U32(&b)];
        for (rows, slotted) in [(6, true), (5, false)] {
            let mut memo = CodeMemo::new([3, 2], rows);
            assert_eq!(matches!(memo, CodeMemo::Slots(..)), slotted);
            let (seen, made) = resolved(&mut memo, &cols, 0..a.len());
            // `make` runs once per distinct key, at its first row.
            assert_eq!(made, [0, 1, 3, 5], "slotted: {slotted}");
            let values: Vec<usize> = seen.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, [0, 1, 0, 2, 1, 3], "slotted: {slotted}");
            assert!(seen.iter().map(|&(r, _)| r).eq(0..6), "slotted: {slotted}");
            // A range not starting at 0: every row of it in order, and
            // keys already in the memo keep their first value.
            let (seen, made) = resolved(&mut memo, &cols, 2..5);
            assert!(made.is_empty());
            assert_eq!(seen, [(2, 0), (3, 2), (4, 1)], "slotted: {slotted}");
            // A selection, out of order and repeating a row: the same.
            let (seen, made) = resolved(&mut memo, &cols, &[5, 1, 5, 0][..]);
            assert!(made.is_empty());
            assert_eq!(seen, [(5, 3), (1, 1), (5, 3), (0, 0)], "slotted: {slotted}");
        }
        // Long selections over the six rows, on fresh memos: `make` runs
        // at each key's first row in the order read.
        let key = |r: usize| (a[r] * 2 + b[r]) as usize;
        for sel in selections(a.len()) {
            for (rows, slotted) in [(sel.len(), true), (5, false)] {
                let mut memo = CodeMemo::new([3, 2], rows);
                assert_eq!(matches!(memo, CodeMemo::Slots(..)), slotted);
                let got = resolved(&mut memo, &cols, &sel[..]);
                assert_eq!(got, first_seen(key, sel.iter().copied()), "{} rows", sel.len());
            }
        }
    }

    #[test]
    fn both_memo_tables_agree_across_chunk_edges() {
        // Keys repeat across chunks, and fresh ones appear in the last
        // partial chunk; ranges start and end inside, on and across
        // chunk edges, and selections cross them in no order.
        let n = 3 * CHUNK + 7;
        let key = |r: usize| if r + 5 >= n { 40 + (r % 3) } else { (r * 7) % 37 };
        let (a, b): (Vec<u32>, Vec<u32>) =
            (0..n).map(|r| ((key(r) / 8) as u32, (key(r) % 8) as u32)).unzip();
        let cols: [Codes<'_>; 2] = [Codes::U32(&a), Codes::U32(&b)];
        let edges = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3, 3 * CHUNK, n - 1, n];
        for &start in &edges {
            for &end in edges.iter().filter(|&&end| end >= start) {
                let want = first_seen(key, start..end);
                for rows in [n, 1] {
                    let mut memo = CodeMemo::new([6, 8], rows);
                    assert_eq!(matches!(memo, CodeMemo::Slots(..)), rows == n);
                    let got = resolved(&mut memo, &cols, start..end);
                    assert_eq!(got, want, "{start}..{end} over {rows}");
                }
            }
        }
        for sel in selections(n) {
            let want = first_seen(key, sel.iter().copied());
            for rows in [n, 1] {
                let mut memo = CodeMemo::new([6, 8], rows);
                assert_eq!(matches!(memo, CodeMemo::Slots(..)), rows == n);
                let got = resolved(&mut memo, &cols, &sel[..]);
                assert_eq!(got, want, "a selection of {} over {rows}", sel.len());
            }
        }
    }
}

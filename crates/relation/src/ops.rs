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
//! by its [`CodeSpace`]. A [`CodeMemo`] makes that choice for a scan.

use crate::error::RelationError;
use crate::fxhash::FxHashMap;
use crate::relation::Relation;
use crate::schema::AttrId;

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
    /// The key of row `i` over the given code slices, one per key column
    /// (delegates to [`CodeKey::of_codes`], which owns the packing
    /// layout).
    #[inline]
    pub fn of_row(cols: &[&[u32]], i: usize) -> CodeKey {
        if cols.len() <= 4 {
            let mut buf = [0u32; 4];
            for (slot, col) in buf.iter_mut().zip(cols) {
                *slot = col[i];
            }
            CodeKey::of_codes(&buf[..cols.len()])
        } else {
            CodeKey::Wide(cols.iter().map(|c| c[i]).collect())
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
/// scan reads (`CodeSpace::fit`), so a slot table never outgrows its
/// input. The sizes must be the dictionaries' lengths read at the call
/// that scans: dictionaries are append-only, so every code of an existing
/// row is below them, while a size cached from an earlier call could be
/// exceeded and alias two keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeSpace {
    /// `(dictionary size, stride)` per key column, in key order.
    radix: Vec<(usize, usize)>,
    slots: usize,
}

impl CodeSpace {
    /// The code space of a key whose columns' dictionaries hold `sizes`
    /// codes, for a scan over `rows` rows: `Some` iff the product of the
    /// sizes is at most `rows` (a product past `usize` is not). This is
    /// the one rule that chooses a slot table over a hash table; a key
    /// over no column is one slot.
    fn fit(sizes: impl IntoIterator<Item = usize>, rows: usize) -> Option<CodeSpace> {
        let mut radix: Vec<(usize, usize)> = sizes.into_iter().map(|size| (size, 0)).collect();
        let mut slots = 1usize;
        for (size, stride) in radix.iter_mut().rev() {
            *stride = slots;
            slots = slots.checked_mul(*size)?;
        }
        (slots <= rows).then_some(CodeSpace { radix, slots })
    }

    /// The slot of row `i` over the key's code slices (one per column,
    /// in key order — as for [`CodeKey::of_row`]).
    #[inline]
    fn slot_of_row(&self, cols: &[&[u32]], i: usize) -> usize {
        debug_assert_eq!(cols.len(), self.radix.len());
        cols.iter()
            .zip(&self.radix)
            .map(|(col, &(size, stride))| {
                let code = col[i] as usize;
                debug_assert!(code < size, "code {code} outside a dictionary of {size}");
                code * stride
            })
            .sum()
    }
}

/// A memo from a row's key to a value, filled on the key's first sight:
/// a scan's group ids, σ's first match, the constant check's verdicts.
/// The table is chosen once, at [`CodeMemo::new`], by `CodeSpace::fit`:
/// a flat slot table when the key's code space is no larger than the
/// rows the scan reads, else a hash map of packed [`CodeKey`]s. Both
/// answer every lookup alike, so what a scan computes does not depend on
/// which one it got.
#[derive(Debug, Clone)]
pub enum CodeMemo<V> {
    /// One cell per slot of the key's code space, `None` until the
    /// slot's key is first seen.
    Slots(CodeSpace, Vec<Option<V>>),
    /// One entry per key seen.
    Hashed(FxHashMap<CodeKey, V>),
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
            None => CodeMemo::Hashed(FxHashMap::default()),
        }
    }

    /// The value of row `i`'s key over the key's code slices (one per
    /// column, in key order — as for [`CodeKey::of_row`]), made by `make`
    /// and kept if the key is new.
    #[inline]
    pub fn get_or_insert_with(&mut self, cols: &[&[u32]], i: usize, make: impl FnOnce() -> V) -> V {
        match self {
            CodeMemo::Slots(space, cells) => {
                *cells[space.slot_of_row(cols, i)].get_or_insert_with(make)
            }
            CodeMemo::Hashed(map) => *map.entry(CodeKey::of_row(cols, i)).or_insert_with(make),
        }
    }
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
            let cols: Vec<&[u32]> = cols_data[..width].iter().map(Vec::as_slice).collect();
            let key = CodeKey::of_row(&cols, 0);
            let expect: Vec<u32> = cols.iter().map(|c| c[0]).collect();
            assert_eq!(key.codes(width), expect, "width {width}");
        }
    }

    #[test]
    fn code_space_numbers_its_box_one_to_one() {
        let sizes = [3usize, 1, 4, 2];
        let space = CodeSpace::fit(sizes, 24).unwrap();
        assert_eq!(space.slots, 24);
        let mut seen = vec![false; space.slots];
        for a in 0..3 {
            for c in 0..4 {
                for d in 0..2 {
                    let codes = [a, 0, c, d];
                    let cols: Vec<&[u32]> = codes.iter().map(std::slice::from_ref).collect();
                    let slot = space.slot_of_row(&cols, 0);
                    assert!(!std::mem::replace(&mut seen[slot], true), "{codes:?} aliases");
                }
            }
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
        // A key over no column is one slot.
        let unit = CodeSpace::fit([], 1).unwrap();
        assert_eq!((unit.slots, unit.slot_of_row(&[], 0)), (1, 0));
        assert_eq!(CodeSpace::fit([], 0), None);
    }

    #[test]
    fn both_memo_tables_keep_the_first_value_per_key() {
        // Keys (0, 1), (2, 0), (0, 1), (1, 1), (2, 0), (0, 0) over
        // dictionaries of 3 × 2: six slots fit six rows, not five.
        let (a, b) = ([0, 2, 0, 1, 2, 0], [1, 0, 1, 1, 0, 0]);
        let cols: [&[u32]; 2] = [&a, &b];
        for (rows, slotted) in [(6, true), (5, false)] {
            let mut memo = CodeMemo::new([3, 2], rows);
            assert_eq!(matches!(memo, CodeMemo::Slots(..)), slotted);
            let got: Vec<usize> =
                (0..a.len()).map(|i| memo.get_or_insert_with(&cols, i, || i)).collect();
            assert_eq!(got, [0, 1, 0, 3, 1, 5], "slotted: {slotted}");
        }
    }
}

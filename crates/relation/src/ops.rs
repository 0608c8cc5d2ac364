//! The code-level group key and bag projection.
//!
//! Every hash-based scan (the detection kernel's GROUP BY on `t[X]`,
//! σ-partitioning, the incremental index) uses the Fx hasher from
//! [`crate::fxhash`] and keys on dictionary *codes* rather than owned
//! values: a group key over `k` attributes is `k` dense `u32`s (packed
//! into one `u64` when `k ≤ 2`), so the hot loops never hash or clone
//! string payloads — see [`crate::store`].

use crate::error::RelationError;
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
    /// The key of row `i` over the given dense code slices (delegates
    /// to [`CodeKey::of_codes`], which owns the packing layout). The
    /// slices are typically one aligned chunk of several columns — see
    /// [`zip_chunks`](crate::store::zip_chunks) — with `i` relative to the chunk.
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

/// `π_X(D)` as a new relation named `name`, preserving tuple ids and
/// duplicates (bag projection). The output's columns share `rel`'s
/// dictionaries for the kept attributes.
pub fn project(rel: &Relation, name: &str, attrs: &[AttrId]) -> Result<Relation, RelationError> {
    let schema = rel.schema().project(name, attrs)?;
    let mut out = Relation::with_dictionaries(schema, rel.dictionaries_of(attrs), rel.len())?;
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
}

//! Physical operators over [`Relation`]s.
//!
//! CFD detection needs only a handful of operators (the centralized
//! technique of Fan et al., TODS 2008 compiles to selections, projections
//! and a single GROUP BY; vertical-partition detection adds key joins).
//! All hash-based operators use the Fx hasher from [`crate::fxhash`] and
//! key on dictionary *codes* rather than owned values: a group key over
//! `k` attributes is `k` dense `u32`s (packed into one `u64` when
//! `k ≤ 2`), so the hot loops never hash or clone string payloads — see
//! [`crate::store`].

use crate::error::RelationError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::store::{zip_chunks, CodesView, NO_CODE};
use crate::tuple::{Tuple, TupleId};
use crate::value::Value;
use std::sync::Arc;

/// A group/join key over code columns: at most two codes packed into one
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
    /// [`zip_chunks`] — with `i` relative to the chunk.
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

    /// [`CodeKey::of_row`] over whole-column views (random access across
    /// chunks; scans should zip chunks and use `of_row` instead).
    #[inline]
    pub fn of_view_row(cols: &[CodesView<'_>], i: usize) -> CodeKey {
        if cols.len() <= 4 {
            let mut buf = [0u32; 4];
            for (slot, col) in buf.iter_mut().zip(cols) {
                *slot = col.at(i);
            }
            CodeKey::of_codes(&buf[..cols.len()])
        } else {
            CodeKey::Wide(cols.iter().map(|c| c.at(i)).collect())
        }
    }

    /// The key of a materialized code vector. This is the single place
    /// that defines the packing layout; every key construction
    /// ([`CodeKey::of_row`], join probes) goes through it, so index and
    /// probe keys can never diverge.
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

/// `σ_P(D)`: tuples of `rel` satisfying `pred`, ids preserved. The output
/// shares `rel`'s dictionaries.
pub fn select(rel: &Relation, pred: &Predicate) -> Relation {
    let rows: Vec<usize> =
        rel.iter().enumerate().filter(|(_, t)| pred.eval(t)).map(|(i, _)| i).collect();
    rel.copy_rows(&rows)
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

/// Distinct rows of `π_X(D)` as value vectors (set projection), in
/// first-seen order. Deduplication runs on code keys; each distinct key
/// is decoded once.
pub fn project_distinct(rel: &Relation, attrs: &[AttrId]) -> Vec<Vec<Value>> {
    let cols = rel.code_views(attrs);
    let mut seen: FxHashSet<CodeKey> = FxHashSet::default();
    let mut out = Vec::new();
    for i in 0..rel.len() {
        let key = CodeKey::of_view_row(&cols, i);
        if seen.insert(key.clone()) {
            out.push(rel.decode_projection(attrs, &key.codes(attrs.len())));
        }
    }
    out
}

/// Groups tuple indices of `rel` by their projection on `attrs`
/// (the GROUP BY at the heart of CFD violation detection).
///
/// Returns a map from group key `t[X]` to the positions (row indices
/// into `rel`) of the tuples in that group.
pub fn group_by(rel: &Relation, attrs: &[AttrId]) -> FxHashMap<Vec<Value>, Vec<usize>> {
    group_codes(rel, attrs)
        .into_iter()
        .map(|(key, rows)| (rel.decode_projection(attrs, &key.codes(attrs.len())), rows))
        .collect()
}

/// The integer core of [`group_by`]: groups row indices by their *code*
/// projection on `attrs`, touching no values. Callers that only need to
/// compare or count groups never pay for decoding; [`group_by`] decodes
/// each key exactly once.
pub fn group_codes(rel: &Relation, attrs: &[AttrId]) -> FxHashMap<CodeKey, Vec<usize>> {
    let cols = rel.code_views(attrs);
    let mut groups: FxHashMap<CodeKey, Vec<usize>> = FxHashMap::default();
    if cols.is_empty() {
        // Zero grouping attributes: every row lands in the one
        // empty-key group.
        if !rel.is_empty() {
            groups.insert(CodeKey::of_codes(&[]), (0..rel.len()).collect());
        }
        return groups;
    }
    // Chunk-at-a-time: the inner loop indexes dense per-chunk slices.
    zip_chunks(&cols, |base, chunk_cols| {
        for r in 0..chunk_cols[0].len() {
            groups.entry(CodeKey::of_row(chunk_cols, r)).or_default().push(base + r);
        }
    });
    groups
}

/// Sorts tuples by their projection on `attrs` (ascending, stable),
/// returning a new relation. Sorting compares precomputed integer rank
/// keys (one rank lookup per tuple per attribute, computed once — see
/// [`crate::store::Dictionary::rank_map`]) instead of projecting values
/// inside the comparator. Used only by small/reporting paths.
pub fn sort_by(rel: &Relation, attrs: &[AttrId]) -> Relation {
    let ranks: Vec<Vec<u32>> = attrs.iter().map(|&a| rel.dictionary(a).rank_map()).collect();
    let cols = rel.code_views(attrs);
    let mut idx: Vec<usize> = (0..rel.len()).collect();
    idx.sort_by_cached_key(|&i| {
        cols.iter().zip(&ranks).map(|(c, r)| r[c.at(i) as usize]).collect::<Vec<u32>>()
    });
    rel.copy_rows(&idx)
}

/// Per-attribute code translation from `left`'s dictionary into
/// `right`'s: `None` when the two columns share one dictionary (codes are
/// directly comparable — the fragment fast path), otherwise a table
/// mapping each left code to the right code of the same value, or
/// [`NO_CODE`] when `right` never saw that value.
fn code_translation(left: &Relation, l: AttrId, right: &Relation, r: AttrId) -> Option<Vec<u32>> {
    let ld = left.dictionary(l);
    let rd = right.dictionary(r);
    if Arc::ptr_eq(ld, rd) {
        return None;
    }
    Some(ld.snapshot().iter().map(|v| rd.code_of(v).unwrap_or(NO_CODE)).collect())
}

/// The key of `left` row `i` expressed in `right`'s code space, or `None`
/// if some cell's value does not exist on the right (no partner possible).
#[inline]
fn translated_key(cols: &[CodesView<'_>], trans: &[Option<Vec<u32>>], i: usize) -> Option<CodeKey> {
    let translated = |j: usize| -> u32 {
        let code = cols[j].at(i);
        match &trans[j] {
            None => code,
            Some(map) => map.get(code as usize).copied().unwrap_or(NO_CODE),
        }
    };
    if cols.len() <= 4 {
        let mut buf = [0u32; 4];
        for (j, slot) in buf.iter_mut().enumerate().take(cols.len()) {
            *slot = translated(j);
            if *slot == NO_CODE {
                return None;
            }
        }
        Some(CodeKey::of_codes(&buf[..cols.len()]))
    } else {
        let mut wide = Vec::with_capacity(cols.len());
        for j in 0..cols.len() {
            let c = translated(j);
            if c == NO_CODE {
                return None;
            }
            wide.push(c);
        }
        Some(CodeKey::Wide(wide.into_boxed_slice()))
    }
}

/// Equi-join of two relations on attribute lists of equal length,
/// producing `name` with the left schema followed by the right schema
/// minus its join attributes. Tuple ids are taken from the left input.
///
/// This is the reconstruction join `D = ⋈ D_i` for vertical partitions
/// (§II-B): vertical fragments join on `key(R)`. Probe keys are left
/// codes translated into the right dictionary's code space (the identity
/// when the inputs share dictionaries, as fragments of one relation do).
pub fn hash_join(
    left: &Relation,
    right: &Relation,
    left_on: &[AttrId],
    right_on: &[AttrId],
    name: &str,
) -> Result<Relation, RelationError> {
    if left_on.len() != right_on.len() {
        return Err(RelationError::SchemaMismatch {
            detail: format!("join key arity mismatch: {} vs {}", left_on.len(), right_on.len()),
        });
    }
    // Output schema: all of left, then right minus join attrs.
    let right_keep: Vec<AttrId> =
        right.schema().attr_ids().filter(|a| !right_on.contains(a)).collect();
    let mut b = Schema::builder(name);
    for a in left.schema().attrs() {
        b = b.attr(&a.name, a.ty);
    }
    for &a in &right_keep {
        let attr = right.schema().attr(a);
        b = b.attr(&attr.name, attr.ty);
    }
    let key_names: Vec<String> =
        left.schema().key().iter().map(|&k| left.schema().attr_name(k).to_string()).collect();
    if !key_names.is_empty() {
        let refs: Vec<&str> = key_names.iter().map(String::as_str).collect();
        b = b.key(&refs);
    }
    let schema = b.build()?;

    // Build over the right input's own codes; probe with translated keys.
    let rcols = right.code_views(right_on);
    let mut index: FxHashMap<CodeKey, Vec<usize>> = FxHashMap::default();
    for i in 0..right.len() {
        index.entry(CodeKey::of_view_row(&rcols, i)).or_default().push(i);
    }
    let trans: Vec<Option<Vec<u32>>> =
        left_on.iter().zip(right_on).map(|(&l, &r)| code_translation(left, l, right, r)).collect();
    let lcols = left.code_views(left_on);
    let mut out = Relation::with_capacity(schema, left.len());
    for (li, lt) in left.iter().enumerate() {
        let Some(key) = translated_key(&lcols, &trans, li) else { continue };
        if let Some(matches) = index.get(&key) {
            for &ri in matches {
                let mut vals = Vec::with_capacity(lt.arity() + right_keep.len());
                vals.extend_from_slice(lt.values());
                for &a in &right_keep {
                    vals.push(right.column(a).decode(ri));
                }
                out.push_tuple(Tuple::new(lt.tid, vals))?;
            }
        }
    }
    Ok(out)
}

/// Left semijoin: tuples of `left` that have at least one join partner in
/// `right` on the given attribute lists. Ids preserved.
///
/// This is the shipment-reduction primitive for vertical-partition
/// detection (§VII points at semijoins — ref. \[25\] — for the vertical case).
pub fn semijoin(
    left: &Relation,
    right: &Relation,
    left_on: &[AttrId],
    right_on: &[AttrId],
) -> Result<Relation, RelationError> {
    if left_on.len() != right_on.len() {
        return Err(RelationError::SchemaMismatch {
            detail: format!("semijoin key arity mismatch: {} vs {}", left_on.len(), right_on.len()),
        });
    }
    let rcols = right.code_views(right_on);
    let mut keys: FxHashSet<CodeKey> = FxHashSet::default();
    for i in 0..right.len() {
        keys.insert(CodeKey::of_view_row(&rcols, i));
    }
    let trans: Vec<Option<Vec<u32>>> =
        left_on.iter().zip(right_on).map(|(&l, &r)| code_translation(left, l, right, r)).collect();
    let lcols = left.code_views(left_on);
    let rows: Vec<usize> = (0..left.len())
        .filter(|&li| translated_key(&lcols, &trans, li).is_some_and(|key| keys.contains(&key)))
        .collect();
    Ok(left.copy_rows(&rows))
}

/// Unions relations sharing one schema into a single relation
/// (fragment reassembly `D = ⋃ D_i` for horizontal partitions).
/// Duplicate tuple ids are kept as-is; horizontal fragments are disjoint
/// by definition so ids never collide in intended use. The output shares
/// the first part's dictionaries (for fragments of one parent these are
/// the parent's, so the union re-encodes nothing).
pub fn union_all(schema: Arc<Schema>, parts: &[&Relation]) -> Result<Relation, RelationError> {
    let total = parts.iter().map(|r| r.len()).sum();
    let mut out = match parts.first() {
        Some(first) if first.schema().as_ref() == schema.as_ref() => {
            first.with_capacity_like(total)
        }
        _ => Relation::with_capacity(schema.clone(), total),
    };
    for part in parts {
        if part.schema().as_ref() != schema.as_ref() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "fragment schema `{}` differs from target `{}`",
                    part.schema().name(),
                    schema.name()
                ),
            });
        }
        for t in part.iter() {
            out.push_tuple(t)?;
        }
    }
    Ok(out)
}

/// Returns the tuple ids of `rel` as a set (test helper used throughout
/// the workspace to compare violation sets).
pub fn tid_set(rel: &Relation) -> FxHashSet<TupleId> {
    rel.tids().iter().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Atom, CmpOp};
    use crate::schema::ValueType;
    use crate::vals;

    fn emp() -> Relation {
        let schema = Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("cc", ValueType::Int)
            .key(&["id"])
            .build()
            .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vals![1, "MTS", 44],
                vals![2, "DMTS", 44],
                vals![3, "MTS", 31],
                vals![4, "VP", 1],
                vals![5, "MTS", 44],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_preserves_ids() {
        let r = emp();
        let title = r.schema().require("title").unwrap();
        let sel = select(&r, &Predicate::atom(Atom::eq(title, "MTS")));
        assert_eq!(sel.len(), 3);
        let ids: Vec<u64> = sel.iter().map(|t| t.tid.0).collect();
        assert_eq!(ids, vec![0, 2, 4]);
        // Selection shares the input's dictionaries.
        assert!(Arc::ptr_eq(sel.dictionary(title), r.dictionary(title)));
    }

    #[test]
    fn project_bag_and_distinct() {
        let r = emp();
        let cc = r.schema().require("cc").unwrap();
        let p = project(&r, "emp_cc", &[cc]).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p.schema().arity(), 1);
        // The projected column shares the parent's dictionary.
        assert!(Arc::ptr_eq(p.dictionary(AttrId(0)), r.dictionary(cc)));
        let d = project_distinct(&r, &[cc]);
        assert_eq!(d.len(), 3);
        // First-seen order.
        assert_eq!(d, vec![vals![44], vals![31], vals![1]]);
    }

    #[test]
    fn group_by_partitions_rel() {
        let r = emp();
        let title = r.schema().require("title").unwrap();
        let groups = group_by(&r, &[title]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&vals!["MTS"]].len(), 3);
        assert_eq!(groups[&vals!["VP"]].len(), 1);
        // Every tuple is in exactly one group.
        let total: usize = groups.values().map(Vec::len).sum();
        assert_eq!(total, r.len());
    }

    #[test]
    fn group_codes_matches_group_by() {
        let r = emp();
        let title = r.schema().require("title").unwrap();
        let cc = r.schema().require("cc").unwrap();
        for attrs in [vec![title], vec![title, cc], vec![]] {
            let by_value = group_by(&r, &attrs);
            let by_code = group_codes(&r, &attrs);
            assert_eq!(by_value.len(), by_code.len());
            for (key, rows) in by_code {
                let decoded = r.decode_projection(&attrs, &key.codes(attrs.len()));
                assert_eq!(by_value[&decoded], rows);
            }
        }
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
    fn sort_by_orders_rows() {
        let r = emp();
        let title = r.schema().require("title").unwrap();
        let s = sort_by(&r, &[title]);
        let titles: Vec<String> =
            s.iter().map(|t| t.get(title).as_str().unwrap().to_string()).collect();
        let mut expect = titles.clone();
        expect.sort();
        assert_eq!(titles, expect);
    }

    #[test]
    fn sort_by_is_stable_and_matches_value_order() {
        let r = emp();
        let cc = r.schema().require("cc").unwrap();
        let s = sort_by(&r, &[cc]);
        // Values ascend; ties keep insertion order (stable sort).
        let pairs: Vec<(i64, u64)> =
            s.iter().map(|t| (t.get(cc).as_int().unwrap(), t.tid.0)).collect();
        assert_eq!(pairs, vec![(1, 3), (31, 2), (44, 0), (44, 1), (44, 4)]);
    }

    #[test]
    fn hash_join_reconstructs_vertical_split() {
        let r = emp();
        let id = r.schema().require("id").unwrap();
        let title = r.schema().require("title").unwrap();
        let cc = r.schema().require("cc").unwrap();
        let left = project(&r, "v1", &[id, title]).unwrap();
        let right = project(&r, "v2", &[id, cc]).unwrap();
        let lid = left.schema().require("id").unwrap();
        let rid = right.schema().require("id").unwrap();
        let joined = hash_join(&left, &right, &[lid], &[rid], "emp_re").unwrap();
        assert_eq!(joined.len(), r.len());
        assert_eq!(joined.schema().arity(), 3);
        // Every reconstructed row matches the original (modulo column order).
        let jid = joined.schema().require("id").unwrap();
        let jtitle = joined.schema().require("title").unwrap();
        let jcc = joined.schema().require("cc").unwrap();
        for t in joined.iter() {
            let orig = r.iter().find(|o| o.tid == t.tid).unwrap();
            assert_eq!(t.get(jid), orig.get(id));
            assert_eq!(t.get(jtitle), orig.get(title));
            assert_eq!(t.get(jcc), orig.get(cc));
        }
    }

    #[test]
    fn hash_join_across_unrelated_dictionaries() {
        // Inputs built independently (no shared dictionaries) must still
        // join correctly via code translation.
        let ls = Schema::builder("l").attr("k", ValueType::Str).build().unwrap();
        let rs = Schema::builder("r")
            .attr("k", ValueType::Str)
            .attr("v", ValueType::Int)
            .build()
            .unwrap();
        let left = Relation::from_rows(ls, vec![vals!["a"], vals!["b"], vals!["zzz"]]).unwrap();
        let right =
            Relation::from_rows(rs, vec![vals!["b", 2], vals!["a", 1], vals!["c", 3]]).unwrap();
        let lk = left.schema().require("k").unwrap();
        let rk = right.schema().require("k").unwrap();
        let joined = hash_join(&left, &right, &[lk], &[rk], "j").unwrap();
        assert_eq!(joined.len(), 2, "`zzz` has no partner");
        let semi = semijoin(&left, &right, &[lk], &[rk]).unwrap();
        assert_eq!(semi.len(), 2);
    }

    #[test]
    fn hash_join_key_arity_mismatch_errors() {
        let r = emp();
        let id = r.schema().require("id").unwrap();
        let err = hash_join(&r, &r, &[id], &[], "x").unwrap_err();
        assert!(matches!(err, RelationError::SchemaMismatch { .. }));
    }

    #[test]
    fn semijoin_filters_left() {
        let r = emp();
        let cc = r.schema().require("cc").unwrap();
        let title = r.schema().require("title").unwrap();
        let right = select(&r, &Predicate::atom(Atom::new(cc, CmpOp::Eq, 44)));
        let out = semijoin(&r, &right, &[title], &[title]).unwrap();
        // Titles present among cc=44 tuples: MTS, DMTS → 4 tuples survive.
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn union_all_reassembles_fragments() {
        let r = emp();
        let title = r.schema().require("title").unwrap();
        let f1 = select(&r, &Predicate::atom(Atom::eq(title, "MTS")));
        let f2 = select(&r, &Predicate::atom(Atom::eq(title, "DMTS")));
        let f3 = select(&r, &Predicate::atom(Atom::eq(title, "VP")));
        let u = union_all(r.schema().clone(), &[&f1, &f2, &f3]).unwrap();
        assert_eq!(u.len(), r.len());
        assert_eq!(tid_set(&u), tid_set(&r));
        // The union shares the fragments' (= parent's) dictionaries.
        assert!(Arc::ptr_eq(u.dictionary(title), r.dictionary(title)));
    }

    #[test]
    fn union_all_rejects_mismatched_schema() {
        let r = emp();
        let other =
            Relation::new(Schema::builder("other").attr("x", ValueType::Int).build().unwrap());
        let err = union_all(r.schema().clone(), &[&other]).unwrap_err();
        assert!(matches!(err, RelationError::SchemaMismatch { .. }));
    }
}

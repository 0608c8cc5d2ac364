//! The σ partition function of Lemma 6.
//!
//! Given a variable CFD `φ = (X → A, Tp)` with `Tp` sorted
//! most-specific-first (fewer LHS wildcards first), σ maps each tuple to
//! the *first* pattern it matches. Because σ(t) depends only on `t[X]`,
//! tuples agreeing on `X` land in the same block, so
//! `Vioπ(φ, D) = ⋃_j Vioπ((X→A, {t_p^j}), ⋃_i H_i^j)` — each block can be
//! validated at its own coordinator (Lemma 6). This module computes the
//! per-fragment blocks `H_i^j` and the `lstat[i, j]` statistics.
//!
//! σ(t) in fact depends on less than `t[X]`: only on the positions of
//! `X` some pattern pins to a constant. The scan memoizes σ per pinned
//! projection — one `u32`, the pattern or a miss — in one
//! [`CodeMemo::resolve`] pass over the fragment ([`sigma_partition`]): a
//! flat slot array, filled a column at a time, when the projection's code
//! space fits the fragment, else a hash map. Each key is decided once,
//! and the dictionary is asked first: a key whose code at an
//! always-pinned position is no pattern's constant matches nothing,
//! without an index probe. The engines' σ phase runs this scan as one
//! pool task per site.

use dcd_cfd::kernel::LhsIndex;
use dcd_cfd::pattern::{compile_tableau, Admission, CompiledPattern};
use dcd_cfd::{NormalPattern, SimpleCfd};
use dcd_relation::ops::CodeMemo;
use dcd_relation::Relation;

/// A [`SimpleCfd`] with its tableau re-sorted most-specific-first, as
/// required by σ. Construct via [`sort_for_sigma`].
#[derive(Debug, Clone)]
pub struct SortedCfd {
    /// The CFD with permuted tableau.
    pub cfd: SimpleCfd,
    /// `original[k]` = index in the input tableau of sorted pattern `k`.
    pub original: Vec<usize>,
}

/// Sorts the tableau of `cfd` by generality (ascending LHS wildcard
/// count, ties in input order).
pub fn sort_for_sigma(cfd: &SimpleCfd) -> SortedCfd {
    let order = dcd_cfd::pattern::generality_order(&cfd.tableau);
    let tableau: Vec<NormalPattern> = order.iter().map(|&i| cfd.tableau[i].clone()).collect();
    SortedCfd {
        cfd: SimpleCfd {
            name: cfd.name.clone(),
            schema: cfd.schema.clone(),
            lhs: cfd.lhs.clone(),
            rhs: cfd.rhs,
            tableau,
        },
        original: order,
    }
}

/// The σ-partition of one fragment: `blocks[j]` holds the indices (into
/// the fragment's rows) of the tuples with `σ(t) = j`; `comparisons` is
/// the number of pattern-match operations performed (it feeds the
/// response-time model — scanning a longer tableau costs more).
#[derive(Debug, Clone)]
pub struct SigmaPartition {
    /// Tuple indices per sorted-pattern index.
    pub blocks: Vec<Vec<usize>>,
    /// Pattern-match comparisons performed.
    pub comparisons: usize,
}

impl SigmaPartition {
    /// `lstat[i, l]` of Fig. 2: block sizes.
    pub fn lstat(&self) -> Vec<usize> {
        self.blocks.iter().map(Vec::len).collect()
    }

    /// Total matching tuples (`cnt(Di[Tp[X]])` of CTRDETECT step 1).
    pub fn total_matching(&self) -> usize {
        self.blocks.iter().map(Vec::len).sum()
    }
}

/// Computes σ over one fragment, restricted to `applicable` pattern
/// indices (the partitioning condition guarantees the skipped patterns
/// cannot match any tuple of this fragment). `applicable` must be sorted
/// ascending; pass `0..k` when no fragment predicate is available.
///
/// The tableau is compiled against the fragment's dictionaries once
/// (one lookup per pattern constant) into a `SigmaIndex`, after which
/// the scan is a single pass reading the pinned columns only. Each row
/// looks its pattern up in a [`CodeMemo`] keyed by its pinned projection
/// — a slot array when the pinned columns' code space fits the fragment,
/// a hash map otherwise — and is pushed straight into its block, so
/// per-block row order is scan order. The memo is filled on a key's
/// first sight, with one `u32`: the pattern, or a miss. A key the
/// admission filter rejects is a miss; any other key costs one index
/// probe. A tableau that pins nothing (an FD, or an empty LHS) has a
/// constant σ: one probe answers for the whole fragment and nothing is
/// looked up.
///
/// `comparisons` counts one unit per pattern tried per tuple, feeding the
/// response-time model. It is read off the blocks after the scan: a row
/// in the block of the pattern of rank `k` among `applicable` was tried
/// against `k + 1` patterns ([`LhsIndex::first_matched`]), and a miss
/// against all of them — exactly what the tableau scan would have
/// tried before giving up. It and the per-block index order are
/// bit-identical to the naive per-tuple tableau scan (pinned by
/// `tests/prop_sigma.rs`).
pub fn sigma_partition(
    fragment: &Relation,
    sorted: &SortedCfd,
    applicable: &[usize],
) -> SigmaPartition {
    let compiled = compile_tableau(&sorted.cfd.tableau, fragment, &sorted.cfd.lhs, sorted.cfd.rhs);
    let index = SigmaIndex::build(&compiled, applicable);
    let rows = fragment.len();
    let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); sorted.cfd.tableau.len()];
    // The probe key: unpinned cells stay 0, no probe reads them.
    let mut key_codes: Vec<u32> = vec![0; sorted.cfd.lhs.len()];
    let mut probe_buf: Vec<u32> = Vec::with_capacity(key_codes.len());
    if index.pinned.is_empty() {
        if let Some(pi) = index.assign(&key_codes, &mut probe_buf) {
            blocks[pi].extend(0..rows);
        }
    } else {
        let lhs_cols = fragment.code_views(&sorted.cfd.lhs);
        let sigma_of = |r: usize| {
            if !index.admission.admits_row(&lhs_cols, r) {
                return MISS;
            }
            for &j in &index.pinned {
                key_codes[j] = lhs_cols[j][r];
            }
            index
                .assign(&key_codes, &mut probe_buf)
                .map_or(MISS, |pi| u32::try_from(pi).expect("fewer patterns than u32::MAX"))
        };
        let pinned_cols: Vec<&[u32]> = index.pinned.iter().map(|&j| lhs_cols[j]).collect();
        let pinned_sizes =
            index.pinned.iter().map(|&j| fragment.dictionary(sorted.cfd.lhs[j]).len());
        let mut memo = CodeMemo::new(pinned_sizes, rows);
        memo.resolve(&pinned_cols, 0..rows, sigma_of, |r, pat| {
            if pat != MISS {
                blocks[pat as usize].push(r);
            }
        });
        // The blocks outlive the scan — a round ships from them — so
        // they keep no spare room.
        blocks.iter_mut().for_each(Vec::shrink_to_fit);
    }
    // A row in the block of `applicable[rank]` was tried against
    // `rank + 1` patterns, every other row against all of them.
    let (mut comparisons, mut matched) = (0, 0);
    for (&pi, tries) in index.applicable.iter().zip(1..) {
        comparisons += blocks[pi].len() * tries;
        matched += blocks[pi].len();
    }
    comparisons += (rows - matched) * index.applicable.len();
    SigmaPartition { blocks, comparisons }
}

/// σ's memo value for a key that matches no applicable pattern.
const MISS: u32 = u32::MAX;

/// The σ decision structure of one (fragment, CFD): what tableau
/// compilation and the dictionary lookups leave for the scan to probe.
/// Three parts, all over the applicable patterns:
///
/// * the detection kernel's [`LhsIndex`] — the same
///   bucketing-by-wildcard-mask every detector probes. σ of a key is one
///   probe per distinct mask, `O(masks)` instead of `O(|Tp|)`, and the
///   answer (the first matching pattern) is the scan's;
/// * the *pinned* LHS positions — those some pattern fixes to a
///   constant. A probe reads no other key cell, so σ(t) is a function of
///   `t`'s projection on them;
/// * the [`Admission`] filter — the constant codes the patterns carry at
///   each position none of them leaves wild. A tuple outside it matches
///   nothing.
struct SigmaIndex {
    /// The kernel's bucketing over the applicable patterns, ranks in
    /// scan order. Patterns carrying a `NO_CODE` constant sit in the
    /// buckets harmlessly — probe keys hold real codes only, so
    /// infeasible patterns can never win a probe.
    index: LhsIndex,
    /// The scan order the ranks index into: `applicable[rank]` is the
    /// pattern a winning probe resolves to.
    applicable: Vec<usize>,
    /// [`LhsIndex::pinned_positions`] of `index`.
    pinned: Vec<usize>,
    admission: Admission,
}

impl SigmaIndex {
    /// Builds the index from a fragment-compiled tableau and the
    /// (ascending) applicable pattern indices of that fragment.
    fn build(compiled: &[CompiledPattern], applicable: &[usize]) -> Self {
        let index = LhsIndex::of_applicable(compiled, applicable);
        SigmaIndex {
            pinned: index.pinned_positions(),
            admission: Admission::of_patterns(applicable.iter().map(|&pi| &compiled[pi])),
            index,
            applicable: applicable.to_vec(),
        }
    }

    /// σ of one LHS code key (only its pinned cells are read): the
    /// first applicable pattern it matches in scan order. `buf` is
    /// scratch space reused across calls.
    fn assign(&self, key: &[u32], buf: &mut Vec<u32>) -> Option<usize> {
        self.index.first_matched(key, buf).map(|rank| self.applicable[rank])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_cfd::Cfd;
    use dcd_relation::{vals, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn phi1(s: &Arc<Schema>) -> SimpleCfd {
        let a = parse_cfd(s, "a", "([cc=44, zip] -> [street])").unwrap();
        let b = parse_cfd(s, "b", "([cc=31, zip] -> [street])").unwrap();
        let w = parse_cfd(s, "w", "([cc, zip] -> [street])").unwrap();
        // Deliberately put the most general pattern first to exercise
        // the sort.
        Cfd::merge("phi", &[&w, &a, &b]).unwrap().simplify().pop().unwrap()
    }

    #[test]
    fn sort_puts_specific_patterns_first() {
        let s = schema();
        let sorted = sort_for_sigma(&phi1(&s));
        assert_eq!(sorted.original, vec![1, 2, 0]);
        assert_eq!(sorted.cfd.tableau[2].lhs_wildcards(), 2);
    }

    #[test]
    fn sigma_assigns_first_match_and_partitions() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"], // matches (44,_) first
                vals![31, "z1", "b"], // matches (31,_)
                vals![1, "z2", "c"],  // only the wildcard pattern
                vals![44, "z3", "d"],
            ],
        )
        .unwrap();
        let sorted = sort_for_sigma(&phi1(&s));
        let part = sigma_partition(&rel, &sorted, &[0, 1, 2]);
        assert_eq!(part.blocks[0], vec![0, 3]); // cc=44
        assert_eq!(part.blocks[1], vec![1]); // cc=31
        assert_eq!(part.blocks[2], vec![2]); // wildcard catch-all
        assert_eq!(part.lstat(), vec![2, 1, 1]);
        assert_eq!(part.total_matching(), 4);
        // Every tuple is in exactly one block (σ is a function).
        let total: usize = part.blocks.iter().map(Vec::len).sum();
        assert_eq!(total, rel.len());
    }

    #[test]
    fn tuples_matching_nothing_are_dropped() {
        let s = schema();
        let rel = Relation::from_rows(s.clone(), vec![vals![99, "z", "x"]]).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street])").unwrap();
        let sorted = sort_for_sigma(&cfd.simplify().pop().unwrap());
        let part = sigma_partition(&rel, &sorted, &[0]);
        assert_eq!(part.total_matching(), 0);
    }

    #[test]
    fn applicable_filter_skips_patterns() {
        let s = schema();
        let rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "a"], vals![31, "z2", "b"]])
            .unwrap();
        let sorted = sort_for_sigma(&phi1(&s));
        // Pretend patterns 0 (cc=44) is inapplicable at this site.
        let part = sigma_partition(&rel, &sorted, &[1, 2]);
        assert!(part.blocks[0].is_empty());
        // Tuple 0 falls through to the wildcard pattern instead: σ must
        // stay within applicable patterns.
        assert_eq!(part.blocks[2], vec![0]);
        assert_eq!(part.blocks[1], vec![1]);
    }

    /// Lemma 6, checked directly: per-block detection over the blocks of
    /// all fragments equals whole-relation detection.
    #[test]
    fn lemma6_blockwise_equals_global() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"], // conflict with previous
                vals![31, "z2", "c"],
                vals![31, "z2", "c"], // no conflict
                vals![7, "z3", "d"],
                vals![7, "z3", "e"], // conflict under wildcard pattern
            ],
        )
        .unwrap();
        let simple = phi1(&s);
        let sorted = sort_for_sigma(&simple);
        let part = sigma_partition(&rel, &sorted, &[0, 1, 2]);
        let attrs = simple.shipped_attrs();
        let resolved = dcd_cfd::CodeLayout::of_relation(&rel, &attrs).resolve(&sorted.cfd);
        let mut merged = dcd_cfd::violation::ViolationSet::default();
        for (pi, block) in part.blocks.iter().enumerate() {
            merged.merge(resolved.detect_pattern_among(rel.code_rows(&attrs, block).iter(), pi));
        }
        let decoded: Vec<dcd_relation::Tuple> = rel.iter().collect();
        let global = dcd_cfd::oracle::vio(&decoded.iter().collect::<Vec<_>>(), &simple);
        assert_eq!(merged, global);
        let columnar = dcd_cfd::detect_simple(&rel, &simple);
        assert_eq!(columnar, global);
    }

    #[test]
    fn comparisons_grow_with_tableau_position() {
        let s = schema();
        let rel =
            Relation::from_rows(s.clone(), vec![vals![1, "z", "x"]; 10].into_iter().collect())
                .unwrap();
        let sorted = sort_for_sigma(&phi1(&s));
        let part = sigma_partition(&rel, &sorted, &[0, 1, 2]);
        // Each tuple scans 3 patterns before matching the wildcard.
        assert_eq!(part.comparisons, 30);
    }
}

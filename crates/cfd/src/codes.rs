//! Code-native coordinator validation: over shipped `(tid, codes)` wire
//! rows, or over σ-blocks read where they lie.
//!
//! The batch detectors' coordinators receive σ-blocks from many
//! fragments. On the *code-native* wire — the one the incremental delta
//! protocol of `dcd-incr` uses too — each shipped row is just
//! `(tid, codes)`: one `u32` dictionary code per projected attribute,
//! 4 bytes per cell. Because fragments built through the `dcd-dist`
//! constructors share their parent's dictionaries, codes are
//! site-portable: the coordinator compares them directly, compiles the
//! tableau once against the shared dictionaries
//! ([`CompiledPattern::compile_with`]), and decodes only the *violating*
//! group keys back to values for `Vioπ`.
//!
//! A [`CodeLayout`] names what a coordinator reads: which original
//! attributes, in which order, over which dictionaries. The ledger
//! prices the shipment; what the host reads comes in two shapes with one
//! meaning. A cluster coordinator — every `CLUSTDETECT` round, a cluster
//! of one included — and VERTDETECT's coordinator read their rows where
//! the fragments hold them ([`ResolvedCfd::detect_blocks`]): each block
//! is a fragment's columns in layout order plus the block's row list,
//! and nothing is copied. [`CodeRow`]s, one heap buffer per row, are
//! still what `run_batch`'s round builds — one σ-block at a time inside
//! the coordinator's validation task, validated on its own
//! ([`ResolvedCfd::detect_pattern_block`]) and dropped before the next —
//! and what the incremental wire carries. The detection methods here
//! hand either to the [`kernel`]: blocks to the same slice loop as the
//! columnar [`detect_simple`](crate::detect_simple), together with the
//! LHS dictionaries' sizes as of the call, which decide whether it
//! groups in slots or by hashing; wire rows to the boxed-row loop, which
//! hashes. They are pinned, like it, against the pairwise
//! [`oracle`](crate::oracle) (the tests below, `tests/prop_oracle.rs`
//! and `tests/prop_cluster.rs`).

use crate::cfd::SimpleCfd;
use crate::kernel::{self, ColumnRows, Flagged, KernelTally, LhsIndex, Tableau};
use crate::pattern::CompiledPattern;
use crate::violation::ViolationSet;
use dcd_relation::{AttrId, Codes, Dictionary, Relation, TupleId, Value};
use std::sync::Arc;

/// One row on the code-native wire: a tuple id plus the dictionary
/// codes of the shipped attributes, in [`CodeLayout`] order.
pub type CodeRow = (TupleId, Box<[u32]>);

/// The shape of the rows a coordinator reads — [`CodeRow`]s, or
/// columns where they lie: which original-schema attributes the cells
/// hold (in cell order) and the shared dictionaries they are coded
/// against.
///
/// Built once per detection round at the coordinator; validation then
/// resolves each CFD's attributes to cell positions through it.
#[derive(Debug, Clone)]
pub struct CodeLayout {
    attrs: Vec<AttrId>,
    dicts: Vec<Arc<Dictionary>>,
}

impl CodeLayout {
    /// A layout over explicit attributes and their dictionaries
    /// (aligned, one dictionary per attribute).
    pub fn new(attrs: Vec<AttrId>, dicts: Vec<Arc<Dictionary>>) -> Self {
        debug_assert_eq!(attrs.len(), dicts.len());
        CodeLayout { attrs, dicts }
    }

    /// The layout of rows shipped as `rel.code_rows(attrs, ..)`, or read
    /// in place as `rel.code_views(attrs)`: dictionaries are taken from
    /// `rel` (and are shared by every fragment of the same partition).
    pub fn of_relation(rel: &Relation, attrs: &[AttrId]) -> Self {
        CodeLayout { attrs: attrs.to_vec(), dicts: rel.dictionaries_of(attrs) }
    }

    /// The attributes the rows carry, in cell order.
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// The cell position of an original-schema attribute, if carried.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Resolves one CFD against this layout: LHS cell positions, RHS
    /// cell position, the LHS dictionaries (for key decoding) and the
    /// tableau compiled against the shared dictionaries. Resolution
    /// costs one dictionary lookup per pattern constant — do it once
    /// per detection round and reuse the [`ResolvedCfd`] across
    /// coordinators and pattern blocks (it is `Sync`).
    ///
    /// # Panics
    ///
    /// If the layout does not carry all of the CFD's attributes —
    /// shipping a block that cannot be validated is a protocol bug, not
    /// a data condition.
    #[expect(
        clippy::expect_used,
        reason = "internal invariant: every caller lays its rows out over attributes that \
                  hold the CFD's LHS and RHS: its `shipped_attrs`, a cluster's union of \
                  them, or a vertical gather plan of them"
    )]
    pub fn resolve(&self, cfd: &SimpleCfd) -> ResolvedCfd {
        let lhs_pos: Vec<usize> = cfd
            .lhs
            .iter()
            .map(|&a| self.position(a).expect("layout carries every CFD LHS attribute"))
            .collect();
        let rhs_pos = self.position(cfd.rhs).expect("layout carries the CFD RHS attribute");
        let lhs_dicts: Vec<Arc<Dictionary>> =
            lhs_pos.iter().map(|&p| self.dicts[p].clone()).collect();
        let compiled: Vec<CompiledPattern> = cfd
            .tableau
            .iter()
            .map(|p| CompiledPattern::compile_with(p, &lhs_dicts, &self.dicts[rhs_pos]))
            .collect();
        let index = LhsIndex::of_compiled(&compiled);
        ResolvedCfd { lhs_pos, rhs_pos, lhs_dicts, compiled, index }
    }
}

/// A CFD resolved against one [`CodeLayout`]: cell positions plus the
/// compiled tableau, ready to validate any number of row batches
/// without touching the dictionaries again (except to decode violating
/// group keys).
#[derive(Debug, Clone)]
pub struct ResolvedCfd {
    lhs_pos: Vec<usize>,
    rhs_pos: usize,
    lhs_dicts: Vec<Arc<Dictionary>>,
    compiled: Vec<CompiledPattern>,
    /// The kernel's LHS bucketing, built once at resolution and shared
    /// by every validation call (and by σ, which wraps the same type).
    index: LhsIndex,
}

impl ResolvedCfd {
    fn decode_key(&self, key_codes: &[u32]) -> Vec<Value> {
        self.lhs_dicts.iter().zip(key_codes).map(|(d, &c)| d.value(c)).collect()
    }

    /// Copies a wire row's LHS cells into `buf`, in LHS order.
    fn project_lhs(&self, codes: &[u32], buf: &mut [u32]) {
        for (b, &p) in buf.iter_mut().zip(&self.lhs_pos) {
            *b = codes[p];
        }
    }

    /// Detects violations of a single pattern `(X → A, {tp})` among
    /// gathered code rows — what a per-pattern coordinator runs on its
    /// Lemma 6 block. Algorithmic reading. The rows are walked twice.
    /// What the kernel counted comes back beside the violations.
    pub fn detect_pattern_block<'a>(
        &self,
        rows: impl Iterator<Item = &'a CodeRow> + Clone,
        pattern_idx: usize,
    ) -> (ViolationSet, KernelTally) {
        let pat = &self.compiled[pattern_idx];
        // Rows the pattern does not match stay outside every group, so
        // the kernel validates each key against it without probing.
        let (found, tally) = kernel::detect_grouped(
            rows,
            |(_, codes), key| {
                self.project_lhs(codes, key);
                pat.feasible && pat.matches_codes(key)
            },
            |(tid, codes)| (*tid, codes[self.rhs_pos]),
            &Tableau { patterns: std::slice::from_ref(pat), index: None, strict: false },
            |key| self.decode_key(key),
        );
        (found.into(), tally)
    }

    /// [`Self::detect_pattern_block`] without the tally. It stays only
    /// because `benchmark/src/layers.rs` spells it; the engine calls the
    /// form that returns the tally.
    pub fn detect_pattern_among<'a>(
        &self,
        rows: impl Iterator<Item = &'a CodeRow> + Clone,
        pattern_idx: usize,
    ) -> ViolationSet {
        self.detect_pattern_block(rows, pattern_idx).0
    }

    /// Detects violations of the resolved CFD among rows where they lie,
    /// under the algorithmic reading — what a cluster coordinator runs
    /// per member CFD over the σ-blocks assigned to it, and VERTDETECT's
    /// coordinator over the rows every supplier kept. Each block is
    /// `(cols, tids, rows)`: the columns of this layout's attributes in
    /// cell order, the tuple ids they align with, and the rows to read.
    /// The blocks are validated together, in the order given, as one
    /// batch of their rows would be: one group-id table spans them, so a
    /// group may take members from several blocks. Equal to the oracle's
    /// `Vio`/`Vioπ` over the decoded tuples (pinned by tests and the
    /// workspace equivalence suites). The findings come back as plain
    /// vectors: the coordinators of a round hold disjoint rows, so the
    /// caller builds each member's set once
    /// ([`ViolationSet::from_disjoint`]). What the kernel counted comes
    /// back beside them.
    pub fn detect_blocks<'a>(
        &self,
        blocks: impl IntoIterator<Item = (&'a [Codes<'a>], &'a [TupleId], &'a [usize])>,
    ) -> (Flagged, KernelTally) {
        if self.compiled.is_empty() {
            return Default::default();
        }
        let segments: Vec<ColumnRows<'a, &[usize]>> = blocks
            .into_iter()
            .map(|(cols, tids, rows)| ColumnRows {
                lhs: self.lhs_pos.iter().map(|&p| cols[p]).collect(),
                rhs: cols[self.rhs_pos],
                tids,
                rows,
            })
            .collect();
        // The LHS dictionaries' sizes as of now choose the group-id table.
        let key_sizes = self.lhs_dicts.iter().map(|d| d.len());
        let tableau = Tableau { patterns: &self.compiled, index: Some(&self.index), strict: false };
        kernel::detect_columns(&segments, key_sizes, &tableau, |key| self.decode_key(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::parse::parse_cfd;
    use crate::violation::detect_simple;
    use dcd_relation::{vals, Schema, Tuple, ValueType};

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn sample() -> Relation {
        Relation::from_rows(
            schema(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "c"],
                vals![44, "z3", "d"],
                vals![7, "z9", "x"],
            ],
        )
        .unwrap()
    }

    fn wire(rel: &Relation, attrs: &[AttrId]) -> (Vec<CodeRow>, CodeLayout) {
        let rows: Vec<usize> = (0..rel.len()).collect();
        (rel.code_rows(attrs, &rows), CodeLayout::of_relation(rel, attrs))
    }

    #[test]
    fn wire_rows_and_blocks_in_place_match_oracle() {
        let rel = sample();
        for txt in [
            "([cc, zip] -> [street])",
            "([cc=44, zip] -> [street])",
            "([cc=44, zip] -> [street=a])",
            "([cc=99, zip] -> [street])", // infeasible constant
        ] {
            let cfd = parse_cfd(rel.schema(), "phi", txt).unwrap().simplify().pop().unwrap();
            let attrs = cfd.shipped_attrs();
            let (rows, layout) = wire(&rel, &attrs);
            let decoded: Vec<Tuple> = rel.iter().collect();
            let tuples: Vec<&Tuple> = decoded.iter().collect();
            let want = oracle::vio(&tuples, &cfd);
            let (code_native, _) = layout.resolve(&cfd).detect_pattern_block(rows.iter(), 0);
            assert_eq!(code_native, want, "{txt} Vio, Vioπ");
            // And both agree with the columnar whole-relation path.
            let full = detect_simple(&rel, &cfd);
            assert_eq!(code_native.tids(), full.tids(), "{txt} vs detect_simple");
            // The same rows read in place, as two blocks: the same
            // findings, ids in row order, each violating key once.
            let cols = rel.code_views(&attrs);
            let (head, tail): (Vec<usize>, Vec<usize>) = (0..rel.len()).partition(|&r| r < 3);
            let blocks = [&head, &tail].map(|rows| (&cols[..], rel.tids(), &rows[..]));
            let (found, _) = layout.resolve(&cfd).detect_blocks(blocks);
            assert!(found.tids.is_sorted(), "{txt}: sample ids ascend with the rows");
            assert_eq!(found.patterns.len(), want.pattern_count(), "{txt}: distinct keys");
            assert_eq!(ViolationSet::from(found), want, "{txt} blocks Vio, Vioπ");
        }
    }

    #[test]
    fn per_pattern_matches_oracle() {
        let rel = sample();
        let a = parse_cfd(rel.schema(), "a", "([cc=44, zip] -> [street])").unwrap();
        let b = parse_cfd(rel.schema(), "b", "([cc, zip] -> [street])").unwrap();
        let cfd = crate::Cfd::merge("phi", &[&a, &b]).unwrap().simplify().pop().unwrap();
        let attrs = cfd.shipped_attrs();
        let (rows, layout) = wire(&rel, &attrs);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        let resolved = layout.resolve(&cfd);
        for l in 0..cfd.tableau.len() {
            let one = SimpleCfd { tableau: vec![cfd.tableau[l].clone()], ..cfd.clone() };
            let want = oracle::vio(&tuples, &one);
            let code_native = resolved.detect_pattern_among(rows.iter(), l);
            assert_eq!(code_native, want, "pattern {l} Vio, Vioπ");
        }
    }

    #[test]
    fn layout_handles_rhs_inside_lhs_and_wider_layouts() {
        let s = schema();
        let rel = sample();
        // RHS ∈ LHS: shipped_attrs dedupes, layout resolves both to the
        // same cell.
        let cfd = crate::Cfd::with_names(
            "t",
            s,
            &["cc", "street"],
            &["street"],
            vec![crate::PatternTuple::new(
                vec![crate::PatternValue::Wild, crate::PatternValue::Wild],
                vec![crate::PatternValue::Wild],
            )],
        )
        .unwrap()
        .simplify()
        .pop()
        .unwrap();
        let attrs = cfd.shipped_attrs();
        assert_eq!(attrs.len(), 2);
        let (rows, layout) = wire(&rel, &attrs);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        let want = oracle::vio(&tuples, &cfd);
        assert_eq!(layout.resolve(&cfd).detect_pattern_block(rows.iter(), 0).0.tids(), want.tids());
        // A layout carrying *more* attributes than the CFD needs (the
        // cluster wire ships the union of member attributes).
        let all: Vec<AttrId> = rel.schema().attr_ids().collect();
        let (wide_rows, wide_layout) = wire(&rel, &all);
        let wide = wide_layout.resolve(&cfd).detect_pattern_block(wide_rows.iter(), 0).0;
        assert_eq!(wide.tids(), want.tids());
    }

    #[test]
    fn cross_fragment_codes_are_portable() {
        // Two fragments sharing dictionaries ship rows that validate
        // together at a third party.
        let rel = sample();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])")
            .unwrap()
            .simplify()
            .pop()
            .unwrap();
        let attrs = cfd.shipped_attrs();
        let mut a = rel.with_capacity_like(3);
        let mut b = rel.with_capacity_like(3);
        for (i, t) in rel.iter().enumerate() {
            if i % 2 == 0 {
                a.push_tuple(t).unwrap();
            } else {
                b.push_tuple(t).unwrap();
            }
        }
        let rows_a: Vec<usize> = (0..a.len()).collect();
        let rows_b: Vec<usize> = (0..b.len()).collect();
        let mut gathered = a.code_rows(&attrs, &rows_a);
        gathered.extend(b.code_rows(&attrs, &rows_b));
        let layout = CodeLayout::of_relation(&a, &attrs);
        let (got, _) = layout.resolve(&cfd).detect_pattern_block(gathered.iter(), 0);
        assert_eq!(got, detect_simple(&rel, &cfd));
    }
}

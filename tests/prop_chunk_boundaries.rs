//! Chunked ≡ flat storage semantics, pinned at chunk seams.
//!
//! A [`Relation`]'s columns are sequences of fixed-size dense chunks
//! ([`Relation::chunk_rows`]); every public operation must behave as if
//! the column were one flat array. These proptests lay the same data out
//! in a drawn chunk size (so most operations cross seams) and in one
//! larger than the data (one flat chunk), then drive `code_rows`, the
//! column-batch gather, delta application (`remove_rows` + chunk-tail
//! appends under the hood) and point reads across both layouts, demanding
//! identical results — including on ranges that straddle chunk
//! boundaries. A last test pins where a derived relation's size comes
//! from: its source.

mod common;

use common::{arb_chunk_rows, chunk_rows};
use distributed_cfd::datagen::inject_errors;
use distributed_cfd::prelude::*;
use distributed_cfd::relation::{ops, AttrId, CodeBatch};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

fn build(rows: &[(i64, u8)]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter().enumerate().map(|(i, &(a, b))| vals![i, a, format!("b{b}")]).collect(),
    )
    .unwrap()
}

/// The same rows laid out in `chunk`-row chunks and in one flat chunk.
fn both_layouts(rows: &[(i64, u8)], chunk: NonZeroUsize) -> (Relation, Relation) {
    (build(rows).with_chunk_rows(chunk), build(rows).with_chunk_rows(chunk_rows(1 << 20)))
}

/// Full observable state of a relation: per-row `(tid, codes over all
/// attributes)` — layout-independent iff chunking is semantically
/// invisible.
fn snapshot(rel: &Relation) -> Vec<(TupleId, Box<[u32]>)> {
    rel.code_rows(&all_attrs(rel), &(0..rel.len()).collect::<Vec<_>>())
}

fn all_attrs(rel: &Relation) -> Vec<AttrId> {
    rel.schema().attr_ids().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `code_rows` over arbitrary row subsets (including seam-straddling
    /// runs) is identical chunked vs flat.
    #[test]
    fn code_rows_ignores_chunk_layout(
        rows in prop::collection::vec((0..5i64, 0..4u8), 1..60),
        chunk in arb_chunk_rows(),
        picks in prop::collection::vec(0..60usize, 0..30),
    ) {
        let (chunked, flat) = both_layouts(&rows, chunk);
        prop_assert!(chunked.n_chunks() >= flat.n_chunks());
        let subset: Vec<usize> = picks.into_iter().filter(|&i| i < rows.len()).collect();
        let attrs = all_attrs(&chunked);
        prop_assert_eq!(chunked.code_rows(&attrs, &subset), flat.code_rows(&attrs, &subset));
        prop_assert_eq!(snapshot(&chunked), snapshot(&flat));
    }

    /// A σ-block — ascending rows, here a run that crosses every seam
    /// between its ends, thinned by a stride — reads the same chunked
    /// and flat, and [`Relation::gather_into`] lays the same ids and
    /// cells out column-major, in the same order, for any attribute
    /// subset in any order, appending to what the batch already holds.
    #[test]
    fn gather_into_equals_code_rows_across_seams(
        rows in prop::collection::vec((0..5i64, 0..4u8), 1..60),
        chunk in arb_chunk_rows(),
        start in 0..60usize,
        len in 0..60usize,
        stride in 1..4usize,
        attr_picks in prop::collection::vec(0..3u16, 0..4),
        picks in prop::collection::vec(0..60usize, 0..30),
    ) {
        let (chunked, flat) = both_layouts(&rows, chunk);
        let attrs: Vec<_> = attr_picks.into_iter().map(AttrId).collect();
        let block: Vec<usize> =
            (start..start + len).step_by(stride).filter(|&i| i < rows.len()).collect();
        let unordered: Vec<usize> = picks.into_iter().filter(|&i| i < rows.len()).collect();
        prop_assert_eq!(chunked.code_rows(&attrs, &block), flat.code_rows(&attrs, &block));

        let mut batch = CodeBatch::with_capacity(attrs.len(), block.len());
        let buffers: Vec<*const u32> = batch.cols.iter().map(|col| col.as_ptr()).collect();
        chunked.gather_into(&attrs, &block, &mut batch);
        let filled: Vec<*const u32> = batch.cols.iter().map(|col| col.as_ptr()).collect();
        prop_assert_eq!(buffers, filled, "a batch with room for the block is filled in place");
        chunked.gather_into(&attrs, &unordered, &mut batch);

        let mut want = flat.code_rows(&attrs, &block);
        want.extend(flat.code_rows(&attrs, &unordered));
        prop_assert_eq!(batch.len(), want.len());
        prop_assert_eq!(&batch.tids, &want.iter().map(|(tid, _)| *tid).collect::<Vec<_>>());
        for (j, col) in batch.cols.iter().enumerate() {
            prop_assert_eq!(col, &want.iter().map(|(_, cells)| cells[j]).collect::<Vec<_>>());
        }
    }

    /// Deltas whose deletes and inserts straddle chunk seams leave the
    /// chunked and flat relations in identical states (`remove_rows`
    /// compaction + tail appends across chunk boundaries).
    #[test]
    fn apply_delta_ignores_chunk_layout(
        rows in prop::collection::vec((0..5i64, 0..4u8), 4..50),
        chunk in arb_chunk_rows(),
        del_picks in prop::collection::vec(0..50usize, 1..12),
        ins in prop::collection::vec((0..5i64, 0..4u8), 1..12),
    ) {
        let (mut chunked, mut flat) = both_layouts(&rows, chunk);
        let tids = chunked.tids().to_vec();
        let mut delta = RelationDelta::default();
        let mut deleted = std::collections::BTreeSet::new();
        for p in del_picks {
            if let Some(&tid) = tids.get(p % tids.len()) {
                if deleted.insert(tid) {
                    delta.deletes.push(tid);
                }
            }
        }
        for (j, &(a, b)) in ins.iter().enumerate() {
            let id = 10_000 + j as i64;
            delta.inserts.push(Tuple::new(
                TupleId((20_000 + j) as u64),
                vals![id, a, format!("b{b}")],
            ));
        }

        let eff_c = chunked.apply_delta(&delta).unwrap();
        let eff_f = flat.apply_delta(&delta).unwrap();
        prop_assert_eq!(eff_c, eff_f);
        prop_assert_eq!(chunked.len(), flat.len());
        prop_assert_eq!(snapshot(&chunked), snapshot(&flat));
    }

    /// Point reads at every position — in particular the first and last
    /// row of every chunk — agree with the flat layout.
    #[test]
    fn point_reads_agree_at_every_seam(
        rows in prop::collection::vec((0..5i64, 0..4u8), 1..40),
        chunk in arb_chunk_rows(),
    ) {
        let (chunked, flat) = both_layouts(&rows, chunk);
        for a in all_attrs(&chunked) {
            let vc = chunked.column(a).codes();
            let vf = flat.column(a).codes();
            for i in 0..chunked.len() {
                prop_assert_eq!(vc.at(i), vf.at(i), "attr {:?} row {}", a, i);
            }
        }
    }
}

/// The inheritance rule: a relation built from scratch is laid out in
/// `DEFAULT_CHUNK_ROWS`, and every relation built from another — a copy,
/// a projection, a fragment, a reassembly, a corrupted copy — keeps its
/// source's size.
#[test]
fn every_derived_relation_keeps_its_sources_chunk_size() {
    use distributed_cfd::relation::DEFAULT_CHUNK_ROWS;
    let rows: Vec<(i64, u8)> = (0..20).map(|i| (i % 5, (i % 4) as u8)).collect();
    assert_eq!(build(&rows).chunk_rows(), DEFAULT_CHUNK_ROWS);
    let src = build(&rows).with_chunk_rows(chunk_rows(3));
    let a = src.schema().require("a").unwrap();

    let mut derived: Vec<(&str, Relation)> = vec![
        ("empty_like", src.empty_like()),
        ("with_capacity_like", src.with_capacity_like(7)),
        ("copy_rows", src.copy_rows(&[4, 1, 9])),
        ("project", ops::project(&src, "r_a", &[a]).unwrap()),
        (
            "with_dictionaries",
            Relation::with_dictionaries(
                src.schema().clone(),
                src.dictionaries_of(&all_attrs(&src)),
                0,
                src.chunk_rows(),
            )
            .unwrap(),
        ),
        ("inject_errors", inject_errors(&src, "b", 0.5, 7).0),
    ];
    let predicates = (0..5).map(|v| Predicate::atom(Atom::eq(a, v))).collect();
    let horizontals = [
        ("round_robin", HorizontalPartition::round_robin(&src, 3).unwrap()),
        ("by_attribute", HorizontalPartition::by_attribute(&src, "a", 3).unwrap()),
        ("by_predicates", HorizontalPartition::by_predicates(&src, predicates).unwrap()),
    ];
    for (name, h) in &horizontals {
        derived.extend(h.fragments().iter().map(|f| (*name, f.data.clone())));
        derived.push(("horizontal reassemble", h.reassemble().unwrap()));
    }
    // A fragment over dictionaries of its own is re-encoded onto the
    // first fragment's, at that fragment's size.
    let mut data = Relation::new(schema());
    data.push_tuple(Tuple::new(TupleId(100), vals![100, 1, "b9"])).unwrap();
    let own = Fragment { site: SiteId(1), predicate: None, data };
    let first = horizontals[0].1.fragments()[0].clone();
    let assembled = HorizontalPartition::from_fragments(schema(), vec![first, own]).unwrap();
    derived.push(("from_fragments", assembled.fragments()[1].data.clone()));

    let vertical = VerticalPartition::by_attribute_groups(&src, &[&["a"], &["b"]]).unwrap();
    derived.extend(vertical.fragments().iter().map(|f| ("vertical", f.data.clone())));
    derived.push(("vertical reassemble", vertical.reassemble().unwrap()));
    let hybrid = HybridPartition::new(&horizontals[0].1, &[&["a"], &["b"]]).unwrap();
    for cell in hybrid.cells() {
        derived.extend(cell.vertical.fragments().iter().map(|f| ("hybrid", f.data.clone())));
    }
    derived.push(("hybrid reassemble", hybrid.reassemble().unwrap()));
    let replicated = ReplicatedPartition::chained(horizontals[0].1.clone(), 2).unwrap();
    derived.extend(replicated.base().fragments().iter().map(|f| ("replicated", f.data.clone())));

    for (name, rel) in &derived {
        assert_eq!(rel.chunk_rows(), 3, "{name}");
        assert!(rel.columns().iter().all(|c| c.chunk_rows() == 3), "{name}: a column");
    }
}

//! Chunked ≡ flat storage semantics, pinned at chunk seams.
//!
//! A [`Relation`]'s columns are sequences of fixed-size dense chunks
//! (`DCD_CHUNK_ROWS`); every public operation must behave as if the
//! column were one flat array. These proptests rebuild the same data
//! under a tiny chunk size (so every operation crosses seams) and under
//! a chunk size larger than the data (one flat chunk), then drive
//! `code_rows`, the column-batch gather, delta application
//! (`remove_rows` + chunk-tail appends under the hood) and point reads
//! across both layouts, demanding identical results — including on
//! ranges that straddle chunk boundaries.

use distributed_cfd::prelude::*;
use distributed_cfd::relation::{set_chunk_rows, CodeBatch};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};

/// `set_chunk_rows` is process-global; serialize every test that pokes
/// it so layouts never leak between concurrently running cases.
fn chunk_lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    match GUARD.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

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

/// Full observable state of a relation: per-row `(tid, codes over all
/// attributes)` — layout-independent iff chunking is semantically
/// invisible.
fn snapshot(rel: &Relation) -> Vec<(TupleId, Box<[u32]>)> {
    rel.code_rows(&all_attrs(rel), &(0..rel.len()).collect::<Vec<_>>())
}

fn all_attrs(rel: &Relation) -> Vec<distributed_cfd::relation::AttrId> {
    (0..rel.schema().arity() as u16).map(distributed_cfd::relation::AttrId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `code_rows` over arbitrary row subsets (including seam-straddling
    /// runs) is identical chunked vs flat.
    #[test]
    fn code_rows_ignores_chunk_layout(
        rows in prop::collection::vec((0..5i64, 0..4u8), 1..60),
        chunk in 1..9usize,
        picks in prop::collection::vec(0..60usize, 0..30),
    ) {
        let _guard = chunk_lock();
        set_chunk_rows(Some(chunk));
        let chunked = build(&rows);
        set_chunk_rows(Some(1 << 20)); // one flat chunk
        let flat = build(&rows);
        set_chunk_rows(None);

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
        chunk in 1..9usize,
        start in 0..60usize,
        len in 0..60usize,
        stride in 1..4usize,
        attr_picks in prop::collection::vec(0..3u16, 0..4),
        picks in prop::collection::vec(0..60usize, 0..30),
    ) {
        let _guard = chunk_lock();
        set_chunk_rows(Some(chunk));
        let chunked = build(&rows);
        set_chunk_rows(Some(1 << 20)); // one flat chunk
        let flat = build(&rows);
        set_chunk_rows(None);

        let attrs: Vec<_> = attr_picks.into_iter().map(distributed_cfd::relation::AttrId).collect();
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
        chunk in 1..7usize,
        del_picks in prop::collection::vec(0..50usize, 1..12),
        ins in prop::collection::vec((0..5i64, 0..4u8), 1..12),
    ) {
        let _guard = chunk_lock();
        let mut tids: Vec<TupleId> = Vec::new();
        let mut mk = |chunk_rows: usize| {
            set_chunk_rows(Some(chunk_rows));
            let rel = build(&rows);
            tids = rel.tids().to_vec();
            rel
        };
        let mut chunked = mk(chunk);
        let mut flat = mk(1 << 20);
        set_chunk_rows(None);

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
        chunk in 1..6usize,
    ) {
        let _guard = chunk_lock();
        set_chunk_rows(Some(chunk));
        let chunked = build(&rows);
        set_chunk_rows(Some(1 << 20));
        let flat = build(&rows);
        set_chunk_rows(None);

        for attr in 0..chunked.schema().arity() as u16 {
            let a = distributed_cfd::relation::AttrId(attr);
            let vc = chunked.column(a).codes();
            let vf = flat.column(a).codes();
            for i in 0..chunked.len() {
                prop_assert_eq!(vc.at(i), vf.at(i), "attr {} row {}", attr, i);
            }
        }
    }
}

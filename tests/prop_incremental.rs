//! Incremental-vs-full equivalence properties: after *every prefix* of
//! a generated delta stream, the incremental report must equal full
//! re-detection on the materialized state — checked against the
//! centralized detector and all five distributed detectors — and the
//! incremental run itself must be bit-identical (reports, ledger
//! totals, paper cost, per-site clocks) at pool widths 1 and 8. Each
//! case lays its relation out in a drawn chunk size, so the deltas land
//! on seams of their own.

mod common;

use common::arb_chunk_rows;
use distributed_cfd::datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

/// Rows over tiny domains so FD groups collide often.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u8, u8)>> {
    prop::collection::vec((0..4i64, 0..4i64, 0..3u8, 0..3u8), 1..40)
}

fn build_relation(rows: &[(i64, i64, u8, u8)], chunk: NonZeroUsize) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| vals![i as i64, a, b, format!("c{c}"), format!("d{d}")])
            .collect(),
    )
    .unwrap()
    .with_chunk_rows(chunk)
}

/// A random CFD over LHS ⊆ {a, b, c}, RHS = d, with wildcard/constant
/// mixes in the tableau.
fn arb_cfd() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>, Option<u8>)>> {
    prop::collection::vec(
        (prop::option::of(0..4i64), prop::option::of(0..4i64), prop::option::of(0..3u8)),
        1..4,
    )
}

fn build_cfd(
    name: &str,
    patterns: &[(Option<i64>, Option<i64>, Option<u8>)],
    rhs_const: Option<u8>,
) -> Cfd {
    let s = schema();
    let tableau = patterns
        .iter()
        .map(|(a, b, c)| {
            let pv = |o: &Option<i64>| match o {
                Some(v) => PatternValue::constant(*v),
                None => PatternValue::Wild,
            };
            let pc = |o: &Option<u8>| match o {
                Some(v) => PatternValue::constant(format!("c{v}")),
                None => PatternValue::Wild,
            };
            let rhs = match rhs_const {
                Some(v) => PatternValue::constant(format!("d{v}")),
                None => PatternValue::Wild,
            };
            PatternTuple::new(vec![pv(a), pv(b), pc(c)], vec![rhs])
        })
        .collect();
    Cfd::with_names(name, s, &["a", "b", "c"], &["d"], tableau).unwrap()
}

fn assert_equals_full_redetection(
    run: &IncrementalRun,
    sigma: &[Cfd],
) -> Result<(), TestCaseError> {
    let report = run.report();
    // Centralized full re-detection on the materialized relation.
    let rel = run.materialize().expect("reassembly succeeds");
    let global = detect_set(&rel, sigma);
    prop_assert_eq!(report.all_tids(), global.all_tids(), "centralized Vio(Σ)");
    for (name, vs) in &global.per_cfd {
        let (_, got) =
            report.per_cfd.iter().find(|(n, _)| n == name).expect("every CFD has an entry");
        prop_assert_eq!(&got.tids, &vs.tids, "Vio({})", name);
        prop_assert_eq!(&got.patterns, &vs.patterns, "Vioπ({})", name);
    }
    // All five distributed detectors on the materialized partition.
    let cfg = RunConfig::default();
    let run_alg = |alg: Algorithm, sigma: &[Cfd]| {
        DetectRequest::over(run.partition().clone())
            .cfds(sigma.iter().cloned())
            .algorithm(alg)
            .config(cfg)
            .run()
            .expect("materialized partitions are valid requests")
    };
    for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT] {
        for cfd in sigma {
            let d = run_alg(alg, std::slice::from_ref(cfd));
            let full = detect(&rel, cfd);
            prop_assert_eq!(&d.violations.all_tids(), &full.tids, "{:?}", alg);
        }
    }
    for alg in [Algorithm::seq_detect(), Algorithm::clust_detect()] {
        let d = run_alg(alg, sigma);
        prop_assert_eq!(d.violations.all_tids(), report.all_tids(), "{:?}", alg);
        for (name, vs) in &report.per_cfd {
            let (_, got) = d
                .violations
                .per_cfd
                .iter()
                .find(|(n, _)| n == name)
                .expect("every CFD has an entry");
            prop_assert_eq!(&got.tids, &vs.tids, "{:?} Vio({})", alg, name);
            prop_assert_eq!(&got.patterns, &vs.patterns, "{:?} Vioπ({})", alg, name);
        }
    }
    Ok(())
}

fn assert_runs_bit_identical(a: &IncrementalRun, b: &IncrementalRun) -> Result<(), TestCaseError> {
    let (da, db) = (a.detection(), b.detection());
    prop_assert_eq!(da.violations.all_tids(), db.violations.all_tids());
    prop_assert_eq!(da.shipped_tuples, db.shipped_tuples, "|M|");
    prop_assert_eq!(da.shipped_cells, db.shipped_cells, "cells");
    prop_assert_eq!(da.shipped_bytes, db.shipped_bytes, "bytes");
    prop_assert_eq!(da.control_messages, db.control_messages, "control");
    prop_assert_eq!(
        da.paper_cost.to_bits(),
        db.paper_cost.to_bits(),
        "paper_cost {} vs {}",
        da.paper_cost,
        db.paper_cost
    );
    prop_assert_eq!(
        da.response_time.to_bits(),
        db.response_time.to_bits(),
        "response_time {} vs {}",
        da.response_time,
        db.response_time
    );
    for (s, (ca, cb)) in da.site_clocks.iter().zip(&db.site_clocks).enumerate() {
        prop_assert_eq!(ca.to_bits(), cb.to_bits(), "clock of site {}: {} vs {}", s, ca, cb);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every prefix of the delta stream: the incremental report
    /// equals full re-detection (centralized + all five detectors) on
    /// the materialized state; pool widths 1 and 8 agree bit for bit
    /// on everything; and a fresh index rebuild reproduces the
    /// maintained state.
    #[test]
    fn incremental_equals_full_after_every_prefix(
        rows in arb_rows(),
        patterns1 in arb_cfd(),
        patterns2 in arb_cfd(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..5,
        ops in 4usize..16,
        seed in 0u64..1000,
        insert_ratio in 0.3f64..1.0,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let sigma = vec![
            build_cfd("phi1", &patterns1, None),
            build_cfd("phi2", &patterns2, rhs_const),
        ];
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let stream = update_stream(&partition, &UpdateStreamConfig {
            n_batches: 3,
            ops_per_batch: ops,
            insert_ratio,
            seed,
            ..Default::default()
        });
        let mut run1 = IncrementalRun::new(
            partition.clone(), &sigma, RunConfig::default().with_threads(1)).unwrap();
        let mut run8 = IncrementalRun::new(
            partition, &sigma, RunConfig::default().with_threads(8)).unwrap();
        assert_equals_full_redetection(&run1, &sigma)?;
        for batch in stream {
            let batch = DeltaBatch::from(batch);
            let out1 = run1.apply_batch(&batch).unwrap();
            let out8 = run8.apply_batch(&batch).unwrap();
            prop_assert_eq!(out1.paper_cost.to_bits(), out8.paper_cost.to_bits());
            assert_runs_bit_identical(&run1, &run8)?;
            assert_equals_full_redetection(&run1, &sigma)?;
            // A from-scratch index build on the materialized state
            // reproduces the maintained report and index geometry.
            let rebuilt = IncrementalRun::new(
                run1.partition().clone(), &sigma, RunConfig::default().with_threads(1)).unwrap();
            prop_assert_eq!(rebuilt.report().all_tids(), run1.report().all_tids());
            prop_assert_eq!(rebuilt.index_key_counts(), run1.index_key_counts());
        }
    }

    /// Replicated runs produce the same reports as plain horizontal
    /// runs on the same stream, at every replication factor.
    #[test]
    fn replication_factor_never_changes_reports(
        rows in arb_rows(),
        patterns in arb_cfd(),
        n_sites in 2usize..5,
        factor_seed in 0usize..100,
        seed in 0u64..1000,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let sigma = vec![build_cfd("phi", &patterns, None)];
        let base = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let factor = 1 + factor_seed % n_sites;
        let rep = ReplicatedPartition::chained(base.clone(), factor).unwrap();
        let stream = update_stream(&base, &UpdateStreamConfig {
            n_batches: 2, ops_per_batch: 10, seed, ..Default::default()
        });
        let mut plain = IncrementalRun::new(base, &sigma, RunConfig::default()).unwrap();
        let mut replicated =
            IncrementalRun::new_replicated(&rep, &sigma, RunConfig::default()).unwrap();
        for batch in stream {
            let batch = DeltaBatch::from(batch);
            let a = plain.apply_batch(&batch).unwrap();
            let b = replicated.apply_batch(&batch).unwrap();
            prop_assert_eq!(a.report.all_tids(), b.report.all_tids());
        }
        assert_equals_full_redetection(&replicated, &sigma)?;
    }

    /// Vertical incremental runs track centralized detection on the
    /// reassembled relation after every whole-tuple delta.
    #[test]
    fn vertical_incremental_tracks_centralized(
        rows in arb_rows(),
        patterns in arb_cfd(),
        rhs_const in prop::option::of(0..3u8),
        seed in 0u64..1000,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let sigma = vec![build_cfd("phi", &patterns, rhs_const)];
        // The CFD spans both vertical fragments: {a, c} vs {b, d}.
        let partition =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "c"], &["b", "d"]]).unwrap();
        let single = HorizontalPartition::round_robin(&rel, 1).unwrap();
        let stream = update_stream(&single, &UpdateStreamConfig {
            n_batches: 3, ops_per_batch: 8, seed, ..Default::default()
        });
        let mut run =
            VerticalIncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
        for batch in stream {
            let delta = DeltaBatch::from(batch).flatten();
            let out = run.apply_batch(&delta).unwrap();
            let rel_now = run.materialize().expect("reassembly succeeds");
            let global = detect_set(&rel_now, &sigma);
            prop_assert_eq!(out.report.all_tids(), global.all_tids());
            for (name, vs) in &global.per_cfd {
                let (_, got) =
                    out.report.per_cfd.iter().find(|(n, _)| n == name).expect("entry");
                prop_assert_eq!(&got.tids, &vs.tids, "Vio({})", name);
                prop_assert_eq!(&got.patterns, &vs.patterns, "Vioπ({})", name);
            }
        }
    }
}

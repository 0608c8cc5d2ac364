//! Incremental-vs-full equivalence properties: after *every prefix* of
//! a generated delta stream, the incremental report must equal full
//! re-detection on the materialized state — checked against the
//! centralized detector and all five distributed detectors — and the
//! incremental run's `Detection` must be `==` at pool widths 1 and 8.

mod common;

use common::{arb_patterns, arb_rows, build_cfd, build_relation};
use distributed_cfd::datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use proptest::prelude::*;

fn assert_equals_full_redetection(
    run: &IncrementalRun,
    sigma: &[Cfd],
) -> Result<(), TestCaseError> {
    let report = run.report();
    // Centralized full re-detection on the materialized relation.
    let rel = run.materialize().expect("reassembly succeeds");
    prop_assert_eq!(&report, &detect_set(&rel, sigma), "centralized");
    // All five distributed detectors on the materialized partition.
    let cfg = RunConfig::default();
    let run_alg = |alg: Algorithm, sigma: &[Cfd]| {
        DetectRequest::over(run.partition().clone())
            .cfds(sigma.iter().cloned())
            .algorithm(alg)
            .config(cfg)
            .plan()
            .map(|plan| plan.run())
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
        prop_assert_eq!(&run_alg(alg, sigma).violations, &report, "{:?}", alg);
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
        rows in arb_rows(1..40),
        patterns1 in arb_patterns(),
        patterns2 in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..5,
        ops in 4usize..16,
        seed in 0u64..1000,
        insert_ratio in 0.3f64..1.0,
    ) {
        let rel = build_relation(&rows);
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
            prop_assert_eq!(run1.detection(), run8.detection(), "widths 1 and 8");
            assert_equals_full_redetection(&run1, &sigma)?;
            // A from-scratch index build on the materialized state
            // reproduces the maintained report and index geometry.
            let rebuilt = IncrementalRun::new(
                run1.partition().clone(), &sigma, RunConfig::default().with_threads(1)).unwrap();
            prop_assert_eq!(rebuilt.report(), run1.report());
            prop_assert_eq!(rebuilt.index_key_counts(), run1.index_key_counts());
        }
    }

    /// Replicated runs produce the same reports as plain horizontal
    /// runs on the same stream, at every replication factor.
    #[test]
    fn replication_factor_never_changes_reports(
        rows in arb_rows(1..40),
        patterns in arb_patterns(),
        n_sites in 2usize..5,
        factor_seed in 0usize..100,
        seed in 0u64..1000,
    ) {
        let rel = build_relation(&rows);
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
            prop_assert_eq!(a.report, b.report);
        }
        assert_equals_full_redetection(&replicated, &sigma)?;
    }

    /// Vertical incremental runs track centralized detection on the
    /// reassembled relation after every whole-tuple delta.
    #[test]
    fn vertical_incremental_tracks_centralized(
        rows in arb_rows(1..40),
        patterns in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        seed in 0u64..1000,
    ) {
        let rel = build_relation(&rows);
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
            prop_assert_eq!(out.report, detect_set(&rel_now, &sigma));
        }
    }
}

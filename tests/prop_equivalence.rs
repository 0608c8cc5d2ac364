//! Property-based tests: on randomly generated relations, CFDs and
//! partitions, every distributed algorithm computes exactly the
//! violations of centralized detection, ships within its bounds, and
//! mining never changes results.

use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .build()
        .unwrap()
}

/// Rows over tiny domains so FD groups collide often.
fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u8, u8)>> {
    prop::collection::vec((0..4i64, 0..4i64, 0..3u8, 0..3u8), 1..60)
}

fn build_relation(rows: &[(i64, i64, u8, u8)]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter().map(|&(a, b, c, d)| vals![a, b, format!("c{c}"), format!("d{d}")]).collect(),
    )
    .unwrap()
}

/// Runs one facade request over a horizontal partition.
fn run_on(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    algorithm: Algorithm,
    cfg: &RunConfig,
) -> Detection {
    DetectRequest::over(partition.clone())
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(*cfg)
        .plan()
        .map(|plan| plan.run())
        .expect("generated requests are valid")
}

const SINGLE_CFD_ALGORITHMS: [Algorithm; 3] =
    [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT];

/// A random normalized CFD over the schema: LHS ⊆ {a, b, c}, RHS = d,
/// patterns mixing wildcards and small constants.
fn arb_cfd() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>, Option<u8>)>> {
    // Each element is one pattern row: constants or None (wildcard) per
    // LHS attribute.
    prop::collection::vec(
        (prop::option::of(0..4i64), prop::option::of(0..4i64), prop::option::of(0..3u8)),
        1..5,
    )
}

fn build_cfd(patterns: &[(Option<i64>, Option<i64>, Option<u8>)], rhs_const: Option<u8>) -> Cfd {
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
    Cfd::with_names("prop", s, &["a", "b", "c"], &["d"], tableau).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-CFD algorithms ≡ centralized detection, any partition.
    #[test]
    fn distributed_equals_centralized(
        rows in arb_rows(),
        patterns in arb_cfd(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..6,
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd(&patterns, rhs_const);
        let global = detect(&rel, &cfd);
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let cfg = RunConfig::default();
        for alg in SINGLE_CFD_ALGORITHMS {
            let d = run_on(&partition, std::slice::from_ref(&cfd), alg, &cfg);
            prop_assert_eq!(&d.violations.all_tids(), &global.tids, "{:?}", alg);
            let (_, vs) = d.violations.per_cfd.first().expect("entry exists even when clean");
            prop_assert_eq!(&vs.patterns, &global.patterns, "{:?} Vioπ", alg);
        }
    }

    /// Multi-CFD algorithms ≡ centralized. (No shipment comparison here:
    /// CLUSTDETECT's Z-projected patterns are more general than each
    /// member's own patterns, so on adversarial tableaus clustering can
    /// ship tuples no member CFD needs — the paper's savings are a
    /// property of its overlapping workloads, pinned separately in the
    /// workload tests.)
    #[test]
    fn multi_cfd_equals_centralized(
        rows in arb_rows(),
        patterns1 in arb_cfd(),
        patterns2 in arb_cfd(),
        n_sites in 1usize..5,
    ) {
        let rel = build_relation(&rows);
        let s = schema();
        let cfd1 = build_cfd(&patterns1, None);
        // Second CFD with contained LHS {a, b} → city-free projection.
        let tableau2 = patterns2
            .iter()
            .map(|(a, b, _)| {
                let pv = |o: &Option<i64>| match o {
                    Some(v) => PatternValue::constant(*v),
                    None => PatternValue::Wild,
                };
                PatternTuple::new(vec![pv(a), pv(b)], vec![PatternValue::Wild])
            })
            .collect();
        let cfd2 = Cfd::with_names("prop2", s, &["a", "b"], &["c"], tableau2).unwrap();
        let sigma = vec![cfd1, cfd2];
        let global = detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let cfg = RunConfig::default();
        let seq = run_on(&partition, &sigma, Algorithm::seq_detect(), &cfg);
        let clust = run_on(&partition, &sigma, Algorithm::clust_detect(), &cfg);
        prop_assert_eq!(&seq.violations.all_tids(), &global.all_tids());
        prop_assert_eq!(&clust.violations.all_tids(), &global.all_tids());
        for (name, vs) in &global.per_cfd {
            let (_, got) = clust.violations.per_cfd.iter().find(|(n, _)| n == name).unwrap();
            prop_assert_eq!(&got.tids, &vs.tids, "CLUSTDETECT per-CFD {}", name);
        }
    }

    /// Shipment bounds: nothing ships with one site; with more sites the
    /// per-pattern algorithms never ship more tuples than exist, and
    /// constant CFDs ship nothing.
    #[test]
    fn shipment_invariants(
        rows in arb_rows(),
        patterns in arb_cfd(),
        n_sites in 1usize..6,
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd(&patterns, Some(1)); // constant RHS
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let cfg = RunConfig::default();
        let d = run_on(&partition, std::slice::from_ref(&cfd), Algorithm::PatDetectS, &cfg);
        prop_assert_eq!(d.shipped_tuples, 0, "constant CFDs are local");

        let var = build_cfd(&patterns, None);
        let d = run_on(&partition, std::slice::from_ref(&var), Algorithm::PatDetectS, &cfg);
        prop_assert!(d.shipped_tuples <= rel.len());
        if n_sites == 1 {
            prop_assert_eq!(d.shipped_tuples, 0);
        }
    }

    /// Mining refinement never changes detection results.
    #[test]
    fn mining_preserves_semantics(
        rows in arb_rows(),
        theta in 0.05f64..1.0,
        n_sites in 1usize..4,
    ) {
        let rel = build_relation(&rows);
        let fd = Cfd::fd("fd", schema(), &["a", "b"], &["d"]).unwrap();
        let simple = fd.simplify().pop().unwrap();
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let cfg = RunConfig::default();
        let outcome = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta, max_width: 2 },
            &cfg.cost,
        );
        let plain = detect_simple(&rel, &simple);
        let refined = detect_simple(&rel, &outcome.cfd);
        prop_assert_eq!(&plain.tids, &refined.tids);
        // And distributed detection on the refined CFD agrees too.
        let d = run_on(&partition, &[outcome.cfd.to_cfd()], Algorithm::PatDetectS, &cfg);
        prop_assert_eq!(&d.violations.all_tids(), &plain.tids);
    }

    /// The columnar detector (`detect_simple`, running on dictionary
    /// codes) computes exactly what the row reference (the pairwise
    /// `dcd_cfd::oracle` over all tuples) computes — the core
    /// equivalence, on arbitrary relations and tableaux.
    #[test]
    fn columnar_detector_equals_row_reference(
        rows in arb_rows(),
        patterns in arb_cfd(),
        rhs_const in prop::option::of(0..3u8),
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd(&patterns, rhs_const);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let refs: Vec<&Tuple> = decoded.iter().collect();
        for simple in cfd.simplify() {
            let columnar = detect_simple(&rel, &simple);
            let rowwise = dcd_cfd::oracle::vio(&refs, &simple);
            prop_assert_eq!(&columnar, &rowwise);
        }
    }

    /// Encode → decode round-trip preserves detection end to end: all
    /// five detectors (CTRDETECT, PATDETECTS, PATDETECTRT, SEQDETECT,
    /// CLUSTDETECT) report identical violation sets *and* shipment
    /// counts on the original relation and on one rebuilt from its
    /// decoded cells (fresh dictionaries, codes re-assigned).
    #[test]
    fn detectors_identical_after_columnar_round_trip(
        rows in arb_rows(),
        patterns in arb_cfd(),
        n_sites in 1usize..5,
    ) {
        let rel = build_relation(&rows);
        let decoded: Vec<Vec<Value>> = (0..rel.len())
            .map(|i| rel.columns().iter().map(|c| c.decode(i)).collect())
            .collect();
        let rebuilt = Relation::from_rows(schema(), decoded).unwrap();

        let cfd = build_cfd(&patterns, None);
        let sigma = vec![cfd.clone()];
        let cfg = RunConfig::default();
        let part_a = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let part_b = HorizontalPartition::round_robin(&rebuilt, n_sites).unwrap();

        for alg in SINGLE_CFD_ALGORITHMS {
            let a = run_on(&part_a, std::slice::from_ref(&cfd), alg, &cfg);
            let b = run_on(&part_b, std::slice::from_ref(&cfd), alg, &cfg);
            prop_assert_eq!(&a.violations, &b.violations, "{:?}", alg);
            prop_assert_eq!(a.shipped_tuples, b.shipped_tuples, "{:?} |M|", alg);
            prop_assert_eq!(a.shipped_cells, b.shipped_cells, "{:?} cells", alg);
        }
        for alg in [Algorithm::seq_detect(), Algorithm::clust_detect()] {
            let a = run_on(&part_a, &sigma, alg, &cfg);
            let b = run_on(&part_b, &sigma, alg, &cfg);
            prop_assert_eq!(&a.violations, &b.violations, "{:?}", alg);
            prop_assert_eq!(a.shipped_tuples, b.shipped_tuples, "{:?} |M|", alg);
            prop_assert_eq!(a.shipped_cells, b.shipped_cells, "{:?} cells", alg);
        }
    }

    /// The scoped thread pool never changes anything: for pool sizes
    /// {1, 2, 8}, all five detectors produce `==` detections — reports,
    /// ledger, clocks and costs by bits, metrics and trace — on both
    /// round-robin and predicate partitions (the latter exercising the
    /// partitioning-condition exclusion from the statistics exchange).
    #[test]
    fn pool_size_never_changes_results(
        rows in arb_rows(),
        patterns in arb_cfd(),
        n_sites in 2usize..5,
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd(&patterns, None);
        let sigma = vec![cfd.clone()];
        let a = rel.schema().require("a").unwrap();
        let round_robin = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let by_pred = HorizontalPartition::by_predicates(
            &rel,
            (0..4i64).map(|v| Predicate::atom(Atom::eq(a, v))).collect(),
        )
        .unwrap();
        for partition in [&round_robin, &by_pred] {
            let sequential = RunConfig::default().with_threads(1);
            for alg in SINGLE_CFD_ALGORITHMS {
                let base = run_on(partition, std::slice::from_ref(&cfd), alg, &sequential);
                for threads in [2usize, 8] {
                    let cfg = RunConfig::default().with_threads(threads);
                    let got = run_on(partition, std::slice::from_ref(&cfd), alg, &cfg);
                    prop_assert_eq!(&base, &got, "{:?} @ {} threads", alg, threads);
                }
            }
            for alg in [Algorithm::seq_detect(), Algorithm::clust_detect()] {
                let base = run_on(partition, &sigma, alg, &sequential);
                for threads in [2usize, 8] {
                    let cfg = RunConfig::default().with_threads(threads);
                    let got = run_on(partition, &sigma, alg, &cfg);
                    prop_assert_eq!(&base, &got, "{:?} @ {} threads", alg, threads);
                }
            }
        }
    }

    /// Response time is monotone-ish in the obvious direction: shipping
    /// and checking anything takes positive time; the paper-formula cost
    /// dominates the per-site clock model.
    #[test]
    fn cost_model_sanity(
        rows in arb_rows(),
        patterns in arb_cfd(),
        n_sites in 2usize..6,
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd(&patterns, None);
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let d = run_on(&partition, std::slice::from_ref(&cfd), Algorithm::PatDetectRT, &RunConfig::default());
        prop_assert!(d.response_time >= 0.0);
        prop_assert!(d.paper_cost >= 0.0);
        prop_assert!(d.response_time.is_finite());
    }
}

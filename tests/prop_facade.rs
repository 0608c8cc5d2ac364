//! Façade equivalence: `DetectRequest` is pinned **bit-identical** to
//! the engine functions it fronts — `run_batch` for the three
//! single-CFD detectors, `run_seq`/`run_clust` for the multi-CFD
//! algorithms, and `run_hybrid`/`run_replicated`/`run_vertical` for the
//! other topologies — at pool widths 1 and 8, on random relations, CFDs
//! and partitions. Every field of the [`Detection`] must match, f64s
//! compared by bits (the determinism contract, not an epsilon match).
//! This suite is what keeps the façade honest against the engines
//! directly. Each case lays its relation out in a drawn chunk size.

mod common;

use common::{arb_chunk_rows, chunk_rows};
use distributed_cfd::core::{run_batch, run_clust, run_hybrid, run_replicated, run_seq};
use distributed_cfd::prelude::*;
use distributed_cfd::relation::DEFAULT_CHUNK_ROWS;
use distributed_cfd::vertical::run_vertical;
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
            .map(|(i, &(a, b, c, d))| vals![i, a, b, format!("c{c}"), format!("d{d}")])
            .collect(),
    )
    .unwrap()
    .with_chunk_rows(chunk)
}

/// A random CFD over the schema: LHS ⊆ {a, b, c}, RHS = d, patterns
/// mixing wildcards and small constants; optionally a constant RHS.
fn arb_patterns() -> impl Strategy<Value = Vec<(Option<i64>, Option<i64>, Option<u8>)>> {
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

/// Field-by-field bit equality of two [`Detection`]s.
fn assert_identical(base: &Detection, got: &Detection, label: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&base.algorithm, &got.algorithm, "{} algorithm", label);
    prop_assert_eq!(base.violations.per_cfd.len(), got.violations.per_cfd.len(), "{}", label);
    for ((na, va), (nb, vb)) in base.violations.per_cfd.iter().zip(&got.violations.per_cfd) {
        prop_assert_eq!(na, nb, "{}", label);
        prop_assert_eq!(&va.tids, &vb.tids, "{} Vio", label);
        prop_assert_eq!(&va.patterns, &vb.patterns, "{} Vioπ", label);
    }
    prop_assert_eq!(base.shipped_tuples, got.shipped_tuples, "{} |M|", label);
    prop_assert_eq!(base.shipped_cells, got.shipped_cells, "{} cells", label);
    prop_assert_eq!(base.shipped_bytes, got.shipped_bytes, "{} bytes", label);
    prop_assert_eq!(base.control_messages, got.control_messages, "{} control", label);
    prop_assert_eq!(base.response_time.to_bits(), got.response_time.to_bits(), "{} time", label);
    prop_assert_eq!(base.paper_cost.to_bits(), got.paper_cost.to_bits(), "{} paper", label);
    prop_assert_eq!(base.site_clocks.len(), got.site_clocks.len(), "{}", label);
    for (s, (ca, cb)) in base.site_clocks.iter().zip(&got.site_clocks).enumerate() {
        prop_assert_eq!(ca.to_bits(), cb.to_bits(), "{} clock of site {}", label, s);
    }
    Ok(())
}

fn facade(
    topology: impl Into<Topology>,
    sigma: &[Cfd],
    algorithm: Algorithm,
    cfg: RunConfig,
    mode: ShipMode,
) -> Detection {
    DetectRequest::over(topology)
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(cfg)
        .ship_mode(mode)
        .run()
        .expect("facade run succeeds on generated inputs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Horizontal topology: all five detectors, façade ≡ engine, pool
    /// widths 1 and 8.
    #[test]
    fn facade_matches_engine_horizontal(
        rows in arb_rows(),
        pats in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        pats2 in arb_patterns(),
        n_sites in 1..5usize,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let cfd = build_cfd("p1", &pats, rhs_const);
        let cfd2 = build_cfd("p2", &pats2, None);
        let sigma = vec![cfd.clone(), cfd2];
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        for threads in [1usize, 8] {
            let cfg = RunConfig::default().with_threads(threads);
            // The three single-CFD detectors (one CFD, like the engine).
            for (alg, strategy) in [
                (Algorithm::CtrDetect, CoordinatorStrategy::Central),
                (Algorithm::PatDetectS, CoordinatorStrategy::MinShipment),
                (Algorithm::PatDetectRT, CoordinatorStrategy::MinResponseTime),
            ] {
                let engine = run_batch(&partition, &cfd.simplify(), strategy, &cfg);
                let new = facade(
                    partition.clone(),
                    std::slice::from_ref(&cfd),
                    alg,
                    cfg,
                    ShipMode::Full,
                );
                let label = format!("{} @{threads}", strategy.algorithm_name());
                assert_identical(&engine, &new, &label)?;
            }
            // The two multi-CFD detectors (two CFDs).
            let inner = CoordinatorStrategy::MinResponseTime;
            let engine = run_seq(&partition, &sigma, inner, &cfg);
            let new = facade(partition.clone(), &sigma, Algorithm::seq_detect(), cfg, ShipMode::Full);
            assert_identical(&engine, &new, &format!("SEQDETECT @{threads}"))?;
            let engine = run_clust(&partition, &sigma, inner, &cfg);
            let new =
                facade(partition.clone(), &sigma, Algorithm::clust_detect(), cfg, ShipMode::Full);
            assert_identical(&engine, &new, &format!("CLUSTDETECT @{threads}"))?;
        }
    }

    /// Replicated topology: façade ≡ `run_replicated` at factors 1–3.
    #[test]
    fn facade_matches_engine_replicated(
        rows in arb_rows(),
        pats in arb_patterns(),
        factor in 1..4usize,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let cfd = build_cfd("p", &pats, None);
        let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let replicated = ReplicatedPartition::chained(base, factor.min(3)).unwrap();
        for threads in [1usize, 8] {
            let cfg = RunConfig::default().with_threads(threads);
            let engine = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
            let new = facade(
                replicated.clone(),
                std::slice::from_ref(&cfd),
                Algorithm::PatDetectS,
                cfg,
                ShipMode::Full,
            );
            assert_identical(&engine, &new, &format!("REPDETECT @{threads}"))?;
        }
    }

    /// Hybrid topology: façade ≡ `run_hybrid` for every strategy.
    #[test]
    fn facade_matches_engine_hybrid(
        rows in arb_rows(),
        pats in arb_patterns(),
        n_cells in 1..4usize,
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let cfd = build_cfd("p", &pats, None);
        let horizontal = HorizontalPartition::round_robin(&rel, n_cells).unwrap();
        let hybrid = HybridPartition::new(&horizontal, &[&["a", "b"], &["c", "d"]]).unwrap();
        for threads in [1usize, 8] {
            let cfg = RunConfig::default().with_threads(threads);
            for (alg, strategy) in [
                (Algorithm::CtrDetect, CoordinatorStrategy::Central),
                (Algorithm::PatDetectS, CoordinatorStrategy::MinShipment),
                (Algorithm::PatDetectRT, CoordinatorStrategy::MinResponseTime),
            ] {
                let engine =
                    run_hybrid(&hybrid, std::slice::from_ref(&cfd), strategy, &cfg).unwrap();
                let new = facade(
                    hybrid.clone(),
                    std::slice::from_ref(&cfd),
                    alg,
                    cfg,
                    ShipMode::Full,
                );
                assert_identical(&engine, &new, &format!("HYBRID {strategy:?} @{threads}"))?;
            }
        }
    }

    /// Vertical topology: façade ≡ `run_vertical`, both ship modes,
    /// every field bit-identical.
    #[test]
    fn facade_matches_engine_vertical(
        rows in arb_rows(),
        pats in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let cfd = build_cfd("p", &pats, rhs_const);
        let partition =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "b"], &["c"], &["d"]]).unwrap();
        for mode in [ShipMode::Full, ShipMode::Filtered] {
            let cfg = RunConfig::default();
            let engine =
                run_vertical(&partition, std::slice::from_ref(&cfd), mode, &cfg).unwrap();
            let new = facade(
                partition.clone(),
                std::slice::from_ref(&cfd),
                Algorithm::PatDetectS,
                cfg,
                mode,
            );
            assert_identical(&engine, &new, &format!("VERTICAL {mode:?}"))?;
        }
    }

    /// Vertical fragments that stopped lining up — one reordered, or
    /// short a tuple, through the public `fragments_mut` — are paired by
    /// tuple id, never by position: a run and a session each answer what
    /// `detect_set` answers on `reassemble()`, or refuse with a typed
    /// error; they never answer something else.
    #[test]
    fn misaligned_vertical_fragments_are_answered_or_refused(
        rows in arb_rows(),
        pats in arb_patterns(),
        which in 0..3usize,
        rotate in 1..7usize,
        drop_one in any::<bool>(),
        chunk in arb_chunk_rows(),
    ) {
        let rel = build_relation(&rows, chunk);
        let sigma = [build_cfd("p", &pats, None)];
        let mut partition =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "b"], &["c"], &["d"]]).unwrap();
        let mut order: Vec<usize> = (0..rel.len()).collect();
        order.rotate_left(rotate % rel.len());
        order.reverse();
        let frag = &mut partition.fragments_mut()[which];
        frag.data = frag.data.copy_rows(&order[usize::from(drop_one)..]);
        let want = partition.reassemble().map(|whole| detect_set(&whole, &sigma));

        let agrees = |got: &ViolationReport| match &want {
            Ok(want) => want.per_cfd.iter().zip(&got.per_cfd).all(|((_, w), (_, g))| {
                w.tids == g.tids && w.patterns == g.patterns
            }),
            Err(_) => false,
        };
        for mode in [ShipMode::Full, ShipMode::Filtered] {
            let request =
                DetectRequest::over(partition.clone()).cfds(sigma.iter().cloned()).ship_mode(mode);
            if let Ok(d) = request.clone().run() {
                prop_assert!(agrees(&d.violations), "run {:?}", mode);
            }
            if let Ok(session) = request.session() {
                prop_assert!(agrees(&session.report()), "session {:?}", mode);
            }
        }
    }
}

/// A cost model the clocks cannot run on — a negative or NaN
/// coefficient, a negative or zero rate a send time divides by — is
/// refused with a typed error at every public front door, over every
/// topology, before any clock moves: no debug-build panic, no `Ok`
/// carrying a NaN clock or an infinite response time.
#[test]
fn invalid_cost_models_are_rejected_at_every_front_door() {
    let rows: Vec<_> = (0..12).map(|i| (i % 2, i % 3, (i % 3) as u8, (i % 2) as u8)).collect();
    let rel = build_relation(&rows, chunk_rows(DEFAULT_CHUNK_ROWS));
    let sigma = [build_cfd("p", &[(None, None, None)], None)];
    let horizontal = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let replicated = ReplicatedPartition::chained(horizontal.clone(), 2).unwrap();
    let vertical =
        VerticalPartition::by_attribute_groups(&rel, &[&["a", "b"], &["c"], &["d"]]).unwrap();
    let hybrid = HybridPartition::new(&horizontal, &[&["a", "b"], &["c", "d"]]).unwrap();
    let topologies: [(&str, Topology); 4] = [
        ("horizontal", horizontal.clone().into()),
        ("vertical", vertical.clone().into()),
        ("hybrid", hybrid.into()),
        ("replicated", replicated.clone().into()),
    ];
    let base = CostModel::default();
    for (cost, field) in [
        (CostModel { scan_coeff: -1.0, ..base }, "`scan_coeff`"),
        (CostModel { check_coeff: f64::NAN, ..base }, "`check_coeff`"),
        (CostModel { transfer_rate: -5.0, ..base }, "`transfer_rate`"),
        (CostModel { transfer_rate: 0.0, ..base }, "`transfer_rate`"),
        (CostModel { packet_tuples: 0.0, ..base }, "`packet_tuples`"),
    ] {
        use distributed_cfd::relation::RelationError;
        let rejected = |r: Result<(), RelationError>| matches!(r, Err(RelationError::InvalidCostModel { detail }) if detail.contains(field));
        let cfg = RunConfig { cost, ..RunConfig::default() };
        for (name, topology) in &topologies {
            let request = DetectRequest::over(topology.clone()).cfds(sigma.clone()).config(cfg);
            assert!(rejected(request.clone().run().map(drop)), "run over {name}: {field}");
            assert!(rejected(request.session().map(drop)), "session over {name}: {field}");
        }
        // The session constructors are public front doors too.
        let h = horizontal.clone();
        assert!(rejected(IncrementalRun::new(h, &sigma, cfg).map(drop)), "{field}");
        assert!(rejected(IncrementalRun::new_replicated(&replicated, &sigma, cfg).map(drop)));
        assert!(rejected(VerticalIncrementalRun::new(vertical.clone(), &sigma, cfg).map(drop)));
    }
}

/// Two fragments built on their own with `Relation::from_rows` both
/// number their tuples from `t0`. `Vio` is a set of ids, so a run over
/// both would name a violating tuple of one site and a clean tuple of the
/// other with one id, and a session would index two tuples under it. The
/// partition is refused where it is built, naming the id.
#[test]
fn repeated_tuple_ids_are_rejected_at_the_front_door() {
    use distributed_cfd::relation::RelationError;
    let default = chunk_rows(DEFAULT_CHUNK_ROWS);
    let clean = build_relation(&[(0, 0, 0, 0), (1, 0, 0, 0)], default);
    let conflicting = build_relation(&[(0, 0, 0, 0), (0, 0, 0, 1)], default);
    let fragments: Vec<Fragment> = [clean, conflicting]
        .into_iter()
        .enumerate()
        .map(|(i, data)| Fragment { site: SiteId(i as u32), predicate: None, data })
        .collect();
    let err = HorizontalPartition::from_fragments(schema(), fragments.clone()).unwrap_err();
    let named = matches!(&err, RelationError::InvalidPartition { detail } if detail.contains("t0"));
    assert!(named, "{err:?}");
    // Either fragment alone is a partition.
    for one in fragments {
        let alone = Fragment { site: SiteId(0), ..one };
        HorizontalPartition::from_fragments(schema(), vec![alone]).unwrap().validate().unwrap();
    }
}

//! Façade equivalence: `DetectRequest` is pinned **bit-identical** to
//! the engine functions it fronts — `run_batch` for the three
//! single-CFD detectors, `run_seq`/`run_clust` for the multi-CFD
//! algorithms, and `run_hybrid`/`run_replicated`/`run_vertical` for the
//! other topologies — at pool widths 1 and 8, on random relations, CFDs
//! and partitions. The two [`Detection`]s must be `==`: every field,
//! f64s compared by bits (the determinism contract, not an epsilon
//! match). This suite is what keeps the façade honest against the
//! engines directly — and `Plan::session` against the
//! incremental run it opens, after the build and after every batch.

mod common;

use common::{arb_patterns, arb_rows, build_cfd, build_relation, schema};
use distributed_cfd::core::{run_batch, run_clust, run_hybrid, run_replicated, run_seq};
use distributed_cfd::datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use distributed_cfd::vertical::run_vertical;
use proptest::prelude::*;

fn facade(
    topology: impl Into<Topology>,
    sigma: &[Cfd],
    algorithm: Algorithm,
    cfg: RunConfig,
) -> Detection {
    DetectRequest::over(topology)
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(cfg)
        .plan()
        .map(|plan| plan.run())
        .expect("facade run succeeds on generated inputs")
}

/// Steps `session` and the engine run beneath it through `stream` side
/// by side: `run(None)` reads the build, `run(Some(batch))` applies one
/// batch; either answers the run's `Detection` and report, which must
/// equal the session's.
fn assert_session_is_its_run(
    label: &str,
    mut session: IncrementalSession,
    stream: &[DeltaBatch],
    mut run: impl FnMut(Option<&DeltaBatch>) -> (Detection, ViolationReport),
) -> Result<(), TestCaseError> {
    let steps = std::iter::once(None).chain(stream.iter().map(Some));
    for (step, batch) in steps.enumerate() {
        if let Some(batch) = batch {
            session.apply_batch(batch).expect("generated batches apply");
        }
        let (detection, report) = run(batch);
        prop_assert_eq!(session.detection(), detection, "{} after step {}", label, step);
        prop_assert_eq!(session.report(), report, "{} report after step {}", label, step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Horizontal topology: all five detectors, façade ≡ engine, pool
    /// widths 1 and 8.
    #[test]
    fn facade_matches_engine_horizontal(
        rows in arb_rows(1..40),
        pats in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        pats2 in arb_patterns(),
        n_sites in 1..5usize,
    ) {
        let rel = build_relation(&rows);
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
                    cfg);
                prop_assert_eq!(engine, new, "{} @{}", strategy.algorithm_name(), threads);
            }
            // The two multi-CFD detectors (two CFDs).
            let inner = CoordinatorStrategy::MinResponseTime;
            let engine = run_seq(&partition, &sigma, inner, &cfg);
            let new = facade(partition.clone(), &sigma, Algorithm::seq_detect(), cfg);
            prop_assert_eq!(engine, new, "SEQDETECT @{}", threads);
            let engine = run_clust(&partition, &sigma, inner, &cfg);
            let new =
                facade(partition.clone(), &sigma, Algorithm::clust_detect(), cfg);
            prop_assert_eq!(engine, new, "CLUSTDETECT @{}", threads);
        }
    }

    /// Replicated topology: façade ≡ `run_replicated` at factors 1–3.
    #[test]
    fn facade_matches_engine_replicated(
        rows in arb_rows(1..40),
        pats in arb_patterns(),
        factor in 1..4usize,
    ) {
        let rel = build_relation(&rows);
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
                cfg);
            prop_assert_eq!(engine, new, "REPDETECT @{}", threads);
        }
    }

    /// Hybrid topology: façade ≡ `run_hybrid` for every strategy.
    #[test]
    fn facade_matches_engine_hybrid(
        rows in arb_rows(1..40),
        pats in arb_patterns(),
        n_cells in 1..4usize,
    ) {
        let rel = build_relation(&rows);
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
                let engine = run_hybrid(&hybrid, std::slice::from_ref(&cfd), strategy, &cfg);
                let new = facade(
                    hybrid.clone(),
                    std::slice::from_ref(&cfd),
                    alg,
                    cfg);
                prop_assert_eq!(engine, new, "HYBRID {:?} @{}", strategy, threads);
            }
        }
    }

    /// Vertical topology: façade ≡ `run_vertical`.
    #[test]
    fn facade_matches_engine_vertical(
        rows in arb_rows(1..40),
        pats in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
    ) {
        let rel = build_relation(&rows);
        let cfd = build_cfd("p", &pats, rhs_const);
        let partition =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "b"], &["c"], &["d"]]).unwrap();
        let cfg = RunConfig::default();
        let engine = run_vertical(&partition, std::slice::from_ref(&cfd), &cfg);
        let new =
            facade(partition.clone(), std::slice::from_ref(&cfd), Algorithm::PatDetectS, cfg);
        prop_assert_eq!(engine, new, "VERTICAL");
    }

    /// A session is the incremental run it opens: over horizontal,
    /// replicated and vertical topologies, `Plan::session()`
    /// and `IncrementalRun::new` / `IncrementalRun::new_replicated` /
    /// `VerticalIncrementalRun::new` on the same partition, Σ and
    /// `RunConfig` answer the same `Detection` and report after the build
    /// and after every batch of one generated delta stream.
    #[test]
    fn sessions_match_the_incremental_runs_beneath_them(
        rows in arb_rows(1..40),
        pats in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        pats2 in arb_patterns(),
        n_sites in 1..5usize,
        factor_seed in 0..100usize,
        seed in 0u64..1000,
        wide in any::<bool>(),
    ) {
        let rel = build_relation(&rows);
        let sigma = vec![build_cfd("p1", &pats, rhs_const), build_cfd("p2", &pats2, None)];
        let cfg = RunConfig::default().with_threads(if wide { 8 } else { 1 });
        let horizontal = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let replicated =
            ReplicatedPartition::chained(horizontal.clone(), 1 + factor_seed % n_sites).unwrap();
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "c"], &["b", "d"]]).unwrap();
        let stream: Vec<DeltaBatch> = update_stream(
            &horizontal,
            &UpdateStreamConfig { n_batches: 3, ops_per_batch: 8, seed, ..Default::default() },
        )
        .into_iter()
        .map(DeltaBatch::from)
        .collect();
        let session = |topology: Topology| {
            DetectRequest::over(topology)
                .cfds(sigma.iter().cloned())
                .config(cfg)
                .plan()
                .and_then(Plan::session)
                .unwrap()
        };

        let mut run = IncrementalRun::new(horizontal.clone(), &sigma, cfg).unwrap();
        assert_session_is_its_run("horizontal", session(horizontal.into()), &stream, |batch| {
            if let Some(batch) = batch {
                run.apply_batch(batch).unwrap();
            }
            (run.detection(), run.report())
        })?;
        let mut run = IncrementalRun::new_replicated(&replicated, &sigma, cfg).unwrap();
        assert_session_is_its_run("replicated", session(replicated.into()), &stream, |batch| {
            if let Some(batch) = batch {
                run.apply_batch(batch).unwrap();
            }
            (run.detection(), run.report())
        })?;
        let mut run = VerticalIncrementalRun::new(vertical.clone(), &sigma, cfg).unwrap();
        assert_session_is_its_run("vertical", session(vertical.into()), &stream, |batch| {
            if let Some(batch) = batch {
                run.apply_batch(&batch.flatten()).unwrap();
            }
            (run.detection(), run.report())
        })?;
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
    let rel = build_relation(&rows);
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
            assert!(rejected(request.plan().map(drop)), "plan over {name}: {field}");
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
    let clean = build_relation(&[(0, 0, 0, 0), (1, 0, 0, 0)]);
    let conflicting = build_relation(&[(0, 0, 0, 0), (0, 0, 0, 1)]);
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

/// Σ for the broken partitions below: an FD, and a CFD whose pattern
/// constant `a = 1` lets a fragment under `a = 0` be skipped (§IV-A).
fn skip_sigma() -> Vec<Cfd> {
    vec![
        parse_cfd(&schema(), "fd", "([a, b] -> [d])").unwrap(),
        parse_cfd(&schema(), "phi", "([a=1, b] -> [d])").unwrap(),
    ]
}

/// Four tuples, `t0`–`t3`, with no violation of [`skip_sigma`].
fn four_tuples() -> Relation {
    build_relation(&[(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 1, 1), (1, 1, 1, 1)])
}

/// [`four_tuples`] fragmented by predicate: `a = 0` at site 0, `a = 1`
/// at site 1.
fn by_a() -> HorizontalPartition {
    let rel = four_tuples();
    let a = rel.schema().require("a").unwrap();
    let predicates = vec![Predicate::atom(Atom::eq(a, 0)), Predicate::atom(Atom::eq(a, 1))];
    HorizontalPartition::by_predicates(&rel, predicates).unwrap()
}

/// A tuple with `a = 1, b = 0` that conflicts with `t1` under both CFDs
/// of [`skip_sigma`].
fn conflicting(tid: u64) -> Tuple {
    Tuple::new(TupleId(tid), vals![tid as i64, 1, 0, "c0", "d9"])
}

/// A fragment holding a tuple outside its predicate used to be accepted,
/// and the §IV-A skip then left the tuple out of the CFD whose constant
/// the predicate contradicts: `phi` answered `∅` where `Vio` is
/// `{t1, t100}`. `from_fragments` now refuses it, naming the tuple.
#[test]
fn from_fragments_refuses_a_tuple_outside_its_predicate() {
    use distributed_cfd::relation::RelationError;
    let mut fragments = by_a().fragments().to_vec();
    fragments[0].data.push_tuple(conflicting(100)).unwrap();
    let err = HorizontalPartition::from_fragments(schema(), fragments).unwrap_err();
    let named =
        matches!(&err, RelationError::InvalidPartition { detail } if detail.contains("t100"));
    assert!(named, "{err:?}");
}

/// `fragments_mut` can break what construction checked, and used to go
/// unnoticed: a fragment re-encoded on its own dictionaries ran to a
/// wrong report (a debug build panicked in `shared_layout` instead), an
/// id repeated across sites panicked a session on the index's `tid_key`
/// assert, and a tuple outside its predicate was skipped by `phi`. Each
/// is now refused with a typed error wherever a partition is accepted —
/// `plan()`, so neither `run` nor `session` starts,
/// `ReplicatedPartition::chained` and `HybridPartition::new` — never
/// `Ok`, never a panic.
#[test]
fn partitions_broken_through_fragments_mut_are_refused_where_they_are_accepted() {
    use distributed_cfd::relation::RelationError;
    fn invalid(e: &RelationError) -> bool {
        matches!(e, RelationError::InvalidPartition { .. })
    }
    fn mismatch(e: &RelationError) -> bool {
        matches!(e, RelationError::SchemaMismatch { .. })
    }
    let round_robin = || HorizontalPartition::round_robin(&four_tuples(), 2).unwrap();
    let mut own_dictionaries = round_robin();
    let mut tuples: Vec<Tuple> = own_dictionaries.fragments()[1].data.iter().collect();
    tuples.reverse();
    own_dictionaries.fragments_mut()[1].data = Relation::from_tuples(schema(), tuples).unwrap();
    own_dictionaries.fragments_mut()[0].data.push_tuple(conflicting(100)).unwrap();
    let mut repeated_id = round_robin();
    let tid = repeated_id.fragments()[1].data.tids()[0];
    repeated_id.fragments_mut()[0].data.push_tuple(conflicting(tid.0)).unwrap();
    let mut outside_predicate = by_a();
    outside_predicate.fragments_mut()[0].data.push_tuple(conflicting(100)).unwrap();

    type Kind = fn(&RelationError) -> bool;
    let cases: [(&str, HorizontalPartition, Kind); 3] = [
        ("own dictionaries", own_dictionaries, mismatch),
        ("repeated id", repeated_id, invalid),
        ("outside its predicate", outside_predicate, invalid),
    ];
    for (label, partition, kind) in cases {
        let request = || DetectRequest::over(partition.clone()).cfds(skip_sigma());
        let doors = [
            ("plan().run()", request().plan().map(|plan| drop(plan.run()))),
            ("plan().session()", request().plan().and_then(Plan::session).map(drop)),
            ("chained", ReplicatedPartition::chained(partition.clone(), 1).map(drop)),
            (
                "HybridPartition::new",
                HybridPartition::new(&partition, &[&["a", "b"], &["c", "d"]]).map(drop),
            ),
        ];
        for (door, refused) in doors {
            assert!(refused.as_ref().is_err_and(kind), "{label} through {door}: {refused:?}");
        }
    }
}

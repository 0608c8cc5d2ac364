//! Deterministic mini-fuzz smoke test — the first step toward the
//! ROADMAP fuzz-target item. One seeded generator (the compat
//! `proptest` shim derives its RNG from the test name, so every run
//! replays the same inputs) drives random [`DetectRequest`]s over
//! every topology and random delta streams through
//! [`Plan::session`], round-tripping each result against the
//! paper-definition oracle on the (re)materialized relation and pinning
//! pool widths 1 and 8 bit-identical. Unlike the per-topology property
//! suites, everything here goes through the facade only: this is the
//! fuzz surface a future `cargo fuzz`-style harness would hammer.

mod common;

use common::{arb_patterns, arb_rows, build_cfd, build_relation};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use proptest::prelude::*;

/// One facade run, fully specified.
fn request(
    topology: impl Into<Topology>,
    sigma: &[Cfd],
    algorithm: Algorithm,
    threads: usize,
) -> Detection {
    DetectRequest::over(topology)
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(RunConfig::default().with_threads(threads))
        .plan()
        .map(|plan| plan.run())
        .expect("facade run succeeds on generated inputs")
}

/// The registry's shipment mirror must equal the ledger totals the
/// `Detection` carries — on every random request, exactly.
fn assert_metrics_mirror_ledger(d: &Detection, label: &str) -> Result<(), TestCaseError> {
    let pairs = [
        ("dcd_shipped_tuples_total", d.shipped_tuples),
        ("dcd_shipped_cells_total", d.shipped_cells),
        ("dcd_shipped_bytes_total", d.shipped_bytes),
        ("dcd_control_messages_total", d.control_messages),
        ("dcd_control_bytes_total", d.control_bytes),
    ];
    for (family, ledger_total) in pairs {
        prop_assert_eq!(
            d.metrics.counter_total(family),
            ledger_total as u64,
            "{}: {} diverged from the ledger",
            label,
            family
        );
    }
    Ok(())
}

/// `Vio(Σ, D)` per CFD by the pairwise paper-definition oracle
/// (`dcd_cfd::oracle`), which shares no code with any detector.
fn oracle_report(rel: &Relation, sigma: &[Cfd]) -> ViolationReport {
    let decoded: Vec<Tuple> = rel.iter().collect();
    let tuples: Vec<&Tuple> = decoded.iter().collect();
    let mut report = ViolationReport::default();
    for cfd in sigma {
        for simple in cfd.simplify() {
            report.absorb(cfd.name(), dcd_cfd::oracle::vio(&tuples, &simple));
        }
    }
    report
}

/// A session's live report must equal the oracle on its own
/// materialized relation — the facade round trip.
fn assert_tracks_centralized(
    session: &IncrementalSession,
    sigma: &[Cfd],
    label: &str,
) -> Result<(), TestCaseError> {
    let rel = session.materialize().expect("reassembly succeeds");
    prop_assert_eq!(session.report(), oracle_report(&rel, sigma), "{}", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A random `DetectRequest` over every topology: pool widths 1 and
    /// 8 are bit-identical on every `Detection` field, and every
    /// topology reports exactly the oracle's `Vio(Σ)`.
    #[test]
    fn random_requests_round_trip_over_every_topology(
        rows in arb_rows(1..40),
        patterns1 in arb_patterns(),
        patterns2 in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..5,
        alg_pick in 0usize..5,
        factor_seed in 0usize..100,
        theta in 0.05f64..0.6,
    ) {
        let rel = build_relation(&rows);
        let sigma = vec![
            build_cfd("phi1", &patterns1, None),
            build_cfd("phi2", &patterns2, rhs_const),
        ];
        let oracle = oracle_report(&rel, &sigma);
        let alg = [
            Algorithm::CtrDetect,
            Algorithm::PatDetectS,
            Algorithm::PatDetectRT,
            Algorithm::seq_detect(),
            Algorithm::clust_detect(),
        ][alg_pick];

        let horizontal = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let topologies: Vec<(&str, Topology)> = vec![
            ("horizontal", horizontal.clone().into()),
            (
                "hybrid",
                HybridPartition::new(&horizontal, &[&["a", "b"], &["c", "d"]]).unwrap().into(),
            ),
            (
                "replicated",
                ReplicatedPartition::chained(horizontal.clone(), 1 + factor_seed % n_sites)
                    .unwrap()
                    .into(),
            ),
            (
                "vertical",
                VerticalPartition::by_attribute_groups(&rel, &[&["a", "c"], &["b", "d"]])
                    .unwrap()
                    .into(),
            ),
        ];
        for (name, topology) in topologies {
            let d1 = request(topology.clone(), &sigma, alg, 1);
            let d8 = request(topology, &sigma, alg, 8);
            let label = format!("{name}/{alg:?}");
            prop_assert_eq!(&d1, &d8, "{}", label);
            assert_metrics_mirror_ledger(&d1, &label)?;
            prop_assert_eq!(d1.violations.all_tids(), oracle.all_tids(), "{} Vio(Σ)", label);
        }

        // Route the same request through a mined tableau: refine phi1
        // on the horizontal partition (CodeKey counting), then detect
        // with the refined CFD over horizontal and vertical topologies
        // — the mined constants must round-trip like hand-written ones.
        let simple = sigma[0].clone().simplify().pop().unwrap();
        let outcome = mine_patterns(
            &horizontal,
            &simple,
            &MiningConfig { theta, max_width: 2 },
            &CostModel::default(),
        );
        let mined_sigma = vec![outcome.cfd.to_cfd()];
        let mined_oracle = oracle_report(&rel, &mined_sigma);
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "c"], &["b", "d"]]).unwrap();
        for (name, topology) in
            [("horizontal", Topology::from(horizontal)), ("vertical", vertical.into())]
        {
            let d1 = request(topology.clone(), &mined_sigma, alg, 1);
            let d8 = request(topology, &mined_sigma, alg, 8);
            let label = format!("mined/{name}/{alg:?}");
            prop_assert_eq!(&d1, &d8, "{}", label);
            assert_metrics_mirror_ledger(&d1, &label)?;
            prop_assert_eq!(
                d1.violations.all_tids(), mined_oracle.all_tids(), "{} Vio(Σ)", label
            );
        }
    }

    /// Random delta streams through `Plan::session` over
    /// horizontal, replicated and vertical topologies: after every
    /// batch, the horizontal and the vertical session at pool widths 1
    /// and 8 agree bit for bit, and after the stream drains every
    /// session's maintained report equals the oracle on its
    /// materialized state.
    #[test]
    fn random_delta_streams_round_trip_through_sessions(
        rows in arb_rows(1..40),
        patterns1 in arb_patterns(),
        patterns2 in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..5,
        ops in 4usize..12,
        seed in 0u64..1000,
        insert_ratio in 0.3f64..1.0,
    ) {
        let rel = build_relation(&rows);
        let sigma = vec![
            build_cfd("phi1", &patterns1, None),
            build_cfd("phi2", &patterns2, rhs_const),
        ];
        let horizontal = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let stream = update_stream(&horizontal, &UpdateStreamConfig {
            n_batches: 3,
            ops_per_batch: ops,
            insert_ratio,
            seed,
            ..Default::default()
        });

        let open = |topology: Topology, threads: usize| {
            DetectRequest::over(topology)
                .cfds(sigma.iter().cloned())
                .config(RunConfig::default().with_threads(threads))
                .plan()
                .and_then(Plan::session)
                .expect("generated topologies support sessions")
        };
        let mut h1 = open(horizontal.clone().into(), 1);
        let mut h8 = open(horizontal.clone().into(), 8);
        let mut rep = open(
            ReplicatedPartition::chained(horizontal.clone(), 1 + seed as usize % n_sites)
                .unwrap()
                .into(),
            1,
        );
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["a", "c"], &["b", "d"]]).unwrap();
        let mut vert = open(vertical.clone().into(), 1);
        let mut vert8 = open(vertical.into(), 8);

        for batch in stream {
            let batch = DeltaBatch::from(batch);
            let r1 = h1.apply_batch(&batch).unwrap();
            let r8 = h8.apply_batch(&batch).unwrap();
            prop_assert_eq!(r1, r8, "widths diverged mid-stream");
            rep.apply_batch(&batch).unwrap();
            let (v1, v8) = (vert.apply_batch(&batch).unwrap(), vert8.apply_batch(&batch).unwrap());
            prop_assert_eq!(v1, v8, "vertical widths diverged mid-stream");
        }
        prop_assert_eq!(h1.detection(), h8.detection(), "horizontal session");
        prop_assert_eq!(vert.detection(), vert8.detection(), "vertical session");
        for (label, session) in
            [("horizontal", &h1), ("replicated", &rep), ("vertical", &vert)]
        {
            assert_tracks_centralized(session, &sigma, label)?;
            assert_metrics_mirror_ledger(&session.detection(), &format!("{label} session"))?;
        }
    }
}

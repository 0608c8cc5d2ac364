//! Deterministic mini-fuzz smoke test — the first step toward the
//! ROADMAP fuzz-target item. One seeded generator (the compat
//! `proptest` shim derives its RNG from the test name, so every run
//! replays the same inputs) drives random [`DetectRequest`]s over
//! every topology and random delta streams through
//! [`DetectRequest::session`], round-tripping each result against the
//! paper-definition oracle on the (re)materialized relation and pinning
//! pool widths 1 and 8 bit-identical. Unlike the per-topology property
//! suites, everything here goes through the facade only: this is the
//! fuzz surface a future `cargo fuzz`-style harness would hammer.

use distributed_cfd::datagen::{update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;
use proptest::prelude::*;
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

fn build_relation(rows: &[(i64, i64, u8, u8)]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| vals![i as i64, a, b, format!("c{c}"), format!("d{d}")])
            .collect(),
    )
    .unwrap()
}

/// A random CFD over LHS ⊆ {a, b, c}, RHS = d, with wildcard/constant
/// mixes in the tableau.
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

/// One facade run, fully specified.
fn request(
    topology: impl Into<Topology>,
    sigma: &[Cfd],
    algorithm: Algorithm,
    threads: usize,
    mode: ShipMode,
) -> Detection {
    DetectRequest::over(topology)
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(RunConfig::default().with_threads(threads))
        .ship_mode(mode)
        .run()
        .expect("facade run succeeds on generated inputs")
}

/// Field-by-field bit equality of two [`Detection`]s.
fn assert_bit_identical(
    base: &Detection,
    got: &Detection,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&base.algorithm, &got.algorithm, "{} algorithm", label);
    prop_assert_eq!(base.violations.all_tids(), got.violations.all_tids(), "{} Vio", label);
    prop_assert_eq!(base.shipped_tuples, got.shipped_tuples, "{} |M|", label);
    prop_assert_eq!(base.shipped_cells, got.shipped_cells, "{} cells", label);
    prop_assert_eq!(base.shipped_bytes, got.shipped_bytes, "{} bytes", label);
    prop_assert_eq!(base.control_messages, got.control_messages, "{} control", label);
    prop_assert_eq!(base.control_bytes, got.control_bytes, "{} control bytes", label);
    prop_assert_eq!(base.response_time.to_bits(), got.response_time.to_bits(), "{} time", label);
    prop_assert_eq!(base.paper_cost.to_bits(), got.paper_cost.to_bits(), "{} paper", label);
    prop_assert_eq!(base.site_clocks.len(), got.site_clocks.len(), "{}", label);
    for (s, (ca, cb)) in base.site_clocks.iter().zip(&got.site_clocks).enumerate() {
        prop_assert_eq!(ca.to_bits(), cb.to_bits(), "{} clock of site {}", label, s);
    }
    prop_assert_eq!(&base.metrics, &got.metrics, "{} metrics snapshot", label);
    prop_assert_eq!(&base.trace, &got.trace, "{} trace", label);
    Ok(())
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
            report.absorb(cfd.name(), distributed_cfd::cfd::oracle::vio(&tuples, &simple));
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
    let global = oracle_report(&rel, sigma);
    let report = session.report();
    prop_assert_eq!(report.all_tids(), global.all_tids(), "{} Vio(Σ)", label);
    for (name, vs) in &global.per_cfd {
        let (_, got) =
            report.per_cfd.iter().find(|(n, _)| n == name).expect("every CFD has an entry");
        prop_assert_eq!(&got.tids, &vs.tids, "{} Vio({})", label, name);
        prop_assert_eq!(&got.patterns, &vs.patterns, "{} Vioπ({})", label, name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A random `DetectRequest` over every topology: pool widths 1 and
    /// 8 are bit-identical on every `Detection` field, and every
    /// topology reports exactly the oracle's `Vio(Σ)`.
    #[test]
    fn random_requests_round_trip_over_every_topology(
        rows in arb_rows(),
        patterns1 in arb_patterns(),
        patterns2 in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
        n_sites in 1usize..5,
        alg_pick in 0usize..5,
        mode_pick in 0usize..2,
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
        let mode = [ShipMode::Full, ShipMode::Filtered][mode_pick];

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
            let d1 = request(topology.clone(), &sigma, alg, 1, mode);
            let d8 = request(topology, &sigma, alg, 8, mode);
            let label = format!("{name}/{alg:?}");
            assert_bit_identical(&d1, &d8, &label)?;
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
            let d1 = request(topology.clone(), &mined_sigma, alg, 1, mode);
            let d8 = request(topology, &mined_sigma, alg, 8, mode);
            let label = format!("mined/{name}/{alg:?}");
            assert_bit_identical(&d1, &d8, &label)?;
            assert_metrics_mirror_ledger(&d1, &label)?;
            prop_assert_eq!(
                d1.violations.all_tids(), mined_oracle.all_tids(), "{} Vio(Σ)", label
            );
        }
    }

    /// Random delta streams through `DetectRequest::session` over
    /// horizontal, replicated and vertical topologies: after every
    /// batch, the horizontal and the vertical session at pool widths 1
    /// and 8 agree bit for bit, and after the stream drains every
    /// session's maintained report equals the oracle on its
    /// materialized state.
    #[test]
    fn random_delta_streams_round_trip_through_sessions(
        rows in arb_rows(),
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
                .session()
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
            prop_assert_eq!(r1.all_tids(), r8.all_tids(), "widths diverged mid-stream");
            rep.apply_batch(&batch).unwrap();
            let (v1, v8) = (vert.apply_batch(&batch).unwrap(), vert8.apply_batch(&batch).unwrap());
            prop_assert_eq!(v1.all_tids(), v8.all_tids(), "vertical widths diverged mid-stream");
        }
        assert_bit_identical(&h1.detection(), &h8.detection(), "horizontal session")?;
        assert_bit_identical(&vert.detection(), &vert8.detection(), "vertical session")?;
        for (label, session) in
            [("horizontal", &h1), ("replicated", &rep), ("vertical", &vert)]
        {
            assert_tracks_centralized(session, &sigma, label)?;
            assert_metrics_mirror_ledger(&session.detection(), &format!("{label} session"))?;
        }
    }
}

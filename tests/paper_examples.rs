//! Integration tests pinning the paper's worked examples exactly:
//! Example 1 (violations of cfd1–cfd5 in D0), Example 4 (constant CFDs
//! checked locally), Example 5 (CTRDETECT ships 4 tuples for φ1 on the
//! Fig. 1(b) partition) and Example 6 (PATDETECTS ships 3).

use distributed_cfd::prelude::*;

/// Runs one facade request over a horizontal partition.
fn detect_on(
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
        .expect("paper fixtures are valid requests")
}

fn emp_schema() -> std::sync::Arc<Schema> {
    Schema::builder("emp")
        .attr("id", ValueType::Int)
        .attr("name", ValueType::Str)
        .attr("title", ValueType::Str)
        .attr("CC", ValueType::Int)
        .attr("AC", ValueType::Int)
        .attr("phn", ValueType::Int)
        .attr("street", ValueType::Str)
        .attr("city", ValueType::Str)
        .attr("zip", ValueType::Str)
        .attr("salary", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

/// Fig. 1(a): the instance D0. Row index i holds tuple t(i+1).
fn d0() -> Relation {
    Relation::from_rows(
        emp_schema(),
        vec![
            vals![1, "Sam", "DMTS", 44, 131, 8765432, "Princess Str.", "EDI", "EH2 4HF", "95k"],
            vals![2, "Mike", "MTS", 44, 131, 1234567, "Mayfield", "NYC", "EH4 8LE", "80k"],
            vals![3, "Rick", "DMTS", 44, 131, 3456789, "Mayfield", "NYC", "EH4 8LE", "95k"],
            vals![4, "Philip", "DMTS", 44, 131, 2909209, "Crichton", "EDI", "EH4 8LE", "95k"],
            vals![5, "Adam", "VP", 44, 131, 7478626, "Mayfield", "EDI", "EH4 8LE", "200k"],
            vals![6, "Joe", "MTS", 1, 908, 1416282, "Mtn Ave", "NYC", "07974", "110k"],
            vals![7, "Bob", "DMTS", 1, 908, 2345678, "Mtn Ave", "MH", "07974", "150k"],
            vals![8, "Jef", "DMTS", 31, 20, 8765432, "Muntplein", "AMS", "1012 WR", "90k"],
            vals![9, "Steven", "MTS", 31, 20, 1425364, "Spuistraat", "AMS", "1012 WR", "75k"],
            vals![10, "Bram", "MTS", 31, 10, 2536475, "Kruisplein", "ROT", "3012 CC", "75k"],
        ],
    )
    .unwrap()
}

/// φ1 of Example 2: cfd1 and cfd2 merged into one tableau.
fn phi1(schema: &std::sync::Arc<Schema>) -> Cfd {
    let cfd1 = parse_cfd(schema, "cfd1", "([CC=44, zip] -> [street])").unwrap();
    let cfd2 = parse_cfd(schema, "cfd2", "([CC=31, zip] -> [street])").unwrap();
    Cfd::merge("phi1", &[&cfd1, &cfd2]).unwrap()
}

/// Fig. 1(b): the horizontal partition by title (MTS / DMTS / VP).
fn fig1b(rel: &Relation) -> HorizontalPartition {
    let title = rel.schema().require("title").unwrap();
    HorizontalPartition::by_predicates(
        rel,
        vec![
            Predicate::atom(Atom::eq(title, "MTS")),
            Predicate::atom(Atom::eq(title, "DMTS")),
            Predicate::atom(Atom::eq(title, "VP")),
        ],
    )
    .unwrap()
}

fn one_based(tids: &dcd_relation::FxHashSet<TupleId>) -> Vec<u64> {
    let mut ids: Vec<u64> = tids.iter().map(|t| t.0 + 1).collect();
    ids.sort();
    ids
}

#[test]
fn example1_centralized_violations() {
    let schema = emp_schema();
    let rel = d0();
    let sigma = vec![
        parse_cfd(&schema, "cfd1", "([CC=44, zip] -> [street])").unwrap(),
        parse_cfd(&schema, "cfd2", "([CC=31, zip] -> [street])").unwrap(),
        parse_cfd(&schema, "cfd3", "([CC, title] -> [salary])").unwrap(),
        parse_cfd(&schema, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap(),
        parse_cfd(&schema, "cfd5", "([CC=1, AC=908] -> [city=MH])").unwrap(),
    ];
    let report = detect_set(&rel, &sigma);
    assert_eq!(one_based(&report.all_tids()), vec![2, 3, 4, 5, 6, 8, 9]);
    // D0 ⊨ cfd3 (the FD) — stated explicitly in Example 1.
    assert!(satisfies(&rel, &sigma[2]));
}

#[test]
fn example4_constant_cfds_checked_locally() {
    let schema = emp_schema();
    let rel = d0();
    let partition = fig1b(&rel);
    let psi1 = parse_cfd(&schema, "psi1", "([CC=44, AC=131] -> [city=EDI])").unwrap();
    let psi2 = parse_cfd(&schema, "psi2", "([CC=1, AC=908] -> [city=MH])").unwrap();
    let cfg = RunConfig::default();
    for cfd in [&psi1, &psi2] {
        let d = detect_on(&partition, std::slice::from_ref(cfd), Algorithm::PatDetectS, &cfg);
        assert_eq!(d.shipped_tuples, 0, "constant CFDs must not ship");
    }
    // t2, t3 violate ψ1; t6 violates ψ2 (Example 4).
    let d1 = detect_on(&partition, std::slice::from_ref(&psi1), Algorithm::PatDetectS, &cfg);
    assert_eq!(one_based(&d1.violations.all_tids()), vec![2, 3]);
    let d2 = detect_on(&partition, std::slice::from_ref(&psi2), Algorithm::PatDetectS, &cfg);
    assert_eq!(one_based(&d2.violations.all_tids()), vec![6]);
}

/// Example 5: the coordinator for φ1 is S2 (4 matching tuples vs 3 and
/// 1); S1 ships {t2, t9, t10} and S3 ships {t5} — 4 tuples total.
#[test]
fn example5_ctrdetect_ships_four_tuples() {
    let schema = emp_schema();
    let rel = d0();
    let partition = fig1b(&rel);
    let d = detect_on(&partition, &[phi1(&schema)], Algorithm::CtrDetect, &RunConfig::default());
    assert_eq!(d.shipped_tuples, 4);
    // φ1's violations are found intact.
    assert_eq!(one_based(&d.violations.all_tids()), vec![2, 3, 4, 5, 8, 9]);
}

/// Example 6: per-pattern coordinators — S2 for (44, _), S1 for (31, _)
/// — reduce the total shipment to 3 tuples.
#[test]
fn example6_patdetects_ships_three_tuples() {
    let schema = emp_schema();
    let rel = d0();
    let partition = fig1b(&rel);
    let d = detect_on(&partition, &[phi1(&schema)], Algorithm::PatDetectS, &RunConfig::default());
    assert_eq!(d.shipped_tuples, 3);
    assert_eq!(one_based(&d.violations.all_tids()), vec![2, 3, 4, 5, 8, 9]);
}

/// Each tuple/attribute is shipped at most once (§IV guarantee): for φ1
/// only the CC, zip, street cells of matching tuples move, plus the
/// row-identifying tuple id.
///
/// Accounting note: before the code-native wire port, a shipped row
/// counted `|X ∪ A|` value cells (3 here) and its bytes were the sum
/// of string payload lengths. Rows now travel as `(tid, codes)` —
/// `TID_CELLS` (= 2) id cells plus one `u32` code per attribute — so
/// the same 3-tuple shipment is 3 × (3 + 2) = 15 cells, and bytes are
/// exact: `CODE_BYTES` (= 4) per cell.
#[test]
fn shipment_is_projected_and_bounded() {
    let schema = emp_schema();
    let rel = d0();
    let partition = fig1b(&rel);
    let d = detect_on(&partition, &[phi1(&schema)], Algorithm::PatDetectS, &RunConfig::default());
    // 3 tuples × (3 attributes (CC, zip, street) + 2 tid cells).
    assert_eq!(d.shipped_cells, 3 * (3 + TID_CELLS));
    assert_eq!(d.shipped_bytes, d.shipped_cells * CODE_BYTES);
    let d_ctr =
        detect_on(&partition, &[phi1(&schema)], Algorithm::CtrDetect, &RunConfig::default());
    assert_eq!(d_ctr.shipped_cells, 4 * (3 + TID_CELLS));
    assert_eq!(d_ctr.shipped_bytes, d_ctr.shipped_cells * CODE_BYTES);
}

/// The full Σ, distributed: every algorithm reproduces Example 1.
#[test]
fn all_algorithms_reproduce_example1_on_fig1b() {
    let schema = emp_schema();
    let rel = d0();
    let partition = fig1b(&rel);
    let sigma = vec![
        phi1(&schema),
        parse_cfd(&schema, "phi2", "([CC, title] -> [salary])").unwrap(),
        Cfd::merge(
            "phi3",
            &[
                &parse_cfd(&schema, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap(),
                &parse_cfd(&schema, "cfd5", "([CC=1, AC=908] -> [city=MH])").unwrap(),
            ],
        )
        .unwrap(),
    ];
    let cfg = RunConfig::default();
    let expected = vec![2, 3, 4, 5, 6, 8, 9];

    for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT] {
        let mut all = dcd_relation::FxHashSet::default();
        for cfd in &sigma {
            let d = detect_on(&partition, std::slice::from_ref(cfd), alg, &cfg);
            all.extend(d.violations.all_tids());
        }
        assert_eq!(one_based(&all), expected, "{alg:?}");
    }
    for alg in [Algorithm::seq_detect(), Algorithm::clust_detect()] {
        let d = detect_on(&partition, &sigma, alg, &cfg);
        assert_eq!(one_based(&d.violations.all_tids()), expected, "{alg:?}");
    }
}

//! Quickstart: the paper's running example (Fig. 1), end to end.
//!
//! Builds the EMP relation `D0`, defines cfd1–cfd5, detects violations
//! centrally, then fragments the relation like Fig. 1(b) (by `title`) and
//! shows that the distributed algorithms find exactly the same
//! violations while reporting how much data they shipped.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- The EMP schema and instance D0 of Fig. 1(a). ---
    let schema = Schema::builder("emp")
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
        .build()?;
    let d0 = Relation::from_rows(
        schema.clone(),
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
    )?;

    // --- The data quality rules cfd1–cfd5 of Example 1. ---
    let sigma = vec![
        parse_cfd(&schema, "cfd1", "([CC=44, zip] -> [street])")?,
        parse_cfd(&schema, "cfd2", "([CC=31, zip] -> [street])")?,
        parse_cfd(&schema, "cfd3", "([CC, title] -> [salary])")?,
        parse_cfd(&schema, "cfd4", "([CC=44, AC=131] -> [city=EDI])")?,
        parse_cfd(&schema, "cfd5", "([CC=1, AC=908] -> [city=MH])")?,
    ];

    // --- Centralized detection (the TODS'08 baseline). ---
    println!("== Centralized detection on D0 ==");
    let report = detect_set(&d0, &sigma);
    for (name, vs) in &report.per_cfd {
        let mut ids: Vec<u64> = vs.tids.iter().map(|t| t.0 + 1).collect();
        ids.sort();
        println!("  {name}: violating tuples {ids:?}");
    }
    let mut all: Vec<u64> = report.all_tids().iter().map(|t| t.0 + 1).collect();
    all.sort();
    println!("  Vio(Σ, D0) = t{all:?}  (the paper: t2–t6, t8, t9)\n");

    // --- Fragment like Fig. 1(b): by title, three sites. ---
    let title = schema.require("title")?;
    let partition = HorizontalPartition::by_predicates(
        &d0,
        vec![
            Predicate::atom(Atom::eq(title, "MTS")),
            Predicate::atom(Atom::eq(title, "DMTS")),
            Predicate::atom(Atom::eq(title, "VP")),
        ],
    )?;
    println!("== Horizontal partition (Fig. 1(b): MTS / DMTS / VP) ==");
    for f in partition.fragments() {
        println!("  {}: {} tuples", f.site, f.data.len());
    }

    // --- Distributed detection through the one front door: a
    // DetectRequest per algorithm, same topology, same Σ. Sites ship
    // (tid, codes) rows — 4 bytes per cell — never tuple payloads. ---
    println!("\n== Distributed detection ==");
    let cfg = RunConfig::default();
    for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT] {
        let d = DetectRequest::over(partition.clone())
            .cfds(sigma.iter().cloned())
            .algorithm(alg)
            .config(cfg)
            .plan()?
            .run();
        println!("  {d}");
        assert_eq!(d.violations.all_tids(), report.all_tids(), "distributed == centralized");
    }
    println!("\nAll algorithms agree with centralized detection.");
    Ok(())
}

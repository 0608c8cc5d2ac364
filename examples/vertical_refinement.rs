//! Vertical partitions: dependency preservation, minimum refinement and
//! detection with column shipment (§V of the paper).
//!
//! Reproduces Example 7: the EMP relation split vertically into
//! address / phone / salary fragments does not preserve Σ0; the minimum
//! augmentation adds CC and salary to DV1 and city to DV2 (size 3).
//! Then runs detection on the *unrefined* partition, where columns must
//! ship, each fragment filtering on the pattern constants it holds.
//!
//! ```text
//! cargo run --example vertical_refinement
//! ```

use dcd_vertical::unpreserved;
use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
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
    let sigma = vec![
        parse_cfd(&schema, "phi1a", "([CC=44, zip] -> [street])")?,
        parse_cfd(&schema, "phi1b", "([CC=31, zip] -> [street])")?,
        parse_cfd(&schema, "phi2", "([CC, title] -> [salary])")?,
        parse_cfd(&schema, "phi3a", "([CC=44, AC=131] -> [city=EDI])")?,
        parse_cfd(&schema, "phi3b", "([CC=1, AC=908] -> [city=MH])")?,
    ];

    // --- The Example 1 vertical partition. ---
    let partition = VerticalPartition::by_attribute_groups(
        &d0,
        &[
            &["name", "title", "street", "city", "zip"], // DV1: identity + address
            &["CC", "AC", "phn"],                        // DV2: phone
            &["salary"],                                 // DV3: salary
        ],
    )?;
    println!("== Vertical partition (Example 1) ==");
    for f in partition.fragments() {
        println!("  {}: {}", f.site, f.data.schema());
    }

    // --- Dependency preservation (Proposition 7). ---
    let groups = partition.attr_groups();
    let preserved = is_preserved(schema.arity(), &groups, &sigma);
    println!("\ndependency preserving w.r.t. Σ0? {preserved}");
    for phi in unpreserved(schema.arity(), &groups, &sigma) {
        println!("  not locally checkable: {phi}");
    }

    // --- Minimum refinement (Example 7). ---
    let exact = refine_exact(schema.arity(), &groups, &sigma, 4)
        .expect("a preserving augmentation of size ≤ 4 exists");
    println!("\nminimum augmentation (size {}):", exact.size());
    for (i, adds) in exact.adds.iter().enumerate() {
        if !adds.is_empty() {
            let names: Vec<&str> = adds.iter().map(|&a| schema.attr_name(a)).collect();
            println!("  add {names:?} to fragment {}", i + 1);
        }
    }
    let greedy = refine_greedy(schema.arity(), &groups, &sigma)
        .expect("a partition with fragments has a repair");
    println!("greedy heuristic found size {}", greedy.size());
    assert!(is_preserved(schema.arity(), &exact.apply(&groups), &sigma));

    // --- Detection on the unrefined partition: columns must ship. ---
    println!("\n== Detection with column shipment (unrefined partition) ==");
    let baseline = detect_set(&d0, &sigma);
    let out = DetectRequest::over(partition.clone()).cfds(sigma.iter().cloned()).plan()?.run();
    println!("  {out}");
    assert_eq!(out.violations.all_tids(), baseline.all_tids());
    println!("\nvertical detection equals centralized detection ✓");
    Ok(())
}

//! The paper's §VIII future work, realized: detection under hybrid
//! (horizontal × vertical) fragmentation and over replicated fragments.
//!
//! ```text
//! cargo run --release --example hybrid_replication
//! ```

use dcd_datagen::cust::CustConfig;
use dcd_datagen::inject_errors;
use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CustConfig { n_tuples: 20_000, ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "street", 0.02, 7);
    let schema = dirty.schema().clone();
    let cfd = parse_cfd(&schema, "phi", "([CC, zip] -> [street])")?;
    let baseline = detect(&dirty, &cfd);
    println!(
        "CUST: {} tuples, {} violating tuples under ([CC, zip] -> [street])\n",
        dirty.len(),
        baseline.len()
    );

    // --- Hybrid fragmentation: 4 horizontal cells × 2 vertical groups. ---
    let horizontal = HorizontalPartition::round_robin(&dirty, 4)?;
    let hybrid = HybridPartition::new(
        &horizontal,
        &[
            &["name", "CC", "AC", "phn", "zip", "city"],
            &["street", "item_title", "item_price", "item_qty"],
        ],
    )?;
    println!(
        "== Hybrid partition: {} cells × {} vertical groups = {} sites ==",
        hybrid.n_cells(),
        hybrid.n_vgroups(),
        hybrid.n_sites()
    );
    let d =
        DetectRequest::over(hybrid).cfd(cfd.clone()).algorithm(Algorithm::PatDetectS).plan()?.run();
    println!("{d}");
    println!("(columns gathered per cell as code rows, then σ-blocks shipped across cells)");
    assert_eq!(d.violations.all_tids(), baseline.tids());

    // --- Replication: chained declustering at increasing factors. ---
    println!("\n== Replicated fragments (chained declustering, 4 sites) ==");
    for r in 1..=4 {
        let replicated = ReplicatedPartition::chained(horizontal.clone(), r)?;
        let d = DetectRequest::over(replicated).cfd(cfd.clone()).plan()?.run();
        println!("factor {r}: {d}");
        assert_eq!(d.violations.all_tids(), baseline.tids());
    }
    println!("\nreplication trades storage for traffic: factor n ⇒ zero shipment ✓");
    Ok(())
}

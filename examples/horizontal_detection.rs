//! Horizontal-partition detection at workload scale: the CUST dataset.
//!
//! Generates a CUST instance (sales records with controlled errors),
//! distributes it uniformly over 8 sites, and compares the three
//! single-CFD algorithms of §IV-B plus the frequent-pattern-mining
//! optimization on an FD — the scenario of the paper's Exp-1 and Exp-4.
//!
//! ```text
//! cargo run --release --example horizontal_detection
//! ```

use dcd_datagen::cust::{cust_main_cfd, CustConfig};
use dcd_datagen::inject_errors;
use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CustConfig { n_tuples: 40_000, ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, n_errors) = inject_errors(&clean, "street", 0.02, 7);
    println!(
        "CUST: {} tuples, {} corrupted streets, distributed over 8 sites",
        dirty.len(),
        n_errors
    );
    let partition = HorizontalPartition::round_robin(&dirty, 8)?;
    let cfd = cust_main_cfd(dirty.schema(), &config, 255);
    println!("rule: {cfd}\n");

    let cfg = RunConfig::default();
    let baseline = detect_simple(&dirty, &cfd);
    for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT] {
        let d = DetectRequest::over(partition.clone())
            .cfd(cfd.to_cfd())
            .algorithm(alg)
            .config(cfg)
            .plan()?
            .run();
        println!("{d}");
        // Sanity: every algorithm agrees with the centralized baseline.
        assert_eq!(d.violations.all_tids(), baseline.tids());
    }
    println!("\nall distributed results equal the centralized baseline ✓");

    // The mining optimization on a wildcard-only FD (Exp-4's idea).
    let fd = Cfd::fd("fd", dirty.schema().clone(), &["CC", "item_title"], &["item_price"])?;
    let fd_simple = fd.simplify().pop().expect("single RHS");
    let request = |c: &SimpleCfd| {
        DetectRequest::over(partition.clone())
            .cfd(c.to_cfd())
            .algorithm(Algorithm::PatDetectS)
            .config(cfg)
            .plan()
            .map(|plan| plan.run())
    };
    let plain = request(&fd_simple)?;
    let mined = mine_patterns(&partition, &fd_simple, &MiningConfig::default(), &cfg.cost);
    let refined = request(&mined.cfd)?;
    println!(
        "\nFD + mining: shipped {} tuples plain vs {} with {} mined patterns",
        plain.shipped_tuples, refined.shipped_tuples, mined.added
    );
    assert_eq!(plain.violations.all_tids(), refined.violations.all_tids());
    Ok(())
}

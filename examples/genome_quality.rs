//! Multi-CFD data quality checking on genome cross-references (XREF).
//!
//! The scenario of the paper's Exp-5: two CFDs with containment-related
//! LHSs over an Ensembl-style cross-reference relation, fragmented by
//! reference type across 7 sites. Compares SEQDETECT (one CFD at a
//! time, pipelined) against CLUSTDETECT (cluster the CFDs, ship each
//! tuple once per cluster).
//!
//! ```text
//! cargo run --release --example genome_quality
//! ```

use distributed_cfd::datagen::inject_errors;
use distributed_cfd::datagen::xref::{xref_main_cfd, xref_second_cfd, XrefConfig};
use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = XrefConfig { n_tuples: 60_000, ..XrefConfig::default() };
    let clean = config.generate();
    let (dirty, e1) = inject_errors(&clean, "source", 0.02, 3);
    let (dirty, e2) = inject_errors(&dirty, "db_release", 0.02, 4);
    println!(
        "XREF: {} cross-references ({} bad sources, {} bad releases), 7 sites by reference type",
        dirty.len(),
        e1,
        e2
    );
    let partition = HorizontalPartition::by_attribute(&dirty, "info_type", 7)?;
    for f in partition.fragments() {
        println!("  {}: {} tuples", f.site, f.data.len());
    }

    let sigma = vec![
        xref_main_cfd(dirty.schema(), &config.organisms).to_cfd(),
        xref_second_cfd(dirty.schema(), &config.organisms),
    ];
    println!("\nrules:");
    for cfd in &sigma {
        println!("  {cfd}");
    }

    let cfg = RunConfig::default();
    println!();
    let request = |alg: Algorithm| {
        DetectRequest::over(partition.clone())
            .cfds(sigma.iter().cloned())
            .algorithm(alg)
            .config(cfg)
            .plan()
            .map(|plan| plan.run())
    };
    let seq = request(Algorithm::seq_detect())?;
    let clust = request(Algorithm::clust_detect())?;
    for d in [&seq, &clust] {
        println!("{d}");
    }
    assert_eq!(seq.violations.all_tids(), clust.violations.all_tids());
    let saved = 100.0 * (1.0 - clust.shipped_tuples as f64 / seq.shipped_tuples as f64);
    println!("\nCLUSTDETECT shipped {saved:.0}% fewer tuples than SEQDETECT ✓");

    // Per-CFD violation patterns (Vioπ): what a data steward would read.
    println!("\nVioπ sizes per rule (distinct offending LHS patterns):");
    for (name, vs) in &clust.violations.per_cfd {
        println!("  {:<14} {:>6} patterns / {:>6} tuples", name, vs.patterns.len(), vs.tids.len());
    }
    Ok(())
}

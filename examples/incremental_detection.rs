//! Incremental detection over a CDC-style delta feed.
//!
//! Generates a CUST instance, distributes it over 4 sites, builds the
//! persistent violation index at a coordinator, then streams delta
//! batches (Zipf-skewed inserts + deletes, routed per site) through
//! the code-shipped delta protocol — comparing each round's wire cost
//! against what full re-detection would have shipped.
//!
//! ```text
//! cargo run --release --example incremental_detection
//! ```

use distributed_cfd::datagen::cust::{cust_cfds, CustConfig};
use distributed_cfd::datagen::{inject_errors, update_stream, UpdateStreamConfig};
use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CustConfig { n_tuples: 20_000, ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, n_errors) = inject_errors(&clean, "street", 0.02, 7);
    let sigma = cust_cfds(dirty.schema());
    let partition = HorizontalPartition::round_robin(&dirty, 4)?;
    println!(
        "CUST: {} tuples over 4 sites, {} corrupted streets, {} CFDs",
        dirty.len(),
        n_errors,
        sigma.len()
    );

    // Open the session through the façade: one index build, code rows
    // only.
    let mut session =
        DetectRequest::over(partition.clone()).cfds(sigma.iter().cloned()).plan()?.session()?;
    let built = session.detection();
    println!(
        "index build: coordinator {}, {} tuples shipped as {} cells ({} bytes), {} violations\n",
        session.coordinator(),
        built.shipped_tuples,
        built.shipped_cells,
        built.shipped_bytes,
        built.violations.all_tids().len(),
    );

    // A delta feed: 6 batches of 500 ops, 70% inserts with Zipf key
    // reuse, 10% of inserts corrupted.
    let stream = update_stream(
        &partition,
        &UpdateStreamConfig { n_batches: 6, ops_per_batch: 500, ..Default::default() },
    );
    println!(
        "{:<7} {:>6} {:>6} {:>12} {:>12} {:>14}",
        "batch", "ins", "del", "violations", "delta bytes", "full-run bytes"
    );
    let mut shipped_before = built.shipped_bytes;
    for (i, per_site) in stream.into_iter().enumerate() {
        let batch = DeltaBatch::from(per_site);
        let (ins, del) = (batch.n_inserts(), batch.n_deletes());
        let report = session.apply_batch(&batch)?;
        let shipped_now = session.detection().shipped_bytes;
        // What a from-scratch PATDETECTS run on the materialized state
        // would ship for the same report (the session owns the live
        // partition; the horizontal variant exposes it).
        let IncrementalSession::Horizontal(run) = &session else { unreachable!("horizontal") };
        let full = DetectRequest::over(run.partition().clone())
            .cfd(sigma[0].clone())
            .algorithm(Algorithm::PatDetectS)
            .plan()?
            .run();
        println!(
            "{:<7} {:>6} {:>6} {:>12} {:>12} {:>14}",
            i + 1,
            ins,
            del,
            report.all_tids().len(),
            shipped_now - shipped_before,
            full.shipped_bytes,
        );
        shipped_before = shipped_now;
    }

    // Sanity: the maintained report equals full re-detection on the
    // materialized state.
    let rel = session.materialize()?;
    let global = detect_set(&rel, &sigma);
    assert_eq!(session.report().all_tids(), global.all_tids());
    for (name, vs) in &global.per_cfd {
        let report = session.report();
        let (_, got) = report.per_cfd.iter().find(|(n, _)| n == name).expect("entry");
        assert_eq!(&got.tids, &vs.tids, "{name}");
        assert_eq!(&got.patterns, &vs.patterns, "{name}");
    }
    println!("\nmaintained report equals full re-detection on the materialized state ✓");
    Ok(())
}

//! Observability: what one detection run exposes, end to end.
//!
//! Runs PATDETECTS over a small horizontal partition, prints the run's
//! Prometheus-style metric exposition (`Detection.metrics`, the run's
//! registry as it stood at completion), and writes the phase-level trace as
//! chrome-trace JSON under `target/` — load it in `chrome://tracing`
//! or Perfetto. Every timestamp is *simulated* time from `SiteClocks`,
//! so both artifacts are bit-identical run to run and across pool
//! widths.
//!
//! ```text
//! cargo run --example observability
//! ```

use distributed_cfd::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .key(&["id"])
        .build()?;
    let rel = Relation::from_rows(
        schema.clone(),
        (0..60)
            .map(|i| vals![i, i % 3, i % 5, format!("c{}", if i % 7 == 0 { 9 } else { i % 2 })])
            .collect(),
    )?;
    let sigma = vec![
        parse_cfd(&schema, "phi1", "([a, b] -> [c])")?,
        parse_cfd(&schema, "phi2", "([a=1, b] -> [c=c1])")?,
    ];
    let partition = HorizontalPartition::round_robin(&rel, 3)?;

    let detection =
        DetectRequest::over(partition).cfds(sigma).algorithm(Algorithm::PatDetectS).plan()?.run();
    println!("{detection}\n");

    // The run's registry, in Prometheus text exposition format. The
    // dcd_shipped_*/dcd_control_* families are the ShipmentLedger's
    // per-site-pair tallies; dcd_kernel_* count the validation kernel's
    // group verdicts; dcd_run_* are the run-summary gauges.
    println!("{}", detection.metrics.expose());

    // The phase spans, as chrome-trace JSON on the simulated clock:
    // one "X" event per (phase, site) with simulated microseconds.
    let path = std::path::Path::new("target").join("observability_trace.json");
    std::fs::create_dir_all("target")?;
    std::fs::write(&path, detection.trace.chrome_trace_json())?;
    println!("{} spans -> {}", detection.trace.spans.len(), path.display());
    Ok(())
}

//! The observability determinism contract, pinned as a matrix: for
//! every detector × every topology, the whole [`Detection`] — its
//! `metrics` copy and its `trace` span set included — must be `==` at
//! pool widths {1, 8}. Metrics are order-free integer sums the
//! coordinating thread adds after each join, and spans are timestamped
//! from `SiteClocks` snapshots, so nothing the
//! scheduler does (who runs which site's task, in what order) may reach
//! either artifact. Nothing is recorded outside a run, so this suite
//! pins every metric the program keeps.
//!
//! It also pins that the trace is *complete*: per site, the spans'
//! durations add up to the site's final clock, for every batch run of
//! the matrix and for both session kinds — the runtime witness of what
//! `RunCtx::phase` guarantees by construction.

mod common;

use common::{sample, sample_sigma, schema};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_incr::{IncrementalRun, VerticalIncrementalRun};
use distributed_cfd::prelude::*;

fn algorithms() -> [Algorithm; 5] {
    [
        Algorithm::CtrDetect,
        Algorithm::PatDetectS,
        Algorithm::PatDetectRT,
        Algorithm::seq_detect(),
        Algorithm::clust_detect(),
    ]
}

/// The four topologies over the sample relation.
struct Fixtures {
    sigma: Vec<Cfd>,
    horizontal: HorizontalPartition,
    vertical: VerticalPartition,
    hybrid: HybridPartition,
    replicated: ReplicatedPartition,
}

fn fixtures() -> Fixtures {
    let rel = sample(300);
    let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
    Fixtures {
        sigma: sample_sigma(rel.schema()),
        vertical: VerticalPartition::by_attribute_groups(
            &rel,
            &[&["id", "a", "b"], &["c"], &["d"]],
        )
        .unwrap(),
        hybrid: HybridPartition::new(&horizontal, &[&["id", "a", "b"], &["c", "d"]]).unwrap(),
        replicated: ReplicatedPartition::chained(horizontal.clone(), 2).unwrap(),
        horizontal,
    }
}

/// Every detector over every topology at one pool width, labelled, in
/// a fixed order.
fn run_matrix(f: &Fixtures, threads: usize) -> Vec<(String, Detection)> {
    let cfg = RunConfig::default().with_threads(threads);
    let mut out = Vec::new();
    for alg in algorithms() {
        let topologies: [(&str, Topology); 4] = [
            ("horizontal", f.horizontal.clone().into()),
            ("vertical", f.vertical.clone().into()),
            ("hybrid", f.hybrid.clone().into()),
            ("replicated", f.replicated.clone().into()),
        ];
        for (name, topo) in topologies {
            let d = DetectRequest::over(topo)
                .cfds(f.sigma.iter().cloned())
                .algorithm(alg)
                .config(cfg)
                .plan()
                .map(|plan| plan.run())
                .expect("matrix run succeeds");
            out.push((format!("{name}/{alg:?}"), d));
        }
    }
    out
}

/// Every run must carry the uniform observability surface: the ledger
/// mirror, the kernel family, the run-summary gauges, and a non-empty
/// span set whose timestamps agree with the final site clocks.
fn assert_surface(label: &str, d: &Detection) {
    for family in [
        "dcd_shipped_tuples_total",
        "dcd_shipped_cells_total",
        "dcd_shipped_bytes_total",
        "dcd_control_messages_total",
        "dcd_control_bytes_total",
    ] {
        assert!(
            d.metrics.value(family, "{from=\"0\",to=\"0\"}").is_some(),
            "{label}: missing ledger-mirror family {family}"
        );
    }
    assert_eq!(
        d.metrics.counter_total("dcd_shipped_tuples_total"),
        d.shipped_tuples as u64,
        "{label}: shipment mirror diverged from the ledger"
    );
    assert!(
        d.metrics.value("dcd_run_response_seconds", "").is_some(),
        "{label}: missing run-summary gauge"
    );
    assert!(!d.trace.spans.is_empty(), "{label}: no spans recorded");
    let horizon = d.site_clocks.iter().fold(0.0f64, |m, &c| m.max(c));
    for span in &d.trace.spans {
        assert!(span.start <= span.end, "{label}: inverted span {}", span.name);
        assert!(
            span.end <= horizon,
            "{label}: span {} ends past the final clock of its run",
            span.name
        );
    }
}

#[test]
fn observability_is_bit_identical_across_widths_and_chunk_sizes() {
    // Baseline: one worker.
    let f = fixtures();
    let baseline = run_matrix(&f, 1);
    assert!(
        baseline.iter().any(|(_, d)| !d.violations.all_tids().is_empty()),
        "fixture should contain violations"
    );
    for (label, d) in &baseline {
        assert_surface(label, d);
    }
    let got = run_matrix(&f, 8);
    assert_eq!(baseline.len(), got.len());
    for ((label, base), (label2, d)) in baseline.iter().zip(&got) {
        assert_eq!(label, label2);
        // Snapshot and trace compare f64s through bits, and so does the
        // rest of the `Detection`.
        assert_eq!(base, d, "{label} @threads=8");
    }
}

/// Per site, the spans' durations must add up to the site's final
/// clock: every interval in which a clock moved is in the trace.
fn assert_spans_tile_the_clock(label: &str, d: &Detection) {
    for (site, &clock) in d.site_clocks.iter().enumerate() {
        let covered: f64 =
            d.trace.spans.iter().filter(|s| s.site == site).map(|s| s.end - s.start).sum();
        assert!(
            (covered - clock).abs() <= 1e-12 * clock,
            "{label}: site {site} clock is {clock} but its spans cover {covered}"
        );
    }
}

#[test]
fn spans_tile_the_clock() {
    let f = fixtures();
    for (label, d) in run_matrix(&f, 1) {
        assert_spans_tile_the_clock(&label, &d);
    }

    // CLUSTDETECT over a containment family and a CFD related to no
    // other: two rounds of the one cluster round, one shipment each, the
    // family's under `cluster` and the loner's under its own name.
    let s = schema();
    let d = DetectRequest::over(f.horizontal.clone())
        .cfds([
            parse_cfd(&s, "wide", "([a, b] -> [d])").unwrap(),
            parse_cfd(&s, "narrow", "([a] -> [d])").unwrap(),
            parse_cfd(&s, "alone", "([c] -> [d])").unwrap(),
        ])
        .algorithm(Algorithm::clust_detect())
        .plan()
        .map(|plan| plan.run())
        .expect("a valid request");
    assert_spans_tile_the_clock("family + singleton", &d);
    let mut shipments: Vec<&str> =
        d.trace.spans.iter().map(|s| s.name.as_str()).filter(|n| n.starts_with("ship:")).collect();
    shipments.dedup();
    assert_eq!(shipments, ["ship:cluster", "ship:alone"]);

    let cfg = RunConfig::default().with_threads(1);
    let stream = UpdateStreamConfig { n_batches: 3, ops_per_batch: 20, ..Default::default() };
    let batches = update_stream(&f.horizontal, &stream);
    assert!(batches.len() >= 3);

    // A horizontal session that also maintains a mined tableau: the
    // mine build and the per-batch maintenance are phases too.
    let mut run = IncrementalRun::new(f.horizontal.clone(), &f.sigma, cfg).unwrap();
    run.track_mining(&f.sigma[0].simplify()[0], &MiningConfig::default()).unwrap();
    assert_spans_tile_the_clock("session/build+mine", &run.detection());
    for (i, batch) in batches.iter().enumerate() {
        run.apply_batch(&DeltaBatch::new(batch.clone())).unwrap();
        assert_spans_tile_the_clock(&format!("session/batch {i}"), &run.detection());
    }
    let trace = run.detection().trace;
    for phase in ["incr:mine-build", "incr:mine", "incr:manifest"] {
        assert!(
            trace.spans.iter().any(|s| s.name == phase),
            "horizontal session trace lacks `{phase}`"
        );
    }

    // A vertical session: the manifest's control-packet time is a phase
    // of its own, like the horizontal one's.
    let mut run = VerticalIncrementalRun::new(f.vertical.clone(), &f.sigma, cfg).unwrap();
    for (i, batch) in batches.iter().enumerate() {
        run.apply_batch(&DeltaBatch::new(batch.clone()).flatten()).unwrap();
        assert_spans_tile_the_clock(&format!("vertical session/batch {i}"), &run.detection());
    }
    let d = run.detection();
    assert!(d.trace.spans.iter().any(|s| s.name == "incr:manifest"));
}

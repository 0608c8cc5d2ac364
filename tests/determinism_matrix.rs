//! The morsel determinism contract, pinned as a matrix: every detector
//! × every topology must produce a bit-identical [`Detection`] across
//! pool widths {1, 2, 8} × chunk sizes {1 row, 7 rows, default}. The
//! baseline is the width-1 default-chunk run; every other cell of the
//! matrix must match it field for field, f64s compared by bits. This is the
//! property clippy's `iter_over_hash_type` and its thread allow-list
//! guard statically and the morsel pipeline must uphold dynamically:
//! scheduling (who runs which (site, chunk) morsel, in what order, stolen
//! or not) must never reach the output.

mod common;

use common::chunk_rows;
use distributed_cfd::prelude::*;
use distributed_cfd::relation::DEFAULT_CHUNK_ROWS;
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

/// ~120 rows over tiny domains, laid out in `chunk`-row chunks: plenty
/// of FD collisions, several chunks at chunk size 7, and skew (site 0 of
/// the round-robin gets no more than the others, but the `a = i % 3`
/// domain skews groups).
fn sample(chunk: usize) -> Relation {
    Relation::from_rows(
        schema(),
        (0..120)
            .map(|i| {
                vals![
                    i,
                    i % 3,
                    i % 5,
                    format!("c{}", i % 4),
                    format!("d{}", if i % 7 == 0 { 9 } else { i % 2 })
                ]
            })
            .collect(),
    )
    .unwrap()
    .with_chunk_rows(chunk_rows(chunk))
}

fn sigma(s: &Arc<Schema>) -> Vec<Cfd> {
    vec![
        parse_cfd(s, "phi1", "([a, b] -> [d])").unwrap(),
        parse_cfd(s, "phi2", "([a=1, c] -> [d])").unwrap(),
        parse_cfd(s, "phi3", "([b=2, c=c1] -> [d=d1])").unwrap(), // constant CFD
    ]
}

/// Field-by-field bit equality of two [`Detection`]s.
fn assert_identical(base: &Detection, got: &Detection, label: &str) {
    assert_eq!(base.algorithm, got.algorithm, "{label} algorithm");
    assert_eq!(base.violations.per_cfd.len(), got.violations.per_cfd.len(), "{label} per_cfd");
    for ((na, va), (nb, vb)) in base.violations.per_cfd.iter().zip(&got.violations.per_cfd) {
        assert_eq!(na, nb, "{label} cfd name");
        assert_eq!(va.tids, vb.tids, "{label} Vio({na})");
        assert_eq!(va.patterns, vb.patterns, "{label} Vioπ({na})");
    }
    assert_eq!(base.shipped_tuples, got.shipped_tuples, "{label} |M|");
    assert_eq!(base.shipped_cells, got.shipped_cells, "{label} cells");
    assert_eq!(base.shipped_bytes, got.shipped_bytes, "{label} bytes");
    assert_eq!(base.control_messages, got.control_messages, "{label} control");
    assert_eq!(base.response_time.to_bits(), got.response_time.to_bits(), "{label} time");
    assert_eq!(base.paper_cost.to_bits(), got.paper_cost.to_bits(), "{label} paper");
    assert_eq!(base.site_clocks.len(), got.site_clocks.len(), "{label} clocks");
    for (s, (ca, cb)) in base.site_clocks.iter().zip(&got.site_clocks).enumerate() {
        assert_eq!(ca.to_bits(), cb.to_bits(), "{label} clock of site {s}");
    }
}

const ALGORITHMS: [Algorithm; 3] =
    [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT];

/// One full sweep: rebuild the relation and all four topologies in the
/// given chunk size, run every detector at the given width, return the
/// labelled detections in a fixed order.
fn sweep(chunk: usize, threads: usize) -> Vec<(String, Detection)> {
    let rel = sample(chunk);
    let s = rel.schema().clone();
    let sigma = sigma(&s);
    let cfg = RunConfig::default().with_threads(threads);
    let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let vertical =
        VerticalPartition::by_attribute_groups(&rel, &[&["id", "a", "b"], &["c"], &["d"]]).unwrap();
    let hybrid = HybridPartition::new(&horizontal, &[&["id", "a", "b"], &["c", "d"]]).unwrap();
    let replicated = ReplicatedPartition::chained(horizontal.clone(), 2).unwrap();

    let run = |topo: Topology, alg: Algorithm| {
        DetectRequest::over(topo)
            .cfds(sigma.iter().cloned())
            .algorithm(alg)
            .config(cfg)
            .run()
            .expect("matrix run succeeds")
    };

    let mut out = Vec::new();
    for alg in ALGORITHMS {
        out.push((format!("horizontal/{alg:?}"), run(Topology::from(horizontal.clone()), alg)));
        out.push((format!("hybrid/{alg:?}"), run(Topology::from(hybrid.clone()), alg)));
    }
    out.push((
        "horizontal/SeqDetect".into(),
        run(horizontal.clone().into(), Algorithm::seq_detect()),
    ));
    out.push((
        "horizontal/ClustDetect".into(),
        run(horizontal.clone().into(), Algorithm::clust_detect()),
    ));
    out.push(("replicated".into(), run(replicated.into(), Algorithm::PatDetectS)));
    out.push(("vertical".into(), run(vertical.into(), Algorithm::PatDetectS)));
    out
}

#[test]
fn detections_are_bit_identical_across_widths_and_chunk_sizes() {
    // Baseline: one worker, default chunk size.
    let baseline = sweep(DEFAULT_CHUNK_ROWS, 1);
    assert!(
        baseline.iter().any(|(_, d)| !d.violations.all_tids().is_empty()),
        "fixture should contain violations"
    );
    for chunk in [1, 7, DEFAULT_CHUNK_ROWS] {
        for threads in [1usize, 2, 8] {
            if chunk == DEFAULT_CHUNK_ROWS && threads == 1 {
                continue; // the baseline itself
            }
            let got = sweep(chunk, threads);
            assert_eq!(baseline.len(), got.len());
            for ((label, base), (label2, d)) in baseline.iter().zip(&got) {
                assert_eq!(label, label2);
                let cell = format!("{label} @threads={threads}, chunk={chunk}");
                assert_identical(base, d, &cell);
            }
        }
    }
}

/// A Σ that exercises the Proposition-5 phase the way `run_batch` feeds
/// it: one CFD whose tableau carries four constant patterns on one
/// `(X, A)` — two ordinary, one with an LHS and one with an RHS constant
/// the relation never saw — beside a variable pattern, plus an FD and a
/// constant CFD on another `X`.
fn constants_sigma(s: &Arc<Schema>) -> Vec<Cfd> {
    let k1: Vec<Cfd> = [
        "([b=2, c=c1] -> [d=d1])",
        "([b=3, c=c0] -> [d=d0])",
        "([b=4, c=zzz] -> [d=d1])",
        "([b=1, c=c2] -> [d=nope])",
        "([b=0, c] -> [d])",
    ]
    .iter()
    .map(|text| parse_cfd(s, "k1", text).unwrap())
    .collect();
    vec![
        Cfd::merge("k1", &k1.iter().collect::<Vec<_>>()).unwrap(),
        parse_cfd(s, "phi1", "([a, b] -> [d])").unwrap(),
        parse_cfd(s, "k2", "([a=1, c=c3] -> [d=d1])").unwrap(),
    ]
}

/// Everything the cost model and the observer recorded about one run,
/// floats by bit pattern.
fn recorded(label: &str, d: &Detection) -> String {
    let mut out = format!("== {label}\n");
    for (name, vs) in &d.violations.per_cfd {
        out += &format!("vio {name} {} {}\n", vs.tids.len(), vs.patterns.len());
    }
    out += &format!(
        "shipped {} {} {} control {}\n",
        d.shipped_tuples, d.shipped_cells, d.shipped_bytes, d.control_messages
    );
    out += &format!("response_time {:#018x}\n", d.response_time.to_bits());
    out += &format!("paper_cost {:#018x}\n", d.paper_cost.to_bits());
    for (site, clock) in d.site_clocks.iter().enumerate() {
        out += &format!("site_clock {site} {:#018x}\n", clock.to_bits());
    }
    out + &d.metrics.expose()
}

/// The constant check is charged analytically per constant *pattern*
/// and its scan is an implementation detail: however the patterns are
/// fused or filtered, clocks, ledger and `Detection.metrics` must read
/// what they read before the scans were rewritten
/// (`tests/golden/constants_detection.txt`, recorded at the parent
/// commit of that change) — over the default layout and over 3-row
/// chunks, where a morsel scans fewer rows than most keys' code spaces
/// and the scans hash where the default indexes slots.
#[test]
fn constants_bearing_sigma_reads_the_recorded_clocks_and_metrics() {
    for chunk in [DEFAULT_CHUNK_ROWS, 3] {
        let rel = sample(chunk);
        let sigma = constants_sigma(rel.schema());
        let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let mut got = String::new();
        for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::clust_detect()] {
            let d = DetectRequest::over(horizontal.clone())
                .cfds(sigma.iter().cloned())
                .algorithm(alg)
                .run()
                .expect("run succeeds");
            assert!(d.violations.per_cfd.iter().any(|(n, v)| &**n == "k1" && !v.tids.is_empty()));
            got += &recorded(&format!("{alg:?}"), &d);
        }
        assert_eq!(got, include_str!("golden/constants_detection.txt"), "{chunk} rows per chunk");
    }
}

//! The pool's determinism contract, pinned as a matrix: every detector
//! × every topology must produce a bit-identical [`Detection`] at pool
//! widths {1, 2, 8}. The baseline is the width-1 run; every other cell of
//! the matrix must be `==` to it — every field, f64s compared by bits. This
//! is the property clippy's `iter_over_hash_type` and its thread
//! allow-list guard statically and the pool must uphold dynamically:
//! scheduling (who runs which site's task, in what order) must never
//! reach the output.

mod common;

use common::{grow_dictionaries, sample, sample_sigma};
use distributed_cfd::prelude::*;
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 3] =
    [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT];

/// One full sweep: rebuild the relation and all four topologies, run
/// every detector at the given width, return the labelled detections in
/// a fixed order.
fn sweep(threads: usize) -> Vec<(String, Detection)> {
    let rel = sample(120);
    let sigma = sample_sigma(rel.schema());
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
            .plan()
            .map(|plan| plan.run())
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
    // Baseline: one worker.
    let baseline = sweep(1);
    assert!(
        baseline.iter().any(|(_, d)| !d.violations.all_tids().is_empty()),
        "fixture should contain violations"
    );
    for threads in [2usize, 8] {
        let got = sweep(threads);
        assert_eq!(baseline.len(), got.len());
        for ((label, base), (label2, d)) in baseline.iter().zip(&got) {
            assert_eq!(label, label2);
            assert_eq!(base, d, "{label} @threads={threads}");
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
        out += &format!("vio {name} {} {}\n", vs.len(), vs.pattern_count());
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
/// commit of that change) — as built, and again with grown dictionaries,
/// where the scans hash every key the built relation indexes in slots.
#[test]
fn constants_bearing_sigma_reads_the_recorded_clocks_and_metrics() {
    for grown in [false, true] {
        let rel = sample(120);
        if grown {
            grow_dictionaries(&rel);
        }
        let sigma = constants_sigma(rel.schema());
        let horizontal = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let mut got = String::new();
        for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::clust_detect()] {
            let d = DetectRequest::over(horizontal.clone())
                .cfds(sigma.iter().cloned())
                .algorithm(alg)
                .plan()
                .map(|plan| plan.run())
                .expect("run succeeds");
            assert!(d.violations.per_cfd.iter().any(|(n, v)| &**n == "k1" && !v.is_empty()));
            got += &recorded(&format!("{alg:?}"), &d);
        }
        assert_eq!(got, include_str!("golden/constants_detection.txt"), "grown: {grown}");
    }
}

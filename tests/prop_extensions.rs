//! Property-based tests for the §VIII extensions: hybrid-fragmentation
//! detection and replication-aware detection are equivalent to
//! centralized detection on random inputs, and replication never
//! increases traffic.

mod common;

use common::{arb_rows, build_relation, schema};
use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Runs one facade request (`PATDETECTS` strategy, like the legacy
/// entry points these properties were first pinned against).
fn run_on(topology: impl Into<Topology>, sigma: &[Cfd], cfg: &RunConfig) -> Detection {
    DetectRequest::over(topology)
        .cfds(sigma.iter().cloned())
        .algorithm(Algorithm::PatDetectS)
        .config(*cfg)
        .plan()
        .map(|plan| plan.run())
        .expect("generated requests are valid")
}

fn arb_cfd_pick() -> impl Strategy<Value = usize> {
    0usize..4
}

fn pick_cfd(s: &Arc<Schema>, which: usize) -> Cfd {
    match which {
        0 => parse_cfd(s, "f", "([a, b] -> [c])").unwrap(),
        1 => parse_cfd(s, "f", "([a=1, b] -> [d])").unwrap(),
        2 => parse_cfd(s, "f", "([c] -> [d])").unwrap(),
        _ => parse_cfd(s, "f", "([a=2, c] -> [d=d0])").unwrap(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hybrid detection ≡ centralized on random data / CFD / shape.
    #[test]
    fn hybrid_equals_centralized(
        rows in arb_rows(1..50),
        which in arb_cfd_pick(),
        n_cells in 1usize..4,
        split_point in 1usize..4,
    ) {
        let rel = build_relation(&rows);
        let s = schema();
        let cfd = pick_cfd(&s, which);
        let global = detect(&rel, &cfd);
        let names = ["a", "b", "c", "d"];
        let left: Vec<&str> = names[..split_point].to_vec();
        let right: Vec<&str> = names[split_point..].to_vec();
        let horizontal = HorizontalPartition::round_robin(&rel, n_cells).unwrap();
        let hybrid = HybridPartition::new(&horizontal, &[&left, &right]).unwrap();
        let d = run_on(hybrid, std::slice::from_ref(&cfd), &RunConfig::default());
        prop_assert_eq!(&d.violations.all_tids(), &global.tids());
    }

    /// Replicated detection ≡ centralized, and shipment is antitone in
    /// the replication factor.
    #[test]
    fn replication_equals_centralized_and_saves(
        rows in arb_rows(1..50),
        which in arb_cfd_pick(),
        n_sites in 2usize..5,
    ) {
        let rel = build_relation(&rows);
        let s = schema();
        let cfd = pick_cfd(&s, which);
        let global = detect(&rel, &cfd);
        let base = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let mut last = usize::MAX;
        for r in 1..=n_sites {
            let replicated = ReplicatedPartition::chained(base.clone(), r).unwrap();
            let d = run_on(replicated, std::slice::from_ref(&cfd), &RunConfig::default());
            prop_assert_eq!(&d.violations.all_tids(), &global.tids(), "r = {}", r);
            prop_assert!(d.shipped_tuples <= last, "r = {}", r);
            last = d.shipped_tuples;
        }
        prop_assert_eq!(last, 0, "full replication must ship nothing");
    }

    /// Pool-size determinism for the §VIII extensions, which the main
    /// determinism suite (over the five horizontal detectors) does not
    /// cover: hybrid detection's parallel per-cell gather and
    /// replicated detection's pooled phases produce `==` detections —
    /// reports, ledger, clocks and costs by bits, metrics and trace — for
    /// pool sizes {1, 2, 8}.
    #[test]
    fn pool_size_never_changes_hybrid_or_replicated(
        rows in arb_rows(1..50),
        which in arb_cfd_pick(),
        n_cells in 2usize..4,
    ) {
        let rel = build_relation(&rows);
        let s = schema();
        let cfd = pick_cfd(&s, which);
        let sigma = std::slice::from_ref(&cfd);
        let sequential = RunConfig::default().with_threads(1);

        let horizontal = HorizontalPartition::round_robin(&rel, n_cells).unwrap();
        let hybrid = HybridPartition::new(&horizontal, &[&["a", "b"], &["c", "d"]]).unwrap();
        let hybrid_base = run_on(hybrid.clone(), sigma, &sequential);

        let replicated = ReplicatedPartition::chained(horizontal.clone(), 2).unwrap();
        let rep_base = run_on(replicated.clone(), sigma, &sequential);

        for threads in [2usize, 8] {
            let cfg = RunConfig::default().with_threads(threads);
            let h = run_on(hybrid.clone(), sigma, &cfg);
            prop_assert_eq!(&hybrid_base, &h, "hybrid @ {} threads", threads);
            let r = run_on(replicated.clone(), sigma, &cfg);
            prop_assert_eq!(&rep_base, &r, "replicated @ {} threads", threads);
        }
    }

    /// Hybrid reassembly invariant: the partition always restores the
    /// original relation.
    #[test]
    fn hybrid_reassembles(rows in arb_rows(1..50), n_cells in 1usize..4) {
        let rel = build_relation(&rows);
        let horizontal = HorizontalPartition::round_robin(&rel, n_cells).unwrap();
        let hybrid =
            HybridPartition::new(&horizontal, &[&["a", "b"], &["c", "d"]]).unwrap();
        let back = hybrid.reassemble().unwrap();
        prop_assert_eq!(back.len(), rel.len());
        let id = rel.schema().require("id").unwrap();
        for t in back.iter() {
            let orig = rel.iter().find(|o| o.get(id) == t.get(id)).unwrap();
            prop_assert_eq!(t.values(), orig.values());
        }
    }
}

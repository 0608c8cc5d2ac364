//! Workload-scale integration tests: the generated CUST / XREF datasets
//! with injected errors, run through every algorithm, checking both the
//! findings and the paper's comparative claims at this scale.

use distributed_cfd::datagen::cust::{cust_main_cfd, cust_overlapping_pair, CustConfig};
use distributed_cfd::datagen::inject_errors;
use distributed_cfd::datagen::xref::{xref_main_cfd, xref_second_cfd, XrefConfig};
use distributed_cfd::prelude::*;

/// Runs one facade request over a horizontal partition.
fn run_on(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    algorithm: Algorithm,
    cfg: &RunConfig,
) -> Detection {
    DetectRequest::over(partition.clone())
        .cfds(sigma.iter().cloned())
        .algorithm(algorithm)
        .config(*cfg)
        .plan()
        .map(|plan| plan.run())
        .expect("workload fixtures are valid requests")
}

fn cust() -> (Relation, CustConfig) {
    let config = CustConfig { n_tuples: 20_000, ..CustConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "street", 0.02, 1);
    (dirty, config)
}

#[test]
fn all_single_cfd_algorithms_agree_on_cust() {
    let (rel, config) = cust();
    let cfd = cust_main_cfd(rel.schema(), &config, 255);
    let baseline = detect_simple(&rel, &cfd);
    assert!(
        baseline.tids.len() > 100,
        "the 2% error injection must produce plenty of violations, got {}",
        baseline.tids.len()
    );
    let partition = HorizontalPartition::round_robin(&rel, 8).unwrap();
    let cfg = RunConfig::default();
    for alg in [Algorithm::CtrDetect, Algorithm::PatDetectS, Algorithm::PatDetectRT] {
        let d = run_on(&partition, &[cfd.to_cfd()], alg, &cfg);
        assert_eq!(d.violations.all_tids(), baseline.tids, "{alg:?}");
    }
}

#[test]
fn comparative_claims_hold_on_cust() {
    let (rel, config) = cust();
    let cfd = cust_main_cfd(rel.schema(), &config, 255);
    let partition = HorizontalPartition::round_robin(&rel, 8).unwrap();
    let cfg = RunConfig::default();
    let ctr = run_on(&partition, &[cfd.to_cfd()], Algorithm::CtrDetect, &cfg);
    let pats = run_on(&partition, &[cfd.to_cfd()], Algorithm::PatDetectS, &cfg);
    let patrt = run_on(&partition, &[cfd.to_cfd()], Algorithm::PatDetectRT, &cfg);
    // PATDETECTS minimizes shipment among the three.
    assert!(pats.shipped_tuples <= ctr.shipped_tuples);
    assert!(pats.shipped_tuples <= patrt.shipped_tuples);
    // Per-pattern algorithms beat the central one on simulated response
    // time (the paper: "by a factor of more than two").
    assert!(patrt.response_time * 2.0 < ctr.response_time);
}

#[test]
fn response_time_decreases_with_sites_on_cust() {
    let (rel, config) = cust();
    let cfd = cust_main_cfd(rel.schema(), &config, 105);
    let cfg = RunConfig::default();
    let mut last = f64::INFINITY;
    for n_sites in [2usize, 4, 8] {
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let d = run_on(&partition, &[cfd.to_cfd()], Algorithm::PatDetectRT, &cfg);
        assert!(
            d.response_time < last,
            "response time must fall with sites: {} !< {last}",
            d.response_time
        );
        last = d.response_time;
    }
}

#[test]
fn multi_cfd_claims_hold_on_xref() {
    let config = XrefConfig { n_tuples: 20_000, ..XrefConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "source", 0.02, 3);
    let (dirty, _) = inject_errors(&dirty, "db_release", 0.02, 4);
    let sigma = vec![
        xref_main_cfd(dirty.schema(), &config.organisms).to_cfd(),
        xref_second_cfd(dirty.schema(), &config.organisms),
    ];
    let baseline = detect_set(&dirty, &sigma);
    let partition = HorizontalPartition::round_robin(&dirty, 6).unwrap();
    let cfg = RunConfig::default();
    let seq = run_on(&partition, &sigma, Algorithm::seq_detect(), &cfg);
    let clust = run_on(&partition, &sigma, Algorithm::clust_detect(), &cfg);
    assert_eq!(seq.violations.all_tids(), baseline.all_tids());
    assert_eq!(clust.violations.all_tids(), baseline.all_tids());
    // The paper's Exp-5 claims, at this scale:
    assert!(clust.shipped_tuples < seq.shipped_tuples, "clustering must save shipment");
    assert!(clust.response_time < seq.response_time, "clustering must save time");
}

#[test]
fn overlapping_cust_pair_round_trips_through_both_multis() {
    let (rel, config) = cust();
    let sigma = cust_overlapping_pair(rel.schema(), &config, 60);
    let baseline = detect_set(&rel, &sigma);
    let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let cfg = RunConfig::default();
    for alg in [Algorithm::seq_detect(), Algorithm::clust_detect()] {
        let d = run_on(&partition, &sigma, alg, &cfg);
        for (name, vs) in &baseline.per_cfd {
            let (_, got) = d
                .violations
                .per_cfd
                .iter()
                .find(|(n, _)| n.starts_with(name.split(':').next().unwrap()))
                .unwrap_or_else(|| panic!("{alg:?}: missing CFD {name}"));
            assert_eq!(&got.tids, &vs.tids, "{:?} / {}", alg, name);
        }
    }
}

#[test]
fn fragmentation_strategy_does_not_change_results() {
    let config = XrefConfig { n_tuples: 10_000, ..XrefConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "source", 0.03, 5);
    let cfd = xref_main_cfd(dirty.schema(), &config.organisms);
    let baseline = detect_simple(&dirty, &cfd);
    let cfg = RunConfig::default();
    let by_rr = HorizontalPartition::round_robin(&dirty, 7).unwrap();
    let by_type = HorizontalPartition::by_attribute(&dirty, "info_type", 7).unwrap();
    let by_org = HorizontalPartition::by_attribute(&dirty, "organism", 3).unwrap();
    for partition in [&by_rr, &by_type, &by_org] {
        let d = run_on(partition, &[cfd.to_cfd()], Algorithm::PatDetectS, &cfg);
        assert_eq!(d.violations.all_tids(), baseline.tids);
    }
}

#[test]
fn attribute_fragmentation_reduces_shipment_for_correlated_cfds() {
    // When the fragmentation attribute appears in the CFD's LHS
    // patterns, σ blocks are site-local and shipment drops.
    let config = XrefConfig { n_tuples: 10_000, ..XrefConfig::default() };
    let clean = config.generate();
    let (dirty, _) = inject_errors(&clean, "source", 0.03, 5);
    let cfd = xref_main_cfd(dirty.schema(), &config.organisms);
    let cfg = RunConfig::default();
    let by_rr = HorizontalPartition::round_robin(&dirty, 3).unwrap();
    let by_org = HorizontalPartition::by_attribute(&dirty, "organism", 3).unwrap();
    let rr = run_on(&by_rr, &[cfd.to_cfd()], Algorithm::PatDetectS, &cfg);
    let org = run_on(&by_org, &[cfd.to_cfd()], Algorithm::PatDetectS, &cfg);
    assert!(
        org.shipped_tuples < rr.shipped_tuples / 2,
        "organism-aligned fragmentation should at least halve shipment: {} vs {}",
        org.shipped_tuples,
        rr.shipped_tuples
    );
}

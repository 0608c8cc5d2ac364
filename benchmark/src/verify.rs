//! Output verification. Once per workload the engine's full per-CFD
//! `Vio`/`Vioπ` is compared, set for set, with centralized detection on
//! the unfragmented relation; every later operation's [`Detection`] is
//! then compared with that verified one through a [`Digest`].

use dcd_cfd::ViolationReport;
use dcd_core::Detection;
use dcd_relation::fxhash::FxBuildHasher;
use std::hash::{BuildHasher, Hash};

/// Whether two reports hold the same CFD names with the same violating
/// tuples and the same `Vioπ` patterns, in any order.
pub fn same_report(a: &ViolationReport, b: &ViolationReport) -> bool {
    a.per_cfd.len() == b.per_cfd.len()
        && a.per_cfd.iter().all(|(name, va)| {
            b.per_cfd
                .iter()
                .find(|(n, _)| n == name)
                .is_some_and(|(_, vb)| va.tids == vb.tids && va.patterns == vb.patterns)
        })
}

/// What is compared per operation: per CFD the violating tuples and
/// `Vioπ` patterns (count and an order-free hash of the members), the
/// ledger's bytes, and the simulated response time bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    per_cfd: Vec<(String, usize, u64, usize, u64)>,
    shipped_bytes: usize,
    control_bytes: usize,
    response_bits: u64,
}

/// Sum of the members' hashes: independent of iteration order, which a
/// hash set does not fix.
fn order_free_hash<T: Hash>(items: impl Iterator<Item = T>) -> u64 {
    let hasher = FxBuildHasher::default();
    items.fold(0u64, |acc, item| acc.wrapping_add(hasher.hash_one(item)))
}

pub fn digest(d: &Detection) -> Digest {
    let mut per_cfd: Vec<_> = d
        .violations
        .per_cfd
        .iter()
        .map(|(name, vs)| {
            (
                name.to_string(),
                vs.tids.len(),
                order_free_hash(vs.tids.iter()),
                vs.patterns.len(),
                order_free_hash(vs.patterns.iter()),
            )
        })
        .collect();
    per_cfd.sort();
    Digest {
        per_cfd,
        shipped_bytes: d.shipped_bytes,
        control_bytes: d.control_bytes,
        response_bits: d.response_time.to_bits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{dataset, fragment, run_config, Workload, SMOKE};
    use dcd_core::run_batch;
    use dcd_relation::TupleId;

    fn detection() -> Detection {
        let ds = dataset(Workload::CustDense, &SMOKE, 3);
        let part = fragment(&ds.ingest(ds.fresh_rows()));
        let simples: Vec<_> = ds.sigma.iter().flat_map(|c| c.simplify()).collect();
        run_batch(&part, &simples, ds.strategy, &run_config(1))
    }

    #[test]
    fn a_repeated_run_digests_the_same() {
        let (a, b) = (detection(), detection());
        assert!(!a.violations.all_tids().is_empty(), "the workload has violations to find");
        assert_eq!(digest(&a), digest(&b));
        assert!(same_report(&a.violations, &b.violations));
    }

    #[test]
    fn every_perturbation_of_a_detection_changes_its_digest() {
        let base = detection();
        let reference = digest(&base);

        let mut d = base.clone();
        let victim = *d.violations.per_cfd[0].1.tids.iter().next().unwrap();
        d.violations.per_cfd[0].1.tids.remove(&victim);
        assert_ne!(digest(&d), reference, "a missing violating tuple");
        assert!(!same_report(&d.violations, &base.violations));

        let mut d = base.clone();
        d.violations.per_cfd[0].1.tids.remove(&victim);
        d.violations.per_cfd[0].1.tids.insert(TupleId(u64::MAX));
        assert_ne!(digest(&d), reference, "a swapped tuple with the count unchanged");

        let mut d = base.clone();
        let pattern = d.violations.per_cfd[0].1.patterns.iter().next().unwrap().clone();
        d.violations.per_cfd[0].1.patterns.remove(&pattern);
        assert_ne!(digest(&d), reference, "a missing Vioπ pattern");

        let mut d = base.clone();
        d.shipped_bytes += 4;
        assert_ne!(digest(&d), reference, "one more shipped cell");

        let mut d = base.clone();
        d.control_bytes += 8;
        assert_ne!(digest(&d), reference, "one more control message");

        let mut d = base.clone();
        d.response_time = f64::from_bits(d.response_time.to_bits() + 1);
        assert_ne!(digest(&d), reference, "the response time one ulp off");
    }
}

//! Replication-aware detection (§VIII future work, realized).
//!
//! When fragments are replicated, a pattern's coordinator can be chosen
//! so that many of the pattern's tuples are *already* at the coordinator
//! via replicas — those fragments ship nothing. `REPDETECT` is the
//! `PATDETECTS` round with `MinShipment` taken over held fragments:
//!
//! > for pattern `l`, pick the site `s` maximizing
//! > `Σ { lstat[f][l] : s holds a replica of fragment f }`
//! > (ties: smallest site id);
//!
//! constants and σ run at the primaries (replicas would find the same),
//! and primaries of the fragments the coordinator does not hold ship
//! their σ-blocks as usual. With replication factor 1 this is
//! `PATDETECTS` exactly (tested); with factor `n` it ships nothing.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::report::Detection;
use crate::runner::{run_round, CoordinatorStrategy};
use dcd_cfd::Cfd;
use dcd_dist::ReplicatedPartition;

/// Runs `REPDETECT` over a replicated partition — the engine behind
/// the `DetectRequest` façade of the `distributed-cfd` root crate.
pub fn run_replicated(
    partition: &ReplicatedPartition,
    sigma: &[Cfd],
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    let fragments = partition.base().fragments();
    for cfd in sigma.iter().flat_map(Cfd::simplify) {
        run_round(&mut ctx, fragments, &cfd, CoordinatorStrategy::MinShipment, |site, f| {
            partition.holds(site, f)
        });
    }
    ctx.finish("REPDETECT")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_batch;
    use dcd_cfd::parse_cfd;
    use dcd_dist::HorizontalPartition;
    use dcd_relation::{vals, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 7),
                        format!("s{}", i % 4)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn replication_factor_one_equals_patdetects() {
        let rel = sample(80);
        let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let replicated = ReplicatedPartition::chained(base.clone(), 1).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let cfg = RunConfig::default();
        let plain = run_batch(&base, &cfd.simplify(), CoordinatorStrategy::MinShipment, &cfg);
        let rep = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
        assert_eq!(rep.violations.all_tids(), plain.violations.all_tids());
        assert_eq!(rep.shipped_tuples, plain.shipped_tuples);
    }

    #[test]
    fn replication_reduces_shipment_monotonically() {
        let rel = sample(120);
        let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let cfg = RunConfig::default();
        let global = dcd_cfd::detect(&rel, &cfd);
        let mut last = usize::MAX;
        for r in 1..=4 {
            let replicated = ReplicatedPartition::chained(base.clone(), r).unwrap();
            let d = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
            assert_eq!(d.violations.all_tids(), global.tids, "r = {r}");
            assert!(
                d.shipped_tuples <= last,
                "shipment must not grow with replication: r={r}, {} > {last}",
                d.shipped_tuples
            );
            last = d.shipped_tuples;
        }
        // Full replication ships nothing.
        assert_eq!(last, 0);
    }

    #[test]
    fn constant_cfds_stay_local_under_replication() {
        let rel = sample(40);
        let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let replicated = ReplicatedPartition::chained(base, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "c", "([cc=44, zip] -> [street=s0])").unwrap();
        let d = run_replicated(&replicated, std::slice::from_ref(&cfd), &RunConfig::default());
        assert_eq!(d.shipped_tuples, 0);
        let global = dcd_cfd::detect(&rel, &cfd);
        assert_eq!(d.violations.all_tids(), global.tids);
    }

    #[test]
    fn multi_cfd_replicated_run() {
        let rel = sample(60);
        let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let replicated = ReplicatedPartition::chained(base, 2).unwrap();
        let sigma = vec![
            parse_cfd(rel.schema(), "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "b", "([zip] -> [street])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let d = run_replicated(&replicated, &sigma, &RunConfig::default());
        assert_eq!(d.violations.all_tids(), global.all_tids());
        assert_eq!(d.violations.per_cfd.len(), 2);
    }
}

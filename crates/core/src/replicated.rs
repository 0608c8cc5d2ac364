//! Replication-aware detection (§VIII future work, realized).
//!
//! When fragments are replicated, a pattern's coordinator can be chosen
//! so that many of the pattern's tuples are *already* at the coordinator
//! via replicas — those fragments ship nothing. `REPDETECT` runs each
//! CFD as a cluster of one (`multi::run_cluster`, the round of §IV-B on
//! the column-batch wire), with `MinShipment` taken over held fragments:
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
use crate::multi::run_cluster;
use crate::report::Detection;
use crate::runner::CoordinatorStrategy;
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
    let holds = |site, f| partition.holds(site, f);
    for cfd in sigma.iter().flat_map(Cfd::simplify) {
        run_cluster(&mut ctx, fragments, &[&cfd], CoordinatorStrategy::MinShipment, &holds);
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

    /// At factor 1 every site holds its own fragment only, and the run is
    /// `PATDETECTS`'s: violations, ledger, clocks, response time and paper
    /// cost by bit pattern, and spans. Only the label and the kernel's
    /// query counts may differ.
    #[test]
    fn replication_factor_one_equals_patdetects() {
        let rel = sample(80);
        let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let replicated = ReplicatedPartition::chained(base.clone(), 1).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let cfg = RunConfig::default();
        let plain = run_batch(&base, &cfd.simplify(), CoordinatorStrategy::MinShipment, &cfg);
        let rep = run_replicated(&replicated, std::slice::from_ref(&cfd), &cfg);
        assert_eq!(rep.violations, plain.violations);
        let ledger = |d: &Detection| {
            let shipped = (d.shipped_tuples, d.shipped_cells, d.shipped_bytes);
            (shipped, d.control_messages, d.control_bytes)
        };
        assert_eq!(ledger(&rep), ledger(&plain));
        let bits = |d: &Detection| {
            let clocks: Vec<u64> = d.site_clocks.iter().map(|c| c.to_bits()).collect();
            (clocks, d.response_time.to_bits(), d.paper_cost.to_bits())
        };
        assert_eq!(bits(&rep), bits(&plain));
        assert_eq!(rep.trace.spans, plain.trace.spans);
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
            assert_eq!(d.violations.all_tids(), global.tids(), "r = {r}");
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
        assert_eq!(d.violations.all_tids(), global.tids());
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

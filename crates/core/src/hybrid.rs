//! Detection under hybrid fragmentation (§VIII future work, realized).
//!
//! Two phases per CFD:
//!
//! 1. **Vertical gather within each cell**, by the one §V placement rule
//!    ([`HybridPartition::gather`], over each cell's
//!    [`VerticalPartition::gather_plan`](dcd_dist::VerticalPartition::gather_plan)):
//!    the cell's sub-site covering the most of the CFD's attributes
//!    becomes the *cell coordinator*; the other sub-sites ship the
//!    dictionary codes of their needed columns — `(tid, codes)` rows at
//!    4 bytes per cell — which the coordinator pairs row by row into the
//!    cell's projection of the relation (the codes are portable because
//!    every fragment shares the parent relation's dictionaries).
//! 2. **Horizontal detection across cells**: the cell projections form a
//!    synthesized horizontal partition (located at the cell
//!    coordinators; all other sites empty), over which the standard
//!    §IV-B machinery runs unchanged — σ-partitioning, statistics
//!    exchange, per-pattern coordinators, code-native shipment and
//!    validation.
//!
//! Both phases charge the same ledger and clocks, so the reported
//! shipment and response time cover the whole pipeline. No tuple
//! payload crosses the simulated wire in either phase, and nothing is
//! checked per run: [`HybridPartition::new`] checked the partition.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::report::Detection;
use crate::runner::{run_single_cfd, CoordinatorStrategy};
use dcd_cfd::Cfd;
use dcd_dist::HybridPartition;

/// Runs `HYBRIDDETECT` over a hybrid partition — the engine behind the
/// `DetectRequest` façade of the `distributed-cfd` root crate.
pub fn run_hybrid(
    partition: &HybridPartition,
    sigma: &[Cfd],
    strategy: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    for cfd in sigma.iter().flat_map(Cfd::simplify) {
        // ---- Phase 1: vertical gather inside each cell, cells in
        // parallel; after the join the scans are charged in cell order,
        // then one transfer round carries every cell's column
        // shipments, each coordinator waiting for its own senders. The
        // gather precedes the detection round, so it enters response
        // time but not the round's §III-B cost. ----
        let synthesized = ctx.phase(&format!("gather:{}", cfd.name), |p| {
            let (plans, synthesized) = partition.gather(&cfd.shipped_attrs(), cfg.threads);
            // Each shipping sub-site pays its column scan, cell by cell.
            for (ci, plan) in plans.iter().enumerate() {
                let vertical = &partition.cells()[ci].vertical;
                for (vi, _) in &plan.supplies[1..] {
                    let rows = vertical.fragments()[*vi].data.len();
                    p.advance(partition.site_of(ci, *vi), cfg.cost.scan_time(rows));
                }
            }
            let mut wire = p.transfer();
            for (ci, plan) in plans.iter().enumerate() {
                let coord = partition.site_of(ci, plan.coordinator());
                let rows = synthesized.fragment(coord).data.len();
                for (vi, attrs) in &plan.supplies[1..] {
                    let from = partition.site_of(ci, *vi);
                    wire.send(coord, from, rows, attrs.len());
                }
            }
            wire.commit();
            synthesized
        });

        // ---- Phase 2: standard horizontal detection across cells. ----
        run_single_cfd(&synthesized, &cfd, strategy, &mut ctx);
    }
    ctx.finish("HYBRIDDETECT")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_dist::HorizontalPartition;
    use dcd_relation::{vals, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("salary", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        i,
                        ["MTS", "VP", "DMTS"][i % 3],
                        if i % 2 == 0 { 44 } else { 31 },
                        format!("z{}", i % 5),
                        format!("s{}", i % 3),
                        format!("{}k", 70 + (i % 4) * 10)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    fn hybrid(rel: &Relation, n_cells: usize) -> HybridPartition {
        let horizontal = HorizontalPartition::round_robin(rel, n_cells).unwrap();
        HybridPartition::new(&horizontal, &[&["title", "cc", "zip"], &["street", "salary"]])
            .unwrap()
    }

    #[test]
    fn hybrid_detection_equals_centralized() {
        let rel = sample(60);
        let partition = hybrid(&rel, 3);
        let sigma = vec![
            parse_cfd(rel.schema(), "phi1", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "phi2", "([cc, title] -> [salary])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        assert!(!global.all_tids().is_empty());
        let d =
            run_hybrid(&partition, &sigma, CoordinatorStrategy::MinShipment, &RunConfig::default());
        assert_eq!(d.violations.all_tids(), global.all_tids());
        assert!(d.shipped_tuples > 0, "cross-fragment CFDs must ship");
        assert!(d.response_time > 0.0);
    }

    #[test]
    fn single_cell_hybrid_reduces_to_vertical_gather_only() {
        let rel = sample(30);
        let partition = hybrid(&rel, 1);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let d = run_hybrid(
            &partition,
            std::slice::from_ref(&cfd),
            CoordinatorStrategy::MinShipment,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.all_tids(), global.tids());
        // Only the intra-cell column shipment remains; no horizontal
        // shipping with one cell.
        assert_eq!(d.shipped_tuples, rel.len());
    }

    #[test]
    fn cfd_contained_in_one_vgroup_ships_nothing_vertically() {
        let rel = sample(40);
        let partition = hybrid(&rel, 2);
        // title, cc, zip all live in vertical group 0.
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, title] -> [zip])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let d = run_hybrid(
            &partition,
            std::slice::from_ref(&cfd),
            CoordinatorStrategy::MinShipment,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.all_tids(), global.tids());
        // Shipment comes only from the horizontal phase: at most the
        // matching tuples of the smaller cell.
        assert!(d.shipped_tuples <= rel.len() / 2 + 1);
    }

    #[test]
    fn all_strategies_agree() {
        let rel = sample(45);
        let partition = hybrid(&rel, 3);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        for strategy in [
            CoordinatorStrategy::Central,
            CoordinatorStrategy::MinShipment,
            CoordinatorStrategy::MinResponseTime,
        ] {
            let d =
                run_hybrid(&partition, std::slice::from_ref(&cfd), strategy, &RunConfig::default());
            assert_eq!(d.violations.all_tids(), global.tids(), "{strategy:?}");
        }
    }
}

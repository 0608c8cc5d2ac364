//! Detection under hybrid fragmentation (§VIII future work, realized).
//!
//! Two phases per CFD:
//!
//! 1. **Vertical gather within each cell**, by the one §V placement rule
//!    ([`VerticalPartition::gather_plan`](dcd_dist::VerticalPartition::gather_plan)):
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
//! payload crosses the simulated wire in either phase.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::report::Detection;
use crate::runner::{run_single_cfd, CoordinatorStrategy};
use dcd_cfd::Cfd;
use dcd_dist::pool::scoped_map;
use dcd_dist::{Fragment, GatherPlan, HorizontalPartition, HybridPartition, SiteId, TID_CELLS};
use dcd_relation::{AttrId, Dictionary, Relation, RelationError, Value};
use std::sync::Arc;

/// Runs `HYBRIDDETECT` over a hybrid partition — the engine behind the
/// `DetectRequest` façade of the `distributed-cfd` root crate.
pub fn run_hybrid(
    partition: &HybridPartition,
    sigma: &[Cfd],
    strategy: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Result<Detection, RelationError> {
    let n = partition.n_sites();
    let mut ctx = RunCtx::new(n, *cfg);

    // The full-width dictionary set, one per original attribute: every
    // cell's vertical fragments share the parent relation's
    // dictionaries, so cell 0's owner of an attribute names the
    // dictionary all sites code that attribute against. Null is
    // interned up front (before any pool phase) — it is the padding
    // code for attributes outside a gathered projection.
    let schema = partition.schema().clone();
    let cell0 = &partition.cells()[0].vertical;
    let full_dicts: Vec<Arc<Dictionary>> = schema
        .attr_ids()
        .map(|a| {
            let (owner, local) = cell0.owner_of(a);
            cell0.fragments()[owner].data.dictionary(local).clone()
        })
        .collect();
    let null_codes: Vec<u32> = full_dicts.iter().map(|d| d.intern(&Value::Null)).collect();
    // What a site that gathers nothing holds: no rows.
    let stand_in = Relation::with_dictionaries(schema.clone(), full_dicts.clone(), 0)?;
    // The gather rests on cross-cell dictionary sharing: every cell's
    // fragment must code attribute `a` against the same dictionary cell
    // 0 does (guaranteed by the dcd-dist constructors, which project
    // all cells from one parent relation). Debug builds verify it, like
    // `shared_layout` does for horizontal partitions.
    debug_assert!(
        partition.cells().iter().all(|cell| cell.vertical.fragments().iter().all(|f| {
            f.attrs.iter().enumerate().all(|(local, &a)| {
                Arc::ptr_eq(f.data.dictionary(AttrId(local as u16)), &full_dicts[a.index()])
            })
        })),
        "hybrid cells must share one dictionary set per attribute \
         (build the partition through dcd-dist)"
    );

    for cfd in sigma.iter().flat_map(Cfd::simplify) {
        // ---- Phase 1: vertical gather inside each cell, cells in
        // parallel; after the join the scans are charged in cell order,
        // then one transfer round carries every cell's column
        // shipments, each coordinator waiting for its own senders. The
        // gather precedes the detection round, so it enters response
        // time but not the round's §III-B cost. ----
        let needed = cfd.shipped_attrs();
        let mut fragments: Vec<Fragment> = (0..n)
            .map(|i| Fragment { site: SiteId(i as u32), predicate: None, data: stand_in.clone() })
            .collect();
        let gathered = ctx.phase(&format!("gather:{}", cfd.name), |p| {
            let cells = scoped_map(cfg.threads, 0..partition.cells().len(), |ci| {
                gather_cell(partition, ci, &needed, &full_dicts, &null_codes)
            });
            let cells = cells.into_iter().collect::<Result<Vec<_>, _>>()?;
            // Each shipping sub-site pays its column scan, cell by cell.
            for (ci, (plan, _)) in cells.iter().enumerate() {
                let vertical = &partition.cells()[ci].vertical;
                for (vi, _) in &plan.supplies[1..] {
                    let rows = vertical.fragments()[*vi].data.len();
                    p.advance(partition.site_of(ci, *vi), cfg.cost.scan_time(rows));
                }
            }
            let mut wire = p.transfer();
            for (ci, (plan, projection)) in cells.iter().enumerate() {
                let (coord, rows) = (partition.site_of(ci, plan.coordinator()), projection.len());
                for (vi, attrs) in &plan.supplies[1..] {
                    let from = partition.site_of(ci, *vi);
                    wire.send(coord, from, rows, rows * (attrs.len() + TID_CELLS));
                }
            }
            wire.commit();
            Ok::<_, RelationError>(cells)
        })?;
        for (ci, (plan, projection)) in gathered.into_iter().enumerate() {
            let site = partition.site_of(ci, plan.coordinator());
            let cell = &partition.cells()[ci];
            fragments[site.index()] =
                Fragment { site, predicate: cell.predicate.clone(), data: projection };
        }
        let synthesized = HorizontalPartition::from_fragments(schema.clone(), fragments)?;

        // ---- Phase 2: standard horizontal detection across cells. ----
        run_single_cfd(&synthesized, &cfd, strategy, &mut ctx);
    }

    Ok(ctx.finish("HYBRIDDETECT"))
}

/// Gathers one cell's projection onto `needed` at the cell's
/// coordinator, entirely on the code-native wire. Returns the cell's
/// plan — whose scans and shipments the caller charges — with the gathered
/// rows as a *full-width* relation over the shared dictionaries
/// (attributes outside the projection carry the null code), so phase 2
/// can treat it as a horizontal fragment.
fn gather_cell(
    partition: &HybridPartition,
    cell_idx: usize,
    needed: &[AttrId],
    full_dicts: &[Arc<Dictionary>],
    null_codes: &[u32],
) -> Result<(GatherPlan, Relation), RelationError> {
    let vertical = &partition.cells()[cell_idx].vertical;
    let plan = vertical.gather_plan(needed);
    let rows: Vec<usize> = (0..vertical.fragments()[0].data.len()).collect();
    let batch = vertical.gather(&plan, &rows);

    let mut column_of: Vec<Option<&[u32]>> = vec![None; null_codes.len()];
    for (a, col) in plan.attrs().into_iter().zip(&batch.cols) {
        column_of[a.index()] = Some(col);
    }
    let schema = partition.schema().clone();
    let mut out = Relation::with_dictionaries(schema, full_dicts.to_vec(), rows.len())?;
    let mut row = null_codes.to_vec();
    for (r, &tid) in batch.tids.iter().enumerate() {
        for (cell, col) in row.iter_mut().zip(&column_of) {
            if let Some(col) = col {
                *cell = col[r];
            }
        }
        out.push_code_row(tid, &row)?;
    }
    Ok((plan, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Schema, ValueType};
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
            run_hybrid(&partition, &sigma, CoordinatorStrategy::MinShipment, &RunConfig::default())
                .unwrap();
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
        )
        .unwrap();
        assert_eq!(d.violations.all_tids(), global.tids);
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
        )
        .unwrap();
        assert_eq!(d.violations.all_tids(), global.tids);
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
                run_hybrid(&partition, std::slice::from_ref(&cfd), strategy, &RunConfig::default())
                    .unwrap();
            assert_eq!(d.violations.all_tids(), global.tids, "{strategy:?}");
        }
    }
}

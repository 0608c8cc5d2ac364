//! Violation detection in vertically partitioned data.
//!
//! A CFD whose attributes fit one fragment is checked there with zero
//! shipment, through the same filter, gather and validation as any
//! other (its plan has one supplier, so nothing ships). Otherwise data
//! must move (§V; the paper defers detailed algorithms to a later
//! report and points at semijoin-style reductions \[25\] — §VII). We
//! implement the natural coordinator strategy:
//!
//! 1. pick as coordinator the fragment holding the most of the CFD's
//!    attributes (fewest columns move) — the placement rule lives in
//!    [`VerticalPartition::gather_plan`], shared with `HYBRIDDETECT`;
//! 2. every other fragment owning needed attributes keeps the rows that
//!    could match some pattern, judging by the pattern constants on the
//!    LHS attributes it holds (the semijoin-style reduction), and ships
//!    them as row-aligned `(tid, codes)` rows of those attributes — the
//!    same code wire the
//!    horizontal engines and the incremental delta protocol use,
//!    sent through the run's [`Transfer`](dcd_core::ctx::Transfer) at
//!    the shipped attributes' width and priced by
//!    [`ShipmentLedger::ship_rows`](dcd_dist::ShipmentLedger::ship_rows)
//!    (the tuple id rides along; key *columns* never travel, the id
//!    aligns rows);
//! 3. the coordinator keeps the rows every contributing fragment kept
//!    (row `r` is the same tuple in every fragment of a
//!    [`VerticalPartition`]), gathers them column by column into one
//!    [`CodeBatch`](dcd_relation::CodeBatch) and validates it through
//!    [`CodeLayout`]/[`ResolvedCfd`](dcd_cfd::ResolvedCfd) — decoding
//!    only violating group keys.

use dcd_cfd::{Cfd, CodeLayout, KernelTally, ViolationSet};
use dcd_core::{Detection, RunConfig, RunCtx};
use dcd_dist::{VFragment, VerticalPartition};
use dcd_relation::{AttrId, Dictionary, NO_CODE};
use std::sync::Arc;

/// Runs `VERTDETECT` over a vertical partition — the engine behind the
/// `DetectRequest` façade of the `distributed-cfd` root crate, with the
/// full [`Detection`] accounting (bytes, per-site clocks, the §III-B
/// paper cost) every other topology reports. A CFD checked without
/// shipment leaves a `local:<cfd>` span, a gathered one `gather:<cfd>`
/// and `validate:<cfd>`; both validate the same way, one column batch
/// at the coordinator.
pub fn run_vertical(partition: &VerticalPartition, sigma: &[Cfd], cfg: &RunConfig) -> Detection {
    let cost = cfg.cost;
    let fragments = partition.fragments();
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);

    for cfd in sigma {
        ctx.begin_round();
        let needed: Vec<AttrId> = cfd.attrs().iter().collect();
        let plan = partition.gather_plan(&needed);
        let coord = &fragments[plan.coordinator()];
        // Every contributing fragment scans its rows and keeps the ones
        // that could match a pattern; a row survives only if every
        // contributing fragment kept it.
        let keeps: Vec<Vec<bool>> =
            plan.supplies.iter().map(|(f, _)| keep_mask(&fragments[*f], cfd)).collect();
        // Locally checkable: all attributes in one fragment, so nothing
        // ships. §III-B with zero shipment and one active site reduces
        // to the host's check time over its whole fragment.
        let local = plan.supplies.len() == 1;
        if !local {
            // Gather on the code wire: the coordinator's own columns stay
            // put; every other contributing fragment ships the rows it
            // keeps.
            ctx.phase(&format!("gather:{}", cfd.name()), |p| {
                // A send moves no clock until `commit`, so the scans may be
                // charged first.
                for (f, _) in &plan.supplies[1..] {
                    p.compute(fragments[*f].site, cost.scan_time(fragments[*f].data.len()));
                }
                let mut wire = p.transfer();
                for ((f, attrs), keep) in plan.supplies.iter().zip(&keeps).skip(1) {
                    let (frag, shipped) = (&fragments[*f], keep.iter().filter(|&&k| k).count());
                    wire.send(coord.site, frag.site, shipped, attrs.len());
                }
                wire.commit();
            });
        }
        let survivors: Vec<usize> =
            (0..fragments[0].data.len()).filter(|&r| keeps.iter().all(|keep| keep[r])).collect();
        let batch = partition.gather(&plan, &survivors);

        // The coordinator validates the batch.
        let dicts = plan
            .supplies
            .iter()
            .flat_map(|(f, attrs)| attrs.iter().map(|&a| dictionary_of(&fragments[*f], a)))
            .collect();
        let layout = CodeLayout::new(plan.attrs(), dicts);
        let mut vs = ViolationSet::default();
        let mut tally = KernelTally::default();
        for simple in cfd.simplify() {
            let (found, counted) = layout.resolve(&simple).detect_batch(&batch);
            vs.merge(found.into());
            tally += counted;
        }
        let (phase, checked) =
            if local { ("local", coord.data.len()) } else { ("validate", batch.len()) };
        ctx.phase(&format!("{phase}:{}", cfd.name()), |p| {
            p.compute(coord.site, cost.check_time(checked));
            tally.record(p.metrics());
        });
        ctx.absorb(cfd.name(), vs);
        ctx.end_round();
    }

    ctx.finish("VERTDETECT")
}

/// The dictionary `frag` codes original-schema attribute `a` against.
fn dictionary_of(frag: &VFragment, a: AttrId) -> Arc<Dictionary> {
    frag.data.dictionary(frag.local_attr(a).expect("planned from this fragment")).clone()
}

/// Which of `frag`'s rows take part in the gather for `cfd`: those that
/// could match at least one pattern judging by the pattern constants on
/// the LHS attributes the fragment holds (rows that match no pattern
/// cannot take part in a violation).
fn keep_mask(frag: &VFragment, cfd: &Cfd) -> Vec<bool> {
    let visible: Vec<(usize, AttrId)> = cfd
        .lhs()
        .iter()
        .enumerate()
        .filter_map(|(pi, &a)| frag.local_attr(a).map(|local| (pi, local)))
        .collect();
    if visible.is_empty() {
        return vec![true; frag.data.len()];
    }
    // Per pattern, its locally visible constants as (column, code) pairs
    // a row must carry; a constant the dictionary never saw compiles to
    // `NO_CODE`, which no row does.
    let wanted: Vec<Vec<(&[u32], u32)>> = cfd
        .tableau()
        .iter()
        .map(|tp| {
            let consts = visible.iter().filter_map(|&(pi, local)| {
                let code = frag.data.dictionary(local).code_of(tp.lhs[pi].as_const()?);
                Some((frag.data.column(local).codes(), code.unwrap_or(NO_CODE)))
            });
            consts.collect()
        })
        .collect();
    (0..frag.data.len())
        .map(|r| wanted.iter().any(|consts| consts.iter().all(|&(col, code)| col[r] == code)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_dist::{CODE_BYTES, TID_CELLS};

    /// Runs the engine and reads how many CFDs were checked without
    /// shipment off the trace: each leaves one `local:<cfd>` span.
    fn vdetect(p: &VerticalPartition, sigma: &[Cfd]) -> (Detection, usize) {
        let d = run_vertical(p, sigma, &RunConfig::default());
        let locally_checked = d.trace.spans.iter().filter(|s| s.name.starts_with("local:")).count();
        (d, locally_checked)
    }

    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Relation, Schema, ValueType};

    fn emp() -> Relation {
        let schema = Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("CC", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("salary", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap();
        Relation::from_rows(
            schema,
            vec![
                vals![1, "MTS", 44, "z1", "a", "80k"],
                vals![2, "MTS", 44, "z1", "b", "80k"], // street conflict with t1
                vals![3, "VP", 44, "z2", "c", "200k"],
                vals![4, "MTS", 44, "z2", "c", "90k"], // salary conflict with t1/t2
                vals![5, "MTS", 31, "z9", "d", "75k"],
            ],
        )
        .unwrap()
    }

    fn partition(rel: &Relation) -> VerticalPartition {
        VerticalPartition::by_attribute_groups(
            rel,
            &[&["title", "zip", "street"], &["CC"], &["salary"]],
        )
        .unwrap()
    }

    #[test]
    fn cross_fragment_cfd_matches_centralized() {
        let rel = emp();
        let p = partition(&rel);
        let cfd = parse_cfd(rel.schema(), "phi1", "([CC=44, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.is_empty());
        let (out, locally_checked) = vdetect(&p, std::slice::from_ref(&cfd));
        let (_, vs) = &out.violations.per_cfd[0];
        assert_eq!(vs.tids(), global.tids());
        assert!(out.shipped_tuples > 0, "must ship");
        assert_eq!(locally_checked, 0);
    }

    #[test]
    fn local_cfd_ships_nothing() {
        let rel = emp();
        let p = partition(&rel);
        // zip → street lives entirely in fragment 0.
        let cfd = parse_cfd(rel.schema(), "local", "([zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let (out, locally_checked) = vdetect(&p, std::slice::from_ref(&cfd));
        assert_eq!(out.shipped_tuples, 0);
        assert_eq!(locally_checked, 1);
        let (_, vs) = &out.violations.per_cfd[0];
        assert_eq!(vs.tids(), global.tids());
    }

    #[test]
    fn selective_patterns_filter_rows_before_shipping() {
        let rel = emp();
        let p = partition(&rel);
        // CC=31 matches one tuple only; the CC fragment pre-filters.
        let cfd = parse_cfd(rel.schema(), "phi", "([CC=31, zip] -> [street])").unwrap();
        let (out, _) = vdetect(&p, std::slice::from_ref(&cfd));
        assert_eq!(out.violations.all_tids(), dcd_cfd::detect(&rel, &cfd).tids());
        assert_eq!(out.shipped_tuples, 1, "only the CC=31 row travels");
    }

    /// Pins the code-wire accounting of the gather. The key column
    /// stays home (the tuple id aligns rows as [`TID_CELLS`] cells), so
    /// a gather is `rows × (1 + TID_CELLS)` code cells at [`CODE_BYTES`]
    /// each, and the CC≠44 row is dropped before it ever travels.
    #[test]
    fn code_wire_accounting_is_pinned() {
        let rel = emp();
        let p = partition(&rel);
        let cfd = parse_cfd(rel.schema(), "phi1", "([CC=44, zip] -> [street])").unwrap();
        let (out, _) = vdetect(&p, std::slice::from_ref(&cfd));
        assert_eq!(out.shipped_tuples, 4, "CC≠44 row filtered before shipping");
        assert_eq!(out.shipped_cells, 4 * (1 + TID_CELLS));
        assert_eq!(out.shipped_bytes, out.shipped_cells * CODE_BYTES);
    }

    #[test]
    fn three_fragment_gather() {
        let rel = emp();
        let p = partition(&rel);
        // CC, title → salary touches all three fragments.
        let cfd = parse_cfd(rel.schema(), "phi2", "([CC, title] -> [salary])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.is_empty());
        let (out, _) = vdetect(&p, std::slice::from_ref(&cfd));
        let (_, vs) = &out.violations.per_cfd[0];
        assert_eq!(vs.tids(), global.tids());
        assert!(out.response_time > 0.0);
    }

    #[test]
    fn multiple_cfds_mixed_local_and_remote() {
        let rel = emp();
        let p = partition(&rel);
        let sigma = vec![
            parse_cfd(rel.schema(), "local", "([zip] -> [street])").unwrap(),
            parse_cfd(rel.schema(), "remote", "([CC, title] -> [salary])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let (out, locally_checked) = vdetect(&p, &sigma);
        assert_eq!(locally_checked, 1);
        assert_eq!(out.violations.all_tids(), global.all_tids());
    }
}

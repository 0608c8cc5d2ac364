//! Exhaustive minimum-shipment search for tiny instances.
//!
//! Theorem 1 shows that finding a minimum set `M` of tuple shipments
//! after which Σ can be checked locally is NP-complete, so any practical
//! algorithm is heuristic (§III). For *tiny* instances, however, the
//! optimum can be found by brute force; this module provides that search
//! as a yardstick for the heuristics and as an executable companion to
//! the complexity results.
//!
//! "Σ can be checked locally after M" is the §III-A condition:
//! `Vioπ(φ, D) = ⋃_i Vioπ(φ, D'_i)` for every `φ ∈ Σ`, where
//! `D'_i = Di ∪ M(i)`. Since shipped tuples are genuine tuples of `D`,
//! `⊆` always holds; the search tests `⊇`.

use dcd_cfd::{oracle, SimpleCfd, ViolationSet};
use dcd_dist::HorizontalPartition;
use dcd_relation::{Tuple, Value};

/// Hard limits for the exhaustive search: `(destinations)^(relevant
/// tuples)` assignments are enumerated, so both must stay tiny.
const MAX_RELEVANT: usize = 10;
const MAX_ASSIGNMENTS: u64 = 1 << 22;

/// Finds the minimum number of tuple shipments after which every CFD in
/// `sigma` can be checked locally, by exhaustive search.
///
/// Each relevant tuple (one matching some variable pattern) may be
/// shipped to any subset of the other sites; the cost of an assignment
/// is the total number of copies shipped. Returns `None` if the instance
/// exceeds the search limits.
pub fn min_shipment_exhaustive(
    partition: &HorizontalPartition,
    sigma: &[SimpleCfd],
) -> Option<usize> {
    let n = partition.n_sites();
    // Variable parts only; constants never need shipment (Prop. 5).
    let variable: Vec<SimpleCfd> = sigma.iter().filter_map(|c| c.split_constant().0).collect();
    if variable.is_empty() {
        return Some(0);
    }

    // The paper-definition oracle runs on rows: decode each fragment
    // once.
    let fragments: Vec<Vec<Tuple>> =
        partition.fragments().iter().map(|f| f.data.iter().collect()).collect();

    // Ground truth Vioπ per CFD over the whole relation.
    let all_tuples: Vec<&Tuple> = fragments.iter().flatten().collect();
    let global: Vec<Vec<Vec<Value>>> =
        variable.iter().map(|c| oracle::vio(&all_tuples, c).patterns()).collect();

    // Relevant tuples: those matching some variable pattern.
    let mut relevant: Vec<(usize, &Tuple)> = Vec::new(); // (home site, tuple)
    for (i, frag) in fragments.iter().enumerate() {
        for t in frag {
            let matches = variable.iter().any(|c| {
                c.tableau.iter().any(|p| dcd_cfd::pattern::tuple_matches(t, &c.lhs, &p.lhs))
            });
            if matches {
                relevant.push((i, t));
            }
        }
    }
    let k = relevant.len();
    let options = 1u64 << (n - 1); // subsets of the other sites
    if k > MAX_RELEVANT || options.checked_pow(k as u32).is_none_or(|t| t > MAX_ASSIGNMENTS) {
        return None;
    }

    // Enumerate assignments in base `options`; prune by cost within a
    // range. The search space splits into contiguous chunks evaluated
    // on the scoped pool (this is the "analogous loop" of the brute
    // force: chunks are independent, and `min` over chunk optima is the
    // global optimum for any pool width).
    let total = options.pow(k as u32);
    let eval_range = |mut code: u64, end: u64| -> Option<usize> {
        let mut best: Option<usize> = None;
        while code < end {
            let mut c = code;
            let mut cost = 0usize;
            let mut shipments: Vec<(usize, &Tuple)> = Vec::new(); // (dest, tuple)
            for &(home, t) in &relevant {
                let mask = (c % options) as usize;
                c /= options;
                let mut dest_rank = 0;
                for site in 0..n {
                    if site == home {
                        continue;
                    }
                    if mask & (1 << dest_rank) != 0 {
                        shipments.push((site, t));
                        cost += 1;
                    }
                    dest_rank += 1;
                }
            }
            if best.is_some_and(|b| cost >= b) {
                code += 1;
                continue;
            }
            // Build D'_i and test local checkability.
            let mut ok = true;
            'cfds: for (ci, cfd) in variable.iter().enumerate() {
                let mut union = ViolationSet::default();
                for (i, frag) in fragments.iter().enumerate() {
                    let mut local: Vec<&Tuple> = frag.iter().collect();
                    local.extend(shipments.iter().filter(|(d, _)| *d == i).map(|(_, t)| *t));
                    union.merge(oracle::vio(&local, cfd));
                }
                if union.patterns() != global[ci] {
                    ok = false;
                    break 'cfds;
                }
            }
            if ok {
                best = Some(cost);
                if cost == 0 {
                    break;
                }
            }
            code += 1;
        }
        best
    };

    let threads = dcd_dist::pool::default_threads();
    if threads <= 1 || total < 4096 {
        return eval_range(0, total);
    }
    let chunk = total.div_ceil(threads as u64);
    dcd_dist::pool::scoped_map(threads, 0..threads, |i| {
        let start = i as u64 * chunk;
        eval_range(start, (start + chunk).min(total))
    })
    .into_iter()
    .flatten()
    .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_batch, CoordinatorStrategy};
    use dcd_cfd::parse_cfd;
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

    #[test]
    fn zero_when_no_cross_site_conflicts() {
        // Conflicting pairs are co-located: nothing must ship.
        let rel = Relation::from_rows(
            schema(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"], // pair at the same site
                vals![31, "z9", "x"],
            ],
        )
        .unwrap();
        // Round-robin over 2 sites puts rows 0 and 2 on site 0, row 1 on
        // site 1: the conflict IS split. Use a custom assignment instead.
        let schema = rel.schema().clone();
        let mut f0 = Relation::new(schema.clone());
        f0.push_tuple(rel.row(0)).unwrap();
        f0.push_tuple(rel.row(1)).unwrap();
        let mut f1 = Relation::new(schema.clone());
        f1.push_tuple(rel.row(2)).unwrap();
        let partition = HorizontalPartition::from_fragments(
            schema.clone(),
            vec![
                dcd_dist::Fragment { site: dcd_dist::SiteId(0), predicate: None, data: f0 },
                dcd_dist::Fragment { site: dcd_dist::SiteId(1), predicate: None, data: f1 },
            ],
        )
        .unwrap();
        let cfd = parse_cfd(&schema, "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert_eq!(min_shipment_exhaustive(&partition, &[simple]), Some(0));
    }

    #[test]
    fn one_when_a_single_pair_is_split() {
        let rel = Relation::from_rows(schema(), vec![vals![44, "z1", "a"], vals![44, "z1", "b"]])
            .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        // One of the two tuples must move: optimum is exactly 1.
        assert_eq!(min_shipment_exhaustive(&partition, &[simple]), Some(1));
    }

    #[test]
    fn constant_cfds_cost_nothing() {
        let rel = Relation::from_rows(schema(), vec![vals![44, "z1", "a"], vals![44, "z2", "b"]])
            .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "c", "([cc=44, zip] -> [street=a])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert_eq!(min_shipment_exhaustive(&partition, &[simple]), Some(0));
    }

    #[test]
    fn heuristic_is_lower_bounded_by_optimum() {
        let rel = Relation::from_rows(
            schema(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "d"],
                vals![31, "z3", "e"],
            ],
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let opt = min_shipment_exhaustive(&partition, std::slice::from_ref(&simple)).unwrap();
        let heur = run_batch(
            &partition,
            std::slice::from_ref(&simple),
            CoordinatorStrategy::MinShipment,
            &crate::RunConfig::default(),
        );
        assert!(heur.shipped_tuples >= opt, "heuristic {} < optimum {opt}", heur.shipped_tuples);
    }

    #[test]
    fn oversize_instances_return_none() {
        let rel = Relation::from_rows(
            schema(),
            (0..40).map(|i| vals![44, format!("z{}", i % 5), format!("s{i}")]).collect(),
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert_eq!(min_shipment_exhaustive(&partition, &[simple]), None);
    }
}

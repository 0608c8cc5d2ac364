//! Property-based tests for the vertical-partition results (§V):
//! Proposition 7 (dependency preservation ⇔ local checkability),
//! refinement optimality relations, and shipment-based vertical
//! detection equivalence.

mod common;

use common::{arb_rows, build_relation, schema};
use dcd_relation::AttrId;
use dcd_vertical::locally_checkable_at;
use distributed_cfd::prelude::*;
use proptest::prelude::*;

/// Runs one facade request over a vertical partition.
fn run_on(partition: &VerticalPartition, sigma: &[Cfd]) -> Detection {
    DetectRequest::over(partition.clone())
        .cfds(sigma.iter().cloned())
        .plan()
        .map(|plan| plan.run())
        .expect("generated requests are valid")
}

/// Random two-fragment vertical split of {a, b, c, d} (id implicit).
fn arb_split() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 4)
}

fn groups_from_split(rel: &Relation, split: &[bool]) -> Option<VerticalPartition> {
    let names = ["a", "b", "c", "d"];
    let left: Vec<&str> = names.iter().zip(split).filter(|(_, &s)| s).map(|(n, _)| *n).collect();
    let right: Vec<&str> = names.iter().zip(split).filter(|(_, &s)| !s).map(|(n, _)| *n).collect();
    if left.is_empty() || right.is_empty() {
        return None;
    }
    VerticalPartition::by_attribute_groups(rel, &[&left, &right]).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Proposition 7, forward direction, checked empirically: if a
    /// partition is dependency preserving, then the union of fragment-
    /// local violations (computable without shipment) equals the global
    /// violations on every instance. Locally checkable here means the
    /// CFD fits a fragment (its Γ-membership witness).
    #[test]
    fn preservation_implies_local_checkability(
        rows in arb_rows(1..40),
        split in arb_split(),
        lhs_pick in 0usize..3,
    ) {
        let rel = build_relation(&rows);
        let Some(partition) = groups_from_split(&rel, &split) else {
            return Ok(()); // degenerate split
        };
        let s = schema();
        let cfd = match lhs_pick {
            0 => parse_cfd(&s, "f", "([a] -> [b])").unwrap(),
            1 => parse_cfd(&s, "f", "([a, b] -> [c])").unwrap(),
            _ => parse_cfd(&s, "f", "([c] -> [d])").unwrap(),
        };
        let groups = partition.attr_groups();
        if is_preserved(s.arity(), &groups, std::slice::from_ref(&cfd)) {
            // For a singleton Σ, preservation of φ means φ itself fits a
            // fragment (no other CFDs can help imply it)…
            prop_assert!(locally_checkable_at(&cfd, &groups).is_some());
            // …and vertical detection needs no shipment.
            let out = run_on(&partition, std::slice::from_ref(&cfd));
            prop_assert_eq!(out.shipped_tuples, 0);
            let global = detect(&rel, &cfd);
            prop_assert_eq!(&out.violations.all_tids(), &global.tids());
        }
    }

    /// Vertical detection with shipment ≡ centralized detection,
    /// arbitrary splits.
    #[test]
    fn vertical_detection_equals_centralized(
        rows in arb_rows(1..40),
        split in arb_split(),
    ) {
        let rel = build_relation(&rows);
        let Some(partition) = groups_from_split(&rel, &split) else {
            return Ok(());
        };
        let s = schema();
        let sigma = vec![
            parse_cfd(&s, "f1", "([a, b] -> [c])").unwrap(),
            parse_cfd(&s, "f2", "([a=1, c] -> [d])").unwrap(),
        ];
        let global = detect_set(&rel, &sigma);
        let out = run_on(&partition, &sigma);
        prop_assert_eq!(out.violations.all_tids(), global.all_tids());
    }

    /// Filtered shipping never ships more than shipping every row of
    /// every contributing fragment but the coordinator — rows ×
    /// (contributing fragments − 1) — and never changes results.
    #[test]
    fn filtered_mode_dominates(
        rows in arb_rows(1..40),
        split in arb_split(),
        pin in 0..4i64,
    ) {
        let rel = build_relation(&rows);
        let Some(partition) = groups_from_split(&rel, &split) else {
            return Ok(());
        };
        let s = schema();
        let cfd = parse_cfd(&s, "f", &format!("([a={pin}, b] -> [d])")).unwrap();
        let needed: Vec<AttrId> = cfd.attrs().iter().collect();
        let full = rel.len() * (partition.gather_plan(&needed).supplies.len() - 1);
        let filt = run_on(&partition, std::slice::from_ref(&cfd));
        prop_assert!(filt.shipped_tuples <= full, "{} > {}", filt.shipped_tuples, full);
        prop_assert_eq!(filt.violations.all_tids(), detect(&rel, &cfd).tids());
    }

    /// Refinement: greedy is always preserving and never smaller than
    /// the exact optimum.
    #[test]
    fn greedy_refinement_bounds_exact(
        split in arb_split(),
        which in 0usize..3,
    ) {
        let s = schema();
        let sigma = match which {
            0 => vec![parse_cfd(&s, "f", "([a] -> [b])").unwrap()],
            1 => vec![
                parse_cfd(&s, "f1", "([a] -> [b])").unwrap(),
                parse_cfd(&s, "f2", "([b] -> [c])").unwrap(),
            ],
            _ => vec![
                parse_cfd(&s, "f1", "([a, b] -> [c])").unwrap(),
                parse_cfd(&s, "f2", "([c] -> [d])").unwrap(),
            ],
        };
        // Schema-level groups (no data needed).
        let names = ["a", "b", "c", "d"];
        let key = s.require("id").unwrap();
        let mut left = vec![key];
        let mut right = vec![key];
        for (n, &sv) in names.iter().zip(&split) {
            let id = s.require(n).unwrap();
            if sv { left.push(id) } else { right.push(id) }
        }
        let groups = vec![left, right];
        let greedy = refine_greedy(s.arity(), &groups, &sigma);
        prop_assert!(is_preserved(s.arity(), &greedy.apply(&groups), &sigma));
        if let Some(exact) = refine_exact(s.arity(), &groups, &sigma, 4) {
            prop_assert!(exact.size() <= greedy.size(),
                "exact {} > greedy {}", exact.size(), greedy.size());
            prop_assert!(is_preserved(s.arity(), &exact.apply(&groups), &sigma));
        }
    }
}

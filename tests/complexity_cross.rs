//! Cross-crate validation of the complexity artifacts: the Theorem 8
//! reduction instances checked with the *full* chase-based preservation
//! machinery of `dcd-vertical` (the in-crate tests use an FD-specific
//! Beeri–Honeyman check), and the Theorem 1 instances checked against
//! the exhaustive minimum-shipment search of `dcd-core`.

use dcd_complexity::{mhd_reduction, mrp_reduction, HittingSetInstance, SetCoverInstance};
use dcd_vertical::is_preserved;
use distributed_cfd::prelude::*;

#[test]
fn mrp_reduction_agrees_with_chase_based_preservation() {
    let hs = HittingSetInstance::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
    let inst = mrp_reduction(&hs);
    let arity = inst.schema.arity();
    // Unrefined: not preserving.
    assert!(!is_preserved(arity, &inst.groups, &inst.sigma));
    // Any hitting set induces a preserving augmentation.
    for hitting in [vec![1usize, 2], vec![1, 3], vec![0, 2]] {
        assert!(hs.is_hitting(&hitting));
        let refined = inst.augmentation_for(&hitting);
        assert!(is_preserved(arity, &refined, &inst.sigma), "hitting {hitting:?}");
    }
    // A non-hitting singleton that shares no chain with some set fails…
    // here every element appears somewhere, and the pairwise FDs bridge;
    // see the in-crate `mrp_implication_can_beat_hitting_set` for the
    // documented tightness gap. What must always hold: the empty
    // augmentation does not preserve.
    let unrefined = inst.augmentation_for(&[]);
    assert!(!is_preserved(arity, &unrefined, &inst.sigma));
}

#[test]
fn mrp_refinement_algorithms_run_on_reduction_instances() {
    let hs = HittingSetInstance::new(3, vec![vec![0, 1], vec![1, 2]]);
    let inst = mrp_reduction(&hs);
    let arity = inst.schema.arity();
    // Greedy terminates and preserves.
    let greedy = refine_greedy(arity, &inst.groups, &inst.sigma).expect("fragments exist");
    assert!(is_preserved(arity, &greedy.apply(&inst.groups), &inst.sigma));
    // Exact finds something within the hitting-set bound (it may find a
    // smaller implication-based augmentation — the documented gap).
    let k = hs.min_hitting_size().unwrap();
    let exact = refine_exact(arity, &inst.groups, &inst.sigma, k).expect("≤ k exists");
    assert!(exact.size() <= k);
    assert!(is_preserved(arity, &exact.apply(&inst.groups), &inst.sigma));
}

#[test]
fn mhd_reduction_checked_against_detection_machinery() {
    // A tiny MSC instance whose reduction stays within the exhaustive
    // search limits is out of reach (V and U alone hold 6m² tuples), so
    // validate the reduction against full detection instead: shipping
    // the prescribed cover-based set M makes the per-site union of Vioπ
    // equal the global one for all four FDs — using the real detectors.
    let msc =
        SetCoverInstance::new(6, vec![vec![0, 1, 2], vec![3, 4, 5], vec![1, 3, 5], vec![0, 2, 4]]);
    let inst = mhd_reduction(&msc);
    let cover = msc.exact_cover().unwrap();
    let shipment = inst.shipment_for_cover(&cover);
    assert!(inst.checked_locally_after(&shipment));

    // Consistency with the single-site ground truth: reassemble and
    // detect centrally; Vioπ of Bu→B must have 2m patterns.
    let all = inst.partition.reassemble().unwrap();
    let bu_fd = &inst.sigma[3];
    let v = detect(&all, bu_fd);
    assert_eq!(v.pattern_count(), 2 * inst.m);
}

#[test]
fn greedy_cover_drives_a_valid_but_larger_shipment() {
    let msc =
        SetCoverInstance::new(6, vec![vec![0, 1, 2], vec![3, 4, 5], vec![1, 3, 5], vec![0, 2, 4]]);
    let inst = mhd_reduction(&msc);
    let greedy = msc.greedy_cover().unwrap();
    let shipment = inst.shipment_for_cover(&greedy);
    assert!(inst.checked_locally_after(&shipment));
    let exact = msc.exact_cover().unwrap();
    assert!(greedy.len() >= exact.len());
}

#[test]
fn exhaustive_min_shipment_on_a_micro_mhd_like_instance() {
    // The Theorem 1 *shape* at micro scale: two single-tuple "subset"
    // fragments and a "universe" fragment with conflicting B values.
    let schema =
        Schema::builder("r").attr("a", ValueType::Str).attr("b", ValueType::Str).build().unwrap();
    let rel = Relation::from_rows(
        schema.clone(),
        vec![
            vals!["x0", "b"],  // D1
            vals!["x1", "b"],  // D2
            vals!["x0", "bp"], // V
            vals!["x1", "bp"], // V
        ],
    )
    .unwrap();
    let mut frags = Vec::new();
    for (i, idxs) in [vec![0usize], vec![1], vec![2, 3]].iter().enumerate() {
        let mut data = Relation::new(schema.clone());
        for &ti in idxs {
            data.push_tuple(rel.row(ti)).unwrap();
        }
        frags.push(Fragment { site: SiteId(i as u32), predicate: None, data });
    }
    let partition = HorizontalPartition::from_fragments(schema.clone(), frags).unwrap();
    let fd = parse_cfd(&schema, "fd", "([a] -> [b])").unwrap();
    let simple = fd.simplify().pop().unwrap();
    // Both conflicts span sites: at least 2 shipments; exactly 2 suffice
    // (ship each subset tuple to the universe site).
    let opt = dcd_core::min_shipment_exhaustive(&partition, std::slice::from_ref(&simple)).unwrap();
    assert_eq!(opt, 2);
}

//! Which dictionaries a detection indexes.
//!
//! A built relation's dictionaries hold no value → code index, and every
//! engine runs on codes: the one lookup a detection makes is the one
//! that compiles a pattern constant. So a run indexes exactly the
//! attributes some pattern pins to a constant, the hybrid engine's `Null`
//! padding indexes nothing, and a run reads the same whether or not the
//! dictionaries were indexed before it.

use distributed_cfd::datagen::cust::{cust_cfds, cust_main_cfd, CustConfig};
use distributed_cfd::prelude::*;
use std::collections::BTreeSet;

fn config() -> CustConfig {
    CustConfig { n_tuples: 600, ..CustConfig::default() }
}

/// The generated cust relation (its dictionaries indexed, as interning
/// left them) and the same tuples built through `from_tuples` (no index).
fn cust() -> (Relation, Relation) {
    let generated = config().generate();
    let built = Relation::from_tuples(generated.schema().clone(), generated.iter().collect());
    (generated, built.unwrap())
}

fn indexed(rel: &Relation) -> BTreeSet<&str> {
    let schema = rel.schema();
    let attrs = schema.attr_ids().filter(|&a| rel.dictionary(a).is_indexed());
    attrs.map(|a| schema.attr_name(a)).collect()
}

/// The attributes a pattern of `sigma` pins to a constant, LHS or RHS.
fn constant_attrs(sigma: &[Cfd]) -> BTreeSet<&str> {
    let mut out = BTreeSet::new();
    for cfd in sigma {
        for tp in cfd.tableau() {
            let cells = cfd.lhs().iter().zip(&tp.lhs).chain(cfd.rhs().iter().zip(&tp.rhs));
            for (&a, p) in cells {
                if p.as_const().is_some() {
                    out.insert(cfd.schema().attr_name(a));
                }
            }
        }
    }
    out
}

/// A request over `rel`: three horizontal sites under each algorithm,
/// then two vertical fragments, hybrid cells of both, and two replicas.
fn requests(rel: &Relation, sigma: &[Cfd]) -> Vec<DetectRequest> {
    let groups: [&[&str]; 2] = [
        &["name", "CC", "AC", "phn", "street"],
        &["city", "zip", "item_title", "item_price", "item_qty"],
    ];
    let horizontal = HorizontalPartition::round_robin(rel, 3).unwrap();
    let algorithms = [
        Algorithm::CtrDetect,
        Algorithm::PatDetectS,
        Algorithm::PatDetectRT,
        Algorithm::SeqDetect(CoordinatorStrategy::MinShipment),
        Algorithm::ClustDetect(CoordinatorStrategy::Central),
    ];
    let over_horizontal =
        algorithms.map(|a| DetectRequest::over(horizontal.clone()).algorithm(a)).into_iter();
    over_horizontal
        .chain([
            DetectRequest::over(VerticalPartition::by_attribute_groups(rel, &groups).unwrap()),
            DetectRequest::over(HybridPartition::new(&horizontal, &groups).unwrap()),
            DetectRequest::over(ReplicatedPartition::chained(horizontal, 2).unwrap()),
        ])
        .map(|request| request.cfds(sigma.iter().cloned()))
        .collect()
}

/// Over a built relation, each request indexes the constant-bearing
/// attributes and nothing else — the hybrid engine's `Null` padding
/// included — and returns the `Detection` it returns over dictionaries
/// that were indexed all along.
#[test]
fn a_detection_indexes_exactly_the_attributes_with_pattern_constants() {
    let schema = config().generate().schema().clone();
    let main = vec![cust_main_cfd(&schema, &config(), 15).to_cfd()];
    let sigmas = [(main, ["AC", "CC"].as_slice()), (cust_cfds(&schema), &["AC", "CC", "city"])];
    for (sigma, want) in sigmas {
        assert_eq!(constant_attrs(&sigma), want.iter().copied().collect());
        for k in 0..requests(&cust().1, &sigma).len() {
            let (generated, built) = cust();
            assert!(indexed(&built).is_empty(), "the load left an index");
            let on_built =
                requests(&built, &sigma).swap_remove(k).plan().map(|plan| plan.run()).unwrap();
            assert_eq!(indexed(&built), constant_attrs(&sigma), "request {k}");
            let on_generated =
                requests(&generated, &sigma).swap_remove(k).plan().map(|plan| plan.run()).unwrap();
            assert_eq!(on_built, on_generated, "request {k}");
        }
    }
}

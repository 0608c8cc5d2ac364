//! Property tests for the distribution layer's invariants: every way of
//! building a `HorizontalPartition` reassembles to the original relation
//! (tuple multiset round-trip), and the §II-B validation invariants hold
//! by construction.

use dcd_dist::{HorizontalPartition, VerticalPartition};
use dcd_relation::{vals, Relation, Schema, Tuple, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

fn build(rows: &[(i64, u8)]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter().enumerate().map(|(i, &(a, b))| vals![i, a, format!("b{b}")]).collect(),
    )
    .unwrap()
}

fn sorted_tuples(rel: &Relation) -> Vec<Tuple> {
    let mut ts: Vec<_> = rel.iter().collect();
    ts.sort_by_key(|t| t.tid);
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-robin partitions reassemble to the original tuple multiset
    /// for any site count, and validate.
    #[test]
    fn round_robin_round_trips(
        rows in prop::collection::vec((0..5i64, 0..4u8), 0..60),
        n_sites in 1usize..9,
    ) {
        let rel = build(&rows);
        let p = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        p.validate().unwrap();
        prop_assert_eq!(p.n_sites(), n_sites);
        prop_assert_eq!(p.total_tuples(), rel.len());
        let back = p.reassemble().unwrap();
        prop_assert_eq!(sorted_tuples(&back), sorted_tuples(&rel));
    }

    /// Attribute-hash partitions round-trip too, and co-locate equal
    /// values of the fragmentation attribute.
    #[test]
    fn by_attribute_round_trips_and_colocates(
        rows in prop::collection::vec((0..5i64, 0..4u8), 0..50),
        n_sites in 1usize..6,
    ) {
        let rel = build(&rows);
        let p = HorizontalPartition::by_attribute(&rel, "a", n_sites).unwrap();
        p.validate().unwrap();
        let back = p.reassemble().unwrap();
        prop_assert_eq!(sorted_tuples(&back), sorted_tuples(&rel));
        let a = rel.schema().require("a").unwrap();
        let mut home = std::collections::HashMap::new();
        for f in p.fragments() {
            for t in f.data.iter() {
                let prev = home.insert(t.get(a).clone(), f.site);
                if let Some(prev) = prev {
                    prop_assert_eq!(prev, f.site, "value split across sites");
                }
            }
        }
    }

    /// Vertical partitions losslessly reassemble rows *and* tuple ids
    /// for every two-group split.
    #[test]
    fn vertical_split_round_trips(
        rows in prop::collection::vec((0..5i64, 0..4u8), 1..40),
        a_left in any::<bool>(),
        b_left in any::<bool>(),
    ) {
        let rel = build(&rows);
        let mut left: Vec<&str> = Vec::new();
        let mut right: Vec<&str> = Vec::new();
        if a_left { left.push("a") } else { right.push("a") }
        if b_left { left.push("b") } else { right.push("b") }
        if left.is_empty() || right.is_empty() {
            return Ok(()); // one-sided split: nothing to test
        }
        let p = VerticalPartition::by_attribute_groups(&rel, &[&left, &right]).unwrap();
        let back = p.reassemble().unwrap();
        prop_assert!(back.iter().eq(rel.iter()));
    }
}

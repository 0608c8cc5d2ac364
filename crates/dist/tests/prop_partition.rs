//! Property tests for the distribution layer's invariants: every way of
//! building a `HorizontalPartition` reassembles to the original relation
//! (tuple multiset round-trip), and the §II-B validation invariants hold
//! by construction — and fragments that share dictionaries can be mutated
//! from the pool's threads at once.

use dcd_dist::pool::scoped_map;
use dcd_dist::{HorizontalPartition, VerticalPartition};
use dcd_relation::{vals, Relation, RelationDelta, Schema, Tuple, TupleId, ValueType};
use proptest::prelude::*;
use std::num::NonZeroUsize;
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

/// The chunk size a case lays its relation out in: 1 to 64 rows, so a
/// fragment constructor copies runs into seams that fall elsewhere.
fn arb_chunk_rows() -> impl Strategy<Value = NonZeroUsize> {
    (1..65usize).prop_map(|n| NonZeroUsize::new(n).expect("drawn from 1..65"))
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
        chunk in arb_chunk_rows(),
    ) {
        let rel = build(&rows).with_chunk_rows(chunk);
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
        chunk in arb_chunk_rows(),
    ) {
        let rel = build(&rows).with_chunk_rows(chunk);
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
        chunk in arb_chunk_rows(),
    ) {
        let rel = build(&rows).with_chunk_rows(chunk);
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

/// Eight fragments over one set of dictionaries each apply a delta full
/// of values no dictionary has seen, all at once on the pool. A thread
/// holds one dictionary lock at a time, so this terminates; which thread
/// interned a value first decides its code, never what a row decodes to,
/// so the fragments end up holding the rows that applying the same deltas
/// one after another leaves.
#[test]
fn fragments_sharing_dictionaries_apply_deltas_in_parallel() {
    let rows: Vec<(i64, u8)> = (0..400).map(|i| (i % 7, (i % 5) as u8)).collect();
    let rel = build(&rows);
    let n = 8;
    let deltas: Vec<RelationDelta> = (0..n as u64)
        .map(|site| {
            let inserts = (0..150u64)
                .map(|k| {
                    let tid = TupleId(1_000 + site * 1_000 + k);
                    // `a` collides across sites, `id` and `b` are new everywhere.
                    Tuple::new(
                        tid,
                        vals![tid.0 as i64, (100 + k % 40) as i64, format!("new-{site}-{k}")],
                    )
                })
                .collect();
            // Round-robin: site `s` holds ids `s, s + 8, …`.
            RelationDelta::new(inserts, (0..20).map(|k| TupleId(site + 8 * k)).collect())
        })
        .collect();

    let mut serial = HorizontalPartition::round_robin(&rel, n).unwrap();
    for (frag, delta) in serial.fragments_mut().iter_mut().zip(&deltas) {
        frag.data.apply_delta(delta).unwrap();
    }
    let mut parallel = HorizontalPartition::round_robin(&build(&rows), n).unwrap();
    let sites = parallel.fragments_mut().iter_mut().zip(&deltas);
    let effects = scoped_map(n, sites, |(f, delta)| f.data.apply_delta(delta).unwrap());
    for ((a, b), effect) in serial.fragments().iter().zip(parallel.fragments()).zip(&effects) {
        assert!(a.data.iter().eq(b.data.iter()), "fragment at {}", a.site);
        assert_eq!((effect.inserted.len(), effect.deleted.len()), (150, 20));
        // The effect's code rows are the inserted rows' stored codes.
        let first_new = b.data.len() - 150;
        for (k, (tid, codes)) in effect.inserted.iter().enumerate() {
            assert_eq!(b.data.tids()[first_new + k], *tid);
            for (col, &code) in b.data.columns().iter().zip(codes.iter()) {
                assert_eq!(col.codes().at(first_new + k), code);
            }
        }
    }
}

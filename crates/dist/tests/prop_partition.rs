//! Property tests for the distribution layer's invariants: every way of
//! building a `HorizontalPartition` reassembles to the original relation
//! (tuple multiset round-trip), and the §II-B validation invariants hold
//! by construction — a delta batch applies to fragments that share
//! dictionaries from the pool's threads at once, and every constructor reserves
//! exactly the rows it stores. A vertical partition keeps its fragments'
//! rows in line through every delta it accepts, and a delta it rejects
//! changes no fragment.

use dcd_dist::{Fragment, HorizontalPartition, HybridPartition, SiteId, VerticalPartition};
use dcd_relation::{
    ops, vals, Atom, Predicate, Relation, RelationDelta, Schema, Tuple, TupleId, Value, ValueType,
};
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

/// `(id, a, b, c)` with `a` an integer and `b`, `c` strings.
fn wide_schema() -> Arc<Schema> {
    Schema::builder("w")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Str)
        .attr("c", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

fn wide_tuple(tid: u64, (a, b, c): (i64, u8, u8)) -> Tuple {
    Tuple::new(TupleId(tid), vals![tid as i64, a, format!("b{b}"), format!("c{c}")])
}

/// Each split with the one attribute that fragment 0 lacks and only one
/// fragment holds: a value of the wrong type there is ill-typed in that
/// fragment's projection alone.
const SPLITS: [(&[&[&str]], usize); 3] = [
    (&[&["a", "b"], &["c"]], 3),
    (&[&["a"], &["b", "c"], &["a", "b"]], 3),
    (&[&["c"], &["a"], &["b", "c"]], 1),
];

/// Every fragment's tuple ids and code columns.
fn fragment_state(p: &VerticalPartition) -> Vec<(Vec<TupleId>, Vec<Vec<u32>>)> {
    let codes = |rel: &Relation| rel.columns().iter().map(|c| c.codes().to_vec()).collect();
    p.fragments().iter().map(|f| (f.data.tids().to_vec(), codes(&f.data))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random whole-tuple delta streams through
    /// `VerticalPartition::apply_delta`, step by step beside
    /// `Relation::apply_delta` on the unfragmented relation (which shares
    /// the partition's dictionaries, so codes compare directly). Steps of
    /// kind 0–5 are made to fail: an unknown delete id, an insert id
    /// repeated within the delta or already live, an insert ill-typed in
    /// one fragment's attributes only, or one too short or too long. An
    /// accepted delta leaves every fragment on fragment 0's tuple ids,
    /// reassembles to the unfragmented relation and returns its code rows;
    /// a rejected one changes no fragment.
    #[test]
    fn vertical_deltas_keep_the_fragments_in_line(
        rows in prop::collection::vec((0..4i64, 0..3u8, 0..3u8), 0..30),
        split in 0..3usize,
        wide in any::<bool>(),
        steps in prop::collection::vec(
            (
                0..10u8,
                prop::collection::vec((0..4i64, 0..5u8, 0..5u8), 0..4),
                prop::collection::vec(0..64usize, 0..4),
            ),
            1..12,
        ),
    ) {
        let (groups, bad) = SPLITS[split];
        let threads = if wide { 4 } else { 1 };
        let values =
            rows.iter().enumerate().map(|(i, &r)| wide_tuple(i as u64, r).values().to_vec());
        let mut whole = Relation::from_rows(wide_schema(), values.collect()).unwrap();
        let mut p = VerticalPartition::by_attribute_groups(&whole, groups).unwrap();
        let mut next = rows.len() as u64;
        for (kind, inserts, picks) in steps {
            let live = whole.tids().to_vec();
            let mut deletes: Vec<TupleId> = Vec::new();
            for pick in picks.into_iter().filter(|_| !live.is_empty()) {
                let tid = live[pick % live.len()];
                if !deletes.contains(&tid) {
                    deletes.push(tid);
                }
            }
            let mut inserts: Vec<Tuple> = inserts
                .into_iter()
                .map(|r| {
                    next += 1;
                    wide_tuple(next, r)
                })
                .collect();
            let fresh = wide_tuple(next + 1, (0, 0, 0));
            let rejected = match kind {
                0 => {
                    deletes.push(TupleId(1_000_000));
                    true
                }
                1 => {
                    inserts.extend([fresh.clone(), fresh]);
                    true
                }
                2 => match live.iter().find(|tid| !deletes.contains(tid)) {
                    Some(&tid) => {
                        inserts.push(wide_tuple(tid.0, (0, 0, 0)));
                        true
                    }
                    None => false,
                },
                3 => {
                    let mut values = fresh.values().to_vec();
                    values[bad] = match values[bad] {
                        Value::Int(_) => Value::str("x"),
                        _ => Value::Int(7),
                    };
                    inserts.push(Tuple::new(fresh.tid, values));
                    true
                }
                4 => {
                    inserts.push(Tuple::new(fresh.tid, fresh.values()[..3].to_vec()));
                    true
                }
                5 => {
                    let values = fresh.values().iter().cloned().chain([Value::Int(0)]);
                    inserts.push(Tuple::new(fresh.tid, values.collect()));
                    true
                }
                _ => false,
            };
            let delta = RelationDelta::new(inserts, deletes);

            let before = fragment_state(&p);
            let got = p.apply_delta(&delta, threads);
            let want = whole.apply_delta(&delta);
            prop_assert_eq!(got.is_err(), rejected, "kind {}: {:?}", kind, got);
            prop_assert_eq!(want.is_err(), rejected, "kind {}: {:?}", kind, want);
            let Ok(effect) = got else {
                prop_assert_eq!(fragment_state(&p), before, "kind {}: a fragment moved", kind);
                continue;
            };
            let tids = p.fragments()[0].data.tids();
            for frag in p.fragments() {
                prop_assert_eq!(frag.data.tids(), tids, "{} out of line", frag.site);
            }
            prop_assert!(p.reassemble().unwrap().iter().eq(whole.iter()));
            // Deleted rows are gone from `whole`; its effect holds their codes.
            let ids: Vec<TupleId> = effect.inserted.iter().map(|&(tid, _)| tid).collect();
            let at: Vec<usize> = whole.positions_of(&ids).into_iter().map(Option::unwrap).collect();
            let attrs: Vec<_> = whole.schema().attr_ids().collect();
            prop_assert_eq!(&effect.inserted, &whole.code_rows(&attrs, &at));
            prop_assert_eq!(effect, want.unwrap());
        }
    }
}

/// Eight fragments over one set of dictionaries each apply a delta full
/// of values no dictionary has seen, all at once on the pool
/// (`HorizontalPartition::apply_delta` at width 8). A thread holds one
/// dictionary lock at a time, so this terminates; which thread interned a
/// value first decides its code, never what a row decodes to, so the
/// fragments end up holding the rows that width 1 — the deltas one after
/// another — leaves.
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
    serial.apply_delta(&deltas, 1).unwrap();
    let mut parallel = HorizontalPartition::round_robin(&build(&rows), n).unwrap();
    let effects = parallel.apply_delta(&deltas, n).unwrap();
    assert_eq!(effects.len(), n);
    parallel.validate().unwrap();
    for ((a, b), effect) in serial.fragments().iter().zip(parallel.fragments()).zip(&effects) {
        assert!(a.data.iter().eq(b.data.iter()), "fragment at {}", a.site);
        assert_eq!((effect.inserted.len(), effect.deleted.len()), (150, 20));
        // The effect's code rows are the inserted rows' stored codes.
        let first_new = b.data.len() - 150;
        for (k, (tid, codes)) in effect.inserted.iter().enumerate() {
            assert_eq!(b.data.tids()[first_new + k], *tid);
            for (col, &code) in b.data.columns().iter().zip(codes.iter()) {
                assert_eq!(col.codes().get(first_new + k), code);
            }
        }
    }
}

/// A built relation carries no spare room: the tid column and every code
/// column of each relation a constructor returns hold room for exactly
/// their rows — from scratch, as a copy or projection, as a fragment of
/// every kind, and as a reassembly. (A clone's room is its length whatever
/// its source's was, so every relation is read where it was built.)
#[test]
fn every_constructor_reserves_exactly_what_it_stores() {
    let rows: Vec<(i64, u8)> = (0..23).map(|i| (i % 5, (i % 4) as u8)).collect();
    let src = build(&rows);
    let a = src.schema().require("a").unwrap();
    let predicates = (0..5).map(|v| Predicate::atom(Atom::eq(a, v))).collect();
    let horizontals = [
        ("round_robin", HorizontalPartition::round_robin(&src, 3).unwrap()),
        ("by_attribute", HorizontalPartition::by_attribute(&src, "a", 3).unwrap()),
        ("by_predicates", HorizontalPartition::by_predicates(&src, predicates).unwrap()),
    ];
    // A fragment over dictionaries of its own is re-encoded onto the
    // first fragment's.
    let mut own = Relation::new(schema());
    own.push_tuple(Tuple::new(TupleId(100), vals![100, 1, "b9"])).unwrap();
    let first = horizontals[0].1.fragments()[0].clone();
    let own = Fragment { site: SiteId(1), predicate: None, data: own };
    let assembled = HorizontalPartition::from_fragments(schema(), vec![first, own]).unwrap();
    let vertical = VerticalPartition::by_attribute_groups(&src, &[&["a"], &["b"]]).unwrap();
    let hybrid = HybridPartition::new(&horizontals[0].1, &[&["a"], &["b"]]).unwrap();
    let copy = src.copy_rows(&[4, 1, 9, 9]);
    let projection = ops::project(&src, "r_a", &[a]).unwrap();
    let reassembled = [
        horizontals[0].1.reassemble().unwrap(),
        vertical.reassemble().unwrap(),
        hybrid.reassemble().unwrap(),
    ];

    let mut built: Vec<(&str, &Relation)> =
        vec![("from_rows", &src), ("copy_rows", &copy), ("project", &projection)];
    for (name, h) in &horizontals {
        built.extend(h.fragments().iter().map(|f| (*name, &f.data)));
    }
    built.push(("from_fragments", &assembled.fragments()[1].data));
    built.extend(vertical.fragments().iter().map(|f| ("by_attribute_groups", &f.data)));
    for cell in hybrid.cells() {
        built.extend(cell.vertical.fragments().iter().map(|f| ("hybrid", &f.data)));
    }
    built.extend(reassembled.iter().map(|r| ("reassemble", r)));
    for (name, rel) in built {
        assert_eq!(rel.capacity(), rel.len(), "{name}: tid column");
        for (j, col) in rel.columns().iter().enumerate() {
            assert_eq!(col.capacity(), col.len(), "{name}: column {j}");
        }
    }
}

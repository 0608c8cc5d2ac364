//! Property-based tests for the relational substrate: predicate
//! evaluation vs. satisfiability soundness, the storage layer against a
//! plain row model, and a scan over a row selection against the row wire.

use dcd_relation::ops::CodeMemo;
use dcd_relation::{
    vals, Atom, AttrId, CmpOp, Column, Conjunction, Dictionary, Predicate, Relation, RelationDelta,
    RelationError, Schema, Tuple, TupleId, Value, ValueType,
};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .key(&[])
        .build()
        .unwrap()
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, u8)>> {
    prop::collection::vec((-3..4i64, -3..4i64, 0..4u8), 0..40)
}

fn build(rows: &[(i64, i64, u8)]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter().map(|&(a, b, c)| vals![a, b, format!("s{c}")]).collect(),
    )
    .unwrap()
}

#[derive(Debug, Clone)]
enum AtomSpec {
    IntCmp(u8, CmpOp, i64), // attr 0/1
    StrEq(u8, bool),        // value index, negated?
}

fn arb_atom() -> impl Strategy<Value = AtomSpec> {
    prop_oneof![
        (0..2u8, arb_op(), -3..4i64).prop_map(|(a, op, v)| AtomSpec::IntCmp(a, op, v)),
        (0..4u8, any::<bool>()).prop_map(|(v, neg)| AtomSpec::StrEq(v, neg)),
    ]
}

fn arb_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn build_conj(specs: &[AtomSpec]) -> Conjunction {
    let mut c = Conjunction::always();
    for spec in specs {
        let atom = match spec {
            AtomSpec::IntCmp(a, op, v) => Atom::new(dcd_relation::AttrId(*a as u16), *op, *v),
            AtomSpec::StrEq(v, neg) => Atom::new(
                dcd_relation::AttrId(2),
                if *neg { CmpOp::Ne } else { CmpOp::Eq },
                format!("s{v}"),
            ),
        };
        c = c.and(atom);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Satisfiability soundness: when the solver says "unsatisfiable",
    /// genuinely no tuple over the sampled domain satisfies the formula.
    /// (The converse is allowed to fail — the solver is conservative.)
    #[test]
    fn unsat_means_no_satisfying_tuple(
        specs in prop::collection::vec(arb_atom(), 0..6),
        rows in arb_rows(),
    ) {
        let c = build_conj(&specs);
        if !c.is_satisfiable() {
            let rel = build(&rows);
            for t in rel.iter() {
                prop_assert!(!c.eval(&t), "unsat formula satisfied by {t}");
            }
        }
    }

    /// Conjunction evaluation is the conjunction of atom evaluations.
    #[test]
    fn conjunction_is_pointwise_and(
        specs in prop::collection::vec(arb_atom(), 0..5),
        row in (-3..4i64, -3..4i64, 0..4u8),
    ) {
        let c = build_conj(&specs);
        let t = Tuple::new(TupleId(0), vals![row.0, row.1, format!("s{}", row.2)]);
        let expect = c.atoms().iter().all(|a| a.eval(&t));
        prop_assert_eq!(c.eval(&t), expect);
    }

    /// DNF laws: `eval(p ∨ q) = eval(p) ∨ eval(q)` and
    /// `eval(p ∧ q) = eval(p) ∧ eval(q)`.
    #[test]
    fn dnf_combinators_are_boolean(
        sp in prop::collection::vec(arb_atom(), 0..3),
        sq in prop::collection::vec(arb_atom(), 0..3),
        row in (-3..4i64, -3..4i64, 0..4u8),
    ) {
        let p = Predicate::from_conjunction(build_conj(&sp));
        let q = Predicate::from_conjunction(build_conj(&sq));
        let t = Tuple::new(TupleId(0), vals![row.0, row.1, format!("s{}", row.2)]);
        prop_assert_eq!(p.clone().or(q.clone()).eval(&t), p.eval(&t) || q.eval(&t));
        prop_assert_eq!(p.and(&q).eval(&t), p.eval(&t) && q.eval(&t));
    }

    /// The bulk ingest path (`extend_rows`: validate all, then block by
    /// block, column by column) is observationally identical to
    /// cell-by-cell `push`: same tuples, same codes, same dictionary
    /// contents. These cases stay inside one block
    /// and one slot table;
    /// `bulk_ingest_matches_push_across_blocks_and_growths` crosses both.
    #[test]
    fn bulk_extend_rows_matches_push(rows in arb_rows()) {
        let mut pushed = Relation::new(schema());
        let mut bulk = Relation::new(schema());
        let values = rows.iter().map(|&(a, b, c)| vals![a, b, format!("s{c}")]);
        for row in values.clone() {
            pushed.push(row).unwrap();
        }
        bulk.extend_rows(values.collect()).unwrap();
        prop_assert!(bulk.iter().eq(pushed.iter()));
        for (ca, cb) in bulk.columns().iter().zip(pushed.columns()) {
            prop_assert_eq!(ca.codes(), cb.codes());
            prop_assert_eq!(ca.dict().snapshot(), cb.dict().snapshot());
        }
    }

    /// Columnar encode → decode is the identity: every cell's code
    /// decodes back to the value that was ingested, per-column code
    /// equality coincides with value equality, and a relation rebuilt
    /// from the decoded cells is cell-for-cell identical. (Both the
    /// original and the rebuilt relation ingest through the bulk
    /// `extend_rows` path, so this round-trip also pins its encoding.)
    #[test]
    fn columnar_round_trip_is_identity(rows in arb_rows()) {
        let rel = build(&rows);
        let ingested: Vec<Vec<Value>> =
            rows.iter().map(|&(a, b, c)| vals![a, b, format!("s{c}")]).collect();
        for (ai, col) in rel.columns().iter().enumerate() {
            prop_assert_eq!(col.len(), rel.len());
            let attr = dcd_relation::AttrId(ai as u16);
            for (i, t) in rel.iter().enumerate() {
                prop_assert_eq!(&col.decode(i), t.get(attr));
                prop_assert_eq!(t.get(attr), &ingested[i][ai]);
            }
            // Bijection: equal codes ⟺ equal values.
            for i in 0..rel.len() {
                for j in (i + 1)..rel.len() {
                    prop_assert_eq!(
                        col.codes().get(i) == col.codes().get(j),
                        ingested[i][ai] == ingested[j][ai],
                        "code/value equality must coincide"
                    );
                }
            }
        }
        // Rebuild from decoded cells → identical relation.
        let decoded: Vec<Vec<Value>> = (0..rel.len())
            .map(|i| rel.columns().iter().map(|c| c.decode(i)).collect())
            .collect();
        let rebuilt = Relation::from_rows(schema(), decoded).unwrap();
        prop_assert_eq!(rebuilt.len(), rel.len());
        for (a, b) in rel.iter().zip(rebuilt.iter()) {
            prop_assert_eq!(a.values(), b.values());
        }
        for (ca, cb) in rel.columns().iter().zip(rebuilt.columns()) {
            prop_assert_eq!(ca.codes(), cb.codes(), "insertion order fixes the codes");
        }
    }

    /// [`CodeMemo::resolve`] over row selections reads, where they lie,
    /// the cells [`Relation::code_rows`] ships — for a σ-block (ascending
    /// rows, thinned by a stride) and then rows in any order and
    /// repeated, over any attribute list, on one memo of either table:
    /// every row in the order read, each key numbered at its first row.
    #[test]
    fn a_memo_over_selections_reads_what_code_rows_ships(
        rows in prop::collection::vec(arb_row(), 1..60),
        start in 0..60usize,
        len in 0..60usize,
        stride in 1..4usize,
        attr_picks in prop::collection::vec(0..3u16, 0..4),
        picks in prop::collection::vec(0..60usize, 0..30),
    ) {
        let rel = build(&rows);
        let attrs: Vec<AttrId> = attr_picks.into_iter().map(AttrId).collect();
        let block: Vec<usize> =
            (start..start + len).step_by(stride).filter(|&i| i < rows.len()).collect();
        let unordered: Vec<usize> = picks.into_iter().filter(|&i| i < rows.len()).collect();

        let mut want = rel.code_rows(&attrs, &block);
        want.extend(rel.code_rows(&attrs, &unordered));
        let read: Vec<usize> = block.iter().chain(&unordered).copied().collect();
        let mut first: Vec<usize> = Vec::new();
        let numbered: Vec<(usize, usize)> = read
            .iter()
            .zip(&want)
            .enumerate()
            .map(|(i, (&r, (_, cells)))| match first.iter().position(|&f| want[f].1 == *cells) {
                Some(v) => (r, v),
                None => {
                    first.push(i);
                    (r, first.len() - 1)
                }
            })
            .collect();
        let cols = rel.code_views(&attrs);
        let sizes: Vec<usize> = attrs.iter().map(|&a| rel.dictionary(a).len()).collect();
        for memo_rows in [read.len(), 0] {
            let mut memo = CodeMemo::new(sizes.iter().copied(), memo_rows);
            let (mut seen, mut made) = (Vec::new(), Vec::new());
            for sel in [&block[..], &unordered[..]] {
                let make = |r| {
                    made.push(r);
                    made.len() - 1
                };
                memo.resolve(&cols, sel, make, |r, v| seen.push((r, v)));
            }
            prop_assert_eq!(&seen, &numbered, "over {} rows", memo_rows);
            prop_assert_eq!(made.len(), first.len());
        }
    }
}

type Row = (i64, i64, u8);

fn row_values((a, b, c): Row) -> Vec<Value> {
    vals![a, b, format!("s{c}")]
}

/// One step of the storage-model property. Row picks are reduced modulo
/// the current length when the step runs.
#[derive(Debug, Clone)]
enum StorageOp {
    /// Replace the relation by `from_rows` over fresh dictionaries.
    FromRows(Vec<Row>),
    Push(Row),
    /// A row of the wrong arity: rejected.
    PushShort,
    /// `push_tuple` with id `next + gap`.
    PushTuple(u64, Row),
    /// `push_tuple` with the one id the counter cannot pass: rejected.
    PushTupleMaxId(Row),
    /// Replace the relation by `from_columns` over its own columns,
    /// each copied whole; with `foreign`, column `b` comes from a relation
    /// over other dictionaries, and the gather is rejected.
    Gather {
        foreign: bool,
    },
    /// `apply_delta`: an insert either takes a fresh id or re-uses the id
    /// of one of this delta's deletes. `poison` 0 is a valid delta, 1–6
    /// each add one reason to reject it.
    Delta {
        inserts: Vec<(Option<usize>, Row)>,
        deletes: Vec<usize>,
        poison: u8,
    },
    /// Replace the relation by `copy_rows` of the picked rows.
    CopyRows(Vec<usize>),
}

fn arb_row() -> impl Strategy<Value = Row> {
    (-3..4i64, -3..4i64, 0..4u8)
}

fn arb_storage_op() -> impl Strategy<Value = StorageOp> {
    let picks = || prop::collection::vec(0..64usize, 0..12);
    prop_oneof![
        prop::collection::vec(arb_row(), 0..20).prop_map(StorageOp::FromRows),
        arb_row().prop_map(StorageOp::Push),
        Just(StorageOp::PushShort),
        (0..3u64, arb_row()).prop_map(|(gap, row)| StorageOp::PushTuple(gap, row)),
        arb_row().prop_map(StorageOp::PushTupleMaxId),
        any::<bool>().prop_map(|foreign| StorageOp::Gather { foreign }),
        (prop::collection::vec((prop::option::of(0..12usize), arb_row()), 0..8), picks(), 0..7u8)
            .prop_map(|(inserts, deletes, poison)| StorageOp::Delta { inserts, deletes, poison }),
        (prop::collection::vec((prop::option::of(0..12usize), arb_row()), 0..8), picks())
            .prop_map(|(inserts, deletes)| StorageOp::Delta { inserts, deletes, poison: 0 }),
        picks().prop_map(StorageOp::CopyRows),
    ]
}

/// The plain row model the store is checked against.
#[derive(Debug, Default)]
struct Model {
    rows: Vec<(TupleId, Vec<Value>)>,
    next: u64,
}

impl Model {
    fn insert(&mut self, tid: TupleId, values: Vec<Value>) {
        self.next = self.next.max(tid.0 + 1);
        self.rows.push((tid, values));
    }

    /// The distinct in-range picks, first occurrence first.
    fn pick(&self, picks: &[usize]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        if !self.rows.is_empty() {
            for p in picks {
                let i = p % self.rows.len();
                if !out.contains(&i) {
                    out.push(i);
                }
            }
        }
        out
    }
}

/// Every stored bit of a relation: ids and codes. Two equal images
/// decode to equal rows.
fn image(rel: &Relation) -> (Vec<TupleId>, Vec<Vec<u32>>) {
    (rel.tids().to_vec(), rel.columns().iter().map(|c| c.codes().to_vec()).collect())
}

fn check_against(rel: &Relation, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.tids().len(), model.rows.len());
    for col in rel.columns() {
        prop_assert_eq!(col.len(), rel.tids().len());
    }
    prop_assert_eq!(rel.iter().len(), model.rows.len());
    let decoded: Vec<(TupleId, Vec<Value>)> =
        rel.iter().map(|t| (t.tid, t.values().to_vec())).collect();
    prop_assert_eq!(&decoded, &model.rows);
    if let Some(last) = model.rows.len().checked_sub(1) {
        let row = rel.row(last);
        prop_assert_eq!((row.tid, row.values()), (model.rows[last].0, &model.rows[last].1[..]));
    }
    Ok(())
}

/// The delta of a [`StorageOp::Delta`] against `model`, and the model
/// positions it deletes.
fn build_delta(
    model: &Model,
    inserts: &[(Option<usize>, Row)],
    deletes: &[usize],
    poison: u8,
) -> (RelationDelta, Vec<usize>) {
    let doomed = model.pick(deletes);
    let mut delta =
        RelationDelta::new(Vec::new(), doomed.iter().map(|&i| model.rows[i].0).collect());
    let mut fresh = model.next;
    for (reuse, row) in inserts {
        let reused = reuse
            .and_then(|k| delta.deletes.get(k % delta.deletes.len().max(1)).copied())
            .filter(|tid| delta.inserts.iter().all(|t| t.tid != *tid));
        let tid = reused.unwrap_or_else(|| {
            fresh += 1;
            TupleId(fresh - 1)
        });
        delta.inserts.push(Tuple::new(tid, row_values(*row)));
    }
    let survivor = (0..model.rows.len()).find(|i| !doomed.contains(i));
    match (poison, survivor) {
        (0, _) => {}
        // A delete id named twice.
        (2, _) if !delta.deletes.is_empty() => delta.deletes.push(delta.deletes[0]),
        // An insert whose id is live and not deleted.
        (3, Some(i)) => {
            delta.inserts.push(Tuple::new(model.rows[i].0, row_values((0, 0, 0))));
        }
        // One insert id twice.
        (4, _) if !delta.inserts.is_empty() => {
            let again = delta.inserts[0].clone();
            delta.inserts.push(again);
        }
        // An ill-typed insert after valid ones.
        (5, _) => delta.inserts.push(Tuple::new(TupleId(fresh), vals!["x", 0, "s0"])),
        // An insert with the id the counter cannot pass.
        (6, _) => delta.inserts.push(Tuple::new(TupleId(u64::MAX), row_values((0, 0, 0)))),
        // A delete id that is not there.
        _ => delta.deletes.push(TupleId(fresh + 1000)),
    }
    (delta, doomed)
}

/// Runs `op` against both the relation and the model; a step the store
/// must reject is checked to leave every stored bit as it was.
fn step(rel: &mut Relation, model: &mut Model, op: &StorageOp) -> Result<(), TestCaseError> {
    let before = image(rel);
    let mut rejected = false;
    match op {
        StorageOp::FromRows(rows) => {
            *rel = Relation::from_rows(schema(), rows.iter().map(|&r| row_values(r)).collect())
                .unwrap();
            *model = Model::default();
            for (i, &r) in rows.iter().enumerate() {
                model.insert(TupleId(i as u64), row_values(r));
            }
        }
        StorageOp::Push(row) => {
            let tid = rel.push(row_values(*row)).unwrap();
            prop_assert_eq!(tid, TupleId(model.next), "push assigns the next id");
            model.insert(tid, row_values(*row));
        }
        StorageOp::PushShort => {
            let err = rel.push(vals![1, 2]).unwrap_err();
            prop_assert!(matches!(err, RelationError::ArityMismatch { .. }));
            rejected = true;
        }
        StorageOp::PushTuple(gap, row) => {
            let tid = TupleId(model.next + gap);
            rel.push_tuple(Tuple::new(tid, row_values(*row))).unwrap();
            model.insert(tid, row_values(*row));
        }
        StorageOp::PushTupleMaxId(row) => {
            let err = rel.push_tuple(Tuple::new(TupleId(u64::MAX), row_values(*row))).unwrap_err();
            prop_assert_eq!(err, RelationError::TupleIdOutOfRange { tid: u64::MAX });
            rejected = true;
        }
        StorageOp::Gather { foreign } => {
            let values = model.rows.iter().map(|(_, values)| values.clone()).collect();
            let other = Relation::from_rows(schema(), values).unwrap();
            let mut columns: Vec<Option<&Column>> = rel.columns().iter().map(Some).collect();
            if *foreign {
                columns[1] = Some(other.column(AttrId(1)));
            }
            let attrs: Vec<AttrId> = rel.schema().attr_ids().collect();
            let dicts = rel.dictionaries_of(&attrs);
            let gathered = Relation::from_columns(schema(), dicts, rel.tids(), &columns);
            if *foreign {
                prop_assert!(matches!(gathered, Err(RelationError::SchemaMismatch { .. })));
                rejected = true;
            } else {
                let gathered = gathered.unwrap();
                prop_assert_eq!(image(&gathered), image(rel));
                *rel = gathered;
                // The id counter restarts past the largest id held.
                for (tid, values) in std::mem::take(model).rows {
                    model.insert(tid, values);
                }
            }
        }
        StorageOp::Delta { inserts, deletes, poison } => {
            let (delta, doomed) = build_delta(model, inserts, deletes, *poison);
            if *poison == 0 {
                let effect = rel.apply_delta(&delta).unwrap();
                prop_assert_eq!(effect.deleted.len(), delta.deletes.len());
                prop_assert_eq!(effect.inserted.len(), delta.inserts.len());
                let mut i = 0;
                model.rows.retain(|_| {
                    i += 1;
                    !doomed.contains(&(i - 1))
                });
                for t in delta.inserts {
                    model.insert(t.tid, t.values().to_vec());
                }
            } else {
                prop_assert!(rel.apply_delta(&delta).is_err(), "poison {} accepted", poison);
                rejected = true;
            }
        }
        StorageOp::CopyRows(picks) => {
            let rows = model.pick(picks);
            *rel = rel.copy_rows(&rows);
            let kept: Vec<(TupleId, Vec<Value>)> =
                rows.iter().map(|&i| model.rows[i].clone()).collect();
            *model = Model::default();
            for (tid, values) in kept {
                model.insert(tid, values);
            }
        }
    }
    if rejected {
        prop_assert_eq!(image(rel), before, "a rejected step must not mutate");
    }
    check_against(rel, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store against a plain `Vec<(TupleId, Vec<Value>)>`: random
    /// interleavings of every way rows enter, leave and move. After every
    /// step `iter()` decodes exactly the model's rows in order, the tid
    /// column and all code columns have one length, and a rejected step
    /// changed nothing.
    #[test]
    fn storage_matches_a_plain_row_model(
        first in prop::collection::vec(arb_row(), 0..20),
        ops in prop::collection::vec(arb_storage_op(), 1..40),
    ) {
        let mut rel = Relation::new(schema());
        let mut model = Model::default();
        std::iter::once(&StorageOp::FromRows(first))
            .chain(&ops)
            .try_for_each(|op| step(&mut rel, &mut model, op))?;
    }

    /// The two id lookups behind `apply_delta`: the same rows held once
    /// with ascending ids (binary search) and once pushed in another
    /// order (the scan) take every delta alike — equal effects, equal
    /// surviving rows, and for each way of spoiling a delta the same
    /// error, with every stored bit left as it was.
    #[test]
    fn ascending_and_shuffled_ids_take_deltas_alike(
        rows in prop::collection::vec(arb_row(), 0..40),
        keys in prop::collection::vec(any::<u32>(), 40),
        inserts in prop::collection::vec((prop::option::of(0..12usize), arb_row()), 0..8),
        deletes in prop::collection::vec(0..64usize, 0..12),
        poison in 0..7u8,
    ) {
        let mut ascending = build(&rows);
        let mut model = Model::default();
        for (i, &r) in rows.iter().enumerate() {
            model.insert(TupleId(i as u64), row_values(r));
        }
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| keys[i]);
        if order.len() > 1 && order.is_sorted() {
            order.swap(0, 1);
        }
        // Over the same dictionaries, so that equal rows have equal codes.
        let mut shuffled = ascending.empty_like();
        for &i in &order {
            shuffled.push_tuple(ascending.row(i)).unwrap();
        }

        let (delta, doomed) = build_delta(&model, &inserts, &deletes, poison);
        let before = (image(&ascending), image(&shuffled));
        let outcomes = (ascending.apply_delta(&delta), shuffled.apply_delta(&delta));
        if poison == 0 {
            prop_assert_eq!(outcomes.0.unwrap(), outcomes.1.unwrap());
            let gone: Vec<TupleId> = doomed.iter().map(|&i| model.rows[i].0).collect();
            for (rel, was) in [(&ascending, &before.0), (&shuffled, &before.1)] {
                let want: Vec<TupleId> = was.0.iter().copied().filter(|t| !gone.contains(t))
                    .chain(delta.inserts.iter().map(|t| t.tid))
                    .collect();
                prop_assert_eq!(rel.tids(), &want[..], "survivors keep their order");
            }
            let by_id = |rel: &Relation| {
                let mut ts: Vec<Tuple> = rel.iter().collect();
                ts.sort_by_key(|t| t.tid);
                ts
            };
            prop_assert_eq!(by_id(&ascending), by_id(&shuffled));
        } else {
            prop_assert_eq!(outcomes.0.unwrap_err(), outcomes.1.unwrap_err());
            prop_assert_eq!((image(&ascending), image(&shuffled)), before);
        }
    }
}

/// `n` rows the 40-row cases cannot reach: `a` all distinct, `b` five
/// values and `Null`, `c` mostly distinct with repeats and `Null`s — four
/// ingest blocks at 1 000 rows, and a slot table that doubles eight
/// times under `a` and `c`.
fn wide_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let b = if i % 11 == 0 { Value::Null } else { Value::Int(i as i64 % 5) };
            let c = match i % 13 {
                0 => Value::Null,
                7 => Value::str(format!("s{}", i / 2)),
                _ => Value::str(format!("s{i}")),
            };
            vec![Value::Int(i as i64 * 7 - 300), b, c]
        })
        .collect()
}

/// Ids and codes as [`image`], plus every dictionary in code order.
fn image_and_dicts(rel: &Relation) -> (Vec<TupleId>, Vec<Vec<u32>>, Vec<Vec<Value>>) {
    let (tids, codes) = image(rel);
    (tids, codes, rel.columns().iter().map(|c| c.dict().snapshot()).collect())
}

/// `bulk_extend_rows_matches_push` where the block loop and the
/// dictionary's index have seams: both relations start from three pushed
/// rows (so no block starts at row 0 of an empty dictionary), then take
/// 1 000 rows in bulk and one by one.
#[test]
fn bulk_ingest_matches_push_across_blocks_and_growths() {
    let head = [vals![5, 1, "s9"], vals![Value::Null, 2, "head"], vals![-300, 1, Value::Null]];
    let rows = wide_rows(1_000);

    let mut pushed = Relation::new(schema());
    let mut bulk = Relation::new(schema());
    for row in &head {
        pushed.push(row.clone()).unwrap();
        bulk.push(row.clone()).unwrap();
    }
    for row in rows.clone() {
        pushed.push(row).unwrap();
    }
    bulk.extend_rows(rows.clone()).unwrap();
    assert!(bulk.iter().eq(pushed.iter()));
    assert_eq!(image_and_dicts(&bulk), image_and_dicts(&pushed));
    assert_eq!(bulk.push(head[0].clone()).unwrap(), pushed.push(head[0].clone()).unwrap());

    // Pre-identified tuples in an order that is not ascending: 389 is a
    // unit modulo the prime 1 009, so the ids are distinct.
    let tuples: Vec<Tuple> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| Tuple::new(TupleId(2_000 + (i as u64 + 1) * 389 % 1_009), row))
        .collect();
    for t in tuples.clone() {
        pushed.push_tuple(t).unwrap();
    }
    bulk.extend_tuples(tuples.clone()).unwrap();
    assert!(bulk.iter().eq(pushed.iter()));
    assert_eq!(image_and_dicts(&bulk), image_and_dicts(&pushed));
    // The counter sits past the largest id seen, and lookups take the
    // unordered path on both.
    let probe = [tuples[999].tid, TupleId(1), tuples[0].tid, TupleId(1_999)];
    assert_eq!(bulk.positions_of(&probe), pushed.positions_of(&probe));
    assert_eq!(bulk.positions_of(&probe)[0], Some(3 + 1_000 + 1 + 999));
    assert_eq!(bulk.push(head[1].clone()).unwrap(), TupleId(2_000 + 1_009));
    assert_eq!(pushed.push(head[1].clone()).unwrap(), TupleId(2_000 + 1_009));
}

/// All or nothing, where the block loop could break it: the offending
/// row is the *last* of four blocks, so a loop that validated as it went
/// would have appended and interned three blocks before refusing.
#[test]
fn a_batch_refused_at_its_last_row_appends_and_interns_nothing() {
    let mut rel = Relation::new(schema());
    rel.push_tuple(Tuple::new(TupleId(7), vals![1, 2, "kept"])).unwrap();
    let before = image_and_dicts(&rel);

    let mut ill_typed = wide_rows(1_000);
    ill_typed[999][1] = Value::str("oops");
    let err = rel.extend_rows(ill_typed.clone()).unwrap_err();
    assert!(matches!(err, RelationError::TypeMismatch { .. }), "{err}");
    assert_eq!(image_and_dicts(&rel), before);

    let tuples: Vec<Tuple> = ill_typed
        .into_iter()
        .enumerate()
        .map(|(i, row)| Tuple::new(TupleId(i as u64), row))
        .collect();
    let err = rel.extend_tuples(tuples).unwrap_err();
    assert!(matches!(err, RelationError::TypeMismatch { .. }), "{err}");
    assert_eq!(image_and_dicts(&rel), before);

    // Well-typed rows whose fresh ids run out: the 600th saturates onto
    // the one id that is refused.
    rel.push_tuple(Tuple::new(TupleId(u64::MAX - 600), vals![1, 2, "kept"])).unwrap();
    let before = image_and_dicts(&rel);
    let err = rel.extend_rows(wide_rows(1_000)).unwrap_err();
    assert_eq!(err, RelationError::TupleIdOutOfRange { tid: u64::MAX });
    assert_eq!(image_and_dicts(&rel), before);
    assert_eq!(rel.len(), 2);
    assert_eq!(rel.push(vals![1, 2, "kept"]).unwrap(), TupleId(u64::MAX - 599));
}

/// Cell `k` of a dictionary feed of type `ty`: `None` is `Null`; the
/// alphabet holds what the placeholder cell at the null code holds
/// (`0`, `""`), so a real value equal to it is fed too.
fn typed_value(ty: ValueType, cell: Option<u16>) -> Value {
    match (ty, cell) {
        (_, None) => Value::Null,
        (ValueType::Int, Some(k)) => Value::Int(i64::from(k) - 100),
        (ValueType::Str, Some(0)) => Value::str(""),
        (ValueType::Str, Some(k)) => Value::str(format!("s{k}")),
    }
}

/// Cell `k` of an Int feed whose first value is `first`, over an alphabet
/// that crosses the 32-bit window `first` fixes, `first − 2³¹ ..= first +
/// 2³¹ − 1`: cells 0–6 are `i64::MIN`, `i64::MAX`, `first − 2³¹` and one
/// past it, and `first + 2³¹` with the one below and the one past it,
/// saturated; the rest lie within 300 of `first`. `None` is `Null`.
fn crossing_value(first: i64, cell: Option<u16>) -> Value {
    const HALF: i64 = 1 << 31;
    let Some(k) = cell else { return Value::Null };
    Value::Int(match k {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => first.saturating_sub(HALF + 1),
        3 => first.saturating_sub(HALF),
        4 => first.saturating_add(HALF - 1),
        5 => first.saturating_add(HALF),
        6 => first.saturating_add(HALF + 1),
        _ => first.saturating_add(i64::from(k) - 100),
    })
}

/// A feed's alphabet: the value of each cell.
type Alphabet<'a> = &'a dyn Fn(Option<u16>) -> Value;

/// An empty one-attribute relation of type `ty` whose column shares
/// `dict`: how a dictionary model feeds a dictionary through a relation.
fn over(ty: ValueType, dict: Arc<Dictionary>) -> Relation {
    let schema = Schema::builder("d").attr("v", ty).key(&[]).build().unwrap();
    Relation::with_dictionaries(schema, vec![dict], 0).unwrap()
}

/// Appends `values` to the one-attribute `rel`, `chunk` rows per
/// `extend_rows` call.
fn feed_rows(rel: &mut Relation, values: &[Value], chunk: usize) {
    for slice in values.chunks(chunk) {
        rel.extend_rows(slice.iter().map(|v| vec![v.clone()]).collect()).unwrap();
    }
}

/// The codes of the one-attribute `rel`.
fn codes_of(rel: &Relation) -> Vec<u32> {
    rel.column(AttrId(0)).codes().to_vec()
}

/// Whether an Int table fed `feed` holds its values as `u32` offsets:
/// every non-null value within 2³¹ below and 2³¹ − 1 above the first.
fn stays_narrow(feed: &[Value]) -> bool {
    let ints = || feed.iter().filter_map(|v| if let Value::Int(x) = v { Some(*x) } else { None });
    let Some(base) = ints().next().map(|first| first.saturating_sub(1 << 31)) else {
        return true;
    };
    ints().all(|x| x.checked_sub(base).is_some_and(|d| u32::try_from(d).is_ok()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A typed value table against a `Vec<Value>` searched linearly. Each
    /// feed grows the slot table several times: Null plus Int values, or
    /// Null plus Str values, from an alphabet of 200 so that values
    /// repeat; or `lead` nulls, then `first`, then Int values that cross
    /// the 32-bit window `first` fixes ([`crossing_value`]), so that the
    /// table widens at a random point, or never. Each feed is interned
    /// four times: value by value through `intern` (indexed once the
    /// feed stops ascending), slice by slice through `extend_rows` of a
    /// one-attribute relation, as a built relation of the first `cut`
    /// cells — whose dictionary is trimmed and holds no index — followed
    /// by `extend_rows` of the rest onto its dictionary, and into
    /// a deep clone of a dictionary that interned the first `cut` cells.
    /// All four agree with the model on every code, `len`, `value(code)`,
    /// `snapshot`, and `code_of` for present and absent values; an Int
    /// table holds 4 bytes a value unless the feed left the window, 8 if
    /// it did. A deep clone then interns on its own.
    #[test]
    fn a_typed_dictionary_matches_a_linear_model(
        cells in prop::collection::vec(prop::option::of(0..200u16), 100..400),
        chunk in 1..70usize,
        probes in prop::collection::vec(prop::option::of(0..400u16), 24),
        cut in 0..400usize,
        anchor in 0..4u8,
        far in any::<i64>(),
        lead in 0..3usize,
    ) {
        let first = match anchor {
            0 => i64::MIN + 50,
            1 => i64::MAX - 50,
            2 => far,
            _ => 1_234_567,
        };
        let alphabets: [(ValueType, Alphabet); 3] = [
            (ValueType::Int, &|c| typed_value(ValueType::Int, c)),
            (ValueType::Str, &|c| typed_value(ValueType::Str, c)),
            (ValueType::Int, &|c| crossing_value(first, c)),
        ];
        for (alphabet, (ty, value)) in alphabets.into_iter().enumerate() {
            let mut feed: Vec<Value> = Vec::new();
            if alphabet == 2 {
                feed.extend(std::iter::repeat_n(Value::Null, lead));
                feed.push(Value::Int(first));
            }
            feed.extend(cells.iter().map(|&c| value(c)));
            let mut model: Vec<Value> = Vec::new();
            let want: Vec<u32> = feed.iter().map(|v| model_code(&mut model, v)).collect();
            let one = Dictionary::new(ty);
            let codes: Vec<u32> = feed.iter().map(|v| one.intern(v)).collect();
            prop_assert_eq!(&codes, &want);
            if ty == ValueType::Int {
                let per_value = if stays_narrow(&feed) { 4 } else { 8 };
                let held = per_value * one.capacity() + 4 * one.index_slots();
                prop_assert_eq!(one.heap_bytes(), held, "alphabet {}", alphabet);
            }
            let mut col = over(ty, Arc::new(Dictionary::new(ty)));
            feed_rows(&mut col, &feed, chunk);
            prop_assert_eq!(codes_of(&col), &want[..]);
            let cut = cut.min(feed.len());
            let schema = Schema::builder("d").attr("v", ty).key(&[]).build().unwrap();
            let head = feed[..cut].iter().map(|v| vec![v.clone()]).collect();
            let built = Relation::from_rows(schema, head).unwrap();
            prop_assert!(!built.dictionary(AttrId(0)).is_indexed());
            let mut rest = over(ty, built.dictionary(AttrId(0)).clone());
            feed_rows(&mut rest, &feed[cut..], chunk);
            let resumed: Vec<u32> = codes_of(&built).into_iter().chain(codes_of(&rest)).collect();
            prop_assert_eq!(&resumed, &want);
            let part = Dictionary::new(ty);
            for v in &feed[..cut] {
                part.intern(v);
            }
            let cloned = part.clone();
            let tail: Vec<u32> = feed[cut..].iter().map(|v| cloned.intern(v)).collect();
            prop_assert_eq!(&tail[..], &want[cut..]);
            prop_assert_eq!(part.snapshot(), model[..part.len()].to_vec());
            let (col, rest) = (col.dictionary(AttrId(0)), rest.dictionary(AttrId(0)));
            for dict in [&one, &**col, &**rest, &cloned] {
                prop_assert_eq!(dict.len(), model.len());
                prop_assert_eq!(dict.snapshot(), model.clone());
                for (code, v) in model.iter().enumerate() {
                    prop_assert_eq!(dict.value(code as u32), v.clone());
                }
                for &cell in &probes {
                    let v = value(cell);
                    let at = model.iter().position(|m| *m == v).map(|code| code as u32);
                    prop_assert_eq!(dict.code_of(&v), at, "{:?}", v);
                }
            }
            let copy = one.clone();
            // A value the feed never holds: 2⁴⁰ from `first` is past the
            // crossing alphabet, whose values near `i64::MAX` saturate.
            let fresh =
                if alphabet == 2 { Value::Int(first ^ (1 << 40)) } else { value(Some(5_000)) };
            prop_assert_eq!(copy.intern(&fresh) as usize, model.len());
            prop_assert_eq!(copy.value(model.len() as u32), fresh.clone());
            prop_assert_eq!(copy.code_of(&feed[0]), Some(0));
            prop_assert_eq!((one.len(), one.code_of(&fresh)), (model.len(), None));
        }
    }
}

/// Cell `k` of a string feed in the shapes a dictionary's byte table
/// slices: `None` is `Null`; `0` is the empty string, what the
/// placeholder entry at the null code holds; the rest are two-, three-
/// and four-byte UTF-8 and strings of 300 bytes and more.
fn sliced_value(cell: Option<u16>) -> Value {
    match cell {
        None => Value::Null,
        Some(0) => Value::str(""),
        Some(k) => match k % 4 {
            0 => Value::str(format!("é{k}")),
            1 => Value::str(format!("日本{k}語")),
            2 => Value::str(format!("🦀{k}🦀")),
            _ => Value::str(format!("ß{k}").repeat(100)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A string table against a `Vec<Value>` searched linearly, over
    /// multi-byte UTF-8, long strings, and the empty string beside
    /// `Null`'s empty placeholder. A relation built from the feed holds
    /// its dictionary trimmed and unindexed; it is read twice, once with
    /// the index rebuilt by the first probe and once after
    /// `ensure_indexed`. Both agree with the model on every code, `value`,
    /// `snapshot`, `code_of` for present and absent values, the decoded
    /// rows, and the codes of a later append.
    #[test]
    fn a_string_table_matches_a_linear_model_after_trim_and_reindex(
        cells in prop::collection::vec(prop::option::of(0..120u16), 0..300),
        probes in prop::collection::vec(prop::option::of(0..240u16), 24),
        more in prop::collection::vec(prop::option::of(0..240u16), 0..40),
    ) {
        let feed: Vec<Value> = cells.iter().map(|&c| sliced_value(c)).collect();
        let mut model: Vec<Value> = Vec::new();
        let mut code_in_model = |v: &Value| match model.iter().position(|m| m == v) {
            Some(code) => code as u32,
            None => {
                model.push(v.clone());
                model.len() as u32 - 1
            }
        };
        let want: Vec<u32> = feed.iter().map(&mut code_in_model).collect();
        let more: Vec<Value> = more.iter().map(|&c| sliced_value(c)).collect();
        let want_more: Vec<u32> = more.iter().map(&mut code_in_model).collect();
        let seen = feed.iter().collect::<std::collections::HashSet<_>>().len();
        let schema = Schema::builder("s").attr("v", ValueType::Str).key(&[]).build().unwrap();
        for ensure in [false, true] {
            let rows = feed.iter().map(|v| vec![v.clone()]).collect();
            let built = Relation::from_rows(schema.clone(), rows).unwrap();
            let dict = built.dictionary(AttrId(0));
            prop_assert_eq!((dict.is_indexed(), dict.len(), dict.capacity()), (false, seen, seen));
            if ensure {
                dict.ensure_indexed();
                prop_assert!(dict.is_indexed());
            }
            prop_assert_eq!(built.column(AttrId(0)).codes().to_vec(), &want[..]);
            prop_assert_eq!(dict.snapshot(), model[..seen].to_vec());
            for (code, v) in model[..seen].iter().enumerate() {
                prop_assert_eq!(dict.value(code as u32), v.clone());
            }
            for v in probes.iter().map(|&c| sliced_value(c)) {
                let at = model[..seen].iter().position(|m| *m == v).map(|code| code as u32);
                prop_assert_eq!(dict.code_of(&v), at, "{:?}", v);
            }
            let decoded: Vec<Value> = built.iter().map(|t| t.values()[0].clone()).collect();
            prop_assert_eq!(&decoded, &feed);
            let mut rest = over(ValueType::Str, dict.clone());
            feed_rows(&mut rest, &more, more.len().max(1));
            prop_assert_eq!(codes_of(&rest), &want_more[..]);
            prop_assert_eq!(dict.snapshot(), model.clone());
        }
    }
}

/// Strictly ascending integers from `start`: each gap is 1 (a dense run)
/// for kinds 0 and 1, up to 1 000 for kind 2 and up to 2⁶² for kind 3,
/// stopping where the next would pass `i64::MAX`; `top` ends the run at
/// `i64::MAX` itself.
fn ascending_ints(start: i64, gaps: &[(u8, u64)], top: bool) -> Vec<i64> {
    let mut out = vec![start];
    for &(kind, r) in gaps {
        let gap = match kind {
            0 | 1 => 1,
            2 => 1 + r % 1_000,
            _ => 1 + r % (1 << 62),
        };
        let Some(next) = out[out.len() - 1].checked_add_unsigned(gap) else { break };
        out.push(next);
    }
    if top && out[out.len() - 1] != i64::MAX {
        out.push(i64::MAX);
    }
    out
}

/// The value of type `ty` that integer `x` stands for: itself, or its
/// offset from `i64::MIN` in 20 digits (so strings ascend as the
/// integers do) with a multi-byte tail.
fn ascending_value(ty: ValueType, x: i64) -> Value {
    match ty {
        ValueType::Int => Value::Int(x),
        ValueType::Str => {
            let offset = (i128::from(x) - i128::from(i64::MIN)) as u64;
            Value::str(format!("{offset:020}é{}", "ß".repeat((offset % 3) as usize)))
        }
    }
}

/// The slot count growth from empty reaches at `len` values.
fn grown_len(len: usize) -> usize {
    (8 * len).div_ceil(7).max(8).next_power_of_two()
}

/// The code of `v` in a linear model of first-seen order, appending it
/// if it is new.
fn model_code(model: &mut Vec<Value>, v: &Value) -> u32 {
    let at = model.iter().position(|m| m == v).unwrap_or_else(|| {
        model.push(v.clone());
        model.len() - 1
    });
    at as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A sorted dictionary against a `Vec<Value>` searched linearly. The
    /// feed is ascending — `Int` from `i64::MIN`, from near `i64::MAX`
    /// or from in between, over dense runs and gaps up to 2⁶², or the
    /// same as 20-digit strings — with `Null` first, in the middle, last
    /// or not at all, and repeated hits. It is interned value by value,
    /// slice by slice, and as a built (trimmed) relation; each stays
    /// sorted with no index, and answers every code, every absent
    /// neighbour and the extremes as the model does, also after
    /// `ensure_indexed`, which builds nothing. A value of the other type
    /// has no code, and interning one panics. Then one miss below the
    /// last value: it takes the next code, every earlier code stays, and
    /// the index built at that length covers every code, the null code
    /// too; the dictionary is never sorted again.
    #[test]
    fn a_sorted_dictionary_matches_a_linear_model(
        start in 0..4u8,
        low in any::<u64>(),
        gaps in prop::collection::vec((0..4u8, any::<u64>()), 0..150),
        top in any::<bool>(),
        null_at in 0..4u8,
        hits in prop::collection::vec((any::<usize>(), any::<usize>()), 0..40),
        chunk in 1..70usize,
    ) {
        let start = match start {
            0 => i64::MIN,
            1 => -((low % 1_000_000) as i64),
            2 => i64::MAX - (low % 100_000) as i64,
            _ => (low >> 1) as i64,
        };
        let ints = ascending_ints(start, &gaps, top);
        for ty in [ValueType::Int, ValueType::Str] {
            let distinct: Vec<Value> = ints.iter().map(|&x| ascending_value(ty, x)).collect();
            let mut feed = Vec::new();
            for (j, v) in distinct.iter().enumerate() {
                feed.push(v.clone());
                for &(at, pick) in &hits {
                    if at % distinct.len() == j {
                        feed.push(distinct[pick % (j + 1)].clone());
                    }
                }
            }
            match null_at {
                1 => feed.insert(0, Value::Null),
                2 => {
                    feed.insert(feed.len() / 2, Value::Null);
                    feed.push(Value::Null);
                }
                3 => feed.push(Value::Null),
                _ => {}
            }
            let mut model: Vec<Value> = Vec::new();
            let want: Vec<u32> = feed.iter().map(|v| model_code(&mut model, v)).collect();

            let one = Dictionary::new(ty);
            prop_assert_eq!(feed.iter().map(|v| one.intern(v)).collect::<Vec<_>>(), want.clone());
            let mut col = over(ty, Arc::new(Dictionary::new(ty)));
            feed_rows(&mut col, &feed, chunk);
            prop_assert_eq!(codes_of(&col), &want[..]);
            let schema = Schema::builder("d").attr("v", ty).key(&[]).build().unwrap();
            let rows = feed.iter().map(|v| vec![v.clone()]).collect();
            let built = Relation::from_rows(schema, rows).unwrap();
            prop_assert_eq!(built.column(AttrId(0)).codes().to_vec(), &want[..]);
            let trimmed = built.dictionary(AttrId(0));
            prop_assert_eq!(trimmed.capacity(), model.len());

            // Absent probes: each value's neighbours, the extremes, and
            // for strings the empty one (the null placeholder) and one
            // above every value.
            let mut probes: Vec<Value> = [i64::MIN, i64::MAX, 0]
                .into_iter()
                .chain(ints.iter().flat_map(|&x| [x.checked_sub(1), x.checked_add(1)]).flatten())
                .map(|x| ascending_value(ty, x))
                .collect();
            if ty == ValueType::Str {
                probes.extend([Value::str(""), Value::str("~")]);
            }
            let other = match ty {
                ValueType::Int => Value::str("1"),
                ValueType::Str => Value::Int(1),
            };
            for dict in [&one, &**col.dictionary(AttrId(0)), &**trimmed] {
                prop_assert_eq!(dict.snapshot(), model.clone());
                for (code, v) in model.iter().enumerate() {
                    prop_assert_eq!(dict.code_of(v), Some(code as u32), "{:?}", v);
                }
                for v in &probes {
                    let at = model.iter().position(|m| m == v).map(|code| code as u32);
                    prop_assert_eq!(dict.code_of(v), at, "{:?}", v);
                }
                prop_assert_eq!(dict.code_of(&other), None);
                dict.ensure_indexed();
                prop_assert_eq!((dict.is_sorted(), dict.is_indexed()), (true, false));
            }
            // The panic is checked in one case in eight, to keep the log short.
            if low.is_multiple_of(8) {
                let copy = one.clone();
                let refused = std::panic::catch_unwind(|| copy.intern(&other));
                let message = refused.expect_err("the other type").downcast::<String>();
                let want = format!("{other:?} is not a value of this {} dictionary", ty.name());
                prop_assert_eq!(message.map(|m| *m).ok(), Some(want));
            }

            // One miss below the last value: a gap's first value, or one
            // below the first.
            let last = &distinct[distinct.len() - 1];
            let Some(miss) = probes.iter().find(|v| !model.contains(v) && *v < last) else {
                continue;
            };
            let len = model.len();
            let mut after = over(ty, trimmed.clone());
            feed_rows(&mut after, &[miss.clone(), miss.clone()], 2);
            prop_assert_eq!(codes_of(&after), &[len as u32; 2][..]);
            let mode = (trimmed.is_sorted(), trimmed.index_slots());
            prop_assert_eq!(mode, (false, grown_len(len + 1)));
            prop_assert_eq!(model_code(&mut model, miss) as usize, len);
            for (code, v) in model.iter().enumerate() {
                prop_assert_eq!(trimmed.code_of(v), Some(code as u32), "{:?}", v);
            }
            // Through the index, `Null` keeps its code (or takes the next).
            let tail = [Value::Null, ascending_value(ty, i64::MAX)];
            let tail_codes: Vec<u32> = tail.iter().map(|v| model_code(&mut model, v)).collect();
            feed_rows(&mut after, &tail, tail.len());
            prop_assert_eq!(&codes_of(&after)[2..], &tail_codes[..]);
            prop_assert_eq!(trimmed.snapshot(), model);
            prop_assert!(!trimmed.is_sorted() && trimmed.is_indexed());
        }
    }
}

/// Values a column of [`narrow_schema`] takes in the width model: codes
/// on either side of the one- and two-byte limits, and values no
/// dictionary has seen, whose codes come after them.
const NARROW_CODES: [i64; 10] = [0, 1, 200, 255, 256, 300, 65_535, 65_536, 70_000, 70_001];

fn narrow_schema() -> Arc<Schema> {
    Schema::builder("narrow").attr("v", ValueType::Int).key(&[]).build().unwrap()
}

/// What a width-model step does to one of two relations over one
/// dictionary.
#[derive(Debug, Clone)]
enum WidthOp {
    /// One row through `Relation::push_tuple`.
    Push(bool, usize),
    /// Rows through `Relation::extend_tuples`.
    Extend(bool, Vec<usize>),
    /// `remove_rows` through a delta's deletes, picked by position.
    Remove(bool, Vec<usize>),
    /// Rows of one relation copied into the other (`extend_from`), picked
    /// by position; rows whose id the target holds are skipped.
    Copy(bool, Vec<usize>),
}

fn arb_width_op() -> impl Strategy<Value = WidthOp> {
    let side = any::<bool>();
    let picks = prop::collection::vec(0..64usize, 0..24);
    prop_oneof![
        (side, 0..NARROW_CODES.len()).prop_map(|(s, v)| WidthOp::Push(s, v)),
        (side, prop::collection::vec(0..NARROW_CODES.len(), 0..24))
            .prop_map(|(s, vs)| WidthOp::Extend(s, vs)),
        (side, picks.clone()).prop_map(|(s, p)| WidthOp::Remove(s, p)),
        (side, picks).prop_map(|(s, p)| WidthOp::Copy(s, p)),
    ]
}

/// A column's model: its `(tid, code)` rows, and the largest code it has
/// ever held.
#[derive(Debug, Default)]
struct WidthModel {
    rows: Vec<(TupleId, u32)>,
    largest: u32,
}

impl WidthModel {
    fn hold(&mut self, tid: TupleId, code: u32) {
        self.rows.push((tid, code));
        self.largest = self.largest.max(code);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Code columns against a `Vec<u32>` model, over a dictionary whose
    /// codes reach past both narrow widths: two relations over it are
    /// pushed to, extended, deleted from and copied into each other, at
    /// codes 255, 256, 65 535 and 65 536 and fresh ones after them. After
    /// every step each column holds the model's codes, decodes the
    /// model's values, and is as wide as the narrowest width that holds
    /// the largest code it ever held — deleting that code narrows
    /// nothing — with its bytes counted at that width.
    #[test]
    fn narrow_columns_match_a_vec_model(ops in prop::collection::vec(arb_width_op(), 1..24)) {
        let dict = Arc::new(Dictionary::new(ValueType::Int));
        // Value v ≤ 65 536 is code v; later values take codes in order.
        let values: Vec<Value> = (0..=65_536).map(Value::Int).collect();
        feed_rows(&mut over(ValueType::Int, dict.clone()), &values, values.len());
        let mut fresh: Vec<i64> = Vec::new();
        let mut code_of = |v: i64| -> u32 {
            if v <= 65_536 {
                return v as u32;
            }
            let at = fresh.iter().position(|&f| f == v).unwrap_or_else(|| {
                fresh.push(v);
                fresh.len() - 1
            });
            65_537 + at as u32
        };
        let new = || Relation::with_dictionaries(narrow_schema(), vec![dict.clone()], 0).unwrap();
        let mut rels = [new(), new()];
        let mut models = [WidthModel::default(), WidthModel::default()];
        let mut next_tid = 0u64;
        for op in &ops {
            match op {
                WidthOp::Push(side, v) => {
                    let (s, v) = (usize::from(*side), NARROW_CODES[*v]);
                    let tid = TupleId(next_tid);
                    next_tid += 1;
                    rels[s].push_tuple(Tuple::new(tid, vec![Value::Int(v)])).unwrap();
                    models[s].hold(tid, code_of(v));
                }
                WidthOp::Extend(side, vs) => {
                    let s = usize::from(*side);
                    let mut tuples = Vec::new();
                    for &v in vs {
                        let (tid, v) = (TupleId(next_tid), NARROW_CODES[v]);
                        next_tid += 1;
                        tuples.push(Tuple::new(tid, vec![Value::Int(v)]));
                        models[s].hold(tid, code_of(v));
                    }
                    rels[s].extend_tuples(tuples).unwrap();
                }
                WidthOp::Remove(side, picks) => {
                    let s = usize::from(*side);
                    let n = models[s].rows.len();
                    let mut at: Vec<usize> = picks.iter().filter(|_| n > 0).map(|p| p % n).collect();
                    at.sort_unstable();
                    at.dedup();
                    let tids: Vec<TupleId> = at.iter().map(|&i| models[s].rows[i].0).collect();
                    rels[s].apply_delta(&RelationDelta::new(vec![], tids.clone())).unwrap();
                    models[s].rows.retain(|(tid, _)| !tids.contains(tid));
                }
                WidthOp::Copy(to_b, picks) => {
                    let (from, to) = if *to_b { (0, 1) } else { (1, 0) };
                    let n = models[from].rows.len();
                    let mut at: Vec<usize> = Vec::new();
                    for p in picks.iter().filter(|_| n > 0).map(|p| p % n) {
                        let tid = models[from].rows[p].0;
                        let held = models[to].rows.iter().any(|&(t, _)| t == tid);
                        if !held && !at.iter().any(|&q| models[from].rows[q].0 == tid) {
                            at.push(p);
                        }
                    }
                    let [a, b] = &mut rels;
                    let (src, dst) = if *to_b { (&*a, b) } else { (&*b, a) };
                    dst.extend_from(src, &[AttrId(0)], &at).unwrap();
                    for &p in &at {
                        let (tid, code) = models[from].rows[p];
                        models[to].hold(tid, code);
                    }
                }
            }
            for (rel, model) in rels.iter().zip(&models) {
                let col = rel.column(AttrId(0));
                let codes: Vec<u32> = model.rows.iter().map(|&(_, code)| code).collect();
                prop_assert_eq!(col.codes().to_vec(), codes.clone(), "{:?}", op);
                let want_width = match model.largest {
                    0..=255 => 1,
                    256..=65_535 => 2,
                    _ => 4,
                };
                prop_assert_eq!(col.width(), want_width, "{:?}", op);
                prop_assert_eq!(col.codes().width(), want_width);
                prop_assert_eq!(col.heap_bytes(), col.capacity() * want_width);
                let tids: Vec<TupleId> = model.rows.iter().map(|&(tid, _)| tid).collect();
                prop_assert_eq!(rel.tids(), &tids[..]);
                for (i, &code) in codes.iter().enumerate() {
                    prop_assert_eq!(col.decode(i), dict.value(code));
                }
            }
        }
    }
}

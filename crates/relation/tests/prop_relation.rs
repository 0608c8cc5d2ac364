//! Property-based tests for the relational substrate: predicate
//! evaluation vs. satisfiability soundness, the storage layer against a
//! plain row model, and the column-batch gather against the row wire.

use dcd_relation::{
    vals, Atom, AttrId, CmpOp, CodeBatch, Column, Conjunction, Dictionary, Predicate, Relation,
    RelationDelta, RelationError, Schema, Tuple, TupleId, Value, ValueType,
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
                        col.codes()[i] == col.codes()[j],
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

    /// [`Relation::gather_into`] lays out what [`Relation::code_rows`]
    /// ships — the same ids and cells, column-major, in the same order —
    /// for a σ-block (ascending rows, thinned by a stride) and for rows in
    /// any order and repeated, over any attribute list, appending to what
    /// the batch already holds; a batch with room for the block is filled
    /// in place.
    #[test]
    fn gather_into_equals_code_rows_in_any_row_order(
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

        let mut batch = CodeBatch::with_capacity(attrs.len(), block.len());
        let buffers: Vec<*const u32> = batch.cols.iter().map(|col| col.as_ptr()).collect();
        rel.gather_into(&attrs, &block, &mut batch);
        let filled: Vec<*const u32> = batch.cols.iter().map(|col| col.as_ptr()).collect();
        prop_assert_eq!(buffers, filled, "a batch with room for the block is filled in place");
        rel.gather_into(&attrs, &unordered, &mut batch);

        let mut want = rel.code_rows(&attrs, &block);
        want.extend(rel.code_rows(&attrs, &unordered));
        prop_assert_eq!(batch.len(), want.len());
        prop_assert_eq!(&batch.tids, &want.iter().map(|(tid, _)| *tid).collect::<Vec<_>>());
        for (j, col) in batch.cols.iter().enumerate() {
            let codes = rel.column(attrs[j]).codes();
            prop_assert_eq!(col, &want.iter().map(|(_, cells)| cells[j]).collect::<Vec<_>>());
            let rows_read = block.iter().chain(&unordered).map(|&i| codes[i]);
            prop_assert_eq!(col, &rows_read.collect::<Vec<_>>());
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
    /// `push_code_row` with the codes of an existing row under id
    /// `next + gap`; with `corrupt`, one code is the first its dictionary
    /// has not assigned, and the row is rejected.
    PushCodeRow {
        from: usize,
        gap: u64,
        corrupt: bool,
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
        (0..64usize, 0..3u64, any::<bool>())
            .prop_map(|(from, gap, corrupt)| StorageOp::PushCodeRow { from, gap, corrupt }),
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
        StorageOp::PushCodeRow { from, gap, corrupt } => {
            if !model.rows.is_empty() {
                let from = from % model.rows.len();
                let tid = TupleId(model.next + gap);
                let mut codes: Vec<u32> = rel.columns().iter().map(|c| c.codes()[from]).collect();
                if *corrupt {
                    let j = from % codes.len();
                    codes[j] = rel.columns()[j].dict().len() as u32;
                    let err = rel.push_code_row(tid, &codes).unwrap_err();
                    prop_assert!(matches!(err, RelationError::UnassignedCode { .. }));
                    rejected = true;
                } else {
                    rel.push_code_row(tid, &codes).unwrap();
                    let values = model.rows[from].1.clone();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A typed value table against a `Vec<Value>` searched linearly. Each
    /// feed (Null plus Int values, or Null plus Str values, from an
    /// alphabet of 200 so that values repeat) grows the slot table
    /// several times and is interned twice: value by value through
    /// `intern`, and slice by slice through `extend_values`. Both agree
    /// with the model on every code, `len`, `value(code)`, `snapshot`,
    /// and `code_of` for present and absent values; a deep clone then
    /// interns on its own.
    #[test]
    fn a_typed_dictionary_matches_a_linear_model(
        cells in prop::collection::vec(prop::option::of(0..200u16), 100..400),
        chunk in 1..70usize,
        probes in prop::collection::vec(prop::option::of(0..400u16), 24),
    ) {
        for ty in [ValueType::Int, ValueType::Str] {
            let feed: Vec<Value> = cells.iter().map(|&c| typed_value(ty, c)).collect();
            let mut model: Vec<Value> = Vec::new();
            let want: Vec<u32> = feed
                .iter()
                .map(|v| match model.iter().position(|m| m == v) {
                    Some(code) => code as u32,
                    None => {
                        model.push(v.clone());
                        model.len() as u32 - 1
                    }
                })
                .collect();
            let one = Dictionary::new(ty);
            let codes: Vec<u32> = feed.iter().map(|v| one.intern(v)).collect();
            prop_assert_eq!(&codes, &want);
            let mut col = Column::new(ty);
            for slice in feed.chunks(chunk) {
                col.extend_values(slice);
            }
            prop_assert_eq!(col.codes(), &want[..]);
            for dict in [&one, &**col.dict()] {
                prop_assert_eq!(dict.len(), model.len());
                prop_assert_eq!(dict.snapshot(), model.clone());
                for (code, v) in model.iter().enumerate() {
                    prop_assert_eq!(dict.value(code as u32), v.clone());
                }
                for &cell in &probes {
                    let v = typed_value(ty, cell);
                    let at = model.iter().position(|m| *m == v).map(|code| code as u32);
                    prop_assert_eq!(dict.code_of(&v), at, "{:?}", v);
                }
            }
            let copy = one.clone();
            let fresh = typed_value(ty, Some(5_000));
            prop_assert_eq!(copy.intern(&fresh) as usize, model.len());
            prop_assert_eq!(copy.value(model.len() as u32), fresh.clone());
            prop_assert_eq!(copy.code_of(&feed[0]), Some(0));
            prop_assert_eq!((one.len(), one.code_of(&fresh)), (model.len(), None));
        }
    }
}

//! One dictionary, several writers.
//!
//! Fragments of one relation share their dictionaries, and relations
//! over one dictionary may be written from several threads at once.
//! Every write interns through one pass per column,
//! `Dictionary::intern_each`: one acquisition of the write lock for the
//! whole pass, one probe a value, so concurrent passes take turns at the
//! lock, a whole pass each. (A delta batch does not get here: a
//! partition encodes it on one thread before its sites append codes.)
//! What the writers rely on — codes dense and first-seen, one code per
//! value whoever interned it, every column still decoding to what it was
//! fed — must hold however their passes interleave. Each writer here is
//! a one-attribute relation over the shared dictionary
//! (`Relation::with_dictionaries`), fed by `extend_rows`. A built
//! relation's dictionaries hold no value → code index; the first lookup
//! or interning miss builds it under the write lock, and that must hold
//! the same contract when tasks meet there. A dictionary whose values
//! arrived ascending (the Int universe here) is sorted and builds none:
//! writers append above its last value, and the first miss below it ends
//! that mode, so whether it still holds at four writers depends on how
//! they interleave.

use dcd_dist::pool::scoped_map;
use dcd_relation::{AttrId, Dictionary, Relation, Schema, Value, ValueType};
use std::collections::HashSet;
use std::sync::Arc;

const TASKS: usize = 4;

/// A writer: a one-attribute relation of type `ty` over `dict`, fed
/// `fed` slice by slice, so that writers meet between calls as well as
/// inside them.
fn write(ty: ValueType, dict: &Arc<Dictionary>, fed: &[Value]) -> Relation {
    let schema = Schema::builder("w").attr("v", ty).key(&[]).build().unwrap();
    let mut w = Relation::with_dictionaries(schema, vec![dict.clone()], 0).unwrap();
    for slice in fed.chunks(64) {
        w.extend_rows(slice.iter().map(|v| vec![v.clone()]).collect()).unwrap();
    }
    w
}

/// The codes a writer holds.
fn codes(w: &Relation) -> Vec<u32> {
    w.column(AttrId(0)).codes().to_vec()
}

/// Value `u` of the universe a dictionary of type `ty` is fed: one in
/// seven is `Null`.
fn value(ty: ValueType, u: usize) -> Value {
    match (u % 7, ty) {
        (0, _) => Value::Null,
        (_, ValueType::Int) => Value::Int(u as i64),
        (_, ValueType::Str) => Value::str(format!("v{u}")),
    }
}

/// What task `k` feeds its column: a window of the value universe that
/// overlaps its neighbours' by two thirds — long runs no one has seen,
/// broken by values the task (or by then a neighbour) already interned.
fn feed(ty: ValueType, k: usize) -> Vec<Value> {
    let start = k * 500;
    (0..3_000)
        .map(|i| match i % 5 {
            4 => value(ty, start + i / 3),
            _ => value(ty, start + i / 2),
        })
        .collect()
}

#[test]
fn tasks_interning_overlapping_values_share_one_code_space() {
    for (ty, threads) in
        [ValueType::Int, ValueType::Str].into_iter().flat_map(|ty| [(ty, 1), (ty, 4)])
    {
        let feeds: Vec<Vec<Value>> = (0..TASKS).map(|k| feed(ty, k)).collect();
        let distinct: HashSet<&Value> = feeds.iter().flatten().collect();
        let dict = Arc::new(Dictionary::new(ty));
        let writers: Vec<Relation> = scoped_map(threads, &feeds, |fed| write(ty, &dict, fed));

        let snapshot = dict.snapshot();
        assert_eq!(snapshot.len(), dict.len());
        assert_eq!(snapshot.len(), distinct.len(), "{ty:?} at {threads} threads");
        assert_eq!(snapshot.iter().collect::<HashSet<_>>().len(), snapshot.len(), "a duplicate");
        for (code, v) in snapshot.iter().enumerate() {
            assert_eq!(dict.code_of(v), Some(code as u32), "{v} at {threads} threads");
        }
        for (w, fed) in writers.iter().zip(&feeds) {
            assert_eq!(w.len(), fed.len());
            assert!(codes(w).iter().all(|&code| (code as usize) < snapshot.len()));
            let decoded: Vec<&Value> =
                codes(w).iter().map(|&code| &snapshot[code as usize]).collect();
            assert!(decoded.iter().copied().eq(fed), "{ty:?} at {threads} threads");
        }
    }
}

#[test]
fn first_probes_of_a_built_relation_share_one_code_space() {
    for (ty, threads) in
        [ValueType::Int, ValueType::Str].into_iter().flat_map(|ty| [(ty, 1), (ty, 4)])
    {
        // A built relation over the first 1 500 values of the universe:
        // its dictionary is trimmed and holds no index.
        let schema = Schema::builder("d").attr("v", ty).key(&[]).build().unwrap();
        let loaded: Vec<Vec<Value>> = (0..1_500).map(|u| vec![value(ty, u)]).collect();
        let built = Relation::from_rows(schema, loaded.clone()).unwrap();
        let dict = built.dictionary(AttrId(0)).clone();
        assert!(!dict.is_indexed());
        let mut model: Vec<Value> = Vec::new();
        for v in loaded.iter().flatten() {
            if !model.contains(v) {
                model.push(v.clone());
            }
        }

        // Even tasks look values up, odd tasks intern overlapping feeds:
        // whichever task reaches the dictionary first builds the index,
        // unless it is sorted.
        let probes = |k: usize| (k * 300..k * 300 + 3_000).map(|u| value(ty, u));
        let feeds: Vec<Vec<Value>> = (0..TASKS).map(|k| feed(ty, k)).collect();
        let outcomes: Vec<(Vec<Option<u32>>, Relation)> = scoped_map(threads, 0..TASKS, |k| {
            if k % 2 == 0 {
                (probes(k).map(|v| dict.code_of(&v)).collect(), write(ty, &dict, &[]))
            } else {
                (Vec::new(), write(ty, &dict, &feeds[k]))
            }
        });

        let snapshot = dict.snapshot();
        let fed: HashSet<&Value> =
            loaded.iter().flatten().chain((1..TASKS).step_by(2).flat_map(|k| &feeds[k])).collect();
        assert_eq!(snapshot.len(), fed.len(), "{ty:?} at {threads} threads");
        assert_eq!(snapshot.iter().collect::<HashSet<_>>().len(), snapshot.len(), "a duplicate");
        assert_eq!(snapshot[..model.len()], model[..], "the load's codes moved");
        // Strings load out of order ("v10" < "v9"), so the first probe
        // indexes them; ascending Ints stay sorted while one task at a
        // time appends, and at four either stay so or are indexed.
        let grown = (8 * dict.len()).div_ceil(7).max(8).next_power_of_two();
        let (sorted, indexed) = ((true, 0), (false, grown));
        let got = (dict.is_sorted(), dict.index_slots());
        match (ty, threads) {
            (ValueType::Str, _) => assert_eq!(got, indexed, "Str at {threads} threads"),
            (_, 1) => assert_eq!(got, sorted, "Int at 1 thread"),
            _ => assert!(got == sorted || got == indexed, "Int at {threads} threads: {got:?}"),
        }
        for (code, v) in snapshot.iter().enumerate() {
            assert_eq!(dict.code_of(v), Some(code as u32), "{v} at {threads} threads");
        }
        for (k, (answers, w)) in outcomes.iter().enumerate() {
            if k % 2 == 1 {
                let decoded = codes(w).into_iter().map(|code| &snapshot[code as usize]);
                assert!(decoded.eq(&feeds[k]), "{ty:?} at {threads} threads");
                continue;
            }
            // A value the load held answers its code; one a writer added
            // answers it or, if the lookup came first, nothing; any other
            // value answers nothing.
            for (v, &got) in probes(k).zip(answers) {
                let now = snapshot.iter().position(|s| *s == v).map(|code| code as u32);
                match model.iter().position(|m| *m == v) {
                    Some(code) => assert_eq!(got, Some(code as u32), "{v}"),
                    None => assert!(got.is_none() || got == now, "{v}: {got:?}, now {now:?}"),
                }
            }
        }
    }
}

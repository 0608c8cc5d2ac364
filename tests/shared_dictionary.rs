//! One dictionary, several writers.
//!
//! Fragments of one relation share their dictionaries, and parallel
//! sites intern into them at once (`apply_delta` per site, column by
//! column). What that relies on — codes dense and first-seen, one code
//! per value whoever interned it, every column still decoding to what it
//! was fed — is the contract of `Dictionary::intern_each`'s two-lock
//! loop: known values under the read lock, a run of unseen ones under
//! the write lock, the value that caused the upgrade looked up again
//! because another writer may have got there between the two locks.

use distributed_cfd::dist::pool::scoped_map;
use distributed_cfd::relation::{Column, Dictionary, Value, ValueType};
use std::collections::HashSet;
use std::sync::Arc;

const TASKS: usize = 4;

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
        let columns: Vec<Column> = scoped_map(threads, &feeds, |fed| {
            let mut col = Column::sharing(dict.clone());
            // Slice by slice, so that writers meet between calls as well
            // as inside them.
            for slice in fed.chunks(64) {
                col.extend_values(slice);
            }
            col
        });

        let snapshot = dict.snapshot();
        assert_eq!(snapshot.len(), dict.len());
        assert_eq!(snapshot.len(), distinct.len(), "{ty:?} at {threads} threads");
        assert_eq!(snapshot.iter().collect::<HashSet<_>>().len(), snapshot.len(), "a duplicate");
        for (code, v) in snapshot.iter().enumerate() {
            assert_eq!(dict.code_of(v), Some(code as u32), "{v} at {threads} threads");
        }
        for (col, fed) in columns.iter().zip(&feeds) {
            assert_eq!(col.len(), fed.len());
            assert!(col.codes().iter().all(|&code| (code as usize) < snapshot.len()));
            let decoded: Vec<&Value> =
                col.codes().iter().map(|&code| &snapshot[code as usize]).collect();
            assert!(decoded.iter().copied().eq(fed), "{ty:?} at {threads} threads");
        }
    }
}

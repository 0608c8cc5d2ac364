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
use distributed_cfd::relation::{Column, Dictionary, Value};
use std::collections::HashSet;
use std::sync::Arc;

const TASKS: usize = 4;

fn value(u: usize) -> Value {
    match u % 7 {
        0 => Value::Null,
        1 | 2 => Value::Int(u as i64),
        _ => Value::str(format!("v{u}")),
    }
}

/// What task `k` feeds its column: a window of the value universe that
/// overlaps its neighbours' by two thirds — long runs no one has seen,
/// broken by values the task (or by then a neighbour) already interned.
fn feed(k: usize) -> Vec<Value> {
    let start = k * 500;
    (0..3_000)
        .map(|i| match i % 5 {
            4 => value(start + i / 3),
            _ => value(start + i / 2),
        })
        .collect()
}

#[test]
fn tasks_interning_overlapping_values_share_one_code_space() {
    let feeds: Vec<Vec<Value>> = (0..TASKS).map(feed).collect();
    let distinct: HashSet<&Value> = feeds.iter().flatten().collect();
    for threads in [1, 4] {
        let dict = Arc::new(Dictionary::new());
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
        assert_eq!(snapshot.len(), distinct.len(), "threads = {threads}");
        assert_eq!(snapshot.iter().collect::<HashSet<_>>().len(), snapshot.len(), "a duplicate");
        for (code, v) in snapshot.iter().enumerate() {
            assert_eq!(dict.code_of(v), Some(code as u32), "{v} at {threads} threads");
        }
        for (col, fed) in columns.iter().zip(&feeds) {
            assert_eq!(col.len(), fed.len());
            assert!(col.codes().iter().all(|code| (code as usize) < snapshot.len()));
            let decoded: Vec<&Value> =
                col.codes().iter().map(|code| &snapshot[code as usize]).collect();
            assert!(decoded.iter().copied().eq(fed), "threads = {threads}");
        }
    }
}

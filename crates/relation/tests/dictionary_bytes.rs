//! `Dictionary::heap_bytes` and `Relation::heap_bytes` against the
//! allocator.
//!
//! The accessors compute heap bytes from capacities: a dictionary's value
//! table and index, a relation's columns and distinct dictionaries. This
//! binary installs a counting allocator and pins those figures to exactly
//! the bytes held — what building left live on the heap, and what
//! dropping frees — for both types, sorted, indexed and trimmed, an Int
//! table narrow and widened, and a relation as built and after its
//! dictionaries index and grow. The counters are thread-local, so
//! allocations of other test threads cannot reach them.

use dcd_relation::{AttrId, Dictionary, Relation, Schema, Value, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    // A thread being torn down has no counter left; nothing reads it then.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// [`System`], counting into [`LIVE`].
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result
// unchanged; the counting beside the call touches a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout` and that `new_size` is a valid non-zero
        // size for its alignment.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const TYPES: [ValueType; 2] = [ValueType::Int, ValueType::Str];

/// The `k`-th value of a feed of type `ty`: ascending in `k` when
/// `ascending`, else every pair swapped (the second value below the
/// first); one in nine is `Null`, and strings run to a few dozen bytes.
fn value(ty: ValueType, k: usize, ascending: bool) -> Value {
    let k = if ascending { k } else { k ^ 1 };
    match ty {
        _ if k % 9 == 4 => Value::Null,
        ValueType::Int => Value::Int(k as i64 * 3 - 5_000),
        ValueType::Str => Value::str(format!("{k:06}{}", "é".repeat(k % 17))),
    }
}

/// What `dict` frees when it is dropped: every byte it holds.
fn freed_by_drop(dict: Dictionary) -> usize {
    let before = live();
    drop(dict);
    (before - live()) as usize
}

/// A dictionary interned from `feed` on this thread, and the bytes that
/// left live.
fn interned(ty: ValueType, feed: &[Value]) -> (Dictionary, usize) {
    let before = live();
    let dict = Dictionary::new(ty);
    for v in feed {
        dict.intern(v);
    }
    let kept = (live() - before) as usize;
    (dict, kept)
}

#[test]
fn heap_bytes_are_what_interning_keeps_and_a_drop_frees() {
    for ty in TYPES {
        for (ascending, n) in [true, false].into_iter().flat_map(|a| [(a, 0), (a, 1), (a, 7_000)]) {
            let feed: Vec<Value> = (0..n).map(|k| value(ty, k, ascending)).collect();
            let (dict, kept) = interned(ty, &feed);
            let label = format!("{ty:?}, ascending {ascending}, {n} values");
            // One value, or ascending ones, keep the dictionary sorted.
            let sorted = ascending || n < 2;
            assert_eq!((dict.is_sorted(), dict.is_indexed()), (sorted, !sorted), "{label}");
            assert_eq!(dict.heap_bytes(), kept, "{label}");
            let copy = dict.clone();
            assert_eq!(freed_by_drop(dict), kept, "{label}");
            // A deep clone holds what it reports too.
            let copy_bytes = copy.heap_bytes();
            assert_eq!(freed_by_drop(copy), copy_bytes, "{label}: the clone");
        }
    }
}

#[test]
fn a_trimmed_dictionary_holds_what_it_reports_before_and_after_its_index() {
    for ty in TYPES {
        for ascending in [true, false] {
            let schema = Schema::builder("d").attr("v", ty).key(&[]).build().unwrap();
            let rows = (0..5_000).map(|k| vec![value(ty, k, ascending)]).collect();
            let built = Relation::from_rows(schema, rows).unwrap();
            let dict = built.dictionary(AttrId(0)).clone();
            drop(built);
            let dict = Arc::into_inner(dict).expect("the relation was the other owner");
            let label = format!("{ty:?}, ascending {ascending}");
            assert_eq!((dict.is_sorted(), dict.is_indexed()), (ascending, false), "{label}");
            // Trimmed: the table holds exactly its entries, an Int value
            // as its 4-byte offset.
            let table = match ty {
                ValueType::Int => 4 * dict.len(),
                ValueType::Str => {
                    let bytes: usize =
                        dict.snapshot().iter().filter_map(Value::as_str).map(str::len).sum();
                    bytes + 4 * dict.len()
                }
            };
            assert_eq!(dict.heap_bytes(), table, "{label}");
            assert_eq!(freed_by_drop(dict.clone()), table, "{label}: a clone");
            // The index `ensure_indexed` builds (none while sorted) and
            // the appends after it are counted as they are allocated.
            let before = live();
            dict.ensure_indexed();
            for k in 5_000..6_000 {
                dict.intern(&value(ty, k, ascending));
            }
            let grown = (live() - before) as usize;
            assert_eq!(dict.is_indexed(), !ascending, "{label}");
            assert_eq!(dict.heap_bytes(), table + grown, "{label}: indexed");
            let bytes = dict.heap_bytes();
            assert_eq!(freed_by_drop(dict), bytes, "{label}: indexed");
        }
    }
}

/// `n` non-ascending Int values (every pair swapped, one in nine `Null`)
/// within 2³¹ of the first, with `i64::MAX` interned halfway when `widen`:
/// the table is 4 bytes a value until that value widens it to 8.
fn int_feed(n: usize, widen: bool) -> Vec<Value> {
    let mut feed: Vec<Value> = (0..n).map(|k| value(ValueType::Int, k, false)).collect();
    if widen {
        feed.insert(n / 2, Value::Int(i64::MAX));
    }
    feed
}

#[test]
fn an_int_table_holds_4_bytes_a_value_until_it_widens_and_its_index_4_bytes_a_bucket() {
    let schema = Schema::builder("d").attr("v", ValueType::Int).key(&[]).build().unwrap();
    for widen in [false, true] {
        let per_value = if widen { 8 } else { 4 };
        let feed = int_feed(6_000, widen);
        let (dict, kept) = interned(ValueType::Int, &feed);
        assert!(dict.is_indexed() && !dict.is_sorted(), "widen {widen}");
        let want = per_value * dict.capacity() + 4 * dict.index_slots();
        assert_eq!((dict.heap_bytes(), kept), (want, want), "widen {widen}");
        assert_eq!(freed_by_drop(dict), kept, "widen {widen}");
        // Built from rows: trimmed and unindexed, then indexed again.
        let rows = feed.iter().map(|v| vec![v.clone()]).collect();
        let built = Relation::from_rows(schema.clone(), rows).unwrap();
        let dict = built.dictionary(AttrId(0)).clone();
        drop(built);
        let dict = Arc::into_inner(dict).expect("the relation was the other owner");
        assert_eq!(dict.heap_bytes(), per_value * dict.len(), "widen {widen}: trimmed");
        let before = live();
        dict.ensure_indexed();
        assert_eq!((live() - before) as usize, 4 * dict.index_slots(), "widen {widen}");
        let want = per_value * dict.len() + 4 * dict.index_slots();
        assert_eq!(dict.heap_bytes(), want, "widen {widen}: indexed");
        assert_eq!(freed_by_drop(dict), want, "widen {widen}: indexed");
    }
}

/// What `rel` frees when it is dropped: with its schema held elsewhere,
/// its columns and the dictionaries it alone owns.
fn freed_by_relation_drop(rel: Relation) -> usize {
    let before = live();
    drop(rel);
    (before - live()) as usize
}

#[test]
fn a_relation_holds_what_it_reports_and_a_drop_frees() {
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("name", ValueType::Str)
        .attr("phn", ValueType::Int)
        .key(&[])
        .build()
        .unwrap();
    let row = |k: usize| {
        let phn = Value::Int(1_000_000 + (k as i64 * 7_919) % 9_000_000);
        vec![Value::Int(k as i64), value(ValueType::Str, k, false), phn]
    };
    for n in [0, 1, 7_000] {
        let built = Relation::from_rows(schema.clone(), (0..n).map(row).collect()).unwrap();
        let bytes = built.heap_bytes();
        assert_eq!(freed_by_relation_drop(built), bytes, "{n} rows as built");
        // Indexed by lookups and grown by appends, it still frees what it
        // reports.
        let mut grown = Relation::from_rows(schema.clone(), (0..n).map(row).collect()).unwrap();
        for (a, v) in (0..3).zip(row(n + 1)) {
            grown.dictionary(AttrId(a)).code_of(&v);
        }
        grown.extend_rows((n..n + 500).map(row).collect()).unwrap();
        let bytes = grown.heap_bytes();
        assert_eq!(freed_by_relation_drop(grown), bytes, "{n} rows grown");
    }
    // Two columns over one dictionary count it once.
    let pair = Schema::builder("p")
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .key(&[])
        .build()
        .unwrap();
    let shared = Arc::new(Dictionary::new(ValueType::Int));
    let mut rel =
        Relation::with_dictionaries(pair.clone(), vec![shared.clone(), shared], 0).unwrap();
    rel.extend_rows((0..300).map(|k| vec![Value::Int(k), Value::Int(-k)]).collect()).unwrap();
    let bytes = rel.heap_bytes();
    let once = rel.dictionary(AttrId(0)).heap_bytes();
    assert!(bytes > once && bytes < 2 * once, "{bytes} counts {once} once");
    assert_eq!(freed_by_relation_drop(rel), bytes);
    // Columns that widened twice — one byte a code, then two, then four —
    // hold and free their codes at the width they ended at, over the
    // capacity each widening kept.
    let mut wide = Relation::new(pair.clone());
    let mut widths = Vec::new();
    for end in [200, 60_000, 70_000] {
        let from = wide.len() as i64;
        wide.extend_rows((from..end).map(|k| vec![Value::Int(k), Value::Int(k % 7)]).collect())
            .unwrap();
        widths.push((wide.column(AttrId(0)).width(), wide.column(AttrId(1)).width()));
    }
    assert_eq!(widths, [(1, 1), (2, 1), (4, 1)]);
    let codes: usize = wide.columns().iter().map(|c| c.capacity() * c.width()).sum();
    assert_eq!(codes, wide.capacity() * 4 + wide.column(AttrId(1)).capacity());
    let bytes = wide.heap_bytes();
    assert_eq!(freed_by_relation_drop(wide), bytes);
}

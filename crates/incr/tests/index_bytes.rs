//! `ViolationIndex::heap_bytes` against the allocator.
//!
//! The accessor computes the index's bytes from the capacities of its
//! slots, member lists, key codes, free list, matched-pattern lists and
//! position tables; this binary installs a counting allocator and pins
//! that figure to exactly the bytes the index holds — what its build
//! left live on the heap, what each batch of a stream added or gave
//! back, and what dropping it frees. The relation stays violation-free
//! and every key holds one RHS code, so neither the live violation set
//! nor a spilled RHS count (both outside `heap_bytes`) holds a byte. The
//! counters are thread-local, so allocations of other test threads
//! cannot reach them.

use dcd_cfd::{parse_cfd, Cfd, SimpleCfd};
use dcd_incr::ViolationIndex;
use dcd_relation::{
    vals, Dictionary, Relation, RelationDelta, Schema, Tuple, TupleId, Value, ValueType,
};
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

/// SplitMix64: the stream derives from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("cc", ValueType::Int)
        .attr("zip", ValueType::Str)
        .attr("street", ValueType::Str)
        .build()
        .unwrap()
}

/// A row whose street is a function of its `(cc, zip)` key, so no key
/// ever holds two RHS codes.
fn row(cc: u64, zip: u64) -> Vec<Value> {
    let street = format!("s{}", (cc * 5 + zip) % 7);
    vals![cc as i64, format!("z{zip}"), street]
}

/// One CFD whose keys match four distinct pattern lists: `(44, z1)` all
/// three patterns, `(44, _)` the first and last, `(_, z1)` the last two,
/// any other key the last alone.
fn cfd(s: &Arc<Schema>) -> SimpleCfd {
    let tableau =
        ["([cc=44, zip] -> [street])", "([cc, zip=z1] -> [street])", "([cc, zip] -> [street])"];
    let parts: Vec<Cfd> = tableau.iter().map(|p| parse_cfd(s, "p", p).unwrap()).collect();
    let merged = Cfd::merge("phi", &parts.iter().collect::<Vec<_>>()).unwrap();
    merged.simplify().pop().unwrap()
}

fn full_rows(rel: &Relation) -> Vec<(TupleId, Box<[u32]>)> {
    (0..rel.len())
        .map(|i| {
            let codes: Box<[u32]> = rel.columns().iter().map(|c| c.codes().get(i)).collect();
            (rel.tids()[i], codes)
        })
        .collect()
}

#[test]
fn heap_bytes_are_what_the_build_and_each_batch_keep_and_a_drop_frees() {
    let s = schema();
    let simple = cfd(&s);
    // 3 000 rows over cc 20..80 (44 among them) and zips z0..z4.
    let rows: Vec<Vec<Value>> = (0..3000).map(|i| row(20 + i % 60, i % 5)).collect();
    let mut rel = Relation::from_rows(s.clone(), rows).unwrap();
    let dicts: Vec<Arc<Dictionary>> = rel.columns().iter().map(|c| c.dict().clone()).collect();

    let before = live();
    let mut index = ViolationIndex::new(simple.clone(), &dicts);
    // The CFD's copy and its compiled tableau: outside `heap_bytes`.
    let fixed = live() - before;
    assert_eq!(index.heap_bytes(), 0, "an empty index holds no key and no row");

    let built = full_rows(&rel);
    let before = live();
    index.apply(&[], &built);
    assert_eq!(index.indexed_rows(), 3000);
    assert_eq!(index.heap_bytes() as isize, live() - before, "the build");

    // Half deletes, half inserts over a wider cc range: keys are opened,
    // emptied and their slots reused; the relation's own interning runs
    // outside the counted calls.
    let mut rng = Rng(5);
    let mut next = 10_000;
    let mut moved = 0;
    for batch in 0..40 {
        let deletes: Vec<TupleId> =
            rel.tids().iter().copied().filter(|_| rng.below(40) == 0).collect();
        let inserts: Vec<Tuple> = deletes
            .iter()
            .map(|_| {
                next += 1;
                Tuple::new(TupleId(next), row(20 + rng.below(80), rng.below(5)))
            })
            .collect();
        let effect = rel.apply_delta(&RelationDelta::new(inserts, deletes.clone())).unwrap();
        let held = index.heap_bytes();
        let before = live();
        index.apply(&deletes, &effect.inserted);
        let kept = live() - before;
        assert_eq!(index.heap_bytes() as isize - held as isize, kept, "batch {batch}");
        moved += usize::from(kept != 0);
    }
    assert!(moved > 0, "the stream changed what the index holds");
    assert!(index.current().is_empty(), "the relation stayed violation-free");

    let held = index.heap_bytes() as isize;
    let before = live();
    drop(index);
    assert_eq!(before - live(), fixed + held, "a drop frees the index's bytes and the CFD's");
}

//! Helpers shared by the property suites. Each suite compiles this module
//! and uses part of it.
#![allow(dead_code)]

use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// The chunk size a case lays its relations out in
/// ([`Relation::with_chunk_rows`]): 1 to 64 rows, so most generated
/// relations cross seams somewhere new and some fit one chunk.
pub fn arb_chunk_rows() -> impl Strategy<Value = NonZeroUsize> {
    (1..65usize).prop_map(|n| NonZeroUsize::new(n).expect("drawn from 1..65"))
}

/// `n` rows per chunk, for the fixed layouts the suites also read.
pub fn chunk_rows(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("a chunk holds at least one row")
}

/// Interns `rel.len() + 1` integers no row holds into every dictionary
/// `rel` shares, through a relation holding the same `Arc`s (every
/// attribute must be an `Int`). The rows keep their codes, but no key
/// over one column or more fits a slot table any more: every scan of
/// them hashes.
pub fn grow_dictionaries(rel: &Relation) {
    let mut sibling = rel.with_capacity_like(rel.len() + 1);
    for k in 0..=rel.len() {
        sibling.push(vec![Value::Int(1000 + k as i64); rel.schema().arity()]).unwrap();
    }
}

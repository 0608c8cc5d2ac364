//! Helpers shared by the property suites.

use distributed_cfd::prelude::*;

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

//! Helpers shared by the property suites. Each suite compiles this module
//! and uses part of it.
#![allow(dead_code)]

use distributed_cfd::prelude::*;

/// Interns `rel.len() + 1` values no row holds into every dictionary
/// `rel` shares, through a relation holding the same `Arc`s: integers
/// from 1000 up into an `Int` attribute, `"~grown-k"` strings into a `Str`
/// one. The rows keep their codes, but no key over one column or more
/// fits a slot table any more: every scan of them hashes.
pub fn grow_dictionaries(rel: &Relation) {
    let schema = rel.schema().clone();
    let mut sibling = rel.with_capacity_like(rel.len() + 1);
    for k in 0..=rel.len() {
        let row = schema
            .attr_ids()
            .map(|a| match schema.attr(a).ty {
                ValueType::Int => Value::Int(1000 + k as i64),
                ValueType::Str => Value::str(format!("~grown-{k}")),
            })
            .collect();
        sibling.push(row).unwrap();
    }
}

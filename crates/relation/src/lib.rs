//! # dcd-relation
//!
//! A minimal, self-contained, in-memory relational engine. It is the
//! substrate on which the rest of the `distributed-cfd` workspace is built:
//! the ICDE 2010 paper runs its per-site detection logic on a local DBMS
//! (MySQL in the authors' testbed); this crate plays that role here.
//!
//! The engine provides exactly what CFD violation detection needs:
//!
//! * [`Value`] — a dynamically typed cell value (`Null` / `Int` / `Str`),
//! * [`Schema`] / [`Attribute`] — named, typed attributes with key metadata,
//! * [`Relation`] / [`Tuple`] — dictionary-encoded columnar storage with
//!   stable tuple identifiers; owned value rows go in and are decoded on
//!   demand,
//! * [`Dictionary`] / [`Column`] — the per-attribute interning store that
//!   turns value hashing/comparison into dense `u32` code arithmetic
//!   (see [`store`]),
//! * [`Predicate`] — selection predicates in disjunctive normal form with a
//!   sound satisfiability test (used for the paper's "partitioning
//!   condition" optimization, §IV-A),
//! * [`ops`] — the code-level group key ([`ops::CodeKey`]), its flat
//!   code space and the per-scan group-id table ([`ops::CodeMemo`]), and
//!   bag projection,
//! * [`fxhash`] — a fast, non-cryptographic hasher for hot group-by paths,
//! * [`table`] — the one open-addressing table ([`table::PositionTable`]),
//!   under the dictionaries' value → code index and `dcd_incr`'s
//!   violation index.
//!
//! The design intentionally avoids query planning: CFD detection on a
//! centralized database compiles to a fixed pair of scans/aggregations
//! (Fan et al., TODS 2008), so a handful of physical operators suffices.
//!
//! ## Example
//!
//! ```
//! use dcd_relation::{Schema, ValueType, Relation, Value, vals};
//!
//! let schema = Schema::builder("emp")
//!     .attr("id", ValueType::Int)
//!     .attr("name", ValueType::Str)
//!     .key(&["id"])
//!     .build()
//!     .unwrap();
//! let mut rel = Relation::new(schema.clone());
//! rel.push(vals![1, "Sam"]).unwrap();
//! rel.push(vals![2, "Mike"]).unwrap();
//! assert_eq!(rel.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// A panic is either an internal invariant, named at its site with
// `#[expect(.., reason = "internal invariant: ..")]`, or input reaches it
// and it is a typed error instead — save where that error would change a
// public signature, and its `#[expect]` says so. Tests are exempt
// (`clippy.toml`).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod delta;
mod error;
pub mod fxhash;
pub mod ops;
mod predicate;
mod relation;
mod schema;
pub mod store;
pub mod table;
mod tuple;
mod value;

pub use delta::{DeltaEffect, RelationDelta};
pub use error::RelationError;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use predicate::{Atom, CmpOp, Conjunction, Predicate};
pub use relation::{EncodedDelta, PendingDelta, Relation};
pub use schema::{AttrId, Attribute, Schema, SchemaBuilder, ValueType};
pub use store::{Codes, Column, Dictionary, DEFAULT_CHUNK_ROWS, NO_CODE, WILDCARD_CODE};
pub use tuple::{Tuple, TupleId};
pub use value::Value;

/// Builds a `Vec<Value>` from a comma-separated list of literals.
///
/// Anything implementing `Into<Value>` is accepted; use `Value::Null` for
/// SQL NULL.
///
/// ```
/// use dcd_relation::{vals, Value};
/// let row = vals![1, "abc", Value::Null];
/// assert_eq!(row.len(), 3);
/// ```
#[macro_export]
macro_rules! vals {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::Value::from($v)),*]
    };
}

//! # dcd-incr
//!
//! Incremental violation detection: the first *stateful* execution mode
//! of this workspace. Where every batch detector re-runs from scratch
//! over the full fragments, this crate maintains the violation report
//! under CDC-style insert/delete delta streams — the production setting
//! the ROADMAP's north star names, and a continuously maintained
//! inconsistency measure in the spirit of Parisi & Grant's
//! *Inconsistency Measures for Relational Databases*.
//!
//! Three pieces:
//!
//! * the **delta model** ([`DeltaBatch`], plus
//!   [`RelationDelta`](dcd_relation::RelationDelta) /
//!   [`Relation::apply_delta`](dcd_relation::Relation::apply_delta) in
//!   `dcd-relation`): per-site batches of inserts and deletes,
//!   expressed against the shared dictionaries so every effect is a
//!   code row;
//! * the **violation index** ([`ViolationIndex`]): per compiled CFD, each
//!   LHS key's member multiset and cached violation contribution, found
//!   through two of `dcd_relation`'s position tables, which store each
//!   key and tuple id once — built once, then only the keys a delta
//!   touches are re-validated;
//! * the **delta protocol** ([`IncrementalRun`],
//!   [`VerticalIncrementalRun`]): sites ship only `(tid, codes)` delta
//!   rows (a horizontal site only those matching a pattern of Σ, over
//!   attr(Σ); 4 bytes per cell, through the run's
//!   [`Transfer`](dcd_core::ctx::Transfer)) and per-round manifests to
//!   a fixed coordinator, which maintains the cross-site index — for
//!   horizontal, chained-declustering replicated, and vertical
//!   partitions.
//!
//! The maintained report is pinned (by the workspace property tests) to
//! be identical to full re-detection on the materialized state after
//! every batch, at every pool width.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// A panic is either an internal invariant, named at its site with
// `#[expect(.., reason = "internal invariant: ..")]`, or input reaches it
// and it is a typed error instead. Tests are exempt (`clippy.toml`).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod delta;
mod index;
mod runner;

pub use delta::DeltaBatch;
pub use index::ViolationIndex;
pub use runner::{IncrementalRun, VerticalIncrementalRun, ALGORITHM};

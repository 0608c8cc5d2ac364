//! # dcd-vertical
//!
//! CFD checking in vertically partitioned data — §V of the ICDE 2010
//! paper.
//!
//! A CFD can be checked locally at a site only if all its attributes live
//! in that site's fragment; whether *every* CFD of Σ can be checked
//! locally (possibly via other CFDs implied by Σ) is exactly dependency
//! preservation (Proposition 7). This crate provides:
//!
//! * [`preservation`] — the preservation test `Γ ⊨ Σ`, implemented as a
//!   fragment-restricted two-tuple chase (the classical Beeri–Honeyman
//!   algorithm for FDs, generalized to CFD patterns),
//! * [`refine`] — the minimum refinement problem (Theorem 8: NP-hard):
//!   an exact breadth-first search over augmentation sizes and a greedy
//!   coverage heuristic,
//! * [`detect`] — violation detection in vertical fragments when
//!   shipment *is* needed (the paper defers its algorithms to a later
//!   report and points at semijoin-style reductions; we implement a
//!   coordinator join with constant-based pre-filtering and account all
//!   traffic through `dcd-dist`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod preservation;
pub mod refine;

pub use detect::run_vertical;
pub use preservation::{is_preserved, locally_checkable_at, unpreserved};
pub use refine::{refine_exact, refine_greedy, Augmentation};

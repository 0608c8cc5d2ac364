//! # dcd-complexity
//!
//! Executable companions to the paper's complexity results (§III and
//! Theorem 8 plus the appendix proofs).
//!
//! The NP-completeness theorems are reductions from *minimum set cover*
//! (Theorems 1–4) and *hitting set* (Theorem 8). This crate makes those
//! artifacts runnable:
//!
//! * [`SetCoverInstance`] / [`HittingSetInstance`] — the source
//!   problems; set cover has the exact (branch-and-bound) and greedy
//!   solvers, and a hitting set is solved as the cover of its
//!   transposed instance,
//! * [`mhd_reduction`] / [`mrp_reduction`] — the constructions of
//!   Theorem 1 (minimum-shipment horizontal detection) and Theorem 8
//!   (minimum refinement), built as real schemas/partitions/CFD sets so
//!   tests can check the equivalences the proofs claim on small
//!   instances.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod hitting;
mod reductions;
mod setcover;

pub use hitting::HittingSetInstance;
pub use reductions::{mhd_reduction, mrp_reduction, MhdInstance, MrpInstance};
pub use setcover::SetCoverInstance;

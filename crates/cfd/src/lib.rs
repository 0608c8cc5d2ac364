//! # dcd-cfd
//!
//! Conditional functional dependencies (CFDs) as defined by Fan, Geerts,
//! Jia & Kementsietsidis (TODS 2008) and used as data-quality rules by the
//! ICDE 2010 paper this workspace reproduces.
//!
//! A CFD `φ = R(X → Y, Tp)` couples a standard FD `X → Y` with a *pattern
//! tableau* `Tp`; each pattern tuple restricts the FD to the subset of
//! tuples matching its constants and additionally pins constant values on
//! the right-hand side. This crate provides:
//!
//! * [`pattern`] — pattern values, the match operator `≍`, pattern tuples
//!   and their generality ordering,
//! * [`Cfd`] — the CFD type, normalization to `(X → A, tp)` form
//!   ([`NormalCfd`]), the single-RHS [`SimpleCfd`] form the detection
//!   algorithms consume, and the constant/variable classification of
//!   §IV-A,
//! * [`parse_cfd`] — a small text DSL mirroring the paper's notation, e.g.
//!   `([CC=44, zip] -> [street])`,
//! * [`violation`] — centralized violation detection (the fixed
//!   "SQL technique" of TODS 2008, implemented as hash aggregation):
//!   `Vio(φ, D)` and its projected form `Vioπ`,
//! * [`codes`] — code-native coordinator validation: the same
//!   detection semantics over what the distributed batch detectors
//!   ship from dictionary-sharing fragments — `(tid, codes)` wire rows,
//!   or σ-blocks read where the fragments hold them,
//! * [`kernel`] — the single group-validation kernel both of the above
//!   run: per-group tableau validation ([`judge`]) and σ-style
//!   LHS pattern bucketing ([`LhsIndex`]) written once over packed code
//!   keys and `u32` RHS codes,
//! * [`oracle`] — `Vio`/`Vioπ` transcribed pair by pair from §II-C over
//!   plain values, sharing nothing with the kernel: the reference every
//!   detector is pinned against,
//! * [`implication`] — FD closures and the two-tuple chase deciding
//!   `Σ |= φ` (complete for infinite-domain attributes),
//! * [`AttrSet`] — a compact attribute bitset used throughout.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// A panic is either an internal invariant, named at its site with
// `#[expect(.., reason = "internal invariant: ..")]`, or input reaches it
// and it is a typed error instead. Tests are exempt (`clippy.toml`).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod attrset;
mod cfd;
pub mod codes;
pub mod implication;
pub mod kernel;
pub mod oracle;
mod parse;
pub mod pattern;
pub mod violation;

pub use attrset::AttrSet;
pub use cfd::{Cfd, Fd, NormalCfd, SimpleCfd};
pub use codes::{CodeLayout, CodeRow, ResolvedCfd};
pub use implication::{chase_implies, fd_closure, sigma_implies};
pub use kernel::{judge, Flagged, Judgement, KernelTally, LhsIndex, RhsSpec};
pub use parse::{parse_cfd, ParseError};
pub use pattern::{NormalPattern, PatternTuple, PatternValue};
pub use violation::{
    detect, detect_constants_rows_with, detect_set, detect_simple, detect_simple_strict, satisfies,
    ViolationReport, ViolationSet,
};

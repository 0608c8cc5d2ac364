//! `dcd_lint` — the workspace's own static-analysis pass.
//!
//! The engine's headline guarantees are *determinism* guarantees:
//! reports, ledgers and clocks bit-identical across pool widths,
//! byte-accurate `charge_codes` accounting, incremental ≡ full
//! re-detection. The property-test suites enforce them dynamically, but
//! a dynamic suite only catches an unordered-iteration or
//! stray-accounting regression when a seed happens to hit it.
//! Finkelstein et al.'s *Principles for Inconsistency* observation —
//! consistency erodes through routine shortcuts, not grand design
//! errors — applies to this codebase as much as to the data it checks.
//! This crate is the CI-time gate: a dependency-free tokenizer
//! ([`tokenizer`]) plus a rule engine ([`rules`], [`engine`]) that
//! walks the workspace's own sources and flags the shortcuts.
//!
//! It polices only what neither a type nor a compiler lint can: hash
//! iteration whose order escapes, relaxed atomics outside the audited
//! modules, and a second copy of the group-validation loop. Invariants
//! a type can carry live in the types — see `dcd_core::ctx::RunCtx` for
//! the ledger/clock/trace coupling; the host clock, stray threads and
//! total `Topology`/`Algorithm` dispatch are clippy's (`clippy.toml`,
//! `src/lib.rs`).
//!
//! Run it as `cargo run -p dcd_lint -- check` (add `--format json` for
//! machine-readable output; see `dcd_lint explain <rule>` for per-rule
//! rationale). The exit code is the gate: 0 clean, 1 findings.
//! Suppress a finding inline with
//! `// dcd-lint: allow(<rule>) — <reason>`; the reason is mandatory,
//! reasonless allows are themselves findings, and an allow whose rule
//! no longer fires is flagged as `unused-suppression`. The rule list
//! and the invariant each rule guards are documented in [`rules`] and
//! in the README's "Determinism invariants" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod engine;
pub mod rules;
pub mod source;
pub mod tokenizer;

pub use diag::{render, Diagnostic, Format};
pub use engine::{check_source, check_workspace, Report};
pub use rules::{describe, explain, RULE_IDS};

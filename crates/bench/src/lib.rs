//! # dcd-bench
//!
//! Regenerates the paper's evaluation (§VI, Fig. 3(a)–3(i)) from the
//! simulated §III-B cost model: tuples shipped and response time, both
//! bit-reproducible. Nothing here reads a host clock to produce a
//! number — wall-time measurement is `benchmark/`'s job.
//!
//! * [`workloads`] — scaled builders for the paper's datasets (`cust8`,
//!   `cust16`, `xref8`, `xrefH`), their CFDs and fragmentations.
//! * [`figures`] — one function per subfigure, each returning the same
//!   series the paper plots (x values, per-algorithm y values);
//!   `tests/fig3_claims.rs` asserts the paper's qualitative claim about
//!   each on the exact series.
//!
//! The `experiments` binary prints any figure as a table:
//! `cargo run -p dcd-bench --release --bin experiments -- fig3a`. Sizes
//! default to 1/10 of the paper's (80K instead of 800K); set
//! `DCD_SCALE=1.0` to run at full scale.

#![forbid(unsafe_code)]

pub mod figures;
pub mod workloads;

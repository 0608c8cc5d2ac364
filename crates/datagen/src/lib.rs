//! # dcd-datagen
//!
//! Workload generators standing in for the paper's datasets:
//!
//! * [`cust`] — the CUST sales-records relation of Fan et al. (TODS'08),
//!   regenerated synthetically with realistic (CC, AC, city) pools and
//!   per-country zip→street maps; `cust8`/`cust16` of the paper are
//!   `CustConfig { n_tuples: 800_000 | 1_600_000, .. }`,
//! * [`xref`] — an Ensembl-style genome cross-reference relation with 16
//!   attributes and Zipf-distributed organisms/databases (`xref8`,
//!   `xrefH`),
//! * [`inject_errors`] — controlled error injection so that violation
//!   detection has something to find,
//! * [`update_stream`] — CDC-style update streams (insert/delete mixes
//!   with Zipf-skewed key reuse, routed per site) feeding the incremental
//!   detection subsystem.
//!
//! All generators are deterministic given a seed: each draws from one
//! private xoshiro256++ generator and, for skewed attributes, a private
//! inverse-CDF Zipf sampler over it. That bit stream is the data — every
//! Fig. 3 table, benchmark workload and delta stream — so
//! `tests/seeded_datasets.rs` pins it. Clean data satisfies the
//! accompanying CFDs by construction (values derive from lookup
//! functions); noise then breaks a controlled fraction of tuples.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod cust;
mod noise;
mod rng;
mod stream;
pub mod xref;
mod zipf;

pub use cust::CustConfig;
pub use noise::inject_errors;
pub use stream::{update_stream, UpdateStreamConfig};
pub use xref::XrefConfig;

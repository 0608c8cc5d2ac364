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
//! * [`noise`] — controlled error injection so that violation detection
//!   has something to find,
//! * [`stream`] — CDC-style update streams (insert/delete mixes with
//!   Zipf-skewed key reuse, routed per site) feeding the incremental
//!   detection subsystem,
//! * [`zipf`] — a small inverse-CDF Zipf sampler.
//!
//! All generators are deterministic given a seed. Clean data satisfies
//! the accompanying CFDs by construction (values derive from lookup
//! functions); noise then breaks a controlled fraction of tuples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cust;
pub mod noise;
pub mod stream;
pub mod xref;
pub mod zipf;

pub use cust::CustConfig;
pub use noise::inject_errors;
pub use stream::{update_stream, UpdateStreamConfig};
pub use xref::XrefConfig;
pub use zipf::Zipf;

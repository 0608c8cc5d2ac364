//! # dcd-core
//!
//! The primary contribution of Fan, Geerts, Ma & Müller, *Detecting
//! Inconsistencies in Distributed Data* (ICDE 2010): algorithms that find
//! CFD violations in horizontally partitioned, distributed relations
//! while reducing data shipment and response time.
//!
//! ## Single-CFD algorithms (§IV-B)
//!
//! One engine, [`run_batch`], under three [`CoordinatorStrategy`]s:
//!
//! * `CTRDETECT` ([`Central`](CoordinatorStrategy::Central)) — one
//!   coordinator for the whole CFD, chosen as the site with the most
//!   matching tuples (it would otherwise ship the most);
//! * `PATDETECTS` ([`MinShipment`](CoordinatorStrategy::MinShipment)) —
//!   one coordinator *per pattern tuple*, chosen to minimize total
//!   shipment;
//! * `PATDETECTRT`
//!   ([`MinResponseTime`](CoordinatorStrategy::MinResponseTime)) — one
//!   coordinator per pattern tuple, chosen greedily to minimize the
//!   §III-B response-time estimate.
//!
//! All three ship each tuple attribute at most once, check constant CFDs
//! locally without any shipment (Proposition 5), skip sites whose
//! fragmentation predicate contradicts a pattern's constants (the
//! partitioning condition, §IV-A), and partition tuples by the Lemma 6 σ
//! function ([`sigma`]).
//!
//! ## Multi-CFD algorithms (§IV-C)
//!
//! * `SEQDETECT` ([`run_seq`]) — pipelined one-CFD-at-a-time
//!   processing;
//! * `CLUSTDETECT` ([`run_clust`]) — clusters CFDs with
//!   containment-related LHSs and ships each tuple once per *cluster*
//!   instead of once per CFD.
//!
//! Every engine accumulates into one [`RunCtx`] ([`ctx`]): the
//! shipment ledger, the site clocks and the phase trace move together
//! or not at all.
//!
//! ## Optimizations
//!
//! * [`mining`] — for wildcard-heavy CFDs (e.g. plain FDs), mines closed
//!   frequent LHS patterns per fragment and refines the tableau so the
//!   per-pattern algorithms regain their parallelism (§IV-B, "impact of
//!   the presence of wildcards", evaluated in Fig. 3(e));
//! * [`exact`] — an exhaustive minimum-shipment search for tiny
//!   instances, the yardstick the NP-hardness results (§III) say cannot
//!   scale, used to validate the heuristics in tests.
//!
//! ## §VIII future work, realized
//!
//! * [`hybrid`] — detection under hybrid (horizontal × vertical)
//!   fragmentation: per-cell vertical gather followed by the standard
//!   horizontal machinery;
//! * [`replicated`] — replica-aware coordinator assignment that reads
//!   fragments locally wherever a copy exists (degenerates to
//!   `PATDETECTS` at replication factor 1; ships nothing at factor n).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod ctx;
pub mod exact;
pub mod hybrid;
pub mod local;
pub mod mining;
pub mod multi;
pub mod replicated;
pub mod report;
pub mod runner;
pub mod sigma;

pub use config::{ComputeModel, RunConfig};
pub use ctx::RunCtx;
pub use exact::min_shipment_exhaustive;
pub use hybrid::run_hybrid;
pub use mining::{mine_patterns, MinedTableau, MiningConfig};
pub use multi::{run_clust, run_seq};
pub use replicated::run_replicated;
pub use report::Detection;
pub use runner::{run_batch, CoordinatorStrategy};

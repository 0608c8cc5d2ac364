//! # distributed-cfd
//!
//! A Rust reproduction of **Fan, Geerts, Ma & Müller, "Detecting
//! Inconsistencies in Distributed Data" (ICDE 2010)**: detecting
//! violations of conditional functional dependencies (CFDs) in relations
//! that are fragmented — horizontally or vertically — and distributed
//! across sites, while minimizing data shipment or response time.
//!
//! This crate is a facade re-exporting the workspace, plus the one
//! public detection API:
//!
//! * [`api`] — [`DetectRequest`]: one code-native request object over
//!   every topology ([`Topology`]) and algorithm ([`Algorithm`]),
//!   batch (`run()` → [`Detection`](dcd_core::Detection)) or
//!   incremental (`session()` → [`IncrementalSession`]),
//! * [`relation`] — the in-memory relational engine substrate,
//! * [`cfd`] — CFDs: pattern tableaux, centralized detection, implication,
//! * [`dist`] — fragmentation, the shipment ledger and the cost model,
//! * [`core`] — the paper's detection algorithms (`CTRDETECT`,
//!   `PATDETECTS`, `PATDETECTRT`, `SEQDETECT`, `CLUSTDETECT`, mining),
//! * [`incr`] — incremental detection: delta streams, the persistent
//!   violation index and the code-shipped delta protocol,
//! * [`vertical`] — dependency preservation and minimum refinement,
//! * [`obs`] — deterministic observability: the per-run metrics
//!   registry, Prometheus-style exposition, and simulated-clock traces,
//! * [`complexity`] — executable NP-hardness artifacts,
//! * [`datagen`] — the CUST / XREF workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use distributed_cfd::prelude::*;
//!
//! // The EMP relation of the paper's Fig. 1(a), as a workload would
//! // build it: schema, rows, a CFD, a fragmentation — then one
//! // DetectRequest, whatever the topology or algorithm.
//! let schema = Schema::builder("emp")
//!     .attr("id", ValueType::Int)
//!     .attr("CC", ValueType::Int)
//!     .attr("zip", ValueType::Str)
//!     .attr("street", ValueType::Str)
//!     .key(&["id"])
//!     .build()?;
//! let rel = Relation::from_rows(schema.clone(), vec![
//!     vals![1, 44, "EH4 8LE", "Mayfield"],
//!     vals![2, 44, "EH4 8LE", "Crichton"],  // violates cfd1 with t1
//!     vals![3, 31, "1012 WR", "Muntplein"],
//! ])?;
//! let cfd = parse_cfd(&schema, "cfd1", "([CC=44, zip] -> [street])")?;
//!
//! // Distribute over three sites and detect with PATDETECTS. Sites
//! // ship (tid, codes) rows — 4 bytes per cell — never tuple payloads.
//! let partition = HorizontalPartition::round_robin(&rel, 3)?;
//! let detection = DetectRequest::over(partition)
//!     .cfd(cfd)
//!     .algorithm(Algorithm::PatDetectS)
//!     .run()?;
//! assert_eq!(detection.violations.all_tids().len(), 2);
//! // One-line report, now with control traffic:
//! // `PATDETECTS: 2 violating tuples (1 patterns), shipped 2 tuples
//! //  (8 cells, 32 B), 6 control msgs (48 B), response 0.0000s`.
//! println!("{detection}");
//! // Every run also carries its metrics and trace:
//! println!("{}", detection.metrics.expose()); // Prometheus-style text
//! let _chrome_json = detection.trace.chrome_trace_json();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// `Topology` and `Algorithm` are dispatched in this crate and nowhere
// else outside tests: a `_ =>` arm over them would let a new variant
// inherit another's behaviour instead of failing to compile. (The
// second lint is the first one's case of a `_` that stands for exactly
// one variant today.)
#![deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]

pub mod api;

pub use api::{Algorithm, DetectRequest, IncrementalSession, Topology};
pub use dcd_cfd as cfd;
pub use dcd_complexity as complexity;
pub use dcd_core as core;
pub use dcd_datagen as datagen;
pub use dcd_dist as dist;
pub use dcd_incr as incr;
pub use dcd_obs as obs;
pub use dcd_relation as relation;
pub use dcd_vertical as vertical;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use crate::api::{Algorithm, DetectRequest, IncrementalSession, Topology};
    pub use dcd_cfd::{
        detect, detect_set, detect_simple, parse_cfd, satisfies, Cfd, CodeLayout, NormalPattern,
        PatternTuple, PatternValue, SimpleCfd, ViolationReport, ViolationSet,
    };
    pub use dcd_core::{
        mine_patterns, CoordinatorStrategy, Detection, MinedTableau, MiningConfig, RunConfig,
    };
    pub use dcd_dist::{
        CostModel, Fragment, HorizontalPartition, HybridPartition, ReplicatedPartition,
        ShipmentLedger, SiteClocks, SiteId, VFragment, VerticalPartition, CODE_BYTES, TID_CELLS,
    };
    pub use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun, ViolationIndex};
    pub use dcd_obs::{host_registry, MetricsRegistry, RunTrace, SampleValue, Span};
    pub use dcd_relation::{
        vals, Atom, CmpOp, Conjunction, DeltaEffect, Predicate, Relation, RelationDelta, Schema,
        Tuple, TupleId, Value, ValueType,
    };
    pub use dcd_vertical::{is_preserved, refine_exact, refine_greedy};
}

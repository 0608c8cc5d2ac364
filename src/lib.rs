//! # distributed-cfd
//!
//! A Rust reproduction of **Fan, Geerts, Ma & Müller, "Detecting
//! Inconsistencies in Distributed Data" (ICDE 2010)**: detecting
//! violations of conditional functional dependencies (CFDs) in relations
//! that are fragmented — horizontally or vertically — and distributed
//! across sites, while minimizing data shipment or response time.
//!
//! This crate is the one public detection API, and nothing else:
//!
//! * [`api`] — [`DetectRequest`]: one code-native request object over
//!   every topology ([`Topology`]) and algorithm ([`Algorithm`]),
//!   checked once by `plan()` into a [`Plan`] that runs batch
//!   (`run()` → [`Detection`](dcd_core::Detection), which cannot fail)
//!   or incremental
//!   (`session()` → [`IncrementalSession`]),
//! * [`prelude`] — the request's vocabulary: schemas, relations and
//!   values, the four partitions, CFDs and their reports, the run
//!   configuration and cost model, the observability types, and
//!   centralized detection, mining and dependency preservation.
//!
//! The engines beneath the façade (`run_batch`, `run_seq`, `run_clust`,
//! the incremental runs, …) are public in their own `dcd_*` crates, for
//! the workspace's tests and benchmark; they are not re-exported here, so
//! every distributed run through this crate passes
//! [`DetectRequest::plan`]'s checks (the prelude's centralized `detect`
//! does not check a CFD's schema yet). Neither the engines' functions nor
//! a session's variants are reachable:
//!
//! ```compile_fail,E0432
//! use distributed_cfd::core::run_batch;
//! ```
//!
//! ```compile_fail,E0599
//! use distributed_cfd::prelude::*;
//!
//! fn is_horizontal(session: &IncrementalSession) -> bool {
//!     matches!(session, IncrementalSession::Horizontal(_))
//! }
//! ```
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
//!     .plan()? // checks the cost model, the partition and every CFD, once
//!     .run();
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

pub use api::{Algorithm, DetectRequest, IncrementalSession, Plan, Topology};

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use crate::api::{Algorithm, DetectRequest, IncrementalSession, Plan, Topology};
    pub use dcd_cfd::{
        detect, detect_set, detect_simple, parse_cfd, satisfies, Cfd, NormalPattern, PatternTuple,
        PatternValue, SimpleCfd, ViolationReport, ViolationSet,
    };
    pub use dcd_core::{mine_patterns, CoordinatorStrategy, Detection, MiningConfig, RunConfig};
    pub use dcd_dist::{
        CostModel, Fragment, HorizontalPartition, HybridPartition, ReplicatedPartition, SiteId,
        VFragment, VerticalPartition, CODE_BYTES, TID_CELLS,
    };
    pub use dcd_incr::DeltaBatch;
    pub use dcd_obs::{MetricsRegistry, RunTrace, SampleValue, Span};
    pub use dcd_relation::{
        vals, Atom, CmpOp, Conjunction, Predicate, Relation, RelationDelta, Schema, Tuple, TupleId,
        Value, ValueType,
    };
    pub use dcd_vertical::{is_preserved, refine_exact, refine_greedy};
}

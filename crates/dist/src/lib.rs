//! # dcd-dist
//!
//! The distribution layer of the ICDE 2010 paper: fragmented relations,
//! data-shipment accounting and the response-time cost model that every
//! detection algorithm in this workspace is measured against.
//!
//! Section 2 of the paper defines a distributed database as a relation
//! `D` fragmented into `(D1, …, Dn)` placed at sites `S1 … Sn` —
//! horizontally (`Di = σ_Fi(D)`, [`HorizontalPartition`], [`Fragment`]),
//! vertically (`Di = π_{key ∪ Xi}(D)`, [`VerticalPartition`],
//! [`VFragment`]), or both at once ([`HybridPartition`]); §VIII's
//! replication discussion is realized by [`ReplicatedPartition`].
//! Sections 3–4 then cost a detection run two ways, and this crate holds
//! both meters: the [`ShipmentLedger`] counts every tuple, cell, byte
//! and control message moved between sites (the minimum-data-shipment
//! objective of §III-A, Theorems 1–4), while [`SiteClocks`] simulates
//! per-site wall clocks — local scans and checks advance one site's
//! clock, transfers make receivers wait for senders, statistics
//! exchanges are barriers — so that *response time* is the maximum over
//! per-site clocks, matching the parallel-cost model of §III-B. Both
//! meters are plain data charged through `&mut self`: a run's
//! coordinating thread owns them, and [`pool`] tasks — one
//! `std::thread::scope` per call — return their charges instead of
//! applying them.
//! [`CostModel`] supplies the analytic constants (`scan ≈ c·n`,
//! `check ≈ c·n·log n`, packetized transfer) and the literal §III-B
//! two-phase formula ([`CostModel::paper_cost`]): the maximum shipping
//! time plus the maximum local-work time over all sites.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// A panic is either an internal invariant, named at its site with
// `#[expect(.., reason = "internal invariant: ..")]`, or input reaches it
// and it is a typed error instead. Tests are exempt (`clippy.toml`).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod clocks;
mod cost;
mod horizontal;
mod hybrid;
mod ledger;
pub mod pool;
mod replicated;
mod site;
mod vertical;

pub use clocks::SiteClocks;
pub use cost::CostModel;
pub use horizontal::{Fragment, HorizontalPartition};
pub use hybrid::{HybridCell, HybridPartition};
pub use ledger::{ShipmentLedger, CODE_BYTES, TID_CELLS};
pub use replicated::{chained_holds, ReplicatedPartition};
pub use site::SiteId;
pub use vertical::{GatherPlan, VFragment, VerticalPartition};

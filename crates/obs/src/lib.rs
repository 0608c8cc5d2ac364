//! # dcd-obs
//!
//! Deterministic observability for the detection engine: a
//! dependency-free metrics registry ([`MetricsRegistry`]) — plain data
//! with Prometheus-style text exposition and exact `==` — and
//! phase-level run traces ([`RunTrace`]) timestamped by the *simulated*
//! site clocks and exportable as chrome-trace JSON.
//!
//! Each run owns a registry and a [`RunTrace`] (fields of its `RunCtx`,
//! next to its `ShipmentLedger` and `SiteClocks`), written only by its
//! coordinating thread. Everything recorded there is an order-free
//! integer merge or a single-writer gauge, so a detection's copy is
//! pinned bit-identical across pool widths, exactly like the violation
//! reports. Nothing is process-wide: there is no registry outside a run.
//!
//! This crate is the scrape surface the queued `dcd_serve` service
//! reads verbatim. It depends on nothing, so every layer of the engine
//! can name the registry. No layer holds one of its own: the kernel and
//! the ledger keep plain tallies and write them into a registry the
//! run's owner hands them.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]
// A panic is either an internal invariant, named at its site with
// `#[expect(.., reason = "internal invariant: ..")]`, or input reaches it
// and it is a typed error instead. Tests are exempt (`clippy.toml`).
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod registry;
mod trace;

pub use registry::{LabelSet, MetricsRegistry, SampleValue};
pub use trace::{RunTrace, Span};

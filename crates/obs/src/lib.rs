//! # dcd-obs
//!
//! Deterministic observability for the detection engine: a
//! dependency-free metrics registry ([`MetricsRegistry`]) — plain data
//! with Prometheus-style text exposition and exact `==` — and
//! phase-level run traces ([`RunTrace`]) timestamped by the *simulated*
//! site clocks and exportable as chrome-trace JSON.
//!
//! Two scopes, one contract:
//!
//! * **Sim scope** — each run owns a registry and a [`RunTrace`]
//!   (fields of its `RunCtx`, next to its `ShipmentLedger` and
//!   `SiteClocks`), written only by its coordinating thread. Everything
//!   recorded there is an order-free integer merge or a single-writer
//!   gauge, so a detection's copy is pinned bit-identical across pool
//!   widths, exactly like the violation reports.
//! * **Host scope** — [`host_registry`] is process-wide and records
//!   what the *hardware* did (pool tasks executed); those values count
//!   every run the process makes and are excluded from pinning.
//!
//! This crate is the scrape surface the queued `dcd_serve` service
//! reads verbatim. It depends on nothing, so every layer of the engine
//! can name the registry. No layer holds one of its own: the kernel and
//! the ledger keep plain tallies and write them into a registry the
//! run's owner hands them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod trace;

pub use registry::{host_registry, MetricsRegistry, SampleValue};
pub use trace::{RunTrace, Span};

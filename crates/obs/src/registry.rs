//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus-style text exposition and a JSON snapshot.
//!
//! Determinism contract: every engine-facing instrument is either an
//! **order-free merge** (counters and histograms are `u64` additions,
//! which commute exactly) or **single-writer** (gauges are set once by
//! the coordinating thread), so a registry snapshot taken after a run's
//! pool has joined is bit-identical across pool widths —
//! the same pinning contract the violation reports and the
//! [`ShipmentLedger`](../../dist/src/ledger.rs) obey. Metrics
//! whose value genuinely depends on the host (pool task counts) must go
//! to the process-wide
//! [`host_registry`], which is explicitly outside the pinning contract.
//!
//! # Atomics audit (`Ordering::Relaxed` throughout)
//!
//! Every operation on the instrument cells is `Relaxed`, which is exact
//! — not approximate — for how they are used:
//!
//! * **Writes** are `fetch_add` read-modify-writes (counters, histogram
//!   cells) or plain `store`s from a single writer (gauges). Atomicity
//!   of the RMW alone guarantees no increment is lost, whatever the
//!   ordering; the cells are pure meters and never publish *other*
//!   memory, so no acquire/release edge is needed on the write side.
//! * **Reads** ([`MetricsRegistry::snapshot`] and the `get` accessors)
//!   happen either on the single coordinating thread, or after the
//!   run's pool scope has joined its workers — and that join is a
//!   happens-before edge covering everything the workers did, so the
//!   totals read are complete without any ordering on the loads.
//! * Nothing branches on an in-flight cell value: no synchronization
//!   decision ever hangs off these atomics.
//!
//! This audit is what the module's `#![expect(clippy::disallowed_types)]`
//! stands on; `tests/workspace_invariants.rs` pins this file as the only
//! one that may hold one, and the only one that may spell `Relaxed`.
#![expect(
    clippy::disallowed_types,
    reason = "atomics audit: Relaxed meters read after the pool's join, see the module doc"
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing `u64` counter handle. Cloning shares the
/// cell; a handle made by [`Counter::detached`] counts without being
/// registered anywhere (the no-op default for paths with no observer).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A functional counter not attached to any registry.
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Adds `n` to the counter (an order-free merge).
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge handle (stored as IEEE-754 bits, so
/// snapshots compare exactly). Single-writer by contract: only the
/// coordinating thread sets engine gauges.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A functional gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of **integer** observations, so the sum is
/// an exact order-free `u64` merge (no float accumulation order to
/// pin). Buckets hold upper bounds, ascending; an observation lands in
/// the first bucket whose bound is `>= v`, or in the implicit `+Inf`
/// overflow.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Arc<[u64]>,
    /// One cell per bound plus the `+Inf` overflow cell.
    cells: Arc<[AtomicU64]>,
    sum: Arc<AtomicU64>,
}

impl Histogram {
    /// A functional histogram with the given ascending bucket bounds,
    /// not attached to any registry.
    pub fn detached(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram {
            bounds: bounds.into(),
            cells: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.cells[i].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.cells.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Last-write-wins gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// One metric family: help text, kind, and the label-keyed series.
#[derive(Debug)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set (`{from="0",to="1"}` or `""`).
    series: BTreeMap<String, Instrument>,
}

/// The registry: a cheaply clonable handle to a shared family map.
/// Engines create one per run (next to the ledger and the clocks) and
/// pre-register instrument handles at construction, so the registration
/// `Mutex` never sits on a hot path — hot paths touch only the atomic
/// cells behind the handles they already hold.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    families: Arc<Mutex<BTreeMap<String, Family>>>,
}

/// Renders a label set in caller order: `{a="x",b="y"}`, or `""` when
/// empty. Call sites use one fixed label order per family, so the
/// rendering is a stable series key.
fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{v}\"");
    }
    s.push('}');
    s
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(family.kind, kind, "metric family {name} re-registered as a different kind");
        family.series.entry(render_labels(labels)).or_insert_with(make).clone()
    }

    /// Registers (or retrieves) a counter series and returns its handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Instrument::Counter(Counter::default())
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or retrieves) a gauge series and returns its handle.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self
            .register(name, help, MetricKind::Gauge, labels, || Instrument::Gauge(Gauge::default()))
        {
            Instrument::Gauge(g) => g,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Registers (or retrieves) a histogram series with the given
    /// ascending bucket bounds and returns its handle.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Instrument::Histogram(Histogram::detached(bounds))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!("kind checked by register"),
        }
    }

    /// Sum of every series of a counter family (0 for an absent family).
    pub fn counter_total(&self, name: &str) -> u64 {
        let families = self.families.lock().expect("registry poisoned");
        families.get(name).map_or(0, |f| {
            f.series
                .values()
                .map(|i| match i {
                    Instrument::Counter(c) => c.get(),
                    _ => 0,
                })
                .sum()
        })
    }

    /// A point-in-time copy of every family and series. Taken after a
    /// run's pool has joined, the snapshot is bit-identical across pool
    /// widths (module docs).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let families = self.families.lock().expect("registry poisoned");
        let families = families
            .iter()
            .map(|(name, fam)| FamilySnapshot {
                name: name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                series: fam
                    .series
                    .iter()
                    .map(|(labels, inst)| {
                        let value = match inst {
                            Instrument::Counter(c) => SampleValue::Counter(c.get()),
                            Instrument::Gauge(g) => SampleValue::GaugeBits(g.get().to_bits()),
                            Instrument::Histogram(h) => SampleValue::Histogram {
                                buckets: h
                                    .bounds
                                    .iter()
                                    .copied()
                                    .zip(h.cells.iter().map(|c| c.load(Ordering::Relaxed)))
                                    .collect(),
                                overflow: h
                                    .cells
                                    .last()
                                    .expect("+Inf cell")
                                    .load(Ordering::Relaxed),
                                sum: h.sum(),
                            },
                        };
                        (labels.clone(), value)
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { families }
    }
}

/// One sampled series value. Gauges are held as IEEE-754 bits so
/// snapshot equality is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading, as `f64::to_bits`.
    GaugeBits(u64),
    /// A histogram reading: per-bucket `(upper_bound, count)` pairs,
    /// the `+Inf` overflow count, and the exact integer sum.
    Histogram {
        /// Non-cumulative per-bucket counts, ascending bounds.
        buckets: Vec<(u64, u64)>,
        /// Observations above the last bound.
        overflow: u64,
        /// Exact sum of all observations.
        sum: u64,
    },
}

/// One sampled family.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilySnapshot {
    /// Family name (e.g. `dcd_shipped_tuples_total`).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Instrument kind.
    pub kind: MetricKind,
    /// Rendered label set → value, in label-set order.
    pub series: Vec<(String, SampleValue)>,
}

/// A point-in-time registry copy: comparable (`PartialEq`, exact on
/// gauges via bits), exposable as Prometheus text or JSON. This is the
/// shape the queued `dcd_serve` crate will scrape verbatim.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Every family, in name order.
    pub families: Vec<FamilySnapshot>,
}

/// Formats an `f64` for exposition: integral values render without a
/// trailing `.0` mantissa mismatch risk by using Rust's shortest
/// round-trip `{}` formatting, which is deterministic per bit pattern.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

impl MetricsSnapshot {
    /// The value of one counter family summed over its series.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.name == name)
            .flat_map(|f| &f.series)
            .map(|(_, v)| match v {
                SampleValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// The value of one series (`labels` rendered as registered), if
    /// present.
    pub fn value(&self, name: &str, labels: &str) -> Option<&SampleValue> {
        self.families
            .iter()
            .find(|f| f.name == name)?
            .series
            .iter()
            .find(|(l, _)| l == labels)
            .map(|(_, v)| v)
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` headers
    /// followed by one `name{labels} value` line per series; histograms
    /// expand to cumulative `_bucket{le=..}` lines plus `_sum` and
    /// `_count`.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
            for (labels, value) in &fam.series {
                match value {
                    SampleValue::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", fam.name, labels, c);
                    }
                    SampleValue::GaugeBits(bits) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            fam.name,
                            labels,
                            fmt_f64(f64::from_bits(*bits))
                        );
                    }
                    SampleValue::Histogram { buckets, overflow, sum } => {
                        let inner = labels.trim_start_matches('{').trim_end_matches('}');
                        let sep = if inner.is_empty() { "" } else { "," };
                        let mut cum = 0u64;
                        for (bound, count) in buckets {
                            cum += count;
                            let _ = writeln!(
                                out,
                                "{}_bucket{{{}{}le=\"{}\"}} {}",
                                fam.name, inner, sep, bound, cum
                            );
                        }
                        cum += overflow;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{{}{}le=\"+Inf\"}} {}",
                            fam.name, inner, sep, cum
                        );
                        let _ = writeln!(out, "{}_sum{} {}", fam.name, labels, sum);
                        let _ = writeln!(out, "{}_count{} {}", fam.name, labels, cum);
                    }
                }
            }
        }
        out
    }

    /// The snapshot as a JSON object:
    /// `{"families":[{"name":..,"kind":..,"help":..,"series":[{"labels":..,"value":..},..]},..]}`.
    /// Hand-rendered (the registry is dependency-free); gauge values
    /// appear as their shortest round-trip decimal.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        let mut out = String::from("{\"families\":[");
        for (i, fam) in self.families.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"help\":\"{}\",\"series\":[",
                esc(&fam.name),
                fam.kind.as_str(),
                esc(&fam.help)
            );
            for (j, (labels, value)) in fam.series.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"labels\":\"{}\",\"value\":", esc(labels));
                match value {
                    SampleValue::Counter(c) => {
                        let _ = write!(out, "{c}");
                    }
                    SampleValue::GaugeBits(bits) => {
                        let _ = write!(out, "{}", fmt_f64(f64::from_bits(*bits)));
                    }
                    SampleValue::Histogram { buckets, overflow, sum } => {
                        let _ = write!(out, "{{\"buckets\":[");
                        for (k, (bound, count)) in buckets.iter().enumerate() {
                            if k > 0 {
                                out.push(',');
                            }
                            let _ = write!(out, "[{bound},{count}]");
                        }
                        let _ = write!(out, "],\"overflow\":{overflow},\"sum\":{sum}}}");
                    }
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

/// The process-wide **host-scope** registry: metrics whose values
/// legitimately depend on the host or on scheduling races (pool tasks
/// executed). Explicitly outside
/// the per-run determinism pinning; a scrape surface for the process,
/// not for a run.
pub fn host_registry() -> &'static MetricsRegistry {
    static HOST: OnceLock<MetricsRegistry> = OnceLock::new();
    HOST.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_order_free() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dcd_test_total", "help", &[("site", "0")]);
        let b = reg.counter("dcd_test_total", "help", &[("site", "1")]);
        a.inc(3);
        b.inc(4);
        a.inc(1);
        assert_eq!(a.get(), 4);
        assert_eq!(reg.counter_total("dcd_test_total"), 8);
        // Re-registering the same series returns a handle to the same cell.
        let a2 = reg.counter("dcd_test_total", "help", &[("site", "0")]);
        a2.inc(1);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn gauges_round_trip_bits_exactly() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("dcd_rt_seconds", "response time", &[]);
        g.set(0.1 + 0.2);
        let snap = reg.snapshot();
        assert_eq!(
            snap.value("dcd_rt_seconds", ""),
            Some(&SampleValue::GaugeBits((0.1f64 + 0.2).to_bits()))
        );
    }

    #[test]
    fn histogram_buckets_and_sum_are_exact() {
        let h = Histogram::detached(&[10, 100]);
        for v in [1, 5, 10, 11, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1127);
    }

    #[test]
    fn exposition_renders_every_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("dcd_c_total", "a counter", &[("from", "0"), ("to", "1")]).inc(7);
        reg.gauge("dcd_g", "a gauge", &[]).set(1.5);
        reg.histogram("dcd_h", "a histogram", &[], &[10, 100]).observe(42);
        let text = reg.snapshot().expose();
        assert!(text.contains("# TYPE dcd_c_total counter"));
        assert!(text.contains("dcd_c_total{from=\"0\",to=\"1\"} 7"));
        assert!(text.contains("dcd_g 1.5"));
        assert!(text.contains("dcd_h_bucket{le=\"10\"} 0"));
        assert!(text.contains("dcd_h_bucket{le=\"100\"} 1"));
        assert!(text.contains("dcd_h_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("dcd_h_sum 42"));
        assert!(text.contains("dcd_h_count 1"));
    }

    #[test]
    fn snapshots_compare_exactly_and_serialize() {
        let reg = MetricsRegistry::new();
        reg.counter("dcd_c_total", "c", &[]).inc(2);
        reg.gauge("dcd_g", "g", &[]).set(2.5);
        let a = reg.snapshot();
        let b = reg.snapshot();
        assert_eq!(a, b);
        reg.counter("dcd_c_total", "c", &[]).inc(1);
        assert_ne!(a, reg.snapshot());
        let json = a.to_json();
        assert!(json.starts_with("{\"families\":["));
        assert!(json.contains("\"name\":\"dcd_c_total\""));
        assert!(json.contains("\"value\":2.5"));
    }

    #[test]
    fn host_registry_is_process_wide() {
        let c = host_registry().counter("dcd_host_probe_total", "probe", &[]);
        let before = c.get();
        host_registry().counter("dcd_host_probe_total", "probe", &[]).inc(1);
        assert_eq!(c.get(), before + 1);
    }
}

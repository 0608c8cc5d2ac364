//! The metrics registry: counters, gauges and fixed-bucket histograms
//! as plain data, with Prometheus-style text exposition.
//!
//! A [`MetricsRegistry`] is a map of families, written through
//! `&mut self` and compared with `==`. Determinism contract: every
//! engine family is either an **order-free merge** (counters and
//! histograms are `u64` additions, which commute exactly) or
//! **single-writer** (gauges), and only a run's coordinating thread
//! holds the run's registry — a pool task returns what it counted beside
//! its charge, and the phase body adds it after the join. A run's
//! registry is therefore bit-identical across pool widths, the same
//! pinning contract the violation reports and the shipment ledger obey.
//! Metrics whose value depends on the host (pool task counts) go to the
//! process-wide [`host_registry`], which is outside that contract.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// What kind of instrument a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
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

/// One series' value. Gauges are held as IEEE-754 bits, so equality is
/// exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading, as `f64::to_bits`.
    GaugeBits(u64),
    /// A histogram of **integer** observations, so the sum is an exact
    /// order-free merge: per-bucket `(upper_bound, count)` pairs, the
    /// `+Inf` overflow count, and the sum.
    Histogram {
        /// Non-cumulative per-bucket counts, ascending bounds.
        buckets: Vec<(u64, u64)>,
        /// Observations above the last bound.
        overflow: u64,
        /// Exact sum of all observations.
        sum: u64,
    },
}

/// One metric family: help text, kind, and the label-keyed series.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Family {
    help: String,
    kind: MetricKind,
    /// Keyed by the rendered label set (`{from="0",to="1"}` or `""`).
    series: BTreeMap<String, SampleValue>,
}

/// The registry: families by name. Engines keep one per run, next to
/// the ledger and the clocks, and a `Detection`'s `metrics` is a copy of
/// it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    families: BTreeMap<String, Family>,
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
    pub const fn new() -> Self {
        MetricsRegistry { families: BTreeMap::new() }
    }

    /// The series `name{labels}`, registered as `fresh` if absent.
    ///
    /// # Panics
    /// When `name` is already registered as another kind.
    fn series(
        &mut self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        fresh: impl FnOnce() -> SampleValue,
    ) -> &mut SampleValue {
        if !self.families.contains_key(name) {
            let family = Family { help: help.to_owned(), kind, series: BTreeMap::new() };
            self.families.insert(name.to_owned(), family);
        }
        let family = self.families.get_mut(name).expect("registered above");
        assert_eq!(family.kind, kind, "metric family {name} re-registered as a different kind");
        family.series.entry(render_labels(labels)).or_insert_with(fresh)
    }

    /// Adds `n` to a counter series, registering it at zero first if
    /// absent (`n = 0` registers without counting).
    pub fn add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], n: u64) {
        match self.series(name, help, MetricKind::Counter, labels, || SampleValue::Counter(0)) {
            SampleValue::Counter(c) => *c += n,
            _ => unreachable!("kind checked by series"),
        }
    }

    /// Sets a gauge series, registering it if absent.
    pub fn set(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        let fresh = || SampleValue::GaugeBits(0);
        *self.series(name, help, MetricKind::Gauge, labels, fresh) =
            SampleValue::GaugeBits(v.to_bits());
    }

    /// Records one observation in a histogram series, registering it
    /// with the ascending bucket bounds `bounds` if absent. The
    /// observation lands in the first bucket whose bound is `>= v`, or
    /// in the `+Inf` overflow.
    pub fn observe(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
        v: u64,
    ) {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let fresh = || SampleValue::Histogram {
            buckets: bounds.iter().map(|&b| (b, 0)).collect(),
            overflow: 0,
            sum: 0,
        };
        match self.series(name, help, MetricKind::Histogram, labels, fresh) {
            SampleValue::Histogram { buckets, overflow, sum } => {
                *sum += v;
                match buckets.iter_mut().find(|(bound, _)| *bound >= v) {
                    Some((_, count)) => *count += 1,
                    None => *overflow += 1,
                }
            }
            _ => unreachable!("kind checked by series"),
        }
    }

    /// Sum of every series of a counter family (0 for an absent family).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.families.get(name).map_or(0, |f| {
            f.series
                .values()
                .map(|v| match v {
                    SampleValue::Counter(c) => *c,
                    _ => 0,
                })
                .sum()
        })
    }

    /// The value of one series (`labels` rendered as registered), if
    /// present.
    pub fn value(&self, name: &str, labels: &str) -> Option<&SampleValue> {
        self.families.get(name)?.series.get(labels)
    }

    /// Prometheus-style text exposition: families in name order, each a
    /// `# HELP` / `# TYPE` header followed by one `name{labels} value`
    /// line per series in label-set order; histograms expand to
    /// cumulative `_bucket{le=..}` lines plus `_sum` and `_count`.
    /// Gauges print Rust's shortest round-trip `{}` form, which is
    /// deterministic per bit pattern.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            let _ = writeln!(out, "# HELP {name} {}", fam.help);
            let _ = writeln!(out, "# TYPE {name} {}", fam.kind.as_str());
            for (labels, value) in &fam.series {
                match value {
                    SampleValue::Counter(c) => {
                        let _ = writeln!(out, "{name}{labels} {c}");
                    }
                    SampleValue::GaugeBits(bits) => {
                        let _ = writeln!(out, "{name}{labels} {}", f64::from_bits(*bits));
                    }
                    SampleValue::Histogram { buckets, overflow, sum } => {
                        let inner = labels.trim_start_matches('{').trim_end_matches('}');
                        let sep = if inner.is_empty() { "" } else { "," };
                        let mut cum = 0u64;
                        for (bound, count) in buckets {
                            cum += count;
                            let _ =
                                writeln!(out, "{name}_bucket{{{inner}{sep}le=\"{bound}\"}} {cum}");
                        }
                        cum += overflow;
                        let _ = writeln!(out, "{name}_bucket{{{inner}{sep}le=\"+Inf\"}} {cum}");
                        let _ = writeln!(out, "{name}_sum{labels} {sum}");
                        let _ = writeln!(out, "{name}_count{labels} {cum}");
                    }
                }
            }
        }
        out
    }
}

/// The process-wide **host-scope** registry: metrics whose values
/// legitimately depend on the host or on scheduling races (pool tasks
/// executed). Explicitly outside the per-run determinism pinning; a
/// scrape surface for the process, not for a run. Writers hold the lock
/// for one update.
pub fn host_registry() -> &'static Mutex<MetricsRegistry> {
    static HOST: Mutex<MetricsRegistry> = Mutex::new(MetricsRegistry::new());
    &HOST
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_order_free() {
        let mut reg = MetricsRegistry::new();
        reg.add("dcd_test_total", "help", &[("site", "0")], 3);
        reg.add("dcd_test_total", "help", &[("site", "1")], 4);
        reg.add("dcd_test_total", "help", &[("site", "0")], 1);
        assert_eq!(reg.value("dcd_test_total", "{site=\"0\"}"), Some(&SampleValue::Counter(4)));
        assert_eq!(reg.counter_total("dcd_test_total"), 8);
        // Adding zero registers the series without counting.
        reg.add("dcd_test_total", "help", &[("site", "2")], 0);
        assert_eq!(reg.value("dcd_test_total", "{site=\"2\"}"), Some(&SampleValue::Counter(0)));
        assert_eq!(reg.counter_total("dcd_absent_total"), 0);
    }

    #[test]
    fn gauges_round_trip_bits_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.set("dcd_rt_seconds", "response time", &[], 7.0);
        reg.set("dcd_rt_seconds", "response time", &[], 0.1 + 0.2);
        assert_eq!(
            reg.value("dcd_rt_seconds", ""),
            Some(&SampleValue::GaugeBits((0.1f64 + 0.2).to_bits()))
        );
    }

    #[test]
    fn histogram_buckets_and_sum_are_exact() {
        let mut reg = MetricsRegistry::new();
        for v in [1, 5, 10, 11, 100, 1000] {
            reg.observe("dcd_h", "h", &[], &[10, 100], v);
        }
        let want =
            SampleValue::Histogram { buckets: vec![(10, 3), (100, 2)], overflow: 1, sum: 1127 };
        assert_eq!(reg.value("dcd_h", ""), Some(&want));
    }

    #[test]
    #[should_panic(expected = "re-registered as a different kind")]
    fn a_family_keeps_its_kind() {
        let mut reg = MetricsRegistry::new();
        reg.add("dcd_x", "x", &[], 1);
        reg.set("dcd_x", "x", &[], 1.0);
    }

    #[test]
    fn exposition_renders_every_kind() {
        let mut reg = MetricsRegistry::new();
        reg.add("dcd_c_total", "a counter", &[("from", "0"), ("to", "1")], 7);
        reg.set("dcd_g", "a gauge", &[], 1.5);
        reg.observe("dcd_h", "a histogram", &[], &[10, 100], 42);
        let text = reg.expose();
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
    fn registries_compare_exactly() {
        let mut reg = MetricsRegistry::new();
        reg.add("dcd_c_total", "c", &[], 2);
        reg.set("dcd_g", "g", &[], 2.5);
        let copy = reg.clone();
        assert_eq!(copy, reg);
        reg.add("dcd_c_total", "c", &[], 1);
        assert_ne!(copy, reg);
    }

    #[test]
    fn host_registry_is_process_wide() {
        let read = || host_registry().lock().unwrap().counter_total("dcd_host_probe_total");
        let before = read();
        host_registry().lock().unwrap().add("dcd_host_probe_total", "probe", &[], 1);
        assert_eq!(read(), before + 1);
    }
}

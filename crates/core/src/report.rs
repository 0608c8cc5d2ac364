//! The output of a distributed detection run.

use dcd_cfd::ViolationReport;
use dcd_obs::{MetricsRegistry, RunTrace};
use std::fmt;

/// Everything a detection run produces: the violations plus the traffic
/// and timing the paper's evaluation plots. Assembled by
/// [`RunCtx::finish`](crate::RunCtx::finish) from the run's meters.
///
/// Two detections are `==` iff they are bit-identical — the determinism
/// contract every engine keeps at every pool width and through every
/// entry point is `assert_eq!` on whole `Detection`s.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Which algorithm produced this result.
    pub algorithm: String,
    /// Per-CFD violation sets (`Vio` and `Vioπ`).
    pub violations: ViolationReport,
    /// Total tuples shipped — the paper's `|M|` (Fig. 3(e)/(f)).
    pub shipped_tuples: usize,
    /// Total attribute cells shipped (tuples × projected width).
    pub shipped_cells: usize,
    /// Approximate bytes on the wire.
    pub shipped_bytes: usize,
    /// Control messages exchanged (statistics, coordination).
    pub control_messages: usize,
    /// Control bytes on the wire (the messages' payloads).
    pub control_bytes: usize,
    /// Simulated response time under the per-site clock model (seconds).
    pub response_time: f64,
    /// Final per-site clock values, in site order (`response_time` is
    /// their maximum). Bit-identical for every pool size.
    pub site_clocks: Vec<f64>,
    /// Response time under the literal §III-B two-phase formula, summed
    /// over detection rounds (seconds). Always ≥ `response_time`.
    pub paper_cost: f64,
    /// A copy of the run's metrics registry at completion, with the
    /// ledger's per-site-pair families (they sum to the shipment fields
    /// above) and the run-summary gauges. Bit-identical across pool
    /// widths.
    pub metrics: MetricsRegistry,
    /// Phase-level spans on the simulated clock, exportable as
    /// chrome-trace JSON ([`RunTrace::chrome_trace_json`]).
    pub trace: RunTrace,
}

impl PartialEq for Detection {
    /// Exact comparison of every field: the floats by their bits (a NaN
    /// equals itself, `0.0` and `-0.0` differ), everything else by its
    /// own `==` — `metrics` and `trace` compare their floats by bits too.
    /// The destructuring is exhaustive, so a field added to `Detection`
    /// does not compile until it is compared here.
    fn eq(&self, other: &Self) -> bool {
        let Detection {
            algorithm,
            violations,
            shipped_tuples,
            shipped_cells,
            shipped_bytes,
            control_messages,
            control_bytes,
            response_time,
            site_clocks,
            paper_cost,
            metrics,
            trace,
        } = self;
        let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        *algorithm == other.algorithm
            && *violations == other.violations
            && (*shipped_tuples, *shipped_cells, *shipped_bytes)
                == (other.shipped_tuples, other.shipped_cells, other.shipped_bytes)
            && (*control_messages, *control_bytes) == (other.control_messages, other.control_bytes)
            && response_time.to_bits() == other.response_time.to_bits()
            && bits(site_clocks) == bits(&other.site_clocks)
            && paper_cost.to_bits() == other.paper_cost.to_bits()
            && *metrics == other.metrics
            && *trace == other.trace
    }
}

impl Eq for Detection {}

impl fmt::Display for Detection {
    /// The one-line report the examples print:
    /// `PATDETECTS: 6 violating tuples (2 patterns), shipped 3 tuples
    /// (15 cells, 60 B), 12 control msgs (192 B), response 0.0041s` —
    /// violating tuples are distinct across CFDs, patterns are summed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let patterns: usize = self.violations.per_cfd.iter().map(|(_, v)| v.pattern_count()).sum();
        write!(
            f,
            "{}: {} violating tuples ({} patterns), shipped {} tuples ({} cells, {} B), \
             {} control msgs ({} B), response {:.4}s",
            self.algorithm,
            self.violations.distinct_tids(),
            patterns,
            self.shipped_tuples,
            self.shipped_cells,
            self.shipped_bytes,
            self.control_messages,
            self.control_bytes,
            self.response_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_distinct_tuples() {
        use dcd_cfd::ViolationSet;
        use dcd_relation::{TupleId, Value};
        let mut report = ViolationReport::default();
        let mut a = ViolationSet::default();
        a.insert(TupleId(1));
        a.insert(TupleId(2));
        a.insert_pattern(vec![Value::Int(1)]);
        let mut b = ViolationSet::default();
        b.insert(TupleId(2));
        b.insert_pattern(vec![Value::Int(1)]);
        report.absorb("a", a);
        report.absorb("b", b);
        let d = Detection {
            algorithm: "test".into(),
            violations: report,
            shipped_tuples: 10,
            shipped_cells: 30,
            shipped_bytes: 100,
            control_messages: 4,
            control_bytes: 64,
            response_time: 1.5,
            site_clocks: vec![1.5, 0.5],
            paper_cost: 2.0,
            metrics: MetricsRegistry::new(),
            trace: RunTrace::default(),
        };
        assert_eq!(
            d.to_string(),
            "test: 2 violating tuples (2 patterns), shipped 10 tuples (30 cells, 100 B), \
             4 control msgs (64 B), response 1.5000s",
            "tuples are distinct across CFDs, patterns are summed over them"
        );
    }

    /// `run_batch` of the CFD `text` over 30 tuples at three sites.
    fn detection(text: &str) -> Detection {
        use crate::{run_batch, CoordinatorStrategy, RunConfig};
        use dcd_dist::HorizontalPartition;
        use dcd_relation::{vals, Relation, Schema, ValueType};
        let schema = Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap();
        let rows = (0..30).map(|i| vals![i % 2, format!("z{}", i % 5), format!("s{}", i % 3)]);
        let rel = Relation::from_rows(schema.clone(), rows.collect()).unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = dcd_cfd::parse_cfd(&schema, "phi", text).unwrap();
        let strategy = CoordinatorStrategy::MinShipment;
        run_batch(&partition, &cfd.simplify(), strategy, &RunConfig::default())
    }

    /// Equality is not vacuous: it sees one ulp, the sign of a zero, one
    /// ledger cell, the label and the metrics — and a NaN clock equals
    /// itself, as its bits do.
    #[test]
    fn equality_is_bit_identity_on_every_field() {
        let d = detection("([cc, zip] -> [street])");
        assert!(!d.violations.all_tids().is_empty() && !d.trace.spans.is_empty());
        assert_eq!(d, d.clone());
        let edited = |edit: &dyn Fn(&mut Detection)| {
            let mut e = d.clone();
            edit(&mut e);
            e
        };
        let zero = edited(&|e| e.site_clocks[0] = 0.0);
        assert_ne!(zero, edited(&|e| e.site_clocks[0] = -0.0), "signed zero");
        let end = d.trace.spans[0].end;
        assert_ne!(d, edited(&|e| e.trace.spans[0].end = f64::from_bits(end.to_bits() + 1)));
        assert_ne!(d, edited(&|e| e.shipped_cells += 1), "one more ledger cell");
        assert_ne!(d, edited(&|e| e.algorithm = "PATDETECTRT".into()), "label");
        let other = detection("([cc] -> [street])");
        assert_ne!(d.metrics, other.metrics);
        assert_ne!(d, edited(&|e| e.metrics = other.metrics.clone()), "metrics of another Σ");
        let nan = edited(&|e| e.site_clocks[0] = f64::NAN);
        assert_eq!(nan, nan.clone(), "a NaN clock equals itself");
    }
}

//! The output of a distributed detection run.

use dcd_cfd::ViolationReport;
use dcd_obs::{MetricsSnapshot, RunTrace};
use std::fmt;

/// Everything a detection run produces: the violations plus the traffic
/// and timing the paper's evaluation plots. Assembled by
/// [`RunCtx::finish`](crate::RunCtx::finish) from the run's meters.
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
    /// their maximum). Bit-identical for every pool size — the
    /// determinism suite compares runs clock by clock.
    pub site_clocks: Vec<f64>,
    /// Response time under the literal §III-B two-phase formula, summed
    /// over detection rounds (seconds). Always ≥ `response_time`.
    pub paper_cost: f64,
    /// The run's metrics registry, frozen at completion. Shipment
    /// counters mirror the ledger exactly; everything in here is
    /// bit-identical across pool widths.
    pub metrics: MetricsSnapshot,
    /// Phase-level spans on the simulated clock, exportable as
    /// chrome-trace JSON ([`RunTrace::chrome_trace_json`]).
    pub trace: RunTrace,
}

impl Detection {
    /// A compact, serializable summary — one row of a results table,
    /// and (via [`fmt::Display`]) a one-line human-readable report.
    pub fn summary(&self) -> DetectionSummary {
        DetectionSummary {
            algorithm: self.algorithm.clone(),
            violating_tuples: self.violations.all_tids().len(),
            violating_patterns: self.violations.per_cfd.iter().map(|(_, v)| v.patterns.len()).sum(),
            shipped_tuples: self.shipped_tuples,
            shipped_cells: self.shipped_cells,
            shipped_bytes: self.shipped_bytes,
            control_messages: self.control_messages,
            control_bytes: self.control_bytes,
            response_time: self.response_time,
            paper_cost: self.paper_cost,
        }
    }
}

/// Flat summary of a [`Detection`] (one row of a results table).
#[derive(Debug, Clone)]
pub struct DetectionSummary {
    /// Algorithm name.
    pub algorithm: String,
    /// Distinct violating tuples across all CFDs.
    pub violating_tuples: usize,
    /// Total `Vioπ` patterns across all CFDs.
    pub violating_patterns: usize,
    /// Total tuples shipped.
    pub shipped_tuples: usize,
    /// Total cells shipped.
    pub shipped_cells: usize,
    /// Bytes on the wire (code-shipped paths: 4 bytes per cell).
    pub shipped_bytes: usize,
    /// Control messages exchanged (statistics, coordination).
    pub control_messages: usize,
    /// Control bytes on the wire.
    pub control_bytes: usize,
    /// Simulated response time (seconds).
    pub response_time: f64,
    /// §III-B formula cost (seconds).
    pub paper_cost: f64,
}

impl fmt::Display for DetectionSummary {
    /// The one-line report the examples print:
    /// `PATDETECTS: 6 violating tuples (2 patterns), shipped 3 tuples
    /// (15 cells, 60 B), 12 control msgs (192 B), response 0.0041s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} violating tuples ({} patterns), shipped {} tuples ({} cells, {} B), \
             {} control msgs ({} B), response {:.4}s",
            self.algorithm,
            self.violating_tuples,
            self.violating_patterns,
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
        use dcd_relation::TupleId;
        let mut report = ViolationReport::default();
        let mut a = ViolationSet::default();
        a.tids.insert(TupleId(1));
        a.tids.insert(TupleId(2));
        let mut b = ViolationSet::default();
        b.tids.insert(TupleId(2));
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
            metrics: MetricsSnapshot::default(),
            trace: RunTrace::default(),
        };
        let s = d.summary();
        assert_eq!(s.violating_tuples, 2); // distinct across CFDs
        assert_eq!(s.shipped_tuples, 10);
        assert_eq!(s.control_messages, 4);
        assert_eq!(s.control_bytes, 64);
        let line = s.to_string();
        assert!(line.contains("4 control msgs (64 B)"), "{line}");
    }
}

//! Phase-level run traces on the **simulated clock**.
//!
//! Spans are timestamped by `SiteClocks` seconds, never by the wall
//! clock (`Instant::now`/`SystemTime::now` are `disallowed-methods` in
//! the root `clippy.toml`). A trace is plain data owned by its run's
//! `RunCtx`, which records one span per site a phase moved, from the
//! clocks before and after the phase, on the coordinating thread in
//! site order — so a trace, like a registry snapshot, is bit-identical
//! across pool widths.

use std::fmt::Write as _;

/// One phase execution on one simulated site.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (e.g. `sigma_partition`, `validate`).
    pub name: String,
    /// The site whose clock the span is charged to.
    pub site: usize,
    /// Start, simulated seconds.
    pub start: f64,
    /// End, simulated seconds (`>= start`).
    pub end: f64,
}

impl PartialEq for Span {
    /// Exact comparison: the simulated timestamps are pinned
    /// bit-identical, so equality goes through the bits.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.site == other.site
            && self.start.to_bits() == other.start.to_bits()
            && self.end.to_bits() == other.end.to_bits()
    }
}

impl Eq for Span {}

/// An ordered list of [`Span`]s, exportable as chrome-trace JSON
/// (`chrome://tracing` / Perfetto's legacy "JSON Array Format").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunTrace {
    /// Recorded spans, in recording order.
    pub spans: Vec<Span>,
}

impl RunTrace {
    /// Appends one span.
    pub fn record(&mut self, name: &str, site: usize, start: f64, end: f64) {
        debug_assert!(end >= start, "span {name} ends before it starts");
        self.spans.push(Span { name: name.to_string(), site, start, end });
    }

    /// The trace as chrome-trace JSON: one complete (`"ph":"X"`) event
    /// per span, `tid` = site, timestamps in microseconds of simulated
    /// time.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                s.name.replace('"', "\\\""),
                s.site,
                s.start * 1e6,
                (s.end - s.start) * 1e6
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_compare_through_bits() {
        let mut a = RunTrace::default();
        a.record("scan", 0, 0.0, 1.5);
        let mut b = RunTrace::default();
        b.record("scan", 0, 0.0, 1.5);
        assert_eq!(a, b);
        b.record("scan", 1, 0.0, 1.5);
        assert_ne!(a, b);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = RunTrace::default();
        t.record("validate", 2, 0.5, 0.75);
        let json = t.chrome_trace_json();
        assert_eq!(
            json,
            "{\"traceEvents\":[{\"name\":\"validate\",\"ph\":\"X\",\"pid\":0,\"tid\":2,\
             \"ts\":500000,\"dur\":250000}]}"
        );
    }
}

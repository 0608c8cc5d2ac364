//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. They are kept in memory and written out when the traced
//! pass ends. A layer's self time is its span's duration minus the part
//! its child spans cover; allocation counts subtract the same way.

use crate::alloc;
use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` indexes the span that caused it; spans of
/// one re-enacted operation share `op`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: usize,
    /// Allocations made while the span was open, children included.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

/// What one layer did itself during one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTotals {
    pub ms: f64,
    pub allocs: f64,
    pub alloc_bytes: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
}

impl Tracer {
    pub fn new() -> Self {
        // Room for every span of a pass, so that the recorder's own
        // growth does not show up in a layer's allocation count.
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let r = alloc::reading();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            end_us: 0.0,
            parent: self.open.last().copied(),
            op: self.op,
            allocs: r.allocs,
            alloc_bytes: r.bytes,
        });
        self.open.push(id);
        self.spans[id].start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let r = alloc::reading();
        let s = &mut self.spans[id];
        s.end_us = end_us;
        s.allocs = r.allocs - s.allocs;
        s.alloc_bytes = r.bytes - s.alloc_bytes;
    }

    /// Records `work` as one leaf span.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = work();
        self.exit(id);
        out
    }

    /// Spans opened from now on belong to the next operation.
    pub fn next_op(&mut self) {
        assert!(self.open.is_empty(), "an operation ends with every span closed");
        self.op += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self totals per `(op, span name)`: each span's own figures minus its
/// direct children's, summed over the spans of that name in that op.
pub fn self_totals(spans: &[Span]) -> BTreeMap<(usize, &'static str), SelfTotals> {
    let mut own: Vec<SelfTotals> = spans
        .iter()
        .map(|s| SelfTotals {
            ms: (s.end_us - s.start_us) / 1e3,
            allocs: s.allocs as f64,
            alloc_bytes: s.alloc_bytes as f64,
        })
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p].ms -= (s.end_us - s.start_us) / 1e3;
            own[p].allocs -= s.allocs as f64;
            own[p].alloc_bytes -= s.alloc_bytes as f64;
        }
    }
    let mut out: BTreeMap<(usize, &'static str), SelfTotals> = BTreeMap::new();
    for (s, o) in spans.iter().zip(own) {
        let t = out.entry((s.op, s.name)).or_default();
        t.ms += o.ms;
        t.allocs += o.allocs;
        t.alloc_bytes += o.alloc_bytes;
    }
    out
}

/// Per span name, the per-op self totals in op order — the samples a
/// per-layer median is taken over.
pub fn per_layer(spans: &[Span]) -> BTreeMap<&'static str, Vec<SelfTotals>> {
    let mut out: BTreeMap<&'static str, Vec<SelfTotals>> = BTreeMap::new();
    for ((_, name), t) in self_totals(spans) {
        out.entry(name).or_default().push(t);
    }
    out
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op", Json::Num(s.op as f64)),
                    ("allocs", Json::Num(s.allocs as f64)),
                    ("alloc_bytes", Json::Num(s.alloc_bytes as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>, op: usize) -> Span {
        Span { name, start_us: start, end_us: end, parent, op, allocs: 0, alloc_bytes: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        let spans = vec![
            span("op", 0.0, 10_000.0, None, 0),
            span("a", 1_000.0, 4_000.0, Some(0), 0),
            span("b", 2_000.0, 3_000.0, Some(1), 0),
            span("a", 5_000.0, 7_000.0, Some(0), 0),
        ];
        let t = self_totals(&spans);
        assert_eq!(t[&(0, "op")].ms, 5.0);
        // Two `a` spans: (3 − 1 for its child `b`) + 2.
        assert_eq!(t[&(0, "a")].ms, 4.0);
        assert_eq!(t[&(0, "b")].ms, 1.0);
        let total: f64 = t.values().map(|s| s.ms).sum();
        assert_eq!(total, 10.0, "self times of one op add up to its root span");
    }

    #[test]
    fn allocation_counts_subtract_like_time_and_ops_stay_apart() {
        let mut spans = vec![
            span("op", 0.0, 1.0, None, 0),
            span("a", 0.0, 1.0, Some(0), 0),
            span("op", 2.0, 3.0, None, 1),
        ];
        spans[0].allocs = 10;
        spans[0].alloc_bytes = 1000;
        spans[1].allocs = 4;
        spans[1].alloc_bytes = 300;
        spans[2].allocs = 7;
        let t = self_totals(&spans);
        assert_eq!((t[&(0, "op")].allocs, t[&(0, "op")].alloc_bytes), (6.0, 700.0));
        assert_eq!(t[&(0, "a")].allocs, 4.0);
        assert_eq!(t[&(1, "op")].allocs, 7.0);
        assert_eq!(per_layer(&spans)["op"].len(), 2);
    }

    #[test]
    fn the_recorder_links_children_to_the_innermost_open_span() {
        let mut tr = Tracer::new();
        let root = tr.enter("op");
        tr.span("a", || ());
        tr.exit(root);
        tr.next_op();
        tr.span("op", || ());
        let s = tr.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (None, Some(0), None));
        assert_eq!((s[0].op, s[1].op, s[2].op), (0, 0, 1));
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
    }
}

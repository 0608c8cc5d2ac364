//! What the detect and incremental drivers share: the job description,
//! the measuring window, cold set-up builds, and layer medians.

use crate::alloc::counted;
use crate::metrics::{Outcome, COVERAGE_RANGE, MIB};
use crate::stats::{high_percentile, median};
use crate::trace::{per_layer, SelfTotals, Span, Tracer};
use crate::workloads::{fragment, Dataset, Scale, Workload};
use crate::yardstick::{at_nominal_speed, slowness, Yardstick, SENSITIVITY};
use dcd_dist::HorizontalPartition;
use dcd_relation::Relation;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

pub const INGEST: &str = "relation.ingest";
pub const FRAGMENT: &str = "dist.fragment";
pub const CENTRAL: &str = "cfd.central";
/// Root span of one re-enacted operation.
pub const OP: &str = "op";
/// Root span of one traced cold build.
pub const SETUP: &str = "setup";

/// One run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub workload: Workload,
    pub scale: &'static Scale,
    pub seed: u64,
    /// Length of the measuring window. `None` (smoke) runs the scale's
    /// minimum counts and no longer.
    pub seconds: Option<f64>,
}

/// A closed loop runs while its window is open: at least `min`
/// operations, and then until the time is up.
pub struct Window {
    deadline: Option<Instant>,
    min: usize,
}

impl Window {
    pub fn open(seconds: Option<f64>, min: usize) -> Self {
        let deadline = seconds.map(|s| Instant::now() + std::time::Duration::from_secs_f64(s));
        Window { deadline, min }
    }

    pub fn more(&self, done: usize) -> bool {
        done < self.min || self.deadline.is_some_and(|d| Instant::now() < d)
    }
}

/// Wall milliseconds of `work`, result kept alive past the reading so
/// that its drop is not timed.
pub fn timed<R>(work: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = black_box(work());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Slices a window is cut into for [`at_nominal_speed`].
const SLICES: usize = 10;

/// A window of operation latencies, each with the yardstick run that
/// followed it.
#[derive(Default)]
pub struct Latencies {
    op_ms: Vec<f64>,
    yard_ms: Vec<f64>,
}

impl Latencies {
    pub fn len(&self) -> usize {
        self.op_ms.len()
    }

    /// Records one operation's latency and takes the host's speed.
    pub fn push(&mut self, op_ms: f64, yardstick: &mut Yardstick) {
        self.op_ms.push(op_ms);
        self.yard_ms.push(yardstick.run());
    }

    /// The timed end-to-end metrics, at the yardstick's nominal speed.
    /// Beside them, without a bound: the p90 at the same speed, when ten
    /// samples lie beyond it, and the window as the clock saw it.
    pub fn report(&self, out: &mut Outcome) {
        let ms = at_nominal_speed(&self.op_ms, &self.yard_ms, SLICES);
        out.samples = ms.len();
        out.set("op_p50_ms", median(&ms));
        out.set("ops_per_s", ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3));
        if let Some(p90) = high_percentile(&ms, 0.90) {
            out.info.push(("op_p90_ms", p90, "ms"));
        }
        out.info.push(("host_slowness_x", slowness(&self.yard_ms), "x"));
        out.info.push(("raw_op_p50_ms", median(&self.op_ms), "ms"));
        let raw_s = self.op_ms.iter().sum::<f64>() / 1e3;
        out.info.push(("raw_ops_per_s", self.op_ms.len() as f64 / raw_s, "1/s"));
    }
}

/// Operations run with the allocator counting for `peak_mb`, which is
/// their median.
pub const PEAK_OPS: usize = 5;

/// The detect-ready state of a workload and what building it cost.
pub struct Setup<S> {
    pub state: S,
    /// The unfragmented relation of the last cold build, for
    /// centralized detection.
    pub central: Relation,
    /// Median cold build, at the yardstick's nominal speed.
    pub setup_s: f64,
    /// The same as the clock saw it.
    pub raw_setup_s: f64,
    pub resident_mib: f64,
}

/// Builds the state `reps` times against the clock for `setup_s`, each
/// build at the nominal speed of the yardstick runs around it, and then
/// once more with the allocator counting: what that build keeps alive is
/// `resident_mb`, and it is the one the window runs on — built last, into
/// a heap the earlier builds have already been freed from, as a caller's
/// one build in a fresh process would be. Row copies and drops are outside
/// the timing.
pub fn measure_setup<S>(
    ds: &Dataset,
    reps: usize,
    yardstick: &mut Yardstick,
    finish: impl Fn(HorizontalPartition) -> S,
) -> Setup<S> {
    let mut secs = Vec::with_capacity(reps);
    let mut raw_secs = Vec::with_capacity(reps);
    let mut central = None;
    for _ in 0..reps {
        // The last build's relation is dropped before the next begins.
        drop(central.take());
        let rows = ds.fresh_rows();
        let before = yardstick.slowness_now();
        let ((rel, built), ms) = timed(|| {
            let rel = ds.ingest(rows);
            let built = finish(fragment(&rel));
            (rel, built)
        });
        let slow = (before + yardstick.slowness_now()) / 2.0;
        secs.push(ms / 1e3 / slow.powf(SENSITIVITY));
        raw_secs.push(ms / 1e3);
        drop(built);
        central = Some(rel);
    }
    let (state, mem) = counted(|| {
        let rel = ds.ingest(ds.fresh_rows());
        finish(fragment(&rel))
    });
    Setup {
        state,
        central: central.expect("at least one set-up rep"),
        setup_s: median(&secs),
        raw_setup_s: median(&raw_secs),
        resident_mib: mem.live as f64 / MIB,
    }
}

/// Rounds of a traced pass that run with the allocator counting. Counts
/// repeat exactly, so a few rounds carry them; the others run without, so
/// that two atomic updates per allocation and free do not weigh on the
/// layer times the coverage gate adds up.
pub const COUNTED_ROUNDS: usize = 3;

/// Runs round `round` of a traced pass, counting in the first few.
pub fn traced_round<R>(round: usize, work: impl FnOnce() -> R) -> R {
    if round < COUNTED_ROUNDS {
        counted(work).0
    } else {
        work()
    }
}

/// The traced twin of [`measure_setup`]: `reps` cold builds, each a
/// `setup` root span over an ingest and a fragment span (plus whatever
/// `extra` records under the same root). Returns the last build.
pub fn traced_setup(
    ds: &Dataset,
    reps: usize,
    tracer: &mut Tracer,
    mut extra: impl FnMut(&mut Tracer, &HorizontalPartition),
) -> (Relation, HorizontalPartition) {
    let mut last = None;
    for rep in 0..reps {
        let rows = ds.fresh_rows();
        let built = traced_round(rep, || {
            let root = tracer.enter(SETUP);
            let rel = tracer.span(INGEST, || ds.ingest(rows));
            let part = tracer.span(FRAGMENT, || fragment(&rel));
            extra(tracer, &part);
            tracer.exit(root);
            (rel, part)
        });
        tracer.next_op();
        last = Some(built);
    }
    last.expect("at least one set-up rep")
}

/// Per-layer medians over the operations of a traced pass.
pub struct Layers(BTreeMap<&'static str, Vec<SelfTotals>>);

impl Layers {
    pub fn of(spans: &[Span]) -> Self {
        Layers(per_layer(spans))
    }

    /// Median self time per operation, 0 for a layer that never ran.
    pub fn ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |ts| median(&ts.iter().map(|t| t.ms).collect::<Vec<_>>()))
    }

    /// A count repeats exactly in every round that ran with the
    /// allocator counting and reads 0 in the others, so the highest
    /// reading is the count.
    fn count(&self, name: &str, field: impl Fn(&SelfTotals) -> f64) -> f64 {
        self.0.get(name).map_or(0.0, |ts| ts.iter().map(field).fold(0.0, f64::max))
    }

    pub fn allocs(&self, name: &str) -> f64 {
        self.count(name, |t| t.allocs)
    }

    pub fn alloc_mib(&self, name: &str) -> f64 {
        self.count(name, |t| t.alloc_bytes / MIB)
    }
}

/// Median duration, children included, of the spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> f64 {
    let ms: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| (s.end_us - s.start_us) / 1e3).collect();
    median(&ms)
}

/// What both traced passes report alike: the untraced engine operation
/// and the two layers of a cold build. Returns the operation's median.
pub fn report_engine_and_build(
    engine_ms: &[f64],
    rows: usize,
    layers: &Layers,
    out: &mut Outcome,
) -> f64 {
    let op_ms = median(engine_ms);
    out.samples = engine_ms.len();
    out.set("engine.op_ms", op_ms);
    out.set("engine.op_p90_ms", high_percentile(engine_ms, 0.90).unwrap_or(0.0));
    out.set("engine.ops_per_s", engine_ms.len() as f64 / (engine_ms.iter().sum::<f64>() / 1e3));
    out.set("trace.reps", engine_ms.len() as f64);
    out.set("relation.ingest.ms", layers.ms(INGEST));
    out.set("relation.ingest.krows_per_s", rows as f64 / layers.ms(INGEST));
    out.set("relation.ingest.allocs", layers.allocs(INGEST));
    out.set("relation.ingest.alloc_mb", layers.alloc_mib(INGEST));
    out.set("dist.fragment.ms", layers.ms(FRAGMENT));
    out.set("dist.fragment.allocs", layers.allocs(FRAGMENT));
    out.set("dist.fragment.alloc_mb", layers.alloc_mib(FRAGMENT));
    op_ms
}

/// Reconciles the re-enacted layers `in_op` with the engine's operation:
/// reports `<runner>.other_ms`, `<runner>.coverage` and the tracing
/// overhead, and fails a full-size pass whose coverage is out of range.
/// Below a few milliseconds per operation (smoke) fixed costs outside the
/// layers dominate, so only the full-size pass is held to it.
pub fn reconcile(
    job: &Job,
    [other, coverage]: [&'static str; 2],
    in_op: &[&str],
    layers: &Layers,
    spans: &[Span],
    op_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let layer_sum: f64 = in_op.iter().map(|name| layers.ms(name)).sum();
    let covered = layer_sum / op_ms;
    out.set(other, op_ms - layer_sum);
    out.set(coverage, covered);
    out.set("trace.overhead_pct", (span_ms(spans, OP) - op_ms) / op_ms * 100.0);
    let (low, high) = COVERAGE_RANGE;
    if job.seconds.is_some() && !(low..=high).contains(&covered) {
        return Err(format!(
            "{}: {coverage} {covered:.3} is outside [{low}, {high}]: the layers no longer add up \
             to the engine's operation",
            job.workload.name()
        ));
    }
    Ok(())
}

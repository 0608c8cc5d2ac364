//! `cust_incr`: an `IncrementalRun` over the cust partition, fed batches
//! of half inserts, half deletes, so `|D|` stays where it started and an
//! operation's latency does not depend on how many came before it.

use crate::alloc::counted;
use crate::harness::{
    measure_setup, reconcile, report_engine_and_build, timed, traced_round, traced_setup, Job,
    Latencies, Layers, Window, OP, PEAK_OPS,
};
use crate::metrics::{Outcome, MIB};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::same_report;
use crate::workloads::{dataset, run_config, Dataset};
use crate::yardstick::Yardstick;
use dcd_cfd::{detect_set, SimpleCfd, ViolationReport};
use dcd_core::{run_batch, Detection, RunConfig};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_dist::HorizontalPartition;
use dcd_incr::{DeltaBatch, IncrementalRun, ViolationIndex};
use dcd_relation::{AttrId, TupleId};
use std::collections::VecDeque;

const APPLY_DELTA: &str = "relation.apply_delta";
const INDEX_APPLY: &str = "incr.index.apply";
const INDEX_SNAPSHOT: &str = "incr.index.snapshot";
const INDEX_BUILD: &str = "incr.index.build";
const BUILD_ENCODE: &str = "incr.build.encode";
const REDETECT: &str = "incr.redetect";
/// Full re-detection beside the session is timed once in this many
/// rounds of the traced pass; it costs several batches' worth of time.
const REDETECT_EVERY: usize = 10;

/// The update stream, generated a segment at a time against the
/// session's current partition so that it can run as long as the window
/// is open: deletes name tuples alive at that point, inserts re-use the
/// rows alive at that point as templates (Zipf 0.8), a tenth corrupted.
struct Stream {
    cfg: UpdateStreamConfig,
    pending: VecDeque<DeltaBatch>,
}

impl Stream {
    fn new(job: &Job) -> Self {
        let cfg = UpdateStreamConfig {
            n_batches: job.scale.segment_batches,
            ops_per_batch: job.scale.batch_ops,
            insert_ratio: 0.5,
            skew: 0.8,
            corrupt_rate: 0.1,
            seed: job.seed.wrapping_add(3),
        };
        Stream { cfg, pending: VecDeque::new() }
    }

    fn at_segment_end(&self) -> bool {
        self.pending.is_empty()
    }

    fn next(&mut self, current: &HorizontalPartition) -> DeltaBatch {
        if self.pending.is_empty() {
            self.pending =
                update_stream(current, &self.cfg).into_iter().map(DeltaBatch::new).collect();
            self.cfg.seed = self.cfg.seed.wrapping_add(1);
        }
        self.pending.pop_front().expect("a segment holds at least one batch")
    }
}

fn session_of(ds: &Dataset, part: HorizontalPartition, cfg: RunConfig) -> IncrementalRun {
    IncrementalRun::new(part, &ds.sigma, cfg).expect("round-robin fragments share dictionaries")
}

/// The session under its update stream, with the checkpoints that verify
/// it: `report()` must equal `detect_set(materialize())` at the end of
/// every segment and of the run. A failed checkpoint fails every batch
/// since the last one, since any of them may be the wrong one.
struct Fed<'a> {
    ds: &'a Dataset,
    session: IncrementalRun,
    stream: Stream,
    unchecked: usize,
}

impl Fed<'_> {
    fn checkpoint(&mut self, out: &mut Outcome) {
        let whole = self.session.materialize().expect("fragments of one partition reassemble");
        out.attempted += self.unchecked;
        if !same_report(&self.session.report(), &detect_set(&whole, &self.ds.sigma)) {
            out.failed += self.unchecked;
        }
        self.unchecked = 0;
    }

    /// Applies the next batch through `run` — timed in the window,
    /// counted for `peak_mb` — with stream generation and checkpoints
    /// outside it.
    fn apply<M>(
        &mut self,
        out: &mut Outcome,
        run: impl FnOnce(&mut IncrementalRun, &DeltaBatch) -> M,
    ) -> M {
        if self.stream.at_segment_end() && self.unchecked > 0 {
            self.checkpoint(out);
        }
        let batch = self.stream.next(self.session.partition());
        self.unchecked += 1;
        run(&mut self.session, &batch)
    }

    /// One timed batch: its latency in ms.
    fn timed_batch(&mut self, out: &mut Outcome) -> f64 {
        self.apply(out, |session, batch| {
            let (round, ms) = timed(|| session.apply_batch(batch));
            round.expect("generated deltas apply cleanly");
            ms
        })
    }
}

fn wire_bytes(d: &Detection) -> usize {
    d.shipped_bytes + d.control_bytes
}

pub fn end_to_end(job: &Job) -> Result<Outcome, String> {
    let ds = dataset(job.workload, job.scale, job.seed);
    let cfg = run_config(1);
    let mut out = Outcome::default();
    let mut yardstick = Yardstick::new();
    let setup =
        measure_setup(&ds, job.scale.setup_reps, &mut yardstick, |part| session_of(&ds, part, cfg));
    out.set("setup_s", setup.setup_s);
    out.info.push(("raw_setup_s", setup.raw_setup_s, "s"));
    out.set("resident_mb", setup.resident_mib);
    if !same_report(&setup.state.report(), &detect_set(&setup.central, &ds.sigma)) {
        return Err("cust_incr: the built index differs from detect_set on the relation".into());
    }
    drop(setup.central);

    let mut fed = Fed { ds: &ds, session: setup.state, stream: Stream::new(job), unchecked: 0 };
    for _ in 0..2 * job.scale.warmup_ops {
        fed.timed_batch(&mut out);
    }

    // The exact metrics are taken at fixed places in the stream, so they
    // repeat for a seed however long the window runs: the peak over the
    // batches before the window, the per-batch ones over the window's
    // first `min_ops` batches, which every window holds.
    let peaks: Vec<f64> = (0..PEAK_OPS)
        .map(|_| {
            fed.apply(&mut out, |session, batch| {
                let (round, mem) = counted(|| session.apply_batch(batch));
                round.expect("generated deltas apply cleanly");
                mem.peak as f64 / MIB
            })
        })
        .collect();
    out.set("peak_mb", median(&peaks));
    let before = fed.session.detection();
    let window = Window::open(job.seconds, job.scale.min_ops);
    let mut latencies = Latencies::default();
    while window.more(latencies.len()) {
        latencies.push(fed.timed_batch(&mut out), &mut yardstick);
        if latencies.len() == job.scale.min_ops {
            let after = fed.session.detection();
            let n = latencies.len() as f64;
            out.set(
                "shipped_kb_per_op",
                (wire_bytes(&after) - wire_bytes(&before)) as f64 / 1024.0 / n,
            );
            out.set("sim_response_ms", (after.response_time - before.response_time) * 1e3 / n);
        }
    }
    latencies.report(&mut out);

    fed.checkpoint(&mut out);
    Ok(out)
}

/// Every row of every fragment as full-width `(tid, codes)` wire rows —
/// what `IncrementalRun::new` encodes and ships to its coordinator.
fn encode_all(part: &HorizontalPartition) -> Vec<(TupleId, Box<[u32]>)> {
    let attrs: Vec<AttrId> = part.schema().attr_ids().collect();
    part.fragments()
        .iter()
        .flat_map(|f| f.data.code_rows(&attrs, &(0..f.data.len()).collect::<Vec<_>>()))
        .collect()
}

fn build_indices(
    part: &HorizontalPartition,
    simples: &[SimpleCfd],
    tracer: &mut Tracer,
) -> Vec<ViolationIndex> {
    let rows = tracer.span(BUILD_ENCODE, || encode_all(part));
    tracer.span(INDEX_BUILD, || {
        let dicts: Vec<_> =
            part.fragments()[0].data.columns().iter().map(|c| c.dict().clone()).collect();
        simples
            .iter()
            .map(|cfd| {
                let mut index = ViolationIndex::new(cfd.clone(), &dicts);
                index.apply(&[], &rows);
                index
            })
            .collect()
    })
}

/// One `apply_batch` re-enacted on the mirror partition and indices
/// through the public layer functions.
fn reenact_apply(
    mirror: &mut HorizontalPartition,
    indices: &mut [ViolationIndex],
    batch: &DeltaBatch,
    tracer: &mut Tracer,
) -> ViolationReport {
    let root = tracer.enter(OP);
    let mut deletes = Vec::new();
    let mut inserts = Vec::new();
    for (frag, delta) in mirror.fragments_mut().iter_mut().zip(&batch.per_site) {
        if delta.is_empty() {
            continue;
        }
        let effect = tracer
            .span(APPLY_DELTA, || frag.data.apply_delta(delta))
            .expect("generated deltas apply cleanly");
        deletes.extend(effect.deleted.into_iter().map(|(tid, _)| tid));
        inserts.extend(effect.inserted);
    }
    tracer.span(INDEX_APPLY, || {
        for index in indices.iter_mut() {
            index.apply(&deletes, &inserts);
        }
    });
    let report = tracer.span(INDEX_SNAPSHOT, || {
        let mut report = ViolationReport::default();
        for index in indices.iter() {
            report.absorb(&index.cfd().name, index.snapshot());
        }
        report
    });
    tracer.exit(root);
    report
}

pub fn traced(job: &Job, tracer: &mut Tracer) -> Result<Outcome, String> {
    let ds = dataset(job.workload, job.scale, job.seed);
    let simples: Vec<SimpleCfd> = ds.sigma.iter().flat_map(|c| c.simplify()).collect();
    let cfg = run_config(1);
    let mut out = Outcome::default();

    // Each traced cold build re-enacts `IncrementalRun::new` too; the
    // last build's indices become the mirror the batches are re-enacted
    // on, beside the engine's own session over the same partition.
    let mut built = None;
    let (central, part) = traced_setup(&ds, job.scale.setup_reps, tracer, |tracer, part| {
        built = Some(build_indices(part, &simples, tracer));
    });
    let mut indices = built.expect("at least one set-up rep");
    let mut mirror = part.clone();
    let mut session = session_of(&ds, part, cfg);
    if !same_report(&session.report(), &detect_set(&central, &ds.sigma)) {
        return Err("cust_incr: the built index differs from detect_set on the relation".into());
    }
    drop(central);

    let mut stream = Stream::new(job);
    let mut engine_ms = Vec::new();
    let mut revalidated = 0.0;
    let revalidated_total = |s: &IncrementalRun| {
        s.detection().metrics.counter_total("dcd_incr_keys_revalidated_total") as f64
    };
    let before = revalidated_total(&session);
    let window = Window::open(job.seconds, job.scale.min_trace_reps);
    while window.more(engine_ms.len()) {
        let batch = stream.next(session.partition());
        let (round, ms) = timed(|| session.apply_batch(&batch));
        let round = round.expect("generated deltas apply cleanly");
        engine_ms.push(ms);
        if engine_ms.len() == job.scale.min_trace_reps {
            revalidated = (revalidated_total(&session) - before) / engine_ms.len() as f64;
        }

        let report = traced_round(engine_ms.len() - 1, || {
            reenact_apply(&mut mirror, &mut indices, &batch, tracer)
        });
        out.check(same_report(&report, &round.report));
        if engine_ms.len() % REDETECT_EVERY == 1 {
            let full = tracer
                .span(REDETECT, || run_batch(session.partition(), &simples, ds.strategy, &cfg));
            out.check(same_report(&full.violations, &round.report));
        }
        tracer.next_op();
    }

    let spans = tracer.spans();
    let layers = Layers::of(spans);
    let op_ms = report_engine_and_build(&engine_ms, ds.rows.len(), &layers, &mut out);
    out.set("incr.build.encode_ms", layers.ms(BUILD_ENCODE));
    out.set("incr.index.build_ms", layers.ms(INDEX_BUILD));
    out.set("relation.apply_delta.ms", layers.ms(APPLY_DELTA));
    out.set("relation.apply_delta.allocs", layers.allocs(APPLY_DELTA));
    out.set("incr.index.apply_ms", layers.ms(INDEX_APPLY));
    out.set("incr.index.snapshot_ms", layers.ms(INDEX_SNAPSHOT));
    out.set("incr.index.keys_revalidated", revalidated);
    out.set("incr.runner.redetect_x", layers.ms(REDETECT) / op_ms);
    let names = ["incr.runner.other_ms", "incr.runner.coverage"];
    let in_op = [APPLY_DELTA, INDEX_APPLY, INDEX_SNAPSHOT];
    reconcile(job, names, &in_op, &layers, spans, op_ms, &mut out)?;
    Ok(out)
}

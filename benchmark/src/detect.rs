//! The four batch-detection workloads: `cust_load` (cold journey),
//! `cust_dense`, `cust_sparse` (warm `run_batch`) and `xref_clust` (warm
//! `run_clust`).

use crate::alloc::counted;
use crate::harness::{
    measure_setup, reconcile, report_engine_and_build, timed, traced_round, traced_setup, Job,
    Latencies, Layers, Window, CENTRAL, FRAGMENT, INGEST, OP, PEAK_OPS,
};
use crate::layers::{reenact_batch, Counts, CODE_ROWS, LOCAL, SIGMA, VALIDATE};
use crate::metrics::{Outcome, MIB};
use crate::stats::median;
use crate::trace::Tracer;
use crate::verify::{digest, same_report, Digest};
use crate::workloads::{dataset, fragment, run_config, Dataset, Workload};
use crate::yardstick::Yardstick;
use dcd_cfd::{detect_set, SimpleCfd};
use dcd_core::multi::cluster_by_lhs;
use dcd_core::{run_batch, run_clust, run_seq, CoordinatorStrategy, Detection, RunConfig};
use dcd_dist::HorizontalPartition;
use dcd_relation::{Relation, Value};

const CTRDETECT: &str = "core.runner.ctrdetect";
const PATDETECTRT: &str = "core.runner.patdetectrt";
const POOL_T2: &str = "dist.pool.t2";
const SEQDETECT: &str = "core.multi.run_seq";
const CLUSTER: &str = "core.multi.cluster_by_lhs";

/// A workload's inputs and the engine call it times.
struct Plan {
    workload: Workload,
    ds: Dataset,
    simples: Vec<SimpleCfd>,
    cfg: RunConfig,
}

/// What a cold journey builds on the way; kept so its drop is untimed.
type Built = Option<(Relation, HorizontalPartition)>;

impl Plan {
    fn new(job: &Job) -> Self {
        let ds = dataset(job.workload, job.scale, job.seed);
        let simples = ds.sigma.iter().flat_map(|c| c.simplify()).collect();
        Plan { workload: job.workload, ds, simples, cfg: run_config(1) }
    }

    fn cold(&self) -> bool {
        self.workload == Workload::CustLoad
    }

    fn engine(&self, part: &HorizontalPartition, cfg: &RunConfig) -> Detection {
        if self.workload == Workload::XrefClust {
            run_clust(part, &self.ds.sigma, self.ds.strategy, cfg)
        } else {
            run_batch(part, &self.simples, self.ds.strategy, cfg)
        }
    }

    /// The untimed part of an operation: a cold journey's fresh rows.
    fn prepare(&self) -> Option<Vec<Vec<Value>>> {
        self.cold().then(|| self.ds.fresh_rows())
    }

    /// The operation itself.
    fn execute(
        &self,
        input: Option<Vec<Vec<Value>>>,
        warm: &HorizontalPartition,
    ) -> (Detection, Built) {
        match input {
            Some(rows) => {
                let rel = self.ds.ingest(rows);
                let part = fragment(&rel);
                (self.engine(&part, &self.cfg), Some((rel, part)))
            }
            None => (self.engine(warm, &self.cfg), None),
        }
    }

    /// The once-per-run check against centralized detection; the
    /// verified [`Detection`] is the reference for every later one.
    fn verified(
        &self,
        central: &Relation,
        part: &HorizontalPartition,
    ) -> Result<Detection, String> {
        let (first, _) = self.execute(self.prepare(), part);
        if same_report(&first.violations, &detect_set(central, &self.ds.sigma)) {
            Ok(first)
        } else {
            Err(format!(
                "{}: the engine's Vio/Vioπ differ from detect_set on the unfragmented relation",
                self.workload.name()
            ))
        }
    }

    /// One timed, verified operation: its latency in ms.
    fn op(&self, part: &HorizontalPartition, want: &Digest, out: &mut Outcome) -> f64 {
        let input = self.prepare();
        let ((detection, built), ms) = timed(|| self.execute(input, part));
        out.check(digest(&detection) == *want);
        drop(built);
        ms
    }
}

pub fn end_to_end(job: &Job) -> Result<Outcome, String> {
    let plan = Plan::new(job);
    let mut out = Outcome::default();
    let mut yardstick = Yardstick::new();
    let setup = measure_setup(&plan.ds, job.scale.setup_reps, &mut yardstick, |part| part);
    let part = &setup.state;
    out.set("setup_s", setup.setup_s);
    out.info.push(("raw_setup_s", setup.raw_setup_s, "s"));
    out.set("resident_mb", setup.resident_mib);

    let reference = plan.verified(&setup.central, part)?;
    out.attempted += 1;
    let wire_bytes = reference.shipped_bytes + reference.control_bytes;
    out.set("shipped_kb_per_op", wire_bytes as f64 / 1024.0);
    out.set("sim_response_ms", reference.response_time * 1e3);
    let want = digest(&reference);

    for _ in 0..job.scale.warmup_ops {
        plan.op(part, &want, &mut out);
    }
    let window = Window::open(job.seconds, job.scale.min_ops);
    let mut latencies = Latencies::default();
    while window.more(latencies.len()) {
        latencies.push(plan.op(part, &want, &mut out), &mut yardstick);
    }
    latencies.report(&mut out);

    let peaks: Vec<f64> = (0..PEAK_OPS)
        .map(|_| {
            let input = plan.prepare();
            let (kept, mem) = counted(|| plan.execute(input, part));
            drop(kept);
            mem.peak as f64 / MIB
        })
        .collect();
    out.set("peak_mb", median(&peaks));
    Ok(out)
}

/// The traced pass: rounds of one untraced engine operation (the
/// reference the layers must add up to) and one traced re-enactment,
/// with centralized detection and the workload's comparison runs beside
/// them, until the window closes.
pub fn traced(job: &Job, tracer: &mut Tracer) -> Result<Outcome, String> {
    let plan = Plan::new(job);
    let mut out = Outcome::default();
    let (central, part) = traced_setup(&plan.ds, job.scale.setup_reps, tracer, |_, _| ());
    let reference = plan.verified(&central, &part)?;
    out.attempted += 1;
    let want = digest(&reference);
    for _ in 0..job.scale.warmup_ops {
        plan.op(&part, &want, &mut out);
    }

    let reenacted = plan.workload != Workload::XrefClust;
    let dense = plan.workload == Workload::CustDense;
    let mut engine_ms = Vec::new();
    let mut counts = Counts::default();
    let mut seq_shipped = 0;
    let window = Window::open(job.seconds, job.scale.min_trace_reps);
    while window.more(engine_ms.len()) {
        engine_ms.push(plan.op(&part, &want, &mut out));

        if reenacted {
            let input = plan.prepare();
            let (report, c, built) = traced_round(engine_ms.len() - 1, || {
                let root = tracer.enter(OP);
                let built = input.map(|rows| {
                    let rel = tracer.span(INGEST, || plan.ds.ingest(rows));
                    let part = tracer.span(FRAGMENT, || fragment(&rel));
                    (rel, part)
                });
                let over = built.as_ref().map_or(&part, |(_, p)| p);
                let (report, c) = reenact_batch(over, &plan.simples, tracer);
                tracer.exit(root);
                (report, c, built)
            });
            drop(built);
            out.check(same_report(&report, &reference.violations));
            counts = c;
        } else {
            let seq = tracer
                .span(SEQDETECT, || run_seq(&part, &plan.ds.sigma, plan.ds.strategy, &plan.cfg));
            out.check(same_report(&seq.violations, &reference.violations));
            seq_shipped = seq.shipped_tuples;
            let clusters = tracer.span(CLUSTER, || cluster_by_lhs(&plan.simples));
            out.set("core.multi.clusters", clusters.len() as f64);
        }
        tracer.span(CENTRAL, || detect_set(&central, &plan.ds.sigma));
        if dense {
            for (name, strategy) in [
                (CTRDETECT, CoordinatorStrategy::Central),
                (PATDETECTRT, CoordinatorStrategy::MinResponseTime),
            ] {
                let d = tracer.span(name, || run_batch(&part, &plan.simples, strategy, &plan.cfg));
                out.check(same_report(&d.violations, &reference.violations));
            }
            let d = tracer.span(POOL_T2, || plan.engine(&part, &run_config(2)));
            out.check(digest(&d) == want);
        }
        tracer.next_op();
    }

    let spans = tracer.spans();
    let layers = Layers::of(spans);
    let op_ms = report_engine_and_build(&engine_ms, plan.ds.rows.len(), &layers, &mut out);
    let central_ms = layers.ms(CENTRAL);
    out.set("cfd.central.ms", central_ms);
    out.set("core.runner.overhead_x", op_ms / central_ms);
    out.set(
        "cfd.validate.groups",
        reference.metrics.counter_total("dcd_kernel_groups_total") as f64,
    );
    out.set(
        "cfd.validate.probes",
        reference.metrics.counter_total("dcd_kernel_probes_total") as f64,
    );

    if reenacted {
        out.set("core.local.ms", layers.ms(LOCAL));
        out.set("core.local.rows_flagged", counts.rows_flagged as f64);
        out.set("core.sigma.ms", layers.ms(SIGMA));
        out.set("core.sigma.rows_matched", counts.rows_matched as f64);
        out.set("core.sigma.comparisons", counts.comparisons as f64);
        out.set("relation.code_rows.ms", layers.ms(CODE_ROWS));
        out.set("relation.code_rows.rows", counts.code_rows as f64);
        out.set("relation.code_rows.allocs", layers.allocs(CODE_ROWS));
        out.set("cfd.validate.ms", layers.ms(VALIDATE));
        out.set("cfd.validate.allocs", layers.allocs(VALIDATE));
        let mut in_op = vec![LOCAL, SIGMA, CODE_ROWS, VALIDATE];
        if plan.cold() {
            in_op.extend([INGEST, FRAGMENT]);
        }
        let names = ["core.runner.other_ms", "core.runner.coverage"];
        reconcile(job, names, &in_op, &layers, spans, op_ms, &mut out)?;
    } else {
        out.set("core.multi.seqdetect_ms", layers.ms(SEQDETECT));
        out.set("core.multi.ship_saving_x", seq_shipped as f64 / reference.shipped_tuples as f64);
        out.notes.push(
            "no re-enactment: run_cluster's phases are private, so only whole calls are spanned"
                .into(),
        );
    }
    if dense {
        out.set("core.runner.ctrdetect_ms", layers.ms(CTRDETECT));
        out.set("core.runner.patdetectrt_ms", layers.ms(PATDETECTRT));
        out.set("dist.pool.speedup_t2", op_ms / layers.ms(POOL_T2));
        out.notes.push(
            "dist.pool.speedup_t2 is informational: pool scaling is unverified on a shared host \
             with few cores"
                .into(),
        );
    }
    Ok(out)
}

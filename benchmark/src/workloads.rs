//! The five workloads: what data each runs on, which CFDs, and why it is
//! in the benchmark. Every size is an explicit constant and every random
//! choice derives from `--seed`; no environment variable is consulted.

use dcd_cfd::Cfd;
use dcd_core::{ComputeModel, CoordinatorStrategy, RunConfig};
use dcd_datagen::cust::{cust_cfds, cust_main_cfd};
use dcd_datagen::xref::xref_cfds;
use dcd_datagen::{inject_errors, CustConfig, XrefConfig};
use dcd_dist::{CostModel, HorizontalPartition};
use dcd_relation::{Relation, Schema, Value};
use std::sync::Arc;

/// Sites every relation is spread over, round-robin.
pub const SITES: usize = 8;
/// Share of tuples corrupted on each of two attributes.
pub const ERROR_RATE: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CustLoad,
    CustDense,
    CustSparse,
    XrefClust,
    CustIncr,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CustLoad,
        Workload::CustDense,
        Workload::CustSparse,
        Workload::XrefClust,
        Workload::CustIncr,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CustLoad => "cust_load",
            Workload::CustDense => "cust_dense",
            Workload::CustSparse => "cust_sparse",
            Workload::XrefClust => "xref_clust",
            Workload::CustIncr => "cust_incr",
        }
    }

    /// One line, repeated in `BENCHMARK.json` (a test keeps them equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CustLoad => {
                "cold journey rows -> from_rows -> round_robin -> PATDETECTS: the only workload \
                 where ingest and fragmenting do the work and the detect layers almost none"
            }
            Workload::CustDense => {
                "255 patterns, most tuples match and ship: code_rows and coordinator validation \
                 are about two thirds of the op, so a kernel, index or wire change shows here"
            }
            Workload::CustSparse => {
                "15 patterns plus 8 constant ones, few tuples ship: the sigma scan and the local \
                 constant check dominate, so a validate or wire change must read no change here"
            }
            Workload::XrefClust => {
                "three CFDs over 16 low-cardinality attributes through CLUSTDETECT: run_cluster \
                 is a code path of its own, separate from run_single_cfd"
            }
            Workload::CustIncr => {
                "half inserts, half deletes through IncrementalRun::apply_batch: the store is \
                 mutated instead of scanned, so a change that speeds scans but slows deletes shows"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes and fixed counts of one mode of the harness.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tuples of the cust relation the warm workloads detect over.
    pub cust_tuples: usize,
    /// Tuples of the relation one `cust_load` journey ingests: a tenth
    /// of `cust_tuples`, so that a run holds the hundred journeys a p90
    /// needs. The full-size cold build is what `setup_s` times.
    pub load_tuples: usize,
    pub xref_tuples: usize,
    /// Inserts plus deletes in one `cust_incr` batch.
    pub batch_ops: usize,
    /// Batches generated at a time against the session's current state.
    pub segment_batches: usize,
    /// Cold builds behind `setup_s` and the ingest/fragment layer rows.
    pub setup_reps: usize,
    /// Untimed operations before the window opens.
    pub warmup_ops: usize,
    /// Operations a window holds at least; the exact per-op metrics of
    /// `cust_incr` are taken over this many batches, so they repeat
    /// whatever the window's length.
    pub min_ops: usize,
    /// Rounds of the traced pass at least.
    pub min_trace_reps: usize,
}

pub const FULL: Scale = Scale {
    cust_tuples: 160_000,
    load_tuples: 16_000,
    xref_tuples: 80_000,
    batch_ops: 1_000,
    segment_batches: 250,
    setup_reps: 5,
    warmup_ops: 10,
    min_ops: 100,
    min_trace_reps: 30,
};

pub const SMOKE: Scale = Scale {
    cust_tuples: 2_000,
    load_tuples: 2_000,
    xref_tuples: 2_000,
    batch_ops: 50,
    segment_batches: 4,
    setup_reps: 2,
    warmup_ops: 1,
    min_ops: 5,
    min_trace_reps: 3,
};

/// Single-threaded, analytic clocks, default cost model — spelled out so
/// that `DCD_THREADS` (which `RunConfig::default()` reads) is never
/// consulted.
pub fn run_config(threads: usize) -> RunConfig {
    RunConfig { cost: CostModel::default(), compute: ComputeModel::Analytic, threads }
}

/// Generated inputs of one workload: the rows a caller would hand to
/// `Relation::from_rows`, and Σ.
pub struct Dataset {
    pub schema: Arc<Schema>,
    pub rows: Vec<Vec<Value>>,
    pub sigma: Vec<Cfd>,
    /// Coordinator strategy of the workload's engine call.
    pub strategy: CoordinatorStrategy,
}

fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
    rel.iter().map(|t| t.values().to_vec()).collect()
}

pub fn dataset(w: Workload, scale: &Scale, seed: u64) -> Dataset {
    match w {
        Workload::XrefClust => {
            let config = XrefConfig { n_tuples: scale.xref_tuples, seed, ..XrefConfig::default() };
            let clean = config.generate();
            let (dirty, _) = inject_errors(&clean, "source", ERROR_RATE, seed.wrapping_add(1));
            let (dirty, _) = inject_errors(&dirty, "db_release", ERROR_RATE, seed.wrapping_add(2));
            let schema = dirty.schema().clone();
            Dataset {
                sigma: xref_cfds(&schema, &config.organisms),
                rows: rows_of(&dirty),
                schema,
                strategy: CoordinatorStrategy::MinResponseTime,
            }
        }
        _ => {
            let n = if w == Workload::CustLoad { scale.load_tuples } else { scale.cust_tuples };
            let config = CustConfig { n_tuples: n, seed, ..CustConfig::default() };
            let clean = config.generate();
            let (dirty, _) = inject_errors(&clean, "street", ERROR_RATE, seed.wrapping_add(1));
            let (dirty, _) = inject_errors(&dirty, "city", ERROR_RATE, seed.wrapping_add(2));
            let schema = dirty.schema().clone();
            let sigma = if w == Workload::CustSparse {
                // The constant rule `cust_ac_city` is checked locally
                // (Proposition 5) and ships nothing.
                vec![
                    cust_main_cfd(&schema, &config, 15).to_cfd(),
                    cust_cfds(&schema).swap_remove(2),
                ]
            } else {
                vec![cust_main_cfd(&schema, &config, 255).to_cfd()]
            };
            Dataset {
                sigma,
                rows: rows_of(&dirty),
                schema,
                strategy: CoordinatorStrategy::MinShipment,
            }
        }
    }
}

impl Dataset {
    /// A deep copy of the rows — fresh row buffers and fresh string
    /// payloads, as a caller that parsed them from a file would hold —
    /// so that a cold build neither shares memory with an earlier one nor
    /// escapes the allocation count.
    pub fn fresh_rows(&self) -> Vec<Vec<Value>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Str(s) => Value::str(&**s),
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect()
    }

    /// The `relation.ingest` layer.
    pub fn ingest(&self, rows: Vec<Vec<Value>>) -> Relation {
        Relation::from_rows(self.schema.clone(), rows).expect("generated rows match the schema")
    }
}

/// The `dist.fragment` layer.
pub fn fragment(rel: &Relation) -> HorizontalPartition {
    HorizontalPartition::round_robin(rel, SITES).expect("round robin over SITES > 0 sites")
}

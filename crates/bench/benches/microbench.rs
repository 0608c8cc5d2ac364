//! Microbenchmarks for the hot loops over the Fig. 3 scaling workload
//! (`cust16`, the Exp-2/3 data):
//!
//! * `coordinator_validation` — the Phase-5 batch-validation kernel:
//!   everything 8 fragments hold gathered at one coordinator, validated
//!   value-wise (`detect_among` over `&Tuple`s — the pre-code-native
//!   wire) against code-native (`detect_among_codes` over `(tid,
//!   codes)` rows), recorded via `DCD_BENCH_CODE_JSON`;
//! * `parallel_sites` — a full `PATDETECTRT` detection round over 8
//!   sites with the persistent worker pool at `DCD_THREADS`-style width
//!   8 against the sequential path (width 1). On a single-core
//!   container the two are expected to tie (the pool cannot conjure
//!   cores); the row exists to measure the speedup wherever cores are
//!   available and to pin that the parallel path carries no
//!   pathological overhead;
//! * `morsel_execution` — the same detection round over a *skewed*
//!   2-site partition (90/10) and the uniform 8-site partition, at
//!   chunk sizes 4Ki and 64Ki against flat columns (one chunk per
//!   fragment = site-granular morsels), threads {1, 8}. Chunk-granular
//!   stealing is what lets width-8 beat site-granular scheduling on
//!   the skewed row wherever cores exist; at threads=1 the chunked
//!   runs measure the seam overhead of the chunk iterator (recorded
//!   via `DCD_BENCH_MORSEL_JSON`);
//! * `mining_incremental` — `DeltaEffect`-driven mined-tableau
//!   maintenance against a full re-mine per batch (recorded via
//!   `DCD_BENCH_MINING_JSON`).
//!
//! Set `DCD_BENCH_JSON=<path>` to additionally record the hot-loop
//! results as a `BENCH_*.json` perf-trajectory entry. The incremental
//! session's per-batch cost against full re-detection is the
//! `cust_incr` workload of `benchmark/` (`op_p50_ms`,
//! `incr.runner.redetect_x`).

use criterion::black_box;
use dcd_cfd::codes::{detect_among_codes, CodeLayout, CodeRow};
use dcd_cfd::detect_among;
use dcd_core::{run_batch, CoordinatorStrategy, MinedTableau, MiningConfig, RunConfig};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_dist::{Fragment, HorizontalPartition, SiteId};
use dcd_relation::{set_chunk_rows, Tuple};
use std::time::{Duration, Instant};

/// Median wall time of `samples` runs (one untimed warm-up).
fn median_time<O>(samples: usize, mut f: impl FnMut() -> O) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

struct Comparison {
    name: &'static str,
    baseline_label: &'static str,
    live_label: &'static str,
    baseline: Duration,
    live: Duration,
}

impl Comparison {
    fn speedup(&self) -> f64 {
        self.baseline.as_secs_f64() / self.live.as_secs_f64().max(f64::EPSILON)
    }
}

fn main() {
    let samples: usize =
        std::env::var("DCD_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(7);
    let w = dcd_bench::workloads::cust16();
    let rel = &w.relation;
    let cfd = w.main_cfd();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    println!(
        "microbench: cust16 fig3-scaling workload — {} tuples, {} LHS attrs, {} patterns, {} samples, {} cores",
        rel.len(),
        cfd.lhs.len(),
        cfd.tableau.len(),
        samples,
        cores,
    );

    let partition = w.partition(8);
    let sequential = RunConfig::default().with_threads(1);
    let pooled = RunConfig::default().with_threads(8);

    // coordinator_validation: the Phase-5 kernel — everything the 8
    // fragments hold, gathered at one coordinator and validated there.
    // Baseline: the legacy value-wise wire (`&Tuple`s, `Vec<Value>`
    // group keys). Live: the code-native wire (`(tid, codes)` rows,
    // packed `CodeKey`s, u32 RHS compares).
    let attrs = cfd.shipped_attrs();
    let decoded: Vec<Tuple> = partition.fragments().iter().flat_map(|f| f.data.iter()).collect();
    let gathered_tuples: Vec<&Tuple> = decoded.iter().collect();
    let gathered_rows: Vec<CodeRow> = partition
        .fragments()
        .iter()
        .flat_map(|f| {
            let all: Vec<usize> = (0..f.data.len()).collect();
            f.data.code_rows(&attrs, &all)
        })
        .collect();
    let layout = CodeLayout::of_relation(&partition.fragments()[0].data, &attrs);

    let comparisons = vec![
        Comparison {
            name: "coordinator_validation",
            baseline_label: "value-wise",
            live_label: "code-native",
            baseline: median_time(samples, || detect_among(&gathered_tuples, &cfd)),
            live: median_time(samples, || detect_among_codes(&gathered_rows, &cfd, &layout)),
        },
        Comparison {
            name: "parallel_sites",
            baseline_label: "threads=1",
            live_label: "threads=8",
            baseline: median_time(samples, || {
                run_batch(
                    &partition,
                    std::slice::from_ref(&cfd),
                    CoordinatorStrategy::MinResponseTime,
                    &sequential,
                )
            }),
            live: median_time(samples, || {
                run_batch(
                    &partition,
                    std::slice::from_ref(&cfd),
                    CoordinatorStrategy::MinResponseTime,
                    &pooled,
                )
            }),
        },
    ];

    for c in &comparisons {
        println!(
            "  {:<22} {} {:>10.3?}   {} {:>10.3?}   speedup {:>5.2}x",
            c.name,
            c.baseline_label,
            c.baseline,
            c.live_label,
            c.live,
            c.speedup()
        );
    }

    // ---- morsel_execution: chunk-granular stealing over the
    // persistent pool. Partitions are rebuilt under each chunk size
    // (columns fix their layout at construction); "flat" forces one
    // chunk per fragment, i.e. site-granular morsels — the pre-chunking
    // execution model. ----
    struct MorselCell {
        partition: &'static str,
        chunk: &'static str,
        threads: usize,
        ms: f64,
    }
    let build_partitions = || {
        // Uniform 8-site round robin, plus a 90/10 skewed 2-site split:
        // the workload where site-granular scheduling strands one
        // worker with 9x the data.
        let uniform = w.partition(8);
        let cut = rel.len() * 9 / 10;
        let frag = |site: usize, rows: std::ops::Range<usize>| Fragment {
            site: SiteId(site as u32),
            predicate: None,
            data: rel.copy_rows(&rows.collect::<Vec<_>>()),
        };
        let skewed = HorizontalPartition::from_fragments(
            rel.schema().clone(),
            vec![frag(0, 0..cut), frag(1, cut..rel.len())],
        )
        .expect("sequential hand-built fragments");
        (skewed, uniform)
    };
    const KI: usize = 1024;
    // Every chunk layout is materialized up front and all cells are
    // sampled round-robin (one observation per cell per round, chunked
    // and flat back-to-back) — a cell measured minutes after its flat
    // baseline would fold host clock drift into the vs-flat ratios.
    let layouts: Vec<(&'static str, HorizontalPartition, HorizontalPartition)> =
        [("4Ki", 4 * KI), ("64Ki", 64 * KI), ("flat", 1 << 30)]
            .into_iter()
            .map(|(label, chunk)| {
                set_chunk_rows(Some(chunk));
                let (skewed, uniform) = build_partitions();
                set_chunk_rows(None);
                (label, skewed, uniform)
            })
            .collect();
    let mut meta: Vec<(&'static str, &'static str, usize)> = Vec::new();
    for (label, _, _) in &layouts {
        for pname in ["skewed_2site", "uniform_8site"] {
            for threads in [1usize, 8] {
                meta.push((pname, label, threads));
            }
        }
    }
    let mut cell_times: Vec<Vec<Duration>> = vec![Vec::with_capacity(samples); meta.len()];
    for round in 0..=samples {
        // Round 0 is the untimed warm-up pass.
        let mut k = 0usize;
        for (_, skewed, uniform) in &layouts {
            for p in [skewed, uniform] {
                for threads in [1usize, 8] {
                    let cfgx = RunConfig::default().with_threads(threads);
                    let start = Instant::now();
                    black_box(run_batch(
                        p,
                        std::slice::from_ref(&cfd),
                        CoordinatorStrategy::MinResponseTime,
                        &cfgx,
                    ));
                    let elapsed = start.elapsed();
                    if round > 0 {
                        cell_times[k].push(elapsed);
                    }
                    k += 1;
                }
            }
        }
    }
    let morsel_cells: Vec<MorselCell> = meta
        .iter()
        .zip(cell_times.iter_mut())
        .map(|(&(pname, label, threads), times)| {
            times.sort();
            MorselCell {
                partition: pname,
                chunk: label,
                threads,
                ms: times[times.len() / 2].as_secs_f64() * 1e3,
            }
        })
        .collect();
    let cell = |partition: &str, chunk: &str, threads: usize| {
        morsel_cells
            .iter()
            .find(|c| c.partition == partition && c.chunk == chunk && c.threads == threads)
            .expect("cell measured")
            .ms
    };
    for c in &morsel_cells {
        let flat1 = cell(c.partition, "flat", 1);
        println!(
            "  morsel {:<14} chunk {:<5} threads {} {:>9.3}ms   vs flat@1 {:>5.2}x",
            c.partition,
            c.chunk,
            c.threads,
            c.ms,
            flat1 / c.ms.max(f64::EPSILON),
        );
    }

    if let Ok(path) = std::env::var("DCD_BENCH_MORSEL_JSON") {
        let entries: Vec<String> = morsel_cells
            .iter()
            .map(|c| {
                format!(
                    "    {{\"partition\": \"{}\", \"chunk\": \"{}\", \"threads\": {}, \"ms\": {:.3}}}",
                    c.partition, c.chunk, c.threads, c.ms
                )
            })
            .collect();
        let overhead = |p: &str, ch: &str| {
            (cell(p, ch, 1) / cell(p, "flat", 1).max(f64::EPSILON) - 1.0) * 100.0
        };
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"dcd_morsel_execution\",\n",
                "  \"workload\": \"cust16 (fig3 scaling), DCD_SCALE={}\",\n",
                "  \"tuples\": {},\n",
                "  \"patterns\": {},\n",
                "  \"samples\": {},\n",
                "  \"cores\": {},\n",
                "  \"skew\": \"skewed_2site = 90/10 split; uniform_8site = round robin\",\n",
                "  \"threads1_overhead_vs_flat_pct\": {{\n",
                "    \"skewed_2site/4Ki\": {:.1}, \"skewed_2site/64Ki\": {:.1},\n",
                "    \"uniform_8site/4Ki\": {:.1}, \"uniform_8site/64Ki\": {:.1}\n",
                "  }},\n",
                "  \"note\": \"{}\",\n",
                "  \"results\": [\n{}\n  ]\n",
                "}}\n"
            ),
            dcd_bench::workloads::scale(),
            rel.len(),
            cfd.tableau.len(),
            samples,
            cores,
            overhead("skewed_2site", "4Ki"),
            overhead("skewed_2site", "64Ki"),
            overhead("uniform_8site", "4Ki"),
            overhead("uniform_8site", "64Ki"),
            if cores > 1 {
                "chunk-granular morsels let width-8 steal the skewed site's tail; \
                 flat rows are site-granular scheduling"
            } else {
                "single-core host: threads=8 rows measure pool overhead only; the \
                 acceptance figure is the threads=1 chunked-vs-flat overhead, which \
                 must stay within a few percent"
            },
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write DCD_BENCH_MORSEL_JSON");
        println!("  wrote {path}");
    }

    // ---- mining_incremental: one MinedTableau's support counts
    // maintained through ±1 DeltaEffect updates against a full re-mine
    // of the mutated partition per batch. ----
    let ops_per_batch = 1_000usize;
    let mining_cfg = MiningConfig { theta: 0.1, max_width: 2 };
    let mut mpart = partition.clone();
    let mut miner = MinedTableau::build(&mpart, &cfd, &mining_cfg);
    let mine_stream = update_stream(
        &mpart,
        &UpdateStreamConfig { n_batches: samples, ops_per_batch, ..Default::default() },
    );
    let mut maintain_times: Vec<Duration> = Vec::with_capacity(samples);
    let mut remine_times: Vec<Duration> = Vec::with_capacity(samples);
    for per_site in mine_stream {
        let effects: Vec<_> = per_site
            .iter()
            .enumerate()
            .map(|(si, delta)| {
                (si, mpart.fragments_mut()[si].data.apply_delta(delta).expect("batches apply"))
            })
            .collect();
        let start = Instant::now();
        for (si, eff) in &effects {
            miner.apply_site_effect(*si, eff);
        }
        black_box(&miner);
        maintain_times.push(start.elapsed());
        let start = Instant::now();
        black_box(MinedTableau::build(&mpart, &cfd, &mining_cfg));
        remine_times.push(start.elapsed());
    }
    maintain_times.sort();
    remine_times.sort();
    let incr_mine = Comparison {
        name: "mining_incremental",
        baseline_label: "full_remine",
        live_label: "maintain",
        baseline: remine_times[remine_times.len() / 2],
        live: maintain_times[maintain_times.len() / 2],
    };
    println!(
        "  {:<22} {} {:>10.3?}   {} {:>10.3?}   speedup {:>5.2}x   ({} ops/batch, {} masks)",
        incr_mine.name,
        incr_mine.baseline_label,
        incr_mine.baseline,
        incr_mine.live_label,
        incr_mine.live,
        incr_mine.speedup(),
        ops_per_batch,
        miner.n_masks(),
    );

    if let Ok(path) = std::env::var("DCD_BENCH_MINING_JSON") {
        let entry = |c: &Comparison| {
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"baseline\": \"{}\", ",
                    "\"baseline_ms\": {:.3}, \"live\": \"{}\", ",
                    "\"live_ms\": {:.3}, \"speedup\": {:.2}}}"
                ),
                c.name,
                c.baseline_label,
                c.baseline.as_secs_f64() * 1e3,
                c.live_label,
                c.live.as_secs_f64() * 1e3,
                c.speedup()
            )
        };
        let entries = [entry(&incr_mine)];
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"dcd_mining_codes\",\n",
                "  \"workload\": \"cust16 (fig3 scaling), DCD_SCALE={}, 8 sites\",\n",
                "  \"tuples\": {},\n",
                "  \"lhs_attrs\": {},\n",
                "  \"masks\": {},\n",
                "  \"theta\": {},\n",
                "  \"max_width\": {},\n",
                "  \"ops_per_batch\": {},\n",
                "  \"samples\": {},\n",
                "  \"cores\": {},\n",
                "  \"note\": \"mining_incremental maintains one tableau's supports via \
                 DeltaEffect ±1 updates vs a full re-mine per batch.\",\n",
                "  \"results\": [\n{}\n  ]\n",
                "}}\n"
            ),
            dcd_bench::workloads::scale(),
            rel.len(),
            cfd.lhs.len(),
            miner.n_masks(),
            mining_cfg.theta,
            mining_cfg.max_width,
            ops_per_batch,
            samples,
            cores,
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write DCD_BENCH_MINING_JSON");
        println!("  wrote {path}");
    }

    if let Ok(path) = std::env::var("DCD_BENCH_CODE_JSON") {
        let c = &comparisons[0];
        assert_eq!(c.name, "coordinator_validation");
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"dcd_coordinator_validation\",\n",
                "  \"workload\": \"cust16 (fig3 scaling), DCD_SCALE={}, 8 sites, full gather\",\n",
                "  \"tuples\": {},\n",
                "  \"lhs_attrs\": {},\n",
                "  \"patterns\": {},\n",
                "  \"cores\": {},\n",
                "  \"value_wise_ms\": {:.3},\n",
                "  \"code_native_ms\": {:.3},\n",
                "  \"speedup\": {:.2},\n",
                "  \"note\": \"Phase-5 batch validation of one full 8-site gather at a \
                 coordinator. value_wise is the legacy wire (&Tuple payloads, Vec<Value> \
                 group keys); code_native is what run_single_cfd ships since the \
                 code-native port ((tid, codes) rows, packed CodeKeys, u32 RHS compares, \
                 4 bytes/cell on the ledger).\"\n",
                "}}\n"
            ),
            dcd_bench::workloads::scale(),
            rel.len(),
            cfd.lhs.len(),
            cfd.tableau.len(),
            cores,
            c.baseline.as_secs_f64() * 1e3,
            c.live.as_secs_f64() * 1e3,
            c.speedup(),
        );
        std::fs::write(&path, json).expect("write DCD_BENCH_CODE_JSON");
        println!("  wrote {path}");
    }

    if let Ok(path) = std::env::var("DCD_BENCH_JSON") {
        let entries: Vec<String> = comparisons
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "    {{\"name\": \"{}\", \"baseline\": \"{}\", ",
                        "\"baseline_ms\": {:.3}, \"live\": \"{}\", ",
                        "\"live_ms\": {:.3}, \"speedup\": {:.2}}}"
                    ),
                    c.name,
                    c.baseline_label,
                    c.baseline.as_secs_f64() * 1e3,
                    c.live_label,
                    c.live.as_secs_f64() * 1e3,
                    c.speedup()
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"dcd_microbench\",\n",
                "  \"workload\": \"cust16 (fig3 scaling), DCD_SCALE={}\",\n",
                "  \"tuples\": {},\n",
                "  \"lhs_attrs\": {},\n",
                "  \"patterns\": {},\n",
                "  \"samples\": {},\n",
                "  \"cores\": {},\n",
                "  \"sites\": 8,\n",
                "  \"note\": \"{}\",\n",
                "  \"results\": [\n{}\n  ]\n",
                "}}\n"
            ),
            dcd_bench::workloads::scale(),
            rel.len(),
            cfd.lhs.len(),
            cfd.tableau.len(),
            samples,
            cores,
            if cores > 1 {
                "parallel_sites compares the scoped pool at width 8 against width 1"
            } else {
                "single-core host: parallel_sites can only measure pool overhead \
                 (speedup ~1.0 expected); outputs are bit-identical at every width"
            },
            entries.join(",\n")
        );
        std::fs::write(&path, json).expect("write DCD_BENCH_JSON");
        println!("  wrote {path}");
    }
}

//! Ablation benches for the design choices DESIGN.md calls out:
//! σ-partitioning vs. a naive per-pattern scan, the Fx hasher vs.
//! SipHash in the group-by detector, and coordinator choice.

use criterion::{criterion_group, criterion_main, Criterion};
use dcd_bench::workloads::cust8;
use dcd_cfd::pattern::tuple_matches;
use dcd_core::sigma::{sigma_partition, sort_for_sigma};
use dcd_core::{run_batch, CoordinatorStrategy, RunConfig};
use dcd_relation::{FxHashMap, Tuple, Value};
use std::collections::HashMap;

/// σ-partition (one pass, first match) vs. scanning every pattern for
/// every tuple (what a per-pattern shipping loop without Lemma 6 would
/// do: k passes).
fn bench_sigma_vs_naive(c: &mut Criterion) {
    let w = cust8();
    let cfd = w.main_cfd_with(105);
    let sorted = sort_for_sigma(&cfd);
    let applicable: Vec<usize> = (0..sorted.cfd.tableau.len()).collect();
    let frag = w.partition(4);
    let data = &frag.fragments()[0].data;
    // The naive arm matches values: decode outside the timed loop.
    let rows: Vec<Tuple> = data.iter().collect();

    let mut group = c.benchmark_group("ablation_partitioning");
    group.sample_size(10);
    group.bench_function("sigma_first_match", |b| {
        b.iter(|| sigma_partition(data, &sorted, &applicable))
    });
    group.bench_function("naive_all_patterns", |b| {
        b.iter(|| {
            let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); sorted.cfd.tableau.len()];
            for (ti, t) in rows.iter().enumerate() {
                for (pi, p) in sorted.cfd.tableau.iter().enumerate() {
                    if tuple_matches(t, &sorted.cfd.lhs, &p.lhs) {
                        blocks[pi].push(ti);
                    }
                }
            }
            blocks
        })
    });
    group.finish();
}

/// The hot group-by path with the Fx hasher vs. the default SipHash.
fn bench_hashers(c: &mut Criterion) {
    let w = cust8();
    let rel = &w.relation;
    let cc = rel.schema().require("CC").unwrap();
    let zip = rel.schema().require("zip").unwrap();
    let rows: Vec<Tuple> = rel.iter().collect();

    let mut group = c.benchmark_group("ablation_hashing");
    group.sample_size(10);
    group.bench_function("fx_hash_group_by", |b| {
        b.iter(|| {
            let mut m: FxHashMap<Vec<Value>, u32> = FxHashMap::default();
            for t in &rows {
                *m.entry(t.project(&[cc, zip])).or_insert(0) += 1;
            }
            m.len()
        })
    });
    group.bench_function("sip_hash_group_by", |b| {
        b.iter(|| {
            let mut m: HashMap<Vec<Value>, u32> = HashMap::new();
            for t in &rows {
                *m.entry(t.project(&[cc, zip])).or_insert(0) += 1;
            }
            m.len()
        })
    });
    group.finish();
}

/// Coordinator strategy ablation: single max-stat coordinator
/// (CTRDETECT) vs. per-pattern coordinators (PATDETECTS) — full runs.
fn bench_coordinator_choice(c: &mut Criterion) {
    let w = cust8();
    let cfd = w.main_cfd();
    let cfg = RunConfig::default();
    let partition = w.partition(8);
    let mut group = c.benchmark_group("ablation_coordinator");
    group.sample_size(10);
    group.bench_function("single_coordinator", |b| {
        b.iter(|| {
            run_batch(&partition, std::slice::from_ref(&cfd), CoordinatorStrategy::Central, &cfg)
        })
    });
    group.bench_function("per_pattern_coordinators", |b| {
        b.iter(|| {
            run_batch(
                &partition,
                std::slice::from_ref(&cfd),
                CoordinatorStrategy::MinShipment,
                &cfg,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sigma_vs_naive, bench_hashers, bench_coordinator_choice);
criterion_main!(benches);

//! `CLUSTDETECT` pinned from both sides. For a fixed list of seeds, each
//! generating a relation, a Σ whose LHSs form containment families and
//! a partition: (1) every CFD's `Vio`/`Vioπ` equals the pairwise
//! `dcd_cfd::oracle` on the unfragmented relation, under all three
//! coordinator strategies and pool widths 1 and 4; (2) everything the
//! cost model and the kernel counters recorded — ledger totals, clocks
//! by bit pattern, `dcd_kernel_*` series — equals
//! `tests/golden/cluster_rounds.txt`, recorded at the parent commit of
//! the change that moved the cluster round onto column batches. How a
//! coordinator gathers and groups its rows is an implementation detail;
//! what it ships, when it finishes and what it counts is not — so both
//! goldens are read over relations as built and with grown dictionaries,
//! where every scan hashes the keys it would otherwise index in slots.
//!
//! A second seed list generates Σs whose clustering leaves CFDs alone —
//! LHSs related to no other — and pins the same two sides plus the span
//! list against `tests/golden/singleton_rounds.txt`, recorded at the
//! parent commit of the change that sent singletons through the cluster
//! round: a cluster of one charges and names what the single-CFD round
//! does, and a third test says so without a golden, Σ = {φ} against
//! `run_batch`. A fourth holds the other engines that run every CFD as a
//! cluster of one — `SEQDETECT`, and `REPDETECT` at replication factor 1
//! — to `run_batch` the same way.

mod common;

use common::{grow_dictionaries, Rng};
use dcd_cfd::oracle;
use distributed_cfd::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .attr("e", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

/// Rows over tiny domains, so groups collide and conflict often.
fn relation(rng: &mut Rng) -> Relation {
    let n = rng.below(70) as i64;
    let rows = (0..n)
        .map(|i| {
            vals![
                i,
                rng.below(3) as i64,
                rng.below(3) as i64,
                format!("c{}", rng.below(3)),
                format!("d{}", rng.below(3)),
                format!("e{}", rng.below(2))
            ]
        })
        .collect();
    Relation::from_rows(schema(), rows).unwrap()
}

/// The value of LHS attribute `attr` in a pattern: mostly wild, else a
/// constant of the domain, now and then one no tuple carries.
fn lhs_cell(rng: &mut Rng, attr: &str, unmatched: bool) -> PatternValue {
    let unseen = unmatched || rng.chance(5);
    match attr {
        "a" if unmatched => PatternValue::constant(9i64),
        _ if rng.chance(60) => PatternValue::Wild,
        "c" | "d" | "e" if unseen => PatternValue::constant(format!("{attr}9")),
        "c" | "d" | "e" => PatternValue::constant(format!("{attr}{}", rng.below(3))),
        _ if unseen => PatternValue::constant(9i64),
        _ => PatternValue::constant(rng.below(3) as i64),
    }
}

/// One tableau row: a cell per LHS attribute and an RHS cell that is a
/// constant of `rhs`'s domain `constant_percent` times in a hundred.
fn pattern_row(
    rng: &mut Rng,
    lhs: &[&str],
    rhs: &str,
    unmatched: bool,
    constant_percent: u64,
) -> PatternTuple {
    let cells = lhs.iter().map(|attr| lhs_cell(rng, attr, unmatched)).collect();
    let rhs_cell = if rng.chance(constant_percent) {
        PatternValue::constant(format!("{rhs}{}", rng.below(3)))
    } else {
        PatternValue::Wild
    };
    PatternTuple::new(cells, vec![rhs_cell])
}

/// 2–4 CFDs whose LHSs all contain `a` (so the greedy clustering finds
/// containment families around it), now and then an empty LHS (the
/// degenerate `Z = ∅` cluster). RHS patterns mix `_` and constants —
/// constant ones are checked locally and leave the member's variable
/// part, possibly nothing, to the cluster; an `unmatched` member pins
/// `a = 9`, which no tuple has.
fn sigma(rng: &mut Rng) -> Vec<Cfd> {
    const LHS: [&[&str]; 6] =
        [&["a"], &["a", "b"], &["b", "a"], &["a", "c"], &["a", "b", "c"], &["c", "b", "a"]];
    let s = schema();
    (0..2 + rng.below(3))
        .map(|k| {
            let lhs: &[&str] = if rng.chance(6) { &[] } else { LHS[rng.below(6) as usize] };
            let rhs = if rng.chance(50) { "d" } else { "e" };
            let unmatched = rng.chance(15);
            let tableau =
                (0..1 + rng.below(3)).map(|_| pattern_row(rng, lhs, rhs, unmatched, 30)).collect();
            Cfd::with_names(format!("m{k}"), s.clone(), lhs, &[rhs], tableau).unwrap()
        })
        .collect()
}

/// An `a`-family of 0–2 CFDs beside one or two CFDs whose LHS is related
/// to no other — over `b` (alone or with `e`) and over `d` — so the
/// greedy clustering leaves them as clusters of one. 1–3 patterns each,
/// so a coordinator holds several σ-blocks and `Σ check_time(|block|)`
/// is not `check_time(Σ |block|)`; now and then a row of the tableau is
/// repeated verbatim (`k` counts it), and now and then a lone CFD is
/// purely constant (it ships nothing). The list is rotated, so a
/// singleton runs before, between or after the family's round.
fn singleton_sigma(rng: &mut Rng) -> Vec<Cfd> {
    const FAMILY: [&[&str]; 3] = [&["a"], &["a", "c"], &["c", "a"]];
    const OVER_B: [&[&str]; 3] = [&["b"], &["b", "e"], &["e", "b"]];
    let mut shapes: Vec<(&[&str], &str)> = (0..rng.below(3))
        .map(|_| (FAMILY[rng.below(3) as usize], if rng.chance(50) { "d" } else { "e" }))
        .collect();
    let over_b = rng.chance(75);
    if over_b {
        shapes.push((OVER_B[rng.below(3) as usize], if rng.chance(50) { "c" } else { "d" }));
    }
    if !over_b || rng.chance(60) {
        shapes.push((&["d"], if rng.chance(50) { "c" } else { "e" }));
    }
    let by = rng.below(shapes.len() as u64) as usize;
    shapes.rotate_left(by);
    let s = schema();
    shapes
        .into_iter()
        .enumerate()
        .map(|(k, (lhs, rhs))| {
            let alone = !lhs.contains(&"a");
            let constant_percent = if alone && rng.chance(15) { 100 } else { 25 };
            let unmatched = rng.chance(10);
            let mut tableau: Vec<PatternTuple> = (0..1 + rng.below(3))
                .map(|_| pattern_row(rng, lhs, rhs, unmatched, constant_percent))
                .collect();
            if rng.chance(25) {
                let again = tableau[rng.below(tableau.len() as u64) as usize].clone();
                tableau.push(again);
            }
            Cfd::with_names(format!("m{k}"), s.clone(), lhs, &[rhs], tableau).unwrap()
        })
        .collect()
}

/// One site, a few, or more sites than some relations have rows (empty
/// sites); round-robin or co-located by `b`.
fn partition(rng: &mut Rng, rel: &Relation) -> HorizontalPartition {
    let n = [1, 2, 3, 5, 8][rng.below(5) as usize];
    if rng.chance(30) {
        HorizontalPartition::by_attribute(rel, "b", n).unwrap()
    } else {
        HorizontalPartition::round_robin(rel, n).unwrap()
    }
}

/// What the run shipped, when every site finished, and what the kernel
/// counted — floats by bit pattern.
fn recorded(label: &str, d: &Detection) -> String {
    let mut out = format!("== {label}\n");
    for (name, vs) in &d.violations.per_cfd {
        out += &format!("vio {name} {} {}\n", vs.len(), vs.pattern_count());
    }
    out += &format!(
        "shipped {} {} {} control {} {}\n",
        d.shipped_tuples, d.shipped_cells, d.shipped_bytes, d.control_messages, d.control_bytes
    );
    out += &format!("response_time {:#018x}\n", d.response_time.to_bits());
    out += &format!("paper_cost {:#018x}\n", d.paper_cost.to_bits());
    for (site, clock) in d.site_clocks.iter().enumerate() {
        out += &format!("site_clock {site} {:#018x}\n", clock.to_bits());
    }
    for line in d.metrics.expose().lines().filter(|l| l.starts_with("dcd_kernel_")) {
        out += line;
        out += "\n";
    }
    out
}

/// [`recorded`] plus the span list: which phase moved which site's
/// clock from when to when, under which CFD's name.
fn recorded_with_spans(label: &str, d: &Detection) -> String {
    let mut out = recorded(label, d);
    for s in &d.trace.spans {
        out += &format!(
            "span {} {} {:#018x} {:#018x}\n",
            s.name,
            s.site,
            s.start.to_bits(),
            s.end.to_bits()
        );
    }
    out
}

const STRATEGIES: [CoordinatorStrategy; 3] = [
    CoordinatorStrategy::Central,
    CoordinatorStrategy::MinShipment,
    CoordinatorStrategy::MinResponseTime,
];

/// A Σ generator: [`sigma`] or [`singleton_sigma`].
type SigmaOf = fn(&mut Rng) -> Vec<Cfd>;

const SEEDS: std::ops::Range<u64> = 0..40;
const SINGLETON_SEEDS: std::ops::Range<u64> = 100..130;

/// Runs every seed's case — relation (its dictionaries `grown` or as
/// built), Σ from `sigma_of`, partition — through `CLUSTDETECT` under all three
/// strategies at pool widths 1 and 4, checks every CFD's `Vio`/`Vioπ`
/// against the oracle and that both widths record the same, and returns
/// the labelled detections.
fn detections(
    seeds: std::ops::Range<u64>,
    sigma_of: SigmaOf,
    grown: bool,
) -> Vec<(String, Detection)> {
    let mut out = Vec::new();
    for seed in seeds {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        if grown {
            grow_dictionaries(&rel);
        }
        let sigma = sigma_of(&mut rng);
        let partition = partition(&mut rng, &rel);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        for strategy in STRATEGIES {
            let label = format!("seed {seed} {strategy:?}");
            let [at_one, at_four] = [1, 4].map(|threads| {
                let d = DetectRequest::over(partition.clone())
                    .cfds(sigma.iter().cloned())
                    .algorithm(Algorithm::ClustDetect(strategy))
                    .config(RunConfig::default().with_threads(threads))
                    .plan()
                    .map(|plan| plan.run())
                    .expect("generated requests are valid");
                assert_eq!(d.violations.per_cfd.len(), sigma.len(), "{label}: one entry per CFD");
                for simple in sigma.iter().flat_map(Cfd::simplify) {
                    let want = oracle::vio(&tuples, &simple);
                    let (_, vs) = d
                        .violations
                        .per_cfd
                        .iter()
                        .find(|(name, _)| **name == *simple.name)
                        .expect("an entry per CFD");
                    assert_eq!(vs, &want, "{label} @{threads}: Vio, Vioπ({})", simple.name);
                }
                d
            });
            assert_eq!(at_one, at_four, "{label}: pool width reached the meters");
            out.push((label, at_one));
        }
    }
    out
}

/// How many rounds of `d` validated under a label other than `cluster`
/// — clusters of one — and how many under `cluster`.
fn rounds(d: &Detection) -> (usize, usize) {
    let mut names: Vec<&str> =
        d.trace.spans.iter().filter_map(|s| s.name.strip_prefix("validate:")).collect();
    names.dedup();
    let families = names.iter().filter(|n| **n == "cluster").count();
    (names.len() - families, families)
}

#[test]
fn cluster_rounds_equal_the_oracle_and_the_recorded_meters() {
    for grown in [false, true] {
        let runs = detections(SEEDS, sigma, grown);
        let clustered = runs.iter().filter(|(_, d)| rounds(d).1 > 0).count();
        assert!(2 * clustered > 3 * SEEDS.count(), "most cases should validate a real cluster");
        let got: String = runs.iter().map(|(label, d)| recorded(label, d)).collect();
        assert_eq!(got, include_str!("golden/cluster_rounds.txt"), "grown: {grown}");
    }
}

#[test]
fn singleton_rounds_equal_the_oracle_and_the_recorded_meters() {
    for grown in [false, true] {
        let runs = detections(SINGLETON_SEEDS, singleton_sigma, grown);
        let (mut alone, mut beside_a_family) = (0, 0);
        for (_, d) in &runs {
            let (singletons, families) = rounds(d);
            alone += singletons;
            beside_a_family += usize::from(singletons > 0 && families > 0);
        }
        let seeds = SINGLETON_SEEDS.count();
        assert!(alone > 3 * seeds, "most cases should validate a cluster of one");
        assert!(beside_a_family > seeds, "and a third of them beside a family");
        let got: String = runs.iter().map(|(label, d)| recorded_with_spans(label, d)).collect();
        assert_eq!(got, include_str!("golden/singleton_rounds.txt"), "grown: {grown}");
    }
}

/// `got` reads what `want` reads: per-CFD `Vio`/`Vioπ`, ledger, every
/// clock, response time and paper cost by bit pattern, the spans by
/// name, site and instant. Only the label and the kernel's query counts
/// may differ — by design, so the runs are compared field by field
/// instead of with `==`.
fn assert_same_run(label: &str, got: &Detection, want: &Detection) {
    assert_eq!(got.violations.per_cfd.len(), want.violations.per_cfd.len(), "{label}");
    for ((name, got), (_, want)) in got.violations.per_cfd.iter().zip(&want.violations.per_cfd) {
        assert_eq!(got, want, "{label}: Vio, Vioπ({name})");
    }
    let ledger = |d: &Detection| {
        let shipped = (d.shipped_tuples, d.shipped_cells, d.shipped_bytes);
        (shipped, d.control_messages, d.control_bytes)
    };
    assert_eq!(ledger(got), ledger(want), "{label}: ledger");
    let bits = |clocks: &[f64]| clocks.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.site_clocks), bits(&want.site_clocks), "{label}: clocks");
    assert_eq!(got.response_time.to_bits(), want.response_time.to_bits(), "{label}");
    assert_eq!(got.paper_cost.to_bits(), want.paper_cost.to_bits(), "{label}: paper_cost");
    assert_eq!(got.trace.spans, want.trace.spans, "{label}: spans");
}

/// Every seed's case of both Σ generators: seed, Σ, partition.
fn cases() -> impl Iterator<Item = (u64, Vec<Cfd>, HorizontalPartition)> {
    let generators: [(_, SigmaOf); 2] = [(SEEDS, sigma), (SINGLETON_SEEDS, singleton_sigma)];
    generators.into_iter().flat_map(|(seeds, sigma_of)| {
        seeds.map(move |seed| {
            let mut rng = Rng(seed);
            let rel = relation(&mut rng);
            let sigma = sigma_of(&mut rng);
            let partition = partition(&mut rng, &rel);
            (seed, sigma, partition)
        })
    })
}

/// Σ = {φ} is a cluster of one, and a cluster of one is the single-CFD
/// round: `CLUSTDETECT` over it reads what `run_batch` reads, an
/// empty-LHS φ included.
#[test]
fn a_cluster_of_one_is_the_single_cfd_round() {
    use dcd_core::{run_batch, run_clust};
    let cfg = RunConfig::default();
    for (seed, sigma, partition) in cases() {
        for (phi, strategy) in sigma.iter().flat_map(|phi| STRATEGIES.map(|s| (phi, s))) {
            let label = format!("seed {seed} {} {strategy:?}", phi.name());
            let one = run_clust(&partition, std::slice::from_ref(phi), strategy, &cfg);
            let single = run_batch(&partition, &phi.simplify(), strategy, &cfg);
            assert_same_run(&label, &one, &single);
        }
    }
}

/// The engines that run every CFD as a cluster of one read what
/// `run_batch` reads: `SEQDETECT` over Σ under each strategy, and
/// `REPDETECT` at replication factor 1 (each site holds its own
/// fragment only), which is `PATDETECTS`.
#[test]
fn seqdetect_and_repdetect_at_factor_one_are_the_single_cfd_rounds() {
    use dcd_core::{run_batch, run_replicated, run_seq};
    let cfg = RunConfig::default();
    for (seed, sigma, partition) in cases() {
        let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
        for strategy in STRATEGIES {
            let seq = run_seq(&partition, &sigma, strategy, &cfg);
            let batch = run_batch(&partition, &simples, strategy, &cfg);
            assert_same_run(&format!("seed {seed} SEQDETECT {strategy:?}"), &seq, &batch);
        }
        let replicated = ReplicatedPartition::chained(partition.clone(), 1).unwrap();
        let rep = run_replicated(&replicated, &sigma, &cfg);
        let pats = run_batch(&partition, &simples, CoordinatorStrategy::MinShipment, &cfg);
        assert_same_run(&format!("seed {seed} REPDETECT"), &rep, &pats);
    }
}

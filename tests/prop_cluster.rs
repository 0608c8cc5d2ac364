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
//! what it ships, when it finishes and what it counts is not.

use distributed_cfd::cfd::oracle;
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

/// SplitMix64: the whole case derives from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
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
        "c" if unseen => PatternValue::constant("c9"),
        "c" => PatternValue::constant(format!("c{}", rng.below(3))),
        _ if unseen => PatternValue::constant(9i64),
        _ => PatternValue::constant(rng.below(3) as i64),
    }
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
            let tableau = (0..1 + rng.below(3))
                .map(|_| {
                    let cells = lhs.iter().map(|attr| lhs_cell(rng, attr, unmatched)).collect();
                    let rhs_cell = if rng.chance(30) {
                        PatternValue::constant(format!("{rhs}{}", rng.below(3)))
                    } else {
                        PatternValue::Wild
                    };
                    PatternTuple::new(cells, vec![rhs_cell])
                })
                .collect();
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
        out += &format!("vio {name} {} {}\n", vs.tids.len(), vs.patterns.len());
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

const STRATEGIES: [CoordinatorStrategy; 3] = [
    CoordinatorStrategy::Central,
    CoordinatorStrategy::MinShipment,
    CoordinatorStrategy::MinResponseTime,
];

const SEEDS: std::ops::Range<u64> = 0..40;

#[test]
fn cluster_rounds_equal_the_oracle_and_the_recorded_meters() {
    let mut got = String::new();
    let mut clustered = 0;
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        let sigma = sigma(&mut rng);
        let partition = partition(&mut rng, &rel);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        for strategy in STRATEGIES {
            let label = format!("seed {seed} {strategy:?}");
            let mut per_width = Vec::new();
            for threads in [1, 4] {
                let d = DetectRequest::over(partition.clone())
                    .cfds(sigma.iter().cloned())
                    .algorithm(Algorithm::ClustDetect(strategy))
                    .config(RunConfig::default().with_threads(threads))
                    .run()
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
                    assert_eq!(vs.tids, want.tids, "{label} @{threads}: Vio({})", simple.name);
                    assert_eq!(vs.patterns, want.patterns, "{label} @{threads}: Vioπ");
                }
                clustered +=
                    usize::from(d.trace.spans.iter().any(|s| s.name == "validate:cluster"));
                per_width.push(recorded(&label, &d));
            }
            assert_eq!(per_width[0], per_width[1], "{label}: pool width reached the meters");
            got += &per_width[0];
        }
    }
    assert!(clustered > 3 * SEEDS.count(), "most cases should validate a real cluster");
    assert_eq!(got, include_str!("golden/cluster_rounds.txt"));
}

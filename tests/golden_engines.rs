//! The engines `benchmark/` does not run — `VERTDETECT`, `HYBRIDDETECT`,
//! `REPDETECT` and the vertical incremental session — pinned across
//! commits. For a fixed list of seeds, each generating a relation, a Σ
//! and the partitions, everything a run reports besides its kernel
//! counters — per-CFD `Vio`/`Vioπ` digests, ledger totals, response
//! time, paper cost and clocks by bit pattern, and the span list —
//! equals `tests/golden/unpinned_engines.txt`, recorded at the parent
//! commit of the change that gave the round, the vertical gather and the
//! first-covering-owner rule one home each. `Vio` itself is pinned to
//! `detect_set` here and in the property suites; which function gathers
//! the rows is an implementation detail, what a run ships, when every
//! site finishes and which phases it names is not — and neither is the
//! table a scan keys its groups in: the recording is read over relations
//! as built and with grown dictionaries. The `session batch` blocks'
//! `response_time`, `paper_cost`, coordinator `site_clock` and `incr:*`
//! spans from the first `incr:maintain` on were re-recorded when index
//! maintenance began charging the members it examines instead of every
//! member of every key a delta touches; nothing else moved.

mod common;

use common::{grow_dictionaries, Rng};
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

/// One row over tiny domains, so groups collide and conflict often.
fn row(rng: &mut Rng, id: i64) -> Vec<Value> {
    vals![
        id,
        rng.below(3) as i64,
        rng.below(3) as i64,
        format!("c{}", rng.below(3)),
        format!("d{}", rng.below(3)),
        format!("e{}", rng.below(2))
    ]
}

fn relation(rng: &mut Rng) -> Relation {
    let n = 8 + rng.below(40) as i64;
    Relation::from_rows(schema(), (0..n).map(|i| row(rng, i)).collect()).unwrap()
}

/// A CFD `lhs → rhs` of 1–3 patterns: LHS cells mostly wild, else a
/// constant of the domain (now and then one no tuple carries), the RHS
/// cell wild or, rarely, a constant.
fn cfd(rng: &mut Rng, name: &str, lhs: &[&str], rhs: &str) -> Cfd {
    let tableau = (0..1 + rng.below(3))
        .map(|_| {
            let cells = lhs
                .iter()
                .map(|attr| match *attr {
                    _ if rng.chance(55) => PatternValue::Wild,
                    "c" => PatternValue::constant(format!("c{}", rng.below(4))),
                    _ => PatternValue::constant(rng.below(4) as i64),
                })
                .collect();
            let rhs_cell = if rng.chance(20) {
                PatternValue::constant(format!("{rhs}{}", rng.below(3)))
            } else {
                PatternValue::Wild
            };
            PatternTuple::new(cells, vec![rhs_cell])
        })
        .collect();
    Cfd::with_names(name, schema(), lhs, &[rhs], tableau).unwrap()
}

/// Σ: `local` fits one fragment of every layout below that keeps `a`
/// and `c` together, `two` spans two fragments of most, `three` spans
/// three of most, and `wide` makes some fragment ship two columns.
fn sigma(rng: &mut Rng) -> Vec<Cfd> {
    vec![
        cfd(rng, "local", &["a"], "c"),
        cfd(rng, "two", &["a", "c"], "d"),
        cfd(rng, "three", &["c", "b", "a"], "e"),
        cfd(rng, "wide", &["a", "b", "d"], "e"),
    ]
}

/// Vertical layouts: disjoint groups, overlapping groups (an attribute
/// two fragments could supply), one that splits `a` from `c`, and a
/// two-fragment one.
const LAYOUTS: [&[&[&str]]; 5] = [
    &[&["a", "c"], &["b", "d"], &["e"]],
    &[&["e"], &["a", "c", "b"], &["b", "d"]],
    &[&["b"], &["d", "e"], &["c", "a"]],
    &[&["a", "b"], &["c", "d"], &["d", "e", "a"]],
    &[&["a", "c", "e"], &["b", "d"]],
];

fn horizontal(rng: &mut Rng, rel: &Relation, n: usize) -> HorizontalPartition {
    if rng.chance(30) {
        HorizontalPartition::by_attribute(rel, "b", n).unwrap()
    } else {
        HorizontalPartition::round_robin(rel, n).unwrap()
    }
}

/// FNV-1a over the lines of a sorted rendering: an order-free digest of
/// a hash set.
fn digest(mut lines: Vec<String>) -> u64 {
    lines.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the run found, shipped and named, and when every site
/// finished — floats by bit pattern.
fn recorded(label: &str, d: &Detection) -> String {
    let mut out = format!("== {label}\n");
    for (name, vs) in &d.violations.per_cfd {
        out += &format!(
            "vio {name} {} {:#018x} {} {:#018x}\n",
            vs.len(),
            digest(vs.tids().iter().map(|t| format!("{:020}", t.0)).collect()),
            vs.pattern_count(),
            digest(vs.patterns().iter().map(|p| format!("{p:?}")).collect()),
        );
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

/// Runs `request` at pool widths 1 and 4, checks the report against
/// centralized detection on `rel` and that both widths answer the same
/// `Detection`, and returns it with its recording.
fn run(label: &str, rel: &Relation, sigma: &[Cfd], request: &DetectRequest) -> (String, Detection) {
    let want = detect_set(rel, sigma);
    let at = |threads: usize| {
        let d = request
            .clone()
            .config(RunConfig::default().with_threads(threads))
            .plan()
            .map(|plan| plan.run())
            .expect("generated requests are valid");
        assert_eq!(d.violations.all_tids(), want.all_tids(), "{label} @{threads}");
        d
    };
    let narrow = at(1);
    assert_eq!(narrow, at(4), "{label}: pool width reached the meters");
    (recorded(label, &narrow), narrow)
}

/// A whole-tuple delta: each live id deleted with some chance, a few
/// fresh tuples inserted.
fn delta(rng: &mut Rng, live: &mut Vec<i64>, next_id: &mut i64) -> DeltaBatch {
    let mut deletes = Vec::new();
    live.retain(|&id| {
        let gone = rng.chance(15);
        if gone {
            deletes.push(TupleId(id as u64));
        }
        !gone
    });
    let inserts = (0..1 + rng.below(6))
        .map(|_| {
            let id = *next_id;
            *next_id += 1;
            live.push(id);
            Tuple::new(TupleId(id as u64), row(rng, id))
        })
        .collect();
    DeltaBatch::new(vec![RelationDelta::new(inserts, deletes)])
}

const STRATEGIES: [(Algorithm, &str); 3] = [
    (Algorithm::CtrDetect, "Central"),
    (Algorithm::PatDetectS, "MinShipment"),
    (Algorithm::PatDetectRT, "MinResponseTime"),
];

const SEEDS: std::ops::Range<u64> = 0..6;

#[test]
fn unpinned_engines_read_the_recorded_meters() {
    for grown in [false, true] {
        let got = recordings(grown);
        assert_eq!(got, include_str!("golden/unpinned_engines.txt"), "grown: {grown}");
    }
}

/// Every seed's recordings, its relation's dictionaries `grown` or as
/// built.
fn recordings(grown: bool) -> String {
    let mut got = String::new();
    let (mut local, mut three_way) = (0, 0);
    for seed in SEEDS {
        let mut rng = Rng(seed);
        let rel = relation(&mut rng);
        if grown {
            grow_dictionaries(&rel);
        }
        let sigma = sigma(&mut rng);
        let groups = LAYOUTS[seed as usize % LAYOUTS.len()];

        // VERTDETECT.
        let vertical = VerticalPartition::by_attribute_groups(&rel, groups).unwrap();
        let request = DetectRequest::over(vertical.clone()).cfds(sigma.iter().cloned());
        let (text, d) = run(&format!("seed {seed} vertical Filtered"), &rel, &sigma, &request);
        let sites_of = |name: &str| d.trace.spans.iter().filter(|s| s.name == name).count();
        local += usize::from(sites_of("local:local") > 0);
        three_way += usize::from(sites_of("gather:three") == 3);
        got += &text;

        // HYBRIDDETECT, one cell and three, every strategy.
        for n_cells in [1, 3] {
            let cells = horizontal(&mut rng, &rel, n_cells);
            let hybrid = HybridPartition::new(&cells, groups).unwrap();
            for (algorithm, name) in STRATEGIES {
                let request = DetectRequest::over(hybrid.clone())
                    .cfds(sigma.iter().cloned())
                    .algorithm(algorithm);
                let label = format!("seed {seed} hybrid {n_cells} {name}");
                got += &run(&label, &rel, &sigma, &request).0;
            }
        }

        // REPDETECT, every replication factor.
        let n = 2 + rng.below(3) as usize;
        let base = horizontal(&mut rng, &rel, n);
        for factor in 1..=n {
            let replicated = ReplicatedPartition::chained(base.clone(), factor).unwrap();
            let request = DetectRequest::over(replicated).cfds(sigma.iter().cloned());
            got += &run(&format!("seed {seed} replicated {factor}/{n}"), &rel, &sigma, &request).0;
        }

        // The vertical session: the build, then two delta batches.
        let mut session = DetectRequest::over(vertical)
            .cfds(sigma.iter().cloned())
            .plan()
            .and_then(Plan::session)
            .unwrap();
        got += &recorded(&format!("seed {seed} session build"), &session.detection());
        let mut live: Vec<i64> = (0..rel.len() as i64).collect();
        let mut next_id = 1000;
        for batch in 1..=2 {
            session.apply_batch(&delta(&mut rng, &mut live, &mut next_id)).unwrap();
            let d = session.detection();
            let now = session.materialize().unwrap();
            assert_eq!(d.violations.all_tids(), detect_set(&now, &sigma).all_tids());
            got += &recorded(&format!("seed {seed} session batch {batch}"), &d);
        }
    }
    assert!(local > 3, "most layouts should check `local` without shipment, got {local}");
    assert!(three_way > 1, "some gathers should span three fragments, got {three_way}");
    got
}

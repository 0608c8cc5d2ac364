//! Metamorphic pins: how a detection's output must move when its input
//! moves, read off the paper's definitions, so no second implementation
//! is needed to check it.
//!
//! Relation (a), row order. `Vio`, `Vioπ` and every cost the paper
//! charges are functions of the tuple set at each site, not of the order
//! the rows were stored in. Row order does decide each dictionary's
//! first-seen codes, so ingesting one relation in order and reversed
//! gives two relations whose every column codes its values differently.
//! Split by `by_attribute` (which sites a value by hashing it, not its
//! code), each site holds the same tuples in the two runs, in reverse
//! order, under other codes. Every horizontal engine must then read the
//! same report and the same meters to the bit: shipped tuples, cells
//! and bytes, control messages and bytes, every site clock and
//! `paper_cost`. That pins interning — where a value becomes a code —
//! as reaching no output.

use dcd_core::{run_batch, run_clust, run_seq, CoordinatorStrategy, Detection, RunConfig};
use dcd_datagen::cust::cust_cfds;
use dcd_datagen::{inject_errors, CustConfig};
use dcd_relation::AttrId;
use distributed_cfd::prelude::*;

const STRATEGIES: [CoordinatorStrategy; 3] = [
    CoordinatorStrategy::Central,
    CoordinatorStrategy::MinShipment,
    CoordinatorStrategy::MinResponseTime,
];

/// What must not move with row order: the report, the ledger, and every
/// clock and cost by bit pattern.
fn reading(d: &Detection) -> (&ViolationReport, [usize; 5], Vec<u64>, u64) {
    let ledger =
        [d.shipped_tuples, d.shipped_cells, d.shipped_bytes, d.control_messages, d.control_bytes];
    let clocks = d.site_clocks.iter().map(|c| c.to_bits()).collect();
    (&d.violations, ledger, clocks, d.paper_cost.to_bits())
}

/// Every horizontal engine over `part`: `run_batch` under each strategy,
/// then `run_seq` and `run_clust`.
fn detections(part: &HorizontalPartition, sigma: &[Cfd]) -> Vec<(String, Detection)> {
    let cfg = RunConfig::default();
    let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
    let mut out: Vec<(String, Detection)> = STRATEGIES
        .iter()
        .map(|&s| (format!("run_batch {s:?}"), run_batch(part, &simples, s, &cfg)))
        .collect();
    let inner = CoordinatorStrategy::MinResponseTime;
    out.push(("run_seq".into(), run_seq(part, sigma, inner, &cfg)));
    out.push(("run_clust".into(), run_clust(part, sigma, inner, &cfg)));
    out
}

#[test]
fn row_order_reaches_no_report_and_no_meter() {
    for seed in [1, 2] {
        let clean = CustConfig { n_tuples: 1_500, seed, ..CustConfig::default() }.generate();
        let (dirty, _) = inject_errors(&clean, "street", 0.05, seed);
        let tuples: Vec<Tuple> = dirty.iter().collect();
        let schema = dirty.schema().clone();
        let sigma = cust_cfds(&schema);
        let in_order = Relation::from_tuples(schema.clone(), tuples.clone()).unwrap();
        let reversed = Relation::from_tuples(schema, tuples.into_iter().rev().collect()).unwrap();
        let street = |rel: &Relation| rel.dictionary(AttrId(5)).snapshot();
        assert_ne!(street(&in_order), street(&reversed), "reversing moved no code");
        for (attr, sites) in [("CC", 4), ("zip", 4), ("AC", 3)] {
            let [want, got] = [&in_order, &reversed].map(|rel| {
                detections(&HorizontalPartition::by_attribute(rel, attr, sites).unwrap(), &sigma)
            });
            for ((label, want), (_, got)) in want.iter().zip(&got) {
                let label = format!("seed {seed}, by {attr} over {sites}: {label}");
                assert!(want.violations.per_cfd.iter().any(|(_, v)| !v.is_empty()), "{label}");
                assert_eq!(reading(got), reading(want), "{label}");
            }
        }
    }
}

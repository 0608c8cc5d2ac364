//! End-to-end tests of the incremental subsystem: the maintained
//! report must equal full re-detection on the materialized state after
//! every batch, on every topology, and the run's `Detection` must be
//! `==` across pool widths.

use dcd_cfd::{detect_set, Cfd, PatternTuple, PatternValue};
use dcd_core::{run_batch, CoordinatorStrategy, Detection, RunConfig};
use dcd_datagen::cust::{cust_cfds, CustConfig};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_dist::{HorizontalPartition, ReplicatedPartition, SiteId, VerticalPartition, TID_CELLS};
use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun};
use dcd_relation::{
    vals, AttrId, Relation, RelationDelta, Schema, Tuple, TupleId, Value, ValueType,
};

/// `n` cust tuples with 5 % of the streets corrupted, and the cust CFDs.
fn workload(n: usize) -> (dcd_relation::Relation, Vec<Cfd>) {
    let rel = CustConfig { n_tuples: n, ..CustConfig::default() }.generate();
    let (rel, _) = dcd_datagen::inject_errors(&rel, "street", 0.05, 11);
    let cfds = cust_cfds(rel.schema());
    (rel, cfds)
}

fn assert_report_matches_full(
    run_report: &dcd_cfd::ViolationReport,
    rel: &dcd_relation::Relation,
    sigma: &[Cfd],
) {
    // The incremental report keys per *simple* CFD; all cust CFDs are
    // single-RHS, so it lines up with `detect_set` entry by entry.
    assert_eq!(*run_report, detect_set(rel, sigma), "Vio/Vioπ drifted");
}

#[test]
fn horizontal_stream_tracks_full_redetection() {
    let (rel, sigma) = workload(1_500);
    let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let stream = update_stream(
        &partition,
        &UpdateStreamConfig { n_batches: 5, ops_per_batch: 120, ..Default::default() },
    );
    let mut run = IncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
    assert_report_matches_full(&run.report(), &run.materialize().unwrap(), &sigma);
    for batch in stream {
        let out = run.apply_batch(&DeltaBatch::from(batch)).unwrap();
        assert!(out.paper_cost >= 0.0);
        assert_report_matches_full(&out.report, &run.materialize().unwrap(), &sigma);
    }
    assert_eq!(run.rounds(), 5);
    let d = run.detection();
    assert_eq!(d.algorithm, "INCRDETECT");
    assert!(d.shipped_tuples > 0);
    assert!(d.response_time > 0.0);
}

#[test]
fn pool_width_never_changes_incremental_outputs() {
    let (rel, sigma) = workload(800);
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let stream = update_stream(
        &partition,
        &UpdateStreamConfig { n_batches: 4, ops_per_batch: 80, ..Default::default() },
    );
    let mut run1 =
        IncrementalRun::new(partition.clone(), &sigma, RunConfig::default().with_threads(1))
            .unwrap();
    let mut run8 =
        IncrementalRun::new(partition, &sigma, RunConfig::default().with_threads(8)).unwrap();
    for batch in stream {
        let batch = DeltaBatch::from(batch);
        let a = run1.apply_batch(&batch).unwrap();
        let b = run8.apply_batch(&batch).unwrap();
        assert_eq!(a.paper_cost.to_bits(), b.paper_cost.to_bits(), "paper cost");
        assert_eq!(a.report, b.report);
    }
    assert_eq!(run1.detection(), run8.detection());
}

/// Whether `t` matches some pattern's LHS in some CFD of `sigma`, read off
/// the values: the §IV test of which tuples a round ships. It shares no
/// code with the engine's compiled tableaux.
fn matches_sigma(sigma: &[Cfd], t: &Tuple) -> bool {
    sigma.iter().flat_map(Cfd::simplify).any(|cfd| {
        cfd.tableau.iter().any(|pattern| {
            cfd.lhs.iter().zip(&pattern.lhs).all(|(&a, cell)| match cell {
                PatternValue::Wild => true,
                PatternValue::Const(v) => t.get(a) == v,
            })
        })
    })
}

/// |attr(Σ)|: the attributes of every CFD's `X ∪ {A}`, counted once.
fn attr_width(sigma: &[Cfd]) -> usize {
    let mut attrs: Vec<AttrId> = sigma
        .iter()
        .flat_map(Cfd::simplify)
        .flat_map(|cfd| cfd.lhs.iter().copied().chain([cfd.rhs]).collect::<Vec<_>>())
        .collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs.len()
}

/// `(rows, cells)` a site ships the coordinator for `inserts` and
/// `deletes` under `sigma`: the matching ones only, an insert over attr(Σ)
/// and a delete as its id alone.
fn shipped_to_coordinator(sigma: &[Cfd], inserts: &[Tuple], deletes: &[Tuple]) -> (usize, usize) {
    let count = |rows: &[Tuple]| rows.iter().filter(|t| matches_sigma(sigma, t)).count();
    let (ins, del) = (count(inserts), count(deletes));
    (ins + del, ins * (attr_width(sigma) + TID_CELLS) + del * TID_CELLS)
}

/// A session ships its coordinator what §IV's round would: a row that
/// matches no pattern's LHS cannot violate and stays at its site, and a
/// matching one travels over attr(Σ), not at the schema's arity — at the
/// build and in every batch. The expected rows and cells come from
/// [`matches_sigma`], a value-level match; the batches insert rows that
/// match nothing (a country code no pattern names, interned by the batch
/// itself) and delete rows that did match, besides the other two kinds.
/// The second batch's new country code is one a pattern names: the batch
/// interns it, and its rows match from that batch on.
#[test]
fn delta_wire_accounting_is_code_sized() {
    let (rel, cust) = workload(600);
    // The FD `[CC, item_title] → [item_price]` matches every tuple; the
    // other two CFDs leave most of them out. No tuple has CC = 901.
    let late = dcd_cfd::parse_cfd(rel.schema(), "cust_901", "([CC=901, zip] -> [street])");
    let sigma = vec![cust[0].clone(), cust[2].clone(), late.unwrap()];
    assert_eq!(attr_width(&sigma), 5, "CC, AC, street, city, zip");
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let mut run = IncrementalRun::new(partition.clone(), &sigma, RunConfig::default()).unwrap();
    let c = run.coordinator().index();
    let built = run.detection();
    let (mut rows, mut cells) = (0, 0);
    for (i, frag) in partition.fragments().iter().enumerate().filter(|&(i, _)| i != c) {
        let (r, k) = shipped_to_coordinator(&sigma, &frag.data.iter().collect::<Vec<_>>(), &[]);
        assert!(0 < r && r < frag.data.len(), "site {i} ships some of its rows, not all");
        (rows, cells) = (rows + r, cells + k);
    }
    assert_eq!((built.shipped_tuples, built.shipped_cells), (rows, cells), "the build");
    assert_eq!(built.shipped_bytes, built.shipped_cells * dcd_dist::CODE_BYTES);

    let mut next_id = 10_000;
    for round in 0..2 {
        let before = run.detection();
        let (mut per_site, mut rows, mut cells) = (Vec::new(), 0, 0);
        for (i, frag) in run.partition().fragments().iter().enumerate() {
            let live: Vec<Tuple> = frag.data.iter().collect();
            let (hits, misses): (Vec<&Tuple>, Vec<&Tuple>) =
                live.iter().partition(|t| matches_sigma(&sigma, t));
            let deletes: Vec<Tuple> = [hits[0], hits[1], misses[0]].map(Tuple::clone).to_vec();
            let mut fresh = |template: &Tuple, cc: Option<i64>| {
                next_id += 1;
                let mut values = template.values().to_vec();
                if let Some(cc) = cc {
                    values[2] = Value::Int(cc);
                }
                Tuple::new(TupleId(next_id), values)
            };
            // Two inserts that match nothing, one that matches, and in the
            // second batch the first matches too.
            let inserts = vec![
                fresh(hits[2], Some(900 + round)),
                fresh(misses[1], None),
                fresh(hits[3], None),
            ];
            let matching = inserts.iter().filter(|t| matches_sigma(&sigma, t)).count();
            assert_eq!(matching as i64, 1 + round);
            if i != c {
                let (r, k) = shipped_to_coordinator(&sigma, &inserts, &deletes);
                assert_eq!(r, matching + 2, "site {i}: two deletes match");
                (rows, cells) = (rows + r, cells + k);
            }
            let ids = deletes.iter().map(|t| t.tid).collect();
            per_site.push(RelationDelta::new(inserts, ids));
        }
        let out = run.apply_batch(&DeltaBatch::new(per_site)).unwrap();
        assert_report_matches_full(&out.report, &run.materialize().unwrap(), &sigma);
        let after = run.detection();
        let shipped = (
            after.shipped_tuples - before.shipped_tuples,
            after.shipped_cells - before.shipped_cells,
        );
        assert_eq!(shipped, (rows, cells), "batch {round}");
        assert_eq!(after.shipped_bytes, after.shipped_cells * dcd_dist::CODE_BYTES);
    }
}

/// The first pin of a session's meters to a batch round's: over one
/// partition and a one-CFD Σ of variable patterns, a session's build
/// ships exactly the tuples and cells `run_batch` ships under
/// `CoordinatorStrategy::Central`. The session's coordinator holds the
/// most tuples, CTRDETECT's the most matching tuples; in this layout
/// both are site 0, which holds 13 of the 37 tuples and only matching
/// ones. (A constant pattern would part them: the batch round checks it
/// at the site, Proposition 5, while the session ships its rows.)
///
/// Under chained replication at factor 2, site 0 also holds fragment 2:
/// the build ships fragment 1's matching rows alone, and in a batch each
/// fragment's rows travel whole, at the schema's arity, to its other
/// holder, while the coordinator receives fragment 1's matching rows over
/// attr(Σ) and, for fragment 2, its sync copy and nothing else.
#[test]
fn a_session_build_ships_what_a_central_round_ships() {
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap();
    // Round robin: tuple i goes to site i mod 3, and every tuple of site
    // 0 has a = 1.
    let row = |i: i64| {
        let a = if i % 3 == 0 { 1 } else { i % 4 };
        vals![i, a, i % 5, format!("c{}", i % 2), format!("d{}", i % 7)]
    };
    let rel = Relation::from_rows(schema.clone(), (0..37).map(row).collect()).unwrap();
    // (a = 1, _ ‖ _), (a = 3, b = 2 ‖ _) and (a = 9, _ ‖ _); no tuple has a = 9.
    let (w, c) = (PatternValue::Wild, |v: i64| PatternValue::constant(v));
    let tableau = [(c(1), w.clone()), (c(3), c(2)), (c(9), w.clone())]
        .map(|(a, b)| PatternTuple::new(vec![a, b], vec![w.clone()]));
    let phi = Cfd::with_names("phi", schema.clone(), &["a", "b"], &["c"], tableau.to_vec());
    let sigma = [phi.unwrap()];
    let simples = sigma[0].simplify();
    assert!(simples[0].tableau.iter().all(|p| !p.is_constant()));
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let matching: Vec<usize> = partition
        .fragments()
        .iter()
        .map(|f| f.data.iter().filter(|t| matches_sigma(&sigma, t)).count())
        .collect();
    let sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
    assert_eq!((sizes, matching.clone()), (vec![13, 12, 12], vec![13, 4, 3]));

    let cfg = RunConfig::default();
    let run = IncrementalRun::new(partition.clone(), &sigma, cfg).unwrap();
    assert_eq!(run.coordinator(), SiteId(0));
    let session = run.detection();
    let round = run_batch(&partition, &simples, CoordinatorStrategy::Central, &cfg);
    assert_eq!(
        (session.shipped_tuples, session.shipped_cells),
        (round.shipped_tuples, round.shipped_cells)
    );
    let per_row = 3 + TID_CELLS; // attr(Σ) = {a, b, c}
    assert_eq!((session.shipped_tuples, session.shipped_cells), (7, 7 * per_row));

    let replicated = ReplicatedPartition::chained(partition.clone(), 2).unwrap();
    let mut run = IncrementalRun::new_replicated(&replicated, &sigma, cfg).unwrap();
    assert_eq!(run.coordinator(), SiteId(0));
    let built = run.detection();
    assert_eq!((built.shipped_tuples, built.shipped_cells), (matching[1], matching[1] * per_row));

    // Each site inserts one matching and one unmatched tuple and deletes
    // one matching tuple.
    let arity = schema.arity();
    let (mut per_site, mut rows, mut cells) = (Vec::new(), 0, 0);
    for (i, frag) in partition.fragments().iter().enumerate() {
        let inserts: Vec<Tuple> = [(1, 100), (2, 101)]
            .map(|(a, k)| {
                let tid = k * 10 + i as u64;
                Tuple::new(TupleId(tid), vals![tid as i64, a, 0, "c9", "d9"])
            })
            .to_vec();
        let gone = frag.data.iter().find(|t| matches_sigma(&sigma, t)).unwrap();
        // The other holder's whole-row sync copy.
        (rows, cells) = (rows + 3, cells + 2 * (arity + TID_CELLS) + TID_CELLS);
        if i == 1 {
            let (r, k) = shipped_to_coordinator(&sigma, &inserts, std::slice::from_ref(&gone));
            assert_eq!((r, k), (2, per_row + TID_CELLS));
            (rows, cells) = (rows + r, cells + k);
        }
        per_site.push(RelationDelta::new(inserts, vec![gone.tid]));
    }
    run.apply_batch(&DeltaBatch::new(per_site)).unwrap();
    let after = run.detection();
    let shipped =
        (after.shipped_tuples - built.shipped_tuples, after.shipped_cells - built.shipped_cells);
    assert_eq!(shipped, (rows, cells));
}

#[test]
fn replication_cuts_coordinator_traffic_and_keeps_reports() {
    let (rel, sigma) = workload(900);
    let base = HorizontalPartition::round_robin(&rel, 4).unwrap();
    let stream = update_stream(
        &base,
        &UpdateStreamConfig { n_batches: 3, ops_per_batch: 60, ..Default::default() },
    );

    let mut plain = IncrementalRun::new(base.clone(), &sigma, RunConfig::default()).unwrap();
    let full_rep = ReplicatedPartition::chained(base.clone(), 4).unwrap();
    let mut replicated =
        IncrementalRun::new_replicated(&full_rep, &sigma, RunConfig::default()).unwrap();

    // Full replication: the coordinator holds everything — the build
    // ships nothing.
    assert_eq!(replicated.detection().shipped_tuples, 0);

    for batch in stream {
        let batch = DeltaBatch::from(batch);
        let a = plain.apply_batch(&batch).unwrap();
        let b = replicated.apply_batch(&batch).unwrap();
        assert_eq!(a.report, b.report);
        assert_report_matches_full(&b.report, &replicated.materialize().unwrap(), &sigma);
    }
    // Under full replication every delta row is synced to all n-1
    // other holders, so *total* traffic exceeds the plain run's single
    // coordinator copy — but the coordinator itself received nothing.
    let d = replicated.detection();
    assert!(d.shipped_tuples > 0, "replica sync is charged");
    assert_eq!(dcd_dist::SiteId(0), replicated.coordinator(), "ties go to the smallest site id");
}

#[test]
fn factor_two_replication_matches_plain_reports() {
    let (rel, sigma) = workload(700);
    let base = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let stream = update_stream(
        &base,
        &UpdateStreamConfig { n_batches: 3, ops_per_batch: 50, seed: 9, ..Default::default() },
    );
    let rep = ReplicatedPartition::chained(base.clone(), 2).unwrap();
    let mut run = IncrementalRun::new_replicated(&rep, &sigma, RunConfig::default()).unwrap();
    for batch in stream {
        let out = run.apply_batch(&DeltaBatch::from(batch)).unwrap();
        assert_report_matches_full(&out.report, &run.materialize().unwrap(), &sigma);
    }
}

#[test]
fn vertical_stream_tracks_full_redetection() {
    let (rel, sigma) = workload(800);
    // Split the address block from the order block; the zip→street and
    // (CC,AC)→city CFDs span both fragments.
    let partition = VerticalPartition::by_attribute_groups(
        &rel,
        &[
            &["name", "CC", "AC", "phn", "street"],
            &["city", "zip", "item_title", "item_price", "item_qty"],
        ],
    )
    .unwrap();
    let base = HorizontalPartition::round_robin(&rel, 1).unwrap();
    let stream = update_stream(
        &base,
        &UpdateStreamConfig { n_batches: 4, ops_per_batch: 60, ..Default::default() },
    );
    let at = |threads| RunConfig::default().with_threads(threads);
    let mut run = VerticalIncrementalRun::new(partition.clone(), &sigma, at(1)).unwrap();
    let mut run8 = VerticalIncrementalRun::new(partition, &sigma, at(8)).unwrap();
    assert_report_matches_full(&run.report(), &run.materialize().unwrap(), &sigma);
    for batch in stream {
        let delta = DeltaBatch::from(batch).flatten();
        let out = run.apply_batch(&delta).unwrap();
        assert_report_matches_full(&out.report, &run.materialize().unwrap(), &sigma);
        run8.apply_batch(&delta).unwrap();
    }
    let d = run.detection();
    assert!(d.shipped_tuples > 0);
    assert_eq!(d.shipped_bytes, d.shipped_cells * dcd_dist::CODE_BYTES);
    assert_eq!(d, run8.detection());
}

#[test]
fn fresh_rebuild_agrees_with_maintained_state() {
    let (rel, sigma) = workload(600);
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let stream = update_stream(
        &partition,
        &UpdateStreamConfig { n_batches: 3, ops_per_batch: 70, ..Default::default() },
    );
    let mut run = IncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
    for batch in stream {
        run.apply_batch(&DeltaBatch::from(batch)).unwrap();
        // Rebuilding the index from the materialized partition yields
        // the same report *and* the same index geometry.
        let rebuilt =
            IncrementalRun::new(run.partition().clone(), &sigma, RunConfig::default()).unwrap();
        assert_eq!(rebuilt.report(), run.report());
        assert_eq!(rebuilt.index_key_counts(), run.index_key_counts());
    }
}

/// An empty batch is a round in which no site is charged, on either run
/// type: the metrics count it (its lag histogram gains an observation of
/// 0); the report, ledger, clocks and trace are as they were.
#[test]
fn empty_batches_change_nothing() {
    let (rel, sigma) = workload(300);
    let cfg = RunConfig::default();
    let groups: [&[&str]; 2] = [
        &["name", "CC", "AC", "phn", "street"],
        &["CC", "city", "zip", "item_title", "item_price", "item_qty"],
    ];
    let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
    let mut horizontal = IncrementalRun::new(partition, &sigma, cfg).unwrap();
    let partition = VerticalPartition::by_attribute_groups(&rel, &groups).unwrap();
    let mut vertical = VerticalIncrementalRun::new(partition, &sigma, cfg).unwrap();
    let empty = DeltaBatch::new(vec![Default::default(), Default::default()]);
    let before = [horizontal.detection(), vertical.detection()];
    let outs =
        [horizontal.apply_batch(&empty).unwrap(), vertical.apply_batch(&empty.flatten()).unwrap()];
    let after = [horizontal.detection(), vertical.detection()];
    assert_eq!(horizontal.rounds(), 1);
    for ((before, out), after) in before.into_iter().zip(outs).zip(after) {
        assert_eq!(out.paper_cost, 0.0);
        assert_eq!(out.report, before.violations);
        assert!(after.metrics.expose().contains("dcd_incr_delta_lag_micros_count 1\n"));
        assert_eq!(before, Detection { metrics: before.metrics.clone(), ..after });
    }
}

#[test]
fn mis_sized_batches_are_rejected() {
    let (rel, sigma) = workload(200);
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let mut run = IncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
    let err = run.apply_batch(&DeltaBatch::new(vec![Default::default()])).unwrap_err();
    assert!(matches!(err, dcd_relation::RelationError::InvalidPartition { .. }));
}

#[test]
fn cross_site_duplicate_insert_ids_are_rejected_before_mutation() {
    use dcd_relation::{RelationDelta, RelationError, Tuple, TupleId};
    let (rel, sigma) = workload(300);
    let template = rel.row(0).values().to_vec();
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let mut run = IncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
    let before = run.detection();
    let fresh = |tid: u64| Tuple::new(TupleId(tid), template.clone());

    // The same fresh id inserted at two different sites.
    let batch = DeltaBatch::new(vec![
        RelationDelta::new(vec![fresh(9_000)], vec![]),
        RelationDelta::new(vec![fresh(9_000)], vec![]),
        RelationDelta::default(),
    ]);
    let err = run.apply_batch(&batch).unwrap_err();
    assert!(matches!(err, RelationError::DuplicateTuple { tid: 9_000 }));

    // An id that is live at *another* site than the inserting one.
    let live_elsewhere = run.partition().fragments()[1].data.tids()[0];
    let batch = DeltaBatch::new(vec![
        RelationDelta::new(vec![Tuple::new(live_elsewhere, template.clone())], vec![]),
        RelationDelta::default(),
        RelationDelta::default(),
    ]);
    let err = run.apply_batch(&batch).unwrap_err();
    assert!(matches!(err, RelationError::DuplicateTuple { .. }));

    // Rejection happened before any mutation: state is untouched and
    // the run stays usable. Deleting at one site and re-inserting the
    // id at another in the same batch is legal (deletes apply first).
    let after = run.detection();
    assert_eq!(before.shipped_tuples, after.shipped_tuples);
    assert_eq!(before.response_time.to_bits(), after.response_time.to_bits());
    let moved = DeltaBatch::new(vec![
        RelationDelta::new(vec![Tuple::new(live_elsewhere, template)], vec![]),
        RelationDelta::new(vec![], vec![live_elsewhere]),
        RelationDelta::default(),
    ]);
    let out = run.apply_batch(&moved).unwrap();
    assert_report_matches_full(&out.report, &run.materialize().unwrap(), &sigma);
}

#[test]
fn every_session_indexes_every_dictionary_up_front() {
    // Every insert interns into every column, so a session builds each
    // dictionary's value → code index at construction, not on its first
    // batch; a built relation holds none. A sorted dictionary needs none:
    // it searches its table and appends above its last value. On cust
    // that is exactly `id`, and it stays so through a session's batches.
    let groups: [&[&str]; 2] = [
        &["name", "CC", "AC", "phn", "street"],
        &["city", "zip", "item_title", "item_price", "item_qty"],
    ];
    for constructor in ["new", "new_replicated", "vertical"] {
        let (generated, sigma) = workload(300);
        let rows = generated.iter().collect();
        let rel = dcd_relation::Relation::from_tuples(generated.schema().clone(), rows).unwrap();
        let schema = rel.schema().clone();
        let dicts: Vec<_> =
            schema.attr_ids().map(|a| (schema.attr_name(a), rel.dictionary(a))).collect();
        // Each dictionary's (sorted, indexed), after the load and in a session.
        let modes = |when: &str, session: bool| {
            for (name, d) in &dicts {
                let want = (*name == "id", session && *name != "id");
                assert_eq!((d.is_sorted(), d.is_indexed()), want, "{constructor}, {when}: {name}");
            }
        };
        modes("the load", false);
        let cfg = RunConfig::default();
        let horizontal = HorizontalPartition::round_robin(&rel, 3).unwrap();
        match constructor {
            "new" => {
                let batches =
                    UpdateStreamConfig { n_batches: 4, ops_per_batch: 60, ..Default::default() };
                let stream = update_stream(&horizontal, &batches);
                let mut run = IncrementalRun::new(horizontal, &sigma, cfg).unwrap();
                modes("built", true);
                for batch in stream {
                    run.apply_batch(&DeltaBatch::from(batch)).unwrap();
                }
                modes("after 4 batches", true);
            }
            "new_replicated" => {
                let rep = ReplicatedPartition::chained(horizontal, 2).unwrap();
                drop(IncrementalRun::new_replicated(&rep, &sigma, cfg).unwrap());
                modes("built", true);
            }
            _ => {
                let partition = VerticalPartition::by_attribute_groups(&rel, &groups).unwrap();
                drop(VerticalIncrementalRun::new(partition, &sigma, cfg).unwrap());
                modes("built", true);
            }
        }
    }
}

/// The vertical session gathers by the one §V placement rule: its
/// coordinator, its build shipment and each batch's shippers are those of
/// `gather_plan` over every attribute, on the five `golden_engines`
/// layouts. A supplier after the coordinator ships its planned columns
/// plus the tuple id, so no key column and no column the coordinator
/// holds travels.
#[test]
fn the_vertical_session_ships_what_the_gather_plan_assigns() {
    use dcd_dist::TID_CELLS;
    use dcd_relation::{vals, AttrId, Relation, RelationDelta, Schema, Tuple, TupleId, ValueType};
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .attr("e", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap();
    let row = |i: i64| {
        vals![
            i,
            i % 3,
            (i / 3) % 3,
            format!("c{}", i % 3),
            format!("d{}", i % 5),
            format!("e{}", i % 2)
        ]
    };
    let rel = Relation::from_rows(schema.clone(), (0..33).map(row).collect()).unwrap();
    let sigma = [dcd_cfd::parse_cfd(&schema, "phi", "([a, c] -> [d])").unwrap()];
    let inserts: Vec<Tuple> = (100..104).map(|i| Tuple::new(TupleId(i as u64), row(i))).collect();
    let delta = RelationDelta::new(inserts, vec![TupleId(0), TupleId(7)]);
    let layouts: [&[&[&str]]; 5] = [
        &[&["a", "c"], &["b", "d"], &["e"]],
        &[&["e"], &["a", "c", "b"], &["b", "d"]],
        &[&["b"], &["d", "e"], &["c", "a"]],
        &[&["a", "b"], &["c", "d"], &["d", "e", "a"]],
        &[&["a", "c", "e"], &["b", "d"]],
    ];
    let all: Vec<AttrId> = schema.attr_ids().collect();
    for groups in layouts {
        let partition = VerticalPartition::by_attribute_groups(&rel, groups).unwrap();
        let plan = partition.gather_plan(&all);
        let holder = &partition.fragments()[plan.coordinator()];
        for (_, attrs) in &plan.supplies[1..] {
            let moved = |a: &AttrId| schema.key().contains(a) || holder.attrs.contains(a);
            assert!(!attrs.iter().any(moved), "{groups:?}: {attrs:?} ships to {}", holder.site);
        }
        let per_row: usize =
            plan.supplies[1..].iter().map(|(_, attrs)| attrs.len() + TID_CELLS).sum();
        let cfg = RunConfig::default();
        let mut run = VerticalIncrementalRun::new(partition.clone(), &sigma, cfg).unwrap();
        assert_eq!(run.coordinator(), holder.site, "{groups:?}");
        assert_eq!(run.detection().shipped_cells, rel.len() * per_row, "{groups:?}: the build");
        run.apply_batch(&delta).unwrap();
        let cells = (rel.len() + delta.inserts.len()) * per_row;
        assert_eq!(run.detection().shipped_cells, cells, "{groups:?}: a batch");
    }
}

/// The cross-site index needs every fragment to code against one
/// dictionary set, and `IncrementalRun::new` is the one session
/// constructor that can be handed a partition breaking it: a fragment
/// swapped through `fragments_mut` for one on its own dictionaries is
/// refused with `SchemaMismatch`, naming the site. A vertical partition
/// cannot hold one — every fragment is a projection of one relation and
/// `apply_delta` is its only write — so every fragment codes against the
/// partition's dictionary set (`VerticalPartition::dictionaries`, one
/// per attribute, which `VerticalIncrementalRun::new` reads) before and
/// after a delta.
#[test]
fn a_fragment_on_its_own_dictionaries_is_refused() {
    use dcd_relation::{Relation, RelationDelta, RelationError};
    let (rel, sigma) = workload(120);
    let cfg = RunConfig::default();
    let mut horizontal = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let tuples = horizontal.fragments()[2].data.iter().collect();
    horizontal.fragments_mut()[2].data =
        Relation::from_tuples(rel.schema().clone(), tuples).unwrap();
    let err = IncrementalRun::new(horizontal, &sigma, cfg).unwrap_err();
    let named = matches!(&err, RelationError::SchemaMismatch { detail } if detail.contains("S3"));
    assert!(named, "{err:?}");

    let groups: [&[&str]; 2] = [
        &["name", "CC", "AC", "phn", "street"],
        &["CC", "city", "zip", "item_title", "item_price", "item_qty"],
    ];
    let mut vertical = VerticalPartition::by_attribute_groups(&rel, &groups).unwrap();
    let shared = |p: &VerticalPartition| {
        let dicts = p.dictionaries();
        p.fragments().iter().all(|f| {
            f.attrs.iter().enumerate().all(|(local, &a)| {
                let dict = &dicts[a.index()];
                std::sync::Arc::ptr_eq(f.data.dictionary(dcd_relation::AttrId(local as u16)), dict)
            })
        })
    };
    assert!(shared(&vertical));
    let deleted = rel.tids()[..10].to_vec();
    vertical.apply_delta(&RelationDelta::new(vec![], deleted), 1).unwrap();
    assert!(shared(&vertical));
    VerticalIncrementalRun::new(vertical, &sigma, cfg).unwrap();
}

/// A session checks the whole partition it is handed, as `plan()` does,
/// and not only its dictionaries: a partition broken through
/// `fragments_mut` is refused with the error `validate` gives. A tuple
/// outside its fragment's predicate used to build a session whose report
/// read {t0, t9} while `run_batch` over its partition read ∅; a tuple id
/// at two sites used to panic in the index build. `new_replicated`
/// shares the check, and `ReplicatedPartition::chained` refuses the same
/// partitions before a session could see them.
#[test]
fn a_session_refuses_a_partition_validate_refuses() {
    use dcd_relation::{vals, Atom, Predicate, Relation, RelationError, Schema, Tuple, ValueType};
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("cc", ValueType::Int)
        .attr("zip", ValueType::Str)
        .attr("street", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap();
    let rows = (0..9i64).map(|i| {
        let cc = if i % 3 == 0 { 44 } else { 31 };
        vals![i, cc, format!("z{}", i % 5), format!("s{}", i % 4)]
    });
    let rel = Relation::from_rows(schema, rows.collect()).unwrap();
    let sigma = [dcd_cfd::parse_cfd(rel.schema(), "phi", "([cc=44, zip] -> [street])").unwrap()];
    let cfg = RunConfig::default();
    let invalid = |detail: &str| RelationError::InvalidPartition { detail: detail.into() };

    // t9 = (9, 44, z0, X) at the cc = 31 site.
    let cc = rel.schema().require("cc").unwrap();
    let by_cc = [44, 31].map(|v| Predicate::atom(Atom::eq(cc, v))).to_vec();
    let mut outside = HorizontalPartition::by_predicates(&rel, by_cc).unwrap();
    let t9 = Tuple::new(dcd_relation::TupleId(9), vals![9, 44, "z0", "X"]);
    outside.fragments_mut()[1].data.push_tuple(t9).unwrap();
    // t0 at both sites of a round-robin partition.
    let mut repeated = HorizontalPartition::round_robin(&rel, 2).unwrap();
    let t0 = repeated.fragments()[0].data.row(0);
    repeated.fragments_mut()[1].data.push_tuple(t0).unwrap();

    for (broken, want) in [
        (outside, invalid("tuple t9 violates its fragment predicate at S2")),
        (repeated, invalid("tuple t0 appears twice in the partition")),
    ] {
        assert_eq!(broken.validate(), Err(want.clone()));
        let err = IncrementalRun::new(broken.clone(), &sigma, cfg).map(drop).unwrap_err();
        assert_eq!(err, want);
        let err = ReplicatedPartition::chained(broken, 2).map(drop).unwrap_err();
        assert_eq!(err, want);
    }
}

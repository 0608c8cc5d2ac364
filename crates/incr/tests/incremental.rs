//! End-to-end tests of the incremental subsystem: the maintained
//! report must equal full re-detection on the materialized state after
//! every batch, on every topology, and the run's `Detection` must be
//! `==` across pool widths.

use dcd_cfd::{detect_set, Cfd};
use dcd_core::{Detection, RunConfig};
use dcd_datagen::cust::{cust_cfds, CustConfig};
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_dist::{HorizontalPartition, ReplicatedPartition, VerticalPartition};
use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun};

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

#[test]
fn delta_wire_accounting_is_code_sized() {
    let (rel, sigma) = workload(600);
    let arity = rel.schema().arity();
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    let mut run = IncrementalRun::new(partition.clone(), &sigma, RunConfig::default()).unwrap();
    let built = run.detection();
    // The build ships every non-coordinator row once, at 4 bytes/cell.
    assert_eq!(built.shipped_bytes, built.shipped_cells * dcd_dist::CODE_BYTES);
    let per_row = arity + dcd_dist::TID_CELLS;
    assert_eq!(built.shipped_cells, built.shipped_tuples * per_row);

    let stream = update_stream(
        &partition,
        &UpdateStreamConfig { n_batches: 1, ops_per_batch: 50, ..Default::default() },
    );
    run.apply_batch(&DeltaBatch::from(stream[0].clone())).unwrap();
    let after = run.detection();
    assert!(after.shipped_tuples > built.shipped_tuples);
    assert_eq!(after.shipped_bytes, after.shipped_cells * dcd_dist::CODE_BYTES);
    // Delta traffic is per-row bounded: inserts cost arity+2 cells,
    // deletes 2 cells — never more than a full row.
    let delta_cells = after.shipped_cells - built.shipped_cells;
    let delta_rows = after.shipped_tuples - built.shipped_tuples;
    assert!(delta_cells <= delta_rows * per_row);
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

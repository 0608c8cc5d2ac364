//! End-to-end tests of the incremental subsystem: the maintained
//! report must equal full re-detection on the materialized state after
//! every batch, on every topology, and the run's accounting must be
//! bit-identical across pool widths.

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

/// The accounting of two runs over one stream, bit for bit.
fn assert_same_accounting(a: &Detection, b: &Detection) {
    assert_eq!(a.violations.all_tids(), b.violations.all_tids());
    assert_eq!(a.shipped_tuples, b.shipped_tuples);
    assert_eq!(a.shipped_cells, b.shipped_cells);
    assert_eq!(a.shipped_bytes, b.shipped_bytes);
    assert_eq!(a.control_messages, b.control_messages);
    assert_eq!(a.paper_cost.to_bits(), b.paper_cost.to_bits());
    assert_eq!(a.response_time.to_bits(), b.response_time.to_bits());
    for (ca, cb) in a.site_clocks.iter().zip(&b.site_clocks) {
        assert_eq!(ca.to_bits(), cb.to_bits(), "per-site clocks");
    }
}

fn assert_report_matches_full(
    run_report: &dcd_cfd::ViolationReport,
    rel: &dcd_relation::Relation,
    sigma: &[Cfd],
) {
    let full = detect_set(rel, sigma);
    assert_eq!(run_report.all_tids(), full.all_tids(), "Vio(Σ) drifted");
    for (name, vs) in &full.per_cfd {
        // The incremental report keys per *simple* CFD; all cust CFDs
        // are single-RHS, so names line up one to one.
        let (_, got) = run_report
            .per_cfd
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing CFD {name}"));
        assert_eq!(&got.tids, &vs.tids, "Vio({name})");
        assert_eq!(&got.patterns, &vs.patterns, "Vioπ({name})");
    }
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
        assert_eq!(a.report.all_tids(), b.report.all_tids());
    }
    assert_same_accounting(&run1.detection(), &run8.detection());
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
    let per_row = arity + dcd_incr::TID_CELLS;
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
        assert_eq!(a.report.all_tids(), b.report.all_tids());
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
    assert_same_accounting(&d, &run8.detection());
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
        assert_eq!(rebuilt.report().all_tids(), run.report().all_tids());
        assert_eq!(rebuilt.index_key_counts(), run.index_key_counts());
    }
}

#[test]
fn empty_batches_change_nothing() {
    let (rel, sigma) = workload(300);
    let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
    let mut run = IncrementalRun::new(partition, &sigma, RunConfig::default()).unwrap();
    let before = run.detection();
    let empty = DeltaBatch::new(vec![Default::default(), Default::default()]);
    let out = run.apply_batch(&empty).unwrap();
    assert_eq!(out.paper_cost, 0.0);
    let after = run.detection();
    assert_eq!(before.shipped_tuples, after.shipped_tuples);
    assert_eq!(before.response_time.to_bits(), after.response_time.to_bits());
    assert_eq!(before.violations.all_tids(), after.violations.all_tids());
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

//! Codes are a function of the input, not of the pool schedule: a
//! session that interns fresh values in every batch leaves every
//! dictionary, and every fragment column's codes and width, exactly as
//! it would at any other pool width. Each batch's inserts are encoded on
//! one thread, site by site, before the sites append them in parallel.

use dcd_cfd::Cfd;
use dcd_core::RunConfig;
use dcd_datagen::cust::{cust_cfds, CustConfig};
use dcd_dist::{HorizontalPartition, ReplicatedPartition, VerticalPartition};
use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun};
use dcd_relation::{Relation, RelationDelta, Tuple, Value};

const BASE: usize = 2_000;
const BATCHES: usize = 20;
const SITES: usize = 4;
const PER_SITE: usize = 400;
const WIDTHS: [usize; 3] = [1, 2, 8];

/// The base rows, each batch's inserts per site, and the cust CFDs, cut
/// from one cust relation: ids, names and phones are fresh in every row,
/// so every batch interns new values into most dictionaries.
fn stream() -> (Vec<Tuple>, Vec<Vec<Vec<Tuple>>>, Vec<Cfd>) {
    let all = CustConfig { n_tuples: BASE + BATCHES * SITES * PER_SITE, ..CustConfig::default() }
        .generate();
    let mut rows: Vec<Tuple> = all.iter().collect();
    let fresh = rows.split_off(BASE);
    let batches = fresh
        .chunks(SITES * PER_SITE)
        .map(|batch| batch.chunks(PER_SITE).map(<[Tuple]>::to_vec).collect())
        .collect();
    (rows, batches, cust_cfds(all.schema()))
}

/// The base rows on dictionaries of their own, fresh for each run: runs
/// must not share a dictionary, or the second would find the values the
/// first interned.
fn base(rows: &[Tuple], sigma: &[Cfd]) -> Relation {
    Relation::from_tuples(sigma[0].schema().clone(), rows.to_vec()).unwrap()
}

/// Everything interning decides, per fragment column: the column's
/// width and codes, and its dictionary's values and sorted flag.
type Encoding = Vec<(usize, Vec<u32>, Vec<Value>, bool)>;

fn encoding<'a>(fragments: impl IntoIterator<Item = &'a Relation>) -> Encoding {
    fragments
        .into_iter()
        .flat_map(|rel| rel.columns())
        .map(|c| (c.width(), c.codes().to_vec(), c.dict().snapshot(), c.dict().is_sorted()))
        .collect()
}

fn at(threads: usize) -> RunConfig {
    RunConfig::default().with_threads(threads)
}

/// Asserts that every width's encoding equals width 1's, and that the
/// stream widened some column past one byte.
fn assert_one_encoding(kind: &str, encodings: &[Encoding]) {
    for (w, e) in WIDTHS.iter().zip(encodings).skip(1) {
        for (col, (got, want)) in e.iter().zip(&encodings[0]).enumerate() {
            assert_eq!(got.0, want.0, "{kind}: column {col}'s width at {w} threads");
            assert_eq!(got.1, want.1, "{kind}: column {col}'s codes at {w} threads");
            assert_eq!(got.2, want.2, "{kind}: column {col}'s dictionary at {w} threads");
            assert_eq!(got.3, want.3, "{kind}: column {col}'s sorted flag at {w} threads");
        }
        assert_eq!(e.len(), encodings[0].len(), "{kind}: columns at {w} threads");
    }
    assert!(encodings[0].iter().any(|c| c.0 > 1), "{kind}: some column widened");
}

#[test]
fn codes_and_widths_do_not_depend_on_the_pool_width() {
    let (rows, batches, sigma) = stream();
    let horizontal = || HorizontalPartition::round_robin(&base(&rows, &sigma), SITES).unwrap();
    let batch = |b: &[Vec<Tuple>]| {
        DeltaBatch::new(b.iter().map(|ins| RelationDelta::new(ins.clone(), vec![])).collect())
    };

    let mut per_width = Vec::new();
    for threads in WIDTHS {
        let mut run = IncrementalRun::new(horizontal(), &sigma, at(threads)).unwrap();
        for b in &batches {
            run.apply_batch(&batch(b)).unwrap();
        }
        per_width.push(encoding(run.partition().fragments().iter().map(|f| &f.data)));
    }
    assert_one_encoding("horizontal", &per_width);

    let mut per_width = Vec::new();
    for threads in WIDTHS {
        let replicated = ReplicatedPartition::chained(horizontal(), 2).unwrap();
        let mut run = IncrementalRun::new_replicated(&replicated, &sigma, at(threads)).unwrap();
        for b in &batches {
            run.apply_batch(&batch(b)).unwrap();
        }
        per_width.push(encoding(run.partition().fragments().iter().map(|f| &f.data)));
    }
    assert_one_encoding("replicated", &per_width);

    let groups: [&[&str]; SITES] = [
        &["name", "CC", "AC"],
        &["phn", "street", "city"],
        &["zip", "item_title"],
        &["item_price", "item_qty"],
    ];
    let mut per_width = Vec::new();
    for threads in WIDTHS {
        let vertical = VerticalPartition::by_attribute_groups(&base(&rows, &sigma), &groups);
        let mut run = VerticalIncrementalRun::new(vertical.unwrap(), &sigma, at(threads)).unwrap();
        for b in &batches {
            run.apply_batch(&RelationDelta::new(b.concat(), vec![])).unwrap();
        }
        per_width.push(encoding(run.partition().fragments().iter().map(|f| &f.data)));
    }
    assert_one_encoding("vertical", &per_width);
}

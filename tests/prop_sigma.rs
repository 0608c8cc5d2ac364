//! The σ pin: `sigma_partition` equals Lemma 6's σ computed the naive
//! way — per tuple, over decoded values, trying the
//! applicable patterns in scan order with `PatternValue::matches` and
//! stopping at the first that matches. The reference imports nothing
//! from the kernel, `LhsIndex`, `CodeKey` or the dictionaries, so the
//! admission bitmaps, the pinned-projection memo and the index probe
//! cannot hide a bug in it too. `blocks` must be equal index for index
//! and `comparisons` equal exactly, on every case and on every prefix
//! and suffix of it taken as a fragment of its own.
//!
//! The generator reaches LHS widths 0..=5 (the empty key, and pinned
//! projections of every `CodeKey` layout: one word, two words, boxed),
//! tableaux mixing wildcard masks, all-wild (FD) patterns, pattern
//! constants the relation never saw (`NO_CODE`), `Null` cells, and
//! `applicable` as the whole tableau, a strict subset, or empty.
//!
//! Every check runs twice over the same rows: as built, where a fragment
//! whose pinned code space fits its rows memoizes σ in a slot array, and
//! after [`grow_dictionaries`] has pushed the dictionaries past every
//! fragment, where the memo is a hash map. Both must equal the
//! definition, so they equal each other.

mod common;

use common::{grow_dictionaries, naive_sigma};
use distributed_cfd::core::sigma::{sigma_partition, sort_for_sigma, SigmaPartition};
use distributed_cfd::prelude::*;
use distributed_cfd::relation::AttrId;
use proptest::prelude::*;
use std::sync::Arc;

const ARITY: usize = 6;
/// A constant no generated row carries.
const UNSEEN: i64 = 99;

fn schema() -> Arc<Schema> {
    let mut b = Schema::builder("r");
    for j in 0..ARITY {
        b = b.attr(format!("a{j}"), ValueType::Int);
    }
    b.build().unwrap()
}

/// A data cell: `Null` one time in eight, else one of four integers.
fn cell(c: u8) -> Value {
    match c % 8 {
        0 => Value::Null,
        c => Value::Int(i64::from(c % 4)),
    }
}

fn same(got: &SigmaPartition, want: &(Vec<Vec<usize>>, usize), what: &str) -> Result<(), String> {
    if got.blocks != want.0 {
        return Err(format!("{what}: blocks {:?}, definition {:?}", got.blocks, want.0));
    }
    if got.comparisons != want.1 {
        return Err(format!("{what}: comparisons {}, definition {}", got.comparisons, want.1));
    }
    Ok(())
}

/// The whole fragment, and both halves of every split as fragments of
/// their own, against the definition, over `rel` as built and again
/// after its dictionaries are grown (the same rows and codes). The halves
/// share `rel`'s dictionaries, so each size meets the slot table or the
/// hash map as its rows decide. Takes `rel` by value: it leaves grown.
fn check(rel: Relation, cfd: &SimpleCfd, applicable: &[usize]) -> Result<(), String> {
    let sorted = sort_for_sigma(cfd);
    let n = rel.len();
    for pass in ["as built", "grown"] {
        if pass == "grown" {
            grow_dictionaries(&rel);
        }
        let whole = std::iter::once((0, n));
        for (start, end) in whole.chain((0..=n).flat_map(|mid| [(0, mid), (mid, n)])) {
            let part = rel.copy_rows(&(start..end).collect::<Vec<_>>());
            same(
                &sigma_partition(&part, &sorted, applicable),
                &naive_sigma(&part, &sorted, applicable),
                &format!("{start}..{end}, {pass}"),
            )?;
        }
    }
    Ok(())
}

fn cfd_of(width: usize, tableau: Vec<NormalPattern>) -> SimpleCfd {
    SimpleCfd {
        name: "phi".into(),
        schema: schema(),
        lhs: (0..width).map(|j| AttrId(j as u16)).collect(),
        rhs: AttrId((ARITY - 1) as u16),
        tableau,
    }
}

fn pat(cells: &[Option<i64>]) -> NormalPattern {
    let lhs = cells.iter().map(|c| c.map_or(PatternValue::Wild, PatternValue::constant)).collect();
    NormalPattern::new(lhs, PatternValue::Wild)
}

/// Every combination of three values on the first five attributes.
fn grid() -> Relation {
    let rows = (0..3i64.pow(5)).map(|k| {
        let mut row: Vec<Value> = (0..5).map(|j| Value::Int(k / 3i64.pow(j) % 3)).collect();
        row.push(Value::Int(k));
        row
    });
    Relation::from_rows(schema(), rows.collect()).unwrap()
}

#[test]
fn mixed_wildcard_masks_and_an_unseen_constant() {
    // Position 0 is pinned by every pattern (a bitmap), position 1 by
    // some (pinned, no bitmap), position 2 by none. The UNSEEN pattern
    // is infeasible but still counts as a try.
    let cfd = cfd_of(
        3,
        vec![
            pat(&[Some(0), None, None]),
            pat(&[Some(1), Some(2), None]),
            pat(&[Some(UNSEEN), Some(1), None]),
            pat(&[Some(0), Some(1), None]),
        ],
    );
    check(grid(), &cfd, &[0, 1, 2, 3]).unwrap();
    // With a catch-all no position carries a bitmap.
    let mut with_fd = cfd.clone();
    with_fd.tableau.push(pat(&[None, None, None]));
    check(grid(), &with_fd, &[0, 1, 2, 3, 4]).unwrap();
}

#[test]
fn every_pattern_infeasible_matches_nothing_at_full_price() {
    let cfd = cfd_of(2, vec![pat(&[Some(UNSEEN), None]), pat(&[Some(1), Some(UNSEEN)])]);
    let rel = grid();
    let part = sigma_partition(&rel, &sort_for_sigma(&cfd), &[0, 1]);
    assert_eq!(part.total_matching(), 0);
    assert_eq!(part.comparisons, 2 * rel.len());
    check(rel, &cfd, &[0, 1]).unwrap();
}

#[test]
fn applicable_as_a_strict_subset_and_empty() {
    let cfd = cfd_of(
        2,
        vec![
            pat(&[Some(0), Some(0)]),
            pat(&[Some(0), None]),
            pat(&[None, Some(1)]),
            pat(&[None; 2]),
        ],
    );
    let rel = grid();
    for applicable in [&[0, 1, 2, 3][..], &[1, 3], &[0, 2], &[3], &[2], &[]] {
        check(grid(), &cfd, applicable).unwrap();
    }
    let none = sigma_partition(&rel, &sort_for_sigma(&cfd), &[]);
    assert_eq!((none.total_matching(), none.comparisons), (0, 0));
}

#[test]
fn an_fd_and_an_empty_lhs_pin_nothing() {
    let rel = grid();
    for width in [0, 1, 3, 5] {
        let fd = cfd_of(width, vec![pat(&vec![None; width])]);
        check(grid(), &fd, &[0]).unwrap();
        let part = sigma_partition(&rel, &sort_for_sigma(&fd), &[0]);
        assert_eq!(part.blocks[0], (0..rel.len()).collect::<Vec<_>>());
        assert_eq!(part.comparisons, rel.len());
    }
    check(grid(), &cfd_of(0, vec![]), &[]).unwrap();
}

#[test]
fn pinned_projections_of_every_key_layout() {
    // All `width` positions pinned: the memo key is one word (1–2), a
    // wide word (3–4), boxed (5).
    for width in 1..=5 {
        let full: Vec<Option<i64>> = (0..width as i64).map(|j| Some(j % 3)).collect();
        let mut shifted = full.clone();
        shifted[width - 1] = Some((width as i64) % 3);
        let mut half = full.clone();
        half[0] = None;
        let cfd = cfd_of(width, vec![pat(&half), pat(&shifted), pat(&full)]);
        check(grid(), &cfd, &[0, 1, 2]).unwrap();
        check(grid(), &cfd, &[0, 1]).unwrap();
    }
}

/// One generated case: a few base rows repeated with one cell redrawn
/// (so keys collide, and some rows fall just outside a pattern's
/// constants); patterns take their constants from a base row under a
/// wildcard mask, one cell possibly replaced by the unseen constant.
#[derive(Debug, Clone)]
struct Case {
    bases: Vec<Vec<u8>>,
    /// `(base row, redrawn position, redrawn cell)`.
    rows: Vec<(usize, usize, u8)>,
    width: usize,
    /// `(base row, constant mask, unseen-constant position)`.
    patterns: Vec<(usize, u8, usize)>,
    /// Which sorted pattern indices are applicable.
    applicable_mask: u8,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(prop::collection::vec(0..8u8, ARITY), 1..5),
        prop::collection::vec((0..5usize, 0..ARITY, 0..8u8), 0..24),
        0..ARITY,
        prop::collection::vec((0..5usize, 0..32u8, 0..15usize), 0..6),
        0..128u8,
    )
        .prop_map(|(bases, rows, width, patterns, applicable_mask)| Case {
            bases,
            rows,
            width,
            patterns,
            applicable_mask,
        })
}

impl Case {
    fn relation(&self) -> Relation {
        let rows = self.rows.iter().map(|&(b, at, redraw)| {
            let mut row: Vec<Value> =
                self.bases[b % self.bases.len()].iter().map(|&c| cell(c)).collect();
            row[at] = cell(redraw);
            row
        });
        Relation::from_rows(schema(), rows.collect()).unwrap()
    }

    fn cfd(&self) -> SimpleCfd {
        let tableau = self.patterns.iter().map(|&(b, mask, unseen_at)| {
            let base = &self.bases[b % self.bases.len()];
            let cells: Vec<Option<i64>> = (0..self.width)
                .map(|j| match cell(base[j]) {
                    _ if unseen_at == j => Some(UNSEEN),
                    Value::Int(v) if mask & (1 << j) != 0 => Some(v),
                    _ => None,
                })
                .collect();
            pat(&cells)
        });
        cfd_of(self.width, tableau.collect())
    }

    /// Half the cases scan the whole tableau, half a masked subset.
    fn applicable(&self, k: usize) -> Vec<usize> {
        let all = self.applicable_mask >= 64;
        (0..k).filter(|&i| all || self.applicable_mask & (1 << i) != 0).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sigma_equals_the_first_match_definition(case in arb_case()) {
        let (rel, cfd) = (case.relation(), case.cfd());
        let applicable = case.applicable(cfd.tableau.len());
        if let Err(msg) = check(rel, &cfd, &applicable) {
            return Err(TestCaseError::fail(format!("{msg}\n{case:?}")));
        }
    }
}

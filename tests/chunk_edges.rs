//! The chunk pins. A slot-table `CodeMemo` resolves its rows' keys a
//! chunk of `CHUNK` rows at a time, chunks counted from the first row a
//! scan reads; the generated suites never reach a chunk edge (their
//! relations hold a few dozen rows). Here every scan that resolves keys
//! runs over relations of `CHUNK − 1`, `CHUNK`, `CHUNK + 1` and
//! `3·CHUNK + 7` rows, whose keys repeat across chunks and three of
//! which are first seen in the last rows:
//!
//! * σ (`sigma_partition`) equals Lemma 6's σ by the book;
//! * the kernel's column loop (through `detect_simple`) equals
//!   `oracle::vio`;
//! * the constant check over ranges that start and end inside, on and
//!   across chunk edges equals the whole-fragment check restricted to
//!   the range, and the whole-fragment check equals `oracle::vio`;
//! * a cluster coordinator's validation over σ-blocks read in place
//!   (`ResolvedCfd::detect_blocks`) equals `oracle::vio` over the
//!   blocks' tuples, where the blocks cut a chunk edge and where LHS
//!   groups are split across blocks of different fragments.
//!
//! Each runs as built, where the keys' code spaces fit slot tables, and
//! after [`grow_dictionaries`], where every scan hashes.

mod common;

use common::{grow_dictionaries, naive_sigma};
use dcd_cfd::{oracle, CodeLayout};
use dcd_core::local::check_constants_range;
use dcd_core::sigma::{sigma_partition, sort_for_sigma};
use dcd_relation::ops::CodeMemo;
use dcd_relation::{AttrId, Codes};
use distributed_cfd::prelude::*;
use std::sync::Arc;

/// The rows `CodeMemo::resolve` computes slot ids for at a time
/// (`CHUNK` in `dcd_relation::ops`).
const CHUNK: usize = 1024;

/// The LHS `(a0, a1, a2)` and the RHS `r`.
const LHS: [AttrId; 3] = [AttrId(0), AttrId(1), AttrId(2)];
const RHS: AttrId = AttrId(3);

fn schema() -> Arc<Schema> {
    let mut b = Schema::builder("r");
    for name in ["a0", "a1", "a2", "r"] {
        b = b.attr(name, ValueType::Int);
    }
    b.build().unwrap()
}

/// `n` rows: keys over 5 × 6 × 3 values that repeat across every chunk,
/// and in the last three rows two `a0` values no earlier row holds. The
/// RHS is a function of `(a0, a1)` except at every 101st row and the
/// last, so a few groups conflict.
fn relation(n: usize) -> Relation {
    let rows = (0..n).map(|r| {
        let a0 = if r + 3 >= n { 5 + r % 2 } else { r % 5 };
        let a1 = (r / 7) % 6;
        let rhs = match r {
            _ if r + 1 == n => 98,
            _ if r % 101 == 50 => 99,
            _ => a0 + a1,
        };
        vec![a0, a1, r % 3, rhs].into_iter().map(|v| Value::Int(v as i64)).collect()
    });
    Relation::from_rows(schema(), rows.collect()).unwrap()
}

fn pattern(lhs: [Option<i64>; 3], rhs: Option<i64>) -> NormalPattern {
    let cell = |c: Option<i64>| c.map_or(PatternValue::Wild, PatternValue::constant);
    NormalPattern::new(lhs.into_iter().map(cell).collect(), cell(rhs))
}

/// `(a0, a1, a2) → r` with variable patterns (one over the `a0` first
/// seen at the end) and constant ones (one whose RHS no row holds).
fn cfd() -> SimpleCfd {
    let tableau = vec![
        pattern([Some(1), None, None], None),
        pattern([None, Some(2), None], None),
        pattern([Some(5), None, None], None),
        pattern([Some(2), Some(3), None], None),
        pattern([Some(3), None, None], Some(3)),
        pattern([Some(6), None, None], Some(6)),
        pattern([None, Some(4), Some(1)], Some(77)),
    ];
    SimpleCfd { name: "phi".into(), schema: schema(), lhs: LHS.to_vec(), rhs: RHS, tableau }
}

/// Whether a scan of `rows` rows keyed on `attrs` of `rel` gets a slot
/// table.
fn slotted(rel: &Relation, attrs: &[AttrId], rows: usize) -> bool {
    let sizes = attrs.iter().map(|&a| rel.dictionary(a).len());
    matches!(CodeMemo::<u32>::new(sizes, rows), CodeMemo::Slots(..))
}

/// The constant check restricted to rows `range` of its whole-fragment
/// findings: the flagged ids in the range and their keys.
fn restricted(rel: &Relation, whole: &ViolationSet, range: std::ops::Range<usize>) -> ViolationSet {
    let mut out = ViolationSet::default();
    for r in range.filter(|&r| whole.contains(rel.tids()[r])) {
        let row = rel.row(r);
        out.insert(rel.tids()[r]);
        out.insert_pattern(LHS.iter().map(|&a| row.get(a).clone()).collect());
    }
    out
}

#[test]
fn scans_agree_with_the_definitions_across_chunk_edges() {
    let cfd = cfd();
    let (variable, constants) = cfd.split_constant();
    let sorted = sort_for_sigma(&variable.unwrap());
    let constant_cfd = SimpleCfd {
        tableau: constants.iter().map(|nc| nc.pattern.clone()).collect(),
        ..cfd.clone()
    };
    let every = (0..sorted.cfd.tableau.len()).collect::<Vec<_>>();
    for n in [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
        let rel = relation(n);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        let vio = oracle::vio(&tuples, &cfd);
        let constants_vio = oracle::vio(&tuples, &constant_cfd);
        assert!(!vio.is_empty() && !constants_vio.is_empty(), "{n} rows flag nothing");
        let sigma_want: Vec<_> =
            [&every[..], &[1, 2]].map(|applicable| naive_sigma(&rel, &sorted, applicable)).into();
        let frag = Fragment { site: SiteId(0), predicate: None, data: rel };
        let rel = &frag.data;
        for pass in ["as built", "grown"] {
            if pass == "grown" {
                grow_dictionaries(rel);
            }
            assert_eq!(slotted(rel, &LHS, n), pass == "as built", "{n} rows, {pass}");
            let what = format!("{n} rows, {pass}");
            for (applicable, want) in [&every[..], &[1, 2]].into_iter().zip(&sigma_want) {
                let got = sigma_partition(rel, &sorted, applicable);
                assert_eq!((&got.blocks, got.comparisons), (&want.0, want.1), "σ, {what}");
            }
            assert_eq!(detect_simple(rel, &cfd), vio, "kernel, {what}");
            let whole = check_constants_range(&frag, &constants, 0, n);
            assert_eq!(whole, constants_vio, "constants, {what}");
            for start in [0, 1, CHUNK - 1, CHUNK + 3] {
                for len in [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, n] {
                    let end = (start + len).min(n);
                    assert_eq!(
                        check_constants_range(&frag, &constants, start, end),
                        restricted(rel, &whole, start..end),
                        "constants over {start}..{end}, {what}"
                    );
                }
            }
        }
    }
}

/// `cfd` validated over `blocks` of `frags` read in place, against the
/// oracle over the blocks' tuples in the order read.
fn blocks_agree(frags: &[Fragment], cfd: &SimpleCfd, blocks: &[(usize, Vec<usize>)], what: &str) {
    let attrs = cfd.shipped_attrs();
    let resolved = CodeLayout::of_relation(&frags[0].data, &attrs).resolve(cfd);
    let views: Vec<Vec<Codes<'_>>> = frags.iter().map(|f| f.data.code_views(&attrs)).collect();
    let read = blocks.iter().map(|(f, rows)| (&views[*f][..], frags[*f].data.tids(), &rows[..]));
    let (found, _) = resolved.detect_blocks(read);
    let decoded: Vec<Tuple> =
        blocks.iter().flat_map(|(f, rows)| rows.iter().map(|&r| frags[*f].data.row(r))).collect();
    let tuples: Vec<&Tuple> = decoded.iter().collect();
    assert_eq!(ViolationSet::from(found), oracle::vio(&tuples, cfd), "{what}");
}

#[test]
fn coordinators_read_their_blocks_in_place_across_chunk_edges() {
    let cfd = cfd();
    let rel = relation(3 * CHUNK + 7);
    let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
    let frags = partition.fragments();
    let len = |f: usize| frags[f].data.len();
    // Blocks whose rows add up across the first chunk edge inside the
    // second block, and past the third edge inside the last.
    let cut = vec![
        (0, (0..CHUNK - 3).collect()),
        (1, (5..10).collect()),
        (0, (CHUNK - 3..len(0)).collect()),
        (1, (10..len(1)).rev().collect()),
    ];
    // Round-robin sends consecutive rows to alternating fragments, so
    // every LHS group is split across these two blocks.
    let split: Vec<(usize, Vec<usize>)> = (0..2).map(|f| (f, (0..len(f)).collect())).collect();
    // Apart, each fragment misses the conflicts its groups have with the
    // other's members.
    let alone = |f: usize| {
        let tuples: Vec<Tuple> = frags[f].data.iter().collect();
        oracle::vio(&tuples.iter().collect::<Vec<_>>(), &cfd)
    };
    let mut apart = alone(0);
    apart.merge(alone(1));
    let decoded: Vec<Tuple> = rel.iter().collect();
    assert_ne!(apart, oracle::vio(&decoded.iter().collect::<Vec<_>>(), &cfd), "no group is split");
    for pass in ["as built", "grown"] {
        if pass == "grown" {
            grow_dictionaries(&rel);
        }
        assert_eq!(slotted(&frags[0].data, &LHS, rel.len()), pass == "as built", "{pass}");
        blocks_agree(frags, &cfd, &cut, &format!("blocks across chunk edges, {pass}"));
        blocks_agree(frags, &cfd, &split, &format!("groups split across fragments, {pass}"));
    }
}

//! Helpers shared by the property suites. Each suite compiles this module
//! and uses part of it.
#![allow(dead_code)]

use dcd_cfd::{Flagged, KernelTally, ResolvedCfd};
use dcd_core::sigma::SortedCfd;
use dcd_relation::{AttrId, Codes};
use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// The `(id, a, b, c, d)` schema the generated suites draw over: a key,
/// two `Int` and two `Str` attributes.
pub fn schema() -> Arc<Schema> {
    Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .attr("d", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap()
}

/// One generated tuple's `(a, b, c, d)`.
pub type Row = (i64, i64, u8, u8);

/// `len` rows over tiny domains, so FD groups collide often.
pub fn arb_rows(len: Range<usize>) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((0..4i64, 0..4i64, 0..3u8, 0..3u8), len)
}

/// The relation over [`schema`] whose `i`-th tuple is
/// `(i, a, b, "c{c}", "d{d}")`.
pub fn build_relation(rows: &[Row]) -> Relation {
    Relation::from_rows(
        schema(),
        rows.iter()
            .enumerate()
            .map(|(i, &(a, b, c, d))| vals![i, a, b, format!("c{c}"), format!("d{d}")])
            .collect(),
    )
    .unwrap()
}

/// One tableau row's LHS cells over `(a, b, c)`: a constant, or `None`
/// for the wildcard.
pub type Pattern = (Option<i64>, Option<i64>, Option<u8>);

/// 1–3 tableau rows mixing wildcards and small constants.
pub fn arb_patterns() -> impl Strategy<Value = Vec<Pattern>> {
    prop::collection::vec(
        (prop::option::of(0..4i64), prop::option::of(0..4i64), prop::option::of(0..3u8)),
        1..4,
    )
}

/// The CFD `name: [a, b, c] → [d]` over [`schema`], one tableau row per
/// pattern, every RHS cell the wildcard or the constant `"d{rhs_const}"`.
pub fn build_cfd(name: &str, patterns: &[Pattern], rhs_const: Option<u8>) -> Cfd {
    let int = |o: Option<i64>| o.map_or(PatternValue::Wild, PatternValue::constant);
    let text = |prefix: &str, o: Option<u8>| {
        o.map_or(PatternValue::Wild, |v| PatternValue::constant(format!("{prefix}{v}")))
    };
    let tableau = patterns
        .iter()
        .map(|&(a, b, c)| {
            PatternTuple::new(vec![int(a), int(b), text("c", c)], vec![text("d", rhs_const)])
        })
        .collect();
    Cfd::with_names(name, schema(), &["a", "b", "c"], &["d"], tableau).unwrap()
}

/// `n` tuples over [`schema`] with plenty of FD collisions, and skew: the
/// `a = i % 3` domain skews groups, and every seventh `d` is an outlier.
pub fn sample(n: i64) -> Relation {
    Relation::from_rows(
        schema(),
        (0..n)
            .map(|i| {
                vals![
                    i,
                    i % 3,
                    i % 5,
                    format!("c{}", i % 4),
                    format!("d{}", if i % 7 == 0 { 9 } else { i % 2 })
                ]
            })
            .collect(),
    )
    .unwrap()
}

/// Σ over [`sample`]: an FD, a CFD with an LHS constant and a constant
/// CFD.
pub fn sample_sigma(s: &Arc<Schema>) -> Vec<Cfd> {
    vec![
        parse_cfd(s, "phi1", "([a, b] -> [d])").unwrap(),
        parse_cfd(s, "phi2", "([a=1, c] -> [d])").unwrap(),
        parse_cfd(s, "phi3", "([b=2, c=c1] -> [d=d1])").unwrap(), // constant CFD
    ]
}

/// Lemma 6's σ by the book: per tuple, over decoded values, the
/// applicable patterns tried in scan order with `PatternValue::matches`
/// until the first that matches. The blocks, and one comparison per
/// pattern tried per tuple.
pub fn naive_sigma(
    rel: &Relation,
    sorted: &SortedCfd,
    applicable: &[usize],
) -> (Vec<Vec<usize>>, usize) {
    let cfd = &sorted.cfd;
    let mut blocks = vec![Vec::new(); cfd.tableau.len()];
    let mut comparisons = 0;
    for (i, t) in rel.iter().enumerate() {
        for &pi in applicable {
            comparisons += 1;
            let tp = &cfd.tableau[pi];
            if cfd.lhs.iter().zip(&tp.lhs).all(|(&a, p)| p.matches(t.get(a))) {
                blocks[pi].push(i);
                break;
            }
        }
    }
    (blocks, comparisons)
}

/// SplitMix64: a seeded generator from which a whole case derives.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Interns `rel.len() + 1` values no row holds into every dictionary
/// `rel` shares, through a relation holding the same `Arc`s: integers
/// from 1000 up into an `Int` attribute, `"~grown-k"` strings into a `Str`
/// one. The rows keep their codes, but no key over one column or more
/// fits a slot table any more: every scan of them hashes.
pub fn grow_dictionaries(rel: &Relation) {
    let schema = rel.schema().clone();
    let mut sibling = rel.with_capacity_like(rel.len() + 1);
    for k in 0..=rel.len() {
        let row = schema
            .attr_ids()
            .map(|a| match schema.attr(a).ty {
                ValueType::Int => Value::Int(1000 + k as i64),
                ValueType::Str => Value::str(format!("~grown-{k}")),
            })
            .collect();
        sibling.push(row).unwrap();
    }
}

/// `resolved`'s coordinator validation over every fragment of
/// `partition`, read in place: each whole fragment one block over its
/// `attrs` columns, fragments in order (`ResolvedCfd::detect_blocks`).
pub fn validate_in_place(
    partition: &HorizontalPartition,
    resolved: &ResolvedCfd,
    attrs: &[AttrId],
) -> (Flagged, KernelTally) {
    let frags = partition.fragments();
    let views: Vec<Vec<Codes<'_>>> = frags.iter().map(|f| f.data.code_views(attrs)).collect();
    let rows: Vec<Vec<usize>> = frags.iter().map(|f| (0..f.data.len()).collect()).collect();
    let blocks = frags.iter().zip(&views).zip(&rows);
    resolved.detect_blocks(blocks.map(|((f, cols), rows)| (&cols[..], f.data.tids(), &rows[..])))
}

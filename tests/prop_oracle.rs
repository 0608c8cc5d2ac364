//! The oracle pin: every way the engine computes `Vio`/`Vioπ` of one CFD
//! — columnar `detect_simple` under both readings, code-native
//! `ResolvedCfd::detect_blocks` over every fragment read in place, and the
//! Lemma 6 union of per-pattern `detect_pattern_block` wire-row blocks — equals
//! `dcd_cfd::oracle`, the pairwise transcription of §II-C that shares no
//! code with them. The generator reaches what the fixed-width suites do
//! not: LHS widths 0..=6 (the empty-LHS single group, the one-word,
//! two-word and boxed `CodeKey` layouts), `Null` cells, RHS ∈ LHS,
//! pattern constants the relation never saw, empty tableaux and empty
//! relations.
//!
//! Every case runs twice over the same rows: as generated, where most
//! narrow keys' code spaces fit the
//! rows a scan reads and the slice kernel, σ and the constant check
//! index slot tables, then after [`grow_dictionaries`], where none fits
//! and every scan hashes. Both passes must equal the definition, and the
//! kernel's plain-vector findings must be identical between them.

mod common;

use common::{grow_dictionaries, validate_in_place};
use dcd_cfd::{detect_simple_strict, oracle, CodeLayout, CodeRow, Flagged};
use dcd_core::local::{check_constants_range_with, compile_constants};
use dcd_core::sigma::{sigma_partition, sort_for_sigma};
use dcd_relation::AttrId;
use distributed_cfd::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

const ARITY: usize = 7;
/// A constant no generated row carries.
const UNSEEN: i64 = 99;

fn schema() -> Arc<Schema> {
    let mut b = Schema::builder("r");
    for j in 0..ARITY {
        b = b.attr(format!("a{j}"), ValueType::Int);
    }
    b.build().unwrap()
}

/// A data cell: `Null` one time in eight, else one of three integers.
fn cell(c: u8) -> Value {
    match c % 8 {
        0 => Value::Null,
        c => Value::Int(i64::from(c % 3)),
    }
}

/// One generated case. Rows are a few *base* rows repeated with the RHS
/// cell redrawn, so LHS groups collide at every width; patterns take
/// their constants from a base row under a wildcard mask, so they match.
#[derive(Debug, Clone)]
struct Case {
    bases: Vec<Vec<u8>>,
    rows: Vec<(usize, u8)>,
    width: usize,
    rhs: usize,
    /// `(base row, wildcard mask, unseen-constant position, RHS cell)`.
    patterns: Vec<(usize, u8, usize, u8)>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(prop::collection::vec(0..8u8, ARITY), 1..6),
        prop::collection::vec((0..6usize, 0..8u8), 0..40),
        0..ARITY,
        0..ARITY,
        prop::collection::vec((0..6usize, 0..64u8, 0..24usize, 0..6u8), 0..4),
    )
        .prop_map(|(bases, rows, width, rhs, patterns)| Case {
            bases,
            rows,
            width,
            rhs,
            patterns,
        })
}

impl Case {
    fn relation(&self) -> Relation {
        let rows = self.rows.iter().map(|&(b, redraw)| {
            let mut row: Vec<Value> =
                self.bases[b % self.bases.len()].iter().map(|&c| cell(c)).collect();
            row[self.rhs] = cell(redraw);
            row
        });
        Relation::from_rows(schema(), rows.collect()).unwrap()
    }

    fn cfd(&self) -> SimpleCfd {
        let tableau = self
            .patterns
            .iter()
            .map(|&(b, mask, unseen_at, rhs)| {
                let base = &self.bases[b % self.bases.len()];
                let lhs = (0..self.width)
                    .map(|j| match cell(base[j]) {
                        _ if unseen_at == j => PatternValue::constant(UNSEEN),
                        Value::Int(v) if mask & (1 << j) != 0 => PatternValue::constant(v),
                        _ => PatternValue::Wild,
                    })
                    .collect();
                let rhs = match rhs {
                    0..=2 => PatternValue::Wild,
                    3 | 4 => PatternValue::constant(i64::from(rhs % 3)),
                    _ => PatternValue::constant(UNSEEN),
                };
                NormalPattern::new(lhs, rhs)
            })
            .collect();
        SimpleCfd {
            name: "phi".into(),
            schema: schema(),
            lhs: (0..self.width).map(|j| AttrId(j as u16)).collect(),
            rhs: AttrId(self.rhs as u16),
            tableau,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Columnar detection, both readings, equals the definition.
    #[test]
    fn centralized_detection_equals_the_definition(case in arb_case()) {
        let (rel, cfd) = (case.relation(), case.cfd());
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        for pass in ["as built", "grown"] {
            if pass == "grown" {
                grow_dictionaries(&rel);
            }
            let want = oracle::vio(&tuples, &cfd);
            prop_assert_eq!(detect_simple(&rel, &cfd), want, "algorithmic, {}", pass);
            let strict = oracle::vio_strict(&tuples, &cfd);
            prop_assert_eq!(detect_simple_strict(&rel, &cfd), strict, "strict, {}", pass);
        }
    }

    /// Coordinator validation equals the definition: the whole CFD at
    /// one coordinator over every fragment's rows read in place, each
    /// σ-block of `(tid, codes)` wire rows at its own against the
    /// one-pattern CFD over that block's tuples, and (Lemma 6) the union
    /// of the variable patterns' blocks against the variable CFD over
    /// everything. The constant patterns, checked locally per fragment
    /// (Proposition 5), union to the definition too.
    #[test]
    fn coordinator_validation_equals_the_definition(
        case in arb_case(),
        n_sites in 1usize..4,
    ) {
        let (rel, cfd) = (case.relation(), case.cfd());
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let as_built = validate_at_coordinators(&rel, &cfd, &partition, "as built")?;
        grow_dictionaries(&rel);
        let grown = validate_at_coordinators(&rel, &cfd, &partition, "grown")?;
        prop_assert_eq!(as_built, grown, "the in-place findings depend on the group-id table");
    }
}

/// One pass of [`coordinator_validation_equals_the_definition`]; returns
/// the in-place findings, ids in row order and keys in first-seen order.
fn validate_at_coordinators(
    rel: &Relation,
    cfd: &SimpleCfd,
    partition: &HorizontalPartition,
    pass: &str,
) -> Result<Flagged, TestCaseError> {
    let decoded: Vec<Tuple> = rel.iter().collect();
    let tuples: Vec<&Tuple> = decoded.iter().collect();
    let attrs = cfd.shipped_attrs();
    let fragments = partition.fragments();
    let layout = CodeLayout::of_relation(&fragments[0].data, &attrs);

    let want = oracle::vio(&tuples, cfd);
    let resolved = layout.resolve(cfd);
    let (found, _) = validate_in_place(partition, &resolved, &attrs);
    prop_assert_eq!(ViolationSet::from(found.clone()), want, "in place, {}", pass);

    let (variable, constants) = cfd.split_constant();
    let mut checked = ViolationSet::default();
    for f in fragments {
        checked.merge(check_constants_range_with(
            f,
            &compile_constants(f, &constants),
            0,
            f.data.len(),
        ));
    }
    let mut by_definition = ViolationSet::default();
    for nc in &constants {
        let one = SimpleCfd { tableau: vec![nc.pattern.clone()], ..cfd.clone() };
        by_definition.merge(oracle::vio(&tuples, &one));
    }
    prop_assert_eq!(checked, by_definition, "constants, {}", pass);

    let Some(variable) = variable else { return Ok(found) };
    let sorted = sort_for_sigma(&variable);
    let resolved = layout.resolve(&sorted.cfd);
    let applicable: Vec<usize> = (0..sorted.cfd.tableau.len()).collect();
    let blocks: Vec<_> =
        fragments.iter().map(|f| sigma_partition(&f.data, &sorted, &applicable).blocks).collect();
    let mut union = ViolationSet::default();
    for (l, pattern) in sorted.cfd.tableau.iter().enumerate() {
        let block_rows: Vec<CodeRow> = fragments
            .iter()
            .zip(&blocks)
            .flat_map(|(f, b)| f.data.code_rows(&attrs, &b[l]))
            .collect();
        let block_tuples: Vec<Tuple> = fragments
            .iter()
            .zip(&blocks)
            .flat_map(|(f, b)| b[l].iter().map(|&i| f.data.row(i)))
            .collect();
        let block_refs: Vec<&Tuple> = block_tuples.iter().collect();
        let one = SimpleCfd { tableau: vec![pattern.clone()], ..sorted.cfd.clone() };
        let (got, _) = resolved.detect_pattern_block(block_rows.iter(), l);
        prop_assert_eq!(got, oracle::vio(&block_refs, &one), "block, {}", pass);
        union.merge(got);
    }
    prop_assert_eq!(union, oracle::vio(&tuples, &variable), "Lemma 6 union, {}", pass);
    Ok(found)
}

//! Local validation: the two no-shipment cases of §IV-A.
//!
//! 1. **Constant CFDs** (Proposition 5): a constant CFD is violated by
//!    single tuples, so each site checks its own fragment and no data
//!    moves.
//! 2. **Partitioning condition**: for a variable CFD pattern `tp`, let
//!    `Fφ` be the conjunction of `B = b` for the constants in `tp[X]`.
//!    If `Fi ∧ Fφ` is unsatisfiable, no tuple of fragment `Di` can match
//!    `tp`, so site `Si` neither scans for nor ships tuples for that
//!    pattern.

use dcd_cfd::pattern::{compile_tableau, CompiledPattern};
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{NormalCfd, NormalPattern, SimpleCfd};
use dcd_dist::Fragment;
use dcd_relation::{AttrId, Predicate};

/// Checks the partitioning condition: `true` iff fragment `frag` may
/// contain tuples matching `pattern` (i.e. we cannot refute
/// `Fi ∧ Fφ`). Fragments without a predicate are always applicable.
pub fn pattern_applicable(frag: &Fragment, lhs: &[AttrId], pattern: &NormalPattern) -> bool {
    let Some(fi) = &frag.predicate else {
        return true;
    };
    let fphi = Predicate::from_conjunction(pattern.lhs_condition(lhs));
    fi.and(&fphi).is_satisfiable()
}

/// The pattern indices of `cfd` that are applicable to `frag` under the
/// partitioning condition.
pub fn applicable_patterns(frag: &Fragment, cfd: &SimpleCfd) -> Vec<usize> {
    cfd.tableau
        .iter()
        .enumerate()
        .filter(|(_, p)| pattern_applicable(frag, &cfd.lhs, p))
        .map(|(i, _)| i)
        .collect()
}

/// Checks a batch of constant CFDs locally on rows `start..end` of one
/// fragment (Proposition 5); `0..frag.data.len()` checks the whole
/// fragment, which is what the engines' constant phase does per site.
/// Returns the merged violation set. Patterns whose constants
/// contradict the fragment predicate are skipped entirely; the rest run
/// on the fragment's code columns (fragments share the parent relation's
/// dictionaries, so the pattern constants compile to the same codes at
/// every site). Constant CFDs flag tuples one at a time, so merging the
/// per-range sets over any partition of a fragment's rows equals the
/// whole-fragment check exactly (pinned by tests).
pub fn check_constants_range(
    frag: &Fragment,
    constants: &[NormalCfd],
    start: usize,
    end: usize,
) -> ViolationSet {
    check_constants_range_with(frag, &compile_constants(frag, constants), start, end)
}

/// Constant CFDs pre-resolved for one fragment: the partitioning
/// condition decided, the surviving patterns fused into one tableau per
/// distinct `(X, A)` and compiled against the fragment's dictionaries.
pub struct CompiledConstants {
    cfds: Vec<(SimpleCfd, Vec<CompiledPattern>)>,
}

/// Resolves `constants` against `frag` once, for reuse across any row
/// ranges of the fragment. Applicable constant CFDs sharing
/// `(lhs, rhs)` become one CFD with one tableau, so a range is walked
/// once per distinct `(X, A)`, not once per pattern; a tuple is flagged
/// by the fused tableau iff some pattern of it flags it, which is the
/// union the per-pattern checks would have merged.
pub fn compile_constants(frag: &Fragment, constants: &[NormalCfd]) -> CompiledConstants {
    let mut fused: Vec<SimpleCfd> = Vec::new();
    for nc in constants.iter().filter(|nc| pattern_applicable(frag, &nc.lhs, &nc.pattern)) {
        match fused.iter_mut().find(|cfd| cfd.lhs == nc.lhs && cfd.rhs == nc.rhs) {
            Some(cfd) => cfd.tableau.push(nc.pattern.clone()),
            None => fused.push(SimpleCfd {
                name: nc.origin.clone(),
                schema: nc.schema.clone(),
                lhs: nc.lhs.clone(),
                rhs: nc.rhs,
                tableau: vec![nc.pattern.clone()],
            }),
        }
    }
    let cfds = fused
        .into_iter()
        .map(|cfd| {
            let compiled = compile_tableau(&cfd.tableau, &frag.data, &cfd.lhs, cfd.rhs);
            (cfd, compiled)
        })
        .collect();
    CompiledConstants { cfds }
}

/// [`check_constants_range`] with the per-fragment resolution already
/// done ([`compile_constants`]).
pub fn check_constants_range_with(
    frag: &Fragment,
    compiled: &CompiledConstants,
    start: usize,
    end: usize,
) -> ViolationSet {
    let mut out = ViolationSet::default();
    for (simple, patterns) in &compiled.cfds {
        out.merge(dcd_cfd::detect_constants_rows_with(&frag.data, simple, patterns, start, end));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_dist::{HorizontalPartition, SiteId};
    use dcd_relation::{vals, Atom, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("title", ValueType::Str)
            .attr("CC", ValueType::Int)
            .attr("AC", ValueType::Int)
            .attr("city", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn rel() -> Relation {
        Relation::from_rows(
            schema(),
            vec![
                vals![1, "MTS", 44, 131, "EDI"],
                vals![2, "MTS", 44, 131, "NYC"],
                vals![3, "VP", 1, 908, "MH"],
                vals![4, "VP", 1, 908, "NYC"],
            ],
        )
        .unwrap()
    }

    fn title_partition() -> HorizontalPartition {
        let r = rel();
        let title = r.schema().require("title").unwrap();
        HorizontalPartition::by_predicates(
            &r,
            vec![Predicate::atom(Atom::eq(title, "MTS")), Predicate::atom(Atom::eq(title, "VP"))],
        )
        .unwrap()
    }

    #[test]
    fn partitioning_condition_refutes_contradicting_patterns() {
        let r = rel();
        let cc = r.schema().require("CC").unwrap();
        let p = HorizontalPartition::by_predicates(
            &r,
            vec![Predicate::atom(Atom::eq(cc, 44)), Predicate::atom(Atom::eq(cc, 1))],
        )
        .unwrap();
        let cfd = parse_cfd(r.schema(), "c", "([CC=44, AC] -> [city])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        // Pattern pins CC=44: applicable to fragment 0 only.
        assert_eq!(applicable_patterns(p.fragment(SiteId(0)), &simple), vec![0]);
        assert_eq!(applicable_patterns(p.fragment(SiteId(1)), &simple), Vec::<usize>::new());
    }

    #[test]
    fn predicate_free_fragments_are_always_applicable() {
        let r = rel();
        let p = HorizontalPartition::round_robin(&r, 2).unwrap();
        let cfd = parse_cfd(r.schema(), "c", "([CC=44, AC] -> [city])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert_eq!(applicable_patterns(p.fragment(SiteId(0)), &simple), vec![0]);
    }

    #[test]
    fn constants_checked_locally_sum_to_global() {
        let r = rel();
        let p = title_partition();
        let cfd = parse_cfd(r.schema(), "c4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let (_, constants) = simple.split_constant();
        assert_eq!(constants.len(), 1);

        let mut merged = ViolationSet::default();
        for f in p.fragments() {
            merged.merge(check_constants_range(f, &constants, 0, f.data.len()));
        }
        let global = dcd_cfd::detect_simple(&r, &simple);
        assert_eq!(merged, global);
    }

    /// Constant CFDs that partly share `(X, A)` and partly do not: two
    /// on `([CC, AC] → city)` beside one with an LHS constant and one
    /// with an RHS constant the relation never saw (`NO_CODE` either
    /// way), one on the same `X` with another `A`, one on another `X`.
    fn mixed_constants() -> Vec<NormalCfd> {
        let s = schema();
        [
            ("c4", "([CC=44, AC=131] -> [city=EDI])"),
            ("t1", "([title=MTS] -> [city=EDI])"),
            ("c5", "([CC=1, AC=908] -> [city=MH])"),
            ("a1", "([CC=44, AC=131] -> [title=MTS])"),
            ("unseen_lhs", "([CC=7, AC=131] -> [city=EDI])"),
            ("unseen_rhs", "([CC=1, AC=908] -> [city=ZZZ])"),
        ]
        .iter()
        .flat_map(|(name, text)| {
            parse_cfd(&s, name, text).unwrap().simplify().pop().unwrap().split_constant().1
        })
        .collect()
    }

    fn single_constant() -> Vec<NormalCfd> {
        let cfd = parse_cfd(&schema(), "c4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        cfd.simplify().pop().unwrap().split_constant().1
    }

    /// `oracle::vio` of one constant CFD over a fragment's tuples.
    fn definition(frag: &Fragment, nc: &NormalCfd) -> ViolationSet {
        let decoded: Vec<dcd_relation::Tuple> = frag.data.iter().collect();
        let simple = SimpleCfd {
            name: nc.origin.clone(),
            schema: nc.schema.clone(),
            lhs: nc.lhs.clone(),
            rhs: nc.rhs,
            tableau: vec![nc.pattern.clone()],
        };
        dcd_cfd::oracle::vio(&decoded.iter().collect::<Vec<_>>(), &simple)
    }

    #[test]
    fn fused_constants_equal_the_definition_per_cfd() {
        let r = rel();
        let constants = mixed_constants();
        let round_robin = HorizontalPartition::round_robin(&r, 2).unwrap();
        // No predicate refutes anything: six CFDs, three distinct (X, A).
        assert_eq!(compile_constants(round_robin.fragment(SiteId(0)), &constants).cfds.len(), 3);
        let mut flagged = 0;
        for part in [&round_robin, &title_partition()] {
            for f in part.fragments() {
                let mut want = ViolationSet::default();
                for nc in &constants {
                    let alone = check_constants_range(f, std::slice::from_ref(nc), 0, f.data.len());
                    let def = definition(f, nc);
                    assert_eq!(alone, def, "{} Vio, Vioπ", nc.origin);
                    want.merge(def);
                }
                let compiled = compile_constants(f, &constants);
                let fused = check_constants_range_with(f, &compiled, 0, f.data.len());
                assert_eq!(fused, want);
                flagged += fused.len();
            }
        }
        assert!(flagged > 0, "fixture should contain violations");
    }

    #[test]
    fn range_union_equals_whole_fragment_check() {
        let p = title_partition();
        for constants in [single_constant(), mixed_constants()] {
            for f in p.fragments() {
                let whole = check_constants_range(f, &constants, 0, f.data.len());
                for split in 0..=f.data.len() {
                    let mut merged = check_constants_range(f, &constants, 0, split);
                    merged.merge(check_constants_range(f, &constants, split, f.data.len()));
                    assert_eq!(merged, whole, "split at {split}");
                }
            }
        }
    }

    #[test]
    fn inapplicable_constants_are_skipped_without_changing_results() {
        let r = rel();
        let p = title_partition();
        // CC=1 tuples all live in the VP fragment; the MTS fragment's
        // predicate (title = MTS) does not contradict CC=1, so it is
        // still scanned — but a fragment predicate pinning CC would skip.
        let cc = r.schema().require("CC").unwrap();
        let pcc = HorizontalPartition::by_predicates(
            &r,
            vec![Predicate::atom(Atom::eq(cc, 44)), Predicate::atom(Atom::eq(cc, 1))],
        )
        .unwrap();
        let cfd = parse_cfd(r.schema(), "c5", "([CC=1, AC=908] -> [city=MH])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let (_, constants) = simple.split_constant();
        for part in [&p, &pcc] {
            let mut merged = ViolationSet::default();
            for f in part.fragments() {
                merged.merge(check_constants_range(f, &constants, 0, f.data.len()));
            }
            let global = dcd_cfd::detect_simple(&r, &simple);
            assert_eq!(merged.tids(), global.tids(), "partition changed the result");
        }
    }
}

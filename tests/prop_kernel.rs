//! Kernel and mined-tableau equivalence properties, the PR 8 pinning
//! suite: (1) `judge` and `Judgement::flags` — the one group-validation
//! semantics every detector runs — match a naive spelling of the paper's per-group
//! semantics on arbitrary spec lists; (2) the kernel's two call shapes
//! (columnar `detect_simple`, code-native `ResolvedCfd::detect_blocks`)
//! agree tuple-for-tuple and pattern-for-pattern with the pairwise
//! `dcd_cfd::oracle` on random relations, and every code-native entry
//! point returns the tally the naive semantics predicts; (3) an incrementally
//! maintained [`MinedTableau`] equals a full re-mine of the
//! materialized partition after *every prefix* of a generated delta
//! stream — both on the raw [`IncrementalRun`] and through the
//! [`IncrementalSession`] facade.

mod common;

use common::{arb_patterns, arb_rows, build_cfd, build_relation, schema, validate_in_place};
use dcd_cfd::{detect_simple_strict, judge, oracle, CodeLayout, Judgement, KernelTally, RhsSpec};
use dcd_core::MinedTableau;
use dcd_datagen::{update_stream, UpdateStreamConfig};
use dcd_incr::IncrementalRun;
use dcd_relation::AttrId;
use distributed_cfd::prelude::*;
use proptest::prelude::*;

/// The paper's per-group semantics, spelled out naively: a variable
/// pattern flags the whole group iff it holds ≥2 distinct RHS values; a
/// constant pattern flags each member whose RHS differs from the
/// constant (plus the whole group under strict mode when the FD also
/// conflicts). No laziness, no early exit — the oracle the kernel must
/// match.
fn naive_group_flags(specs: &[RhsSpec], rhs: &[u32], strict: bool) -> Vec<bool> {
    let distinct: std::collections::HashSet<u32> = rhs.iter().copied().collect();
    let conflict = distinct.len() > 1;
    let mut all = false;
    let mut flags = vec![false; rhs.len()];
    for spec in specs {
        match spec {
            RhsSpec::Wild => all |= conflict,
            RhsSpec::Const(c) => {
                all |= strict && conflict;
                for (f, r) in flags.iter_mut().zip(rhs) {
                    if r != c {
                        *f = true;
                    }
                }
            }
        }
    }
    if all {
        vec![true; rhs.len()]
    } else {
        flags
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `judge` over a group's conflict bit, then `Judgement::flags` per
    /// member, equals the naive per-group semantics for every mix of
    /// wild/constant RHS specs and member multiset, in both readings —
    /// what the scan loops and the incremental index each compute.
    #[test]
    fn validate_group_matches_naive_semantics(
        specs in prop::collection::vec(prop::option::of(0..4u32), 1..5),
        rhs in prop::collection::vec(0..4u32, 1..8),
    ) {
        let specs: Vec<RhsSpec> = specs
            .iter()
            .map(|o| match o {
                Some(c) => RhsSpec::Const(*c),
                None => RhsSpec::Wild,
            })
            .collect();
        let conflict = rhs.iter().any(|&r| r != rhs[0]);
        for strict in [false, true] {
            let judgement = judge(specs.iter().copied(), conflict, strict);
            let got: Vec<bool> = rhs.iter().map(|&r| judgement.flags(r)).collect();
            let want = naive_group_flags(&specs, &rhs, strict);
            prop_assert_eq!(
                &got, &want, "{:?} of {:?} under {:?} (strict={})", judgement, rhs, specs, strict
            );
            prop_assert_eq!(
                judgement == Judgement::All,
                conflict && specs.iter().any(|s| strict || *s == RhsSpec::Wild),
                "only an FD conflict convicts the whole group"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel's two call shapes — columnar over the whole relation,
    /// code-native over shipped `(tid, codes)` rows — and the pairwise
    /// oracle over `&Tuple`s compute identical `Vio` and `Vioπ`.
    #[test]
    fn kernel_instantiations_agree_on_random_relations(
        rows in arb_rows(1..40),
        patterns in arb_patterns(),
        rhs_const in prop::option::of(0..3u8),
    ) {
        let rel = build_relation(&rows);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let tuples: Vec<&Tuple> = decoded.iter().collect();
        for simple in build_cfd("phi", &patterns, rhs_const).simplify() {
            let columnar = detect_simple(&rel, &simple);
            let row_wise = oracle::vio(&tuples, &simple);
            let attrs: Vec<AttrId> = simple.shipped_attrs();
            let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
            let layout = CodeLayout::of_relation(&rel, &attrs);
            let in_place = validate_in_place(&partition, &layout.resolve(&simple), &attrs);
            let code_native = ViolationSet::from(in_place.0);
            prop_assert_eq!(&columnar, &row_wise, "columnar vs row-wise");
            prop_assert_eq!(&columnar, &code_native, "columnar vs codes");
        }
    }
}

/// One tableau row of a mixed CFD: LHS constants or wildcards over
/// `(a, b, c)`, and an RHS that is `_` or a constant `d`.
type MixedPattern = (Option<i64>, Option<i64>, Option<u8>, Option<u8>);

/// What the naive per-group semantics expects of a whole relation: the
/// flagged row indices, the violating `(a, b, c)` keys, and the tallies
/// a kernel run over these rows should report.
#[derive(Debug, Default, PartialEq)]
struct NaiveRun {
    rows: Vec<usize>,
    keys: Vec<(i64, i64, u8)>,
    probes: u64,
    clean: u64,
    all_flagged: u64,
    mixed: u64,
}

impl NaiveRun {
    /// The tally a kernel run over the same rows should return.
    fn tally(&self) -> KernelTally {
        let NaiveRun { probes, clean, all_flagged, mixed, .. } = *self;
        KernelTally { probes, clean, all_flagged, mixed }
    }
}

/// Whether the row `(a, b, c, _)` matches the LHS of one tableau row.
fn lhs_matches(&(a, b, c, _): &(i64, i64, u8, u8), &(pa, pb, pc, _): &MixedPattern) -> bool {
    pa.is_none_or(|v| v == a) && pb.is_none_or(|v| v == b) && pc.is_none_or(|v| v == c)
}

/// Groups rows by `(a, b, c)` values, lists each group's matching
/// patterns in tableau order and applies [`naive_group_flags`]. A group
/// is *all flagged* when the FD conflict alone convicts it, *mixed* when
/// only single-tuple mismatches do.
fn naive_run(rows: &[(i64, i64, u8, u8)], tableau: &[MixedPattern], strict: bool) -> NaiveRun {
    let mut groups: std::collections::BTreeMap<(i64, i64, u8), Vec<usize>> = Default::default();
    for (i, &(a, b, c, _)) in rows.iter().enumerate() {
        groups.entry((a, b, c)).or_default().push(i);
    }
    let mut run = NaiveRun::default();
    for (&(a, b, c), members) in &groups {
        run.probes += 1;
        let specs: Vec<RhsSpec> = tableau
            .iter()
            .filter(|p| lhs_matches(&(a, b, c, 0), p))
            .map(|&(_, _, _, rhs)| rhs.map_or(RhsSpec::Wild, |d| RhsSpec::Const(u32::from(d))))
            .collect();
        if specs.is_empty() {
            continue;
        }
        let rhs: Vec<u32> = members.iter().map(|&i| u32::from(rows[i].3)).collect();
        let flags = naive_group_flags(&specs, &rhs, strict);
        let conflict = rhs.iter().any(|&r| r != rhs[0]);
        let convicted = conflict && specs.iter().any(|s| strict || matches!(s, RhsSpec::Wild));
        if convicted {
            run.all_flagged += 1;
        } else if flags.contains(&true) {
            run.mixed += 1;
        } else {
            run.clean += 1;
        }
        if flags.contains(&true) {
            run.keys.push((a, b, c));
        }
        run.rows.extend(members.iter().zip(&flags).filter(|(_, &f)| f).map(|(&i, _)| i));
    }
    run.rows.sort_unstable();
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The grouping kernel behind `detect_simple`, `detect_simple_strict`
    /// and the code-native entry points against the naive semantics, on
    /// tableaux that mix variable and constant patterns over the same
    /// groups and under both readings: the flagged tuples, the violating
    /// keys, and — for each entry point that returns one — the tally:
    /// `detect_blocks` over every fragment's rows read in place, and
    /// `detect_pattern_block` per pattern over the wire rows it matches.
    #[test]
    fn grouping_kernel_matches_naive_semantics_tallies_included(
        rows in arb_rows(1..40),
        tableau in prop::collection::vec(
            (
                prop::option::of(0..4i64),
                prop::option::of(0..4i64),
                prop::option::of(0..3u8),
                prop::option::of(0..3u8),
            ),
            1..5,
        ),
    ) {
        let rel = build_relation(&rows);
        let patterns = tableau
            .iter()
            .map(|&(a, b, c, d)| {
                let int = |o: Option<i64>| o.map_or(PatternValue::Wild, PatternValue::constant);
                let text = |prefix: &str, o: Option<u8>| {
                    o.map_or(PatternValue::Wild, |v| PatternValue::constant(format!("{prefix}{v}")))
                };
                PatternTuple::new(vec![int(a), int(b), text("c", c)], vec![text("d", d)])
            })
            .collect();
        let cfd = Cfd::with_names("mixed", schema(), &["a", "b", "c"], &["d"], patterns).unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let set_of = |run: &NaiveRun| {
            let mut set = ViolationSet::default();
            for &i in &run.rows {
                set.insert(rel.tids()[i]);
            }
            for &(a, b, c) in &run.keys {
                set.insert_pattern(vals![a, b, format!("c{c}")]);
            }
            set
        };

        for strict in [false, true] {
            let want = set_of(&naive_run(&rows, &tableau, strict));
            let got = if strict {
                detect_simple_strict(&rel, &simple)
            } else {
                detect_simple(&rel, &simple)
            };
            prop_assert_eq!(&got, &want, "Vio, Vioπ, strict={}", strict);
        }

        let want = naive_run(&rows, &tableau, false);
        let attrs: Vec<AttrId> = simple.shipped_attrs();
        let all: Vec<usize> = (0..rel.len()).collect();
        let wire = rel.code_rows(&attrs, &all);
        let resolved = CodeLayout::of_relation(&rel, &attrs).resolve(&simple);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let (found, tally) = validate_in_place(&partition, &resolved, &attrs);
        prop_assert_eq!(&ViolationSet::from(found), &set_of(&want), "detect_blocks findings");
        prop_assert_eq!(tally, want.tally(), "detect_blocks: probes and verdict mix");
        prop_assert_eq!(tally.groups(), want.clean + want.all_flagged + want.mixed);

        for (l, pattern) in tableau.iter().enumerate() {
            let matching: Vec<usize> =
                (0..rows.len()).filter(|&i| lhs_matches(&rows[i], pattern)).collect();
            let block: Vec<_> = matching.iter().map(|&i| rows[i]).collect();
            let want = naive_run(&block, std::slice::from_ref(pattern), false);
            let (found, tally) = resolved.detect_pattern_block(wire.iter(), l);
            let mut tids: Vec<TupleId> =
                want.rows.iter().map(|&i| rel.tids()[matching[i]]).collect();
            tids.sort_unstable();
            prop_assert_eq!(&found.tids(), &tids, "pattern {} Vio", l);
            prop_assert_eq!(found.pattern_count(), want.keys.len(), "pattern {} Vioπ", l);
            prop_assert_eq!(tally, want.tally(), "detect_pattern_block {}: tally", l);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// After every prefix of the delta stream, the incrementally
    /// maintained mined tableau — ±1 support updates from each batch's
    /// `DeltaEffect`s — refines to exactly the CFD a full re-mine of
    /// the materialized partition produces, and the
    /// `IncrementalSession` facade reports the same thing — the raw run
    /// on one worker, the session on eight.
    #[test]
    fn maintained_mined_tableau_equals_full_remine_after_every_prefix(
        rows in arb_rows(1..40),
        patterns in arb_patterns(),
        n_sites in 1usize..5,
        ops in 4usize..16,
        seed in 0u64..1000,
        insert_ratio in 0.3f64..1.0,
        theta in 0.05f64..0.6,
        max_width in 1usize..4,
    ) {
        let rel = build_relation(&rows);
        // Wild RHS keeps the tableau variable, so mined constants are
        // subsumable and actually get emitted.
        let cfd = build_cfd("phi", &patterns, None);
        let simple = cfd.clone().simplify().pop().unwrap();
        let config = MiningConfig { theta, max_width };
        let sigma = vec![cfd.clone()];
        let partition = HorizontalPartition::round_robin(&rel, n_sites).unwrap();
        let stream = update_stream(&partition, &UpdateStreamConfig {
            n_batches: 3,
            ops_per_batch: ops,
            insert_ratio,
            seed,
            ..Default::default()
        });
        let at = |threads| RunConfig::default().with_threads(threads);
        let mut run = IncrementalRun::new(partition.clone(), &sigma, at(1)).unwrap();
        let id = run.track_mining(&simple, &config).unwrap();
        let mut session = DetectRequest::over(partition)
            .cfd(cfd)
            .config(at(8))
            .plan()
            .and_then(Plan::session)
            .expect("horizontal partitions support sessions");
        let sid = session.track_mining(&simple, &config).expect("horizontal sessions mine");

        let check = |run: &IncrementalRun, session: &IncrementalSession|
            -> Result<(), TestCaseError> {
            let (got, added) = run.mined_cfd(id).expect("a tracked id");
            let (want, want_added) =
                MinedTableau::build(run.partition(), &simple, &config).refine();
            prop_assert_eq!(&got.tableau, &want.tableau, "maintained vs re-mined tableau");
            prop_assert_eq!(&got.name, &want.name);
            prop_assert_eq!(added, want_added, "mined-pattern count");
            let (via_session, session_added) = session.mined_cfd(sid).expect("a tracked id");
            prop_assert_eq!(&via_session.tableau, &got.tableau, "facade vs raw run");
            prop_assert_eq!(session_added, added);
            prop_assert_eq!(run.detection(), session.detection(), "width 1 vs 8");
            Ok(())
        };
        check(&run, &session)?;
        for batch in stream {
            let batch = DeltaBatch::from(batch);
            run.apply_batch(&batch).unwrap();
            session.apply_batch(&batch).unwrap();
            check(&run, &session)?;
        }
    }
}

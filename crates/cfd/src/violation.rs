//! Centralized CFD violation detection.
//!
//! This is the workspace's implementation of the "SQL technique" of Fan
//! et al. (TODS 2008) that the ICDE 2010 paper invokes at every site: a
//! fixed pair of queries per CFD — a selection catching single-tuple
//! violations of constant patterns, and a single GROUP BY catching
//! pair-wise violations of variable patterns. Here both are executed as
//! one hash aggregation per CFD (grouping on `t[X]`, then testing every
//! matching pattern against each group), which is exactly what the SQL
//! engine would do physically.
//!
//! ## Two readings of `Vio` for constant patterns
//!
//! The paper's formal definition (§II-C) puts `t` in `Vio(φ, D)` whenever
//! *some* partner `t'` with `t[X] = t'[X] ≍ tp[X]` has `t[Y] ≠ t'[Y]` —
//! even when `tp[Y]` is a constant. Its Example 1 and Proposition 5,
//! however, check constant patterns one tuple at a time (`t[Y] ≭ tp[Y]`),
//! which is what makes constant CFDs locally checkable in horizontal
//! fragments. The two readings flag the same *pattern* groups and are
//! empty on exactly the same databases, but may differ on which tuples of
//! a mixed group are flagged (Fig. 1: strict flags t1, t4, t5 for cfd4;
//! the example flags only t2, t3).
//!
//! [`detect_simple`] implements the **algorithmic** reading (single-tuple
//! checks for constant patterns) — it is what the paper's distributed
//! algorithms compute and what Example 1 reports. [`detect_simple_strict`]
//! implements the literal definition. Satisfaction ([`satisfies`]) is
//! identical under both.

use crate::cfd::{Cfd, SimpleCfd};
use crate::kernel::{self, ColumnRows, Flagged, LhsIndex, Tableau};
use crate::pattern::{compile_tableau, CompiledPattern};
use dcd_relation::ops::CodeMemo;
use dcd_relation::{FxHashSet, Relation, TupleId, Value};
use std::sync::Arc;

/// The violations of one CFD in one relation: the tuple ids `Vio(φ, D)`
/// and the projected patterns `Vioπ(φ, D)` (distinct `t[X]` of violating
/// tuples; the paper pads these with nulls to full schema width — see
/// [`ViolationSet::viopi_relation`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationSet {
    /// `Vio(φ, D)`: ids of all violating tuples.
    pub tids: FxHashSet<TupleId>,
    /// `Vioπ(φ, D)`: distinct `t[X]` projections of violating tuples.
    pub patterns: FxHashSet<Vec<Value>>,
}

impl ViolationSet {
    /// Whether no violations were found.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty() && self.patterns.is_empty()
    }

    /// Merges another violation set into this one (same CFD, different
    /// fragments/coordinators). Ids and patterns each keep the larger
    /// table and re-insert the smaller side, so merging into an empty
    /// set is a move.
    pub fn merge(&mut self, mut other: ViolationSet) {
        if other.tids.len() > self.tids.len() {
            std::mem::swap(&mut self.tids, &mut other.tids);
        }
        if other.patterns.len() > self.patterns.len() {
            std::mem::swap(&mut self.patterns, &mut other.patterns);
        }
        self.tids.extend(other.tids);
        self.patterns.extend(other.patterns);
    }

    /// The union of what several kernel runs over disjoint rows found
    /// (one round's coordinators): both tables are sized for the total
    /// once and filled once.
    pub fn from_disjoint(parts: Vec<Flagged>) -> Self {
        let mut out = ViolationSet::default();
        out.tids.reserve(parts.iter().map(|p| p.tids.len()).sum());
        out.patterns.reserve(parts.iter().map(|p| p.patterns.len()).sum());
        for part in parts {
            out.tids.extend(part.tids);
            out.patterns.extend(part.patterns);
        }
        out
    }

    /// Materializes `Vioπ` in the paper's relational form: an instance of
    /// the full schema with `t[X]` filled in and `null` everywhere else.
    pub fn viopi_relation(&self, cfd: &SimpleCfd) -> Relation {
        let schema = cfd.schema.clone();
        let mut rel = Relation::with_capacity(schema.clone(), self.patterns.len());
        let mut sorted: Vec<&Vec<Value>> = self.patterns.iter().collect();
        sorted.sort();
        for key in sorted {
            let mut row = vec![Value::Null; schema.arity()];
            for (&a, v) in cfd.lhs.iter().zip(key) {
                row[a.index()] = v.clone();
            }
            rel.push(row).expect("null-padded row matches schema");
        }
        rel
    }
}

impl From<Flagged> for ViolationSet {
    fn from(found: Flagged) -> Self {
        ViolationSet {
            tids: found.tids.into_iter().collect(),
            patterns: found.patterns.into_iter().collect(),
        }
    }
}

/// A labelled collection of violation sets, one per CFD — the output
/// shape of multi-CFD detection.
///
/// Labels are interned `Arc<str>`s: detection runs absorb per-fragment
/// results once per CFD per round, and re-allocating a `String` key each
/// time showed up in the multi-CFD profiles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationReport {
    /// Per-CFD results, labelled by CFD name.
    pub per_cfd: Vec<(Arc<str>, ViolationSet)>,
}

impl ViolationReport {
    /// Union of all violating tuple ids: `Vio(Σ, D)`.
    pub fn all_tids(&self) -> FxHashSet<TupleId> {
        let mut out = FxHashSet::default();
        for (_, v) in &self.per_cfd {
            out.extend(v.tids.iter().copied());
        }
        out
    }

    /// `|Vio(Σ, D)|`, the number of distinct violating tuples, without
    /// building [`Self::all_tids`]: the largest set counts whole, and a
    /// further set adds the ids no set counted before it holds. One CFD
    /// is one `len()`; disjoint sets cost one probe per id outside the
    /// largest.
    pub fn distinct_tids(&self) -> usize {
        let mut sets: Vec<&FxHashSet<TupleId>> =
            self.per_cfd.iter().map(|(_, v)| &v.tids).collect();
        sets.sort_by_key(|set| std::cmp::Reverse(set.len()));
        let Some((largest, further)) = sets.split_first() else { return 0 };
        let uncounted = |k: usize| {
            let counted = |id| largest.contains(id) || further[..k].iter().any(|s| s.contains(id));
            further[k].iter().filter(|&id| !counted(id)).count()
        };
        largest.len() + (0..further.len()).map(uncounted).sum::<usize>()
    }

    /// Adds (merging by name) a per-CFD violation set. The name is
    /// interned on first sight; later absorbs for the same CFD allocate
    /// nothing.
    pub fn absorb(&mut self, name: &str, vs: ViolationSet) {
        if let Some((_, existing)) = self.per_cfd.iter_mut().find(|(n, _)| n.as_ref() == name) {
            existing.merge(vs);
        } else {
            self.per_cfd.push((Arc::from(name), vs));
        }
    }

    /// Total number of violating tuples across CFDs (with multiplicity
    /// per CFD; a tuple violating two CFDs counts twice).
    pub fn total_violations(&self) -> usize {
        self.per_cfd.iter().map(|(_, v)| v.tids.len()).sum()
    }
}

/// Detects violations of a single-RHS CFD `φ = (X → A, Tp)` in `rel`,
/// under the algorithmic reading (see module docs).
///
/// Cost: one pass to group matching tuples by `t[X]` (hash aggregation),
/// then `O(groups × |Tp|)` pattern checks — the physical plan of the
/// TODS 2008 detection queries.
pub fn detect_simple(rel: &Relation, cfd: &SimpleCfd) -> ViolationSet {
    detect_simple_with(rel, cfd, false)
}

/// [`detect_simple`] under the strict §II-C reading: constant patterns
/// also flag every member of an FD-group containing two distinct RHS
/// values.
pub fn detect_simple_strict(rel: &Relation, cfd: &SimpleCfd) -> ViolationSet {
    detect_simple_with(rel, cfd, true)
}

/// The columnar detection path: the whole algorithm runs on dictionary
/// codes. Patterns compile once against `rel`'s dictionaries; the group
/// keys are packed code keys; only violating group keys are ever
/// decoded back to values. The validation semantics live in
/// [`kernel::judge`](crate::kernel::judge) — this function only
/// supplies the column-sliced grouping, the code-column member accessor
/// and the dictionary decoder. Pinned against the pairwise
/// [`oracle`](crate::oracle) by `tests/prop_oracle.rs`.
fn detect_simple_with(rel: &Relation, cfd: &SimpleCfd, strict: bool) -> ViolationSet {
    if cfd.tableau.is_empty() {
        return ViolationSet::default();
    }
    let compiled = compile_tableau(&cfd.tableau, rel, &cfd.lhs, cfd.rhs);
    if compiled.iter().all(|p| !p.feasible) {
        // Every pattern names a constant the relation never saw.
        return ViolationSet::default();
    }
    // Hand the kernel *all* rows, straight from the relation's columns;
    // the LHS index then decides per distinct key — not per row — which
    // patterns apply (keys matching none emit nothing). An empty LHS packs
    // every row to the one empty key.
    let rows = ColumnRows {
        lhs: rel.code_views(&cfd.lhs),
        rhs: rel.column(cfd.rhs).codes(),
        tids: rel.tids(),
    };
    let index = LhsIndex::of_compiled(&compiled);
    let tableau = Tableau { patterns: &compiled, index: Some(&index), strict };
    let key_sizes = cfd.lhs.iter().map(|&a| rel.dictionary(a).len());
    let decode = |key: &[u32]| rel.decode_projection(&cfd.lhs, key);
    kernel::detect_columns(&rows, key_sizes, &tableau, decode).0.into()
}

/// Single-tuple detection of an all-constant-pattern CFD, restricted to
/// rows `start..end` — the distributed engines' Proposition-5 phase runs
/// it over each whole fragment — against a tableau already compiled for
/// `rel`'s dictionaries. Precondition
/// (debug-asserted): every tableau pattern has a constant RHS. Under the
/// algorithmic reading such patterns flag tuples one at a time
/// (`t[X] ≍ tp[X] ∧ t[A] ≭ tp[A]`), so unioning the per-range results
/// over any partition of the rows is exactly the whole-relation
/// [`detect_simple`] — pinned by tests.
///
/// One pass. Each key's [`Judgement`](kernel::Judgement) —
/// [`kernel::judge`] over the constants of the feasible patterns matching
/// it, under the algorithmic reading — is decided on the key's first
/// sight and kept in a [`CodeMemo`]: a slot table when the LHS code space
/// is no larger than the range, a hash map otherwise. Every other row of
/// the key reads it, and is flagged by
/// [`Judgement::flags`](kernel::Judgement::flags) on its own RHS code.
/// Only a flagged row has its key decoded.
pub fn detect_constants_rows_with(
    rel: &Relation,
    cfd: &SimpleCfd,
    compiled: &[CompiledPattern],
    start: usize,
    end: usize,
) -> ViolationSet {
    let mut out = ViolationSet::default();
    debug_assert!(
        compiled.iter().all(|p| !p.rhs_is_wild()),
        "detect_constants_rows_with requires constant-RHS patterns (single-tuple semantics)"
    );
    let feasible: Vec<&CompiledPattern> = compiled.iter().filter(|p| p.feasible).collect();
    let end = end.min(rel.len());
    if feasible.is_empty() || start >= end {
        return out;
    }
    let lhs = rel.code_views(&cfd.lhs);
    let rhs = rel.column(cfd.rhs).codes();
    let sizes = cfd.lhs.iter().map(|&a| rel.dictionary(a).len());
    let mut judgements = CodeMemo::new(sizes, end - start);
    for (r, &rhs) in (start..end).zip(&rhs[start..end]) {
        let judgement = judgements.get_or_insert_with(&lhs, r, || {
            let matching = feasible.iter().filter(|p| p.matches_row(&lhs, r));
            kernel::judge(matching.map(|p| p.rhs_spec()), false, false)
        });
        if judgement.flags(rhs) {
            let key: Vec<u32> = lhs.iter().map(|col| col[r]).collect();
            out.patterns.insert(rel.decode_projection(&cfd.lhs, &key));
            out.tids.insert(rel.tids()[r]);
        }
    }
    out
}

/// Detects violations of a general CFD (any number of RHS attributes),
/// unioning over its [`SimpleCfd`] decomposition.
pub fn detect(rel: &Relation, cfd: &Cfd) -> ViolationSet {
    let mut out = ViolationSet::default();
    for simple in cfd.simplify() {
        out.merge(detect_simple(rel, &simple));
    }
    out
}

/// Detects violations of a set Σ of CFDs: `Vio(Σ, D)` per CFD.
pub fn detect_set(rel: &Relation, sigma: &[Cfd]) -> ViolationReport {
    let mut report = ViolationReport::default();
    for cfd in sigma {
        report.per_cfd.push((Arc::from(cfd.name()), detect(rel, cfd)));
    }
    report
}

/// `D ⊨ φ`: satisfaction. Identical under the algorithmic and strict
/// readings (a constant-pattern pair conflict always entails a
/// single-tuple mismatch), so the faster algorithmic detector is used.
pub fn satisfies(rel: &Relation, cfd: &Cfd) -> bool {
    detect(rel, cfd).is_empty()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codes::CodeLayout;
    use crate::parse::parse_cfd;
    use dcd_relation::{vals, Schema, Tuple, ValueType};
    use std::sync::Arc;

    /// The EMP schema of Fig. 1(a).
    pub(crate) fn emp_schema() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("name", ValueType::Str)
            .attr("title", ValueType::Str)
            .attr("CC", ValueType::Int)
            .attr("AC", ValueType::Int)
            .attr("phn", ValueType::Int)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
            .attr("zip", ValueType::Str)
            .attr("salary", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    /// The EMP relation D0 of Fig. 1(a).
    pub(crate) fn d0() -> Relation {
        Relation::from_rows(
            emp_schema(),
            vec![
                vals![1, "Sam", "DMTS", 44, 131, 8765432, "Princess Str.", "EDI", "EH2 4HF", "95k"],
                vals![2, "Mike", "MTS", 44, 131, 1234567, "Mayfield", "NYC", "EH4 8LE", "80k"],
                vals![3, "Rick", "DMTS", 44, 131, 3456789, "Mayfield", "NYC", "EH4 8LE", "95k"],
                vals![4, "Philip", "DMTS", 44, 131, 2909209, "Crichton", "EDI", "EH4 8LE", "95k"],
                vals![5, "Adam", "VP", 44, 131, 7478626, "Mayfield", "EDI", "EH4 8LE", "200k"],
                vals![6, "Joe", "MTS", 1, 908, 1416282, "Mtn Ave", "NYC", "07974", "110k"],
                vals![7, "Bob", "DMTS", 1, 908, 2345678, "Mtn Ave", "MH", "07974", "150k"],
                vals![8, "Jef", "DMTS", 31, 20, 8765432, "Muntplein", "AMS", "1012 WR", "90k"],
                vals![9, "Steven", "MTS", 31, 20, 1425364, "Spuistraat", "AMS", "1012 WR", "75k"],
                vals![10, "Bram", "MTS", 31, 10, 2536475, "Kruisplein", "ROT", "3012 CC", "75k"],
            ],
        )
        .unwrap()
    }

    fn tids(v: &ViolationSet) -> Vec<u64> {
        let mut ids: Vec<u64> = v.tids.iter().map(|t| t.0).collect();
        ids.sort();
        ids
    }

    /// φ1: cfd1 + cfd2 of the paper. Violations: t2–t5 (UK zip EH4 8LE
    /// with 3 streets) and t8, t9 (NL zip 1012 WR with 2 streets).
    #[test]
    fn paper_phi1_violations() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        let cfd2 = parse_cfd(&s, "cfd2", "([CC=31, zip] -> [street])").unwrap();
        let phi1 = Cfd::merge("phi1", &[&cfd1, &cfd2]).unwrap();
        let v = detect(&rel, &phi1);
        // Row ids are 0-based: tuples t2..t5 are rows 1..4; t8,t9 are rows 7,8.
        assert_eq!(tids(&v), vec![1, 2, 3, 4, 7, 8]);
        assert_eq!(v.patterns.len(), 2);
        assert!(v.patterns.contains(&vals![44, "EH4 8LE"]));
        assert!(v.patterns.contains(&vals![31, "1012 WR"]));
    }

    /// φ2 = cfd3 (the FD) is satisfied by D0.
    #[test]
    fn paper_phi2_satisfied() {
        let s = emp_schema();
        let rel = d0();
        let phi2 = parse_cfd(&s, "phi2", "([CC, title] -> [salary])").unwrap();
        assert!(satisfies(&rel, &phi2));
    }

    /// φ3 = cfd4 + cfd5 under the algorithmic reading flags exactly the
    /// tuples Example 1 reports: t2, t3 (city ≠ EDI) and t6 (city ≠ MH).
    #[test]
    fn paper_phi3_violations_match_example1() {
        let s = emp_schema();
        let rel = d0();
        let cfd4 = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let cfd5 = parse_cfd(&s, "cfd5", "([CC=1, AC=908] -> [city=MH])").unwrap();
        let phi3 = Cfd::merge("phi3", &[&cfd4, &cfd5]).unwrap();
        let v = detect(&rel, &phi3);
        assert_eq!(tids(&v), vec![1, 2, 5]);
    }

    /// The strict §II-C reading additionally flags the pair partners
    /// (t1, t4, t5 via cfd4; t7 via cfd5).
    #[test]
    fn strict_reading_flags_pair_partners() {
        let s = emp_schema();
        let rel = d0();
        let cfd4 = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let simple = cfd4.simplify().pop().unwrap();
        let v = detect_simple_strict(&rel, &simple);
        assert_eq!(tids(&v), vec![0, 1, 2, 3, 4]);
        // Emptiness agrees between readings on satisfied CFDs.
        let phi2 = parse_cfd(&s, "phi2", "([CC, title] -> [salary])").unwrap();
        let simple2 = phi2.simplify().pop().unwrap();
        assert!(detect_simple_strict(&rel, &simple2).is_empty());
        assert!(detect_simple(&rel, &simple2).is_empty());
    }

    /// End-to-end Example 1: the violations of {cfd1..cfd5} in D0 are
    /// exactly t2–t6, t8 and t9.
    #[test]
    fn example1_full_union() {
        let s = emp_schema();
        let rel = d0();
        let sigma = vec![
            parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap(),
            parse_cfd(&s, "cfd2", "([CC=31, zip] -> [street])").unwrap(),
            parse_cfd(&s, "cfd3", "([CC, title] -> [salary])").unwrap(),
            parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap(),
            parse_cfd(&s, "cfd5", "([CC=1, AC=908] -> [city=MH])").unwrap(),
        ];
        let report = detect_set(&rel, &sigma);
        let mut all: Vec<u64> = report.all_tids().iter().map(|t| t.0).collect();
        all.sort();
        // t2..t6 are rows 1..5; t8, t9 are rows 7, 8.
        assert_eq!(all, vec![1, 2, 3, 4, 5, 7, 8]);
    }

    #[test]
    fn empty_relation_and_empty_tableau() {
        let s = emp_schema();
        let rel = Relation::new(s.clone());
        let cfd = parse_cfd(&s, "c", "([CC, zip] -> [street])").unwrap();
        assert!(detect(&rel, &cfd).is_empty());
        let empty = Cfd::with_names("e", s, &["CC"], &["city"], vec![]).unwrap();
        assert!(detect(&d0(), &empty).is_empty());
    }

    #[test]
    fn single_tuple_violates_constant_cfd() {
        let s = emp_schema();
        let mut rel = Relation::new(s.clone());
        rel.push(vals![1, "x", "MTS", 44, 131, 1, "st", "NYC", "z", "80k"]).unwrap();
        let cfd4 = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let v = detect(&rel, &cfd4);
        assert_eq!(v.tids.len(), 1);
        assert_eq!(v.patterns.len(), 1);
    }

    /// K+1 duplicate-key example of §II-C: Vio grows with K but Vioπ
    /// stays a single pattern.
    #[test]
    fn viopi_is_much_smaller_than_vio() {
        let s = emp_schema();
        let mut rel = Relation::new(s.clone());
        rel.push(vals![1, "x", "MTS", 44, 131, 1, "st", "EDI", "z", "80k"]).unwrap();
        for i in 2..=6i64 {
            rel.push(vals![i, "x", "MTS", 44, 131, 1, "st", "EDI", "z", "85k"]).unwrap();
        }
        let phi2 = parse_cfd(&s, "phi2", "([CC, title] -> [salary])").unwrap();
        let v = detect(&rel, &phi2);
        assert_eq!(v.tids.len(), 6);
        assert_eq!(v.patterns.len(), 1);
    }

    #[test]
    fn viopi_relation_pads_with_nulls() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        let simple = cfd1.simplify().pop().unwrap();
        let v = detect_simple(&rel, &simple);
        let pi = v.viopi_relation(&simple);
        assert_eq!(pi.len(), 1);
        let t = pi.row(0);
        let cc = s.require("CC").unwrap();
        let name = s.require("name").unwrap();
        assert_eq!(t.get(cc), &Value::Int(44));
        assert!(t.get(name).is_null());
    }

    #[test]
    fn detect_pattern_among_matches_detect_simple_per_pattern() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        let simple = cfd1.simplify().pop().unwrap();
        let via_full = detect_simple(&rel, &simple);
        let decoded: Vec<Tuple> = rel.iter().collect();
        let via_oracle = crate::oracle::vio(&decoded.iter().collect::<Vec<_>>(), &simple);
        assert_eq!(tids(&via_full), tids(&via_oracle));
        let attrs = simple.shipped_attrs();
        let rows = rel.code_rows(&attrs, &(0..rel.len()).collect::<Vec<_>>());
        let via_among = CodeLayout::of_relation(&rel, &attrs)
            .resolve(&simple)
            .detect_pattern_among(rows.iter(), 0);
        assert_eq!(tids(&via_oracle), tids(&via_among));
    }

    /// A tuple group matched by several patterns is flagged once with all
    /// its members.
    #[test]
    fn overlapping_patterns_do_not_double_flag() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "a", "([CC=44, zip] -> [street])").unwrap();
        let cfdw = parse_cfd(&s, "b", "([CC, zip] -> [street])").unwrap();
        let both = Cfd::merge("ab", &[&cfd1, &cfdw]).unwrap();
        let narrow = detect(&rel, &cfdw);
        let merged = detect(&rel, &both);
        assert_eq!(tids(&narrow), tids(&merged));
    }

    fn set_of(tids: impl IntoIterator<Item = u64>, keys: &[i64]) -> ViolationSet {
        ViolationSet {
            tids: tids.into_iter().map(TupleId).collect(),
            patterns: keys.iter().map(|&k| vals![k]).collect(),
        }
    }

    #[test]
    fn merge_holds_the_union_whichever_side_is_larger() {
        let small = set_of(0..3, &[1, 2, 3, 4]);
        let large = set_of(2..40, &[4]);
        let union = set_of(0..40, &[1, 2, 3, 4]);
        for (mut into, from) in [(small.clone(), large.clone()), (large, small)] {
            into.merge(from);
            assert_eq!(into.tids, union.tids);
            assert_eq!(into.patterns, union.patterns);
        }
        // Into the empty entry every round starts from: the set itself.
        let mut entry = ViolationSet::default();
        entry.merge(union.clone());
        assert_eq!((entry.tids, entry.patterns), (union.tids, union.patterns));
    }

    #[test]
    fn from_disjoint_is_the_union_of_the_parts() {
        let part = |tids: std::ops::Range<u64>, keys: &[i64]| Flagged {
            tids: tids.map(TupleId).collect(),
            patterns: keys.iter().map(|&k| vals![k]).collect(),
        };
        let built = ViolationSet::from_disjoint(vec![
            part(0..5, &[1]),
            Flagged::default(),
            part(5..9, &[2, 3]),
        ]);
        let want = set_of(0..9, &[1, 2, 3]);
        assert_eq!((built.tids, built.patterns), (want.tids, want.patterns));
        assert!(ViolationSet::from_disjoint(Vec::new()).is_empty());
    }

    #[test]
    fn distinct_tids_counts_the_union_without_building_it() {
        let report = |sets: Vec<ViolationSet>| ViolationReport {
            per_cfd: sets
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("c{i}").into(), v))
                .collect(),
        };
        let cases = [
            vec![],
            vec![set_of(0..7, &[])],
            // Disjoint; the largest set is not the first.
            vec![set_of(0..3, &[]), set_of(10..30, &[]), set_of(40..45, &[])],
            // Overlapping pairwise and all three at once, one set empty,
            // one contained in another.
            vec![set_of(0..10, &[]), set_of(5..15, &[]), set_of(8..12, &[]), set_of(0..0, &[])],
            vec![set_of(0..4, &[]), set_of(0..4, &[])],
        ];
        for sets in cases {
            let r = report(sets);
            assert_eq!(r.distinct_tids(), r.all_tids().len(), "{r:?}");
        }
    }

    #[test]
    fn report_merges_and_counts() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        let cfd4 = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let report = detect_set(&rel, &[cfd1, cfd4]);
        assert_eq!(report.per_cfd.len(), 2);
        assert!(report.total_violations() >= report.all_tids().len());
        let mut r2 = ViolationReport::default();
        for (n, v) in report.per_cfd.clone() {
            r2.absorb(&n, v.clone());
            r2.absorb(&n, v); // merging the same set is a no-op on ids
        }
        assert_eq!(r2.all_tids(), report.all_tids());
    }
}

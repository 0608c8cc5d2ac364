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
//!
//! ## One owner of the sets
//!
//! How [`ViolationSet`] stores `Vio` and `Vioπ` is this module's
//! business: everything else reads them through its methods, which
//! return ids and patterns in ascending order, so no storage order
//! leaks out.
#![expect(
    deprecated,
    reason = "the module that owns `ViolationSet`'s storage is the one place that names its fields"
)]

use crate::cfd::{Cfd, SimpleCfd};
use crate::kernel::{self, ColumnRows, Flagged, Judgement, LhsIndex, Tableau};
use crate::pattern::{compile_tableau, CompiledPattern};
use dcd_relation::ops::{CodeKey, CodeMemo};
use dcd_relation::{FxHashSet, Relation, TupleId, Value, NO_CODE, WILDCARD_CODE};
use std::sync::Arc;

/// The violations of one CFD in one relation: the tuple ids `Vio(φ, D)`
/// and the projected patterns `Vioπ(φ, D)` (distinct `t[X]` of violating
/// tuples; the paper pads these with nulls to full schema width).
///
/// Read and write it through its methods; two sets are `==` when they
/// hold the same ids and the same patterns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationSet {
    /// `Vio(φ, D)`: ids of all violating tuples.
    #[deprecated(note = "read `Vio` through `ViolationSet`'s methods; the field is public only \
                         because `benchmark/` still names it")]
    pub tids: FxHashSet<TupleId>,
    /// `Vioπ(φ, D)`: distinct `t[X]` projections of violating tuples.
    #[deprecated(note = "read `Vioπ` through `ViolationSet`'s methods; the field is public only \
                         because `benchmark/` still names it")]
    pub patterns: FxHashSet<Vec<Value>>,
}

impl ViolationSet {
    /// Whether no violations were found.
    pub fn is_empty(&self) -> bool {
        self.tids.is_empty() && self.patterns.is_empty()
    }

    /// `|Vio(φ, D)|`: the number of violating tuples.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Whether tuple `tid` is in `Vio(φ, D)`.
    pub fn contains(&self, tid: TupleId) -> bool {
        self.tids.contains(&tid)
    }

    /// `Vio(φ, D)` in ascending id order.
    pub fn tids(&self) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = self.tids.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// `|Vioπ(φ, D)|`: the number of distinct violating `t[X]`.
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// `Vioπ(φ, D)` in ascending order.
    pub fn patterns(&self) -> Vec<Vec<Value>> {
        let mut keys: Vec<Vec<Value>> = self.patterns.iter().cloned().collect();
        keys.sort_unstable();
        keys
    }

    /// Adds `tid` to `Vio`; whether it was absent.
    #[inline]
    pub fn insert(&mut self, tid: TupleId) -> bool {
        self.tids.insert(tid)
    }

    /// Takes `tid` out of `Vio`; whether it was present.
    #[inline]
    pub fn remove(&mut self, tid: TupleId) -> bool {
        self.tids.remove(&tid)
    }

    /// Adds `key` to `Vioπ`; whether it was absent.
    #[inline]
    pub fn insert_pattern(&mut self, key: Vec<Value>) -> bool {
        self.patterns.insert(key)
    }

    /// Takes `key` out of `Vioπ`; whether it was present.
    #[inline]
    pub fn remove_pattern(&mut self, key: &[Value]) -> bool {
        self.patterns.remove(key)
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
    /// Union of all violating tuple ids, `Vio(Σ, D)`, in ascending order.
    pub fn all_tids(&self) -> Vec<TupleId> {
        let mut out: Vec<TupleId> =
            self.per_cfd.iter().flat_map(|(_, v)| v.tids.iter().copied()).collect();
        out.sort_unstable();
        out.dedup();
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
        rows: 0..rel.len(),
    };
    let index = LhsIndex::of_compiled(&compiled);
    let tableau = Tableau { patterns: &compiled, index: Some(&index), strict };
    let key_sizes = cfd.lhs.iter().map(|&a| rel.dictionary(a).len());
    let decode = |key: &[u32]| rel.decode_projection(&cfd.lhs, key);
    kernel::detect_columns(&[rows], key_sizes, &tableau, decode).0.into()
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
/// One [`CodeMemo::resolve`] pass: a slot table when the LHS code space
/// is no larger than the range, a hash map otherwise. Each key's
/// [`Judgement`] — [`kernel::judge`] over the constants of the feasible
/// patterns matching it, under the algorithmic reading — is decided on
/// the key's first sight and kept as the one code the key's rows are
/// held to: [`WILDCARD_CODE`] for [`Judgement::Clean`] (no row is
/// flagged), `c` for [`Judgement::Differing`]`(c)`, and [`NO_CODE`] when
/// every row is flagged, since no stored code equals it. A row is flagged
/// iff its key is held and its own RHS code differs. Each distinct
/// flagged key is decoded once, after the scan.
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
    let tids = rel.tids();
    let mut held = CodeMemo::new(sizes, end - start);
    // A key's codes are read once, at its first row, and every pattern
    // is matched against them.
    let mut key: Vec<u32> = Vec::with_capacity(lhs.len());
    let judge = |r: usize| {
        key.clear();
        key.extend(lhs.iter().map(|col| col.get(r)));
        let matching = feasible.iter().filter(|p| p.matches_codes(&key));
        match kernel::judge(matching.map(|p| p.rhs_spec()), false, false) {
            Judgement::Clean => WILDCARD_CODE,
            Judgement::Differing(c) => c,
            // No stored code equals `NO_CODE`, so every member differs.
            Judgement::All | Judgement::EachMismatches => NO_CODE,
        }
    };
    let mut flagged_keys: FxHashSet<CodeKey> = FxHashSet::default();
    held.resolve_beside(&lhs, rhs, start..end, judge, |r, held, rhs| {
        if held != WILDCARD_CODE && rhs != held {
            flagged_keys.insert(CodeKey::of_row(&lhs, r));
            out.insert(tids[r]);
        }
    });
    let decode = |key: CodeKey| rel.decode_projection(&cfd.lhs, &key.codes(cfd.lhs.len()));
    out.patterns.extend(flagged_keys.into_iter().map(decode));
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
        v.tids().iter().map(|t| t.0).collect()
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
        assert_eq!(v.patterns(), [vals![31, "1012 WR"], vals![44, "EH4 8LE"]]);
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
        let all: Vec<u64> = report.all_tids().iter().map(|t| t.0).collect();
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
        assert_eq!(v.len(), 1);
        assert_eq!(v.pattern_count(), 1);
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
        assert_eq!(v.len(), 6);
        assert_eq!(v.pattern_count(), 1);
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
        let mut set = ViolationSet::default();
        for id in tids {
            set.insert(TupleId(id));
        }
        for &k in keys {
            set.insert_pattern(vals![k]);
        }
        set
    }

    #[test]
    fn merge_holds_the_union_whichever_side_is_larger() {
        let small = set_of(0..3, &[1, 2, 3, 4]);
        let large = set_of(2..40, &[4]);
        let union = set_of(0..40, &[1, 2, 3, 4]);
        for (mut into, from) in [(small.clone(), large.clone()), (large, small)] {
            into.merge(from);
            assert_eq!(into, union);
        }
        // Into the empty entry every round starts from: the set itself.
        let mut entry = ViolationSet::default();
        entry.merge(union.clone());
        assert_eq!(entry, union);
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
        assert_eq!(built, want);
        assert!(ViolationSet::from_disjoint(Vec::new()).is_empty());

        // The same set filled in other orders, through every way in: one
        // `Flagged` backwards, merges of the parts the other way round,
        // one insert at a time out of order.
        let backwards = part(0..9, &[3, 2, 1]);
        let backwards = Flagged { tids: backwards.tids.into_iter().rev().collect(), ..backwards };
        let mut merged = ViolationSet::from(part(5..9, &[3, 2]));
        merged.merge(ViolationSet::from(part(0..5, &[1])));
        let mut one_by_one = set_of([8, 0, 4, 2, 6, 1, 7, 3, 5], &[2, 3, 1]);
        assert!(one_by_one.insert(TupleId(9)) && !one_by_one.insert(TupleId(9)));
        assert!(one_by_one.insert_pattern(vals![4]) && !one_by_one.insert_pattern(vals![4]));
        assert!(one_by_one.remove(TupleId(9)) && !one_by_one.remove(TupleId(9)));
        let four = [Value::from(4)];
        assert!(one_by_one.remove_pattern(&four) && !one_by_one.remove_pattern(&four));
        let ids: Vec<TupleId> = (0..9).map(TupleId).collect();
        let keys: Vec<Vec<Value>> = [1, 2, 3].iter().map(|&k| vals![k]).collect();
        for set in [built, ViolationSet::from(backwards), merged, one_by_one] {
            assert_eq!(set, want);
            assert_eq!((set.len(), set.tids()), (ids.len(), ids.clone()));
            assert_eq!((set.pattern_count(), set.patterns()), (keys.len(), keys.clone()));
            assert!(ids.iter().all(|&id| set.contains(id)) && !set.contains(TupleId(9)));
        }
        // Across CFDs: each id once, ascending, whichever set holds it.
        let report = ViolationReport {
            per_cfd: vec![("b".into(), set_of(5..9, &[])), ("a".into(), set_of([4, 0, 6], &[]))],
        };
        let all: Vec<u64> = report.all_tids().iter().map(|t| t.0).collect();
        assert_eq!(all, [0, 4, 5, 6, 7, 8]);
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

    /// The constant check over D0, whole (the three `CC` codes fit a
    /// slot table) and as the union of two-row ranges (hashed), for a
    /// constant CFD over `[CC] -> [city]` with the given `(CC, city)`
    /// patterns.
    fn constant_check(patterns: &[(i64, &str)]) -> Vec<u64> {
        let s = emp_schema();
        let rel = d0();
        let cfds: Vec<Cfd> = patterns
            .iter()
            .map(|(cc, city)| parse_cfd(&s, "c", &format!("([CC={cc}] -> [city={city}])")).unwrap())
            .collect();
        let simple = Cfd::merge("c", &cfds.iter().collect::<Vec<_>>()).unwrap().simplify().pop();
        let simple = simple.unwrap();
        let compiled = compile_tableau(&simple.tableau, &rel, &simple.lhs, simple.rhs);
        let whole = detect_constants_rows_with(&rel, &simple, &compiled, 0, rel.len());
        let mut ranges = ViolationSet::default();
        for start in (0..rel.len()).step_by(2) {
            ranges.merge(detect_constants_rows_with(&rel, &simple, &compiled, start, start + 2));
        }
        assert_eq!(ranges, whole, "{patterns:?}");
        tids(&whole)
    }

    /// Each key holds one code, the one its group is held to, and a row
    /// is flagged iff its RHS differs from it. `CC=44` is rows 0–4 with
    /// cities EDI, NYC, NYC, EDI, EDI.
    #[test]
    fn the_constant_check_holds_each_key_to_one_code() {
        // One constant: the members that differ from it.
        assert_eq!(constant_check(&[(44, "EDI")]), [1, 2]);
        // A constant the dictionary never saw (`NO_CODE`): every member.
        assert_eq!(constant_check(&[(44, "LON")]), [0, 1, 2, 3, 4]);
        // Two distinct constants on one key: every member, each on its
        // own account.
        assert_eq!(constant_check(&[(44, "EDI"), (44, "NYC")]), [0, 1, 2, 3, 4]);
        // The same constant twice is one constant.
        assert_eq!(constant_check(&[(44, "EDI"), (44, "EDI")]), [1, 2]);
        // A clean key flags nothing, whatever its RHS: in every case
        // above the `CC=1` and `CC=31` rows (5–9) hold differing cities
        // and match no pattern. An unseen LHS constant matches no key.
        assert_eq!(constant_check(&[(7, "EDI")]), Vec::<u64>::new());
    }

    #[test]
    fn report_merges_and_counts() {
        let s = emp_schema();
        let rel = d0();
        let cfd1 = parse_cfd(&s, "cfd1", "([CC=44, zip] -> [street])").unwrap();
        let cfd4 = parse_cfd(&s, "cfd4", "([CC=44, AC=131] -> [city=EDI])").unwrap();
        let report = detect_set(&rel, &[cfd1, cfd4]);
        assert_eq!(report.per_cfd.len(), 2);
        let with_multiplicity: usize = report.per_cfd.iter().map(|(_, v)| v.len()).sum();
        assert!(with_multiplicity >= report.all_tids().len());
        let mut r2 = ViolationReport::default();
        for (n, v) in report.per_cfd.clone() {
            r2.absorb(&n, v.clone());
            r2.absorb(&n, v); // merging the same set is a no-op on ids
        }
        assert_eq!(r2.all_tids(), report.all_tids());
    }
}

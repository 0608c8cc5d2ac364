//! The one group-validation kernel every detector runs.
//!
//! All of the paper's detectors — CTRDETECT's coordinator validation,
//! PATDETECT's per-pattern blocks, SEQDETECT/CLUSTDETECT's gathered
//! σ-blocks, the centralized "SQL technique", and the incremental
//! violation index — reduce to one primitive: *group tuples by their LHS
//! key, then validate each group against the tableau patterns its key
//! matches*. This module is that primitive, written once over one
//! representation: a group key is a packed [`CodeKey`] of dictionary
//! codes, a right-hand side is a `u32` code, a pattern is a
//! [`CompiledPattern`]. What a call site still supplies is only what
//! genuinely differs between them:
//!
//! * the **member accessor** — how a group member yields its tuple id
//!   and RHS code (a row of code columns, or a gathered wire row held by
//!   index or by reference),
//! * the **decoder** — how a violating group key becomes the `Vioπ`
//!   value projection,
//! * the **violation sink** — where flagged members land (a
//!   [`ViolationSet`] through [`detect_grouped`], or the incremental
//!   index's stateful key entries through [`validate_group`]).
//!
//! Which patterns match a key is answered by [`LhsIndex`], the
//! σ-style bucketing by LHS wildcard mask (one hash probe per distinct
//! mask instead of a linear tableau scan); `dcd_core`'s σ-partition
//! index is a thin wrapper over the same structure, so the bucketing is
//! built once per (fragment, CFD) and shared rather than re-derived per
//! call site.
//!
//! The validation semantics live in [`validate_group`] and nowhere else
//! in the engine (enforced by the `duplicate-detect-loop` lint rule):
//! variable patterns flag the whole group iff it holds ≥ 2 distinct RHS
//! values; constant patterns flag individual mismatching members
//! (`t[A] ≭ c`), plus — under the strict §II-C reading — the whole
//! group on an FD conflict. They are pinned not against a second
//! instantiation of this module but against [`oracle`](crate::oracle),
//! an independent pairwise transcription of the paper's definition. The
//! queued `dcd_measure` crate hooks here: a graded inconsistency measure
//! is one more sink over the same verdicts.

use crate::pattern::CompiledPattern;
use crate::violation::ViolationSet;
use dcd_obs::{Counter, MetricsRegistry};
use dcd_relation::ops::CodeKey;
use dcd_relation::{FxHashMap, FxHashSet, TupleId, Value, WILDCARD_CODE};

/// Instrument handles for the kernel: how many groups were validated,
/// the [`GroupVerdict`] mix, and how many [`LhsIndex`] probes ran.
/// `Default` yields functional *detached* counters (no registry), so
/// paths without an observer pay one relaxed add per group and nothing
/// more; [`KernelCounters::register`] binds the same handles into a
/// run's registry. Counts accumulate at coordinators over gathered
/// rows — work whose extent is independent of pool width and chunk
/// size — and counter merges commute exactly, so registered counts are
/// pinned bit-identical across `DCD_THREADS`/`DCD_CHUNK_ROWS`.
#[derive(Debug, Clone, Default)]
pub struct KernelCounters {
    /// Groups validated (key matched ≥ 1 pattern).
    pub groups: Counter,
    /// Groups whose verdict was [`GroupVerdict::Clean`].
    pub clean: Counter,
    /// Groups whose verdict was [`GroupVerdict::AllFlagged`].
    pub all_flagged: Counter,
    /// Groups whose verdict was [`GroupVerdict::Mixed`].
    pub mixed: Counter,
    /// [`LhsIndex`] probes (one per distinct group key).
    pub probes: Counter,
}

impl KernelCounters {
    /// Counters registered under the kernel metric families
    /// (`dcd_kernel_groups_total{verdict}`, `dcd_kernel_probes_total`).
    pub fn register(registry: &MetricsRegistry) -> Self {
        let groups = "dcd_kernel_groups_total";
        let help = "LHS groups validated by the detection kernel, by verdict";
        KernelCounters {
            groups: registry.counter(groups, help, &[("verdict", "any")]),
            clean: registry.counter(groups, help, &[("verdict", "clean")]),
            all_flagged: registry.counter(groups, help, &[("verdict", "all_flagged")]),
            mixed: registry.counter(groups, help, &[("verdict", "mixed")]),
            probes: registry.counter(
                "dcd_kernel_probes_total",
                "LhsIndex probes (one per distinct group key)",
                &[],
            ),
        }
    }

    /// Folds one batch of local tallies into the handles (one relaxed
    /// add per counter, however many groups the batch validated).
    pub fn absorb(&self, tally: &KernelTally) {
        self.probes.inc(tally.probes);
        self.groups.inc(tally.clean + tally.all_flagged + tally.mixed);
        self.clean.inc(tally.clean);
        self.all_flagged.inc(tally.all_flagged);
        self.mixed.inc(tally.mixed);
    }
}

/// Plain-integer kernel tallies accumulated inside one
/// [`detect_grouped`] call and folded into [`KernelCounters`] once at
/// the end — the hot loop never touches an atomic.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTally {
    /// Index probes performed.
    pub probes: u64,
    /// Groups concluding [`GroupVerdict::Clean`].
    pub clean: u64,
    /// Groups concluding [`GroupVerdict::AllFlagged`].
    pub all_flagged: u64,
    /// Groups concluding [`GroupVerdict::Mixed`].
    pub mixed: u64,
}

impl KernelTally {
    /// Records one verdict.
    pub fn record(&mut self, verdict: &GroupVerdict) {
        match verdict {
            GroupVerdict::Clean => self.clean += 1,
            GroupVerdict::AllFlagged => self.all_flagged += 1,
            GroupVerdict::Mixed(_) => self.mixed += 1,
        }
    }
}

/// The right-hand side of one tableau pattern, as seen by the kernel:
/// either the wildcard (variable CFD) or a constant's dictionary code
/// ([`CompiledPattern::rhs_spec`] is the one place that maps to it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsSpec {
    /// `tp[A] = _`: the group violates iff it holds ≥ 2 distinct RHS
    /// values.
    Wild,
    /// `tp[A] = c`: each member with `t[A] ≭ c` violates individually.
    Const(u32),
}

/// What [`validate_group`] concluded about one LHS group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupVerdict {
    /// No matching pattern flagged anything.
    Clean,
    /// Every member violates: a variable pattern saw an FD conflict (or
    /// a constant pattern did, under the strict reading).
    AllFlagged,
    /// Exactly the members with `true` flags violate a constant
    /// pattern. At least one flag is set.
    Mixed(Vec<bool>),
}

impl GroupVerdict {
    /// Whether member `fi` is flagged under this verdict.
    pub fn member_flagged(&self, fi: usize) -> bool {
        match self {
            GroupVerdict::Clean => false,
            GroupVerdict::AllFlagged => true,
            GroupVerdict::Mixed(flags) => flags[fi],
        }
    }

    /// Whether any member is flagged (i.e. the group key belongs in
    /// `Vioπ`).
    pub fn any_flagged(&self) -> bool {
        !matches!(self, GroupVerdict::Clean)
    }
}

/// Validates one LHS group against the RHS specs of the patterns its
/// key matches, in tableau order. This is the whole detection
/// semantics; every detector's per-group step is this function.
///
/// `specs` yields the matching patterns' RHS cells in tableau order;
/// `rhs_of(fi)` reads member `fi`'s RHS code. The FD-conflict test
/// (≥ 2 distinct RHS values) is computed lazily at the first matching
/// pattern and shared across them; the scan stops as soon as the whole
/// group is flagged, because further patterns cannot add members.
pub fn validate_group(
    specs: impl IntoIterator<Item = RhsSpec>,
    n_members: usize,
    mut rhs_of: impl FnMut(usize) -> u32,
    strict: bool,
) -> GroupVerdict {
    let mut group_flagged = false;
    let mut member_flags: Option<Vec<bool>> = None;
    // Distinct-RHS count computed lazily at the first matching pattern.
    let mut fd_conflict: Option<bool> = None;
    for spec in specs {
        let conflict = *fd_conflict.get_or_insert_with(|| {
            let distinct: FxHashSet<u32> = (0..n_members).map(&mut rhs_of).collect();
            distinct.len() > 1
        });
        match spec {
            // Variable pattern: all members violate iff ≥2 distinct RHS
            // values in the group (the dictionary is a bijection, so
            // code equality *is* value equality).
            RhsSpec::Wild => group_flagged |= conflict,
            RhsSpec::Const(c) => {
                if strict && conflict {
                    group_flagged = true;
                }
                // Single-tuple rule: t[A] ≭ c (a NO_CODE RHS constant
                // differs from every member by construction).
                let flags = member_flags.get_or_insert_with(|| vec![false; n_members]);
                for (fi, flag) in flags.iter_mut().enumerate() {
                    if rhs_of(fi) != c {
                        *flag = true;
                    }
                }
            }
        }
        if group_flagged {
            break; // every member is flagged; further patterns add nothing
        }
    }
    if group_flagged {
        GroupVerdict::AllFlagged
    } else {
        match member_flags {
            Some(flags) if flags.contains(&true) => GroupVerdict::Mixed(flags),
            _ => GroupVerdict::Clean,
        }
    }
}

/// The full kernel: validates every group of an LHS-keyed grouping and
/// collects the violations. Groups whose key matches no pattern
/// contribute nothing, so callers group *all* rows and let the
/// [`LhsIndex`] probe — once per distinct key, not once per row —
/// decide relevance.
///
/// `index` is the bucketing of `patterns`, probed per key. `None` means
/// the caller already kept only rows matching `patterns` (a Lemma 6
/// block holds the tuples of one pattern), so every key is validated
/// against all of them. `member` reads one group member's tuple id and
/// RHS code; `decode` projects a violating key's codes for `Vioπ`.
pub fn detect_grouped<'g, I: 'g>(
    groups: impl IntoIterator<Item = (&'g CodeKey, &'g Vec<I>)>,
    index: Option<&LhsIndex>,
    patterns: &[CompiledPattern],
    member: impl Fn(&I) -> (TupleId, u32),
    mut decode: impl FnMut(&[u32]) -> Vec<Value>,
    strict: bool,
    counters: &KernelCounters,
) -> ViolationSet {
    let width = patterns.first().map_or(0, |p| p.lhs.len());
    let mut out = ViolationSet::default();
    let mut ranks: Vec<u32> = (0..patterns.len() as u32).collect();
    let mut probe_buf: Vec<u32> = Vec::new();
    let mut tally = KernelTally::default();
    for (key, members) in groups {
        if let Some(index) = index {
            index.matched_into(&key.codes(width), &mut probe_buf, &mut ranks);
        }
        tally.probes += 1;
        if ranks.is_empty() {
            continue;
        }
        let verdict = validate_group(
            ranks.iter().map(|&r| patterns[r as usize].rhs_spec()),
            members.len(),
            |fi| member(&members[fi]).1,
            strict,
        );
        tally.record(&verdict);
        // The sink: flagged members' tids join `Vio`; the group key joins
        // `Vioπ`, decoded only now — decoding is the expensive step.
        match &verdict {
            GroupVerdict::Clean => continue,
            GroupVerdict::AllFlagged => out.tids.extend(members.iter().map(|m| member(m).0)),
            GroupVerdict::Mixed(flags) => out.tids.extend(
                members.iter().zip(flags).filter(|(_, &flagged)| flagged).map(|(m, _)| member(m).0),
            ),
        }
        out.patterns.insert(decode(&key.codes(width)));
    }
    counters.absorb(&tally);
    out
}

/// One wildcard mask: the non-wild LHS positions, and the rank lists
/// keyed by the constant codes at those positions.
type MaskBucket = (Vec<usize>, FxHashMap<CodeKey, Vec<u32>>);

/// σ-style LHS bucketing of a compiled tableau: patterns grouped by
/// their wildcard mask (the set of non-wild LHS positions), each bucket
/// a hash map from the constant codes at those positions to the tableau
/// ranks carrying them, ascending. Answering "which patterns match this
/// key, in tableau order" is then one probe per distinct mask —
/// `O(masks)` instead of `O(|Tp|)` — and "which pattern matches
/// *first*" (the σ function of Lemma 6) reads the same buckets.
///
/// Infeasible compiled patterns sit in the maps harmlessly — their
/// `NO_CODE` cells can never equal a probe key built from real codes.
#[derive(Debug, Clone, Default)]
pub struct LhsIndex {
    buckets: Vec<MaskBucket>,
    /// Total ranks indexed (the tableau scan length the ranks replace).
    n_ranks: usize,
}

impl LhsIndex {
    /// Buckets a compiled tableau, ranks `0..compiled.len()` in tableau
    /// order.
    pub fn of_compiled(compiled: &[CompiledPattern]) -> Self {
        let all: Vec<usize> = (0..compiled.len()).collect();
        Self::of_applicable(compiled, &all)
    }

    /// Buckets a subset of a compiled tableau: rank `k` is pattern
    /// `applicable[k]` (the σ-partition restricts to the patterns a
    /// fragment's predicate admits; `applicable` must be ascending).
    /// Ranks within a bucket entry stay ascending because insertion
    /// follows rank order.
    pub fn of_applicable(compiled: &[CompiledPattern], applicable: &[usize]) -> Self {
        let mut index = LhsIndex::default();
        for (rank, &pi) in applicable.iter().enumerate() {
            let pat = &compiled[pi];
            let positions: Vec<usize> =
                (0..pat.lhs.len()).filter(|&j| pat.lhs[j] != WILDCARD_CODE).collect();
            let consts: Vec<u32> = positions.iter().map(|&j| pat.lhs[j]).collect();
            let bucket = match index.buckets.iter_mut().find(|(p, _)| *p == positions) {
                Some((_, map)) => map,
                None => {
                    index.buckets.push((positions, FxHashMap::default()));
                    &mut index.buckets.last_mut().expect("just pushed").1
                }
            };
            bucket.entry(CodeKey::of_codes(&consts)).or_default().push(rank as u32);
        }
        index.n_ranks = applicable.len();
        index
    }

    /// The LHS positions some indexed pattern pins to a constant — the
    /// union of the bucket masks, ascending. These are the only key
    /// cells a probe reads, so which patterns match a key (and which
    /// matches first) is a function of the key's projection on them.
    pub fn pinned_positions(&self) -> Vec<usize> {
        let mut pinned: Vec<usize> = self.buckets.iter().flat_map(|(p, _)| p).copied().collect();
        pinned.sort_unstable();
        pinned.dedup();
        pinned
    }

    /// The rank lists `key` (one code per LHS attribute) hits, one probe
    /// per mask; `buf` is projection scratch reused across calls.
    fn probe<'a>(
        &'a self,
        key: &'a [u32],
        buf: &'a mut Vec<u32>,
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.buckets.iter().filter_map(move |(positions, map)| {
            buf.clear();
            buf.extend(positions.iter().map(|&j| key[j]));
            map.get(&CodeKey::of_codes(buf)).map(Vec::as_slice)
        })
    }

    /// Fills `out` with every rank whose pattern matches `key`,
    /// ascending (tableau order).
    pub fn matched_into(&self, key: &[u32], buf: &mut Vec<u32>, out: &mut Vec<u32>) {
        out.clear();
        for ranks in self.probe(key, buf) {
            out.extend_from_slice(ranks);
        }
        out.sort_unstable();
    }

    /// The first rank whose pattern matches `key`, plus the number of
    /// patterns a linear tableau scan would have tried to find it
    /// (`rank + 1`, or the full scan length on a miss) — exactly the σ
    /// assignment and comparison count of Lemma 6.
    pub fn first_matched(&self, key: &[u32], buf: &mut Vec<u32>) -> (Option<usize>, usize) {
        // Rank lists are ascending: `ranks[0]` is the earliest per mask.
        match self.probe(key, buf).map(|ranks| ranks[0]).min() {
            Some(rank) => (Some(rank as usize), rank as usize + 1),
            None => (None, self.n_ranks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_pattern_flags_whole_group_on_conflict() {
        let rhs = [1u32, 2, 1];
        let v = validate_group([RhsSpec::Wild], 3, |i| rhs[i], false);
        assert_eq!(v, GroupVerdict::AllFlagged);
        let uniform = [5u32, 5];
        let v = validate_group([RhsSpec::Wild], 2, |i| uniform[i], false);
        assert_eq!(v, GroupVerdict::Clean);
    }

    #[test]
    fn constant_pattern_flags_mismatching_members_only() {
        let rhs = [7u32, 9, 7];
        let v = validate_group([RhsSpec::Const(7)], 3, |i| rhs[i], false);
        assert_eq!(v, GroupVerdict::Mixed(vec![false, true, false]));
        let v = validate_group([RhsSpec::Const(9)], 3, |i| rhs[i], false);
        assert_eq!(v, GroupVerdict::Mixed(vec![true, false, true]));
    }

    #[test]
    fn strict_reading_promotes_constant_conflicts() {
        let rhs = [7u32, 9];
        let v = validate_group([RhsSpec::Const(7)], 2, |i| rhs[i], true);
        assert_eq!(v, GroupVerdict::AllFlagged);
        // No conflict: strict changes nothing.
        let uniform = [9u32, 9];
        let v = validate_group([RhsSpec::Const(7)], 2, |i| uniform[i], true);
        assert_eq!(v, GroupVerdict::Mixed(vec![true, true]));
    }

    #[test]
    fn later_patterns_stop_adding_after_group_flag() {
        // Wild flags the group; the impossible Const(0) after it must
        // not run (it would otherwise flag nothing new anyway, but the
        // early break is part of the pinned scan semantics).
        let rhs = [1u32, 2];
        let v = validate_group([RhsSpec::Wild, RhsSpec::Const(0)], 2, |i| rhs[i], false);
        assert_eq!(v, GroupVerdict::AllFlagged);
    }

    #[test]
    fn kernel_counters_tally_probes_and_verdict_mix() {
        let reg = MetricsRegistry::new();
        let counters = KernelCounters::register(&reg);
        // Four groups: one conflicted (AllFlagged), one clean, one
        // constant-mismatch (Mixed), one matching no pattern (probed,
        // not validated).
        let w = WILDCARD_CODE;
        let patterns = [
            CompiledPattern { lhs: vec![0], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![1], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![2], rhs: 7, feasible: true },
        ];
        let index = LhsIndex::of_compiled(&patterns);
        let groups: Vec<(CodeKey, Vec<u32>)> = [vec![1, 2], vec![5, 5], vec![7, 9], vec![1, 2]]
            .into_iter()
            .enumerate()
            .map(|(k, rhs)| (CodeKey::of_codes(&[k as u32]), rhs))
            .collect();
        let out = detect_grouped(
            groups.iter().map(|(k, m)| (k, m)),
            Some(&index),
            &patterns,
            |&rhs| (TupleId(u64::from(rhs)), rhs),
            |codes| vec![Value::Int(i64::from(codes[0]))],
            false,
            &counters,
        );
        assert_eq!(out.tids, [1, 2, 9].into_iter().map(TupleId).collect());
        assert_eq!(out.patterns, [0, 2].into_iter().map(|k| vec![Value::Int(k)]).collect());
        assert_eq!(counters.probes.get(), 4);
        assert_eq!(counters.groups.get(), 3);
        assert_eq!(counters.all_flagged.get(), 1);
        assert_eq!(counters.clean.get(), 1);
        assert_eq!(counters.mixed.get(), 1);
        assert_eq!(reg.counter_total("dcd_kernel_probes_total"), 4);
    }

    #[test]
    fn lhs_index_matches_in_tableau_order() {
        let w = WILDCARD_CODE;
        let pats = vec![
            CompiledPattern { lhs: vec![4, w], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![w, 2], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![w, w], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![4, 2], rhs: w, feasible: true },
        ];
        let index = LhsIndex::of_compiled(&pats);
        let mut buf = Vec::new();
        let mut out = Vec::new();
        index.matched_into(&[4, 2], &mut buf, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3]);
        index.matched_into(&[4, 9], &mut buf, &mut out);
        assert_eq!(out, vec![0, 2]);
        index.matched_into(&[9, 9], &mut buf, &mut out);
        assert_eq!(out, vec![2]);
        assert_eq!(index.first_matched(&[9, 2], &mut buf), (Some(1), 2));
        assert_eq!(index.first_matched(&[9, 9], &mut buf), (Some(2), 3));
        assert_eq!(LhsIndex::of_compiled(&pats[..2]).first_matched(&[9, 9], &mut buf), (None, 2));
        assert_eq!(index.pinned_positions(), vec![0, 1]);
        assert_eq!(LhsIndex::of_compiled(&pats[1..3]).pinned_positions(), vec![1]);
        assert!(LhsIndex::of_compiled(&pats[2..3]).pinned_positions().is_empty());
    }
}

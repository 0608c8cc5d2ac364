//! The one group-validation kernel every detector runs.
//!
//! All of the paper's detectors — CTRDETECT's coordinator validation,
//! PATDETECT's per-pattern blocks, SEQDETECT/CLUSTDETECT's σ-blocks
//! read in place, the centralized "SQL technique", and the incremental
//! violation index — reduce to one primitive: *group tuples by their LHS
//! key, then validate each group against the tableau patterns its key
//! matches*. This module is that primitive, written once over one
//! representation: a group key is its dictionary codes, a right-hand
//! side is a `u32` code, a pattern is a [`CompiledPattern`].
//!
//! The kernel keeps **group summaries, not member lists**. It walks the
//! caller's rows twice, in the same order:
//!
//! 1. *Scan.* One lookup per row turns its key into a dense group id,
//!    handed out in first-seen order; the group's summary — the first
//!    RHS code seen and whether a later one differed — is updated and
//!    the id is remembered for the row. That is all a verdict needs: the
//!    semantics below ask of a group only "≥ 2 distinct RHS values?"
//!    and, for a constant pattern, "which members differ from `c`?".
//! 2. *Judge.* Per group, in first-seen order (so nothing downstream
//!    ever sees hash-iteration order): one [`LhsIndex`] probe for the
//!    patterns its key matches, one `judge` call on the summary, one
//!    tally, and — only for a violating key — one decode into `Vioπ`.
//! 3. *Emit.* The rows again: a row is flagged if its group is, or if
//!    its own RHS differs from the one constant its group is held to.
//!
//! There are two loops, one per shape of rows. `detect_columns` reads
//! column-major rows straight from code slices where they lie — a
//! relation's columns whole, or a list of segments each with its row
//! selection: a coordinator's σ-blocks in (pattern, fragment) order, or
//! the rows a vertical gather kept — and keeps its ids in one
//! [`CodeMemo`] for all of them: a flat slot table indexed by the key's
//! mixed-radix code when the LHS dictionaries' code space is no larger
//! than the rows, else a hash map of packed [`CodeKey`]s, chosen once
//! per call. [`CodeMemo::resolve`] computes a chunk of rows' slot ids a
//! column at a time, and a counter hands out the ids. `detect_grouped`
//! takes rows from an iterator cheap to clone — gathered boxed wire rows
//! — with how a row yields its **key** and its **tuple id and RHS
//! code**, and hashes every key; it reads a block of RHS codes ahead of
//! their probes, so rows held behind a pointer each miss the cache in
//! parallel. Either is handed the
//! **decoder** from a violating key's codes to the `Vioπ` value
//! projection. The incremental index, whose groups outlive a call,
//! keeps its own member lists and RHS-code counts and asks [`judge`]
//! once per key a delta touched.
//!
//! Which patterns match a key is answered by [`LhsIndex`], the
//! σ-style bucketing by LHS wildcard mask (one hash probe per distinct
//! mask instead of a linear tableau scan); `dcd_core`'s σ-partition
//! index is a thin wrapper over the same structure, so the bucketing is
//! built once per (fragment, CFD) and shared rather than re-derived per
//! call site.
//!
//! The validation semantics live in [`judge`] and [`Judgement::flags`]
//! and nowhere else in the engine (a second spelling that disagreed
//! would fail `prop_oracle`): variable patterns flag the whole group iff
//! it holds ≥ 2 distinct RHS values; constant patterns flag individual
//! mismatching members (`t[A] ≭ c`), plus — under the strict §II-C
//! reading — the whole group on an FD conflict. Both scan loops and the
//! incremental index are that pair plus a way of learning the conflict
//! bit. They are pinned not
//! against a second instantiation of this module but against
//! [`oracle`](crate::oracle), an independent pairwise transcription of
//! the paper's definition. The queued `dcd_measure` crate hooks here: a
//! graded inconsistency measure is one more sink over the same verdicts.

use crate::pattern::CompiledPattern;
use dcd_obs::MetricsRegistry;
use dcd_relation::ops::{CodeKey, CodeMemo, RowSource};
use dcd_relation::{Codes, FxHashMap, TupleId, Value, WILDCARD_CODE};

/// What one kernel call counted: how many [`LhsIndex`] probes ran and
/// the [`Judgement`] mix of the groups validated. Plain integers, kept by
/// the call and returned beside its findings: a pool task hands its
/// tally back with its charge, and the run adds it to its registry
/// ([`Self::record`]) after the join. Counts accumulate at coordinators
/// over the rows they validate — work whose extent is independent of
/// pool width — and sums commute, so recorded counts are bit-identical
/// across pool widths.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelTally {
    /// [`LhsIndex`] probes (one per distinct group key).
    pub probes: u64,
    /// Groups judged [`Judgement::Clean`], or whose one constant every
    /// member equals.
    pub clean: u64,
    /// Groups judged [`Judgement::All`].
    pub all_flagged: u64,
    /// Groups with a flagged member but not judged [`Judgement::All`]:
    /// constant patterns flag members one at a time.
    pub mixed: u64,
}

impl KernelTally {
    /// Groups validated (key matched ≥ 1 pattern).
    pub fn groups(&self) -> u64 {
        self.clean + self.all_flagged + self.mixed
    }

    /// Adds the tally to the kernel metric families
    /// (`dcd_kernel_groups_total{verdict}`, `dcd_kernel_probes_total`),
    /// registering every series — at zero, for an empty tally.
    pub fn record(&self, registry: &mut MetricsRegistry) {
        let help = "LHS groups validated by the detection kernel, by verdict";
        for (verdict, n) in [
            ("any", self.groups()),
            ("clean", self.clean),
            ("all_flagged", self.all_flagged),
            ("mixed", self.mixed),
        ] {
            registry.add("dcd_kernel_groups_total", help, &[("verdict", verdict)], n);
        }
        let help = "LhsIndex probes (one per distinct group key)";
        registry.add("dcd_kernel_probes_total", help, &[], self.probes);
    }
}

impl std::ops::AddAssign for KernelTally {
    fn add_assign(&mut self, other: KernelTally) {
        self.probes += other.probes;
        self.clean += other.clean;
        self.all_flagged += other.all_flagged;
        self.mixed += other.mixed;
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

/// What the patterns matching a group's key conclude about it, knowing
/// of its members only whether they hold ≥ 2 distinct RHS values;
/// [`Judgement::flags`] then answers for each member on its own RHS code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    /// No pattern flags anything.
    Clean,
    /// Every member violates: the FD conflict convicts the whole group.
    All,
    /// The constant patterns agree on one constant: exactly the members
    /// whose RHS differs from it violate.
    Differing(u32),
    /// The constant patterns name ≥ 2 distinct constants: every member
    /// differs from one of them, so each violates on its own account.
    EachMismatches,
}

/// The whole detection semantics, over a group summary. `specs` yields
/// the RHS cells of the patterns the group's key matches; `conflict`
/// says whether the group holds ≥ 2 distinct RHS values. A variable
/// pattern convicts the whole group iff `conflict` (the dictionary is a
/// bijection, so code equality *is* value equality); so does a constant
/// one under the `strict` §II-C reading. Otherwise a constant pattern
/// flags the members with `t[A] ≭ c` one at a time (a `NO_CODE`
/// constant differs from every member by construction). The scan stops
/// at the first pattern that convicts the group — later ones cannot add
/// members. With no spec the group is [`Judgement::Clean`].
pub fn judge(specs: impl IntoIterator<Item = RhsSpec>, conflict: bool, strict: bool) -> Judgement {
    let mut consts = Judgement::Clean;
    for spec in specs {
        match spec {
            RhsSpec::Wild if conflict => return Judgement::All,
            RhsSpec::Wild => {}
            RhsSpec::Const(_) if strict && conflict => return Judgement::All,
            RhsSpec::Const(c) => {
                consts = match consts {
                    Judgement::Clean => Judgement::Differing(c),
                    Judgement::Differing(seen) if seen == c => consts,
                    _ => Judgement::EachMismatches,
                }
            }
        }
    }
    consts
}

impl Judgement {
    /// Whether a member with RHS code `rhs` is flagged.
    #[inline]
    pub fn flags(self, rhs: u32) -> bool {
        match self {
            Judgement::Clean => false,
            Judgement::All | Judgement::EachMismatches => true,
            Judgement::Differing(c) => rhs != c,
        }
    }
}

/// The tableau side of a `detect_grouped` run: the compiled patterns,
/// how to find the ones a key matches, and the reading.
#[derive(Debug, Clone, Copy)]
pub struct Tableau<'a> {
    /// The compiled patterns, in tableau order.
    pub patterns: &'a [CompiledPattern],
    /// The bucketing of `patterns`, probed once per distinct key. `None`
    /// means the caller already kept only rows matching `patterns` (a
    /// Lemma 6 block holds the tuples of one pattern), so every key is
    /// validated against all of them.
    pub index: Option<&'a LhsIndex>,
    /// The strict §II-C reading of constant patterns.
    pub strict: bool,
}

/// What a `detect_grouped` run found, as plain vectors: the violating
/// tuple ids in row order and the decoded violating keys in first-seen
/// order. Keys are distinct by construction; ids are as distinct as the
/// rows' were. Coordinators of one round see disjoint rows, so their
/// findings concatenate into a `ViolationSet` built once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flagged {
    /// `Vio`: ids of the flagged rows.
    pub tids: Vec<TupleId>,
    /// `Vioπ`: the `t[X]` projection of every group with a flagged row.
    pub patterns: Vec<Vec<Value>>,
}

/// What the scan keeps of one group besides its key.
struct Summary {
    first_rhs: u32,
    /// Some member's RHS code differed from `first_rhs`.
    conflict: bool,
}

/// The groups a scan has seen, by dense id in first-seen order: each
/// group's key codes (`width` cells per group, in one flat vector) and
/// its summary.
struct Groups {
    width: usize,
    keys: Vec<u32>,
    summaries: Vec<Summary>,
}

impl Groups {
    fn new(width: usize) -> Self {
        Groups { width, keys: Vec::new(), summaries: Vec::new() }
    }

    /// The id the next unseen key gets.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "internal invariant: a group per distinct key of the rows scanned, and 2³² \
                  rows would hold 16 GiB of `u32` group ids in `group_of` alone"
    )]
    fn next_id(&self) -> u32 {
        u32::try_from(self.summaries.len()).expect("fewer groups than u32::MAX")
    }

    /// Folds a row with RHS code `rhs` into group `gid`. A new group
    /// (`gid` is [`Self::next_id`]) takes the row's `key` cells; a seen
    /// one notes whether `rhs` differs from its first.
    #[inline]
    fn record(&mut self, gid: u32, rhs: u32, key: impl Iterator<Item = u32>) {
        match self.summaries.get_mut(gid as usize) {
            Some(group) => group.conflict |= rhs != group.first_rhs,
            None => {
                debug_assert_eq!(gid, self.next_id());
                self.keys.extend(key);
                self.summaries.push(Summary { first_rhs: rhs, conflict: false });
            }
        }
    }

    fn key(&self, gid: usize) -> &[u32] {
        &self.keys[gid * self.width..][..self.width]
    }
}

/// A row outside every group (its key was left out).
const NO_GROUP: u32 = u32::MAX;

/// Rows whose RHS codes the boxed-row scan reads ahead of probing them.
const SCAN_BLOCK: usize = 64;

/// Judge: one index probe and one verdict per group, in id order. The
/// violating keys are decoded into `out.patterns`; the verdicts come
/// back with their tally.
fn judge_groups(
    groups: &Groups,
    tableau: &Tableau<'_>,
    mut decode: impl FnMut(&[u32]) -> Vec<Value>,
    out: &mut Flagged,
) -> (Vec<Judgement>, KernelTally) {
    let patterns = tableau.patterns;
    let mut tally = KernelTally::default();
    let mut ranks: Vec<u32> = (0..patterns.len() as u32).collect();
    let mut probe_buf: Vec<u32> = Vec::new();
    let mut judged: Vec<Judgement> = Vec::with_capacity(groups.summaries.len());
    for (gid, group) in groups.summaries.iter().enumerate() {
        let key = groups.key(gid);
        if let Some(index) = tableau.index {
            index.matched_into(key, &mut probe_buf, &mut ranks);
        }
        tally.probes += 1;
        if ranks.is_empty() {
            judged.push(Judgement::Clean);
            continue;
        }
        let specs = ranks.iter().map(|&r| patterns[r as usize].rhs_spec());
        let judgement = match judge(specs, group.conflict, tableau.strict) {
            // A group without conflict is its first member, repeated: it
            // differs from the constant as a whole or not at all.
            Judgement::Differing(c) if !group.conflict && group.first_rhs == c => Judgement::Clean,
            Judgement::Differing(_) if !group.conflict => Judgement::EachMismatches,
            judgement => judgement,
        };
        match judgement {
            Judgement::Clean => tally.clean += 1,
            Judgement::All => tally.all_flagged += 1,
            // With a conflict, some member differs from any constant.
            Judgement::Differing(_) | Judgement::EachMismatches => tally.mixed += 1,
        }
        if judgement != Judgement::Clean {
            out.patterns.push(decode(key));
        }
        judged.push(judgement);
    }
    (judged, tally)
}

/// The full kernel over rows an iterator yields (gathered wire rows):
/// groups them by LHS key, validates every group against the patterns
/// its key matches and collects the violations — scan, judge, emit, as
/// the module docs lay out. Groups whose key matches no pattern
/// contribute nothing, so callers hand over *all* rows and let the
/// [`LhsIndex`] probe — once per distinct key, not once per row — decide
/// relevance.
///
/// `rows` is walked twice and must yield the same rows in the same order
/// both times. `key_of` writes a row's LHS codes into its buffer, or
/// returns `false` for a row to leave out (a pre-filter on one pattern);
/// `member` reads a row's tuple id and RHS code; `decode` projects a
/// violating key's codes for `Vioπ` — decoding is the expensive step,
/// done only then. Keys are grouped by hashing their packed [`CodeKey`].
/// What the call counted comes back beside what it found.
pub(crate) fn detect_grouped<R>(
    rows: impl Iterator<Item = R> + Clone,
    mut key_of: impl FnMut(&R, &mut [u32]) -> bool,
    member: impl Fn(&R) -> (TupleId, u32),
    tableau: &Tableau<'_>,
    decode: impl FnMut(&[u32]) -> Vec<Value>,
) -> (Flagged, KernelTally) {
    let width = tableau.patterns.first().map_or(0, |p| p.lhs.len());
    let mut ids: FxHashMap<CodeKey, u32> = FxHashMap::default();
    let mut groups = Groups::new(width);
    let mut key = vec![0u32; width];
    let mut group_of: Vec<u32> = Vec::with_capacity(rows.size_hint().0);
    let mut walk = rows.clone();
    let mut rhs_ahead = [0u32; SCAN_BLOCK];
    loop {
        // A block's RHS codes are read before any of its rows is probed.
        // The reads do not depend on one another — the probes chain
        // through the map — so for rows held behind a pointer each
        // (boxed wire rows) the cache misses overlap instead of queueing
        // one behind every probe; the key's cells sit next to the RHS.
        let block = walk.clone().take(SCAN_BLOCK);
        let n = block.zip(&mut rhs_ahead).map(|(row, rhs)| *rhs = member(&row).1).count();
        if n == 0 {
            break;
        }
        for (row, &rhs) in walk.by_ref().take(n).zip(&rhs_ahead) {
            if !key_of(&row, &mut key) {
                group_of.push(NO_GROUP);
                continue;
            }
            let gid = *ids.entry(CodeKey::of_codes(&key)).or_insert(groups.next_id());
            groups.record(gid, rhs, key.iter().copied());
            group_of.push(gid);
        }
    }
    drop(ids);

    let mut out = Flagged::default();
    let (judged, tally) = judge_groups(&groups, tableau, decode, &mut out);
    if !out.patterns.is_empty() {
        for (row, &gid) in rows.zip(&group_of) {
            if gid != NO_GROUP && judged[gid as usize].flags(member(&row).1) {
                out.tids.push(member(&row).0);
            }
        }
    }
    (out, tally)
}

/// One segment of rows held column-major, read where they lie: dense
/// code views for the LHS attributes and the RHS attribute, each at its
/// column's width, and the tuple ids, all of one length — a relation's
/// columns, or the columns a vertical gather plans — plus which of their
/// rows to read: a `Range` (every row, for a whole relation) or a
/// selection (`&[usize]`, a σ-block's rows).
#[derive(Debug, Clone)]
pub struct ColumnRows<'a, R> {
    /// One view per LHS attribute, in LHS order.
    pub lhs: Vec<Codes<'a>>,
    /// The RHS codes.
    pub rhs: Codes<'a>,
    /// The tuple ids.
    pub tids: &'a [TupleId],
    /// The rows to read, in order.
    pub rows: R,
}

/// The full kernel over column-major segments: the same scan, judge and
/// emit as `detect_grouped`, with every key read straight from the LHS
/// slices, segment after segment as if they were one batch. Group ids
/// live in one [`CodeMemo`] for every segment, over the LHS
/// dictionaries' sizes `key_sizes`, read at this call, and the rows read
/// in all: a slot table when the code space fits them, else a hash map.
/// Its [`CodeMemo::resolve_beside`] asks for an id at each key's first
/// row, and a counter hands them out in first-seen order, so groups,
/// verdicts, tallies and output order do not depend on which table it
/// is, nor on where one segment ends and the next begins. The RHS is
/// read beside the key, a chunk of rows and a column at a time; a key's
/// cells are read one by one only for a group's first row.
pub(crate) fn detect_columns<R: RowSource>(
    segments: &[ColumnRows<'_, R>],
    key_sizes: impl IntoIterator<Item = usize>,
    tableau: &Tableau<'_>,
    decode: impl FnMut(&[u32]) -> Vec<Value>,
) -> (Flagged, KernelTally) {
    let n = segments.iter().map(|seg| seg.rows.rows().len()).sum();
    let mut ids = CodeMemo::new(key_sizes, n);
    let width = tableau.patterns.first().map_or(0, |p| p.lhs.len());
    let mut groups = Groups::new(width);
    let mut group_of: Vec<u32> = Vec::with_capacity(n);
    let mut fresh = 0u32;
    #[expect(
        clippy::expect_used,
        reason = "internal invariant: a group per distinct key of the rows scanned, and 2³² \
                  rows would hold 16 GiB of `u32` group ids in `group_of` alone"
    )]
    let mut first_seen = |_| {
        let gid = fresh;
        fresh = fresh.checked_add(1).expect("fewer groups than u32::MAX");
        gid
    };
    for seg in segments {
        ids.resolve_beside(&seg.lhs, seg.rhs, seg.rows.clone(), &mut first_seen, |r, gid, rhs| {
            groups.record(gid, rhs, seg.lhs.iter().map(|col| col.get(r)));
            group_of.push(gid);
        });
    }
    drop(ids);

    let mut out = Flagged::default();
    let (judged, tally) = judge_groups(&groups, tableau, decode, &mut out);
    if !out.patterns.is_empty() {
        let mut gids = &group_of[..];
        for seg in segments {
            let (here, rest) = gids.split_at(seg.rows.rows().len());
            seg.rows.zip_codes(seg.rhs, 0.., |k, rhs| {
                if judged[here[k] as usize].flags(rhs) {
                    out.tids.push(seg.tids[seg.rows.at(k)]);
                }
            });
            gids = rest;
        }
    }
    (out, tally)
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
            let at = match index.buckets.iter().position(|(p, _)| *p == positions) {
                Some(at) => at,
                None => {
                    index.buckets.push((positions, FxHashMap::default()));
                    index.buckets.len() - 1
                }
            };
            index.buckets[at].1.entry(CodeKey::of_codes(&consts)).or_default().push(rank as u32);
        }
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

    /// The first rank whose pattern matches `key` — the σ assignment of
    /// Lemma 6. A linear tableau scan would have tried `rank + 1`
    /// patterns to find it, or all of them on a miss.
    pub fn first_matched(&self, key: &[u32], buf: &mut Vec<u32>) -> Option<usize> {
        // Rank lists are ascending: `ranks[0]` is the earliest per mask.
        self.probe(key, buf).map(|ranks| ranks[0] as usize).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `judge` plus `flags` over a materialized group: the conflict bit
    /// read off the members, then each member's flag.
    fn member_flags(specs: &[RhsSpec], rhs: &[u32], strict: bool) -> (Judgement, Vec<bool>) {
        let conflict = rhs.iter().any(|&r| r != rhs[0]);
        let judgement = judge(specs.iter().copied(), conflict, strict);
        (judgement, rhs.iter().map(|&r| judgement.flags(r)).collect())
    }

    #[test]
    fn variable_pattern_flags_whole_group_on_conflict() {
        let wild = [RhsSpec::Wild];
        assert_eq!(member_flags(&wild, &[1, 2, 1], false), (Judgement::All, vec![true; 3]));
        assert_eq!(member_flags(&wild, &[5, 5], false), (Judgement::Clean, vec![false; 2]));
    }

    #[test]
    fn constant_pattern_flags_mismatching_members_only() {
        let rhs = [7u32, 9, 7];
        assert_eq!(member_flags(&[RhsSpec::Const(7)], &rhs, false).1, [false, true, false]);
        assert_eq!(member_flags(&[RhsSpec::Const(9)], &rhs, false).1, [true, false, true]);
    }

    #[test]
    fn strict_reading_promotes_constant_conflicts() {
        let seven = [RhsSpec::Const(7)];
        assert_eq!(member_flags(&seven, &[7, 9], true), (Judgement::All, vec![true; 2]));
        // No conflict: strict changes nothing.
        assert_eq!(member_flags(&seven, &[9, 9], true), (Judgement::Differing(7), vec![true; 2]));
    }

    #[test]
    fn later_patterns_stop_adding_after_group_flag() {
        // Wild flags the group; the impossible Const(0) after it must
        // not run (it would otherwise flag nothing new anyway, but the
        // early break is part of the pinned scan semantics).
        assert_eq!(judge([RhsSpec::Wild, RhsSpec::Const(0)], true, false), Judgement::All);
    }

    #[test]
    fn a_group_without_specs_is_clean() {
        assert_eq!(judge([], true, true), Judgement::Clean);
        assert!(!Judgement::Clean.flags(0));
    }

    #[test]
    fn two_distinct_constants_flag_every_member_individually() {
        // No member can equal both constants — and without a variable
        // pattern (or the strict reading) that is a mixed verdict, not a
        // group conviction, conflict or not.
        let two = [RhsSpec::Const(7), RhsSpec::Const(8)];
        assert_eq!(member_flags(&two, &[7, 7], false), (Judgement::EachMismatches, vec![true; 2]));
        let specs = [RhsSpec::Const(7), RhsSpec::Const(8), RhsSpec::Const(7)];
        let each = (Judgement::EachMismatches, vec![true; 2]);
        assert_eq!(member_flags(&specs, &[7, 8], false), each);
        assert_eq!(member_flags(&specs, &[7, 8], true), (Judgement::All, vec![true; 2]));
    }

    /// Runs the boxed-row loop over `(key code, tid = RHS code)` rows
    /// and, when no row is left out, the slice loop over the same rows —
    /// whole, and as two selections split mid-way — once per group-id
    /// table: slots over the keys' span, then a code space too large for
    /// slots. All must find and tally the same.
    fn scan(
        rows: &[(u32, u32)],
        patterns: &[CompiledPattern],
        index: Option<&LhsIndex>,
        strict: bool,
    ) -> (Flagged, KernelTally) {
        let decode = |codes: &[u32]| vec![Value::Int(i64::from(codes[0]))];
        let tableau = Tableau { patterns, index, strict };
        let found = detect_grouped(
            rows.iter(),
            |&&(key, _), cells| {
                cells[0] = key;
                key != NO_GROUP
            },
            |&&(_, rhs)| (TupleId(u64::from(rhs)), rhs),
            &tableau,
            decode,
        );
        if rows.iter().all(|r| r.0 != NO_GROUP) {
            let (keys, rhs): (Vec<u32>, Vec<u32>) = rows.iter().copied().unzip();
            let tids: Vec<TupleId> = rhs.iter().map(|&c| TupleId(u64::from(c))).collect();
            let (lhs, rhs, tids) = (vec![Codes::U32(&keys[..])], Codes::U32(&rhs[..]), &tids[..]);
            let whole = [ColumnRows { lhs: lhs.clone(), rhs, tids, rows: 0..rows.len() }];
            // The same rows as two selections, split mid-way: one batch.
            let (head, tail): (Vec<usize>, Vec<usize>) =
                (0..rows.len()).partition(|&r| 2 * r < rows.len());
            let split = [&head[..], &tail[..]].map(|sel| ColumnRows {
                lhs: lhs.clone(),
                rhs,
                tids,
                rows: sel,
            });
            let span = keys.iter().map(|&k| k as usize + 1).max().unwrap_or(0);
            let slotted = matches!(CodeMemo::<u32>::new([span], rows.len()), CodeMemo::Slots(..));
            assert!(slotted, "the fixture must fit slots");
            for key_space in [span, usize::MAX] {
                let read = detect_columns(&whole, [key_space], &tableau, decode);
                assert_eq!(read, found, "slice loop over {key_space} keys");
                let read = detect_columns(&split, [key_space], &tableau, decode);
                assert_eq!(read, found, "slice loop over {key_space} keys, split");
            }
        }
        found
    }

    #[test]
    fn kernel_tallies_count_probes_and_verdict_mix() {
        // Four groups, interleaved: one conflicted (AllFlagged), one
        // clean, one constant-mismatch (Mixed), one matching no pattern
        // (probed, not validated).
        let w = WILDCARD_CODE;
        let patterns = [
            CompiledPattern { lhs: vec![0], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![1], rhs: w, feasible: true },
            CompiledPattern { lhs: vec![2], rhs: 7, feasible: true },
        ];
        let index = LhsIndex::of_compiled(&patterns);
        let rows = [(2, 7), (0, 1), (1, 5), (3, 3), (0, 2), (1, 5), (3, 4), (2, 9)];
        let (out, tally) = scan(&rows, &patterns, Some(&index), false);
        // Flagged ids in row order, violating keys in first-seen order.
        assert_eq!(out.tids, [1, 2, 9].map(TupleId));
        assert_eq!(out.patterns, [2, 0].map(|k| vec![Value::Int(k)]));
        assert_eq!(tally, KernelTally { probes: 4, clean: 1, all_flagged: 1, mixed: 1 });
        assert_eq!(tally.groups(), 3);
        let mut reg = MetricsRegistry::new();
        tally.record(&mut reg);
        tally.record(&mut reg);
        assert_eq!(reg.counter_total("dcd_kernel_probes_total"), 8);
        let any = reg.value("dcd_kernel_groups_total", "{verdict=\"any\"}");
        assert_eq!(any, Some(&dcd_obs::SampleValue::Counter(6)));
    }

    #[test]
    fn an_empty_tally_registers_every_series_at_zero() {
        let mut reg = MetricsRegistry::new();
        KernelTally::default().record(&mut reg);
        let exposed = reg.expose();
        let series: Vec<&str> = exposed.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(series.len(), 5, "{exposed}");
        assert!(series.iter().all(|l| l.ends_with(" 0")), "{exposed}");
    }

    #[test]
    fn scan_verdicts_equal_judge_on_the_materialized_groups() {
        // Every spec mix over groups with and without conflict, both
        // readings: the summary-driven scan must flag the members and
        // tally the verdict `judge` reaches on the member list.
        let w = WILDCARD_CODE;
        let tableaux: [&[u32]; 7] = [&[w], &[7], &[7, 7], &[7, 8], &[8, w], &[w, 7], &[9]];
        let groups: [&[u32]; 5] = [&[7], &[7, 7], &[8, 8], &[7, 8], &[8, 7, 9]];
        for rhs_cells in tableaux {
            let patterns: Vec<CompiledPattern> = rhs_cells
                .iter()
                .map(|&rhs| CompiledPattern { lhs: vec![w], rhs, feasible: true })
                .collect();
            for members in groups {
                for strict in [false, true] {
                    let specs: Vec<RhsSpec> = patterns.iter().map(|p| p.rhs_spec()).collect();
                    let (judgement, want) = member_flags(&specs, members, strict);
                    let rows: Vec<(u32, u32)> = members.iter().map(|&rhs| (0, rhs)).collect();
                    let (got, tally) = scan(&rows, &patterns, None, strict);
                    let label = format!("{rhs_cells:?} over {members:?}, strict={strict}");
                    let flagged: Vec<TupleId> = (0..members.len())
                        .filter(|&fi| want[fi])
                        .map(|fi| TupleId(u64::from(members[fi])))
                        .collect();
                    let any = want.contains(&true);
                    assert_eq!(got.tids, flagged, "{label}");
                    assert_eq!(got.patterns.len(), usize::from(any), "{label}");
                    let mix = (tally.clean == 1, tally.all_flagged == 1, tally.mixed == 1);
                    let all = judgement == Judgement::All;
                    let want_mix = (!any, all, any && !all);
                    assert_eq!(mix, want_mix, "{label}");
                    assert_eq!(tally.groups(), 1, "{label}");
                }
            }
        }
    }

    #[test]
    fn rows_without_a_key_stay_outside_every_group() {
        let patterns =
            [CompiledPattern { lhs: vec![WILDCARD_CODE], rhs: WILDCARD_CODE, feasible: true }];
        // The middle row is filtered out; without it the group is clean.
        let rows = [(0, 1), (NO_GROUP, 2), (0, 1)];
        let (found, tally) = scan(&rows, &patterns, None, false);
        assert_eq!(found, Flagged::default());
        assert_eq!((tally.probes, tally.clean), (1, 1));
    }

    #[test]
    fn a_conflict_in_the_last_partial_block_convicts_rows_of_every_block() {
        // 150 rows: two full read-ahead blocks and a partial one. Only the
        // very last row differs, so group 4's conflict is learnt in the
        // third block and must reach its rows in the first two; rows 64
        // and 128 — the first of a block — are filtered out.
        let rows: Vec<(u32, u64, u32)> =
            (0..150).map(|i| (i % 5, u64::from(i), u32::from(i == 149))).collect();
        let patterns =
            [CompiledPattern { lhs: vec![WILDCARD_CODE], rhs: WILDCARD_CODE, feasible: true }];
        let (found, tally) = detect_grouped(
            rows.iter(),
            |&&(key, tid, _), cells| {
                cells[0] = key;
                tid % 64 != 0 || tid == 0
            },
            |&&(_, tid, rhs)| (TupleId(tid), rhs),
            &Tableau { patterns: &patterns, index: None, strict: false },
            |codes| vec![Value::Int(i64::from(codes[0]))],
        );
        let want: Vec<TupleId> =
            (0..150).filter(|i| i % 5 == 4 && i % 64 != 0).map(TupleId).collect();
        assert_eq!(found.tids, want);
        assert_eq!(found.patterns, [vec![Value::Int(4)]]);
        assert_eq!((tally.probes, tally.clean), (5, 4));
    }

    #[test]
    fn columns_read_every_row_in_both_tables() {
        // Key 0 holds rows 0, 1, 4 (RHS 5 each: clean); key 1 holds rows
        // 2 and 3 (RHS 6, 7: a conflict).
        let tids: Vec<TupleId> = (0..5).map(TupleId).collect();
        let rows = [ColumnRows {
            lhs: vec![Codes::U8(&[0, 0, 1, 1, 0])],
            rhs: Codes::U8(&[5, 5, 6, 7, 5]),
            tids: &tids,
            rows: 0..5,
        }];
        let patterns =
            [CompiledPattern { lhs: vec![WILDCARD_CODE], rhs: WILDCARD_CODE, feasible: true }];
        // Two keys fit five rows in slots; a huge dictionary does not.
        for key_space in [2, usize::MAX] {
            let tableau = Tableau { patterns: &patterns, index: None, strict: false };
            let (found, tally) = detect_columns(&rows, [key_space], &tableau, |codes| {
                vec![Value::Int(i64::from(codes[0]))]
            });
            assert_eq!(found.tids, [2, 3].map(TupleId));
            assert_eq!(found.patterns, [vec![Value::Int(1)]]);
            assert_eq!(tally, KernelTally { probes: 2, clean: 1, all_flagged: 1, mixed: 0 });
        }
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
        assert_eq!(index.first_matched(&[9, 2], &mut buf), Some(1));
        assert_eq!(index.first_matched(&[9, 9], &mut buf), Some(2));
        assert_eq!(LhsIndex::of_compiled(&pats[..2]).first_matched(&[9, 9], &mut buf), None);
        assert_eq!(index.pinned_positions(), vec![0, 1]);
        assert_eq!(LhsIndex::of_compiled(&pats[1..3]).pinned_positions(), vec![1]);
        assert!(LhsIndex::of_compiled(&pats[2..3]).pinned_positions().is_empty());
    }
}

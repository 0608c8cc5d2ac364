//! The persistent violation index: per compiled CFD, a map from packed
//! LHS code key to the key's member multiset and its cached violation
//! contribution.
//!
//! The index reproduces `dcd_cfd::detect_simple`'s group semantics
//! exactly, but *statefully*: it is built once from the initial
//! fragments and then updated per delta batch, re-validating only the
//! keys a delta touched. The maintained [`ViolationSet`] is therefore
//! bit-identical (as a set of tuple ids and decoded patterns) to a
//! from-scratch `detect_simple` run on the materialized relation after
//! every batch — the invariant the workspace proptests pin.
//!
//! ## Why per-key maintenance is sound
//!
//! * Grouping keys on `t[X]` partition the tuples, so the per-key
//!   violation contributions are disjoint: retracting a key's old
//!   contribution and adding its new one never disturbs another key's.
//! * Key → pattern matching is stable over time. The tableau is
//!   recompiled at every batch (an insert can intern a constant that
//!   was [`NO_CODE`](dcd_relation::NO_CODE) before), but a freshly
//!   interned code appears in no pre-existing row, hence in no
//!   pre-existing key — only keys created in the same batch can match
//!   the newly feasible pattern, and those are compiled against the
//!   fresh tableau. Conversely, a compiled cell that matched a key
//!   keeps its code forever (dictionaries are append-only), so the
//!   per-key matched-pattern list computed at key creation never goes
//!   stale.
//! * A constant RHS cell that gains a code later changes nothing for
//!   untouched keys: their members' codes all predate (and therefore
//!   differ from) the fresh code, so "mismatch" stays true either way.

use dcd_cfd::pattern::CompiledPattern;
use dcd_cfd::{validate_group, GroupVerdict, LhsIndex, SimpleCfd, ViolationSet};
use dcd_relation::ops::CodeKey;
use dcd_relation::{Dictionary, FxHashMap, FxHashSet, TupleId, Value};
use std::sync::Arc;

/// Per-key state: the member multiset and the cached contribution to
/// the live violation set.
#[derive(Debug)]
struct KeyState {
    /// Tableau indices (in tableau order) of the patterns whose
    /// compiled LHS matches this key. Computed once at key creation;
    /// stable for the key's lifetime (see module docs).
    matched: Vec<usize>,
    /// `(tid, rhs code)` per member row, in arrival order.
    members: Vec<(TupleId, u32)>,
    /// Tuple ids currently contributed to the live `Vio` set.
    flagged: Vec<TupleId>,
    /// Whether the decoded key is currently in the live `Vioπ` set.
    in_patterns: bool,
}

/// The persistent violation index of one `(X → A, Tp)` CFD.
///
/// Holds shared dictionaries (so codes shipped from any fragment over
/// the same dictionaries are directly comparable), the compiled
/// tableau (refreshed per batch), the per-key states, a `tid → key`
/// map for delete routing, and the live [`ViolationSet`] maintained
/// incrementally.
#[derive(Debug)]
pub struct ViolationIndex {
    cfd: SimpleCfd,
    /// Schema positions of the LHS attributes (into full code rows).
    lhs_pos: Vec<usize>,
    /// Schema position of the RHS attribute.
    rhs_pos: usize,
    lhs_dicts: Vec<Arc<Dictionary>>,
    rhs_dict: Arc<Dictionary>,
    compiled: Vec<CompiledPattern>,
    /// The kernel's bucketing of `compiled`: answers a new key's matched
    /// list in one probe per wildcard mask.
    lhs_index: LhsIndex,
    keys: FxHashMap<CodeKey, KeyState>,
    tid_key: FxHashMap<TupleId, CodeKey>,
    live: ViolationSet,
}

impl ViolationIndex {
    /// An empty index for `cfd`, over the relation's shared
    /// dictionaries (`dicts` in schema order, one per attribute).
    pub fn new(cfd: SimpleCfd, dicts: &[Arc<Dictionary>]) -> Self {
        let lhs_pos: Vec<usize> = cfd.lhs.iter().map(|a| a.index()).collect();
        let rhs_pos = cfd.rhs.index();
        let lhs_dicts: Vec<Arc<Dictionary>> = lhs_pos.iter().map(|&p| dicts[p].clone()).collect();
        let rhs_dict = dicts[rhs_pos].clone();
        let mut index = ViolationIndex {
            cfd,
            lhs_pos,
            rhs_pos,
            lhs_dicts,
            rhs_dict,
            compiled: Vec::new(),
            lhs_index: LhsIndex::default(),
            keys: FxHashMap::default(),
            tid_key: FxHashMap::default(),
            live: ViolationSet::default(),
        };
        index.recompile();
        index
    }

    /// The CFD this index maintains.
    pub fn cfd(&self) -> &SimpleCfd {
        &self.cfd
    }

    /// Number of distinct LHS keys currently indexed.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of rows currently indexed (rows matching some feasible
    /// pattern; rows matching nothing are never stored).
    pub fn indexed_rows(&self) -> usize {
        self.tid_key.len()
    }

    /// The live violation set (maintained, not recomputed).
    pub fn current(&self) -> &ViolationSet {
        &self.live
    }

    /// A copy of the live violation set (what report revisions carry).
    pub fn snapshot(&self) -> ViolationSet {
        self.live.clone()
    }

    /// Recompiles the tableau against the (append-only, possibly
    /// grown) dictionaries — one dictionary lookup per constant — and
    /// re-buckets it when a constant gained a code.
    fn recompile(&mut self) {
        let compiled: Vec<CompiledPattern> = self
            .cfd
            .tableau
            .iter()
            .map(|p| CompiledPattern::compile_with(p, &self.lhs_dicts, &self.rhs_dict))
            .collect();
        if compiled != self.compiled {
            self.lhs_index = LhsIndex::of_compiled(&compiled);
            self.compiled = compiled;
        }
    }

    /// Applies one batch — deletes (by tuple id) then inserts
    /// (full-width code rows) — and re-validates every touched key.
    /// Returns the number of member rows re-validated, the analytic
    /// cost driver of coordinator-side maintenance.
    ///
    /// A delete of a tuple the index never stored (it matched no
    /// feasible pattern) is a no-op, mirroring `detect_simple`'s group
    /// membership rule.
    pub fn apply(&mut self, deletes: &[TupleId], inserts: &[(TupleId, Box<[u32]>)]) -> usize {
        self.recompile();
        let mut dirty: Vec<CodeKey> = Vec::new();
        let mut dirty_seen: FxHashSet<CodeKey> = FxHashSet::default();
        let mut probe_buf: Vec<u32> = Vec::new();
        let mut ranks: Vec<u32> = Vec::new();

        for tid in deletes {
            let Some(key) = self.tid_key.remove(tid) else { continue };
            let state = self.keys.get_mut(&key).expect("tid_key points at a live key");
            let at = state
                .members
                .iter()
                .position(|(t, _)| t == tid)
                .expect("indexed tid is among its key's members");
            state.members.remove(at);
            if dirty_seen.insert(key.clone()) {
                dirty.push(key);
            }
        }

        for (tid, codes) in inserts {
            let lhs: Vec<u32> = self.lhs_pos.iter().map(|&p| codes[p]).collect();
            let key = CodeKey::of_codes(&lhs);
            let rhs = codes[self.rhs_pos];
            if let Some(state) = self.keys.get_mut(&key) {
                state.members.push((*tid, rhs));
            } else {
                self.lhs_index.matched_into(&lhs, &mut probe_buf, &mut ranks);
                if ranks.is_empty() {
                    // The row matches no feasible pattern: it is in no
                    // detection group and never will be (see module
                    // docs), so it is not indexed at all.
                    continue;
                }
                self.keys.insert(
                    key.clone(),
                    KeyState {
                        matched: ranks.iter().map(|&r| r as usize).collect(),
                        members: vec![(*tid, rhs)],
                        flagged: Vec::new(),
                        in_patterns: false,
                    },
                );
            }
            let stale = self.tid_key.insert(*tid, key.clone());
            debug_assert!(stale.is_none(), "tuple ids must be unique across the stream");
            if dirty_seen.insert(key.clone()) {
                dirty.push(key);
            }
        }

        let mut touched = 0;
        for key in dirty {
            touched += self.revalidate(&key);
        }
        touched
    }

    /// Re-validates one key: retracts its old contribution from the
    /// live set, recomputes the `detect_simple` group logic over its
    /// current members, and adds the new contribution. Returns the
    /// number of members examined.
    fn revalidate(&mut self, key: &CodeKey) -> usize {
        let Some(mut state) = self.keys.remove(key) else { return 0 };
        let width = self.cfd.lhs.len();
        let key_codes = key.codes(width);

        // Retract.
        for tid in state.flagged.drain(..) {
            self.live.tids.remove(&tid);
        }
        if state.in_patterns {
            self.live.patterns.remove(&self.decode_key(&key_codes));
            state.in_patterns = false;
        }
        if state.members.is_empty() {
            // Last member gone: the key leaves the index entirely (a
            // later re-appearance recomputes `matched` freshly).
            return 0;
        }

        // Recompute via the kernel's per-group validator under the
        // algorithmic (non-strict) reading, feeding it the cached
        // matched-pattern list; the sink here is the stateful key
        // entry, not a fresh set.
        let members = &state.members;
        let verdict = validate_group(
            state.matched.iter().map(|&pi| {
                let pat = &self.compiled[pi];
                debug_assert!(pat.matches_codes(&key_codes), "matched lists never go stale");
                pat.rhs_spec()
            }),
            members.len(),
            |fi| members[fi].1,
            false,
        );
        match verdict {
            GroupVerdict::AllFlagged => {
                state.flagged = members.iter().map(|&(t, _)| t).collect();
            }
            GroupVerdict::Mixed(flags) => {
                state.flagged =
                    members.iter().zip(&flags).filter(|(_, &f)| f).map(|(&(t, _), _)| t).collect();
            }
            GroupVerdict::Clean => {}
        }
        if !state.flagged.is_empty() {
            self.live.tids.extend(state.flagged.iter().copied());
            self.live.patterns.insert(self.decode_key(&key_codes));
            state.in_patterns = true;
        }
        let touched = state.members.len();
        self.keys.insert(key.clone(), state);
        touched
    }

    fn decode_key(&self, key_codes: &[u32]) -> Vec<Value> {
        self.lhs_dicts.iter().zip(key_codes).map(|(d, &c)| d.value(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::{detect_simple, parse_cfd};
    use dcd_relation::{vals, Relation, RelationDelta, Schema, Tuple, ValueType};

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn dicts_of(rel: &Relation) -> Vec<Arc<Dictionary>> {
        rel.columns().iter().map(|c| c.dict().clone()).collect()
    }

    fn full_rows(rel: &Relation) -> Vec<(TupleId, Box<[u32]>)> {
        (0..rel.len())
            .map(|i| {
                let codes: Box<[u32]> = rel.columns().iter().map(|c| c.codes()[i]).collect();
                (rel.tids()[i], codes)
            })
            .collect()
    }

    fn assert_matches_full(index: &ViolationIndex, rel: &Relation) {
        let full = detect_simple(rel, index.cfd());
        assert_eq!(index.current().tids, full.tids, "Vio drifted from detect_simple");
        assert_eq!(index.current().patterns, full.patterns, "Vioπ drifted from detect_simple");
    }

    #[test]
    fn build_matches_detect_simple() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "c"],
                vals![7, "z9", "x"],
            ],
        )
        .unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        let touched = index.apply(&[], &full_rows(&rel));
        assert_eq!(touched, 2, "only the cc=44 rows are indexed");
        assert_eq!(index.indexed_rows(), 2);
        assert_matches_full(&index, &rel);
    }

    #[test]
    fn deltas_track_detect_simple_step_by_step() {
        let s = schema();
        let mut rel = Relation::from_rows(
            s.clone(),
            vec![vals![44, "z1", "a"], vals![44, "z2", "b"], vals![31, "z1", "c"]],
        )
        .unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);
        assert!(index.current().tids.is_empty());

        // Insert a conflicting partner → violation appears.
        let d1 = RelationDelta::new(vec![Tuple::new(TupleId(10), vals![44, "z1", "zz"])], vec![]);
        let eff = rel.apply_delta(&d1).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().tids.len(), 2);

        // Delete the original partner → violation disappears again.
        let d2 = RelationDelta::new(vec![], vec![TupleId(0)]);
        let eff = rel.apply_delta(&d2).unwrap();
        index.apply(&[TupleId(0)], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert!(index.current().tids.is_empty());

        // Empty keys vanish from the index.
        let d3 = RelationDelta::new(vec![], vec![TupleId(10)]);
        let eff = rel.apply_delta(&d3).unwrap();
        index.apply(&[TupleId(10)], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.key_count(), 2, "the (44, z1) key is gone");
    }

    #[test]
    fn late_interned_constants_become_matchable() {
        let s = schema();
        // Initially no tuple carries cc=31, so the second pattern is
        // infeasible (NO_CODE) at build time.
        let mut rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "a"]]).unwrap();
        let a = parse_cfd(&s, "a", "([cc=44, zip] -> [street])").unwrap();
        let b = parse_cfd(&s, "b", "([cc=31, zip] -> [street])").unwrap();
        let merged = dcd_cfd::Cfd::merge("phi", &[&a, &b]).unwrap();
        let simple = merged.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);

        // Two conflicting cc=31 tuples arrive: the recompiled pattern
        // must catch them.
        let d = RelationDelta::new(
            vec![
                Tuple::new(TupleId(5), vals![31, "q", "x"]),
                Tuple::new(TupleId(6), vals![31, "q", "y"]),
            ],
            vec![],
        );
        let eff = rel.apply_delta(&d).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().tids.len(), 2);
    }

    #[test]
    fn constant_rhs_patterns_flag_single_tuples() {
        let s = schema();
        let mut rel = Relation::from_rows(s.clone(), vec![vals![44, "z1", "Main"]]).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street=Main])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_matches_full(&index, &rel);
        assert!(index.current().is_empty());

        let d = RelationDelta::new(vec![Tuple::new(TupleId(9), vals![44, "z3", "Side"])], vec![]);
        let eff = rel.apply_delta(&d).unwrap();
        index.apply(&[], &eff.inserted);
        assert_matches_full(&index, &rel);
        assert_eq!(index.current().tids.len(), 1);
        assert_eq!(index.current().patterns.len(), 1);
    }

    #[test]
    fn deleting_unindexed_tuples_is_a_noop() {
        let s = schema();
        let mut rel = Relation::from_rows(s.clone(), vec![vals![7, "z", "x"]]).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let mut index = ViolationIndex::new(simple, &dicts_of(&rel));
        index.apply(&[], &full_rows(&rel));
        assert_eq!(index.indexed_rows(), 0);
        let eff = rel.apply_delta(&RelationDelta::new(vec![], vec![TupleId(0)])).unwrap();
        assert_eq!(eff.deleted.len(), 1);
        let touched = index.apply(&[TupleId(0)], &[]);
        assert_eq!(touched, 0);
        assert_matches_full(&index, &rel);
    }
}

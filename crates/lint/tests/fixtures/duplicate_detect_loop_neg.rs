use dcd_cfd::{validate_group, GroupVerdict, RhsSpec};
use dcd_relation::{FxHashMap, TupleId};

/// The sanctioned idiom: per-group validation delegates to the kernel.
pub fn validate_via_kernel(groups: &FxHashMap<u64, Vec<(TupleId, u32)>>) -> Vec<TupleId> {
    let mut out: Vec<TupleId> = Vec::new();
    for (_key, members) in groups {
        let verdict = validate_group([RhsSpec::Wild], members.len(), |fi| members[fi].1, false);
        if let GroupVerdict::AllFlagged = verdict {
            out.extend(members.iter().map(|&(t, _)| t));
        }
    }
    out.sort_unstable();
    out
}

/// Index maintenance: accumulates RHS codes per key but never decides a
/// conflict — bookkeeping, not a validation loop.
pub fn maintain(rows: &[(TupleId, u32)], rhs_pos: usize) -> FxHashMap<u64, Vec<u32>> {
    let mut index: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for &(tid, code) in rows {
        let _ = rhs_pos;
        index.entry(tid.0 % 7).or_insert_with(Vec::new).push(code);
    }
    index
}

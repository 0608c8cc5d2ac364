use dcd_cfd::kernel::{detect_grouped, Tableau};
use dcd_cfd::{validate_group, GroupVerdict, RhsSpec};
use dcd_relation::ops::CodeKey;
use dcd_relation::{FxHashMap, FxHashSet, TupleId};

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

/// Per-block detection through the scan kernel: the loop accumulates
/// into a set, reads RHS codes and compares — but every verdict is the
/// kernel's, reached from its group summaries.
pub fn validate_blocks(
    blocks: &[Vec<(TupleId, u32, u32)>],
    tableau: &Tableau<'_>,
) -> FxHashSet<TupleId> {
    let mut flagged: FxHashSet<TupleId> = FxHashSet::default();
    for rows in blocks {
        let found = detect_grouped(
            rows.iter(),
            |&&(_, key, _)| Some(CodeKey::of_codes(&[key])),
            |&&(tid, _, rhs)| (tid, rhs),
            tableau,
            |_| Vec::new(),
        );
        for tid in found.tids {
            if tid != TupleId(u64::MAX) {
                flagged.insert(tid);
            }
        }
    }
    flagged
}

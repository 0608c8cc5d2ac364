//! Executable NP-hardness reductions (appendix of the paper).
//!
//! * [`mhd_reduction`] — Theorem 1: minimum set cover → minimum-shipment
//!   CFD detection in horizontal partitions. The construction uses a
//!   fixed six-attribute schema `(A1, A2, A3, Bu, B, N)`, four fixed FDs
//!   and `n + 2` fragments: one single-tuple fragment per subset `Ci`,
//!   a fragment `V` encoding the universe (B-value `b'`) and a fragment
//!   `U` of witness tuples (B-value `b`).
//! * [`mrp_reduction`] — Theorem 8: hitting set → minimum refinement of
//!   a vertical partition. Schema `(key, A_x …, E_1 …, E_n)`, fragments
//!   `R0 = {key, E*}` and `Ri = {key} ∪ {A_x : x ∈ Ci}`, FDs
//!   `A_x ↔ A_y` for all pairs and `E_i → A_x` for `x ∈ Ci`.
//!
//! Tests validate the *forward* directions on small instances (a cover
//! yields a valid shipment; a hitting set yields a preserving
//! augmentation) and pin two reproduction findings about tightness: at
//! tuple-count granularity the MHD witnesses can patch non-covers
//! (Theorem 1's counting needs the byte-sized budget K'), and under the
//! literal implication-based Γ of Proposition 7 the MRP instance admits
//! a preserving augmentation *smaller* than the minimum hitting set
//! (the pairwise `A_x ↔ A_y` FDs make one shared attribute bridge
//! everything).

use crate::hitting::HittingSetInstance;
use crate::setcover::SetCoverInstance;
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{oracle, Cfd, SimpleCfd};
use dcd_dist::{Fragment, HorizontalPartition, SiteId};
use dcd_relation::{AttrId, Relation, Schema, Tuple, Value, ValueType};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Theorem 1: MSC → minimum-shipment horizontal detection (MHD).
// ---------------------------------------------------------------------

/// The Theorem 1 instance: fixed schema, four fixed FDs, `n+2` fragments.
#[derive(Debug)]
pub struct MhdInstance {
    /// The fixed schema `(A1, A2, A3, Bu, B, N)`.
    pub schema: Arc<Schema>,
    /// Σ: the four fixed FDs `A1→B, A2→B, A3→B, Bu→B`.
    pub sigma: Vec<Cfd>,
    /// Fragments `D1 … Dn, V, U` at sites `S1 … S(n+2)`.
    pub partition: HorizontalPartition,
    /// Number of universe elements `m`.
    pub m: usize,
    /// Number of subsets `n`.
    pub n: usize,
    /// The source instance.
    pub msc: SetCoverInstance,
}

fn elem(x: usize) -> Value {
    Value::str(format!("x{x}"))
}
fn aux(u: usize) -> Value {
    Value::str(format!("u{u}"))
}

/// Builds the Theorem 1 construction from a set cover instance whose
/// subsets each have exactly three elements.
pub fn mhd_reduction(msc: &SetCoverInstance) -> MhdInstance {
    assert!(
        msc.subsets.iter().all(|s| s.len() == 3),
        "the Theorem 1 reduction requires 3-element subsets"
    );
    let m = msc.universe;
    let n = msc.subsets.len();
    let schema = Schema::builder("mhd")
        .attr("A1", ValueType::Str)
        .attr("A2", ValueType::Str)
        .attr("A3", ValueType::Str)
        .attr("Bu", ValueType::Str)
        .attr("B", ValueType::Str)
        .attr("N", ValueType::Int)
        .build()
        .expect("fixed schema");
    let sigma = vec![
        Cfd::fd("f1", schema.clone(), &["A1"], &["B"]).unwrap(),
        Cfd::fd("f2", schema.clone(), &["A2"], &["B"]).unwrap(),
        Cfd::fd("f3", schema.clone(), &["A3"], &["B"]).unwrap(),
        Cfd::fd("f4", schema.clone(), &["Bu"], &["B"]).unwrap(),
    ];

    let mut fragments = Vec::with_capacity(n + 2);
    // Tuple ids are assigned from a single counter so that fragments are
    // disjoint in the §II-B sense.
    let mut next_tid = 0u64;
    let mut push = |rel: &mut Relation, row: Vec<Value>| {
        let t = Tuple::new(dcd_relation::TupleId(next_tid), row);
        next_tid += 1;
        rel.push_tuple(t).unwrap();
    };
    // Di: one tuple per subset, elements sorted ascending.
    for (i, subset) in msc.subsets.iter().enumerate() {
        let mut sorted = subset.clone();
        sorted.sort_unstable();
        let mut data = Relation::new(schema.clone());
        push(
            &mut data,
            vec![
                elem(sorted[0]),
                elem(sorted[1]),
                elem(sorted[2]),
                Value::str("d"),
                Value::str("b"),
                Value::Int(i as i64 + 1),
            ],
        );
        fragments.push(Fragment { site: SiteId(i as u32), predicate: None, data });
    }
    // V: three forms × m elements × 2m Bu-values, B = b'.
    let mut v = Relation::new(schema.clone());
    let mut u = Relation::new(schema.clone());
    for x in 0..m {
        for bu in 0..2 * m {
            let bu_val = if bu < m { elem(bu) } else { aux(bu - m) };
            let c = Value::str("c");
            for form in 0..3 {
                let mut row = [c.clone(), c.clone(), c.clone()];
                row[form] = elem(x);
                push(
                    &mut v,
                    vec![
                        row[0].clone(),
                        row[1].clone(),
                        row[2].clone(),
                        bu_val.clone(),
                        Value::str("bp"),
                        Value::Int(0),
                    ],
                );
                push(
                    &mut u,
                    vec![
                        row[0].clone(),
                        row[1].clone(),
                        row[2].clone(),
                        bu_val.clone(),
                        Value::str("b"),
                        Value::Int(n as i64 + 1),
                    ],
                );
            }
        }
    }
    fragments.push(Fragment { site: SiteId(n as u32), predicate: None, data: v });
    fragments.push(Fragment { site: SiteId(n as u32 + 1), predicate: None, data: u });
    let partition = HorizontalPartition::from_fragments(schema.clone(), fragments)
        .expect("fragments share the schema");
    MhdInstance { schema, sigma, partition, m, n, msc: msc.clone() }
}

impl MhdInstance {
    /// The shipment the proof prescribes for a candidate cover: the
    /// subset tuples of `cover` plus `2m` witness tuples from `U` — one
    /// per `Bu` value, each paired with a still-uncovered `(position,
    /// element)` pattern where possible.
    pub fn shipment_for_cover(&self, cover: &[usize]) -> Vec<Tuple> {
        let mut shipped: Vec<Tuple> = Vec::new();
        // (a) Subset tuples.
        let mut covered: Vec<[bool; 3]> = vec![[false; 3]; self.m];
        for &i in cover {
            let frag = &self.partition.fragments()[i];
            let t = frag.data.row(0);
            for (pos, name) in ["A1", "A2", "A3"].iter().enumerate() {
                let a = self.schema.require(name).unwrap();
                if let Some(sx) = t.get(a).as_str() {
                    if let Ok(x) = sx[1..].parse::<usize>() {
                        covered[x][pos] = true;
                    }
                }
            }
            shipped.push(t);
        }
        // (b) 2m witness tuples from U: one per Bu value, each covering
        // an uncovered (pos, element) pattern when one remains.
        let mut uncovered: Vec<(usize, usize)> = Vec::new(); // (pos, x)
        for (x, c) in covered.iter().enumerate() {
            for (pos, &done) in c.iter().enumerate() {
                if !done {
                    uncovered.push((pos, x));
                }
            }
        }
        let u_frag = &self.partition.fragments()[self.n + 1];
        let a_ids: Vec<AttrId> = self.schema.require_all(&["A1", "A2", "A3"]).unwrap();
        let bu_id = self.schema.require("Bu").unwrap();
        let mut uncovered_iter = uncovered.into_iter();
        for bu in 0..2 * self.m {
            let bu_val = if bu < self.m { elem(bu) } else { aux(bu - self.m) };
            let (pos, x) = uncovered_iter.next().unwrap_or((bu % 3, bu % self.m));
            let want = elem(x);
            let tuple = u_frag
                .data
                .iter()
                .find(|t| t.get(bu_id) == &bu_val && t.get(a_ids[pos]) == &want)
                .expect("U contains every (form, element, Bu) combination");
            shipped.push(tuple);
        }
        shipped
    }

    /// Whether Σ can be checked locally after shipping `extra_at_v` to
    /// the `V` site (the §III-A condition on `Vioπ`).
    pub fn checked_locally_after(&self, extra_at_v: &[Tuple]) -> bool {
        let simples: Vec<SimpleCfd> = self.sigma.iter().flat_map(Cfd::simplify).collect();
        // The paper-definition oracle runs on rows: decode once.
        let fragments: Vec<Vec<Tuple>> =
            self.partition.fragments().iter().map(|f| f.data.iter().collect()).collect();
        for cfd in &simples {
            // Global Vioπ.
            let all: Vec<&Tuple> = fragments.iter().flatten().collect();
            let global = oracle::vio(&all, cfd).patterns;
            // Union of local Vioπ after shipment.
            let mut local = ViolationSet::default();
            for (i, frag) in fragments.iter().enumerate() {
                let mut tuples: Vec<&Tuple> = frag.iter().collect();
                if i == self.n {
                    tuples.extend(extra_at_v.iter());
                }
                local.merge(oracle::vio(&tuples, cfd));
            }
            if local.patterns != global {
                return false;
            }
        }
        true
    }
}

// ---------------------------------------------------------------------
// Theorem 8: hitting set → minimum refinement (MRP).
// ---------------------------------------------------------------------

/// The Theorem 8 instance: schema, vertical attribute groups and Σ.
#[derive(Debug)]
pub struct MrpInstance {
    /// Schema `(key, A_0 … A_{m-1}, E_1 … E_n)`.
    pub schema: Arc<Schema>,
    /// Σ: pairwise `A_x ↔ A_y` plus `E_i → A_x` for `x ∈ Ci`.
    pub sigma: Vec<Cfd>,
    /// Vertical attribute groups: `R0 = {key, E*}`,
    /// `Ri = {key} ∪ {A_x : x ∈ Ci}`.
    pub groups: Vec<Vec<AttrId>>,
    /// The source instance.
    pub hs: HittingSetInstance,
}

/// Builds the Theorem 8 construction. Every element must occur in some
/// set (elements outside `⋃ C` would make the pairwise FDs unpreservable
/// at any augmentation size related to the hitting set).
pub fn mrp_reduction(hs: &HittingSetInstance) -> MrpInstance {
    let m = hs.n_elements;
    let n = hs.sets.len();
    let mut occurs = vec![false; m];
    for s in &hs.sets {
        for &e in s {
            occurs[e] = true;
        }
    }
    assert!(occurs.iter().all(|&o| o), "every element must occur in some set");

    let mut builder = Schema::builder("mrp").attr("key", ValueType::Int);
    for x in 0..m {
        builder = builder.attr(format!("A{x}"), ValueType::Int);
    }
    for i in 1..=n {
        builder = builder.attr(format!("E{i}"), ValueType::Int);
    }
    let schema = builder.key(&["key"]).build().expect("fixed schema");

    let mut sigma = Vec::new();
    for x in 0..m {
        for y in 0..m {
            if x != y {
                sigma.push(
                    Cfd::fd(
                        format!("a{x}_to_a{y}"),
                        schema.clone(),
                        &[&format!("A{x}")],
                        &[&format!("A{y}")],
                    )
                    .unwrap(),
                );
            }
        }
    }
    for (i, set) in hs.sets.iter().enumerate() {
        for &x in set {
            sigma.push(
                Cfd::fd(
                    format!("e{}_to_a{x}", i + 1),
                    schema.clone(),
                    &[&format!("E{}", i + 1)],
                    &[&format!("A{x}")],
                )
                .unwrap(),
            );
        }
    }

    let key = schema.require("key").unwrap();
    let mut groups: Vec<Vec<AttrId>> = Vec::with_capacity(n + 1);
    let mut r0 = vec![key];
    for i in 1..=n {
        r0.push(schema.require(&format!("E{i}")).unwrap());
    }
    groups.push(r0);
    for set in &hs.sets {
        let mut g = vec![key];
        for &x in set {
            g.push(schema.require(&format!("A{x}")).unwrap());
        }
        groups.push(g);
    }

    MrpInstance { schema, sigma, groups, hs: hs.clone() }
}

impl MrpInstance {
    /// The augmentation the proof derives from a hitting set: add `A_x`
    /// to fragment `R0` for every chosen element `x`.
    pub fn augmentation_for(&self, hitting: &[usize]) -> Vec<Vec<AttrId>> {
        let mut groups = self.groups.clone();
        for &x in hitting {
            let a = self.schema.require(&format!("A{x}")).unwrap();
            if !groups[0].contains(&a) {
                groups[0].push(a);
            }
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_msc() -> SetCoverInstance {
        // X = {0..5}; exact cover {0,1,2} + {3,4,5} of size 2.
        SetCoverInstance::new(6, vec![vec![0, 1, 2], vec![3, 4, 5], vec![1, 3, 5], vec![0, 2, 4]])
    }

    #[test]
    fn mhd_construction_shape() {
        let inst = mhd_reduction(&small_msc());
        assert_eq!(inst.partition.n_sites(), 6); // 4 subsets + V + U
        assert_eq!(inst.schema.arity(), 6);
        assert_eq!(inst.sigma.len(), 4);
        // V and U have 6m² tuples each.
        let m = inst.m;
        assert_eq!(inst.partition.fragments()[4].data.len(), 6 * m * m);
        assert_eq!(inst.partition.fragments()[5].data.len(), 6 * m * m);
        inst.partition.validate().unwrap();
    }

    #[test]
    fn mhd_cover_shipment_makes_sigma_locally_checkable() {
        let msc = small_msc();
        let inst = mhd_reduction(&msc);
        let cover = msc.exact_cover().unwrap();
        assert_eq!(cover.len(), 2);
        let shipment = inst.shipment_for_cover(&cover);
        // K subset tuples + 2m witness tuples.
        assert_eq!(shipment.len(), cover.len() + 2 * inst.m);
        assert!(inst.checked_locally_after(&shipment));
    }

    /// Without the witness tuples, subset tuples alone never suffice:
    /// the `Bu → B` violations (2m patterns) live only in V and U.
    #[test]
    fn mhd_subset_tuples_alone_fail() {
        let msc = small_msc();
        let inst = mhd_reduction(&msc);
        let cover = msc.exact_cover().unwrap();
        let only_subsets: Vec<Tuple> =
            cover.iter().map(|&i| inst.partition.fragments()[i].data.row(0)).collect();
        assert!(!inst.checked_locally_after(&only_subsets));
    }

    /// Reproduction finding: at *tuple-count* granularity the reduction
    /// is not tight — the 2m witness tuples can patch arbitrary
    /// (position, element) patterns, so two subsets work even when they
    /// do not form a cover. Theorem 1's counting argument relies on the
    /// *sized* shipment budget K' (huge paddings make V unshippable and
    /// meter the U tuples). This test pins the observed behaviour so
    /// the note stays honest.
    #[test]
    fn mhd_tuple_granularity_is_looser_than_byte_granularity() {
        let msc = small_msc();
        let inst = mhd_reduction(&msc);
        let not_cover = vec![0usize, 2]; // {0,1,2} + {1,3,5}: misses 4
        assert!(!msc.is_cover(&not_cover));
        let shipment = inst.shipment_for_cover(&not_cover);
        assert!(inst.checked_locally_after(&shipment));
    }

    #[test]
    fn mhd_empty_shipment_fails() {
        let inst = mhd_reduction(&small_msc());
        assert!(!inst.checked_locally_after(&[]));
    }

    fn small_hs() -> HittingSetInstance {
        // Sets {0,1}, {1,2}, {2,3}: minimum hitting set {1, 2} (size 2) —
        // and {1,3}/{0,2} also work; min size is 2.
        HittingSetInstance::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]])
    }

    #[test]
    fn mrp_construction_shape() {
        let hs = small_hs();
        let inst = mrp_reduction(&hs);
        assert_eq!(inst.schema.arity(), 1 + 4 + 3); // key + A* + E*
        assert_eq!(inst.groups.len(), 4); // R0 + one per set
        assert_eq!(inst.sigma.len(), 4 * 3 + 6); // pairwise + Ei→Ax
    }

    #[test]
    fn mrp_hitting_set_gives_preserving_augmentation() {
        let hs = small_hs();
        let inst = mrp_reduction(&hs);
        let hitting = hs.exact_hitting().unwrap();
        let refined = inst.augmentation_for(&hitting);
        assert!(dcd_vertical_is_preserved(&inst, &refined));
        // The original partition is NOT preserving.
        assert!(!dcd_vertical_is_preserved(&inst, &inst.groups));
    }

    /// Syntactic coverage (every FD of Σ inside one fragment) is
    /// *stricter* than hitting-set augmentation: with R0-additions only,
    /// covering every `Ei → Ax` forces every A mentioned with every Ei
    /// into R0 — 4 attributes here, above the hitting-set optimum of 2.
    #[test]
    fn mrp_coverage_minimum_exceeds_hitting_set() {
        let hs = small_hs();
        let inst = mrp_reduction(&hs);
        let k = hs.min_hitting_size().unwrap();
        let mut best = usize::MAX;
        for mask in 0u32..(1 << hs.n_elements) {
            let chosen: Vec<usize> = (0..hs.n_elements).filter(|&x| mask & (1 << x) != 0).collect();
            if chosen.len() >= best {
                continue;
            }
            let refined = inst.augmentation_for(&chosen);
            if covers_sigma(&inst, &refined) {
                best = chosen.len();
            }
        }
        assert_eq!(best, 4);
        assert!(best > k);
    }

    /// Reproduction finding: under the paper's *implication-based* Γ
    /// (Proposition 7 as literally defined), the constructed instance
    /// admits a smaller preserving augmentation than the hitting-set
    /// optimum — the pairwise FDs make all A-attributes equivalent, so a
    /// single A in R0 bridges every `Ei → Ax` through Γ. The reduction
    /// is tight for coverage, not for full implication.
    #[test]
    fn mrp_implication_can_beat_hitting_set() {
        let hs = small_hs();
        let inst = mrp_reduction(&hs);
        let k = hs.min_hitting_size().unwrap();
        assert_eq!(k, 2);
        // Adding the single attribute A1 to R0 preserves under Γ-implication.
        let refined = inst.augmentation_for(&[1]);
        assert!(dcd_vertical_is_preserved(&inst, &refined));
        // …but does not cover Σ syntactically.
        assert!(!covers_sigma(&inst, &refined));
    }

    /// Coverage check: every FD of Σ fits inside one fragment.
    fn covers_sigma(inst: &MrpInstance, groups: &[Vec<AttrId>]) -> bool {
        inst.sigma.iter().all(|cfd| {
            let attrs = cfd.attrs();
            groups.iter().any(|g| attrs.iter().all(|a| g.contains(&a)))
        })
    }

    /// Local preservation check (avoids a circular dev-dependency on
    /// dcd-vertical): re-implemented via the public chase in dcd-cfd.
    fn dcd_vertical_is_preserved(inst: &MrpInstance, groups: &[Vec<AttrId>]) -> bool {
        // All Σ here are plain FDs, so Beeri–Honeyman on attribute sets
        // suffices.
        use dcd_cfd::{fd_closure, AttrSet, Fd};
        let arity = inst.schema.arity();
        let fds: Vec<Fd> =
            inst.sigma.iter().map(|c| Fd::new(c.lhs().to_vec(), c.rhs().to_vec())).collect();
        for fd in &fds {
            let mut z = AttrSet::from_ids(arity, fd.lhs.iter().copied());
            let mut changed = true;
            while changed {
                changed = false;
                for g in groups {
                    let gset = AttrSet::from_ids(arity, g.iter().copied());
                    let seed = z.intersection(&gset);
                    let mut grown = fd_closure(&seed, &fds);
                    grown.intersect_with(&gset);
                    changed |= z.union_with(&grown);
                }
            }
            if !fd.rhs.iter().all(|a| z.contains(*a)) {
                return false;
            }
        }
        true
    }
}

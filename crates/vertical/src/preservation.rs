//! Dependency preservation for vertical partitions (Proposition 7).
//!
//! Let `(R1, …, Rn)` be a vertical partition of `R` and Σ a set of CFDs.
//! `Γi` is the set of CFDs implied by Σ whose attributes all lie in
//! `attr(Ri)`; the partition is *dependency preserving* iff
//! `Γ = ⋃ Γi ⊨ Σ`. By Proposition 7 this holds iff every CFD of Σ can be
//! checked locally on every instance.
//!
//! `Γ` is infinite, so the test cannot enumerate it. Instead we run the
//! classical restricted-closure algorithm of Beeri–Honeyman, generalized
//! from FDs to CFDs: maintain, for two symbolic tuples constrained by
//! φ's premise, the per-attribute knowledge (pair equality + constant
//! bindings), and repeatedly run a full two-tuple chase of Σ *seeded with
//! only one fragment's knowledge at a time*, copying back only facts
//! about that fragment's attributes. Every derivation step of such a
//! round is a CFD implied by Σ whose attributes fit the fragment — i.e.
//! an element of `Γi` — so the fixpoint decides `Γ ⊨ φ`. For FDs this
//! reduces exactly to `Z := Z ∪ (closure_Σ(Z ∩ Ri) ∩ Ri)`.
//!
//! Completeness matches the chase's: exact for the unbounded `Int`/`Str`
//! domains this workspace models (see `dcd-cfd::implication`).

use dcd_cfd::implication::{ChaseOutcome, ChaseState};
use dcd_cfd::{Cfd, NormalCfd, PatternValue};
use dcd_relation::{AttrId, Value};

/// Per-attribute knowledge about the two symbolic premise tuples.
#[derive(Debug, Clone, Default, PartialEq)]
struct CellKnowledge {
    /// `t1[B] = t2[B]` is known.
    eq: bool,
    /// Constant bound to `t1[B]`, if known.
    c1: Option<Value>,
    /// Constant bound to `t2[B]`, if known.
    c2: Option<Value>,
}

/// Decides whether the vertical partition given by `groups` (attribute
/// id lists, one per fragment) preserves Σ.
pub fn is_preserved(arity: usize, groups: &[Vec<AttrId>], sigma: &[Cfd]) -> bool {
    unpreserved(arity, groups, sigma).is_empty()
}

/// The normalized pieces of Σ that are *not* implied by the fragment-
/// local CFD sets Γ (empty iff the partition is dependency preserving).
pub fn unpreserved(arity: usize, groups: &[Vec<AttrId>], sigma: &[Cfd]) -> Vec<NormalCfd> {
    let normalized: Vec<NormalCfd> = sigma.iter().flat_map(Cfd::normalize).collect();
    normalized
        .iter()
        .filter(|phi| !gamma_implies(arity, groups, &normalized, phi))
        .cloned()
        .collect()
}

/// The site index whose fragment covers all attributes of `cfd`
/// (syntactic local checkability), if any.
pub fn locally_checkable_at(cfd: &Cfd, groups: &[Vec<AttrId>]) -> Option<usize> {
    let attrs = cfd.attrs();
    groups.iter().position(|g| attrs.iter().all(|a| g.contains(&a)))
}

/// `Γ ⊨ φ` via the fragment-restricted chase described in the module
/// docs.
pub(crate) fn gamma_implies(
    arity: usize,
    groups: &[Vec<AttrId>],
    sigma: &[NormalCfd],
    phi: &NormalCfd,
) -> bool {
    // Seed knowledge with φ's premise: t1[X] = t2[X] ≍ tp[X].
    let mut know: Vec<CellKnowledge> = vec![CellKnowledge::default(); arity];
    for (&b, p) in phi.lhs.iter().zip(&phi.pattern.lhs) {
        know[b.index()].eq = true;
        if let PatternValue::Const(c) = p {
            know[b.index()].c1 = Some(c.clone());
            know[b.index()].c2 = Some(c.clone());
        }
    }

    let mut changed = true;
    while changed {
        changed = false;
        for group in groups {
            // One fragment-restricted chase round: seed with this
            // fragment's knowledge only.
            let mut st = ChaseState::new(arity);
            for &b in group {
                let cell = &know[b.index()];
                if cell.eq {
                    st.assume_pair_eq(b);
                }
                if let Some(c) = &cell.c1 {
                    st.assume_const(0, b, c);
                }
                if let Some(c) = &cell.c2 {
                    st.assume_const(1, b, c);
                }
            }
            if st.chase(sigma) == ChaseOutcome::Contradiction {
                // The premise is unsatisfiable given Γi: vacuously implied.
                return true;
            }
            // Copy back facts about this fragment's attributes only.
            for &b in group {
                let cell = &mut know[b.index()];
                if !cell.eq && st.pair_equal(b) {
                    cell.eq = true;
                    changed = true;
                }
                for tuple in 0..2usize {
                    let binding = st.const_binding(tuple, b);
                    let target = if tuple == 0 { &mut cell.c1 } else { &mut cell.c2 };
                    match (&*target, binding) {
                        (None, Some(c)) => {
                            *target = Some(c);
                            changed = true;
                        }
                        (Some(old), Some(c)) if *old != c => {
                            // Conflicting constants forced on one cell:
                            // premise unsatisfiable — vacuous.
                            return true;
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    // Conclusion: t1[A] = t2[A] ≍ tp[A].
    let cell = &know[phi.rhs.index()];
    match &phi.pattern.rhs {
        PatternValue::Wild => cell.eq || (cell.c1.is_some() && cell.c1 == cell.c2),
        PatternValue::Const(c) => {
            let both = cell.c1.as_ref() == Some(c) && cell.c2.as_ref() == Some(c);
            both
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{Schema, ValueType};
    use std::sync::Arc;

    /// EMP-like schema: id(0), name(1), title(2), CC(3), AC(4), phn(5),
    /// street(6), city(7), zip(8), salary(9).
    fn emp() -> Arc<Schema> {
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

    fn ids(s: &Schema, names: &[&str]) -> Vec<AttrId> {
        s.require_all(names).unwrap()
    }

    /// The Example 1 vertical partition: DV1 = name/title/address,
    /// DV2 = phone, DV3 = salary (id everywhere).
    fn example1_groups(s: &Schema) -> Vec<Vec<AttrId>> {
        vec![
            ids(s, &["id", "name", "title", "street", "city", "zip"]),
            ids(s, &["id", "CC", "AC", "phn"]),
            ids(s, &["id", "salary"]),
        ]
    }

    fn sigma0(s: &Arc<Schema>) -> Vec<Cfd> {
        vec![
            parse_cfd(s, "phi1a", "([CC=44, zip] -> [street])").unwrap(),
            parse_cfd(s, "phi1b", "([CC=31, zip] -> [street])").unwrap(),
            parse_cfd(s, "phi2", "([CC, title] -> [salary])").unwrap(),
            parse_cfd(s, "phi3a", "([CC=44, AC=131] -> [city=EDI])").unwrap(),
            parse_cfd(s, "phi3b", "([CC=1, AC=908] -> [city=MH])").unwrap(),
        ]
    }

    #[test]
    fn example1_partition_is_not_preserving() {
        let s = emp();
        let groups = example1_groups(&s);
        let sigma = sigma0(&s);
        assert!(!is_preserved(s.arity(), &groups, &sigma));
        // Every CFD of Σ0 spans fragments, so every normalized piece fails.
        let bad = unpreserved(s.arity(), &groups, &sigma);
        assert_eq!(bad.len(), 5);
    }

    /// Example 7: adding CC, salary to DV1 and city to DV2 preserves Σ0.
    #[test]
    fn example7_refinement_is_preserving() {
        let s = emp();
        let mut groups = example1_groups(&s);
        groups[0].extend(ids(&s, &["CC", "salary"]));
        groups[1].extend(ids(&s, &["city"]));
        let sigma = sigma0(&s);
        assert!(is_preserved(s.arity(), &groups, &sigma));
    }

    #[test]
    fn covering_fragment_preserves_trivially() {
        let s = emp();
        let all: Vec<AttrId> = s.attr_ids().collect();
        let sigma = sigma0(&s);
        assert!(is_preserved(s.arity(), &[all], &sigma));
    }

    #[test]
    fn locally_checkable_at_finds_covering_fragment() {
        let s = emp();
        let mut groups = example1_groups(&s);
        groups[0].extend(ids(&s, &["CC"]));
        let cfd = parse_cfd(&s, "c", "([CC=44, zip] -> [street])").unwrap();
        assert_eq!(locally_checkable_at(&cfd, &groups), Some(0));
        let cfd2 = parse_cfd(&s, "c2", "([CC, title] -> [salary])").unwrap();
        assert_eq!(locally_checkable_at(&cfd2, &groups), None);
    }

    /// Beeri–Honeyman's classic subtlety: preservation can hold even
    /// when no single fragment covers an FD, via implied FDs. Schema
    /// r(a,b,c); Σ = {a→b, b→c, c→a}; fragments {a,b} and {b,c} … then
    /// c→a is NOT directly covered. Γ1 ∋ a→b, b→a? (b→a is implied:
    /// b→c→a). Γ2 ∋ b→c, c→b. Then c→a follows from c→b (Γ2) and
    /// b→a (Γ1).
    #[test]
    fn preservation_through_implied_fds() {
        let s = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Int)
            .attr("c", ValueType::Int)
            .build()
            .unwrap();
        let sigma = vec![
            parse_cfd(&s, "f1", "([a] -> [b])").unwrap(),
            parse_cfd(&s, "f2", "([b] -> [c])").unwrap(),
            parse_cfd(&s, "f3", "([c] -> [a])").unwrap(),
        ];
        let groups = vec![ids(&s, &["a", "b"]), ids(&s, &["b", "c"])];
        assert!(is_preserved(s.arity(), &groups, &sigma));
        // Dropping f3 from Σ breaks the cycle: b→a is no longer implied,
        // and a partition splitting {a,c} across fragments cannot check
        // c→a… but c→a is also gone from Σ. Instead check that with
        // Σ' = {a→b, b→c} and fragments {a,c}, {b} the FD a→b fails.
        let sigma2 = vec![
            parse_cfd(&s, "f1", "([a] -> [b])").unwrap(),
            parse_cfd(&s, "f2", "([b] -> [c])").unwrap(),
        ];
        let groups2 = vec![ids(&s, &["a", "c"]), ids(&s, &["b"])];
        assert!(!is_preserved(s.arity(), &groups2, &sigma2));
    }

    /// Constant propagation across fragments: Γ can transport constant
    /// bindings through shared attributes.
    #[test]
    fn constant_cfds_propagate_through_fragments() {
        let s = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Int)
            .attr("c", ValueType::Int)
            .build()
            .unwrap();
        // a=1 → b=2 (fits fragment {a,b}); b=2 → c=3 (fits {b,c});
        // composite a=1 → c=3 spans both but is implied by Γ.
        let sigma = vec![
            parse_cfd(&s, "r1", "([a=1] -> [b=2])").unwrap(),
            parse_cfd(&s, "r2", "([b=2] -> [c=3])").unwrap(),
            parse_cfd(&s, "r3", "([a=1] -> [c=3])").unwrap(),
        ];
        let groups = vec![ids(&s, &["a", "b"]), ids(&s, &["b", "c"])];
        assert!(is_preserved(s.arity(), &groups, &sigma));
        // Without the bridge attribute b in the second fragment it fails.
        let groups2 = vec![ids(&s, &["a", "b"]), ids(&s, &["c"])];
        assert!(!is_preserved(s.arity(), &groups2, &sigma));
    }

    #[test]
    fn vacuous_premise_is_preserved() {
        let s = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Int)
            .attr("c", ValueType::Int)
            .build()
            .unwrap();
        // Γ1 forces b=1 and b=2 for a=5-pairs → contradiction → any φ
        // with premise a=5 is vacuously implied.
        let sigma = vec![
            parse_cfd(&s, "r1", "([a=5] -> [b=1])").unwrap(),
            parse_cfd(&s, "r2", "([a=5] -> [b=2])").unwrap(),
            parse_cfd(&s, "phi", "([a=5] -> [c])").unwrap(),
        ];
        let groups = vec![ids(&s, &["a", "b"]), ids(&s, &["c"])];
        assert!(is_preserved(s.arity(), &groups, &sigma));
    }
}

//! The minimum refinement problem (§V, Theorem 8).
//!
//! Given Σ and a vertical partition, find the smallest augmentation
//! `Z = (Z1, …, Zn)` — attributes added to fragments — such that the
//! refined partition is dependency preserving w.r.t. Σ. Theorem 8 shows
//! NP-hardness (by reduction from hitting set), so this module provides
//! both an exact search usable on small schemas and a greedy heuristic.

use crate::preservation::is_preserved;
use dcd_cfd::{Cfd, NormalCfd};
use dcd_relation::AttrId;

/// An augmentation: for each fragment, the attributes to add. The *size*
/// is the total number of added attributes (the quantity minimized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Augmentation {
    /// `adds[i]` = attributes added to fragment `i`.
    pub adds: Vec<Vec<AttrId>>,
}

impl Augmentation {
    /// The empty augmentation over `n` fragments.
    pub fn empty(n: usize) -> Self {
        Augmentation { adds: vec![Vec::new(); n] }
    }

    /// Total number of attributes added.
    pub fn size(&self) -> usize {
        self.adds.iter().map(Vec::len).sum()
    }

    /// Applies the augmentation to attribute groups.
    pub fn apply(&self, groups: &[Vec<AttrId>]) -> Vec<Vec<AttrId>> {
        groups
            .iter()
            .zip(&self.adds)
            .map(|(g, add)| {
                let mut g = g.clone();
                for &a in add {
                    if !g.contains(&a) {
                        g.push(a);
                    }
                }
                g
            })
            .collect()
    }
}

/// All candidate (fragment, attribute) pairs: attributes a CFD of Σ
/// mentions that the fragment lacks. Pairs outside this set can never
/// help preservation.
fn candidate_pairs(arity: usize, groups: &[Vec<AttrId>], sigma: &[Cfd]) -> Vec<(usize, AttrId)> {
    let mut mentioned = dcd_cfd::AttrSet::empty(arity);
    for cfd in sigma {
        mentioned.union_with(&cfd.attrs());
    }
    let mut pairs = Vec::new();
    for (i, g) in groups.iter().enumerate() {
        for a in mentioned.iter() {
            if !g.contains(&a) {
                pairs.push((i, a));
            }
        }
    }
    pairs
}

/// Exact minimum refinement by breadth-first search over augmentation
/// sizes: tries all candidate-pair combinations of size 0, 1, 2, … up to
/// `max_size`. Exponential (Theorem 8 says it must be); `None` if no
/// preserving augmentation of size ≤ `max_size` exists.
pub fn refine_exact(
    arity: usize,
    groups: &[Vec<AttrId>],
    sigma: &[Cfd],
    max_size: usize,
) -> Option<Augmentation> {
    if is_preserved(arity, groups, sigma) {
        return Some(Augmentation::empty(groups.len()));
    }
    let pairs = candidate_pairs(arity, groups, sigma);
    for size in 1..=max_size.min(pairs.len()) {
        let mut found: Option<Augmentation> = None;
        for_each_combination(pairs.len(), size, &mut |combo| {
            if found.is_some() {
                return;
            }
            let mut aug = Augmentation::empty(groups.len());
            for &ci in combo {
                let (frag, attr) = pairs[ci];
                aug.adds[frag].push(attr);
            }
            if is_preserved(arity, &aug.apply(groups), sigma) {
                found = Some(aug);
            }
        });
        if found.is_some() {
            return found;
        }
    }
    None
}

/// Calls `f` with every size-`k` combination of `0..n` (ascending index
/// vectors, lexicographic order).
fn for_each_combination(n: usize, k: usize, f: &mut impl FnMut(&[usize])) {
    if k > n {
        return;
    }
    let mut combo: Vec<usize> = (0..k).collect();
    loop {
        f(&combo);
        // Advance to the next combination.
        let mut i = k;
        while i > 0 {
            i -= 1;
            if combo[i] != i + n - k {
                combo[i] += 1;
                for j in i + 1..k {
                    combo[j] = combo[j - 1] + 1;
                }
                break;
            }
            if i == 0 {
                return;
            }
        }
    }
}

/// Greedy refinement: repeatedly take the cheapest "repair" — for some
/// unpreserved CFD φ, add all of φ's missing attributes to the fragment
/// where fewest are missing — until the partition is preserving.
/// Always terminates (in the worst case one fragment ends up covering
/// every CFD). Size is an upper bound on the optimum; tests compare it
/// against [`refine_exact`] on small instances. `None`, as
/// [`refine_exact`] answers, when no augmentation exists: an unpreserved
/// Σ over no fragment.
pub fn refine_greedy(arity: usize, groups: &[Vec<AttrId>], sigma: &[Cfd]) -> Option<Augmentation> {
    let mut current = groups.to_vec();
    let mut aug = Augmentation::empty(groups.len());
    loop {
        let bad = crate::preservation::unpreserved(arity, &current, sigma);
        if bad.is_empty() {
            return Some(aug);
        }
        // Cheapest repair across all unpreserved pieces.
        let mut best: Option<(usize, usize, Vec<AttrId>)> = None; // (cost, frag, attrs)
        for phi in &bad {
            for (i, g) in current.iter().enumerate() {
                let missing: Vec<AttrId> =
                    attrs_of(phi).into_iter().filter(|a| !g.contains(a)).collect();
                let cost = missing.len();
                if cost == 0 {
                    continue; // covered syntactically yet still unpreserved
                              // cannot happen: coverage ⇒ φ ∈ Γi
                }
                if best.as_ref().is_none_or(|(bc, _, _)| cost < *bc) {
                    best = Some((cost, i, missing));
                }
            }
        }
        // A fragment covering φ preserves it, so every fragment misses
        // some of φ's attributes and only an empty partition has no repair.
        let (_, frag, attrs) = best?;
        for a in attrs {
            current[frag].push(a);
            aug.adds[frag].push(a);
        }
    }
}

fn attrs_of(phi: &NormalCfd) -> Vec<AttrId> {
    let mut v = phi.lhs.clone();
    if !v.contains(&phi.rhs) {
        v.push(phi.rhs);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{Schema, ValueType};
    use std::sync::Arc;

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

    /// Example 7: the minimum augmentation for Σ0 has size 3
    /// (CC, salary → DV1; city → DV2).
    #[test]
    fn example7_minimum_is_three() {
        let s = emp();
        let groups = example1_groups(&s);
        let sigma = sigma0(&s);
        let exact = refine_exact(s.arity(), &groups, &sigma, 3).expect("size-3 solution exists");
        assert_eq!(exact.size(), 3);
        assert!(is_preserved(s.arity(), &exact.apply(&groups), &sigma));
        // No size-2 solution.
        assert!(refine_exact(s.arity(), &groups, &sigma, 2).is_none());
    }

    #[test]
    fn greedy_matches_exact_on_example7() {
        let s = emp();
        let groups = example1_groups(&s);
        let sigma = sigma0(&s);
        let greedy = refine_greedy(s.arity(), &groups, &sigma).unwrap();
        assert!(is_preserved(s.arity(), &greedy.apply(&groups), &sigma));
        assert!(greedy.size() >= 3, "greedy cannot beat the optimum");
        // On this instance the cheapest-repair order actually finds 3.
        assert_eq!(greedy.size(), 3, "greedy should find the optimum here");
    }

    #[test]
    fn preserved_partition_needs_empty_augmentation() {
        let s = emp();
        let all: Vec<AttrId> = s.attr_ids().collect();
        let sigma = sigma0(&s);
        let aug = refine_exact(s.arity(), std::slice::from_ref(&all), &sigma, 2).unwrap();
        assert_eq!(aug.size(), 0);
        let g = refine_greedy(s.arity(), &[all], &sigma).unwrap();
        assert_eq!(g.size(), 0);
    }

    /// Over no fragment nothing can be augmented: both searches answer
    /// `None`, unless Σ is preserved already.
    #[test]
    fn no_fragment_has_no_augmentation() {
        let s = emp();
        let sigma = sigma0(&s);
        assert_eq!(refine_exact(s.arity(), &[], &sigma, 3), None);
        assert_eq!(refine_greedy(s.arity(), &[], &sigma), None);
        assert_eq!(refine_greedy(s.arity(), &[], &[]), Some(Augmentation::empty(0)));
    }

    #[test]
    fn exact_respects_max_size() {
        let s = emp();
        let groups = example1_groups(&s);
        let sigma = sigma0(&s);
        assert!(refine_exact(s.arity(), &groups, &sigma, 1).is_none());
    }

    #[test]
    fn augmentation_apply_dedupes() {
        let mut aug = Augmentation::empty(1);
        aug.adds[0] = vec![AttrId(1), AttrId(2)];
        let groups = vec![vec![AttrId(0), AttrId(1)]];
        let out = aug.apply(&groups);
        assert_eq!(out[0], vec![AttrId(0), AttrId(1), AttrId(2)]);
        assert_eq!(aug.size(), 2);
    }

    /// Greedy on a chain schema where sharing one attribute suffices.
    #[test]
    fn greedy_uses_implication_not_just_coverage() {
        let s = Schema::builder("r")
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Int)
            .attr("c", ValueType::Int)
            .build()
            .unwrap();
        let sigma = vec![
            parse_cfd(&s, "f1", "([a] -> [b])").unwrap(),
            parse_cfd(&s, "f2", "([b] -> [c])").unwrap(),
        ];
        // Fragments {a}, {b}, {c}: both FDs span fragments.
        let groups = vec![vec![AttrId(0)], vec![AttrId(1)], vec![AttrId(2)]];
        let exact = refine_exact(s.arity(), &groups, &sigma, 2).unwrap();
        assert_eq!(exact.size(), 2);
        let greedy = refine_greedy(s.arity(), &groups, &sigma).unwrap();
        assert!(is_preserved(s.arity(), &greedy.apply(&groups), &sigma));
        assert_eq!(greedy.size(), 2);
    }
}

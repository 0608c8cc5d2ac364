//! Hitting set: the source problem of Theorem 8, solved as the set cover
//! of its transposed instance.

use crate::setcover::SetCoverInstance;

/// An instance of hitting set: elements `{0, …, n_elements-1}` and a
/// collection of sets; a hitting set contains at least one element of
/// every set.
#[derive(Debug, Clone)]
pub struct HittingSetInstance {
    /// Number of elements in `X`.
    pub n_elements: usize,
    /// The collection `C` of sets to hit.
    pub sets: Vec<Vec<usize>>,
}

impl HittingSetInstance {
    /// Creates an instance, panicking on out-of-range elements.
    pub fn new(n_elements: usize, sets: Vec<Vec<usize>>) -> Self {
        for s in &sets {
            for &e in s {
                assert!(e < n_elements, "element {e} out of range {n_elements}");
            }
        }
        HittingSetInstance { n_elements, sets }
    }

    /// Whether `chosen` hits every set.
    pub fn is_hitting(&self, chosen: &[usize]) -> bool {
        self.sets.iter().all(|s| s.iter().any(|e| chosen.contains(e)))
    }

    /// The same instance as a set cover: the universe is the sets, and
    /// element `e` becomes the subset of the sets that contain it, so a
    /// hitting set is a cover, element for subset.
    fn transposed(&self) -> SetCoverInstance {
        let mut holders = vec![Vec::new(); self.n_elements];
        for (si, s) in self.sets.iter().enumerate() {
            for &e in s {
                if holders[e].last() != Some(&si) {
                    holders[e].push(si);
                }
            }
        }
        SetCoverInstance::new(self.sets.len(), holders)
    }

    /// Greedy hitting set: repeatedly pick the element occurring in the
    /// most un-hit sets (ties: smallest element) — the greedy cover of
    /// the transposed instance. `None` if some set is empty.
    pub fn greedy_hitting(&self) -> Option<Vec<usize>> {
        self.transposed().greedy_cover()
    }

    /// Exact minimum hitting set: the exact cover of the transposed
    /// instance (at most 63 sets). `None` if some set is empty.
    pub fn exact_hitting(&self) -> Option<Vec<usize>> {
        self.transposed().exact_cover()
    }

    /// Size of the minimum hitting set, if one exists.
    pub fn min_hitting_size(&self) -> Option<usize> {
        self.exact_hitting().map(|h| h.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shared_element_hits_everything() {
        let inst = HittingSetInstance::new(4, vec![vec![0, 1], vec![0, 2], vec![0, 3]]);
        let e = inst.exact_hitting().unwrap();
        assert_eq!(e, vec![0]);
        assert!(inst.is_hitting(&e));
    }

    #[test]
    fn disjoint_sets_need_one_each() {
        let inst = HittingSetInstance::new(6, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(inst.min_hitting_size(), Some(3));
    }

    #[test]
    fn greedy_is_a_valid_hitting_set() {
        let inst = HittingSetInstance::new(5, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]);
        let g = inst.greedy_hitting().unwrap();
        assert!(inst.is_hitting(&g));
        let e = inst.exact_hitting().unwrap();
        assert!(e.len() <= g.len());
        assert_eq!(e.len(), 2); // {1, 3}
    }

    #[test]
    fn empty_set_is_unhittable() {
        let inst = HittingSetInstance::new(3, vec![vec![0], vec![]]);
        assert!(inst.exact_hitting().is_none());
        assert!(inst.greedy_hitting().is_none());
    }

    #[test]
    fn no_sets_means_empty_hitting_set() {
        let inst = HittingSetInstance::new(3, vec![]);
        assert_eq!(inst.exact_hitting().unwrap().len(), 0);
    }
}

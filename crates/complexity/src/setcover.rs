//! Minimum set cover: the source problem of Theorems 1–4, and through
//! [`HittingSetInstance`](crate::HittingSetInstance) the solver of Theorem 8 too.

/// An instance of minimum set cover: a universe `{0, …, universe-1}` and
/// a collection of subsets. The decision problem asks for a subcollection
/// of size ≤ K covering the universe.
#[derive(Debug, Clone)]
pub struct SetCoverInstance {
    /// Size of the universe `X`.
    pub universe: usize,
    /// The collection `C` of subsets (element indices).
    pub subsets: Vec<Vec<usize>>,
}

impl SetCoverInstance {
    /// Creates an instance, panicking on out-of-range elements (these
    /// are test fixtures; fail fast).
    pub fn new(universe: usize, subsets: Vec<Vec<usize>>) -> Self {
        for s in &subsets {
            for &e in s {
                assert!(e < universe, "element {e} outside universe {universe}");
            }
        }
        SetCoverInstance { universe, subsets }
    }

    /// Whether the chosen subset indices cover the universe.
    pub(crate) fn is_cover(&self, chosen: &[usize]) -> bool {
        let mut covered = vec![false; self.universe];
        for &i in chosen {
            for &e in &self.subsets[i] {
                covered[e] = true;
            }
        }
        covered.iter().all(|&c| c)
    }

    /// The classical greedy cover (ln n approximation): repeatedly take
    /// the subset covering the most uncovered elements (ties: smallest
    /// index). Returns `None` if the universe is not coverable at all.
    pub fn greedy_cover(&self) -> Option<Vec<usize>> {
        let mut covered = vec![false; self.universe];
        let mut chosen = Vec::new();
        while covered.iter().any(|&c| !c) {
            let best = (0..self.subsets.len())
                .map(|i| {
                    let gain = self.subsets[i].iter().filter(|&&e| !covered[e]).count();
                    (gain, usize::MAX - i)
                })
                .enumerate()
                .max_by_key(|(_, key)| *key)
                .map(|(i, (gain, _))| (i, gain))?;
            let (idx, gain) = best;
            if gain == 0 {
                return None; // uncoverable
            }
            chosen.push(idx);
            for &e in &self.subsets[idx] {
                covered[e] = true;
            }
        }
        Some(chosen)
    }

    /// Exact minimum cover by branch and bound over subset bitmasks
    /// (universe ≤ 63). Returns `None` if uncoverable.
    pub fn exact_cover(&self) -> Option<Vec<usize>> {
        assert!(self.universe <= 63, "exact solver is for small instances");
        let full: u64 = if self.universe == 0 { 0 } else { (1u64 << self.universe) - 1 };
        let masks: Vec<u64> =
            self.subsets.iter().map(|s| s.iter().fold(0u64, |m, &e| m | (1 << e))).collect();
        let mut best: Option<Vec<usize>> = self.greedy_cover();
        let mut stack: Vec<usize> = Vec::new();
        fn dfs(
            pos: usize,
            covered: u64,
            full: u64,
            masks: &[u64],
            stack: &mut Vec<usize>,
            best: &mut Option<Vec<usize>>,
        ) {
            if covered == full {
                if best.as_ref().is_none_or(|b| stack.len() < b.len()) {
                    *best = Some(stack.clone());
                }
                return;
            }
            if pos == masks.len() {
                return;
            }
            if let Some(b) = best {
                if stack.len() + 1 > b.len() {
                    return; // cannot improve
                }
            }
            // Prune: remaining subsets must be able to cover the rest.
            let remaining: u64 = masks[pos..].iter().fold(0, |m, &x| m | x);
            if covered | remaining != full {
                return;
            }
            // Branch: take pos.
            stack.push(pos);
            dfs(pos + 1, covered | masks[pos], full, masks, stack, best);
            stack.pop();
            // Branch: skip pos.
            dfs(pos + 1, covered, full, masks, stack, best);
        }
        dfs(0, 0, full, &masks, &mut stack, &mut best);
        best.filter(|b| self.is_cover(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// X = {0..5}, classic instance where greedy (3 sets) is worse than
    /// optimal (2 sets): greedy grabs the 4-element bait, then needs two
    /// singletons-worth of patches.
    fn greedy_trap() -> SetCoverInstance {
        SetCoverInstance::new(
            6,
            vec![
                vec![0, 1, 2, 3], // bait
                vec![0, 1, 4],    // optimal half 1
                vec![2, 3, 5],    // optimal half 2
            ],
        )
    }

    #[test]
    fn greedy_returns_a_cover() {
        let inst = greedy_trap();
        let g = inst.greedy_cover().unwrap();
        assert!(inst.is_cover(&g));
        assert_eq!(g.len(), 3, "greedy falls into the trap");
    }

    #[test]
    fn exact_beats_greedy_on_trap() {
        let inst = greedy_trap();
        let e = inst.exact_cover().unwrap();
        assert!(inst.is_cover(&e));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn uncoverable_returns_none() {
        let inst = SetCoverInstance::new(3, vec![vec![0], vec![1]]);
        assert!(inst.greedy_cover().is_none());
        assert!(inst.exact_cover().is_none());
    }

    #[test]
    fn empty_universe_is_trivially_covered() {
        let inst = SetCoverInstance::new(0, vec![]);
        assert_eq!(inst.exact_cover().unwrap().len(), 0);
        assert_eq!(inst.greedy_cover().unwrap().len(), 0);
    }

    #[test]
    fn three_element_subsets_like_the_reduction() {
        // The paper's reductions assume |Ci| = 3; exercise that shape.
        let inst = SetCoverInstance::new(
            6,
            vec![vec![0, 1, 2], vec![2, 3, 4], vec![3, 4, 5], vec![0, 4, 5]],
        );
        let e = inst.exact_cover().unwrap();
        assert_eq!(e.len(), 2); // {0,1,2} + {3,4,5}
        assert!(inst.is_cover(&e));
    }

    #[test]
    fn out_of_range_element_panics() {
        let r = std::panic::catch_unwind(|| SetCoverInstance::new(2, vec![vec![5]]));
        assert!(r.is_err());
    }
}

//! Replicated horizontal fragments (§VIII): chained declustering.

use crate::horizontal::HorizontalPartition;
use crate::site::SiteId;
use dcd_relation::RelationError;

/// The chained-declustering placement rule: whether `site` holds a
/// replica of fragment `frag` among `n` sites at replication `factor`
/// (copies of fragment `f` live at sites `f, f+1, …, f+factor-1`
/// mod `n`; factor 1 is plain fragmentation). The single definition —
/// [`ReplicatedPartition::holds`] and every replica-aware protocol
/// (batch and incremental) route through it.
pub fn chained_holds(n: usize, factor: usize, site: usize, frag: usize) -> bool {
    debug_assert!(site < n && frag < n);
    (site + n - frag) % n < factor
}

/// A horizontal partition whose fragments are replicated across sites
/// by *chained declustering*: with factor `r`, fragment `f`'s copies
/// live at sites `f, f+1, …, f+r-1 (mod n)`. Factor 1 is plain
/// fragmentation; factor `n` is full replication (detection then ships
/// nothing — every coordinator reads all fragments locally).
#[derive(Debug, Clone)]
pub struct ReplicatedPartition {
    base: HorizontalPartition,
    factor: usize,
}

impl ReplicatedPartition {
    /// Replicates `base` at the given factor (`1 ≤ factor ≤ n_sites`).
    ///
    /// Refuses what [`HorizontalPartition::validate`] refuses of `base`,
    /// and a factor out of range ([`RelationError::InvalidPartition`]).
    /// `base` is read-only afterwards, so the replicated partition holds
    /// for as long as it lives.
    pub fn chained(base: HorizontalPartition, factor: usize) -> Result<Self, RelationError> {
        base.validate()?;
        let n = base.n_sites();
        if factor == 0 || factor > n {
            return Err(RelationError::InvalidPartition {
                detail: format!("replication factor {factor} out of range 1..={n}"),
            });
        }
        Ok(ReplicatedPartition { base, factor })
    }

    /// The primary copy of every fragment (fragment `f` at site `f`).
    pub fn base(&self) -> &HorizontalPartition {
        &self.base
    }

    /// The replication factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.base.n_sites()
    }

    /// Whether `site` holds a replica of fragment `frag`.
    pub fn holds(&self, site: SiteId, frag: usize) -> bool {
        chained_holds(self.base.n_sites(), self.factor, site.index(), frag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, Relation, Schema, ValueType};

    fn partition(n: usize) -> HorizontalPartition {
        let schema = Schema::builder("r").attr("x", ValueType::Int).build().unwrap();
        let rel = Relation::from_rows(schema, (0..12).map(|i| vals![i]).collect()).unwrap();
        HorizontalPartition::round_robin(&rel, n).unwrap()
    }

    #[test]
    fn factor_one_is_primaries_only() {
        let p = ReplicatedPartition::chained(partition(4), 1).unwrap();
        for s in 0..4 {
            for f in 0..4 {
                assert_eq!(p.holds(SiteId(s as u32), f), s == f);
            }
        }
    }

    #[test]
    fn chained_wraps_modulo_n() {
        let p = ReplicatedPartition::chained(partition(4), 2).unwrap();
        // Fragment 3's replicas: sites 3 and 0.
        assert!(p.holds(SiteId(3), 3));
        assert!(p.holds(SiteId(0), 3));
        assert!(!p.holds(SiteId(1), 3));
        // Each site holds exactly r fragments.
        for s in 0..4 {
            let held = (0..4).filter(|&f| p.holds(SiteId(s as u32), f)).count();
            assert_eq!(held, 2);
        }
    }

    #[test]
    fn full_replication_holds_everything() {
        let p = ReplicatedPartition::chained(partition(3), 3).unwrap();
        for s in 0..3 {
            for f in 0..3 {
                assert!(p.holds(SiteId(s as u32), f));
            }
        }
    }

    #[test]
    fn replica_sets_grow_with_the_factor() {
        let base = partition(5);
        for f in 0..5 {
            for s in 0..5 {
                let mut last = false;
                for r in 1..=5 {
                    let p = ReplicatedPartition::chained(base.clone(), r).unwrap();
                    let now = p.holds(SiteId(s as u32), f);
                    assert!(now || !last, "replica set shrank at r={r}");
                    last = now;
                }
            }
        }
    }

    #[test]
    fn out_of_range_factors_are_rejected() {
        assert!(ReplicatedPartition::chained(partition(3), 0).is_err());
        assert!(ReplicatedPartition::chained(partition(3), 4).is_err());
    }
}

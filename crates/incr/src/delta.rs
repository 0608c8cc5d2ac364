//! Per-site delta batches: the unit of the incremental protocol.

use dcd_relation::RelationDelta;

/// One round of changes across a horizontal partition: a
/// [`RelationDelta`] per site, in site order. Deletes must be routed to
/// the site holding the tuple; inserts define where the new tuple
/// lives. Within a batch, every site applies its deletes before its
/// inserts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    /// The per-site deltas, indexed by site.
    pub per_site: Vec<RelationDelta>,
}

impl DeltaBatch {
    /// A batch from explicit per-site deltas.
    pub fn new(per_site: Vec<RelationDelta>) -> Self {
        DeltaBatch { per_site }
    }

    /// Number of sites the batch covers.
    pub fn n_sites(&self) -> usize {
        self.per_site.len()
    }

    /// Total inserts across all sites.
    pub fn n_inserts(&self) -> usize {
        self.per_site.iter().map(|d| d.inserts.len()).sum()
    }

    /// Total deletes across all sites.
    pub fn n_deletes(&self) -> usize {
        self.per_site.iter().map(|d| d.deletes.len()).sum()
    }

    /// Total operations across all sites.
    pub fn n_ops(&self) -> usize {
        self.per_site.iter().map(RelationDelta::n_ops).sum()
    }

    /// Whether no site changes anything.
    pub fn is_empty(&self) -> bool {
        self.per_site.iter().all(RelationDelta::is_empty)
    }

    /// Collapses the batch into one site-order [`RelationDelta`] — the
    /// shape a vertical (whole-tuple feed) run consumes.
    pub fn flatten(&self) -> RelationDelta {
        let mut out = RelationDelta::default();
        for d in &self.per_site {
            out.deletes.extend(d.deletes.iter().copied());
            out.inserts.extend(d.inserts.iter().cloned());
        }
        out
    }
}

impl From<Vec<RelationDelta>> for DeltaBatch {
    fn from(per_site: Vec<RelationDelta>) -> Self {
        DeltaBatch::new(per_site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, Tuple, TupleId};

    #[test]
    fn counts_and_flatten_keep_site_order() {
        let batch = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(10), vals![1])], vec![TupleId(0)]),
            RelationDelta::default(),
            RelationDelta::new(vec![Tuple::new(TupleId(11), vals![2])], vec![TupleId(5)]),
        ]);
        assert_eq!(batch.n_sites(), 3);
        assert_eq!(batch.n_inserts(), 2);
        assert_eq!(batch.n_deletes(), 2);
        assert_eq!(batch.n_ops(), 4);
        assert!(!batch.is_empty());
        let flat = batch.flatten();
        assert_eq!(flat.deletes, vec![TupleId(0), TupleId(5)]);
        assert_eq!(flat.inserts[0].tid, TupleId(10));
        assert_eq!(flat.inserts[1].tid, TupleId(11));
        assert!(DeltaBatch::new(vec![RelationDelta::default()]).is_empty());
    }
}

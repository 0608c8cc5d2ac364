//! Per-site delta batches: the unit of the incremental protocol.

use dcd_relation::{FxHashMap, RelationDelta, TupleId};

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

    /// Merges `later` into this batch — widening the window by one
    /// round — and collapses insert+delete pairs of the same tuple id
    /// inside the combined window: a tuple inserted in the window and
    /// deleted later in the same window is never visible to detection
    /// once the window applies, so shipping the pair is pure waste.
    /// Returns the number of collapsed pairs; each saves its insert
    /// row (`arity + TID_CELLS` cells) *and* its delete row
    /// (`TID_CELLS` cells) on the wire.
    ///
    /// Ordering is preserved for everything that survives: per site,
    /// this batch's deletes run first, then `later`'s surviving
    /// deletes, then this batch's surviving inserts, then `later`'s
    /// inserts — the same final state as applying the two batches in
    /// sequence. A delete of a *pre-window* tuple is untouched (only
    /// ids inserted inside the window collapse), so a
    /// delete-then-reinsert of a stored tuple keeps its replace
    /// semantics.
    ///
    /// Both batches must cover the same sites.
    pub fn coalesce(&mut self, later: DeltaBatch) -> usize {
        assert_eq!(
            self.per_site.len(),
            later.per_site.len(),
            "coalesced batches must cover the same sites"
        );
        // Where each of this window's inserts lives: tid → site.
        let mut inserted_at: FxHashMap<TupleId, usize> = FxHashMap::default();
        for (site, delta) in self.per_site.iter().enumerate() {
            for t in &delta.inserts {
                inserted_at.insert(t.tid, site);
            }
        }
        // All of `later`'s deletes are matched against the window's
        // inserts *before* any of `later`'s own inserts join the
        // window: within one batch, deletes apply before inserts at
        // every site, so a delete in `later` can never refer to an
        // insert in `later` — e.g. a cross-site move (delete stored X
        // at site 1, insert X at site 0, same batch) must keep both
        // halves.
        let mut collapsed = 0usize;
        for (site, delta) in later.per_site.iter().enumerate() {
            for &tid in &delta.deletes {
                match inserted_at.remove(&tid) {
                    Some(origin) => {
                        // The pair cancels: drop the windowed insert
                        // (wherever it was routed) instead of shipping
                        // insert + delete.
                        let inserts = &mut self.per_site[origin].inserts;
                        let at = inserts
                            .iter()
                            .position(|t| t.tid == tid)
                            .expect("inserted_at points at a live insert");
                        inserts.remove(at);
                        collapsed += 1;
                    }
                    None => self.per_site[site].deletes.push(tid),
                }
            }
        }
        for (site, delta) in later.per_site.into_iter().enumerate() {
            self.per_site[site].inserts.extend(delta.inserts);
        }
        collapsed
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
    use dcd_relation::{vals, Tuple};

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

    #[test]
    fn coalesce_cancels_windowed_insert_delete_pairs() {
        // Round 1 inserts 10 at site 0 and 11 at site 1; round 2
        // deletes 10 (routed to site 0), deletes pre-window tuple 3,
        // and inserts 12.
        let mut window = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(10), vals![1])], vec![]),
            RelationDelta::new(vec![Tuple::new(TupleId(11), vals![2])], vec![]),
        ]);
        let later = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(12), vals![3])], vec![TupleId(10)]),
            RelationDelta::new(vec![], vec![TupleId(3)]),
        ]);
        let collapsed = window.coalesce(later);
        assert_eq!(collapsed, 1, "only the windowed pair (10) cancels");
        let all_inserts: Vec<TupleId> =
            window.per_site.iter().flat_map(|d| d.inserts.iter().map(|t| t.tid)).collect();
        assert!(!all_inserts.contains(&TupleId(10)), "insert 10 dropped");
        assert_eq!(window.per_site[1].deletes, vec![TupleId(3)], "pre-window delete survives");
        assert_eq!(window.n_inserts(), 2); // 11 and 12
        assert_eq!(window.n_deletes(), 1);
    }

    #[test]
    fn coalesce_keeps_cross_site_moves_inside_later() {
        // `later` moves pre-window tuple 7 from site 1 to site 0
        // (delete + reinsert in one batch — a shape apply_batch
        // permits). Neither half may cancel: the delete refers to the
        // *stored* tuple, not to any windowed insert, regardless of
        // the site order the ops are scanned in.
        let mut window = DeltaBatch::new(vec![RelationDelta::default(), RelationDelta::default()]);
        let later = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(7), vals![5])], vec![]),
            RelationDelta::new(vec![], vec![TupleId(7)]),
        ]);
        assert_eq!(window.coalesce(later), 0, "a move of a stored tuple must not collapse");
        assert_eq!(window.n_inserts(), 1);
        assert_eq!(window.per_site[1].deletes, vec![TupleId(7)]);
    }

    #[test]
    fn coalesce_keeps_replace_of_prewindow_tuples() {
        // Round 1 replaces stored tuple 0 (delete + reinsert); round 2
        // deletes it for good. The round-1 insert cancels against the
        // round-2 delete; the round-1 delete of the *stored* tuple
        // survives — net effect: tuple 0 is gone.
        let mut window = DeltaBatch::new(vec![RelationDelta::new(
            vec![Tuple::new(TupleId(0), vals![9])],
            vec![TupleId(0)],
        )]);
        let later = DeltaBatch::new(vec![RelationDelta::new(vec![], vec![TupleId(0)])]);
        assert_eq!(window.coalesce(later), 1);
        assert_eq!(window.n_inserts(), 0);
        assert_eq!(window.per_site[0].deletes, vec![TupleId(0)]);
    }

    /// The point of coalescing: the collapsed window ships strictly
    /// fewer cells through the delta protocol while ending in the same
    /// report.
    #[test]
    fn coalesced_window_charges_fewer_cells() {
        use crate::runner::IncrementalRun;
        use dcd_core::RunConfig;
        use dcd_dist::HorizontalPartition;
        use dcd_relation::{Relation, Schema, ValueType};

        let schema = Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap();
        let rel = Relation::from_rows(
            schema.clone(),
            (0..12).map(|i| vals![44, format!("z{}", i % 3), format!("s{i}")]).collect(),
        )
        .unwrap();
        let sigma = vec![dcd_cfd::parse_cfd(&schema, "phi", "([cc, zip] -> [street])").unwrap()];
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        // The same churn twice, all at site 1 (site 0 is the
        // coordinator, whose deltas never ship): tuple 100 is inserted
        // in round 1 and deleted in round 2; tuple 200 arrives and
        // stays.
        let round1 = DeltaBatch::new(vec![
            RelationDelta::default(),
            RelationDelta::new(vec![Tuple::new(TupleId(100), vals![44, "z0", "sX"])], vec![]),
        ]);
        let round2 = DeltaBatch::new(vec![
            RelationDelta::default(),
            RelationDelta::new(
                vec![Tuple::new(TupleId(200), vals![44, "z1", "sY"])],
                vec![TupleId(100)],
            ),
        ]);

        let cfg = RunConfig::default();
        let mut eager = IncrementalRun::new(partition.clone(), &sigma, cfg).unwrap();
        eager.apply_batch(&round1).unwrap();
        eager.apply_batch(&round2).unwrap();

        let mut window = round1.clone();
        assert_eq!(window.coalesce(round2), 1);
        let mut lazy = IncrementalRun::new(partition, &sigma, cfg).unwrap();
        lazy.apply_batch(&window).unwrap();

        assert!(
            lazy.detection().shipped_cells < eager.detection().shipped_cells,
            "coalesced {} !< eager {}",
            lazy.detection().shipped_cells,
            eager.detection().shipped_cells
        );
        // Same final state, same report.
        assert_eq!(eager.report(), lazy.report());
    }
}

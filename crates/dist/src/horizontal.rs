//! Horizontal fragmentation: `Di = σ_Fi(D)` (§II-B of the paper).

use crate::site::SiteId;
use dcd_relation::fxhash::FxBuildHasher;
use dcd_relation::{AttrId, Predicate, Relation, RelationError, Schema, TupleId};
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::sync::Arc;

/// One horizontal fragment `Di` at site `Si`.
///
/// The optional [`Predicate`] is the fragmentation condition `Fi`; when
/// present it enables the paper's *partitioning condition* optimization
/// (§IV-A): a site whose `Fi` contradicts a pattern's constants is
/// skipped without scanning.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The site holding this fragment.
    pub site: SiteId,
    /// The fragmentation predicate `Fi`, if the partition has one.
    pub predicate: Option<Predicate>,
    /// The fragment's tuples (tuple ids are those of the original `D`).
    pub data: Relation,
}

/// A horizontal partition `(D1, …, Dn)` of one relation across `n`
/// sites. Fragment `i` lives at site `i`.
#[derive(Debug, Clone)]
pub struct HorizontalPartition {
    schema: Arc<Schema>,
    fragments: Vec<Fragment>,
}

impl HorizontalPartition {
    /// Builds a partition from explicit fragments. Fragment `i` must be
    /// sited at `SiteId(i)` and share the partition schema.
    ///
    /// All fragments of a partition code against **one shared
    /// dictionary set** — that is what lets the detection algorithms
    /// ship bare dictionary codes between sites. Fragments built by
    /// this module's constructors already share (checked by `Arc`
    /// identity, which is free); fragments assembled by hand over
    /// their own dictionaries are re-encoded onto the first fragment's
    /// dictionaries here.
    ///
    /// Tuple ids must be distinct across the partition: the detectors
    /// report `Vio` as ids, so an id two fragments share would name
    /// tuples of both. A repeated id is rejected, naming it.
    pub fn from_fragments(
        schema: Arc<Schema>,
        fragments: Vec<Fragment>,
    ) -> Result<Self, RelationError> {
        let partition = Self::assemble(schema, fragments)?;
        partition.tids_distinct()?;
        Ok(partition)
    }

    /// [`Self::from_fragments`] for fragments whose tuple ids are
    /// distinct by construction — HYBRIDDETECT's cells re-cut one
    /// partition's rows — so the id check is left to debug builds.
    #[doc(hidden)]
    pub fn from_disjoint_fragments(
        schema: Arc<Schema>,
        fragments: Vec<Fragment>,
    ) -> Result<Self, RelationError> {
        let partition = Self::assemble(schema, fragments)?;
        debug_assert!(partition.tids_distinct().is_ok(), "repeated tuple id");
        Ok(partition)
    }

    /// [`Self::from_fragments`] without the tuple-id check: sites,
    /// schema and dictionary sharing only.
    fn assemble(schema: Arc<Schema>, mut fragments: Vec<Fragment>) -> Result<Self, RelationError> {
        if fragments.is_empty() {
            return Err(RelationError::InvalidPartition {
                detail: "a horizontal partition needs at least one fragment".into(),
            });
        }
        for (i, frag) in fragments.iter().enumerate() {
            if frag.site.index() != i {
                return Err(RelationError::InvalidPartition {
                    detail: format!(
                        "fragment {i} is sited at {} — sites must be sequential",
                        frag.site
                    ),
                });
            }
            if frag.data.schema().as_ref() != schema.as_ref() {
                return Err(RelationError::SchemaMismatch {
                    detail: format!(
                        "fragment {i} has schema `{}`, partition has `{}`",
                        frag.data.schema().name(),
                        schema.name()
                    ),
                });
            }
        }
        let (head, tail) = fragments.split_at_mut(1);
        for frag in tail {
            let shared = frag
                .data
                .columns()
                .iter()
                .zip(head[0].data.columns())
                .all(|(a, b)| Arc::ptr_eq(a.dict(), b.dict()));
            if !shared {
                let mut rebuilt = head[0].data.with_capacity_like(frag.data.len());
                rebuilt.extend_tuples(frag.data.iter().collect())?;
                frag.data = rebuilt;
            }
        }
        Ok(HorizontalPartition { schema, fragments })
    }

    /// Fragment `i` holds rows `buckets[i]` of `rel` under `predicates[i]`.
    /// Fragments share the parent's dictionaries, so rows move as codes:
    /// comparable across sites, nothing re-encoded. The buckets are
    /// disjoint rows of one relation, so their ids are distinct without
    /// a check.
    fn from_buckets(
        rel: &Relation,
        buckets: Vec<Vec<usize>>,
        predicates: Vec<Option<Predicate>>,
    ) -> Result<Self, RelationError> {
        let fragments = buckets
            .iter()
            .zip(predicates)
            .enumerate()
            .map(|(i, (rows, predicate))| Fragment {
                site: SiteId(i as u32),
                predicate,
                data: rel.copy_rows(rows),
            })
            .collect();
        Self::assemble(rel.schema().clone(), fragments)
    }

    /// Distributes tuples over `n` sites round-robin (tuple `i` goes to
    /// site `i mod n`) — the paper's "uniform distribution" setup.
    pub fn round_robin(rel: &Relation, n: usize) -> Result<Self, RelationError> {
        if n == 0 {
            return Err(RelationError::InvalidPartition {
                detail: "cannot partition over zero sites".into(),
            });
        }
        let buckets = (0..n).map(|site| (site..rel.len()).step_by(n).collect()).collect();
        Self::from_buckets(rel, buckets, vec![None; n])
    }

    /// Distributes tuples over `n` sites by hashing the value of one
    /// attribute, so tuples agreeing on `attr` are co-located (the
    /// xrefH "fragmented by reference type" setup of §VI).
    pub fn by_attribute(rel: &Relation, attr: &str, n: usize) -> Result<Self, RelationError> {
        if n == 0 {
            return Err(RelationError::InvalidPartition {
                detail: "cannot partition over zero sites".into(),
            });
        }
        let a = rel.schema().require(attr)?;
        let hasher = FxBuildHasher::default();
        // One hash per distinct value, not per row.
        let site_of_code: Vec<usize> = rel
            .dictionary(a)
            .snapshot()
            .iter()
            .map(|v| (hasher.hash_one(v) % n as u64) as usize)
            .collect();
        let mut buckets: Vec<Vec<usize>> = (0..n).map(|_| Vec::new()).collect();
        for (i, code) in rel.column(a).codes().iter().enumerate() {
            buckets[site_of_code[code as usize]].push(i);
        }
        Self::from_buckets(rel, buckets, vec![None; n])
    }

    /// Distributes tuples by selection predicates: tuple → first
    /// matching `Fi` (`Di = σ_Fi(D)`; Fig. 1(b)'s partition by title).
    /// Errs if some tuple satisfies no predicate — the partition would
    /// be lossy.
    pub fn by_predicates(
        rel: &Relation,
        predicates: Vec<Predicate>,
    ) -> Result<Self, RelationError> {
        if predicates.is_empty() {
            return Err(RelationError::InvalidPartition {
                detail: "cannot partition over zero predicates".into(),
            });
        }
        let mut buckets: Vec<Vec<usize>> = (0..predicates.len()).map(|_| Vec::new()).collect();
        for (row, t) in rel.iter().enumerate() {
            match predicates.iter().position(|p| p.eval(&t)) {
                Some(i) => buckets[i].push(row),
                None => {
                    return Err(RelationError::InvalidPartition {
                        detail: format!("tuple {} satisfies no fragmentation predicate", t.tid),
                    })
                }
            }
        }
        Self::from_buckets(rel, buckets, predicates.into_iter().map(Some).collect())
    }

    /// The shared schema `R`.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of sites `n`.
    pub fn n_sites(&self) -> usize {
        self.fragments.len()
    }

    /// All fragments, in site order.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Mutable access to the fragments — the incremental-maintenance
    /// hook: delta batches are applied at the owning site's fragment in
    /// place. Callers must preserve the partition invariants
    /// ([`Self::validate`]): sequential sites, the shared schema, and
    /// pairwise-disjoint tuple ids. The fragments' shared dictionaries
    /// make every mutation code-compatible across sites by
    /// construction.
    pub fn fragments_mut(&mut self) -> &mut [Fragment] {
        &mut self.fragments
    }

    /// The fragment at one site.
    pub fn fragment(&self, site: SiteId) -> &Fragment {
        &self.fragments[site.index()]
    }

    /// Total number of tuples across all fragments.
    pub fn total_tuples(&self) -> usize {
        self.fragments.iter().map(|f| f.data.len()).sum()
    }

    /// Checks the §II-B invariants: sequential sites, one shared schema,
    /// pairwise-disjoint tuple ids, and (when predicates are present)
    /// every tuple satisfying its own fragment's predicate.
    pub fn validate(&self) -> Result<(), RelationError> {
        self.tids_distinct()?;
        for (i, frag) in self.fragments.iter().enumerate() {
            if frag.site.index() != i {
                return Err(RelationError::InvalidPartition {
                    detail: format!("fragment {i} sited at {}", frag.site),
                });
            }
            if let Some(p) = &frag.predicate {
                if let Some(t) = frag.data.iter().find(|t| !p.eval(t)) {
                    return Err(RelationError::InvalidPartition {
                        detail: format!(
                            "tuple {} violates its fragment predicate at {}",
                            t.tid, frag.site
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Rejects the first tuple id that appears twice in the partition.
    fn tids_distinct(&self) -> Result<(), RelationError> {
        let mut seen: HashSet<TupleId> = HashSet::with_capacity(self.total_tuples());
        match self.fragments.iter().flat_map(|f| f.data.tids()).find(|&&tid| !seen.insert(tid)) {
            Some(tid) => Err(RelationError::InvalidPartition {
                detail: format!("tuple {tid} appears twice in the partition"),
            }),
            None => Ok(()),
        }
    }

    /// Reassembles the original relation (fragment order; tuple ids are
    /// preserved, so detection results on the reassembly are comparable
    /// with distributed ones).
    pub fn reassemble(&self) -> Result<Relation, RelationError> {
        // The fragments share one dictionary set, so the reassembly
        // copies codes.
        let attrs: Vec<AttrId> = self.schema.attr_ids().collect();
        let mut out = self.fragments[0].data.with_capacity_like(self.total_tuples());
        for frag in &self.fragments {
            out.extend_from(&frag.data, &attrs, &(0..frag.data.len()).collect::<Vec<_>>())?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, Atom, Schema, ValueType};

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("name", ValueType::Str)
            .build()
            .unwrap()
    }

    fn rel(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n).map(|i| vals![(i % 3) as i64, format!("n{i}")]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn round_robin_interleaves() {
        let r = rel(7);
        let p = HorizontalPartition::round_robin(&r, 3).unwrap();
        assert_eq!(p.n_sites(), 3);
        assert_eq!(p.fragment(SiteId(0)).data.len(), 3); // tuples 0, 3, 6
        assert_eq!(p.fragment(SiteId(1)).data.len(), 2);
        assert_eq!(p.fragment(SiteId(2)).data.len(), 2);
        assert_eq!(p.fragment(SiteId(0)).data.tids()[1].0, 3);
        p.validate().unwrap();
    }

    #[test]
    fn round_robin_rejects_zero_sites() {
        assert!(HorizontalPartition::round_robin(&rel(3), 0).is_err());
    }

    #[test]
    fn by_attribute_colocates_equal_values() {
        let r = rel(30);
        let p = HorizontalPartition::by_attribute(&r, "cc", 2).unwrap();
        let cc = r.schema().require("cc").unwrap();
        // Every site's multiset of cc values must be internally
        // consistent: a value appears at exactly one site.
        let mut site_of_value = std::collections::HashMap::new();
        for f in p.fragments() {
            for t in f.data.iter() {
                let prev = site_of_value.insert(t.get(cc).clone(), f.site);
                if let Some(prev) = prev {
                    assert_eq!(prev, f.site, "value split across sites");
                }
            }
        }
        assert_eq!(p.total_tuples(), 30);
        assert!(HorizontalPartition::by_attribute(&r, "nope", 2).is_err());
    }

    #[test]
    fn by_predicates_records_conditions_and_rejects_gaps() {
        let r = rel(9);
        let cc = r.schema().require("cc").unwrap();
        let p = HorizontalPartition::by_predicates(
            &r,
            vec![
                Predicate::atom(Atom::eq(cc, 0)),
                Predicate::atom(Atom::eq(cc, 1)),
                Predicate::atom(Atom::eq(cc, 2)),
            ],
        )
        .unwrap();
        p.validate().unwrap();
        assert!(p.fragments().iter().all(|f| f.predicate.is_some()));
        // Dropping one predicate leaves cc=2 tuples homeless.
        let err = HorizontalPartition::by_predicates(
            &r,
            vec![Predicate::atom(Atom::eq(cc, 0)), Predicate::atom(Atom::eq(cc, 1))],
        );
        assert!(err.is_err());
    }

    #[test]
    fn from_fragments_validates_sites_and_schema() {
        let r = rel(4);
        let other = Schema::builder("other").attr("x", ValueType::Int).build().unwrap();
        let bad_schema = HorizontalPartition::from_fragments(
            r.schema().clone(),
            vec![Fragment { site: SiteId(0), predicate: None, data: Relation::new(other) }],
        );
        assert!(bad_schema.is_err());
        let bad_site = HorizontalPartition::from_fragments(
            r.schema().clone(),
            vec![Fragment {
                site: SiteId(1),
                predicate: None,
                data: Relation::new(r.schema().clone()),
            }],
        );
        assert!(bad_site.is_err());
    }

    #[test]
    fn reassemble_round_trips_tuple_multiset() {
        let r = rel(11);
        let p = HorizontalPartition::round_robin(&r, 4).unwrap();
        let back = p.reassemble().unwrap();
        assert_eq!(back.len(), r.len());
        let mut orig: Vec<_> = r.iter().collect();
        let mut got: Vec<_> = back.iter().collect();
        orig.sort_by_key(|t| t.tid);
        got.sort_by_key(|t| t.tid);
        assert_eq!(orig, got);
    }

    #[test]
    fn validate_catches_duplicated_tuples() {
        let r = rel(2);
        let mut d0 = Relation::new(r.schema().clone());
        d0.push_tuple(r.row(0)).unwrap();
        let mut d1 = Relation::new(r.schema().clone());
        d1.push_tuple(r.row(0)).unwrap(); // same tid again
        let fragments = vec![
            Fragment { site: SiteId(0), predicate: None, data: d0 },
            Fragment { site: SiteId(1), predicate: None, data: d1 },
        ];
        let err = HorizontalPartition::from_fragments(r.schema().clone(), fragments.clone());
        let Err(RelationError::InvalidPartition { detail }) = err else {
            panic!("a repeated id must be an InvalidPartition, got {err:?}");
        };
        assert!(detail.contains("t0"), "{detail}");
        // Fragments mutated into the same state after construction are
        // caught by `validate`.
        let mut p =
            HorizontalPartition::from_fragments(r.schema().clone(), fragments[..1].to_vec())
                .unwrap();
        p.fragments.push(fragments[1].clone());
        assert!(p.validate().is_err());
    }

    #[test]
    fn empty_fragments_are_fine() {
        let r = rel(2);
        let p = HorizontalPartition::round_robin(&r, 5).unwrap();
        assert_eq!(p.n_sites(), 5);
        assert_eq!(p.fragment(SiteId(4)).data.len(), 0);
        p.validate().unwrap();
    }
}

//! Horizontal fragmentation: `Di = σ_Fi(D)` (§II-B of the paper).

use crate::pool::scoped_map;
use crate::site::SiteId;
use dcd_relation::fxhash::FxBuildHasher;
use dcd_relation::{
    AttrId, DeltaEffect, Dictionary, EncodedDelta, FxHashSet, PendingDelta, Predicate, Relation,
    RelationDelta, RelationError, Schema, TupleId,
};
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
    pub(crate) schema: Arc<Schema>,
    pub(crate) fragments: Vec<Fragment>,
}

impl HorizontalPartition {
    /// Builds a partition from explicit fragments, fragment `i` sited at
    /// `SiteId(i)`. All fragments code against **one shared dictionary
    /// set**, which lets the detectors ship bare codes between sites: a
    /// fragment assembled by hand over its own dictionaries is
    /// re-encoded onto the first fragment's here. The partition is then
    /// refused with what [`Self::validate`] refuses.
    pub fn from_fragments(
        schema: Arc<Schema>,
        mut fragments: Vec<Fragment>,
    ) -> Result<Self, RelationError> {
        if let Some((head, tail)) = fragments.split_first_mut() {
            let dicts = dictionaries(&head.data);
            for frag in tail {
                let same_schema = frag.data.schema() == head.data.schema();
                if same_schema && foreign_dictionary(&frag.data, &dicts).is_some() {
                    let mut rebuilt = head.data.with_capacity_like(frag.data.len());
                    rebuilt.extend_tuples(frag.data.iter().collect())?;
                    frag.data = rebuilt;
                }
            }
        }
        let partition = HorizontalPartition { schema, fragments };
        partition.validate()?;
        Ok(partition)
    }

    /// Fragment `i` holds rows `buckets[i]` of `rel` under `predicates[i]`.
    /// Fragments share the parent's dictionaries, so rows move as codes:
    /// comparable across sites, nothing re-encoded. The buckets are
    /// disjoint rows of one relation, each under the predicate that
    /// placed it, so the partition holds by construction and nothing
    /// is checked.
    fn from_buckets(
        rel: &Relation,
        buckets: Vec<Vec<usize>>,
        predicates: Vec<Option<Predicate>>,
    ) -> Self {
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
        HorizontalPartition { schema: rel.schema().clone(), fragments }
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
        Ok(Self::from_buckets(rel, buckets, vec![None; n]))
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
        rel.column(a).codes().zip_in(0..rel.len(), 0.., |i, code| {
            buckets[site_of_code[code as usize]].push(i);
        });
        Ok(Self::from_buckets(rel, buckets, vec![None; n]))
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
        Ok(Self::from_buckets(rel, buckets, predicates.into_iter().map(Some).collect()))
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

    /// Mutable access to the fragments, unchecked: a session changes
    /// them through [`Self::apply_delta`] instead. Nothing checks a
    /// change made here until the partition is accepted again, by
    /// `DetectRequest::plan`,
    /// [`ReplicatedPartition::chained`](crate::ReplicatedPartition::chained)
    /// or [`HybridPartition::new`](crate::HybridPartition::new): each
    /// refuses what [`Self::validate`] refuses.
    pub fn fragments_mut(&mut self) -> &mut [Fragment] {
        &mut self.fragments
    }

    /// Applies one delta batch, `deltas[i]` at site `i`, keeping what
    /// [`Self::validate`] checks: the one way a session changes a
    /// horizontal partition. Refused with every fragment as it was: a
    /// batch of another width than the partition, and an insert outside
    /// its fragment's predicate `Fi` (`InvalidPartition`, naming the
    /// tuple); an insert id two sites' deltas carry, or one live at some
    /// site and not deleted by the batch (`DuplicateTuple`); and what
    /// [`Relation::locate_delta`] refuses at any site. Every site's delta
    /// is checked and located before any applies, in parallel on up to
    /// `threads` participants. Returns the per-site effects, in site
    /// order.
    pub fn apply_delta(
        &mut self,
        deltas: &[RelationDelta],
        threads: usize,
    ) -> Result<Vec<DeltaEffect>, RelationError> {
        let n = self.fragments.len();
        if deltas.len() != n {
            let detail = format!("delta batch covers {} sites, partition has {n}", deltas.len());
            return Err(RelationError::InvalidPartition { detail });
        }
        // A site sees only its own fragment, so the ids are checked across
        // sites here, before anything mutates.
        let mut ids: FxHashSet<TupleId> = FxHashSet::default();
        if let Some(t) = deltas.iter().flat_map(|d| &d.inserts).find(|t| !ids.insert(t.tid)) {
            return Err(RelationError::DuplicateTuple { tid: t.tid.0 });
        }
        for tid in deltas.iter().flat_map(|d| &d.deletes) {
            ids.remove(tid);
        }
        let inserted = deltas.iter().flat_map(|d| &d.inserts).map(|t| t.tid);
        let kept: Vec<TupleId> = inserted.filter(|tid| ids.contains(tid)).collect();
        for frag in self.fragments.iter().filter(|_| !kept.is_empty()) {
            if let Some(i) = frag.data.positions_of(&kept).into_iter().flatten().min() {
                return Err(RelationError::DuplicateTuple { tid: frag.data.tids()[i].0 });
            }
        }
        let (data, predicates): (Vec<_>, Vec<_>) = self
            .fragments
            .iter_mut()
            .map(|f| (&mut f.data, (f.site, f.predicate.as_ref())))
            .unzip();
        locate_then_apply(threads, data.into_iter().zip(deltas), |i, delta| {
            let (site, p) = predicates[i];
            match p.and_then(|p| delta.inserts.iter().find(|t| !p.eval(t))) {
                Some(t) => Err(outside_predicate(t.tid, site)),
                None => Ok(()),
            }
        })
    }

    /// The fragment at one site.
    pub fn fragment(&self, site: SiteId) -> &Fragment {
        &self.fragments[site.index()]
    }

    /// Total number of tuples across all fragments.
    pub fn total_tuples(&self) -> usize {
        self.fragments.iter().map(|f| f.data.len()).sum()
    }

    /// The one partition check: the §II-B invariants every detector
    /// relies on, plus the shared dictionary set. Refuses, in this order,
    /// no fragments or a site out of sequence (`InvalidPartition`); a
    /// fragment over another schema, or on dictionaries of its own
    /// ([`Self::shared_dictionaries`]) (`SchemaMismatch`); a tuple id two
    /// fragments hold, and a tuple outside its fragment's predicate `Fi`
    /// (`InvalidPartition`, naming the tuple).
    ///
    /// [`Self::from_fragments`], `DetectRequest::plan`,
    /// [`ReplicatedPartition::chained`](crate::ReplicatedPartition::chained)
    /// and [`HybridPartition::new`](crate::HybridPartition::new) run it; the
    /// other constructors cut one relation and hold by construction, and
    /// [`Self::apply_delta`] refuses a batch that would break it.
    pub fn validate(&self) -> Result<(), RelationError> {
        let invalid = |detail: String| Err(RelationError::InvalidPartition { detail });
        if self.fragments.is_empty() {
            return invalid("a horizontal partition needs at least one fragment".into());
        }
        for (i, frag) in self.fragments.iter().enumerate() {
            if frag.site.index() != i {
                let site = frag.site;
                return invalid(format!(
                    "fragment {i} is sited at {site} — sites must be sequential"
                ));
            }
            if frag.data.schema() != &self.schema {
                let (frag, own) = (frag.data.schema().name(), self.schema.name());
                let detail = format!("fragment {i} has schema `{frag}`, partition has `{own}`");
                return Err(RelationError::SchemaMismatch { detail });
            }
        }
        self.shared_dictionaries()?;
        let mut seen: HashSet<TupleId> = HashSet::with_capacity(self.total_tuples());
        let mut tids = self.fragments.iter().flat_map(|f| f.data.tids());
        if let Some(tid) = tids.find(|&&tid| !seen.insert(tid)) {
            return invalid(format!("tuple {tid} appears twice in the partition"));
        }
        for frag in &self.fragments {
            let p = frag.predicate.as_ref();
            if let Some(t) = p.and_then(|p| frag.data.iter().find(|t| !p.eval(t))) {
                return Err(outside_predicate(t.tid, frag.site));
            }
        }
        Ok(())
    }

    /// The partition's dictionary set: fragment 0's, one per attribute,
    /// which every fragment must code against — the rule that makes a
    /// code mean one value at every site. A fragment on a dictionary of
    /// its own is refused with [`RelationError::SchemaMismatch`], naming
    /// its site and the attribute.
    pub fn shared_dictionaries(&self) -> Result<Vec<Arc<Dictionary>>, RelationError> {
        let dicts = dictionaries(&self.fragments[0].data);
        for frag in &self.fragments[1..] {
            if let Some(a) = foreign_dictionary(&frag.data, &dicts) {
                let site = frag.site;
                let detail = format!(
                    "fragment at {site} codes attribute {a} on a dictionary of its own; \
                     build the partition through the dcd-dist constructors"
                );
                return Err(RelationError::SchemaMismatch { detail });
            }
        }
        Ok(dicts)
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

/// Locates each part's delta ([`Relation::locate_delta`]) and puts it
/// to `admit` with the part's index, then encodes every part's inserts
/// ([`PendingDelta::encode`]) and applies them all: the one write path
/// of both partition kinds. Locating and applying run in parallel on up
/// to `threads` participants; encoding runs on this thread, part after
/// part, so every dictionary interns a batch's new values in part order
/// and row order whatever `threads` is — the codes, and so the columns'
/// widths, are a function of the batches alone. The first refusal in
/// part order comes back before any relation's rows mutate (a
/// dictionary a refused encoding filled keeps what it took); an empty
/// delta is neither located nor applied, and its effect is empty.
pub(crate) fn locate_then_apply<'r, 'd>(
    threads: usize,
    parts: impl IntoIterator<Item = (&'r mut Relation, &'d RelationDelta)>,
    admit: impl Fn(usize, &RelationDelta) -> Result<(), RelationError> + Sync,
) -> Result<Vec<DeltaEffect>, RelationError> {
    let located = scoped_map(threads, parts.into_iter().enumerate(), |(i, (data, delta))| {
        let pending = (!delta.is_empty()).then(|| data.locate_delta(delta)).transpose()?;
        admit(i, delta).map(|()| pending)
    });
    let pending: Vec<Option<PendingDelta<'_, '_>>> =
        located.into_iter().collect::<Result<_, _>>()?;
    let encoded: Vec<Option<EncodedDelta<'_, '_>>> = pending
        .into_iter()
        .map(|p| p.map(PendingDelta::encode).transpose())
        .collect::<Result<_, _>>()?;
    Ok(scoped_map(threads, encoded, |e| e.map_or_else(DeltaEffect::default, EncodedDelta::apply)))
}

/// The refusal of a tuple outside its fragment's predicate `Fi`.
fn outside_predicate(tid: TupleId, site: SiteId) -> RelationError {
    let detail = format!("tuple {tid} violates its fragment predicate at {site}");
    RelationError::InvalidPartition { detail }
}

/// One dictionary per attribute of `data`, in schema order.
fn dictionaries(data: &Relation) -> Vec<Arc<Dictionary>> {
    data.columns().iter().map(|c| c.dict().clone()).collect()
}

/// The first attribute `data` codes against another dictionary than
/// `dicts` holds for it (`Arc` identity).
fn foreign_dictionary(data: &Relation, dicts: &[Arc<Dictionary>]) -> Option<usize> {
    data.columns().iter().zip(dicts).position(|(c, d)| !Arc::ptr_eq(c.dict(), d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, Atom, Schema, Tuple, ValueType};

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

    /// Each refusal of `apply_delta` leaves every fragment as it was, at
    /// either pool width; a batch that keeps the invariants — a tuple
    /// moved from one site to another among them — applies.
    #[test]
    fn a_refused_delta_batch_changes_no_fragment() {
        let r = rel(9);
        let cc = r.schema().require("cc").unwrap();
        let predicates = (0..3).map(|v| Predicate::atom(Atom::eq(cc, v))).collect();
        let mut p = HorizontalPartition::by_predicates(&r, predicates).unwrap();
        let tuple = |tid: u64, cc: i64| Tuple::new(TupleId(tid), vals![cc, format!("n{tid}")]);
        let insert_at = |site: usize, t: Tuple| {
            let mut batch = vec![RelationDelta::default(); 3];
            batch[site].inserts.push(t);
            batch
        };
        let mut repeated = insert_at(0, tuple(20, 0));
        repeated[2].inserts.push(tuple(20, 2));
        let live_at_site_1 = tuple(1, 0);
        let rows = |p: &HorizontalPartition| {
            p.fragments().iter().map(|f| f.data.iter().collect::<Vec<_>>()).collect::<Vec<_>>()
        };
        let before = rows(&p);
        let invalid = |detail: &str| RelationError::InvalidPartition { detail: detail.into() };
        let cases = [
            (
                vec![RelationDelta::default(); 2],
                invalid("delta batch covers 2 sites, partition has 3"),
            ),
            (repeated, RelationError::DuplicateTuple { tid: 20 }),
            (insert_at(0, live_at_site_1.clone()), RelationError::DuplicateTuple { tid: 1 }),
            (
                insert_at(0, tuple(20, 1)),
                invalid("tuple t20 violates its fragment predicate at S1"),
            ),
        ];
        for (batch, want) in cases {
            for threads in [1, 4] {
                assert_eq!(p.apply_delta(&batch, threads), Err(want.clone()));
                assert_eq!(rows(&p), before, "{want:?}");
            }
        }

        let mut moved = insert_at(0, live_at_site_1);
        moved[1].deletes.push(TupleId(1));
        let effects = p.apply_delta(&moved, 4).unwrap();
        assert_eq!(effects.iter().map(DeltaEffect::n_rows).collect::<Vec<_>>(), [1, 1, 0]);
        assert!(effects[2].is_empty());
        p.validate().unwrap();
        assert!(p.fragment(SiteId(0)).data.tids().contains(&TupleId(1)));
        assert!(!p.fragment(SiteId(1)).data.tids().contains(&TupleId(1)));
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

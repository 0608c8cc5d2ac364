//! Vertical fragmentation: `Di = π_{key ∪ Xi}(D)` (§II-B, §V).
//!
//! Every fragment holds the same tuples in the same row order, so row
//! `r` is one tuple at every site. One rule says which fragment supplies
//! an attribute, [`VerticalPartition::gather_plan`] (§V): a detection
//! round plans the columns it needs, and reassembly, delta effects and
//! the dictionary set ([`VerticalPartition::dictionaries`]) read the plan
//! of every attribute. A coordinator reads the planned columns where
//! their suppliers hold them ([`VerticalPartition::columns`]), at any
//! rows, without copying them.

use crate::horizontal::locate_then_apply;
use crate::site::SiteId;
use dcd_relation::{
    ops, AttrId, Codes, DeltaEffect, Dictionary, Relation, RelationDelta, RelationError, Schema,
    Tuple, TupleId,
};
use std::sync::Arc;

/// `(tid, code row)` pairs, one side of a [`DeltaEffect`].
type CodeRows = Vec<(TupleId, Box<[u32]>)>;

/// One vertical fragment: a projection of the relation onto the key plus
/// a group of attributes, placed at one site.
#[derive(Debug, Clone)]
pub struct VFragment {
    /// The site holding this fragment.
    pub site: SiteId,
    /// The fragment's attributes as ids of the *original* schema, key
    /// attributes first. `data`'s own schema lists them in this order.
    pub attrs: Vec<AttrId>,
    /// The projected tuples (tuple ids preserved, enabling key-free
    /// reassembly and cross-fragment joins).
    pub data: Relation,
}

impl VFragment {
    /// The position of an original-schema attribute inside this
    /// fragment's own schema, if present.
    pub fn local_attr(&self, orig: AttrId) -> Option<AttrId> {
        self.attrs.iter().position(|&a| a == orig).map(|i| AttrId(i as u16))
    }
}

/// A vertical partition of one relation: each fragment holds the key
/// plus one attribute group; together (with the key) they cover the
/// schema, so the relation is losslessly reassemblable by tuple id.
///
/// Every fragment holds the same tuples in the same row order — the
/// constructors project one relation, and [`Self::apply_delta`] is the
/// only way to change them — so row `r` of one fragment and row `r` of
/// another are the same tuple.
#[derive(Debug, Clone)]
pub struct VerticalPartition {
    schema: Arc<Schema>,
    fragments: Vec<VFragment>,
}

impl VerticalPartition {
    /// Builds a vertical partition from named attribute groups. The
    /// schema's key is added to every group automatically; every non-key
    /// attribute must appear in at least one group (else reassembly
    /// would lose columns), and the schema must declare a key (vertical
    /// fragments join on it).
    pub fn by_attribute_groups(rel: &Relation, groups: &[&[&str]]) -> Result<Self, RelationError> {
        let schema = rel.schema();
        let id_groups: Vec<Vec<AttrId>> =
            groups.iter().map(|names| schema.require_all(names)).collect::<Result<_, _>>()?;
        Self::from_attr_groups(rel, &id_groups)
    }

    /// Builds a vertical partition from attribute-id groups (key added
    /// to each automatically; see [`Self::by_attribute_groups`]).
    pub(crate) fn from_attr_groups(
        rel: &Relation,
        groups: &[Vec<AttrId>],
    ) -> Result<Self, RelationError> {
        let schema = rel.schema().clone();
        if groups.is_empty() {
            return Err(RelationError::InvalidPartition {
                detail: "cannot partition over zero attribute groups".into(),
            });
        }
        if schema.key().is_empty() {
            return Err(RelationError::InvalidKey {
                detail: format!(
                    "vertical fragmentation of `{}` requires a declared key",
                    schema.name()
                ),
            });
        }
        // Coverage: key ∪ groups must span the schema.
        for a in schema.attr_ids() {
            let covered = schema.key().contains(&a) || groups.iter().any(|g| g.contains(&a));
            if !covered {
                return Err(RelationError::InvalidPartition {
                    detail: format!(
                        "attribute `{}` belongs to no vertical group",
                        schema.attr_name(a)
                    ),
                });
            }
        }
        let mut fragments = Vec::with_capacity(groups.len());
        for (i, group) in groups.iter().enumerate() {
            // Key first, then the group's own attributes in given order.
            let mut attrs: Vec<AttrId> = schema.key().to_vec();
            for &a in group {
                if !attrs.contains(&a) {
                    attrs.push(a);
                }
            }
            // The projection shares the parent's dictionaries, so codes
            // stay comparable across vertical fragments (the
            // reconstruction join compares key codes directly).
            let data = ops::project(rel, &format!("{}_v{}", schema.name(), i + 1), &attrs)?;
            fragments.push(VFragment { site: SiteId(i as u32), attrs, data });
        }
        Ok(VerticalPartition { schema, fragments })
    }

    /// The original (unfragmented) schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of sites (= fragments).
    pub fn n_sites(&self) -> usize {
        self.fragments.len()
    }

    /// All fragments, in site order.
    pub fn fragments(&self) -> &[VFragment] {
        &self.fragments
    }

    /// Applies one whole-tuple delta to every fragment: each receives
    /// its projection (same deletes, same inserts in the same order).
    /// Every projection is checked and located
    /// ([`Relation::locate_delta`]) before any fragment mutates — in
    /// parallel on up to `threads` participants, as
    /// [`HorizontalPartition::apply_delta`](crate::HorizontalPartition::apply_delta)
    /// does — so a delta one
    /// fragment rejects (an unknown delete id, a live insert id, an
    /// insert ill-typed in that fragment's attributes) changes none; the
    /// first error in site order is returned. Returns the full-width
    /// effect in original-schema order, each cell read from the effect
    /// of the fragment the plan of every attribute
    /// ([`Self::gather_plan`]) takes it from.
    pub fn apply_delta(
        &mut self,
        delta: &RelationDelta,
        threads: usize,
    ) -> Result<DeltaEffect, RelationError> {
        let arity = self.schema.arity();
        if let Some(t) = delta.inserts.iter().find(|t| t.values().len() != arity) {
            return Err(RelationError::ArityMismatch { expected: arity, got: t.values().len() });
        }
        let suppliers = self.suppliers();
        let projected: Vec<RelationDelta> = self
            .fragments
            .iter()
            .map(|frag| {
                let inserts =
                    delta.inserts.iter().map(|t| Tuple::new(t.tid, t.project(&frag.attrs)));
                RelationDelta::new(inserts.collect(), delta.deletes.clone())
            })
            .collect();
        let parts = self.fragments.iter_mut().map(|frag| &mut frag.data).zip(&projected);
        let effects = locate_then_apply(threads, parts, |_, _| Ok(()))?;
        let full_width = |side: fn(&DeltaEffect) -> &CodeRows| {
            let tids = side(&effects[0]).iter().map(|&(tid, _)| tid);
            let cells = |r: usize| -> Box<[u32]> {
                suppliers.iter().map(|&(f, at)| side(&effects[f])[r].1[at.index()]).collect()
            };
            tids.enumerate().map(|(r, tid)| (tid, cells(r))).collect()
        };
        Ok(DeltaEffect {
            inserted: full_width(|e| &e.inserted),
            deleted: full_width(|e| &e.deleted),
        })
    }

    /// The attribute groups (key included) — the shape the dependency
    /// preservation and refinement machinery of `dcd-vertical` consumes.
    pub fn attr_groups(&self) -> Vec<Vec<AttrId>> {
        self.fragments.iter().map(|f| f.attrs.clone()).collect()
    }

    /// Where a gather of `needed` gets its columns (§V): the
    /// coordinator is the fragment holding the most of them (ties to
    /// the smallest site), so the fewest columns move; it supplies what
    /// it holds, and the other fragments follow in site order, each
    /// supplying only what nobody before it did — every column moves at
    /// most once.
    ///
    /// It is the one answer to "which fragment supplies attribute `a`":
    /// a key attribute, which every fragment holds, is always the
    /// coordinator's, so no key column moves.
    pub fn gather_plan(&self, needed: &[AttrId]) -> GatherPlan {
        let n = self.fragments.len();
        let held = |i: usize| needed.iter().filter(|a| self.fragments[i].attrs.contains(a)).count();
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: the constructors refuse a partition of no fragment"
        )]
        let coordinator = (0..n).max_by_key(|&i| (held(i), n - i)).expect("non-empty partition");
        let mut supplied: Vec<AttrId> = Vec::with_capacity(needed.len());
        let mut supplies = Vec::new();
        for i in std::iter::once(coordinator).chain((0..n).filter(|&i| i != coordinator)) {
            let frag = &self.fragments[i];
            let attrs: Vec<AttrId> = needed
                .iter()
                .copied()
                .filter(|a| frag.attrs.contains(a) && !supplied.contains(a))
                .collect();
            if i == coordinator || !attrs.is_empty() {
                supplied.extend(&attrs);
                supplies.push((i, attrs));
            }
        }
        GatherPlan { supplies }
    }

    /// The columns `plan` gathers, where their suppliers hold them, in
    /// [`GatherPlan::attrs`] order. Row `r` of each is the tuple
    /// `tids()[r]` of every fragment, so a coordinator reads any rows of
    /// them without copying one.
    pub fn columns(&self, plan: &GatherPlan) -> Vec<Codes<'_>> {
        self.sources(plan)
            .map(|(_, f, local)| self.fragments[f].data.column(local).codes())
            .collect()
    }

    /// The partition's dictionary set, one per attribute in schema
    /// order — the vertical counterpart of
    /// [`HorizontalPartition::shared_dictionaries`](crate::HorizontalPartition::shared_dictionaries),
    /// and the one place a fragment's dictionary of an attribute is
    /// read. Every fragment is a projection of one relation and
    /// [`Self::apply_delta`] is its only write, so every fragment codes
    /// against this set: a code means one value whichever fragment
    /// supplies it.
    pub fn dictionaries(&self) -> Vec<Arc<Dictionary>> {
        let dict = |&(f, local): &(usize, AttrId)| self.fragments[f].data.dictionary(local).clone();
        self.suppliers().iter().map(dict).collect()
    }

    /// Reassembles the original relation, rows in the fragments' order:
    /// the plan of every attribute, read into the schema's columns
    /// through the partition's dictionary set, so nothing is re-interned.
    pub fn reassemble(&self) -> Result<Relation, RelationError> {
        let all: Vec<AttrId> = self.schema.attr_ids().collect();
        self.gather_rows(&self.gather_plan(&all), self.dictionaries())
    }

    /// The columns `plan` gathers as one relation over the full schema
    /// on `dicts` (one per attribute, in schema order), rows in the
    /// fragments' order — [`Self::reassemble`] and
    /// [`HybridPartition::gather`](crate::HybridPartition::gather) share
    /// it. Each planned column is copied whole, where its supplier holds
    /// it, and must share its attribute's dictionary in `dicts`; a
    /// column outside the plan holds `Null` ([`Relation::from_columns`]).
    pub(crate) fn gather_rows(
        &self,
        plan: &GatherPlan,
        dicts: Vec<Arc<Dictionary>>,
    ) -> Result<Relation, RelationError> {
        let mut columns = vec![None; self.schema.arity()];
        for (a, f, local) in self.sources(plan) {
            columns[a.index()] = Some(self.fragments[f].data.column(local));
        }
        let tids = self.fragments[0].data.tids();
        Relation::from_columns(self.schema.clone(), dicts, tids, &columns)
    }

    /// Where the columns `plan` gathers lie: `(attribute, supplier,
    /// the attribute's position in the supplier's schema)`, in
    /// [`GatherPlan::attrs`] order.
    fn sources<'a>(
        &'a self,
        plan: &'a GatherPlan,
    ) -> impl Iterator<Item = (AttrId, usize, AttrId)> + 'a {
        plan.supplies.iter().flat_map(move |(f, attrs)| {
            let frag = &self.fragments[*f];
            attrs.iter().map(move |&a| {
                #[expect(
                    clippy::expect_used,
                    reason = "internal invariant: a plan takes a supplier's attributes from its own"
                )]
                let local = frag.local_attr(a).expect("planned from this fragment");
                (a, *f, local)
            })
        })
    }

    /// Where each attribute lies under the plan of every attribute:
    /// `(supplier, position there)`, in schema order.
    fn suppliers(&self) -> Vec<(usize, AttrId)> {
        let all: Vec<AttrId> = self.schema.attr_ids().collect();
        let mut at = vec![(0, AttrId(0)); all.len()];
        for (a, f, local) in self.sources(&self.gather_plan(&all)) {
            at[a.index()] = (f, local);
        }
        at
    }
}

/// A [`VerticalPartition::gather_plan`]: which fragment supplies which
/// of the needed attributes.
#[derive(Debug, Clone)]
pub struct GatherPlan {
    /// `(fragment, the needed attributes it supplies)` — the
    /// coordinator first (its columns stay put), then every other
    /// contributing fragment in site order (its columns ship).
    pub supplies: Vec<(usize, Vec<AttrId>)>,
}

impl GatherPlan {
    /// The fragment the columns gather at.
    pub fn coordinator(&self) -> usize {
        self.supplies[0].0
    }

    /// The gathered attributes in column order: supplier by supplier.
    pub fn attrs(&self) -> Vec<AttrId> {
        self.supplies.iter().flat_map(|(_, attrs)| attrs.iter().copied()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, ValueType};

    fn rel() -> Relation {
        let schema = Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Str)
            .attr("c", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap();
        Relation::from_rows(
            schema,
            (0..6).map(|i| vals![i, i % 2, format!("b{i}"), format!("c{}", i % 3)]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn groups_get_the_key_and_project_in_order() {
        let r = rel();
        let p = VerticalPartition::by_attribute_groups(&r, &[&["a", "b"], &["c"]]).unwrap();
        assert_eq!(p.n_sites(), 2);
        let f0 = &p.fragments()[0];
        assert_eq!(f0.data.schema().arity(), 3); // id + a + b
        assert_eq!(f0.data.schema().attr_name(AttrId(0)), "id");
        // The fragment holds id, a and b of the original schema, in order.
        assert_eq!(f0.attrs, [AttrId(0), AttrId(1), AttrId(2)]);
        // local_attr maps original ids into the projection.
        let b = r.schema().require("b").unwrap();
        assert_eq!(f0.local_attr(b), Some(AttrId(2)));
        assert_eq!(f0.local_attr(r.schema().require("c").unwrap()), None);
        // Tuple ids are preserved.
        assert_eq!(f0.data.tids()[3].0, 3);
    }

    #[test]
    fn missing_coverage_and_missing_key_are_rejected() {
        let r = rel();
        assert!(VerticalPartition::by_attribute_groups(&r, &[&["a"]]).is_err());
        assert!(matches!(
            VerticalPartition::from_attr_groups(&r, &[]),
            Err(dcd_relation::RelationError::InvalidPartition { .. })
        ));
        let keyless = Schema::builder("k").attr("x", ValueType::Int).build().unwrap();
        let kr = Relation::from_rows(keyless, vec![vals![1]]).unwrap();
        assert!(VerticalPartition::by_attribute_groups(&kr, &[&["x"]]).is_err());
        assert!(VerticalPartition::by_attribute_groups(&r, &[&["nope"]]).is_err());
    }

    #[test]
    fn attr_groups_include_key() {
        let r = rel();
        let p = VerticalPartition::by_attribute_groups(&r, &[&["a"], &["b", "c"]]).unwrap();
        let id = r.schema().require("id").unwrap();
        for g in p.attr_groups() {
            assert!(g.contains(&id));
        }
    }

    #[test]
    fn reassemble_restores_rows_and_ids() {
        let r = rel();
        let p = VerticalPartition::by_attribute_groups(&r, &[&["b"], &["a", "c"]]).unwrap();
        let back = p.reassemble().unwrap();
        assert_eq!(back.len(), r.len());
        for (orig, got) in r.iter().zip(back.iter()) {
            assert_eq!(orig.tid, got.tid);
            assert_eq!(orig.values(), got.values());
        }
    }

    #[test]
    fn overlapping_groups_are_allowed() {
        let r = rel();
        let p = VerticalPartition::by_attribute_groups(&r, &[&["a", "b"], &["b", "c"]]).unwrap();
        assert_eq!(p.fragments()[1].data.schema().arity(), 3);
        let back = p.reassemble().unwrap();
        assert!(back.iter().eq(r.iter()));
    }

    #[test]
    fn a_gather_plans_each_column_once_and_reads_it_from_its_supplier() {
        let r = rel();
        let ids = |names: &[&str]| r.schema().require_all(names).unwrap();
        let p = VerticalPartition::by_attribute_groups(&r, &[&["c"], &["a", "b"], &["b", "c"]])
            .unwrap();
        // The plan of every attribute takes the key, which every
        // fragment holds, from its coordinator: no key column moves.
        let all = ids(&["id", "a", "b", "c"]);
        let whole = [(1, ids(&["id", "a", "b"])), (0, ids(&["c"]))];
        assert_eq!(p.gather_plan(&all).supplies, whole);
        // Fragments 1 and 2 both hold two of {a, b, c}: the tie goes to
        // the smaller site, which supplies a and b; c then comes from
        // fragment 0, the first other holder, and fragment 2 — whose b
        // and c are both taken — does not contribute.
        let plan = p.gather_plan(&ids(&["a", "b", "c"]));
        assert_eq!(plan.coordinator(), 1);
        assert_eq!(plan.supplies, [(1, ids(&["a", "b"])), (0, ids(&["c"]))]);
        assert_eq!(plan.attrs(), ids(&["a", "b", "c"]));

        // Each planned column is its supplier's, read where it lies.
        let cols = p.columns(&plan);
        let own = |f: usize, local: u16| p.fragments()[f].data.column(AttrId(local)).codes();
        let want = [own(1, 1), own(1, 2), own(0, 1)];
        let same = |got: Codes<'_>, want: Codes<'_>| match (got, want) {
            (Codes::U8(g), Codes::U8(w)) => std::ptr::eq(g, w),
            (Codes::U16(g), Codes::U16(w)) => std::ptr::eq(g, w),
            (Codes::U32(g), Codes::U32(w)) => std::ptr::eq(g, w),
            _ => false,
        };
        assert!(cols.iter().zip(want).all(|(&got, want)| same(got, want)));
        let rows = [4, 1, 5];
        let tids = p.fragments()[0].data.tids();
        let read: Vec<(TupleId, Vec<u32>)> =
            rows.iter().map(|&r| (tids[r], cols.iter().map(|col| col.get(r)).collect())).collect();
        let shipped = r.code_rows(&ids(&["a", "b", "c"]), &rows);
        let want: Vec<(TupleId, Vec<u32>)> =
            shipped.into_iter().map(|(tid, codes)| (tid, codes.into_vec())).collect();
        assert_eq!(read, want);
    }
}

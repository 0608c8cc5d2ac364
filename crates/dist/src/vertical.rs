//! Vertical fragmentation: `Di = π_{key ∪ Xi}(D)` (§II-B, §V).

use crate::site::SiteId;
use dcd_relation::{ops, AttrId, CodeBatch, FxHashMap, Relation, RelationError, Schema, TupleId};
use std::borrow::Cow;
use std::sync::Arc;

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
    /// Whether every attribute in `needed` lives in this fragment.
    pub fn covers(&self, needed: &[AttrId]) -> bool {
        needed.iter().all(|a| self.attrs.contains(a))
    }

    /// The position of an original-schema attribute inside this
    /// fragment's own schema, if present.
    pub fn local_attr(&self, orig: AttrId) -> Option<AttrId> {
        self.attrs.iter().position(|&a| a == orig).map(|i| AttrId(i as u16))
    }
}

/// A vertical partition of one relation: each fragment holds the key
/// plus one attribute group; together (with the key) they cover the
/// schema, so the relation is losslessly reassemblable by tuple id.
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
    pub fn from_attr_groups(rel: &Relation, groups: &[Vec<AttrId>]) -> Result<Self, RelationError> {
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

    /// Mutable access to the fragments — the incremental-maintenance
    /// hook. Every fragment must receive the projection of the same
    /// delta (same deletes, same inserts in the same order), or the
    /// row alignment that [`Self::reassemble`] and the incremental
    /// runner rely on is lost.
    pub fn fragments_mut(&mut self) -> &mut [VFragment] {
        &mut self.fragments
    }

    /// The attribute groups (key included) — the shape the dependency
    /// preservation and refinement machinery of `dcd-vertical` consumes.
    pub fn attr_groups(&self) -> Vec<Vec<AttrId>> {
        self.fragments.iter().map(|f| f.attrs.clone()).collect()
    }

    /// The first fragment covering `attr` and the attribute's position
    /// in that fragment's own schema — the one answer to "which site
    /// owns this column" (reassembly, the incremental session's wire,
    /// the dictionary every site codes the attribute against).
    pub fn owner_of(&self, attr: AttrId) -> (usize, AttrId) {
        self.fragments
            .iter()
            .enumerate()
            .find_map(|(fi, frag)| frag.local_attr(attr).map(|local| (fi, local)))
            .expect("coverage validated at construction")
    }

    /// Where a gather of `needed` gets its columns (§V): the
    /// coordinator is the fragment holding the most of them (ties to
    /// the smallest site), so the fewest columns move; it supplies what
    /// it holds, and the other fragments follow in site order, each
    /// supplying only what nobody before it did — every column moves at
    /// most once.
    pub fn gather_plan(&self, needed: &[AttrId]) -> GatherPlan {
        let n = self.fragments.len();
        let held = |i: usize| needed.iter().filter(|a| self.fragments[i].attrs.contains(a)).count();
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

    /// How every fragment's rows line up with fragment 0's. Fragments
    /// normally hold the same tuples in the same order; one whose tid
    /// column differs is read through a tid → row map built once, and a
    /// tuple it lacks is a `SchemaMismatch`. Everything that pairs the
    /// columns of two fragments goes through this — positions are never
    /// trusted.
    pub fn row_alignment(&self) -> Result<RowAlignment, RelationError> {
        let tids = self.fragments[0].data.tids();
        let maps = self
            .fragments
            .iter()
            .map(|frag| {
                if frag.data.tids() == tids {
                    return Ok(None);
                }
                let row_of: FxHashMap<TupleId, usize> =
                    frag.data.tids().iter().enumerate().map(|(row, &tid)| (tid, row)).collect();
                tids.iter()
                    .map(|tid| {
                        row_of.get(tid).copied().ok_or_else(|| RelationError::SchemaMismatch {
                            detail: format!("tuple {tid} missing from {}", frag.site),
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()
                    .map(Some)
            })
            .collect::<Result<_, _>>()?;
        Ok(RowAlignment { maps })
    }

    /// Executes `plan` for the given rows of fragment 0: their tuple ids
    /// plus one column per planned attribute ([`GatherPlan::attrs`]
    /// order), each copied from its supplier's column at the aligned
    /// rows.
    pub fn gather(&self, plan: &GatherPlan, alignment: &RowAlignment, rows: &[usize]) -> CodeBatch {
        let tids = self.fragments[0].data.tids();
        let mut batch =
            CodeBatch { tids: rows.iter().map(|&r| tids[r]).collect(), cols: Vec::new() };
        for (fi, attrs) in &plan.supplies {
            let frag = &self.fragments[*fi];
            let frag_rows: Cow<'_, [usize]> = match &alignment.maps[*fi] {
                None => Cow::Borrowed(rows),
                Some(map) => rows.iter().map(|&r| map[r]).collect(),
            };
            for &a in attrs {
                let mut col = Vec::with_capacity(rows.len());
                let local = frag.local_attr(a).expect("planned from this fragment");
                frag.data.gather_column(local, &frag_rows, &mut col);
                batch.cols.push(col);
            }
        }
        batch
    }

    /// Reassembles the original relation by tuple id (every fragment
    /// holds every tuple's projection, so fragment 0 fixes the order;
    /// see [`Self::row_alignment`]).
    pub fn reassemble(&self) -> Result<Relation, RelationError> {
        let alignment = self.row_alignment()?;
        // Every original attribute lives in some fragment (coverage is
        // validated at construction); that fragment supplies both the
        // column's dictionary and its codes, so nothing is re-interned.
        let sources: Vec<(usize, AttrId)> =
            self.schema.attr_ids().map(|a| self.owner_of(a)).collect();
        let dicts = sources
            .iter()
            .map(|&(fi, local)| self.fragments[fi].data.dictionary(local).clone())
            .collect();
        let first = &self.fragments[0].data;
        let schema = self.schema.clone();
        let mut out = Relation::with_dictionaries(schema, dicts, first.len())?;
        let mut codes = vec![0u32; sources.len()];
        for (i, &tid) in first.tids().iter().enumerate() {
            for (code, &(fi, local)) in codes.iter_mut().zip(&sources) {
                *code = self.fragments[fi].data.column(local).codes()[alignment.row(fi, i)];
            }
            out.push_code_row(tid, &codes)?;
        }
        Ok(out)
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

/// A [`VerticalPartition::row_alignment`]: per fragment, `None` when its
/// tuple-id column equals fragment 0's, else its row for every row of
/// fragment 0.
#[derive(Debug, Clone)]
pub struct RowAlignment {
    maps: Vec<Option<Vec<usize>>>,
}

impl RowAlignment {
    /// The row of `fragment` holding the tuple at row `r` of fragment 0.
    pub fn row(&self, fragment: usize, r: usize) -> usize {
        self.maps[fragment].as_ref().map_or(r, |map| map[r])
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
        assert!(f0.covers(&[r.schema().require("a").unwrap()]));
        assert!(!f0.covers(&[r.schema().require("c").unwrap()]));
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
    fn reassemble_follows_tids_when_a_fragment_is_reordered() {
        let r = rel();
        let mut p = VerticalPartition::by_attribute_groups(&r, &[&["a", "b"], &["c"]]).unwrap();
        let reversed: Vec<usize> = (0..r.len()).rev().collect();
        let frag = &mut p.fragments_mut()[1];
        frag.data = frag.data.copy_rows(&reversed);
        assert_ne!(p.fragments()[1].data.tids(), p.fragments()[0].data.tids());
        assert!(p.reassemble().unwrap().iter().eq(r.iter()));
        // Reordering fragment 0 reorders the result, not its content.
        let frag = &mut p.fragments_mut()[0];
        frag.data = frag.data.copy_rows(&reversed);
        assert!(p.reassemble().unwrap().iter().eq(r.copy_rows(&reversed).iter()));
    }

    #[test]
    fn a_gather_plans_each_column_once_and_reads_through_the_alignment() {
        let r = rel();
        let ids = |names: &[&str]| r.schema().require_all(names).unwrap();
        let mut p = VerticalPartition::by_attribute_groups(&r, &[&["c"], &["a", "b"], &["b", "c"]])
            .unwrap();
        // Owners are first-covering: the key and `c` at fragment 0.
        assert_eq!(p.owner_of(ids(&["id"])[0]), (0, AttrId(0)));
        assert_eq!(p.owner_of(ids(&["b"])[0]), (1, AttrId(2)));
        // Fragments 1 and 2 both hold two of {a, b, c}: the tie goes to
        // the smaller site, which supplies a and b; c then comes from
        // fragment 0, the first other holder, and fragment 2 — whose b
        // and c are both taken — does not contribute.
        let plan = p.gather_plan(&ids(&["a", "b", "c"]));
        assert_eq!(plan.coordinator(), 1);
        assert_eq!(plan.supplies, [(1, ids(&["a", "b"])), (0, ids(&["c"]))]);
        assert_eq!(plan.attrs(), ids(&["a", "b", "c"]));

        // Reordering the coordinator's rows changes no gathered cell:
        // rows are fragment 0's, found in fragment 1 by tuple id.
        let rows = [4, 1, 5];
        let aligned = p.gather(&plan, &p.row_alignment().unwrap(), &rows);
        let reversed: Vec<usize> = (0..r.len()).rev().collect();
        let frag = &mut p.fragments_mut()[1];
        frag.data = frag.data.copy_rows(&reversed);
        assert_eq!(p.gather(&plan, &p.row_alignment().unwrap(), &rows), aligned);
        assert_eq!(aligned.tids, [TupleId(4), TupleId(1), TupleId(5)]);
        let want = r.code_rows(&ids(&["a", "b", "c"]), &rows);
        for (i, (_, codes)) in want.iter().enumerate() {
            let got: Vec<u32> = aligned.cols.iter().map(|col| col[i]).collect();
            assert_eq!(got[..], codes[..], "row {i}");
        }
    }

    #[test]
    fn reassemble_reports_a_tuple_missing_from_a_fragment() {
        let r = rel();
        let mut p = VerticalPartition::by_attribute_groups(&r, &[&["a", "b"], &["c"]]).unwrap();
        let frag = &mut p.fragments_mut()[1];
        frag.data = frag.data.copy_rows(&[0, 1, 2, 4, 5]);
        let err = p.reassemble().unwrap_err();
        assert!(
            matches!(&err, RelationError::SchemaMismatch { detail } if detail.contains("t3")),
            "{err}"
        );
    }
}

//! Hybrid fragmentation: horizontal cells, each split vertically
//! (§II-B; detection over it is §VIII future work, realized in
//! `dcd-core::hybrid`). A cell's projection for a detection round is
//! read straight from its sub-fragments' columns
//! ([`HybridPartition::gather`]); no intermediate copy is built.

use crate::horizontal::{Fragment, HorizontalPartition};
use crate::pool::scoped_map;
use crate::site::SiteId;
use crate::vertical::{GatherPlan, VerticalPartition};
use dcd_relation::{AttrId, Dictionary, Predicate, Relation, RelationError, Schema, Value};
use std::sync::Arc;

/// Why a gathered cell row always fits the relation it lands in.
const ONE_DICTIONARY_SET: &str =
    "a hybrid partition's cells code against one dictionary set, which HybridPartition::new \
     validated";

/// One cell of a hybrid partition: a horizontal fragment's rows, split
/// vertically into sub-fragments.
#[derive(Debug, Clone)]
pub struct HybridCell {
    /// The cell's horizontal fragmentation predicate `Fi`, if any.
    pub predicate: Option<Predicate>,
    /// The vertical partition of the cell's rows.
    pub vertical: VerticalPartition,
}

/// A hybrid partition: `n_cells × n_vgroups` sites, where site
/// `cell * n_vgroups + v` holds vertical group `v` of cell `cell`.
#[derive(Debug, Clone)]
pub struct HybridPartition {
    schema: Arc<Schema>,
    cells: Vec<HybridCell>,
    n_vgroups: usize,
}

impl HybridPartition {
    /// Splits every fragment of a horizontal partition vertically by
    /// the same named attribute groups.
    ///
    /// Refuses what [`HorizontalPartition::validate`] refuses of
    /// `horizontal` — so every cell codes against one dictionary set and
    /// no tuple id repeats, which [`Self::gather`] rests on — an empty
    /// group list ([`RelationError::InvalidPartition`]), and what
    /// [`VerticalPartition::by_attribute_groups`] refuses of the groups.
    pub fn new(
        horizontal: &HorizontalPartition,
        groups: &[&[&str]],
    ) -> Result<Self, RelationError> {
        horizontal.validate()?;
        if groups.is_empty() {
            return Err(RelationError::InvalidPartition {
                detail: "cannot partition over zero attribute groups".into(),
            });
        }
        let cells = horizontal
            .fragments()
            .iter()
            .map(|frag| {
                Ok(HybridCell {
                    predicate: frag.predicate.clone(),
                    vertical: VerticalPartition::by_attribute_groups(&frag.data, groups)?,
                })
            })
            .collect::<Result<Vec<_>, RelationError>>()?;
        Ok(HybridPartition { schema: horizontal.schema().clone(), cells, n_vgroups: groups.len() })
    }

    /// The original schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The cells, in horizontal-fragment order.
    pub fn cells(&self) -> &[HybridCell] {
        &self.cells
    }

    /// Number of horizontal cells.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of vertical groups per cell.
    pub fn n_vgroups(&self) -> usize {
        self.n_vgroups
    }

    /// Total number of sites.
    pub fn n_sites(&self) -> usize {
        self.cells.len() * self.n_vgroups
    }

    /// The global site holding vertical fragment `vfrag` of cell `cell`.
    pub fn site_of(&self, cell: usize, vfrag: usize) -> SiteId {
        debug_assert!(cell < self.cells.len() && vfrag < self.n_vgroups);
        SiteId((cell * self.n_vgroups + vfrag) as u32)
    }

    /// The horizontal partition `HYBRIDDETECT`'s second phase runs over
    /// (`dcd-core::hybrid`): each cell's rows projected onto `needed` and
    /// gathered at the cell's coordinator by its
    /// [`VerticalPartition::gather_plan`] (returned beside it, for the
    /// caller to charge), each row read straight from its suppliers'
    /// columns ([`VerticalPartition::columns`]), as
    /// [`VerticalPartition::reassemble`] reads its owners', cells in
    /// parallel on up to `threads` pool participants. A gathered row is
    /// full width, padded with the null code outside `needed`; every
    /// other site holds no rows. A cell
    /// keeps its predicate for the §IV-A skip, which reads it
    /// symbolically — the padded rows need not satisfy it, so this is
    /// not a partition [`HorizontalPartition::validate`] accepts. What it
    /// rests on, one dictionary set and distinct ids, [`Self::new`]
    /// checked.
    pub fn gather(
        &self,
        needed: &[AttrId],
        threads: usize,
    ) -> (Vec<GatherPlan>, HorizontalPartition) {
        // Cell 0's owner of an attribute names the dictionary every site
        // codes it against. Null, the padding, is interned before the pool runs.
        let cell0 = &self.cells[0].vertical;
        let dicts: Vec<Arc<Dictionary>> = self
            .schema
            .attr_ids()
            .map(|a| {
                let (owner, local) = cell0.owner_of(a);
                cell0.fragments()[owner].data.dictionary(local).clone()
            })
            .collect();
        let nulls: Vec<u32> = dicts.iter().map(|d| d.intern(&Value::Null)).collect();
        let relation = |rows| {
            Relation::with_dictionaries(self.schema.clone(), dicts.clone(), rows)
                .expect(ONE_DICTIONARY_SET)
        };
        let empty = relation(0);
        let mut fragments: Vec<Fragment> = (0..self.n_sites())
            .map(|i| Fragment { site: SiteId(i as u32), predicate: None, data: empty.clone() })
            .collect();
        let gathered = scoped_map(threads, &self.cells, |cell| {
            let plan = cell.vertical.gather_plan(needed);
            let (attrs, cols) = (plan.attrs(), cell.vertical.columns(&plan));
            let tids = cell.vertical.fragments()[0].data.tids();
            let (mut row, mut out) = (nulls.clone(), relation(tids.len()));
            for (r, &tid) in tids.iter().enumerate() {
                for (a, col) in attrs.iter().zip(&cols) {
                    row[a.index()] = col[r];
                }
                out.push_code_row(tid, &row).expect(ONE_DICTIONARY_SET);
            }
            (plan, out)
        });
        let mut plans = Vec::with_capacity(gathered.len());
        for ((plan, data), (ci, cell)) in gathered.into_iter().zip(self.cells.iter().enumerate()) {
            let site = self.site_of(ci, plan.coordinator());
            fragments[site.index()] = Fragment { site, predicate: cell.predicate.clone(), data };
            plans.push(plan);
        }
        (plans, HorizontalPartition { schema: self.schema.clone(), fragments })
    }

    /// Reassembles the original relation: vertical reassembly inside
    /// each cell, then concatenation across cells. Every cell was cut
    /// from one horizontal partition, so the cells share one dictionary
    /// set and the concatenation copies codes.
    pub fn reassemble(&self) -> Result<Relation, RelationError> {
        let attrs: Vec<AttrId> = self.schema.attr_ids().collect();
        let parts: Vec<Relation> =
            self.cells.iter().map(|cell| cell.vertical.reassemble()).collect::<Result<_, _>>()?;
        let mut out = parts[0].with_capacity_like(parts.iter().map(Relation::len).sum());
        for part in &parts {
            out.extend_from(part, &attrs, &(0..part.len()).collect::<Vec<_>>())?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::{vals, ValueType};

    fn rel() -> Relation {
        let schema = Schema::builder("r")
            .attr("id", ValueType::Int)
            .attr("a", ValueType::Int)
            .attr("b", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap();
        Relation::from_rows(schema, (0..10).map(|i| vals![i, i % 4, format!("b{i}")]).collect())
            .unwrap()
    }

    #[test]
    fn shape_and_site_numbering() {
        let r = rel();
        let h = HorizontalPartition::round_robin(&r, 3).unwrap();
        let p = HybridPartition::new(&h, &[&["a"], &["b"]]).unwrap();
        assert_eq!(p.n_cells(), 3);
        assert_eq!(p.n_vgroups(), 2);
        assert_eq!(p.n_sites(), 6);
        assert_eq!(p.site_of(0, 0), SiteId(0));
        assert_eq!(p.site_of(1, 0), SiteId(2));
        assert_eq!(p.site_of(2, 1), SiteId(5));
    }

    #[test]
    fn cells_carry_rows_and_predicates() {
        let r = rel();
        let a = r.schema().require("a").unwrap();
        let h = HorizontalPartition::by_predicates(
            &r,
            (0..4).map(|v| Predicate::atom(dcd_relation::Atom::eq(a, v as i64))).collect(),
        )
        .unwrap();
        let p = HybridPartition::new(&h, &[&["a"], &["b"]]).unwrap();
        assert!(p.cells().iter().all(|c| c.predicate.is_some()));
        let total: usize = p.cells().iter().map(|c| c.vertical.fragments()[0].data.len()).sum();
        assert_eq!(total, r.len());
    }

    #[test]
    fn reassemble_round_trips() {
        let r = rel();
        let h = HorizontalPartition::round_robin(&r, 4).unwrap();
        let p = HybridPartition::new(&h, &[&["a"], &["b"]]).unwrap();
        let back = p.reassemble().unwrap();
        assert_eq!(back.len(), r.len());
        for t in back.iter() {
            let orig = r.iter().find(|o| o.tid == t.tid).unwrap();
            assert_eq!(orig.values(), t.values());
        }
    }

    #[test]
    fn empty_group_list_is_rejected() {
        let r = rel();
        let h = HorizontalPartition::round_robin(&r, 2).unwrap();
        assert!(HybridPartition::new(&h, &[]).is_err());
    }
}

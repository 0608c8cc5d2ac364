//! Hybrid fragmentation: horizontal cells, each split vertically
//! (§II-B; detection over it is §VIII future work, realized in
//! `dcd-core::hybrid`).

use crate::horizontal::HorizontalPartition;
use crate::site::SiteId;
use crate::vertical::VerticalPartition;
use dcd_relation::{AttrId, Predicate, Relation, RelationError, Schema};
use std::sync::Arc;

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
    pub fn new(
        horizontal: &HorizontalPartition,
        groups: &[&[&str]],
    ) -> Result<Self, RelationError> {
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

    /// Reassembles the original relation: vertical reassembly inside
    /// each cell, then concatenation across cells. Every cell was cut
    /// from one horizontal partition, so the cells share one dictionary
    /// set and the concatenation copies codes onto the first cell's
    /// reassembly, keeping its chunk size.
    pub fn reassemble(&self) -> Result<Relation, RelationError> {
        let attrs: Vec<AttrId> = self.schema.attr_ids().collect();
        let mut parts = self.cells.iter().map(|cell| cell.vertical.reassemble());
        let mut out = parts.next().expect("a partition has a cell")?;
        for part in parts {
            let part = part?;
            out.extend_from(&part, &attrs, &(0..part.len()).collect::<Vec<_>>())?;
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

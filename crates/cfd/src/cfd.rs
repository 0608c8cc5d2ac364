//! The CFD type, its normalized forms, and plain FDs.

use crate::attrset::AttrSet;
use crate::pattern::{NormalPattern, PatternTuple, PatternValue};
use dcd_relation::AttrId;
use dcd_relation::{RelationError, Schema};
use std::fmt;
use std::sync::Arc;

/// A conditional functional dependency `φ = R(X → Y, Tp)` (§II-A).
///
/// `X → Y` is the *embedded FD*; `Tp` is the pattern tableau. A
/// traditional FD is the special case of a single all-wildcard pattern
/// tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfd {
    name: String,
    schema: Arc<Schema>,
    lhs: Vec<AttrId>,
    rhs: Vec<AttrId>,
    tableau: Vec<PatternTuple>,
}

impl Cfd {
    /// Creates a CFD, validating that pattern tuples align with `X`/`Y`.
    pub fn new(
        name: impl Into<String>,
        schema: Arc<Schema>,
        lhs: Vec<AttrId>,
        rhs: Vec<AttrId>,
        tableau: Vec<PatternTuple>,
    ) -> Result<Self, RelationError> {
        for tp in &tableau {
            if tp.lhs.len() != lhs.len() || tp.rhs.len() != rhs.len() {
                return Err(RelationError::SchemaMismatch {
                    detail: format!(
                        "pattern tuple arity ({}‖{}) does not match FD ({}→{})",
                        tp.lhs.len(),
                        tp.rhs.len(),
                        lhs.len(),
                        rhs.len()
                    ),
                });
            }
        }
        for &a in lhs.iter().chain(&rhs) {
            if a.index() >= schema.arity() {
                return Err(RelationError::UnknownAttribute {
                    name: format!("{a}"),
                    schema: schema.name().to_string(),
                });
            }
        }
        Ok(Cfd { name: name.into(), schema, lhs, rhs, tableau })
    }

    /// Creates a CFD resolving attribute names against the schema.
    pub fn with_names(
        name: impl Into<String>,
        schema: Arc<Schema>,
        lhs: &[&str],
        rhs: &[&str],
        tableau: Vec<PatternTuple>,
    ) -> Result<Self, RelationError> {
        let lhs = schema.require_all(lhs)?;
        let rhs = schema.require_all(rhs)?;
        Cfd::new(name, schema, lhs, rhs, tableau)
    }

    /// Builds a traditional FD `X → Y` as a CFD (single all-wildcard
    /// pattern tuple).
    pub fn fd(
        name: impl Into<String>,
        schema: Arc<Schema>,
        lhs: &[&str],
        rhs: &[&str],
    ) -> Result<Self, RelationError> {
        let l = schema.require_all(lhs)?;
        let r = schema.require_all(rhs)?;
        let tp =
            PatternTuple::new(vec![PatternValue::Wild; l.len()], vec![PatternValue::Wild; r.len()]);
        Cfd::new(name, schema, l, r, vec![tp])
    }

    /// The CFD's name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema the CFD is defined on.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Rejects detection of this CFD over data of another schema. The
    /// attribute lists are positions into [`Self::schema`]; read against
    /// a different schema they name other columns (a silently wrong
    /// report) or none at all, so every front door that couples CFDs
    /// with a partition checks this first. Structural equality: a
    /// separately built but identical schema passes.
    pub fn check_schema(&self, data: &Schema) -> Result<(), RelationError> {
        check_schema(&self.name, &self.schema, data)
    }

    /// The LHS attribute list `X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// The RHS attribute list `Y`.
    pub fn rhs(&self) -> &[AttrId] {
        &self.rhs
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[PatternTuple] {
        &self.tableau
    }

    /// All attributes mentioned by the CFD (`X ∪ Y`) as a bitset — the
    /// quantity vertical dependency preservation reasons about.
    pub fn attrs(&self) -> AttrSet {
        AttrSet::from_ids(self.schema.arity(), self.lhs.iter().chain(&self.rhs).copied())
    }

    /// Merges CFDs sharing the same embedded FD into one CFD whose tableau
    /// is the union (the paper's Example 2 merges `cfd1`/`cfd2` into `φ1`).
    pub fn merge(name: impl Into<String>, cfds: &[&Cfd]) -> Result<Cfd, RelationError> {
        let first = cfds.first().ok_or_else(|| RelationError::SchemaMismatch {
            detail: "cannot merge an empty list of CFDs".into(),
        })?;
        let mut merged = Cfd {
            name: name.into(),
            schema: first.schema.clone(),
            lhs: first.lhs.clone(),
            rhs: first.rhs.clone(),
            tableau: Vec::new(),
        };
        for c in cfds {
            if c.lhs != merged.lhs || c.rhs != merged.rhs {
                return Err(RelationError::SchemaMismatch {
                    detail: format!(
                        "cannot merge `{}`: embedded FD differs from `{}`",
                        c.name, first.name
                    ),
                });
            }
            merged.tableau.extend(c.tableau.iter().cloned());
        }
        Ok(merged)
    }

    /// Normalizes to the `(X → A, tp)` form of §IV-A: one [`NormalCfd`]
    /// per (pattern tuple, RHS attribute) pair.
    pub fn normalize(&self) -> Vec<NormalCfd> {
        let mut out = Vec::with_capacity(self.tableau.len() * self.rhs.len());
        for (ti, tp) in self.tableau.iter().enumerate() {
            for (ai, &a) in self.rhs.iter().enumerate() {
                out.push(NormalCfd {
                    origin: format!("{}[{}:{}]", self.name, ti, self.schema.attr_name(a)),
                    schema: self.schema.clone(),
                    lhs: self.lhs.clone(),
                    rhs: a,
                    pattern: NormalPattern::new(tp.lhs.clone(), tp.rhs[ai].clone()),
                });
            }
        }
        out
    }

    /// Regroups the normalized form into [`SimpleCfd`]s: one per RHS
    /// attribute, carrying the whole tableau. This is the shape the
    /// distributed detection algorithms of §IV consume
    /// (`φ = R(X → A, Tp)`).
    pub fn simplify(&self) -> Vec<SimpleCfd> {
        self.rhs
            .iter()
            .enumerate()
            .map(|(ai, &a)| SimpleCfd {
                name: if self.rhs.len() == 1 {
                    self.name.clone()
                } else {
                    format!("{}:{}", self.name, self.schema.attr_name(a))
                },
                schema: self.schema.clone(),
                lhs: self.lhs.clone(),
                rhs: a,
                tableau: self
                    .tableau
                    .iter()
                    .map(|tp| NormalPattern::new(tp.lhs.clone(), tp.rhs[ai].clone()))
                    .collect(),
            })
            .collect()
    }
}

impl fmt::Display for Cfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = |ids: &[AttrId]| {
            ids.iter().map(|&a| self.schema.attr_name(a)).collect::<Vec<_>>().join(", ")
        };
        write!(f, "{}: ([{}] -> [{}], {{", self.name, names(&self.lhs), names(&self.rhs))?;
        for (i, tp) in self.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{tp}")?;
        }
        write!(f, "}})")
    }
}

/// A fully normalized CFD `(X → A, tp)` with a single pattern tuple and a
/// single RHS attribute — the unit of reasoning for implication and for
/// the constant/variable classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NormalCfd {
    /// Name of the originating CFD plus pattern/attribute indices.
    pub origin: String,
    /// Schema the CFD is defined on.
    pub schema: Arc<Schema>,
    /// LHS attribute list `X`.
    pub lhs: Vec<AttrId>,
    /// The single RHS attribute `A`.
    pub rhs: AttrId,
    /// The single pattern tuple `tp`.
    pub pattern: NormalPattern,
}

impl NormalCfd {
    /// Whether this is a constant CFD (`tp[A]` a constant, §IV-A);
    /// constant CFDs are locally checkable in horizontal fragments
    /// (Proposition 5).
    pub fn is_constant(&self) -> bool {
        self.pattern.is_constant()
    }

    /// All attributes mentioned (`X ∪ {A}`).
    pub fn attrs(&self) -> AttrSet {
        AttrSet::from_ids(
            self.schema.arity(),
            self.lhs.iter().copied().chain(std::iter::once(self.rhs)),
        )
    }
}

impl fmt::Display for NormalCfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names =
            self.lhs.iter().map(|&a| self.schema.attr_name(a)).collect::<Vec<_>>().join(", ");
        write!(
            f,
            "{}: ([{}] -> [{}], {})",
            self.origin,
            names,
            self.schema.attr_name(self.rhs),
            self.pattern
        )
    }
}

/// A CFD with a single RHS attribute but a full tableau:
/// `φ = R(X → A, Tp)`. The distributed detection algorithms of §IV take
/// this shape as input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleCfd {
    /// Display name.
    pub name: String,
    /// Schema the CFD is defined on.
    pub schema: Arc<Schema>,
    /// LHS attribute list `X`.
    pub lhs: Vec<AttrId>,
    /// The single RHS attribute `A`.
    pub rhs: AttrId,
    /// Pattern tableau, one [`NormalPattern`] per row.
    pub tableau: Vec<NormalPattern>,
}

/// The check behind [`Cfd::check_schema`] and [`SimpleCfd::check_schema`]
/// for the CFD `name` defined over `own`.
fn check_schema(name: &str, own: &Schema, data: &Schema) -> Result<(), RelationError> {
    if *own == *data {
        return Ok(());
    }
    Err(RelationError::SchemaMismatch {
        detail: format!(
            "CFD `{name}` is defined over schema `{}`, not over the `{}` schema of the data",
            own.name(),
            data.name()
        ),
    })
}

impl SimpleCfd {
    /// Rejects this CFD over data of another schema, as
    /// [`Cfd::check_schema`] does.
    pub fn check_schema(&self, data: &Schema) -> Result<(), RelationError> {
        check_schema(&self.name, &self.schema, data)
    }

    /// The attributes a detection algorithm must ship for this CFD:
    /// `X ∪ {A}` in schema order, deduplicated.
    pub fn shipped_attrs(&self) -> Vec<AttrId> {
        let mut attrs = self.lhs.clone();
        if !attrs.contains(&self.rhs) {
            attrs.push(self.rhs);
        }
        attrs
    }

    /// Splits the tableau into variable patterns (kept, as a new
    /// `SimpleCfd`, if any) and constant patterns ([`NormalCfd`]s to be
    /// checked locally). Implements the §IV-A preprocessing step: "it is
    /// sufficient to consider variable CFDs" for shipment planning.
    pub fn split_constant(&self) -> (Option<SimpleCfd>, Vec<NormalCfd>) {
        let mut variable = Vec::new();
        let mut constant = Vec::new();
        for (i, p) in self.tableau.iter().enumerate() {
            if p.is_constant() {
                constant.push(NormalCfd {
                    origin: format!("{}[{}]", self.name, i),
                    schema: self.schema.clone(),
                    lhs: self.lhs.clone(),
                    rhs: self.rhs,
                    pattern: p.clone(),
                });
            } else {
                variable.push(p.clone());
            }
        }
        let var_cfd = if variable.is_empty() {
            None
        } else {
            Some(SimpleCfd {
                name: self.name.clone(),
                schema: self.schema.clone(),
                lhs: self.lhs.clone(),
                rhs: self.rhs,
                tableau: variable,
            })
        };
        (var_cfd, constant)
    }

    /// Converts back to the general [`Cfd`] form.
    pub fn to_cfd(&self) -> Cfd {
        Cfd {
            name: self.name.clone(),
            schema: self.schema.clone(),
            lhs: self.lhs.clone(),
            rhs: vec![self.rhs],
            tableau: self
                .tableau
                .iter()
                .map(|p| PatternTuple::new(p.lhs.clone(), vec![p.rhs.clone()]))
                .collect(),
        }
    }
}

impl fmt::Display for SimpleCfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names =
            self.lhs.iter().map(|&a| self.schema.attr_name(a)).collect::<Vec<_>>().join(", ");
        write!(
            f,
            "{}: ([{}] -> [{}], {} patterns)",
            self.name,
            names,
            self.schema.attr_name(self.rhs),
            self.tableau.len()
        )
    }
}

/// A plain functional dependency `X → Y` (no patterns); the classical
/// special case used by the complexity reductions and the
/// dependency-preservation machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    /// LHS attributes.
    pub lhs: Vec<AttrId>,
    /// RHS attributes.
    pub rhs: Vec<AttrId>,
}

impl Fd {
    /// Creates an FD from attribute ids.
    pub fn new(lhs: Vec<AttrId>, rhs: Vec<AttrId>) -> Self {
        Fd { lhs, rhs }
    }

    /// Creates an FD resolving names against a schema.
    pub fn with_names(schema: &Schema, lhs: &[&str], rhs: &[&str]) -> Result<Self, RelationError> {
        Ok(Fd { lhs: schema.require_all(lhs)?, rhs: schema.require_all(rhs)? })
    }

    /// Embeds the FD as a CFD with a single all-wildcard pattern tuple.
    pub fn to_cfd(&self, name: impl Into<String>, schema: Arc<Schema>) -> Cfd {
        Cfd {
            name: name.into(),
            schema,
            lhs: self.lhs.clone(),
            rhs: self.rhs.clone(),
            tableau: vec![PatternTuple::new(
                vec![PatternValue::Wild; self.lhs.len()],
                vec![PatternValue::Wild; self.rhs.len()],
            )],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_relation::ValueType;

    fn emp_schema() -> Arc<Schema> {
        Schema::builder("emp")
            .attr("id", ValueType::Int)
            .attr("cc", ValueType::Int)
            .attr("ac", ValueType::Int)
            .attr("city", ValueType::Str)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn w() -> PatternValue {
        PatternValue::Wild
    }
    fn c(v: impl Into<dcd_relation::Value>) -> PatternValue {
        PatternValue::constant(v)
    }

    /// φ1 of the paper: ([CC, zip] → [street], {(44,_‖_), (31,_‖_)}).
    fn phi1() -> Cfd {
        Cfd::with_names(
            "phi1",
            emp_schema(),
            &["cc", "zip"],
            &["street"],
            vec![
                PatternTuple::new(vec![c(44), w()], vec![w()]),
                PatternTuple::new(vec![c(31), w()], vec![w()]),
            ],
        )
        .unwrap()
    }

    /// φ3 of the paper: ([CC, AC] → [city], {(44,131‖EDI), (01,908‖MH)}).
    fn phi3() -> Cfd {
        Cfd::with_names(
            "phi3",
            emp_schema(),
            &["cc", "ac"],
            &["city"],
            vec![
                PatternTuple::new(vec![c(44), c(131)], vec![c("EDI")]),
                PatternTuple::new(vec![c(1), c(908)], vec![c("MH")]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_arity_and_attrs() {
        let s = emp_schema();
        let bad = Cfd::with_names(
            "bad",
            s.clone(),
            &["cc"],
            &["street"],
            vec![PatternTuple::new(vec![w(), w()], vec![w()])],
        );
        assert!(bad.is_err());
        let bad2 = Cfd::with_names("bad2", s, &["nope"], &["street"], vec![]);
        assert!(bad2.is_err());
    }

    #[test]
    fn normalize_explodes_patterns_and_rhs() {
        let cfd = phi1();
        let n = cfd.normalize();
        assert_eq!(n.len(), 2); // 2 patterns × 1 RHS attr
        assert!(n.iter().all(|nc| !nc.is_constant()));
        let n3 = phi3().normalize();
        assert_eq!(n3.len(), 2);
        assert!(n3.iter().all(|nc| nc.is_constant()));
    }

    #[test]
    fn simplify_groups_by_rhs_attr() {
        let s = emp_schema();
        let multi = Cfd::with_names(
            "m",
            s,
            &["cc"],
            &["city", "street"],
            vec![PatternTuple::new(vec![c(44)], vec![w(), w()])],
        )
        .unwrap();
        let simples = multi.simplify();
        assert_eq!(simples.len(), 2);
        assert_eq!(simples[0].name, "m:city");
        assert_eq!(simples[1].name, "m:street");
        assert_eq!(simples[0].tableau.len(), 1);
    }

    #[test]
    fn merge_requires_same_embedded_fd() {
        let s = emp_schema();
        let cfd1 = Cfd::with_names(
            "cfd1",
            s.clone(),
            &["cc", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![c(44), w()], vec![w()])],
        )
        .unwrap();
        let cfd2 = Cfd::with_names(
            "cfd2",
            s.clone(),
            &["cc", "zip"],
            &["street"],
            vec![PatternTuple::new(vec![c(31), w()], vec![w()])],
        )
        .unwrap();
        let merged = Cfd::merge("phi1", &[&cfd1, &cfd2]).unwrap();
        assert_eq!(merged.tableau().len(), 2);

        let other = Cfd::fd("fd", s, &["cc"], &["city"]).unwrap();
        assert!(Cfd::merge("x", &[&cfd1, &other]).is_err());
    }

    #[test]
    fn fd_is_single_wildcard_pattern() {
        let s = emp_schema();
        let fd = Cfd::fd("phi2", s, &["cc", "zip"], &["street"]).unwrap();
        assert_eq!(fd.tableau().len(), 1);
        assert_eq!(fd.tableau()[0].lhs_wildcards(), 2);
    }

    #[test]
    fn split_constant_partitions_tableau() {
        let s = emp_schema();
        let mixed = Cfd::with_names(
            "mixed",
            s,
            &["cc", "ac"],
            &["city"],
            vec![
                PatternTuple::new(vec![c(44), c(131)], vec![c("EDI")]),
                PatternTuple::new(vec![c(44), w()], vec![w()]),
            ],
        )
        .unwrap();
        let simple = mixed.simplify().pop().unwrap();
        let (var, consts) = simple.split_constant();
        assert_eq!(consts.len(), 1);
        assert!(consts[0].is_constant());
        let var = var.unwrap();
        assert_eq!(var.tableau.len(), 1);
        assert!(!var.tableau[0].is_constant());
    }

    #[test]
    fn shipped_attrs_dedupes_rhs_in_lhs() {
        let s = emp_schema();
        let cfd = Cfd::with_names(
            "t",
            s,
            &["cc", "city"],
            &["city"],
            vec![PatternTuple::new(vec![w(), w()], vec![w()])],
        )
        .unwrap();
        let simple = cfd.simplify().pop().unwrap();
        assert_eq!(simple.shipped_attrs().len(), 2);
    }

    #[test]
    fn attrs_bitset() {
        let a = phi3().attrs();
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn display_is_paper_like() {
        let txt = phi3().to_string();
        assert!(txt.contains("[cc, ac] -> [city]"));
        assert!(txt.contains("(44, 131 ‖ EDI)"));
    }

    #[test]
    fn to_cfd_round_trip() {
        let simple = phi1().simplify().pop().unwrap();
        let back = simple.to_cfd();
        assert_eq!(back.simplify().pop().unwrap(), simple);
    }
}

//! The XREF genome cross-reference workload (Ensembl-style).
//!
//! The paper's XREF relation holds "the cross-reference information
//! attached to genes and proteins in Ensembl" for cow, dog and zebrafish
//! (`xref8`, 800K tuples) and human (`xrefH`, 2.7M). The real dump is
//! unavailable offline; this generator reproduces the schema shape
//! (16 attributes) and the statistical features detection cost depends
//! on: Zipf-skewed external database names and reference types, a
//! handful of organisms, and source/release/status values functionally
//! determined by the dimensions the CFDs constrain.

use crate::rng::Rng;
use crate::zipf::Zipf;
use dcd_cfd::{Cfd, NormalPattern, PatternTuple, PatternValue, SimpleCfd};
use dcd_relation::{Relation, Schema, Value, ValueType};
use std::sync::Arc;

/// Organisms of the xref8 dataset (xrefH uses `["human"]`).
pub const ORGANISMS: [&str; 3] = ["cow", "dog", "zebrafish"];

/// External database pool size.
pub const N_DBS: usize = 24;

/// Object types a cross-reference can attach to.
pub const OBJECT_TYPES: [&str; 3] = ["Gene", "Transcript", "Translation"];

/// Reference/info types (also the xrefH fragmentation attribute: the
/// paper distributes xrefH "based on the type of the references").
pub const INFO_TYPES: [&str; 7] = [
    "DIRECT",
    "SEQUENCE_MATCH",
    "DEPENDENT",
    "PROJECTION",
    "COORDINATE_OVERLAP",
    "CHECKSUM",
    "NONE",
];

/// Configuration of the XREF generator.
#[derive(Debug, Clone)]
pub struct XrefConfig {
    /// Number of tuples.
    pub n_tuples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Organism pool (defaults to [`ORGANISMS`]).
    pub organisms: Vec<String>,
    /// Zipf exponent for database / info-type popularity.
    pub skew: f64,
    /// Probability that a reference's `info_type` is its database's
    /// dominant linkage method (real cross-reference pipelines attach
    /// most entries of one database the same way). This correlation is
    /// what lets frequent-pattern mining reduce shipment when data is
    /// fragmented by reference type (Exp-4 / Fig. 3(e)).
    pub db_info_correlation: f64,
}

impl Default for XrefConfig {
    fn default() -> Self {
        XrefConfig {
            n_tuples: 10_000,
            seed: 0x9E40,
            organisms: ORGANISMS.iter().map(|s| s.to_string()).collect(),
            skew: 1.0,
            db_info_correlation: 0.8,
        }
    }
}

impl XrefConfig {
    /// The xrefH variant: human only, same size knob.
    pub fn human(n_tuples: usize) -> Self {
        XrefConfig { n_tuples, organisms: vec!["human".to_string()], ..XrefConfig::default() }
    }
}

/// The 16-attribute XREF schema.
pub fn xref_schema() -> Arc<Schema> {
    Schema::builder("xref")
        .attr("xref_id", ValueType::Int)
        .attr("organism", ValueType::Str)
        .attr("object_type", ValueType::Str)
        .attr("object_status", ValueType::Str)
        .attr("db_name", ValueType::Str)
        .attr("db_release", ValueType::Str)
        .attr("primary_acc", ValueType::Str)
        .attr("display_label", ValueType::Str)
        .attr("version", ValueType::Int)
        .attr("description", ValueType::Str)
        .attr("info_type", ValueType::Str)
        .attr("info_text", ValueType::Str)
        .attr("evidence", ValueType::Str)
        .attr("source", ValueType::Str)
        .attr("chromosome", ValueType::Str)
        .attr("biotype", ValueType::Str)
        .key(&["xref_id"])
        .build()
        .expect("static schema is valid")
}

/// Clean-value lookup: source determined by (organism, db, type, info).
pub fn source_of(organism: &str, db: usize, object_type: &str, info: &str) -> String {
    format!("src:{organism}:{db}:{object_type}:{info}")
}

/// Clean-value lookup: release determined by (organism, db).
pub fn release_of(organism: &str, db: usize) -> String {
    format!("rel-{organism}-{db}")
}

/// Clean-value lookup: status determined by (organism, object type).
pub fn status_of(organism: &str, object_type: &str) -> String {
    format!("st-{organism}-{object_type}")
}

impl XrefConfig {
    /// Generates a clean XREF instance (satisfies [`xref_cfds`]).
    pub fn generate(&self) -> Relation {
        let schema = xref_schema();
        let mut rng = Rng::seeded(self.seed);
        let dbs = Zipf::new(N_DBS, self.skew);
        let infos = Zipf::new(INFO_TYPES.len(), self.skew);
        let mut rel = Relation::with_capacity(schema, self.n_tuples);
        for i in 0..self.n_tuples {
            let organism = &self.organisms[rng.below(self.organisms.len())];
            let db = dbs.sample(&mut rng);
            let object_type = OBJECT_TYPES[rng.below(OBJECT_TYPES.len())];
            let info = if rng.unit() < self.db_info_correlation {
                INFO_TYPES[db % INFO_TYPES.len()]
            } else {
                INFO_TYPES[infos.sample(&mut rng)]
            };
            rel.push(vec![
                Value::Int(i as i64),
                Value::str(organism),
                Value::str(object_type),
                Value::str(status_of(organism, object_type)),
                Value::str(format!("DB{db}")),
                Value::str(release_of(organism, db)),
                Value::str(format!("ACC{:07}", rng.range(0, 5_000_000))),
                Value::str(format!("LBL{}", rng.range(0, 1_000_000))),
                Value::Int(rng.range(1, 9)),
                Value::str(format!("desc {}", rng.range(0, 1000))),
                Value::str(info),
                Value::str(format!("it{}", rng.range(0, 50))),
                Value::str(["IEA", "IDA", "ISS", "TAS"][rng.below(4)]),
                Value::str(source_of(organism, db, object_type, info)),
                Value::str(format!("chr{}", rng.range(1, 30))),
                Value::str(["protein_coding", "lincRNA", "pseudogene"][rng.below(3)]),
            ])
            .expect("generated row matches schema");
        }
        rel
    }
}

/// The main XREF CFD of Exp-1: 5 attributes, 11 pattern tuples —
/// `([organism, db_name, object_type, info_type] → [source])` with 11
/// (organism, db) constants.
pub fn xref_main_cfd(schema: &Arc<Schema>, organisms: &[String]) -> SimpleCfd {
    let lhs = schema
        .require_all(&["organism", "db_name", "object_type", "info_type"])
        .expect("attrs exist");
    let rhs = schema.require("source").expect("attr exists");
    let tableau = (0..11)
        .map(|k| {
            let org = &organisms[k % organisms.len()];
            NormalPattern::new(
                vec![
                    PatternValue::constant(org.as_str()),
                    PatternValue::constant(format!("DB{}", k / organisms.len())),
                    PatternValue::Wild,
                    PatternValue::Wild,
                ],
                PatternValue::Wild,
            )
        })
        .collect();
    SimpleCfd { name: "xref_main".to_string(), schema: schema.clone(), lhs, rhs, tableau }
}

/// The second XREF CFD of Exp-5: 3 attributes, 26 pattern tuples, LHS a
/// subset of [`xref_main_cfd`]'s — `([organism, db_name] → [db_release])`.
pub fn xref_second_cfd(schema: &Arc<Schema>, organisms: &[String]) -> Cfd {
    let tableau = (0..26)
        .map(|k| {
            let org = &organisms[k % organisms.len()];
            PatternTuple::new(
                vec![
                    PatternValue::constant(org.as_str()),
                    PatternValue::constant(format!("DB{}", k / organisms.len())),
                ],
                vec![PatternValue::Wild],
            )
        })
        .collect();
    Cfd::with_names(
        "xref_release",
        schema.clone(),
        &["organism", "db_name"],
        &["db_release"],
        tableau,
    )
    .expect("static CFD")
}

/// The FD used by the mining experiment (Exp-4 / Fig. 3(e)):
/// `([db_name, object_type] → [source])`, all wildcards — the degenerate
/// case for per-pattern algorithms until mining refines it. Its LHS
/// deliberately avoids the fragmentation attribute (`info_type`); mined
/// `db_name` patterns still localize because of
/// [`XrefConfig::db_info_correlation`].
pub fn xref_mining_fd(schema: &Arc<Schema>) -> SimpleCfd {
    let lhs = schema.require_all(&["db_name", "object_type"]).expect("attrs exist");
    let rhs = schema.require("source").expect("attr exists");
    SimpleCfd {
        name: "xref_fd".to_string(),
        schema: schema.clone(),
        lhs,
        rhs,
        tableau: vec![NormalPattern::new(
            vec![PatternValue::Wild, PatternValue::Wild],
            PatternValue::Wild,
        )],
    }
}

/// The full XREF rule set (main + second + the status rule).
pub fn xref_cfds(schema: &Arc<Schema>, organisms: &[String]) -> Vec<Cfd> {
    vec![
        xref_main_cfd(schema, organisms).to_cfd(),
        xref_second_cfd(schema, organisms),
        Cfd::fd("xref_status", schema.clone(), &["organism", "object_type"], &["object_status"])
            .expect("static CFD"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::inject_errors;

    #[test]
    fn clean_data_satisfies_all_cfds() {
        let cfg = XrefConfig { n_tuples: 3_000, ..XrefConfig::default() };
        let rel = cfg.generate();
        for cfd in xref_cfds(rel.schema(), &cfg.organisms) {
            assert!(dcd_cfd::satisfies(&rel, &cfd), "clean data must satisfy {}", cfd.name());
        }
    }

    #[test]
    fn schema_has_sixteen_attributes() {
        assert_eq!(xref_schema().arity(), 16);
    }

    #[test]
    fn main_cfd_shape_matches_paper() {
        let cfg = XrefConfig::default();
        let cfd = xref_main_cfd(&xref_schema(), &cfg.organisms);
        assert_eq!(cfd.lhs.len() + 1, 5, "5 attributes");
        assert_eq!(cfd.tableau.len(), 11, "11 patterns");
    }

    #[test]
    fn second_cfd_shape_matches_paper() {
        let cfg = XrefConfig::default();
        let main = xref_main_cfd(&xref_schema(), &cfg.organisms);
        let second = xref_second_cfd(&xref_schema(), &cfg.organisms);
        assert_eq!(second.lhs().len() + second.rhs().len(), 3);
        assert_eq!(second.tableau().len(), 26);
        assert!(second.lhs().iter().all(|a| main.lhs.contains(a)), "LHS containment");
    }

    #[test]
    fn noise_on_source_violates_main_cfd() {
        let cfg = XrefConfig { n_tuples: 4_000, ..XrefConfig::default() };
        let rel = cfg.generate();
        let (dirty, _) = inject_errors(&rel, "source", 0.03, 11);
        let cfd = xref_main_cfd(rel.schema(), &cfg.organisms).to_cfd();
        let v = dcd_cfd::detect(&dirty, &cfd);
        assert!(!v.is_empty());
    }

    #[test]
    fn human_config_is_single_organism() {
        let cfg = XrefConfig::human(1_000);
        let rel = cfg.generate();
        let org = rel.schema().require("organism").unwrap();
        assert!(rel.iter().all(|t| t.get(org).as_str() == Some("human")));
    }

    #[test]
    fn info_type_supports_seven_way_fragmentation() {
        // xrefH is split into 7 fragments by reference type; all seven
        // values must occur with a Zipf but non-degenerate spread.
        let cfg = XrefConfig::human(14_000);
        let rel = cfg.generate();
        let it = rel.schema().require("info_type").unwrap();
        let mut seen = std::collections::HashSet::new();
        for t in rel.iter() {
            seen.insert(t.get(it).as_str().unwrap().to_string());
        }
        assert_eq!(seen.len(), 7);
    }
}

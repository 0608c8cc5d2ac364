//! The CUST sales-records workload (TODS'08 / ICDE'10 evaluation data).
//!
//! The paper populated CUST "using a data generator that was based on
//! real-life data scraped from the Web" — unavailable offline, so this
//! module regenerates the same *shape*: customers with country / area
//! codes, addresses whose zip determines street within a country, and
//! ordered items whose price is determined by (country, title). Clean
//! values come from deterministic lookup functions, so the accompanying
//! CFDs hold by construction until [`crate::inject_errors`] breaks them.
//!
//! `cust8` and `cust16` of §VI are `CustConfig` with 800K / 1.6M tuples
//! (scaled down by default in `dcd-bench`; see `DCD_SCALE`).

use crate::rng::Rng;
use crate::zipf::Zipf;
use dcd_cfd::{Cfd, NormalPattern, PatternTuple, PatternValue, SimpleCfd};
use dcd_relation::{Relation, Schema, Value, ValueType};
use std::sync::Arc;

/// Country calling codes used by the generator (UK, NL, US, FR, DE).
pub const COUNTRY_CODES: [i64; 5] = [44, 31, 1, 33, 49];

/// Configuration of the CUST generator.
#[derive(Debug, Clone, Copy)]
pub struct CustConfig {
    /// Number of tuples to generate.
    pub n_tuples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Area codes per country (the (CC, AC) pool bounds tableau sizes:
    /// `5 × acs_per_country` distinct pairs exist).
    pub acs_per_country: usize,
    /// Distinct zip codes per country.
    pub zips_per_country: usize,
    /// Distinct item titles.
    pub n_titles: usize,
    /// Zipf exponent for country/title popularity (0 = uniform).
    pub skew: f64,
}

impl Default for CustConfig {
    fn default() -> Self {
        CustConfig {
            n_tuples: 10_000,
            seed: 0xC057,
            acs_per_country: 60,
            zips_per_country: 40,
            n_titles: 50,
            skew: 0.8,
        }
    }
}

/// The CUST schema: customer identity, phone, address, ordered item.
pub fn cust_schema() -> Arc<Schema> {
    Schema::builder("cust")
        .attr("id", ValueType::Int)
        .attr("name", ValueType::Str)
        .attr("CC", ValueType::Int)
        .attr("AC", ValueType::Int)
        .attr("phn", ValueType::Int)
        .attr("street", ValueType::Str)
        .attr("city", ValueType::Str)
        .attr("zip", ValueType::Str)
        .attr("item_title", ValueType::Str)
        .attr("item_price", ValueType::Int)
        .attr("item_qty", ValueType::Int)
        .key(&["id"])
        .build()
        .expect("static schema is valid")
}

/// Clean-value lookup: the street determined by (CC, zip).
pub fn street_of(cc: i64, zip: &str) -> String {
    format!("{} St {}", zip, cc)
}

/// Clean-value lookup: the city determined by (CC, AC).
pub fn city_of(cc: i64, ac: i64) -> String {
    format!("City-{cc}-{ac}")
}

/// Clean-value lookup: the price determined by (CC, item title).
pub fn price_of(cc: i64, title_rank: usize) -> i64 {
    100 + cc * 7 + title_rank as i64 * 13
}

impl CustConfig {
    /// Generates a clean CUST instance (satisfies all [`cust_cfds`]).
    pub fn generate(&self) -> Relation {
        let schema = cust_schema();
        let mut rng = Rng::seeded(self.seed);
        let country = Zipf::new(COUNTRY_CODES.len(), self.skew);
        let title = Zipf::new(self.n_titles, self.skew);
        let mut rel = Relation::with_capacity(schema, self.n_tuples);
        for i in 0..self.n_tuples {
            let cc = COUNTRY_CODES[country.sample(&mut rng)];
            let ac = 100 + rng.below(self.acs_per_country) as i64;
            let zip = format!("Z{}-{}", cc, rng.below(self.zips_per_country));
            let title_rank = title.sample(&mut rng);
            rel.push(vec![
                Value::Int(i as i64),
                Value::str(format!("Name{}", rng.range(0, 100_000))),
                Value::Int(cc),
                Value::Int(ac),
                Value::Int(rng.range(1_000_000, 9_999_999)),
                Value::str(street_of(cc, &zip)),
                Value::str(city_of(cc, ac)),
                Value::str(zip),
                Value::str(format!("Item{title_rank}")),
                Value::Int(price_of(cc, title_rank)),
                Value::Int(rng.range(1, 10)),
            ])
            .expect("generated row matches schema");
        }
        rel
    }
}

/// The standard CUST rule set, mirroring the paper's running example:
/// `([CC=44, zip] → [street])`, `([CC=31, zip] → [street])` (merged into
/// one CFD), the FD `([CC, item_title] → [item_price])`, and constant
/// city rules for a handful of (CC, AC) pairs.
pub fn cust_cfds(schema: &Arc<Schema>) -> Vec<Cfd> {
    let w = PatternValue::Wild;
    let phi1 = Cfd::with_names(
        "cust_zip_street",
        schema.clone(),
        &["CC", "zip"],
        &["street"],
        vec![
            PatternTuple::new(vec![PatternValue::constant(44), w.clone()], vec![w.clone()]),
            PatternTuple::new(vec![PatternValue::constant(31), w.clone()], vec![w.clone()]),
        ],
    )
    .expect("static CFD");
    let phi2 = Cfd::fd("cust_title_price", schema.clone(), &["CC", "item_title"], &["item_price"])
        .expect("static CFD");
    let phi3 = Cfd::with_names(
        "cust_ac_city",
        schema.clone(),
        &["CC", "AC"],
        &["city"],
        (0..8)
            .map(|k| {
                let cc = COUNTRY_CODES[k % COUNTRY_CODES.len()];
                let ac = 100 + k as i64;
                PatternTuple::new(
                    vec![PatternValue::constant(cc), PatternValue::constant(ac)],
                    vec![PatternValue::constant(city_of(cc, ac))],
                )
            })
            .collect(),
    )
    .expect("static CFD");
    vec![phi1, phi2, phi3]
}

/// The single-CFD workload of Exp-1/2/3: `([CC, AC, zip] → [street])`
/// with `n_patterns` pattern tuples pinning (CC, AC) pairs (4 attributes,
/// up to 255 patterns in the paper). Patterns enumerate the generator's
/// (CC, AC) pool deterministically.
pub fn cust_main_cfd(schema: &Arc<Schema>, config: &CustConfig, n_patterns: usize) -> SimpleCfd {
    let max = COUNTRY_CODES.len() * config.acs_per_country;
    assert!(n_patterns <= max, "at most {max} distinct (CC, AC) pairs exist under this config");
    let lhs = schema.require_all(&["CC", "AC", "zip"]).expect("attrs exist");
    let rhs = schema.require("street").expect("attr exists");
    let tableau = (0..n_patterns)
        .map(|k| {
            let cc = COUNTRY_CODES[k % COUNTRY_CODES.len()];
            let ac = 100 + (k / COUNTRY_CODES.len()) as i64;
            NormalPattern::new(
                vec![PatternValue::constant(cc), PatternValue::constant(ac), PatternValue::Wild],
                PatternValue::Wild,
            )
        })
        .collect();
    SimpleCfd { name: format!("cust_main_{n_patterns}"), schema: schema.clone(), lhs, rhs, tableau }
}

/// The overlapping CFD pair of Exp-5/6 (`LHS(φ2) ⊂ LHS(φ1)`):
/// `([CC, AC, zip] → [street])` with `n_patterns` patterns, and
/// `([CC, AC] → [city])` with `n_patterns / 2` patterns.
pub fn cust_overlapping_pair(
    schema: &Arc<Schema>,
    config: &CustConfig,
    n_patterns: usize,
) -> Vec<Cfd> {
    let main = cust_main_cfd(schema, config, n_patterns).to_cfd();
    let lhs_sub = (0..n_patterns.div_ceil(2))
        .map(|k| {
            let cc = COUNTRY_CODES[k % COUNTRY_CODES.len()];
            let ac = 100 + (k / COUNTRY_CODES.len()) as i64;
            PatternTuple::new(
                vec![PatternValue::constant(cc), PatternValue::constant(ac)],
                vec![PatternValue::Wild],
            )
        })
        .collect();
    let second =
        Cfd::with_names("cust_ac_city_var", schema.clone(), &["CC", "AC"], &["city"], lhs_sub)
            .expect("static CFD");
    vec![main, second]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::inject_errors;

    #[test]
    fn clean_data_satisfies_all_cfds() {
        let cfg = CustConfig { n_tuples: 2_000, ..CustConfig::default() };
        let rel = cfg.generate();
        assert_eq!(rel.len(), 2_000);
        for cfd in cust_cfds(rel.schema()) {
            assert!(dcd_cfd::satisfies(&rel, &cfd), "clean data must satisfy {}", cfd.name());
        }
    }

    #[test]
    fn noise_produces_violations() {
        let cfg = CustConfig { n_tuples: 2_000, ..CustConfig::default() };
        let rel = cfg.generate();
        let (dirty, n) = inject_errors(&rel, "street", 0.05, 7);
        assert!(n > 0);
        let cfds = cust_cfds(dirty.schema());
        let v = dcd_cfd::detect(&dirty, &cfds[0]);
        assert!(!v.is_empty(), "street errors must violate the zip→street CFD");
    }

    #[test]
    fn main_cfd_scales_patterns() {
        let cfg = CustConfig::default();
        let schema = cust_schema();
        for n in [55, 105, 255] {
            let cfd = cust_main_cfd(&schema, &cfg, n);
            assert_eq!(cfd.tableau.len(), n);
            assert_eq!(cfd.lhs.len(), 3);
        }
    }

    #[test]
    fn main_cfd_rejects_oversized_tableaus() {
        let cfg = CustConfig { acs_per_country: 10, ..CustConfig::default() };
        let schema = cust_schema();
        let r = std::panic::catch_unwind(|| cust_main_cfd(&schema, &cfg, 100));
        assert!(r.is_err());
    }

    #[test]
    fn patterns_match_generated_data() {
        // A useful tableau must actually select tuples.
        let cfg = CustConfig { n_tuples: 5_000, ..CustConfig::default() };
        let rel = cfg.generate();
        let cfd = cust_main_cfd(rel.schema(), &cfg, 50);
        let cc = rel.schema().require("CC").unwrap();
        let ac = rel.schema().require("AC").unwrap();
        let matching = rel
            .iter()
            .filter(|t| {
                cfd.tableau
                    .iter()
                    .any(|p| p.lhs[0].matches(t.get(cc)) && p.lhs[1].matches(t.get(ac)))
            })
            .count();
        assert!(
            matching > rel.len() / 20,
            "only {matching} of {} tuples match the tableau",
            rel.len()
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CustConfig { n_tuples: 500, ..CustConfig::default() };
        let a = cfg.generate();
        let b = cfg.generate();
        assert!(a.iter().eq(b.iter()));
        let c = CustConfig { seed: 1, ..cfg }.generate();
        assert!(a.iter().ne(c.iter()));
    }

    #[test]
    fn overlapping_pair_has_contained_lhs() {
        let cfg = CustConfig::default();
        let schema = cust_schema();
        let pair = cust_overlapping_pair(&schema, &cfg, 40);
        assert_eq!(pair.len(), 2);
        let l1: Vec<_> = pair[0].lhs().to_vec();
        let l2: Vec<_> = pair[1].lhs().to_vec();
        assert!(l2.iter().all(|a| l1.contains(a)));
    }
}

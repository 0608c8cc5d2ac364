//! CFD discovery: proposing data-quality rules from data.
//!
//! The paper assumes Σ is given ("for each relation we identified a set
//! of CFDs", §VI) and cites discovery as the complementary problem
//! (Golab et al. \[18\], Chiang & Miller \[19\]). This module implements a
//! pragmatic discoverer in that spirit, enough to bootstrap rule sets
//! for the detection pipeline:
//!
//! * candidate embedded FDs `X → A` with `|X| ≤ max_lhs`;
//! * if the FD holds globally, emit it as an all-wildcard CFD;
//! * otherwise emit a *variable* CFD whose pattern tuples pin one LHS
//!   attribute to a value `v` under which the FD does hold (with enough
//!   supporting tuples), e.g. `([CC=44, zip] → [street])`;
//! * optionally emit *constant* CFDs `(v̄ ‖ a)` for fully-constant LHS
//!   combinations whose matching tuples all agree on `A`.
//!
//! Discovery is exact w.r.t. the input instance (no sampling): every
//! emitted rule is satisfied by the data it was mined from (tested), so
//! detection on the same data returns no violations — rules become
//! useful on *future* or *remote* data.

use crate::cfd::{Cfd, SimpleCfd};
use crate::pattern::{NormalPattern, PatternValue};
use dcd_relation::ops::group_by;
use dcd_relation::{AttrId, FxHashMap, FxHashSet, Relation, Value};

/// Parameters of the discoverer.
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryConfig {
    /// Maximum number of LHS attributes per candidate FD.
    pub max_lhs: usize,
    /// Minimum number of matching tuples for a conditional pattern.
    pub min_support: usize,
    /// Maximum number of pattern tuples per emitted CFD.
    pub max_patterns: usize,
    /// Also emit fully-constant CFDs (`tp[A]` a constant).
    pub emit_constants: bool,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig { max_lhs: 2, min_support: 10, max_patterns: 32, emit_constants: false }
    }
}

/// Discovers CFDs holding on `rel` over all candidate `(X → A)` pairs
/// with `X` drawn from `lhs_pool` and `A` from `rhs_pool` (attribute
/// names). Results are deterministic: candidates are enumerated in pool
/// order, patterns in first-occurrence order.
pub fn discover(
    rel: &Relation,
    lhs_pool: &[&str],
    rhs_pool: &[&str],
    config: &DiscoveryConfig,
) -> Vec<SimpleCfd> {
    let schema = rel.schema();
    let lhs_ids: Vec<AttrId> =
        lhs_pool.iter().map(|n| schema.require(n).expect("lhs attr exists")).collect();
    let rhs_ids: Vec<AttrId> =
        rhs_pool.iter().map(|n| schema.require(n).expect("rhs attr exists")).collect();

    let mut out = Vec::new();
    for lhs in subsets_up_to(&lhs_ids, config.max_lhs) {
        for &rhs in &rhs_ids {
            if lhs.contains(&rhs) {
                continue;
            }
            if let Some(cfd) = discover_one(rel, &lhs, rhs, config) {
                out.push(cfd);
            }
        }
    }
    out
}

/// All non-empty subsets of `ids` with at most `k` elements, in
/// ascending size then enumeration order.
fn subsets_up_to(ids: &[AttrId], k: usize) -> Vec<Vec<AttrId>> {
    let mut out: Vec<Vec<AttrId>> = Vec::new();
    let n = ids.len();
    for mask in 1u64..(1 << n) {
        if (mask.count_ones() as usize) <= k {
            out.push((0..n).filter(|i| mask & (1 << i) != 0).map(|i| ids[i]).collect());
        }
    }
    out.sort_by_key(Vec::len);
    out
}

/// Discovers the best CFD for one embedded FD `X → A`, if any.
fn discover_one(
    rel: &Relation,
    lhs: &[AttrId],
    rhs: AttrId,
    config: &DiscoveryConfig,
) -> Option<SimpleCfd> {
    let groups = group_by(rel, lhs);
    let rhs_codes = rel.column(rhs).codes();
    // The one RHS code a group's members share, if they do.
    let clean_rhs = |members: &[usize]| {
        let first = rhs_codes.at(members[0]);
        members.iter().all(|&i| rhs_codes.at(i) == first).then_some(first)
    };
    // Classify each group: clean (single RHS value) or dirty; track the
    // RHS code and support of clean groups.
    struct CleanGroup<'a> {
        key: &'a [Value],
        support: usize,
        rhs_code: u32,
    }
    let mut clean: Vec<CleanGroup<'_>> = Vec::new();
    let mut any_dirty = false;
    for (key, members) in &groups {
        match clean_rhs(members) {
            Some(rhs_code) => clean.push(CleanGroup { key, support: members.len(), rhs_code }),
            None => any_dirty = true,
        }
    }

    let name = format!(
        "disc:{}->{}",
        lhs.iter().map(|&a| rel.schema().attr_name(a)).collect::<Vec<_>>().join(","),
        rel.schema().attr_name(rhs)
    );
    let mk = |tableau: Vec<NormalPattern>| SimpleCfd {
        name: name.clone(),
        schema: rel.schema().clone(),
        lhs: lhs.to_vec(),
        rhs,
        tableau,
    };

    // Case 1: the FD holds globally — a traditional FD.
    if !any_dirty {
        if rel.is_empty() {
            return None;
        }
        return Some(mk(vec![NormalPattern::new(
            vec![PatternValue::Wild; lhs.len()],
            PatternValue::Wild,
        )]));
    }

    // Case 2: conditional — find single-position constants v (attr i of
    // X pinned to v) under which every group is clean with enough
    // support. Support of (i, v) = tuples in clean groups with key[i]=v;
    // validity additionally requires NO dirty group with key[i]=v.
    let mut support: FxHashMap<(usize, Value), usize> = FxHashMap::default();
    let mut invalid: FxHashSet<(usize, Value)> = FxHashSet::default();
    for (key, members) in &groups {
        let is_clean = clean_rhs(members).is_some();
        for (i, v) in key.iter().enumerate() {
            if is_clean {
                *support.entry((i, v.clone())).or_insert(0) += members.len();
            } else {
                invalid.insert((i, v.clone()));
            }
        }
    }
    let mut patterns: Vec<((usize, Value), usize)> = support
        .into_iter()
        .filter(|(k, s)| !invalid.contains(k) && *s >= config.min_support)
        .collect();
    // Deterministic: highest support first, ties by position + value.
    patterns.sort_by(|a, b| {
        b.1.cmp(&a.1).then_with(|| a.0 .0.cmp(&b.0 .0)).then_with(|| a.0 .1.cmp(&b.0 .1))
    });
    patterns.truncate(config.max_patterns);

    let mut tableau: Vec<NormalPattern> = patterns
        .into_iter()
        .map(|((i, v), _)| {
            let mut cells = vec![PatternValue::Wild; lhs.len()];
            cells[i] = PatternValue::Const(v);
            NormalPattern::new(cells, PatternValue::Wild)
        })
        .collect();

    // Case 3 (optional): fully-constant CFDs from clean groups.
    if config.emit_constants {
        clean.sort_by(|a, b| b.support.cmp(&a.support).then_with(|| a.key.cmp(b.key)));
        for g in clean.iter().filter(|g| g.support >= config.min_support) {
            if tableau.len() >= config.max_patterns {
                break;
            }
            tableau.push(NormalPattern::new(
                g.key.iter().map(|v| PatternValue::Const(v.clone())).collect(),
                PatternValue::Const(rel.dictionary(rhs).value(g.rhs_code)),
            ));
        }
    }

    if tableau.is_empty() {
        None
    } else {
        Some(mk(tableau))
    }
}

/// Convenience: discovery straight to general [`Cfd`]s.
pub fn discover_cfds(
    rel: &Relation,
    lhs_pool: &[&str],
    rhs_pool: &[&str],
    config: &DiscoveryConfig,
) -> Vec<Cfd> {
    discover(rel, lhs_pool, rhs_pool, config).iter().map(SimpleCfd::to_cfd).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::detect_simple;
    use dcd_relation::{vals, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
            .build()
            .unwrap()
    }

    /// zip → street holds only for cc = 44 (UK); elsewhere zips repeat
    /// with different streets.
    fn conditional_data() -> Relation {
        let mut rows = Vec::new();
        for i in 0..30i64 {
            rows.push(vals![44, format!("z{}", i % 5), format!("uk-{}", i % 5), "c"]);
        }
        for i in 0..30i64 {
            // US zips do not determine streets.
            rows.push(vals![1, format!("z{}", i % 5), format!("us-{i}"), "c"]);
        }
        Relation::from_rows(schema(), rows).unwrap()
    }

    #[test]
    fn discovers_global_fd_as_wildcard_cfd() {
        // (cc, zip) → street holds globally in this fixture.
        let rel = Relation::from_rows(
            schema(),
            (0..40i64)
                .map(|i| vals![i % 3, format!("z{}", i % 4), format!("s{}-{}", i % 3, i % 4), "c"])
                .collect(),
        )
        .unwrap();
        let found = discover(
            &rel,
            &["cc", "zip"],
            &["street"],
            &DiscoveryConfig { min_support: 5, ..DiscoveryConfig::default() },
        );
        let full = found.iter().find(|c| c.lhs.len() == 2).expect("(cc,zip)->street found");
        assert_eq!(full.tableau.len(), 1);
        assert_eq!(full.tableau[0].lhs_wildcards(), 2);
    }

    #[test]
    fn discovers_conditional_pattern() {
        let rel = conditional_data();
        let found = discover(
            &rel,
            &["cc", "zip"],
            &["street"],
            &DiscoveryConfig { min_support: 5, ..DiscoveryConfig::default() },
        );
        // The (cc, zip) → street candidate must carry a cc=44 pattern
        // and no cc=1 pattern.
        let cond = found
            .iter()
            .find(|c| c.lhs.len() == 2 && c.tableau.iter().any(|p| !p.lhs[0].is_wild()))
            .expect("conditional CFD found");
        let pins: Vec<&Value> = cond.tableau.iter().filter_map(|p| p.lhs[0].as_const()).collect();
        assert!(pins.contains(&&Value::Int(44)));
        assert!(!pins.contains(&&Value::Int(1)));
    }

    #[test]
    fn discovered_rules_hold_on_their_source() {
        let rel = conditional_data();
        let found = discover(
            &rel,
            &["cc", "zip", "city"],
            &["street", "city"],
            &DiscoveryConfig { min_support: 3, emit_constants: true, ..Default::default() },
        );
        assert!(!found.is_empty());
        for cfd in &found {
            let v = detect_simple(&rel, cfd);
            assert!(v.is_empty(), "discovered rule {} is violated by its own data", cfd.name);
        }
    }

    #[test]
    fn constant_patterns_emitted_on_request() {
        let rel = conditional_data();
        let cfg = DiscoveryConfig { min_support: 5, emit_constants: true, ..Default::default() };
        let found = discover(&rel, &["cc", "zip"], &["street"], &cfg);
        let has_constant = found.iter().flat_map(|c| &c.tableau).any(|p| p.is_constant());
        assert!(has_constant, "constant CFDs requested but none emitted");
        let none_without = discover(
            &rel,
            &["cc", "zip"],
            &["street"],
            &DiscoveryConfig { emit_constants: false, ..cfg },
        );
        assert!(none_without.iter().flat_map(|c| &c.tableau).all(|p| !p.is_constant()));
    }

    #[test]
    fn support_threshold_prunes() {
        let rel = conditional_data();
        let strict = DiscoveryConfig { min_support: 1000, ..Default::default() };
        let found = discover(&rel, &["cc", "zip"], &["street"], &strict);
        // Only the globally-holding candidates survive (no conditional
        // pattern reaches support 1000 on 60 tuples).
        for cfd in &found {
            assert!(cfd.tableau.iter().all(|p| p.lhs_wildcards() == cfd.lhs.len()));
        }
    }

    #[test]
    fn max_patterns_caps_tableaus() {
        let rel = conditional_data();
        let cfg = DiscoveryConfig {
            min_support: 1,
            max_patterns: 2,
            emit_constants: true,
            ..Default::default()
        };
        for cfd in discover(&rel, &["cc", "zip"], &["street"], &cfg) {
            assert!(cfd.tableau.len() <= 2);
        }
    }

    #[test]
    fn empty_relation_discovers_nothing() {
        let rel = Relation::new(schema());
        assert!(discover(&rel, &["cc"], &["street"], &Default::default()).is_empty());
    }

    #[test]
    fn discovered_rules_feed_detection_on_dirty_remote_data() {
        // Mine on a clean instance, detect on a corrupted one — the
        // end-to-end workflow the paper's evaluation presumes.
        let clean = conditional_data();
        let cfg = DiscoveryConfig { min_support: 5, ..Default::default() };
        let rules = discover(&clean, &["cc", "zip"], &["street"], &cfg);
        let dirty = clean.clone();
        // Corrupt one UK street: breaks zip→street under cc=44.
        let street = dirty.schema().require("street").unwrap();
        let mut values = dirty.row(0).values().to_vec();
        values[street.index()] = Value::str("corrupted");
        let tid = dirty.tids()[0];
        let fixed: Vec<_> = dirty
            .iter()
            .map(|t| if t.tid == tid { dcd_relation::Tuple::new(tid, values.clone()) } else { t })
            .collect();
        let dirty = Relation::from_tuples(dirty.schema().clone(), fixed).unwrap();
        let hits: usize = rules.iter().map(|c| detect_simple(&dirty, c).tids.len()).sum();
        assert!(hits > 0, "corruption must be caught by some discovered rule");
    }
}

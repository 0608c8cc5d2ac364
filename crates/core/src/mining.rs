//! Frequent-pattern mining for wildcard-heavy CFDs (§IV-B).
//!
//! When a CFD's pattern tuples are mostly wildcards — the extreme case
//! being a traditional FD, whose tableau is a single all-wildcard tuple —
//! every tuple falls into the same σ block and the per-pattern algorithms
//! degrade to `CTRDETECT`. The paper's fix: mine each fragment for LHS
//! patterns occurring at least `θ·|Di|` times (closed frequent item
//! sets), add them to the tableau ahead of the original wildcard
//! pattern(s), and let σ route the frequent groups to their own
//! coordinators. The refined CFD is equivalent to the original because
//! every mined pattern is subsumed by an original variable pattern.
//!
//! Support counting runs on packed [`CodeKey`]s over the fragments' code
//! columns — the same representation every other hot path uses — and
//! decodes only the patterns that are actually emitted. The
//! counts are kept per site in a [`MinedTableau`], which doubles as the
//! *incremental* miner: a delta batch adjusts the affected keys' support
//! (±1 per mask per changed row) instead of re-scanning the fragment,
//! and [`MinedTableau::refine`] re-derives the closed frequent patterns
//! from the maintained counts — bit-identical to a full re-mine of the
//! updated fragments (pinned by the workspace property tests).

use dcd_cfd::{NormalPattern, PatternValue, SimpleCfd};
use dcd_dist::{CostModel, HorizontalPartition};
use dcd_relation::ops::CodeKey;
use dcd_relation::{DeltaEffect, Dictionary, FxHashMap, FxHashSet};
use std::sync::Arc;

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MiningConfig {
    /// Frequency threshold `θ ∈ (0, 1]`: a pattern is frequent in `Di`
    /// if at least `θ·|Di|` tuples match it.
    pub theta: f64,
    /// Maximum number of constants in a mined pattern (bounds the
    /// item-set lattice walked per fragment; 4 suffices for the paper's
    /// CFDs of 3–5 LHS attributes).
    pub max_width: usize,
}

impl Default for MiningConfig {
    fn default() -> Self {
        MiningConfig { theta: 0.1, max_width: 4 }
    }
}

/// The result of mining: the refined CFD plus the per-site preprocessing
/// time (charged by callers that account response time; the paper notes
/// it is "often small enough to be negligible" but we track it anyway).
#[derive(Debug, Clone)]
pub struct MiningOutcome {
    /// The refined, equivalent CFD (mined patterns + original tableau).
    pub cfd: SimpleCfd,
    /// Analytic preprocessing seconds per site.
    pub per_site_secs: Vec<f64>,
    /// Number of mined (added) patterns.
    pub added: usize,
}

/// The positions of `mask`'s set bits, ascending.
fn mask_attrs(mask: u32, m: usize) -> Vec<usize> {
    (0..m).filter(|&i| mask & (1 << i) != 0).collect()
}

/// Per-site support state: fragment size plus the *unthresholded*
/// per-mask support counts on packed code keys, over the fragment's own
/// dictionaries (kept for decoding emitted patterns; they are shared
/// with the live relation, so late-interned values stay decodable).
#[derive(Debug, Clone)]
struct SiteSupport {
    n: usize,
    counts: FxHashMap<u32, FxHashMap<CodeKey, usize>>,
    lhs_dicts: Vec<Arc<Dictionary>>,
}

/// Incrementally-maintained mining state for one `(partition, CFD)`
/// pair: per-site support counts on code keys, adjustable per delta
/// batch, from which [`refine`](Self::refine) derives the closed
/// frequent patterns at any point in the stream.
#[derive(Debug, Clone)]
pub struct MinedTableau {
    cfd: SimpleCfd,
    config: MiningConfig,
    /// Attribute-subset bitmasks of bounded width, ascending size.
    masks: Vec<u32>,
    /// Schema positions of the LHS attributes (to project full-width
    /// delta code rows).
    lhs_pos: Vec<usize>,
    sites: Vec<SiteSupport>,
}

impl MinedTableau {
    /// Builds the support counts by scanning every fragment's code
    /// columns once per mask.
    pub fn build(partition: &HorizontalPartition, cfd: &SimpleCfd, config: &MiningConfig) -> Self {
        let m = cfd.lhs.len();
        let mut masks: Vec<u32> = (1u32..(1 << m))
            .filter(|mk| (mk.count_ones() as usize) <= config.max_width.min(m))
            .collect();
        masks.sort_by_key(|mk| mk.count_ones());

        let sites = partition
            .fragments()
            .iter()
            .map(|frag| {
                let cols = frag.data.code_views(&cfd.lhs);
                let mut counts: FxHashMap<u32, FxHashMap<CodeKey, usize>> = FxHashMap::default();
                for &mask in &masks {
                    let mask_cols: Vec<&[u32]> =
                        mask_attrs(mask, m).iter().map(|&i| cols[i]).collect();
                    let mut map: FxHashMap<CodeKey, usize> = FxHashMap::default();
                    // The hot loop: count the packed keys of the mask's
                    // columns.
                    for r in 0..frag.data.len() {
                        *map.entry(CodeKey::of_row(&mask_cols, r)).or_insert(0) += 1;
                    }
                    counts.insert(mask, map);
                }
                SiteSupport {
                    n: frag.data.len(),
                    counts,
                    lhs_dicts: frag.data.dictionaries_of(&cfd.lhs),
                }
            })
            .collect();

        MinedTableau {
            cfd: cfd.clone(),
            config: *config,
            masks,
            lhs_pos: cfd.lhs.iter().map(|a| a.index()).collect(),
            sites,
        }
    }

    /// The original (unrefined) CFD the counts are kept for.
    pub fn cfd(&self) -> &SimpleCfd {
        &self.cfd
    }

    /// Number of attribute-subset masks walked per fragment scan (the
    /// cost-model multiplier of a full mine).
    pub fn n_masks(&self) -> usize {
        self.masks.len()
    }

    /// Adjusts site `si`'s support counts for one applied delta: each
    /// affected full-width code row contributes ±1 to its projected key
    /// under every mask. Cost is `O(rows × masks)` — independent of the
    /// fragment size a full re-mine would scan. Returns the updates
    /// made, one per affected row and mask.
    pub fn apply_site_effect(&mut self, si: usize, eff: &DeltaEffect) -> u64 {
        let m = self.cfd.lhs.len();
        let site = &mut self.sites[si];
        let mut buf: Vec<u32> = Vec::with_capacity(m);
        for (_, codes) in &eff.deleted {
            site.n -= 1;
            for &mask in &self.masks {
                buf.clear();
                buf.extend(mask_attrs(mask, m).iter().map(|&i| codes[self.lhs_pos[i]]));
                let map = site.counts.get_mut(&mask).expect("mask counted at build");
                let key = CodeKey::of_codes(&buf);
                let cnt = map.get_mut(&key).expect("deleted row was counted");
                *cnt -= 1;
                if *cnt == 0 {
                    map.remove(&key);
                }
            }
        }
        for (_, codes) in &eff.inserted {
            site.n += 1;
            for &mask in &self.masks {
                buf.clear();
                buf.extend(mask_attrs(mask, m).iter().map(|&i| codes[self.lhs_pos[i]]));
                let map = site.counts.get_mut(&mask).expect("mask counted at build");
                *map.entry(CodeKey::of_codes(&buf)).or_insert(0) += 1;
            }
        }
        ((eff.deleted.len() + eff.inserted.len()) * self.masks.len()) as u64
    }

    /// Derives the refined tableau from the current counts: thresholds
    /// per site, prunes non-closed patterns (a one-attribute extension
    /// with the same support), keeps only patterns subsumed by an
    /// original variable pattern, decodes them, and prepends them to
    /// the original tableau in the deterministic order mining always
    /// used. Returns the refined CFD and the number of added patterns.
    pub fn refine(&self) -> (SimpleCfd, usize) {
        let m = self.cfd.lhs.len();
        let variable: Vec<&NormalPattern> =
            self.cfd.tableau.iter().filter(|p| !p.is_constant()).collect();
        let mut mined: FxHashSet<Vec<PatternValue>> = FxHashSet::default();
        for site in &self.sites {
            let n = site.n;
            if n == 0 {
                continue;
            }
            let threshold = ((self.config.theta * n as f64).ceil() as usize).max(1);
            // Thresholded per-mask views. Support is anti-monotone, so
            // thresholding before the closedness walk never hides a
            // subset a frequent superset would need to compare against.
            let mut freq: FxHashMap<u32, FxHashMap<CodeKey, usize>> = FxHashMap::default();
            for &mask in &self.masks {
                let map: FxHashMap<CodeKey, usize> = site.counts[&mask]
                    .iter()
                    .filter(|&(_, &c)| c >= threshold)
                    .map(|(k, &c)| (k.clone(), c))
                    .collect();
                freq.insert(mask, map);
            }

            // Closedness: (S, v) is closed iff no one-attribute
            // extension has the same support.
            let mut not_closed: FxHashSet<(u32, CodeKey)> = FxHashSet::default();
            for &mask in &self.masks {
                let attrs = mask_attrs(mask, m);
                if attrs.len() < 2 {
                    continue;
                }
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "each key only inserts into the `not_closed` set; a set's contents do not depend on insertion order"
                )]
                for (key, cnt) in &freq[&mask] {
                    let codes = key.codes(attrs.len());
                    // Project onto each immediate subset.
                    for (drop_pos, &drop_attr) in attrs.iter().enumerate() {
                        let sub_mask = mask & !(1 << drop_attr);
                        let sub_codes: Vec<u32> = codes
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| *i != drop_pos)
                            .map(|(_, &c)| c)
                            .collect();
                        let sub_key = CodeKey::of_codes(&sub_codes);
                        if freq.get(&sub_mask).and_then(|mp| mp.get(&sub_key)) == Some(cnt) {
                            not_closed.insert((sub_mask, sub_key));
                        }
                    }
                }
            }

            // Emit closed frequent patterns subsumed by an original
            // pattern — the only point codes are decoded to values.
            for &mask in &self.masks {
                let attrs = mask_attrs(mask, m);
                #[expect(
                    clippy::iter_over_hash_type,
                    reason = "each key only inserts into the `mined` set, which is sorted below before any pattern is emitted"
                )]
                for key in freq[&mask].keys() {
                    if not_closed.contains(&(mask, key.clone())) {
                        continue;
                    }
                    let codes = key.codes(attrs.len());
                    let mut lhs = vec![PatternValue::Wild; m];
                    for (pos, &ai) in attrs.iter().enumerate() {
                        lhs[ai] = PatternValue::Const(site.lhs_dicts[ai].value(codes[pos]));
                    }
                    let subsumed = variable.iter().any(|orig| {
                        orig.lhs.iter().zip(&lhs).all(|(o, n)| match (o, n) {
                            (PatternValue::Wild, _) => true,
                            (PatternValue::Const(a), PatternValue::Const(b)) => a == b,
                            (PatternValue::Const(_), PatternValue::Wild) => false,
                        })
                    });
                    if subsumed && !self.cfd.tableau.iter().any(|p| p.lhs == lhs && p.rhs.is_wild())
                    {
                        mined.insert(lhs);
                    }
                }
            }
        }

        let mut tableau: Vec<NormalPattern> =
            Vec::with_capacity(self.cfd.tableau.len() + mined.len());
        let mut sorted_mined: Vec<Vec<PatternValue>> = mined.into_iter().collect();
        // Deterministic order: most constants first, then lexicographic
        // debug form (pattern values have no natural order; the debug
        // form is stable).
        sorted_mined.sort_by_key(|p| (p.iter().filter(|v| v.is_wild()).count(), format!("{p:?}")));
        let added = sorted_mined.len();
        for lhs in sorted_mined {
            tableau.push(NormalPattern::new(lhs, PatternValue::Wild));
        }
        tableau.extend(self.cfd.tableau.iter().cloned());

        (
            SimpleCfd {
                name: format!("{}+mined", self.cfd.name),
                schema: self.cfd.schema.clone(),
                lhs: self.cfd.lhs.clone(),
                rhs: self.cfd.rhs,
                tableau,
            },
            added,
        )
    }
}

/// Mines closed frequent LHS patterns in every fragment and returns an
/// equivalent CFD whose tableau additionally contains them.
///
/// Only patterns *subsumed by* an original variable pattern are added
/// (position-wise: the original has a wildcard or the same constant), so
/// the refinement never introduces constraints the original CFD did not
/// assert — this is what makes the rewriting an equivalence, even for
/// inputs that are not pure FDs.
pub fn mine_patterns(
    partition: &HorizontalPartition,
    cfd: &SimpleCfd,
    config: &MiningConfig,
    cost: &CostModel,
) -> MiningOutcome {
    let tableau = MinedTableau::build(partition, cfd, config);
    let mut per_site_secs = vec![0.0; partition.n_sites()];
    for (si, frag) in partition.fragments().iter().enumerate() {
        let n = frag.data.len();
        if n > 0 {
            per_site_secs[si] += cost.scan_time(n) * tableau.n_masks() as f64;
        }
    }
    let (cfd, added) = tableau.refine();
    MiningOutcome { cfd, per_site_secs, added }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Relation, Schema, Value, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn skewed(n: usize) -> Relation {
        // 80% of tuples have cc=44; zips spread thin.
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        if i % 5 < 4 { 44 } else { i as i64 % 97 },
                        format!("z{}", i % 13),
                        format!("s{}", i % 3)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn mines_frequent_constants_for_an_fd() {
        let rel = skewed(200);
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.5, max_width: 2 },
            &CostModel::default(),
        );
        // cc=44 holds for 80% of each fragment → mined.
        assert!(out.added >= 1, "expected at least the cc=44 pattern");
        assert!(out.cfd.tableau.iter().any(|p| p.lhs[0] == PatternValue::Const(Value::Int(44))));
        // The original wildcard pattern is retained (catch-all).
        assert!(out.cfd.tableau.iter().any(|p| p.lhs_wildcards() == 2));
        assert!(out.per_site_secs.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn refined_cfd_is_equivalent() {
        let rel = skewed(150);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.3, max_width: 2 },
            &CostModel::default(),
        );
        let orig = dcd_cfd::detect_simple(&rel, &simple);
        let refined = dcd_cfd::detect_simple(&rel, &out.cfd);
        assert_eq!(orig.tids(), refined.tids());
    }

    #[test]
    fn high_threshold_mines_nothing() {
        let rel = skewed(100);
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.95, max_width: 2 },
            &CostModel::default(),
        );
        assert_eq!(out.added, 0);
        assert_eq!(out.cfd.tableau.len(), simple.tableau.len());
    }

    #[test]
    fn mined_patterns_respect_subsumption() {
        // Original restricted to cc=44: mined patterns must not cover
        // cc≠44 tuples.
        let rel = skewed(200);
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(rel.schema(), "c", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.05, max_width: 2 },
            &CostModel::default(),
        );
        for p in &out.cfd.tableau {
            match &p.lhs[0] {
                PatternValue::Const(v) => assert_eq!(v, &Value::Int(44)),
                PatternValue::Wild => panic!("mined pattern must pin cc=44"),
            }
        }
        let orig = dcd_cfd::detect_simple(&rel, &simple);
        let refined = dcd_cfd::detect_simple(&rel, &out.cfd);
        assert_eq!(orig.tids(), refined.tids());
    }

    #[test]
    fn closedness_prunes_same_support_generalizations() {
        // cc=7 ⇔ zip=only7 (perfect correlation): the 1-constant
        // patterns {cc=7} and {zip=only7} have the same support as the
        // closed 2-constant pattern, so only the latter is kept.
        let rel = Relation::from_rows(
            schema(),
            (0..40)
                .map(|i| {
                    if i % 2 == 0 {
                        vals![7, "only7", format!("s{i}")]
                    } else {
                        vals![8, format!("z{}", i % 5), format!("s{i}")]
                    }
                })
                .collect(),
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 1).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.4, max_width: 2 },
            &CostModel::default(),
        );
        let has_cc7_alone = out
            .cfd
            .tableau
            .iter()
            .any(|p| p.lhs[0] == PatternValue::Const(Value::Int(7)) && p.lhs[1].is_wild());
        let has_pair = out.cfd.tableau.iter().any(|p| {
            p.lhs[0] == PatternValue::Const(Value::Int(7))
                && p.lhs[1] == PatternValue::Const(Value::str("only7"))
        });
        assert!(!has_cc7_alone, "non-closed pattern should be pruned");
        assert!(has_pair, "closed pattern should be kept");
    }

    /// The point of mining: shipment drops when PATDETECTS runs on the
    /// refined tableau (Fig. 3(e)'s effect).
    #[test]
    fn mining_reduces_shipment_for_fds() {
        use crate::runner::{run_batch, CoordinatorStrategy};
        let rel = skewed(400);
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let plain = run_batch(
            &partition,
            std::slice::from_ref(&simple),
            CoordinatorStrategy::MinShipment,
            &crate::RunConfig::default(),
        );
        let out = mine_patterns(
            &partition,
            &simple,
            &MiningConfig { theta: 0.05, max_width: 2 },
            &CostModel::default(),
        );
        let refined = run_batch(
            &partition,
            std::slice::from_ref(&out.cfd),
            CoordinatorStrategy::MinShipment,
            &crate::RunConfig::default(),
        );
        assert_eq!(
            plain.violations.all_tids(),
            refined.violations.all_tids(),
            "mining must not change the violations"
        );
        assert!(
            refined.shipped_tuples < plain.shipped_tuples,
            "mined: {} vs plain: {}",
            refined.shipped_tuples,
            plain.shipped_tuples
        );
    }

    /// Incremental support maintenance tracks a from-scratch rebuild.
    #[test]
    fn incremental_counts_match_rebuild() {
        use dcd_relation::{RelationDelta, Tuple, TupleId};
        let rel = skewed(60);
        let mut partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let fd = parse_cfd(rel.schema(), "fd", "([cc, zip] -> [street])").unwrap();
        let simple = fd.simplify().pop().unwrap();
        let config = MiningConfig { theta: 0.2, max_width: 2 };
        let mut mined = MinedTableau::build(&partition, &simple, &config);

        // Insert two rows at site 0, delete one at site 1.
        let d0 = RelationDelta::new(
            vec![
                Tuple::new(TupleId(1000), vals![44, "z1", "sX"]),
                Tuple::new(TupleId(1001), vals![44, "z1", "sY"]),
            ],
            vec![],
        );
        let victim = partition.fragments()[1].data.tids()[0];
        let d1 = RelationDelta::new(vec![], vec![victim]);
        let eff0 = partition.fragments_mut()[0].data.apply_delta(&d0).unwrap();
        let eff1 = partition.fragments_mut()[1].data.apply_delta(&d1).unwrap();
        mined.apply_site_effect(0, &eff0);
        mined.apply_site_effect(1, &eff1);

        let rebuilt = MinedTableau::build(&partition, &simple, &config);
        assert_eq!(mined.refine().0.tableau, rebuilt.refine().0.tableau);
    }
}

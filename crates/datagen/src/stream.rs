//! Update-stream generation: realistic CDC-style delta workloads.
//!
//! Incremental detection needs more than random rows — it needs the
//! access patterns real change feeds have: a configurable mix of
//! inserts and deletes, *Zipf-skewed key reuse* (most new rows land on
//! a few hot group keys, exactly the groups whose violations keep
//! flipping), and per-site arrival order. [`update_stream`] generates
//! such a stream against an existing horizontal partition: inserts are
//! perturbed clones of Zipf-sampled template rows (so they re-hit the
//! hot LHS keys), deletes pick live tuples and are routed to the site
//! that holds them, and every op is assigned a site and appended in
//! arrival order.
//!
//! The output shape is one [`RelationDelta`] per site per batch —
//! `dcd_incr::DeltaBatch::from(per_site)` — and the stream is fully
//! deterministic given the seed.

use crate::rng::Rng;
use crate::zipf::Zipf;
use dcd_dist::HorizontalPartition;
use dcd_relation::{Dictionary, FxHashMap, RelationDelta, Tuple, TupleId, Value};
use std::sync::Arc;

/// Configuration of the update-stream generator.
#[derive(Debug, Clone, Copy)]
pub struct UpdateStreamConfig {
    /// Number of delta batches to generate.
    pub n_batches: usize,
    /// Operations (inserts + deletes) per batch.
    pub ops_per_batch: usize,
    /// Fraction of operations that are inserts (the rest delete live
    /// tuples; with nothing live, an op falls back to an insert).
    pub insert_ratio: f64,
    /// Zipf exponent for template-row reuse (0 = uniform): how skewed
    /// the stream is toward a few hot group keys.
    pub skew: f64,
    /// Fraction of inserted rows whose *last string attribute* is
    /// corrupted with an `ERR-k` marker (so the stream keeps creating
    /// fresh violations, not only moving clean rows around).
    pub corrupt_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            n_batches: 8,
            ops_per_batch: 64,
            insert_ratio: 0.7,
            skew: 0.8,
            corrupt_rate: 0.1,
            seed: 0xDE17A,
        }
    }
}

/// Generates a per-site delta stream over `partition`.
///
/// Returns `n_batches` entries, each one a vector of
/// [`RelationDelta`]s in site order. Inserts carry fresh sequential
/// tuple ids (continuing after the partition's maximum); deletes name
/// only tuples live at that point in the stream and are routed to the
/// owning site, so applying the batches in order through
/// `Relation::apply_delta` never fails.
pub fn update_stream(
    partition: &HorizontalPartition,
    cfg: &UpdateStreamConfig,
) -> Vec<Vec<RelationDelta>> {
    assert!(
        (0.0..=1.0).contains(&cfg.insert_ratio) && (0.0..=1.0).contains(&cfg.corrupt_rate),
        "ratios must be within [0, 1]"
    );
    let n_sites = partition.n_sites();
    let mut rng = Rng::seeded(cfg.seed);

    let mut templates = Templates::new(partition);
    // Live set, each with its owning site (deletes must be routed).
    let mut live: Vec<(TupleId, usize)> = partition
        .fragments()
        .iter()
        .enumerate()
        .flat_map(|(s, f)| f.data.tids().iter().map(move |&tid| (tid, s)))
        .collect();
    let mut next_tid = live.iter().map(|&(t, _)| t.0 + 1).max().unwrap_or(0);
    let template_zipf =
        if templates.len() == 0 { None } else { Some(Zipf::new(templates.len(), cfg.skew)) };
    let err_attr = last_str_attr(partition);

    let mut stream = Vec::with_capacity(cfg.n_batches);
    for _ in 0..cfg.n_batches {
        let mut per_site: Vec<RelationDelta> = vec![RelationDelta::default(); n_sites];
        // Deletes apply before inserts within a batch, so a tuple
        // inserted this batch is not yet deletable: the prefix
        // `live[..deletable]` holds only prior-batch tuples, and the
        // removal below keeps it that way.
        let mut deletable = live.len();
        for _ in 0..cfg.ops_per_batch {
            let insert = deletable == 0 || rng.unit() < cfg.insert_ratio;
            if !insert {
                let at = rng.below(deletable);
                // Move the victim to the prefix end; the overall-last
                // element (possibly fresh) lands on the vacated slot,
                // which then leaves the deletable range.
                live.swap(at, deletable - 1);
                let (tid, site) = live.swap_remove(deletable - 1);
                deletable -= 1;
                per_site[site].deletes.push(tid);
            }
            if insert {
                let Some(zipf) = &template_zipf else { continue };
                let mut values = templates.values(zipf.sample(&mut rng));
                if let Some(a) = err_attr {
                    if rng.unit() < cfg.corrupt_rate {
                        values[a] = Value::str(format!("ERR-{}", rng.range(0, 1000)));
                    }
                }
                let tid = TupleId(next_tid);
                next_tid += 1;
                let site = rng.below(n_sites);
                per_site[site].inserts.push(Tuple::new(tid, values));
                live.push((tid, site));
            }
        }
        stream.push(per_site);
    }
    stream
}

/// The template pool: the partition's rows, Zipf-ranked in site order and
/// then row order — template 0 is the hottest key. A template stays codes
/// until it is drawn, and each distinct code of a dictionary is decoded
/// once per pool, so the templates drawn share one [`Value`] per distinct
/// value instead of holding a fresh string per cell.
struct Templates<'a> {
    partition: &'a HorizontalPartition,
    /// `ends[s]`: the rank one past site `s`'s last row.
    ends: Vec<usize>,
    /// Decoded values by dictionary (`Arc` identity) and code.
    decoded: FxHashMap<(*const Dictionary, u32), Value>,
}

impl<'a> Templates<'a> {
    fn new(partition: &'a HorizontalPartition) -> Self {
        let ends = partition
            .fragments()
            .iter()
            .scan(0, |end, f| {
                *end += f.data.len();
                Some(*end)
            })
            .collect();
        Templates { partition, ends, decoded: FxHashMap::default() }
    }

    fn len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The values of template `rank`, in schema order.
    fn values(&mut self, rank: usize) -> Vec<Value> {
        let site = self.ends.partition_point(|&end| end <= rank);
        let row = rank - site.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        let columns = self.partition.fragments()[site].data.columns();
        columns
            .iter()
            .map(|col| {
                let code = col.codes().get(row);
                let key = (Arc::as_ptr(col.dict()), code);
                self.decoded.entry(key).or_insert_with(|| col.dict().value(code)).clone()
            })
            .collect()
    }
}

/// The schema position of the last string attribute, if any — the
/// corruption target (mirrors `inject_errors`' `ERR-` markers).
fn last_str_attr(partition: &HorizontalPartition) -> Option<usize> {
    let schema = partition.schema();
    (0..schema.arity()).rev().find(|&i| {
        matches!(schema.attr(dcd_relation::AttrId(i as u16)).ty, dcd_relation::ValueType::Str)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cust::CustConfig;

    fn partition(n_tuples: usize, n_sites: usize) -> HorizontalPartition {
        let rel = CustConfig { n_tuples, ..CustConfig::default() }.generate();
        HorizontalPartition::round_robin(&rel, n_sites).unwrap()
    }

    #[test]
    fn stream_is_deterministic_and_sized() {
        let p = partition(500, 3);
        let cfg = UpdateStreamConfig { n_batches: 4, ops_per_batch: 50, ..Default::default() };
        let a = update_stream(&p, &cfg);
        let b = update_stream(&p, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for batch in &a {
            assert_eq!(batch.len(), 3);
            let ops: usize = batch.iter().map(RelationDelta::n_ops).sum();
            assert_eq!(ops, 50);
        }
        let c = update_stream(&p, &UpdateStreamConfig { seed: 1, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn templates_are_the_rows_with_one_value_per_distinct_value() {
        for (n_tuples, n_sites) in [(0, 2), (1, 1), (300, 1), (500, 3), (700, 4)] {
            let p = partition(n_tuples, n_sites);
            let rows: Vec<Tuple> = p.fragments().iter().flat_map(|f| f.data.iter()).collect();
            let mut templates = Templates::new(&p);
            assert_eq!(templates.len(), rows.len());
            let mut first: std::collections::BTreeMap<Value, Arc<str>> = Default::default();
            // Twice over, hottest last, so every value is also drawn again.
            for rank in (0..rows.len()).chain((0..rows.len()).rev()) {
                let values = templates.values(rank);
                assert_eq!(values, rows[rank].values(), "template {rank}");
                for v in values {
                    if let Value::Str(s) = &v {
                        let shared = first.entry(v.clone()).or_insert_with(|| s.clone());
                        assert!(Arc::ptr_eq(shared, s), "{v:?} decoded twice");
                    }
                }
            }
        }
    }

    #[test]
    fn batches_apply_cleanly_in_order() {
        let mut p = partition(300, 4);
        let cfg = UpdateStreamConfig {
            n_batches: 6,
            ops_per_batch: 40,
            insert_ratio: 0.5,
            ..Default::default()
        };
        let stream = update_stream(&p, &cfg);
        for batch in &stream {
            p.apply_delta(batch, 1).expect("generated deletes are routed to the owning site");
        }
        p.validate().expect("ids stay disjoint across sites");
    }

    #[test]
    fn insert_ratio_extremes() {
        let p = partition(200, 2);
        let all_inserts = update_stream(
            &p,
            &UpdateStreamConfig {
                n_batches: 2,
                ops_per_batch: 30,
                insert_ratio: 1.0,
                ..Default::default()
            },
        );
        assert!(all_inserts.iter().flatten().all(|d| d.deletes.is_empty()));
        let all_deletes = update_stream(
            &p,
            &UpdateStreamConfig {
                n_batches: 2,
                ops_per_batch: 30,
                insert_ratio: 0.0,
                ..Default::default()
            },
        );
        assert!(all_deletes.iter().flatten().all(|d| d.inserts.is_empty()));
    }

    #[test]
    fn skewed_streams_reuse_hot_templates() {
        let p = partition(1000, 2);
        let cfg = UpdateStreamConfig {
            n_batches: 1,
            ops_per_batch: 400,
            insert_ratio: 1.0,
            corrupt_rate: 0.0,
            skew: 1.2,
            ..Default::default()
        };
        let stream = update_stream(&p, &cfg);
        // With strong skew, far fewer distinct templates than inserts
        // are used (tids are fresh, so compare value payloads).
        let mut payloads = std::collections::HashSet::new();
        let mut total = 0;
        for d in &stream[0] {
            for t in &d.inserts {
                payloads.insert(t.values().to_vec());
                total += 1;
            }
        }
        assert_eq!(total, 400);
        assert!(
            payloads.len() < total / 2,
            "zipf reuse should collapse templates: {} distinct of {total}",
            payloads.len()
        );
    }

    #[test]
    fn corruption_produces_err_markers() {
        let p = partition(200, 2);
        let cfg = UpdateStreamConfig {
            n_batches: 1,
            ops_per_batch: 200,
            insert_ratio: 1.0,
            corrupt_rate: 1.0,
            ..Default::default()
        };
        let stream = update_stream(&p, &cfg);
        let marked = stream[0]
            .iter()
            .flat_map(|d| &d.inserts)
            .filter(|t| {
                t.values().iter().any(|v| v.as_str().is_some_and(|s| s.starts_with("ERR-")))
            })
            .count();
        assert_eq!(marked, 200);
    }

    #[test]
    fn empty_partition_yields_empty_inserts_only_stream() {
        let schema = crate::cust::cust_schema();
        let rel = dcd_relation::Relation::new(schema);
        let p = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let stream = update_stream(
            &p,
            &UpdateStreamConfig { n_batches: 2, ops_per_batch: 10, ..Default::default() },
        );
        assert!(stream.iter().all(|b| b.iter().all(RelationDelta::is_empty)));
    }
}

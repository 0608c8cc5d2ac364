//! Multi-CFD detection: `SEQDETECT` and `CLUSTDETECT` (§IV-C).
//!
//! `SEQDETECT` runs a single-CFD algorithm once per CFD, pipelined: the
//! per-site clocks carry over between rounds, so a site that finished its
//! part of CFD `k` immediately starts partitioning for CFD `k+1` while
//! slower sites still validate. The same tuple may ship several times —
//! once per CFD that matches it.
//!
//! `CLUSTDETECT` first clusters CFDs whose LHS attribute sets are related
//! by containment (`X ⊆ X'` or `X' ⊆ X`), partitions the data *once per
//! cluster* on the tableau projected onto the common attributes
//! `Z = X ∩ X'`, and ships each tuple at most once per cluster. Every
//! member CFD is then validated at the coordinators. Because `Z ⊆ X` for
//! every member, tuples agreeing on any member's LHS also agree on `Z`
//! and therefore land at the same coordinator — the Lemma 6 argument
//! lifted to clusters. A CFD whose LHS is related to no other is a
//! cluster of one, with no algorithm of its own: the same round runs it,
//! on the same column-batch wire, under the CFD's name and at the
//! single-CFD round's charges (`run_cluster`). Only a cluster with
//! nothing to partition on (`Z = ∅`) leaves the round, for one
//! single-CFD round per member.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::local::applicable_patterns;
use crate::report::Detection;
use crate::runner::{
    assign_coordinators, constants_phase, exchange_statistics, pattern_rows, patterns_at,
    run_single_cfd, shared_layout, ship_phase, sigma_phase, CoordinatorStrategy,
};
use crate::sigma::{sort_for_sigma, SigmaPartition};
use dcd_cfd::codes::ResolvedCfd;
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{Cfd, Flagged, KernelTally, NormalPattern, PatternValue, SimpleCfd};
use dcd_dist::pool::scoped_map;
use dcd_dist::{Fragment, HorizontalPartition, SiteId};
use dcd_relation::{AttrId, CodeBatch, FxHashSet};

/// Runs `SEQDETECT`: pipelined sequential processing, one CFD at a
/// time over one shared [`RunCtx`], each round run with the `inner`
/// single-CFD strategy (the paper runs either `PATDETECTS` or
/// `PATDETECTRT`).
pub fn run_seq(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    inner: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    for simple in sigma.iter().flat_map(Cfd::simplify) {
        run_single_cfd(partition, &simple, inner, &mut ctx);
    }
    ctx.finish("SEQDETECT")
}

/// Runs `CLUSTDETECT`: clusters CFDs by LHS containment and ships each
/// tuple at most once per cluster, with `inner` as the coordinator
/// strategy for the projected-pattern assignment. Every cluster, of
/// several CFDs or of one, runs the same round.
pub fn run_clust(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    inner: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
    for cluster in cluster_by_lhs(&simples) {
        let members: Vec<&SimpleCfd> = cluster.iter().map(|&i| &simples[i]).collect();
        run_cluster(partition, &members, inner, &mut ctx);
    }
    ctx.finish("CLUSTDETECT")
}

/// Greedy clustering on the LHS containment condition: a CFD joins the
/// first cluster whose common attribute set `Z` satisfies `X ⊆ Z` or
/// `Z ⊆ X`; `Z` shrinks to the intersection. Returns clusters as index
/// lists into `cfds`, preserving input order.
pub fn cluster_by_lhs(cfds: &[SimpleCfd]) -> Vec<Vec<usize>> {
    let mut clusters: Vec<(FxHashSet<AttrId>, Vec<usize>)> = Vec::new();
    for (i, cfd) in cfds.iter().enumerate() {
        let lhs: FxHashSet<AttrId> = cfd.lhs.iter().copied().collect();
        let mut placed = false;
        for (z, members) in clusters.iter_mut() {
            let z_sub = z.iter().all(|a| lhs.contains(a));
            let lhs_sub = lhs.iter().all(|a| z.contains(a));
            if z_sub || lhs_sub {
                if lhs_sub {
                    *z = lhs.clone();
                }
                members.push(i);
                placed = true;
                break;
            }
        }
        if !placed {
            clusters.push((lhs, vec![i]));
        }
    }
    clusters.into_iter().map(|(_, members)| members).collect()
}

/// Runs one cluster — CFDs whose LHSs form a containment family, or one
/// CFD related to no other: σ-partition on the `Z`-projected tableau, one
/// shipment per tuple, all member CFDs validated at the coordinators.
///
/// A cluster of one is the single-CFD round of §IV-B on this wire, and
/// charges and names what [`run_single_cfd`] does: its phases carry the
/// CFD's name instead of `cluster`, its projected tableau is its own
/// tableau row for row (`Z` is its LHS; a repeated row still counts in
/// `k`), and a per-pattern coordinator pays one detection query per
/// σ-block it was assigned instead of one per member over all it holds.
fn run_cluster(
    partition: &HorizontalPartition,
    members: &[&SimpleCfd],
    strategy: CoordinatorStrategy,
    ctx: &mut RunCtx,
) {
    let cfg = *ctx.cfg();
    let n = partition.n_sites();
    let fragments = partition.fragments();
    let (alone, label) = match members {
        [only] => (true, only.name.as_str()),
        _ => (false, "cluster"),
    };
    ctx.begin_round();
    for m in members {
        ctx.absorb(&m.name, ViolationSet::default());
    }

    // Constants per member: local checks (Proposition 5), as always.
    // The member loop stays sequential (a site recurs across members,
    // and each clock must see one fixed addition order); within a
    // member, sites fan out across the pool.
    let mut variable_members: Vec<SimpleCfd> = Vec::new();
    for m in members {
        let (var, constants) = m.split_constant();
        if !constants.is_empty() {
            constants_phase(ctx, &m.name, fragments, &constants);
        }
        variable_members.extend(var);
    }
    if variable_members.is_empty() {
        ctx.end_round();
        return;
    }

    // Common attributes Z = ∩ LHS; by the containment invariant this is
    // the smallest member LHS. Keep that member's attribute order.
    let z: Vec<AttrId> = {
        let smallest =
            variable_members.iter().min_by_key(|m| m.lhs.len()).expect("non-empty member list");
        smallest
            .lhs
            .iter()
            .copied()
            .filter(|a| variable_members.iter().all(|m| m.lhs.contains(a)))
            .collect()
    };
    if z.is_empty() {
        // Degenerate cluster; fall back to sequential rounds. The
        // constants above were this round's whole work: close it, or the
        // fallback's own `begin_round` would drop them from `paper_cost`.
        ctx.end_round();
        for m in &variable_members {
            run_single_cfd(partition, m, strategy, ctx);
        }
        return;
    }

    // Projected tableau over Z (deduplicated across members), as a
    // pseudo-CFD for σ.
    let mut seen: FxHashSet<Vec<PatternValue>> = FxHashSet::default();
    let mut projected: Vec<NormalPattern> = Vec::new();
    for m in &variable_members {
        let pos: Vec<usize> =
            z.iter().map(|a| m.lhs.iter().position(|b| b == a).expect("Z ⊆ member LHS")).collect();
        for p in &m.tableau {
            let proj: Vec<PatternValue> = pos.iter().map(|&i| p.lhs[i].clone()).collect();
            if seen.insert(proj.clone()) || alone {
                projected.push(NormalPattern::new(proj, PatternValue::Wild));
            }
        }
    }
    let zcfd = SimpleCfd {
        name: "cluster".to_string(),
        schema: variable_members[0].schema.clone(),
        lhs: z.clone(),
        rhs: variable_members[0].rhs,
        tableau: projected,
    };
    let sorted = sort_for_sigma(&zcfd);

    // σ-partition per site (one scan for the whole cluster); the
    // partitioning condition doubles as the Phase-2 participation rule,
    // exactly as in `run_single_cfd`.
    let applicable: Vec<Vec<usize>> =
        fragments.iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
    let parts = sigma_phase(ctx, label, fragments, &sorted, &applicable);

    // Statistics exchange, among participating sites only.
    exchange_statistics(ctx, label, &applicable, sorted.cfd.tableau.len());

    // Coordinators per projected pattern.
    let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
    let frag_sizes: Vec<usize> = fragments.iter().map(|f| f.data.len()).collect();
    let assignment = assign_coordinators(strategy, &lstat, &frag_sizes, &cfg.cost);

    // Shipment, on the code-native wire: the union of the members'
    // (X ∪ A) attributes, once per tuple for the whole cluster, shipped
    // as `(tid, codes)` rows at 4 bytes/cell.
    let mut attrs: Vec<AttrId> = Vec::new();
    for m in &variable_members {
        for a in m.shipped_attrs() {
            if !attrs.contains(&a) {
                attrs.push(a);
            }
        }
    }
    attrs.sort();
    let layout = shared_layout(fragments, &attrs);
    // Resolve every member against the union layout once; each
    // coordinator validates all members from the same compilation.
    let resolved: Vec<ResolvedCfd> = variable_members.iter().map(|m| layout.resolve(m)).collect();
    ship_phase(ctx, label, fragments, &parts, &assignment, attrs.len(), |c, i| c.index() == i);

    // Validate every member CFD at each coordinator, in parallel, on
    // codes (each member's attributes resolve to columns of the
    // cluster's union layout). Each task gathers its own batch and drops
    // it when it returns.
    let per_block = alone && strategy != CoordinatorStrategy::Central;
    let mut validated = ctx.phase(&format!("validate:{label}"), |p| {
        let per_site = scoped_map(cfg.threads, 0..n, |c| {
            let site = SiteId(c as u32);
            let batch = gather_cluster(fragments, &parts, &assignment, &attrs, site);
            if batch.is_empty() {
                return (None, vec![Flagged::default(); resolved.len()], KernelTally::default());
            }
            let secs = if per_block {
                let blocks = patterns_at(&assignment, site);
                blocks.map(|l| cfg.cost.check_time(pattern_rows(&parts, l))).sum()
            } else {
                cfg.cost.check_time(batch.len()) * variable_members.len() as f64
            };
            let mut found = Vec::with_capacity(resolved.len());
            let mut tally = KernelTally::default();
            for r in &resolved {
                let (flagged, counted) = r.detect_batch(&batch);
                found.push(flagged);
                tally += counted;
            }
            (Some(secs), found, tally)
        });
        // The kernel families exist from the round on, at zero if no
        // coordinator validated anything.
        let mut tally = KernelTally::default();
        let charged = per_site.into_iter().enumerate().map(|(c, (secs, found, counted))| {
            if let Some(secs) = secs {
                p.compute(SiteId(c as u32), secs);
            }
            tally += counted;
            found
        });
        let validated = charged.collect::<Vec<_>>();
        tally.record(p.metrics());
        validated
    });
    // The σ-blocks are done with before the member sets are built.
    drop(parts);
    // A tuple reaches one coordinator per cluster, so what the
    // coordinators found for a member is disjoint: its set is built once.
    for (mi, m) in variable_members.iter().enumerate() {
        let found = validated.iter_mut().map(|at_site| std::mem::take(&mut at_site[mi])).collect();
        ctx.absorb(&m.name, ViolationSet::from_disjoint(found));
    }
    ctx.end_round();
}

/// Coordinator `site`'s share of the cluster's shipment, as its pool
/// task validates it: the σ-blocks of the patterns assigned to it, in
/// (pattern, fragment) order, copied a column at a time from the
/// fragments' columns into one [`CodeBatch`] — the rows [`ship_phase`]
/// priced. The batch is sized from those blocks, so a coordinator
/// allocates `attrs + 1` buffers however many rows it receives.
fn gather_cluster(
    fragments: &[Fragment],
    parts: &[SigmaPartition],
    assignment: &[Option<SiteId>],
    attrs: &[AttrId],
    site: SiteId,
) -> CodeBatch {
    let mine = patterns_at(assignment, site);
    let rows = mine.clone().map(|l| pattern_rows(parts, l)).sum();
    let mut batch = CodeBatch::with_capacity(attrs.len(), rows);
    for l in mine {
        for (frag, part) in fragments.iter().zip(parts) {
            let block = &part.blocks[l];
            if !block.is_empty() {
                frag.data.gather_into(attrs, block, &mut batch);
            }
        }
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Relation, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("ac", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        if i % 3 == 0 { 44 } else { 31 },
                        (i % 4) as i64,
                        format!("z{}", i % 6),
                        format!("s{}", i % 4),
                        format!("c{}", i % 3)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    /// Overlapping pair like the paper's Exp-5: LHS(φ2) ⊂ LHS(φ1).
    fn overlapping_sigma(s: &Arc<Schema>) -> Vec<Cfd> {
        vec![
            parse_cfd(s, "phi1", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(s, "phi2", "([cc] -> [city])").unwrap(),
        ]
    }

    /// Every buffer of every batch holds exactly the rows it was created
    /// for: `width + 1` allocations per coordinator, none per row.
    fn assert_sized_once(gathered: &[CodeBatch], width: usize) {
        for batch in gathered {
            assert_eq!(batch.cols.len(), width);
            assert_eq!(batch.tids.capacity(), batch.len(), "sized once, from the blocks");
            for col in &batch.cols {
                assert_eq!((col.len(), col.capacity()), (batch.len(), batch.len()));
            }
        }
    }

    /// Each coordinator gathers its own batch, never per row: every
    /// buffer is created at the size of the blocks assigned to that
    /// coordinator and filled without growing, its rows come in
    /// (pattern, fragment) order, and the batches of all coordinators
    /// are what one pass over every block would have gathered.
    #[test]
    fn each_coordinator_gathers_exactly_its_assigned_blocks() {
        let rel = sample(90);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let frags = partition.fragments();
        let attrs: Vec<AttrId> =
            ["cc", "zip", "city"].map(|a| rel.schema().require(a).unwrap()).into();
        // Three projected patterns; site 1 holds nothing of the second,
        // and site 0 coordinates two.
        let parts: Vec<SigmaPartition> = [
            [vec![0, 2, 5, 6], vec![1, 3], vec![7]],
            [vec![4, 9, 29], vec![], vec![0, 1]],
            [vec![], (3..25).collect(), vec![26]],
        ]
        .into_iter()
        .map(|blocks| SigmaPartition { blocks: blocks.into(), comparisons: 0 })
        .collect();
        let assignment = [Some(SiteId(2)), Some(SiteId(0)), Some(SiteId(0))];

        let gathered: Vec<CodeBatch> =
            (0..3).map(|c| gather_cluster(frags, &parts, &assignment, &attrs, SiteId(c))).collect();
        let rows_at: Vec<usize> = gathered.iter().map(CodeBatch::len).collect();
        assert_eq!(rows_at, [2 + 22 + 1 + 2 + 1, 0, 4 + 3]);
        assert_sized_once(&gathered, attrs.len());

        // Pattern-major, then by fragment: the rows `code_rows` would ship.
        let mut want = frags[0].data.code_rows(&attrs, &parts[0].blocks[1]);
        want.extend(frags[2].data.code_rows(&attrs, &parts[2].blocks[1]));
        for (frag, part) in frags.iter().zip(&parts) {
            want.extend(frag.data.code_rows(&attrs, &part.blocks[2]));
        }
        assert_eq!(gathered[0].tids, want.iter().map(|(tid, _)| *tid).collect::<Vec<_>>());
        for (j, col) in gathered[0].cols.iter().enumerate() {
            assert_eq!(*col, want.iter().map(|(_, cells)| cells[j]).collect::<Vec<_>>());
        }

        // One pass over every (pattern, fragment) block, into every
        // coordinator's batch at once: the same batches.
        let mut one_shot: Vec<CodeBatch> =
            (0..3).map(|_| CodeBatch::with_capacity(attrs.len(), 0)).collect();
        for (l, coord) in assignment.iter().enumerate() {
            let c = coord.expect("every pattern has a coordinator").index();
            for (frag, part) in frags.iter().zip(&parts) {
                frag.data.gather_into(&attrs, &part.blocks[l], &mut one_shot[c]);
            }
        }
        assert_eq!(gathered, one_shot);
    }

    #[test]
    fn clustering_groups_containment_families() {
        let s = schema();
        let sigma = [
            parse_cfd(&s, "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([cc] -> [city])").unwrap(),
            parse_cfd(&s, "c", "([ac] -> [city])").unwrap(),
        ];
        let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
        let clusters = cluster_by_lhs(&simples);
        assert_eq!(clusters, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn seq_and_clust_agree_with_centralized() {
        let rel = sample(80);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        let inner = CoordinatorStrategy::MinResponseTime;
        let runs =
            [run_seq(&partition, &sigma, inner, &cfg), run_clust(&partition, &sigma, inner, &cfg)];
        for d in runs {
            assert_eq!(d.violations.all_tids(), global.all_tids(), "{}", d.algorithm);
            // Per-CFD sets match too.
            for (name, vs) in &global.per_cfd {
                let (_, got) =
                    d.violations.per_cfd.iter().find(|(n, _)| n == name).expect("cfd present");
                assert_eq!(&got.tids(), &vs.tids(), "{} / {}", d.algorithm, name);
            }
        }
    }

    #[test]
    fn clust_ships_fewer_tuples_than_seq() {
        let rel = sample(200);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        let inner = CoordinatorStrategy::MinResponseTime;
        let seq = run_seq(&partition, &sigma, inner, &cfg);
        let clust = run_clust(&partition, &sigma, inner, &cfg);
        assert!(
            clust.shipped_tuples < seq.shipped_tuples,
            "clust {} !< seq {}",
            clust.shipped_tuples,
            seq.shipped_tuples
        );
    }

    /// CFDs related to no other are clusters of one: each runs the
    /// cluster round under its own name — a trace still says which rule
    /// shipped the bytes — and on the cluster's wire, its σ-blocks
    /// gathered into per-coordinator batches with no buffer per row.
    #[test]
    fn a_cfd_related_to_no_other_runs_the_cluster_round_under_its_own_name() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = vec![
            parse_cfd(&s, "a", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([ac] -> [city])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let (cfg, inner) = (RunConfig::default(), CoordinatorStrategy::MinResponseTime);
        let d = run_clust(&partition, &sigma, inner, &cfg);
        assert_eq!(d.violations, global);
        let mut phases: Vec<&str> = d.trace.spans.iter().map(|s| s.name.as_str()).collect();
        phases.dedup();
        let want = ["sigma:a", "exchange:a", "ship:a", "validate:a"];
        assert_eq!(phases, [want, ["sigma:b", "exchange:b", "ship:b", "validate:b"]].concat());

        // The one-member round's shipment, step by step.
        let b = sigma[1].simplify().pop().unwrap();
        let sorted = sort_for_sigma(&b);
        let applicable = vec![vec![0]; partition.n_sites()];
        let mut ctx = RunCtx::new(partition.n_sites(), cfg);
        let parts = sigma_phase(&mut ctx, "b", partition.fragments(), &sorted, &applicable);
        let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
        let assignment = assign_coordinators(inner, &lstat, &[20; 3], &cfg.cost);
        let attrs = b.shipped_attrs();
        let own = |c: SiteId, i: usize| c.index() == i;
        ship_phase(&mut ctx, "b", partition.fragments(), &parts, &assignment, attrs.len(), own);
        let gathered: Vec<CodeBatch> = (0..3)
            .map(|c| gather_cluster(partition.fragments(), &parts, &assignment, &attrs, SiteId(c)))
            .collect();
        assert_eq!(gathered.iter().map(CodeBatch::len).sum::<usize>(), rel.len());
        assert_sized_once(&gathered, attrs.len());
        let shipped = ctx.finish("gather").shipped_tuples;
        assert!(
            0 < shipped && shipped < rel.len(),
            "every row gathered, a coordinator's own not shipped"
        );
    }

    #[test]
    fn constant_patterns_inside_clusters_are_checked() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = vec![
            parse_cfd(&s, "a", "([cc=44, zip] -> [street])").unwrap(),
            parse_cfd(&s, "b", "([cc=44] -> [city=c0])").unwrap(),
        ];
        let global = dcd_cfd::detect_set(&rel, &sigma);
        assert!(!global.all_tids().is_empty());
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d = run_clust(
            &partition,
            &sigma,
            CoordinatorStrategy::MinResponseTime,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.all_tids(), global.all_tids());
    }

    /// `Z = ∅` (an empty-LHS member joins any cluster and shrinks `Z` to
    /// itself): the constants were checked inside the cluster's round,
    /// and that round must reach `paper_cost` before the fallback opens
    /// one round per member.
    #[test]
    fn a_degenerate_cluster_keeps_its_constants_round_in_paper_cost() {
        use dcd_cfd::{PatternTuple, PatternValue};
        let rel = sample(60);
        let s = rel.schema().clone();
        let by_cc = Cfd::with_names(
            "by_cc",
            s.clone(),
            &["cc"],
            &["city"],
            vec![
                PatternTuple::new(
                    vec![PatternValue::constant(44i64)],
                    vec![PatternValue::constant("c0")],
                ),
                PatternTuple::new(vec![PatternValue::Wild], vec![PatternValue::Wild]),
            ],
        )
        .unwrap();
        let no_lhs = Cfd::with_names(
            "no_lhs",
            s,
            &[],
            &["street"],
            vec![PatternTuple::new(vec![], vec![PatternValue::Wild])],
        )
        .unwrap();
        let simples: Vec<SimpleCfd> =
            [&by_cc, &no_lhs].into_iter().flat_map(Cfd::simplify).collect();
        assert_eq!(cluster_by_lhs(&simples), [[0, 1]], "one cluster, Z = ∅");
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let (cfg, inner) = (RunConfig::default(), CoordinatorStrategy::MinShipment);

        let mut by_hand = RunCtx::new(partition.n_sites(), cfg);
        let (variable, constants) = simples[0].split_constant();
        by_hand.begin_round();
        constants_phase(&mut by_hand, &simples[0].name, partition.fragments(), &constants);
        let constants_round = by_hand.end_round();
        assert!(constants_round > 0.0, "the constants round costs its scans");
        for m in variable.iter().chain([&simples[1]]) {
            run_single_cfd(&partition, m, inner, &mut by_hand);
        }
        let want = by_hand.finish("by hand");

        let got = run_clust(&partition, &[by_cc, no_lhs], inner, &cfg);
        assert_eq!(got.paper_cost, want.paper_cost);
        assert_eq!(got.site_clocks, want.site_clocks);
        assert_eq!(got.violations.all_tids(), want.violations.all_tids());
    }

    /// A cluster of one keeps its tableau row for row: a repeated LHS
    /// pattern is a row of `k`, so each of the `n·(n−1)` statistics
    /// messages carries `8·k` bytes as in the single-CFD round — the
    /// cross-member dedupe of the projection must not reach it.
    #[test]
    fn a_repeated_row_counts_in_a_cluster_of_ones_statistics_exchange() {
        use dcd_cfd::{PatternTuple, PatternValue};
        let rel = sample(60);
        let row =
            || PatternTuple::new(vec![PatternValue::constant(44i64)], vec![PatternValue::Wild]);
        let twice =
            Cfd::with_names("twice", rel.schema().clone(), &["cc"], &["city"], vec![row(), row()])
                .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let (cfg, inner) = (RunConfig::default(), CoordinatorStrategy::MinShipment);
        let got = run_clust(&partition, std::slice::from_ref(&twice), inner, &cfg);
        let want = crate::run_batch(&partition, &twice.simplify(), inner, &cfg);
        assert_eq!((got.control_messages, got.control_bytes), (3 * 2, 3 * 2 * 8 * 2));
        assert_eq!(got.control_bytes, want.control_bytes);
        assert_eq!(got.site_clocks, want.site_clocks);
        assert_eq!(got.paper_cost, want.paper_cost);
        assert_eq!(got.violations.all_tids(), want.violations.all_tids());
    }

    #[test]
    fn seq_with_min_shipment_inner() {
        let rel = sample(60);
        let s = rel.schema().clone();
        let sigma = overlapping_sigma(&s);
        let global = dcd_cfd::detect_set(&rel, &sigma);
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d =
            run_seq(&partition, &sigma, CoordinatorStrategy::MinShipment, &RunConfig::default());
        assert_eq!(d.violations.all_tids(), global.all_tids());
    }
}

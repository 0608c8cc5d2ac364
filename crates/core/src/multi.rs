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
//! on the same code wire, under the CFD's name and at the
//! single-CFD round's charges (`run_cluster`). A cluster with nothing to
//! partition on (`Z = ∅`) runs each member as a cluster of one.
//!
//! The cluster round is the one round of every horizontal engine but
//! `run_batch`: `SEQDETECT` runs each CFD as a cluster of one, and so do
//! `REPDETECT` (over the fragments each site holds a replica of) and
//! `HYBRIDDETECT` (across its cells). It shares every step with
//! `run_batch`'s round — σ to assignment (`runner::sigma_to_assignment`,
//! over the rows each site holds), the `ship:` price and the `validate:`
//! phase (`runner::validate_phase`) — but its coordinators' task body,
//! which reads the σ-blocks where the fragments hold them.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::report::Detection;
use crate::runner::{
    constants_phase, own_fragment, patterns_at, shared_layout, ship_phase, sigma_to_assignment,
    validate_phase, CoordinatorStrategy,
};
use crate::sigma::{sort_for_sigma, SigmaPartition};
use dcd_cfd::codes::ResolvedCfd;
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{Cfd, KernelTally, NormalPattern, PatternValue, SimpleCfd};
use dcd_dist::{Fragment, HorizontalPartition, SiteId};
use dcd_relation::{AttrId, Codes, FxHashSet, TupleId};

/// Runs `SEQDETECT`: pipelined sequential processing, one CFD at a
/// time over one shared [`RunCtx`], each a cluster of one run with the
/// `inner` single-CFD strategy (the paper runs either `PATDETECTS` or
/// `PATDETECTRT`).
pub fn run_seq(
    partition: &HorizontalPartition,
    sigma: &[Cfd],
    inner: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    for simple in sigma.iter().flat_map(Cfd::simplify) {
        run_cluster(&mut ctx, partition.fragments(), &[&simple], inner, &own_fragment);
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
        run_cluster(&mut ctx, partition.fragments(), &members, inner, &own_fragment);
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
/// `holds(site, f)` says whether `site` already has fragment `f`'s rows —
/// its own, or a replica: the strategy ranks sites by the σ-block rows
/// they hold, and a held fragment ships nothing.
///
/// The ledger prices every shipped row (`ship:`); the host copies none.
/// Each coordinator's `validate:` task lists the σ-blocks assigned to it
/// in (pattern, fragment) order and validates every member over them
/// where the fragments hold them ([`ResolvedCfd::detect_blocks`]): one
/// group-id table per member spans the blocks, so groups, verdicts and
/// output order are those of one batch of the same rows.
///
/// A cluster of one is the single-CFD round of §IV-B on this wire, and
/// charges and names what `run_batch`'s round does: its phases carry the
/// CFD's name instead of `cluster`, its projected tableau is its own
/// tableau row for row (`Z` is its LHS, even an empty one; a repeated row
/// still counts in `k`), and a per-pattern coordinator pays one detection
/// query per σ-block it was assigned instead of one per member over all
/// it holds.
pub(crate) fn run_cluster(
    ctx: &mut RunCtx,
    fragments: &[Fragment],
    members: &[&SimpleCfd],
    strategy: CoordinatorStrategy,
    holds: &dyn Fn(SiteId, usize) -> bool,
) {
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
    // Common attributes Z = ∩ LHS; by the containment invariant this is
    // the smallest member LHS. Keep that member's attribute order. With
    // no variable member, the constants were the round's whole work.
    let Some(smallest) = variable_members.iter().min_by_key(|m| m.lhs.len()) else {
        ctx.end_round();
        return;
    };
    let z: Vec<AttrId> = smallest
        .lhs
        .iter()
        .copied()
        .filter(|a| variable_members.iter().all(|m| m.lhs.contains(a)))
        .collect();
    if z.is_empty() && !alone {
        // Nothing to partition the family on: the constants above were
        // this round's whole work, so it closes (or each member's own
        // `begin_round` would drop them from `paper_cost`), and every
        // member runs as a cluster of one.
        ctx.end_round();
        for m in &variable_members {
            run_cluster(ctx, fragments, &[m], strategy, holds);
        }
        return;
    }

    // Projected tableau over Z (deduplicated across members), as a
    // pseudo-CFD for σ.
    let mut seen: FxHashSet<Vec<PatternValue>> = FxHashSet::default();
    let mut projected: Vec<NormalPattern> = Vec::new();
    for m in &variable_members {
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: `Z` keeps only attributes every member's LHS holds"
        )]
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

    // σ-partition per site (one scan for the whole cluster), then
    // coordinators per projected pattern, over the rows each site holds.
    let (parts, assignment) = sigma_to_assignment(ctx, label, fragments, &sorted, strategy, holds);

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
    ship_phase(ctx, label, fragments, &parts, &assignment, attrs.len(), holds);

    // Validate every member CFD at each coordinator, in parallel, on
    // codes (each member's attributes resolve to columns of the
    // cluster's union layout), one detection query per resolved member.
    // Each task lists the σ-blocks assigned to it and reads their rows
    // where the fragments hold them.
    let per_block = alone && strategy != CoordinatorStrategy::Central;
    let views: Vec<Vec<Codes<'_>>> = fragments.iter().map(|f| f.data.code_views(&attrs)).collect();
    let mut validated =
        validate_phase(ctx, label, &parts, &assignment, per_block, resolved.len(), |site| {
            let blocks = assigned_blocks(fragments, &views, &parts, &assignment, site);
            let mut found = Vec::with_capacity(resolved.len());
            let mut tally = KernelTally::default();
            for r in &resolved {
                let (flagged, counted) = r.detect_blocks(blocks.iter().copied());
                found.push(flagged);
                tally += counted;
            }
            (found, tally)
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

/// A block of rows where a fragment holds it: the fragment's columns in
/// layout order, its tuple ids and the block's rows.
type Block<'a> = (&'a [Codes<'a>], &'a [TupleId], &'a [usize]);

/// Coordinator `site`'s share of the cluster's shipment, as its pool
/// task validates it: the non-empty σ-blocks of the patterns assigned to
/// it, in (pattern, fragment) order — the rows [`ship_phase`] priced —
/// each over the columns `views` lists for its fragment. Nothing is
/// copied.
fn assigned_blocks<'a>(
    fragments: &'a [Fragment],
    views: &'a [Vec<Codes<'a>>],
    parts: &'a [SigmaPartition],
    assignment: &[Option<SiteId>],
    site: SiteId,
) -> Vec<Block<'a>> {
    let frags = fragments.iter().zip(views).zip(parts);
    patterns_at(assignment, site)
        .flat_map(|l| {
            frags
                .clone()
                .map(move |((f, cols), part)| (&cols[..], f.data.tids(), &part.blocks[l][..]))
        })
        .filter(|(_, _, rows)| !rows.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::applicable_patterns;
    use crate::runner::{assign_coordinators, sigma_phase};
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

    const STRATEGIES: [CoordinatorStrategy; 3] = [
        CoordinatorStrategy::Central,
        CoordinatorStrategy::MinShipment,
        CoordinatorStrategy::MinResponseTime,
    ];

    /// Overlapping pair like the paper's Exp-5: LHS(φ2) ⊂ LHS(φ1).
    fn overlapping_sigma(s: &Arc<Schema>) -> Vec<Cfd> {
        vec![
            parse_cfd(s, "phi1", "([cc, zip] -> [street])").unwrap(),
            parse_cfd(s, "phi2", "([cc] -> [city])").unwrap(),
        ]
    }

    /// Each coordinator validates exactly the σ-blocks assigned to it, in
    /// (pattern, fragment) order, read where the fragments hold them —
    /// an empty fragment and a block that is a whole fragment (what an FD
    /// cluster's σ gives) included — and finds, bit for bit, what a copy
    /// of those blocks into one batch finds: the same `Flagged` (ids in
    /// row order, keys in first-seen order) and the same tallies.
    #[test]
    fn each_coordinator_validates_exactly_its_assigned_blocks() {
        use dcd_relation::{Atom, Predicate};
        let rel = sample(90);
        let cc = rel.schema().require("cc").unwrap();
        let by_cc = [44, 31, 7].map(|v| Predicate::atom(Atom::eq(cc, v as i64)));
        let partition = HorizontalPartition::by_predicates(&rel, by_cc.into()).unwrap();
        let frags = partition.fragments();
        assert_eq!(frags.iter().map(|f| f.data.len()).collect::<Vec<_>>(), [30, 60, 0]);
        let members: Vec<SimpleCfd> =
            overlapping_sigma(rel.schema()).iter().flat_map(Cfd::simplify).collect();
        let attrs: Vec<AttrId> =
            ["cc", "zip", "street", "city"].map(|a| rel.schema().require(a).unwrap()).into();
        let layout = shared_layout(frags, &attrs);
        let resolved: Vec<ResolvedCfd> = members.iter().map(|m| layout.resolve(m)).collect();
        // Three projected patterns. Fragment 0's last block is the whole
        // fragment, fragment 2 holds nothing; site 2, whose fragment is
        // empty, coordinates the first pattern and site 0 the other two,
        // the second's block coming from a later fragment than the third's.
        let parts: Vec<SigmaPartition> = [
            [vec![], vec![], (0..30).collect()],
            [vec![4, 9, 29], vec![0, 1, 2, 3, 5, 6, 7, 8], (30..60).collect()],
            [vec![], vec![], vec![]],
        ]
        .into_iter()
        .map(|blocks| SigmaPartition { blocks: blocks.into(), comparisons: 0 })
        .collect();
        let assignment = [Some(SiteId(2)), Some(SiteId(0)), Some(SiteId(0))];
        let views: Vec<Vec<Codes<'_>>> = frags.iter().map(|f| f.data.code_views(&attrs)).collect();

        let mut flagged_any = false;
        for (c, want) in [vec![(1, 1), (2, 0), (2, 1)], vec![], vec![(0, 1)]].iter().enumerate() {
            let blocks = assigned_blocks(frags, &views, &parts, &assignment, SiteId(c as u32));
            // Pattern-major, then by fragment, each block where it lies.
            assert_eq!(blocks.len(), want.len(), "site {c}");
            for (&(cols, tids, rows), &(l, f)) in blocks.iter().zip(want) {
                assert!(std::ptr::eq(rows, &parts[f].blocks[l][..]), "site {c}: ({l}, {f})");
                assert!(std::ptr::eq(tids, frags[f].data.tids()) && cols == &views[f][..]);
            }
            // The test-side copy: every block's rows, in order, into one
            // batch — the rows `code_rows` would ship.
            let wire: Vec<_> = want
                .iter()
                .flat_map(|&(l, f)| frags[f].data.code_rows(&attrs, &parts[f].blocks[l]))
                .collect();
            let tids: Vec<TupleId> = wire.iter().map(|(tid, _)| *tid).collect();
            let cols: Vec<Vec<u32>> = (0..attrs.len())
                .map(|j| wire.iter().map(|(_, cells)| cells[j]).collect())
                .collect();
            let cols: Vec<Codes<'_>> = cols.iter().map(|c| Codes::U32(c)).collect();
            let all: Vec<usize> = (0..tids.len()).collect();
            for r in &resolved {
                let (found, tally) = r.detect_blocks(blocks.iter().copied());
                let copied = r.detect_blocks([(&cols[..], &tids[..], &all[..])]);
                assert_eq!((&found, tally), (&copied.0, copied.1), "site {c}");
                flagged_any |= !found.tids.is_empty();
            }
        }
        assert!(flagged_any, "the fixture must flag something");
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
    /// shipped the bytes — and on the cluster's wire, every σ-block read
    /// in place by exactly one coordinator.
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
        let (frags, mut ctx) = (partition.fragments(), RunCtx::new(partition.n_sites(), cfg));
        let parts = sigma_phase(&mut ctx, "b", frags, &sorted, &applicable);
        let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
        let assignment = assign_coordinators(inner, &lstat, &[20; 3], &cfg.cost);
        let attrs = b.shipped_attrs();
        ship_phase(&mut ctx, "b", frags, &parts, &assignment, attrs.len(), own_fragment);
        let views: Vec<Vec<Codes<'_>>> = frags.iter().map(|f| f.data.code_views(&attrs)).collect();
        let read: usize = (0..3)
            .flat_map(|c| assigned_blocks(frags, &views, &parts, &assignment, SiteId(c)))
            .map(|(_, _, rows)| rows.len())
            .sum();
        assert_eq!(read, rel.len());
        let shipped = ctx.finish("gather").shipped_tuples;
        assert!(
            0 < shipped && shipped < rel.len(),
            "every row read, a coordinator's own not shipped"
        );
    }

    /// Pricing (`ship_phase`) and building (the coordinators' tasks) are
    /// two loops over the same blocks: whatever the strategy, and
    /// whether a coordinator holds its own fragment or a replica too, the
    /// ledger charges exactly the σ-block rows each pattern's
    /// coordinator does not hold, and the rows built find every
    /// violation.
    #[test]
    fn a_round_prices_exactly_the_blocks_its_coordinators_do_not_hold() {
        let (rel, n) = (sample(90), 4);
        let by_cc = |cc: i64| format!("([cc={cc}, zip] -> [street])");
        let [c44, c31] = [44, 31].map(|cc| parse_cfd(rel.schema(), "phi", &by_cc(cc)).unwrap());
        let cfd = Cfd::merge("phi", &[&c44, &c31]).unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let simple = cfd.simplify().pop().unwrap();
        let partition = HorizontalPartition::round_robin(&rel, n).unwrap();
        let frags = partition.fragments();
        let replicated = |s: SiteId, f: usize| s.index() == f || (s.index() + 1) % n == f;
        let cfg = RunConfig::default();
        for strategy in STRATEGIES {
            for holds in [&own_fragment as &dyn Fn(SiteId, usize) -> bool, &replicated] {
                let mut ctx = RunCtx::new(n, cfg);
                run_cluster(&mut ctx, frags, &[&simple], strategy, holds);
                let d = ctx.finish("round");
                assert_eq!(d.violations.per_cfd[0].1, global, "{strategy:?}");

                // The round's blocks and coordinators, by hand.
                let sorted = sort_for_sigma(&simple);
                let applicable: Vec<Vec<usize>> =
                    frags.iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
                let mut scratch = RunCtx::new(n, cfg);
                let parts = sigma_phase(&mut scratch, "phi", frags, &sorted, &applicable);
                let k = sorted.cfd.tableau.len();
                let held: Vec<Vec<usize>> = (0..n)
                    .map(|s| {
                        let mine = || (0..n).filter(move |&f| holds(SiteId(s as u32), f));
                        (0..k).map(|l| mine().map(|f| parts[f].blocks[l].len()).sum()).collect()
                    })
                    .collect();
                let sizes: Vec<usize> = frags.iter().map(|f| f.data.len()).collect();
                let assignment = assign_coordinators(strategy, &held, &sizes, &cfg.cost);
                let unheld: usize = (0..k)
                    .filter_map(|l| assignment[l].map(|c| (l, c)))
                    .flat_map(|(l, c)| (0..n).filter(move |&f| !holds(c, f)).map(move |f| (l, f)))
                    .map(|(l, f)| parts[f].blocks[l].len())
                    .sum();
                assert!(unheld > 0, "{strategy:?}: something ships");
                let width = simple.shipped_attrs().len() + dcd_dist::TID_CELLS;
                assert_eq!(
                    (d.shipped_tuples, d.shipped_cells),
                    (unheld, unheld * width),
                    "{strategy:?}"
                );
            }
        }
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
    /// and that round must reach `paper_cost` before each member opens a
    /// round of its own as a cluster of one.
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
            run_cluster(&mut by_hand, partition.fragments(), &[m], inner, &own_fragment);
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

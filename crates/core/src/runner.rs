//! Shared machinery for the single-CFD detection algorithms of §IV-B.
//!
//! `CTRDETECT`, `PATDETECTS` and `PATDETECTRT` differ *only* in how
//! coordinators are assigned to pattern tuples (a single global
//! coordinator vs. per-pattern max-shipper vs. per-pattern greedy
//! response-time). Everything else — constant-CFD local checks,
//! partitioning-condition filtering, σ-partitioning, the statistics
//! exchange, shipment execution, coordinator-side validation and cost
//! accounting — is identical and lives here.
//!
//! The per-site phases (constants, σ) run one pool task per site over the
//! site's whole fragment, and the coordinators validate one task per site,
//! each building the wire rows it validates; every charge is applied
//! after the join, in site order.

use crate::config::RunConfig;
use crate::ctx::RunCtx;
use crate::local::{applicable_patterns, check_constants_range};
use crate::report::Detection;
use crate::sigma::{sigma_partition, sort_for_sigma, SigmaPartition, SortedCfd};
use dcd_cfd::codes::{CodeLayout, CodeRow};
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{KernelTally, NormalCfd, SimpleCfd};
use dcd_dist::pool::scoped_map;
use dcd_dist::{CostModel, Fragment, HorizontalPartition, SiteId};
use dcd_relation::AttrId;

/// How coordinators are assigned to the pattern tuples of one CFD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorStrategy {
    /// One coordinator for the whole CFD: the site with the most
    /// matching tuples (`CTRDETECT`).
    Central,
    /// Per pattern, the site holding the most tuples for that pattern —
    /// it would otherwise ship the most (`PATDETECTS`).
    MinShipment,
    /// Per pattern, greedily minimize the §III-B response-time estimate
    /// (`PATDETECTRT`).
    MinResponseTime,
}

impl CoordinatorStrategy {
    /// The paper's name for the single-CFD algorithm this strategy
    /// realizes — the label a [`crate::Detection`] carries.
    pub fn algorithm_name(self) -> &'static str {
        match self {
            CoordinatorStrategy::Central => "CTRDETECT",
            CoordinatorStrategy::MinShipment => "PATDETECTS",
            CoordinatorStrategy::MinResponseTime => "PATDETECTRT",
        }
    }
}

/// The [`CodeLayout`] of wire rows shipped over `attrs` in a
/// partition. Fragments of one partition code against a single shared
/// dictionary set (the `dcd-dist` constructors guarantee it), so the
/// first fragment's dictionaries describe every site's rows; debug
/// builds verify the sharing.
pub(crate) fn shared_layout(fragments: &[Fragment], attrs: &[AttrId]) -> CodeLayout {
    debug_assert!(
        fragments.iter().all(|f| attrs.iter().all(|&a| std::sync::Arc::ptr_eq(
            f.data.dictionary(a),
            fragments[0].data.dictionary(a)
        ))),
        "fragments must share one dictionary set (build partitions through dcd-dist)"
    );
    CodeLayout::of_relation(&fragments[0].data, attrs)
}

/// The Proposition-5 phase shared by every engine: constant CFDs checked
/// locally, one pool task per site over its whole fragment, each site's
/// violations absorbed under `cfd` in site order. Each site's clock is
/// advanced once, after the join.
pub(crate) fn constants_phase(
    ctx: &mut RunCtx,
    cfd: &str,
    fragments: &[Fragment],
    constants: &[NormalCfd],
) {
    let cfg = *ctx.cfg();
    let checked = ctx.phase(&format!("constants:{cfd}"), |p| {
        let per_site = scoped_map(cfg.threads, fragments, |frag| {
            check_constants_range(frag, constants, 0, frag.data.len())
        });
        for frag in fragments {
            let secs = cfg.cost.scan_time(frag.data.len())
                + cfg.cost.match_coeff * frag.data.len() as f64 * constants.len() as f64;
            p.compute(frag.site, secs);
        }
        per_site
    });
    for vs in checked {
        ctx.absorb(cfd, vs);
    }
}

/// The σ-partition phase shared by every engine: one pool task per site
/// over its whole fragment, each charged after the join from the
/// comparisons it counted. Sites the partitioning condition excludes
/// (`applicable[i]` empty) do not scan, get an empty partition, and are
/// not charged. Returns the per-site partitions.
pub(crate) fn sigma_phase(
    ctx: &mut RunCtx,
    cfd: &str,
    fragments: &[Fragment],
    sorted: &SortedCfd,
    applicable: &[Vec<usize>],
) -> Vec<SigmaPartition> {
    let cfg = *ctx.cfg();
    let k = sorted.cfd.tableau.len();
    ctx.phase(&format!("sigma:{cfd}"), |p| {
        let parts = scoped_map(cfg.threads, fragments.iter().zip(applicable), |(frag, app)| {
            if app.is_empty() {
                // Partitioning condition: the site is irrelevant to every
                // pattern — it does not even scan.
                return SigmaPartition { blocks: vec![Vec::new(); k], comparisons: 0 };
            }
            sigma_partition(&frag.data, sorted, app)
        });
        for ((frag, app), part) in fragments.iter().zip(applicable).zip(&parts) {
            if !app.is_empty() {
                let secs = cfg.cost.scan_time(frag.data.len())
                    + cfg.cost.match_coeff * part.comparisons as f64;
                p.compute(frag.site, secs);
            }
        }
        parts
    })
}

/// The §IV-B statistics exchange, with the participation rules shared
/// by every detection round: sites whose fragmentation predicate
/// refutes every pattern (`applicable[i]` empty) are excluded from the
/// exchange, and with fewer than two participants the exchange — its
/// messages of `k` counts, their send time, and the barrier — is skipped
/// entirely. Each participant pays for its outgoing control packets
/// before the barrier, and the barrier spans *participants only*: an
/// excluded site keeps its own clock and pipelines straight into the
/// next round instead of idling through an exchange it takes no part
/// in.
pub(crate) fn exchange_statistics(
    ctx: &mut RunCtx,
    cfd: &str,
    applicable: &[Vec<usize>],
    k: usize,
) {
    let participants: Vec<SiteId> = (0..applicable.len())
        .filter(|&i| !applicable[i].is_empty())
        .map(|i| SiteId(i as u32))
        .collect();
    if participants.len() < 2 {
        return;
    }
    ctx.phase(&format!("exchange:{cfd}"), |p| {
        for &i in &participants {
            p.control(i, participants.iter().copied().filter(|&j| j != i), k);
        }
        p.barrier(&participants);
    });
}

/// Prices a round's shipment: every pattern's σ-blocks go to its
/// coordinator, and a non-empty block from a fragment the coordinator
/// does not already `holds` (itself, or a replica) is charged by the
/// ledger at `width` cells per row, in (pattern, fragment) order. Only
/// the price moves here: each coordinator builds the rows it receives
/// inside its own validation task, from the same blocks in the same
/// order.
pub(crate) fn ship_phase(
    ctx: &mut RunCtx,
    label: &str,
    fragments: &[Fragment],
    parts: &[SigmaPartition],
    assignment: &[Option<SiteId>],
    width: usize,
    holds: impl Fn(SiteId, usize) -> bool,
) {
    ctx.phase(&format!("ship:{label}"), |p| {
        let mut wire = p.transfer();
        for (l, coord) in assignment.iter().enumerate() {
            let Some(c) = *coord else { continue };
            for (i, (frag, part)) in fragments.iter().zip(parts).enumerate() {
                let rows = part.blocks[l].len();
                if rows > 0 && !holds(c, i) {
                    wire.send(c, frag.site, rows, width);
                }
            }
        }
        wire.commit();
    });
}

/// The patterns `assignment` gives coordinator `site`, in tableau order.
pub(crate) fn patterns_at(
    assignment: &[Option<SiteId>],
    site: SiteId,
) -> impl Iterator<Item = usize> + Clone + '_ {
    (0..assignment.len()).filter(move |&l| assignment[l] == Some(site))
}

/// The rows of pattern `l`'s σ-blocks, over every fragment.
pub(crate) fn pattern_rows(parts: &[SigmaPartition], l: usize) -> usize {
    parts.iter().map(|part| part.blocks[l].len()).sum()
}

/// Ships every pattern's σ-blocks to its coordinator on the code-native
/// wire and validates them there — the second half of [`run_round`].
/// Sites ship `(tid, codes)` rows over the CFD's shipped attributes —
/// dictionaries are shared across fragments, so codes are
/// site-portable — priced by [`ship_phase`]; a fragment the coordinator
/// already `holds` ships nothing.
/// No tuple payload crosses the simulated wire. Validation runs at the
/// coordinators in parallel, on codes: grouping keys are slot indices
/// or packed `CodeKey`s and the distinct-RHS test compares `u32` codes;
/// only violating group keys are decoded.
///
/// Each coordinator's pool task builds its host copy of the wire itself
/// (Lemma 6: a σ-block is validated on its own). Whatever the strategy,
/// a coordinator builds one block's rows (`Relation::code_rows` over
/// every fragment's block, in fragment order), validates them and drops
/// them before the next block, so a round holds its σ-blocks plus one
/// block per running task. A σ-block holds whole LHS groups and the
/// variable tableau's RHS is `_`, so block by block forms the groups,
/// verdicts and probes one query over all of them would. Only the
/// charge follows the strategy: `CTRDETECT` prices its coordinator's one
/// query over every row it gathered, the others one query per block.
fn ship_and_validate(
    ctx: &mut RunCtx,
    fragments: &[Fragment],
    sorted: &SortedCfd,
    parts: &[SigmaPartition],
    assignment: &[Option<SiteId>],
    central: bool,
    holds: impl Fn(SiteId, usize) -> bool,
) {
    let cfg = *ctx.cfg();
    let n = fragments.len();
    let name = &sorted.cfd.name;
    let attrs = sorted.cfd.shipped_attrs();
    // Resolve the tableau once per round; every coordinator job reuses
    // the compiled patterns.
    let resolved = shared_layout(fragments, &attrs).resolve(&sorted.cfd);
    ship_phase(ctx, name, fragments, parts, assignment, attrs.len(), holds);

    let validated = ctx.phase(&format!("validate:{name}"), |p| {
        let per_site = scoped_map(cfg.threads, 0..n, |c| {
            let mine = patterns_at(assignment, SiteId(c as u32));
            // A site that coordinates no pattern validates nothing.
            mine.clone().next()?;
            let block_rows = mine.clone().map(|l| pattern_rows(parts, l));
            let secs = if central {
                cfg.cost.check_time(block_rows.sum())
            } else {
                block_rows.map(|rows| cfg.cost.check_time(rows)).sum()
            };
            let mut vs = ViolationSet::default();
            let mut tally = KernelTally::default();
            for l in mine {
                // Pattern `l`'s wire rows, fragment by fragment.
                let mut rows: Vec<CodeRow> = Vec::with_capacity(pattern_rows(parts, l));
                for (frag, part) in fragments.iter().zip(parts) {
                    let block = &part.blocks[l];
                    if !block.is_empty() {
                        rows.extend(frag.data.code_rows(&attrs, block));
                    }
                }
                let (found, counted) = resolved.detect_pattern_block(rows.iter(), l);
                vs.merge(found);
                tally += counted;
            }
            Some((secs, vs, tally))
        });
        // The kernel families exist from the round on, at zero if no
        // coordinator validated anything.
        let mut tally = KernelTally::default();
        let charged = per_site.into_iter().enumerate().filter_map(|(c, out)| {
            let (secs, vs, counted) = out?;
            p.compute(SiteId(c as u32), secs);
            tally += counted;
            Some(vs)
        });
        let validated = charged.collect::<Vec<_>>();
        tally.record(p.metrics());
        validated
    });
    for vs in validated {
        ctx.absorb(name, vs);
    }
}

/// Runs one single-CFD detection round over a horizontal partition,
/// recording violations, traffic and time in `ctx` (which may carry
/// state from earlier rounds — that is how `SEQDETECT` pipelines). The
/// per-fragment phases run one task per site on the `cfg.threads`-wide
/// pool; results are merged in site order, so every output is
/// bit-identical to a sequential run.
pub fn run_single_cfd(
    partition: &HorizontalPartition,
    cfd: &SimpleCfd,
    strategy: CoordinatorStrategy,
    ctx: &mut RunCtx,
) {
    run_round(ctx, partition.fragments(), cfd, strategy, |site, f| site.index() == f);
}

/// The §IV-B round: constants → σ → exchange → assign → ship →
/// validate. `holds(site, f)` says whether `site` already has fragment
/// `f`'s rows — its own, or a replica: the strategy ranks sites by the
/// σ-block rows they hold, and a held fragment ships nothing.
pub(crate) fn run_round(
    ctx: &mut RunCtx,
    fragments: &[Fragment],
    cfd: &SimpleCfd,
    strategy: CoordinatorStrategy,
    holds: impl Fn(SiteId, usize) -> bool,
) {
    ctx.begin_round();
    // Consumers always get an entry for this CFD, even when clean.
    ctx.absorb(&cfd.name, ViolationSet::default());

    // ---- Phase 0: constant CFDs, checked locally (Proposition 5). ----
    let (variable, constants) = cfd.split_constant();
    if !constants.is_empty() {
        constants_phase(ctx, &cfd.name, fragments, &constants);
    }
    // A purely constant CFD ships nothing at all.
    if let Some(variable) = variable {
        // ---- Phase 1: σ-partition + statistics. ----
        let sorted = sort_for_sigma(&variable);
        // The partitioning condition, per site, up front: it decides both
        // who scans here and who participates in the Phase-2 exchange.
        let applicable: Vec<Vec<usize>> =
            fragments.iter().map(|f| applicable_patterns(f, &sorted.cfd)).collect();
        let parts = sigma_phase(ctx, &cfd.name, fragments, &sorted, &applicable);

        // ---- Phase 2: statistics exchange (control traffic + barrier),
        // among participating sites only. Sites the partitioning condition
        // excluded never scanned and owe nobody their (empty) counts; when
        // fewer than two sites hold an applicable pattern there is nothing
        // to exchange and the whole phase — messages and barrier — is
        // skipped, preserving `SEQDETECT`'s pipelining across such rounds.
        let k = sorted.cfd.tableau.len();
        exchange_statistics(ctx, &cfd.name, &applicable, k);

        // ---- Phase 3: coordinator assignment, over the rows of each
        // pattern every site already holds (the statistics are dropped
        // before anything is gathered). ----
        let assignment = {
            let lstat: Vec<Vec<usize>> = parts.iter().map(SigmaPartition::lstat).collect();
            let n = fragments.len();
            let held: Vec<Vec<usize>> = (0..n)
                .map(|s| {
                    let mine: Vec<usize> = (0..n).filter(|&f| holds(SiteId(s as u32), f)).collect();
                    (0..k).map(|l| mine.iter().map(|&f| lstat[f][l]).sum()).collect()
                })
                .collect();
            let frag_sizes: Vec<usize> = fragments.iter().map(|f| f.data.len()).collect();
            assign_coordinators(strategy, &held, &frag_sizes, &ctx.cfg().cost)
        };

        // ---- Phases 4 + 5: shipment and coordinator validation. ----
        let central = strategy == CoordinatorStrategy::Central;
        ship_and_validate(ctx, fragments, &sorted, &parts, &assignment, central, holds);
    }
    ctx.end_round();
}

/// Runs a full batch detection session of single-RHS CFDs over a
/// horizontal partition — the engine behind the `DetectRequest` façade
/// of the `distributed-cfd` root crate. CFDs are processed as
/// sequential rounds over one shared [`RunCtx`] (the pipelining
/// `SEQDETECT` also builds on); the returned [`Detection`] is labelled
/// with the strategy's paper name
/// ([`CoordinatorStrategy::algorithm_name`]).
pub fn run_batch(
    partition: &HorizontalPartition,
    cfds: &[SimpleCfd],
    strategy: CoordinatorStrategy,
    cfg: &RunConfig,
) -> Detection {
    let mut ctx = RunCtx::new(partition.n_sites(), *cfg);
    for cfd in cfds {
        run_single_cfd(partition, cfd, strategy, &mut ctx);
    }
    ctx.finish(strategy.algorithm_name())
}

/// Assigns a coordinator to every pattern (None if no site holds any
/// matching tuple), from `lstat[s][l]`: the rows of pattern `l` already
/// at site `s`. Implements all three strategies.
pub(crate) fn assign_coordinators(
    strategy: CoordinatorStrategy,
    lstat: &[Vec<usize>],
    frag_sizes: &[usize],
    cost: &CostModel,
) -> Vec<Option<SiteId>> {
    let n = lstat.len();
    let k = if n == 0 { 0 } else { lstat[0].len() };
    let mut assignment: Vec<Option<SiteId>> = vec![None; k];
    match strategy {
        CoordinatorStrategy::Central => {
            // argmax_i Σ_l lstat[i][l]; ties → smallest site id.
            let totals: Vec<usize> = lstat.iter().map(|row| row.iter().sum()).collect();
            if totals.iter().any(|&t| t > 0) {
                let coord = (0..n).max_by_key(|&i| (totals[i], n - i)).expect("n > 0");
                for (l, slot) in assignment.iter_mut().enumerate() {
                    let any: usize = (0..n).map(|i| lstat[i][l]).sum();
                    if any > 0 {
                        *slot = Some(SiteId(coord as u32));
                    }
                }
            }
        }
        CoordinatorStrategy::MinShipment => {
            for (l, slot) in assignment.iter_mut().enumerate() {
                let total: usize = (0..n).map(|i| lstat[i][l]).sum();
                if total == 0 {
                    continue;
                }
                let coord = (0..n).max_by_key(|&i| (lstat[i][l], n - i)).expect("n > 0");
                *slot = Some(SiteId(coord as u32));
            }
        }
        CoordinatorStrategy::MinResponseTime => {
            // Greedy over patterns in tableau (generality) order: place
            // each pattern where it increases cost_RS the least.
            let mut sent = vec![0usize; n];
            let mut recv = vec![0usize; n];
            for (l, slot) in assignment.iter_mut().enumerate() {
                let total: usize = (0..n).map(|i| lstat[i][l]).sum();
                if total == 0 {
                    continue;
                }
                let mut best: Option<(f64, usize)> = None;
                for s in 0..n {
                    let max_send = (0..n)
                        .map(|i| {
                            let extra = if i == s { 0 } else { lstat[i][l] };
                            cost.send_time(sent[i] + extra)
                        })
                        .fold(0.0_f64, f64::max);
                    let max_check = (0..n)
                        .map(|j| {
                            let extra = if j == s { total - lstat[s][l] } else { 0 };
                            cost.check_time(frag_sizes[j] + recv[j] + extra)
                        })
                        .fold(0.0_f64, f64::max);
                    let c = max_send + max_check;
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, s));
                    }
                }
                let (_, s) = best.expect("n > 0");
                for (i, sent_i) in sent.iter_mut().enumerate() {
                    if i != s {
                        *sent_i += lstat[i][l];
                    }
                }
                recv[s] += total - lstat[s][l];
                *slot = Some(SiteId(s as u32));
            }
        }
    }
    assignment
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
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .build()
            .unwrap()
    }

    fn cost0() -> CostModel {
        CostModel {
            transfer_rate: 1.0,
            packet_tuples: 1.0,
            scan_coeff: 0.0,
            check_coeff: 0.0,
            match_coeff: 0.0,
        }
    }

    #[test]
    fn central_picks_max_total_with_smallest_tie() {
        // lstat[i][l]: site 0 has 3 total, site 1 has 3 total → pick S1.
        let lstat = vec![vec![2, 1], vec![1, 2]];
        let a = assign_coordinators(CoordinatorStrategy::Central, &lstat, &[10, 10], &cost0());
        assert_eq!(a, vec![Some(SiteId(0)), Some(SiteId(0))]);
    }

    #[test]
    fn central_skips_empty_patterns() {
        let lstat = vec![vec![2, 0], vec![1, 0]];
        let a = assign_coordinators(CoordinatorStrategy::Central, &lstat, &[10, 10], &cost0());
        assert_eq!(a, vec![Some(SiteId(0)), None]);
    }

    #[test]
    fn min_shipment_is_per_pattern_argmax() {
        // Example 6 of the paper: S2 holds 3 tuples with cc=44, S1 and
        // S3 one each; S1 holds 2 with cc=31, S2 one, S3 none.
        let lstat = vec![
            vec![1, 2], // S1
            vec![3, 1], // S2
            vec![1, 0], // S3
        ];
        let a = assign_coordinators(CoordinatorStrategy::MinShipment, &lstat, &[4; 3], &cost0());
        assert_eq!(a, vec![Some(SiteId(1)), Some(SiteId(0))]);
    }

    #[test]
    fn min_response_time_balances_receivers() {
        // One huge pattern at site 0 and an equally huge one at site 1;
        // a third small pattern should not pile onto the busiest checker.
        let cost = CostModel { check_coeff: 1.0, ..cost0() };
        let lstat = vec![vec![100, 0, 4], vec![0, 100, 4], vec![0, 0, 0]];
        let a = assign_coordinators(
            CoordinatorStrategy::MinResponseTime,
            &lstat,
            &[100, 100, 0],
            &cost,
        );
        assert_eq!(a[0], Some(SiteId(0)));
        assert_eq!(a[1], Some(SiteId(1)));
        // Pattern 2's 8 tuples go to the idle site 2 (shipping 8 beats
        // inflating a 100-tuple check).
        assert_eq!(a[2], Some(SiteId(2)));
    }

    /// One round through a fresh context, finished into a [`Detection`].
    fn one_round(
        partition: &HorizontalPartition,
        cfd: &SimpleCfd,
        strategy: CoordinatorStrategy,
        cfg: RunConfig,
    ) -> Detection {
        let mut ctx = RunCtx::new(partition.n_sites(), cfg);
        run_single_cfd(partition, cfd, strategy, &mut ctx);
        ctx.finish("round")
    }

    const STRATEGIES: [CoordinatorStrategy; 3] = [
        CoordinatorStrategy::Central,
        CoordinatorStrategy::MinShipment,
        CoordinatorStrategy::MinResponseTime,
    ];

    #[test]
    fn round_finds_all_violations_single_site_baseline() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![
                vals![44, "z1", "a"],
                vals![44, "z1", "b"],
                vals![31, "z2", "c"],
                vals![31, "z2", "d"],
                vals![31, "z3", "e"],
            ],
        )
        .unwrap();
        let global = {
            let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
            dcd_cfd::detect(&rel, &cfd)
        };
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        for strategy in STRATEGIES {
            let d = one_round(&partition, &simple, strategy, RunConfig::default());
            let (_, vs) = &d.violations.per_cfd[0];
            assert_eq!(vs, &global, "{strategy:?}");
            assert!(d.paper_cost >= 0.0);
            assert!(d.response_time > 0.0);
        }
    }

    #[test]
    fn each_tuple_shipped_at_most_once() {
        let s = schema();
        // All tuples match; 2 sites; whatever the strategy, shipment
        // must not exceed the tuples held off-coordinator.
        let rel = Relation::from_rows(
            s.clone(),
            (0..20).map(|i| vals![44, format!("z{}", i % 4), format!("s{i}")]).collect(),
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let cfd = parse_cfd(&s, "phi", "([cc=44, zip] -> [street])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        for strategy in STRATEGIES {
            let d = one_round(&partition, &simple, strategy, RunConfig::default());
            assert!(
                d.shipped_tuples <= rel.len(),
                "{strategy:?} shipped {} > {}",
                d.shipped_tuples,
                rel.len()
            );
        }
    }

    #[test]
    fn constant_cfd_ships_nothing() {
        let s = schema();
        let rel = Relation::from_rows(
            s.clone(),
            vec![vals![44, "z1", "a"], vals![44, "z2", "b"], vals![31, "z1", "c"]],
        )
        .unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfd = parse_cfd(&s, "c", "([cc=44, zip] -> [street=a])").unwrap();
        let simple = cfd.simplify().pop().unwrap();
        let d =
            one_round(&partition, &simple, CoordinatorStrategy::MinShipment, RunConfig::default());
        assert_eq!(d.shipped_tuples, 0);
        // Tuple 1 (44, z2, b) violates street=a.
        let (_, vs) = &d.violations.per_cfd[0];
        assert_eq!(vs.len(), 1);
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
        let cfd = dcd_cfd::Cfd::merge("phi", &[&c44, &c31]).unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        let simple = cfd.simplify().pop().unwrap();
        let partition = HorizontalPartition::round_robin(&rel, n).unwrap();
        let frags = partition.fragments();
        let own = |s: SiteId, f: usize| s.index() == f;
        let replicated = |s: SiteId, f: usize| s.index() == f || (s.index() + 1) % n == f;
        let cfg = RunConfig::default();
        for strategy in STRATEGIES {
            for holds in [&own as &dyn Fn(SiteId, usize) -> bool, &replicated] {
                let mut ctx = RunCtx::new(n, cfg);
                run_round(&mut ctx, frags, &simple, strategy, holds);
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

    // ---- The three §IV-B algorithms end to end, through `run_batch`. ----

    fn wide_schema() -> Arc<Schema> {
        Schema::builder("r")
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .attr("city", ValueType::Str)
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            wide_schema(),
            (0..n)
                .map(|i| {
                    vals![
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 7),
                        format!("s{}", i % 5),
                        "c"
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn all_algorithms_agree_with_centralized() {
        let rel = sample(60);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.is_empty(), "fixture should contain violations");
        let partition = HorizontalPartition::round_robin(&rel, 4).unwrap();
        let cfg = RunConfig::default();
        for strategy in STRATEGIES {
            let d = run_batch(&partition, &cfd.simplify(), strategy, &cfg);
            let name = strategy.algorithm_name();
            assert_eq!(d.violations.all_tids(), global.tids(), "{name}");
            assert_eq!(d.violations.per_cfd[0].1.patterns(), global.patterns(), "{name}");
        }
    }

    #[test]
    fn pattern_algorithms_never_ship_more_than_central() {
        // CTRDETECT ships everything not at the single coordinator;
        // per-pattern max-shipper coordinators can only reduce that.
        let rel = sample(90);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc=44, zip] -> [street])").unwrap();
        let cfd2 = parse_cfd(rel.schema(), "phi", "([cc=31, zip] -> [street])").unwrap();
        let merged = dcd_cfd::Cfd::merge("phi", &[&cfd, &cfd2]).unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let cfg = RunConfig::default();
        let ctr = run_batch(&partition, &merged.simplify(), CoordinatorStrategy::Central, &cfg);
        let pats =
            run_batch(&partition, &merged.simplify(), CoordinatorStrategy::MinShipment, &cfg);
        assert!(pats.shipped_tuples <= ctr.shipped_tuples);
        assert_eq!(pats.violations.all_tids(), ctr.violations.all_tids());
    }

    #[test]
    fn detection_reports_traffic_and_time() {
        let rel = sample(30);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let d = run_batch(
            &partition,
            &cfd.simplify(),
            CoordinatorStrategy::MinResponseTime,
            &RunConfig::default(),
        );
        assert_eq!(d.algorithm, "PATDETECTRT");
        assert!(d.shipped_tuples > 0);
        assert!(d.shipped_cells >= d.shipped_tuples * 3);
        assert!(d.control_messages > 0);
        assert!(d.response_time > 0.0);
        assert!(d.paper_cost >= 0.0);
        let line = d.to_string();
        assert!(line.starts_with("PATDETECTRT: "), "{line}");
        assert!(line.contains(&format!("shipped {} tuples", d.shipped_tuples)), "{line}");
    }

    #[test]
    fn multi_rhs_cfd_processes_all_components() {
        let rel = sample(30);
        let schema = rel.schema().clone();
        let cfd = dcd_cfd::Cfd::fd("both", schema, &["cc", "zip"], &["street", "city"]).unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let d = run_batch(
            &partition,
            &cfd.simplify(),
            CoordinatorStrategy::MinShipment,
            &RunConfig::default(),
        );
        assert_eq!(d.violations.per_cfd.len(), 2); // one entry per RHS attr
    }

    #[test]
    fn single_site_partition_ships_nothing() {
        let rel = sample(40);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 1).unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        for strategy in STRATEGIES {
            let d = run_batch(&partition, &cfd.simplify(), strategy, &RunConfig::default());
            assert_eq!(d.shipped_tuples, 0, "{}", strategy.algorithm_name());
            assert_eq!(d.violations.all_tids(), global.tids());
        }
    }
}

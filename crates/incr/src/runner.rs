//! The distributed delta protocol: stateful incremental detection runs.
//!
//! A run owns the (mutating) partition, one [`ViolationIndex`] per
//! compiled CFD at a fixed *coordinator* site, and the same [`RunCtx`]
//! every batch detector carries — shipment ledger, site clocks and
//! phase trace, kept in step. Each delta batch is one protocol round:
//!
//! 1. **Apply** — the partition applies the batch
//!    ([`HorizontalPartition::apply_delta`],
//!    [`VerticalPartition::apply_delta`]): it checks and locates every
//!    site's delta before any site mutates, keeping the invariants
//!    [`HorizontalPartition::validate`] checks, and the round charges
//!    each site like the batch detectors' scan phases;
//! 2. **Manifest** — each participating site sends the coordinator one
//!    control message (`k` counts, its per-CFD touch counts), charged
//!    [`CostModel::control_time`](dcd_dist::CostModel::control_time);
//! 3. **Ship** — a site ships the coordinator the `(tid, codes)` delta
//!    rows that match some pattern's LHS of some CFD of Σ, as §IV's
//!    round ships only the tuples σ sends to a pattern (a row that
//!    matches none cannot violate): an insert at the width of attr(Σ),
//!    the union of every CFD's `X ∪ {A}`, a delete at width 0 (its id
//!    alone). It judges each row against Σ's tableaux as the batch's
//!    interning left them, charged `match_coeff` per pattern comparison
//!    as σ counts them. Replica synchronization ships every row whole.
//!    The ledger prices each row
//!    ([`ShipmentLedger::ship_rows`](dcd_dist::ShipmentLedger::ship_rows));
//!    receivers wait for senders ([`Transfer`](dcd_core::ctx::Transfer));
//! 4. **Maintain** — the coordinator updates every index (in parallel
//!    per CFD on the pool), charged `check_time` of the members each
//!    index examined, in CFD order: one per delta row that lands in an
//!    indexed key, plus the old members of every key whose judgement
//!    the batch changed ([`ViolationIndex::apply`]).
//!
//! Each round yields a [`RoundOutput`] — the same shape the batch
//! detectors produce — whose report is the *full* current report
//! revision, proptest-pinned identical to full re-detection on the
//! materialized state, and whose `paper_cost` is the §III-B formula of
//! that round alone.
//!
//! Replication (chained declustering) reduces coordinator traffic — a
//! fragment the coordinator holds a replica of ships nothing — but
//! adds replica-synchronization traffic from each origin site to the
//! other holders of its fragment. Vertical partitions ship the columns
//! the §V plan of every attribute assigns each supplier
//! ([`VerticalPartition::gather_plan`]), plus the tuple id to align rows
//! at the coordinator; no key column travels.
//!
//! A batch that any check rejects is refused before its round opens: no
//! site mutates, no clock moves and no round is counted. An empty batch
//! is a round of either run type in which no site is charged.
//!
//! The two run types differ in their sites only — fragments, apply
//! charges, manifest and ship phases; the coordinator half (Σ's checks,
//! the index build and each round's bracket) is one private `Coordinator`.
//!
//! Determinism contract (same as the batch detectors): pool tasks
//! charge nothing — site charges are applied in site order and
//! coordinator charges in CFD order, after the pool joins — and all
//! merges run in site order, so every output (reports, ledger totals,
//! paper cost, per-site clocks) is bit-identical for every pool width.

use crate::delta::DeltaBatch;
use crate::index::ViolationIndex;
use dcd_cfd::{Cfd, SimpleCfd, ViolationReport};
use dcd_core::report::Detection;
use dcd_core::sigma::{sigma_partition, sort_for_sigma, SortedCfd};
use dcd_core::{MinedTableau, MiningConfig, RunConfig, RunCtx};
use dcd_dist::pool::scoped_map;
use dcd_dist::{
    chained_holds as holds, GatherPlan, HorizontalPartition, ReplicatedPartition, SiteId,
    VerticalPartition,
};
use dcd_obs::MetricsRegistry;
use dcd_relation::{
    AttrId, DeltaEffect, Dictionary, Relation, RelationDelta, RelationError, Schema, TupleId,
};
use std::sync::Arc;

/// The algorithm label incremental detections carry.
pub const ALGORITHM: &str = "INCRDETECT";

/// `(tid, full-width code row)` pairs: the rows a coordinator's indices
/// receive. The wire prices only the ones a site ships, at their shipped
/// width.
type CodeRows = Vec<(TupleId, Box<[u32]>)>;

/// Result of one delta round.
#[derive(Debug)]
pub struct RoundOutput {
    /// The full current report revision after the round.
    pub report: ViolationReport,
    /// The literal §III-B formula evaluated for this round alone.
    pub paper_cost: f64,
}

/// A stateful incremental detection run over a horizontal partition
/// (optionally replicated by chained declustering).
///
/// Construction performs the one-off index build: every site scans its
/// fragment, and ships the coordinator the rows that match some pattern
/// of Σ, as code rows over attr(Σ) — what a batch round's σ phase would
/// send it — after which [`Self::apply_batch`]
/// maintains the violation report per delta batch. All accounting
/// (ledger, clocks, paper cost) accumulates across the run, exactly
/// like `SEQDETECT` pipelines rounds.
#[derive(Debug)]
pub struct IncrementalRun {
    partition: HorizontalPartition,
    /// Chained-declustering replication factor (1 = no replication).
    factor: usize,
    /// Incrementally-maintained mined tableaux (see
    /// [`Self::track_mining`]); empty unless mining is tracked.
    miners: Vec<MinedTableau>,
    /// |attr(Σ)|: the code cells of a matching insert row on the wire.
    width: usize,
    /// Per index, each pattern's position in σ's scan order: what a
    /// site's [`Judge`] charges a batch row.
    positions: Vec<Vec<u32>>,
    coord: Coordinator,
}

impl IncrementalRun {
    /// Builds the run over a plain horizontal partition: picks the
    /// coordinator — the site holding the most tuples, ties to the
    /// smallest id; `CTRDETECT` instead picks the most *matching* tuples,
    /// and the two agree when matches spread as the tuples do — ships it
    /// every other fragment's matching rows, and builds one violation
    /// index per compiled CFD.
    ///
    /// Refuses an invalid cost model, a CFD over another schema, and
    /// whatever [`HorizontalPartition::validate`] refuses of the
    /// partition — a fragment on dictionaries of its own, a tuple id at
    /// two sites, a tuple outside its fragment's predicate — since every
    /// later batch keeps those invariants and rests on them.
    pub fn new(
        partition: HorizontalPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        Self::build(partition, 1, sigma, cfg)
    }

    /// Builds the run over a replicated partition. The coordinator
    /// reads every fragment it holds a replica of locally — only
    /// non-replicated fragments ship their matching rows — and delta
    /// rounds charge replica-synchronization traffic from each origin
    /// site to the other holders of its fragment.
    pub fn new_replicated(
        partition: &ReplicatedPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        Self::build(partition.base().clone(), partition.factor(), sigma, cfg)
    }

    fn build(
        partition: HorizontalPartition,
        factor: usize,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        let n = partition.n_sites();
        let mut ctx = Coordinator::open(partition.schema(), sigma, n, cfg)?;
        partition.validate()?;
        let dicts = partition.shared_dictionaries()?;
        // Every insert interns into every column: index them all now rather
        // than on the first batch (a sorted dictionary searches its table
        // and builds none).
        dicts.iter().for_each(|d| d.ensure_indexed());
        let attrs: Vec<AttrId> = partition.schema().attr_ids().collect();
        let sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
        let coordinator = (0..n).max_by_key(|&i| (sizes[i], n - i));
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: `validate` refused a partition of no fragment"
        )]
        let coordinator = SiteId(coordinator.expect("n ≥ 1") as u32);
        let simples: Vec<SimpleCfd> = sigma.iter().flat_map(Cfd::simplify).collect();
        let sorted: Vec<SortedCfd> = simples.iter().map(sort_for_sigma).collect();
        let positions = sorted.iter().map(sigma_positions).collect();
        let width = attr_width(&simples);
        // A fragment the coordinator holds (its own, or a replica) ships
        // nothing.
        let ships = |i: usize| sizes[i] > 0 && !holds(n, factor, coordinator.index(), i);

        // Phase 1: every site scans its fragment once, encoding its
        // (tid, codes) rows for the coordinator's indices; a site that
        // ships also runs σ's scan over it, which finds its matching
        // rows (parallel).
        let scanned: Vec<(CodeRows, Judged)> = ctx.phase("incr:build-scan", |p| {
            let scanned = scoped_map(cfg.threads, 0..n, |i| {
                let data = &partition.fragments()[i].data;
                let rows = data.code_rows(&attrs, &(0..sizes[i]).collect::<Vec<_>>());
                let judged =
                    if ships(i) { judge_fragment(data, &sorted) } else { Judged::default() };
                (rows, judged)
            });
            for (frag, (_, judged)) in partition.fragments().iter().zip(&scanned) {
                if !frag.data.is_empty() {
                    let matching = cfg.cost.match_coeff * judged.comparisons as f64;
                    p.compute(frag.site, cfg.cost.scan_time(frag.data.len()) + matching);
                }
            }
            scanned
        });
        let mut rows: CodeRows = Vec::with_capacity(sizes.iter().sum());
        let mut judged: Vec<Judged> = Vec::with_capacity(n);
        for (site_rows, site_judged) in scanned {
            rows.extend(site_rows);
            judged.push(site_judged);
        }

        // Phase 2: the matching rows travel to the coordinator over
        // attr(Σ).
        ctx.phase("incr:build-ship", |p| {
            let mut wire = p.transfer();
            for (frag, judged) in partition.fragments().iter().zip(&judged) {
                if judged.inserts > 0 {
                    wire.send(coordinator, frag.site, judged.inserts, width);
                }
            }
            wire.commit();
        });

        // Phase 3: index build at the coordinator, over every row.
        let coord = Coordinator::build(ctx, coordinator, sigma, &dicts, &rows);
        Ok(IncrementalRun { partition, factor, miners: Vec::new(), width, positions, coord })
    }

    /// Applies one delta batch — one round of the protocol — and
    /// returns the resulting report revision plus that round's §III-B
    /// cost.
    ///
    /// [`HorizontalPartition::apply_delta`] checks every site's delta
    /// before any site applies its own, so an error (a batch of another
    /// width, an unknown delete id, an ill-typed insert, an id live at
    /// another site, an insert outside its fragment's predicate) rejects
    /// the whole batch and leaves the run as it was: fragments, indices,
    /// clocks, ledger and round count.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<RoundOutput, RelationError> {
        // The simulated site keeps no order on its tuple ids: it is
        // charged one pass over the fragment as it was before the delta
        // (locating the deletes, insert-id uniqueness) plus per-op
        // interning, whatever lookup `locate_delta` ran on this host.
        let cfg = *self.coord.ctx.cfg();
        let scans: Vec<f64> = self
            .partition
            .fragments()
            .iter()
            .zip(&batch.per_site)
            .map(|(f, delta)| cfg.cost.scan_time(f.data.len() + delta.n_ops()))
            .collect();
        let effects = self.partition.apply_delta(&batch.per_site, cfg.threads)?;

        let (n, factor, width) = (self.partition.n_sites(), self.factor, self.width);
        let arity = self.partition.schema().arity();
        let (coordinator, k) = (self.coord.site, self.coord.indices.len());
        let ships = |i: usize| !holds(n, factor, coordinator.index(), i);

        // Each site that ships the coordinator judges its effect's rows
        // against Σ's tableaux once the batch has interned its values —
        // where every index's `apply` would recompile them — and pays
        // for the comparisons after its apply pass.
        self.coord.indices.iter_mut().for_each(ViolationIndex::recompile);
        let mut judge = Judge::new(&self.coord.indices, &self.positions);
        let judged: Vec<Judged> = effects
            .iter()
            .enumerate()
            .map(|(i, effect)| if ships(i) { judge.effect(effect) } else { Judged::default() })
            .collect();
        let charges: Vec<(SiteId, f64)> = self
            .partition
            .fragments()
            .iter()
            .zip(&batch.per_site)
            .zip(scans.iter().zip(&judged))
            .filter(|((_, delta), _)| !delta.is_empty())
            .map(|((f, _), (scan, judged))| {
                (f.site, scan + cfg.cost.match_coeff * judged.comparisons as f64)
            })
            .collect();
        let miners = &mut self.miners;
        Ok(self.coord.round(batch.n_ops(), charges, effects, |ctx, effects| {
            // Delta manifests: one control message per participating
            // non-coordinator site.
            ctx.phase("incr:manifest", |p| {
                for (i, effect) in effects.iter().enumerate() {
                    if !effect.is_empty() && i != coordinator.index() {
                        p.control(SiteId(i as u32), [coordinator], k);
                    }
                }
            });

            // Ship (tid, codes) delta rows: every row whole to the other
            // holders of the origin fragment (replica synchronization), and
            // the matching rows over attr(Σ) to a coordinator that holds
            // none. A holding coordinator receives its sync copy alone.
            ctx.phase("incr:ship", |p| {
                let mut wire = p.transfer();
                for ((i, effect), judged) in effects.iter().enumerate().zip(&judged) {
                    if effect.is_empty() {
                        continue;
                    }
                    let from = SiteId(i as u32);
                    let syncs = |&h: &usize| h != i && holds(n, factor, h, i);
                    for to in (0..n).filter(syncs).map(|h| SiteId(h as u32)) {
                        wire.send(to, from, effect.inserted.len(), arity);
                        wire.send(to, from, effect.deleted.len(), 0);
                    }
                    if ships(i) {
                        wire.send(coordinator, from, judged.inserts, width);
                        wire.send(coordinator, from, judged.deletes, 0);
                    }
                }
                wire.commit();
            });

            // Mined-tableau maintenance: each site adjusts its tracked
            // support counts from its own effect — `rows × masks` key
            // updates instead of the `fragment × masks` scan a re-mine
            // costs. Site order, then miner order, keeps the f64 sums
            // deterministic.
            if !miners.is_empty() {
                ctx.phase("incr:mine", |p| {
                    for (i, effect) in effects.iter().enumerate() {
                        if effect.is_empty() {
                            continue;
                        }
                        for miner in miners.iter_mut() {
                            let secs = cfg.cost.scan_time(effect.n_rows()) * miner.n_masks() as f64;
                            let updates = miner.apply_site_effect(i, effect);
                            count_mask_updates(p.metrics(), updates);
                            p.compute(SiteId(i as u32), secs);
                        }
                    }
                });
            }
        }))
    }

    /// The current report revision: one entry per compiled CFD, in CFD
    /// order, identical to full re-detection on the materialized state.
    pub fn report(&self) -> ViolationReport {
        self.coord.report()
    }

    /// A [`Detection`] snapshot of the whole run so far: the live
    /// report plus the accumulated traffic, clocks and paper cost.
    pub fn detection(&self) -> Detection {
        self.coord.detection()
    }

    /// The materialized partition (fragments mutate as batches apply).
    pub fn partition(&self) -> &HorizontalPartition {
        &self.partition
    }

    /// Reassembles the materialized relation (for comparison against
    /// centralized detection).
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        self.partition.reassemble()
    }

    /// The coordinator site holding the cross-site violation index.
    pub fn coordinator(&self) -> SiteId {
        self.coord.site
    }

    /// Number of delta batches applied so far (the build is round 0).
    pub fn rounds(&self) -> usize {
        self.coord.rounds
    }

    /// Distinct keys per CFD index, for diagnostics. The members examined
    /// across rounds are the `dcd_incr_keys_revalidated_total` counter of
    /// [`Self::detection`].
    pub fn index_key_counts(&self) -> Vec<usize> {
        self.coord.indices.iter().map(ViolationIndex::key_count).collect()
    }

    /// Registers `cfd` for incremental mined-tableau maintenance: the
    /// per-site support counts are built once from the current
    /// fragments (charged like a full mine, `scan × masks` per site),
    /// then kept current by every subsequent [`Self::apply_batch`] at
    /// `rows × masks` key updates instead of a re-mine. Returns a
    /// handle for [`Self::mined_cfd`], or `SchemaMismatch` for a CFD
    /// defined over another schema than the partition's.
    pub fn track_mining(
        &mut self,
        cfd: &dcd_cfd::SimpleCfd,
        config: &MiningConfig,
    ) -> Result<usize, RelationError> {
        cfd.check_schema(self.partition.schema())?;
        let miner = MinedTableau::build(&self.partition, cfd, config);
        // The build precedes any delta round: it moves the clocks but
        // enters no round's §III-B cost.
        let cost = self.coord.ctx.cfg().cost;
        let fragments = self.partition.fragments();
        self.coord.ctx.phase("incr:mine-build", |p| {
            for frag in fragments.iter().filter(|f| !f.data.is_empty()) {
                p.advance(frag.site, cost.scan_time(frag.data.len()) * miner.n_masks() as f64);
            }
            count_mask_updates(p.metrics(), 0);
        });
        self.miners.push(miner);
        Ok(self.miners.len() - 1)
    }

    /// The refined CFD derived from miner `id`'s *maintained* counts —
    /// bit-identical to re-mining the materialized fragments — plus the
    /// number of mined patterns; `None` for an id no
    /// [`Self::track_mining`] call returned.
    pub fn mined_cfd(&self, id: usize) -> Option<(dcd_cfd::SimpleCfd, usize)> {
        self.miners.get(id).map(MinedTableau::refine)
    }
}

/// The coordinator half both run types share: one [`ViolationIndex`] per
/// compiled CFD at one site, the run's context and its round count.
#[derive(Debug)]
struct Coordinator {
    site: SiteId,
    indices: Vec<ViolationIndex>,
    ctx: RunCtx,
    rounds: usize,
}

impl Coordinator {
    /// Checks the cost model and Σ against the partition's `schema`, and
    /// opens the build round over `n` sites.
    fn open(
        schema: &Schema,
        sigma: &[Cfd],
        n: usize,
        cfg: RunConfig,
    ) -> Result<RunCtx, RelationError> {
        cfg.cost.check()?;
        sigma.iter().try_for_each(|cfd| cfd.check_schema(schema))?;
        let mut ctx = RunCtx::new(n, cfg);
        ctx.begin_round();
        Ok(ctx)
    }

    /// Builds one index per compiled CFD of Σ at `site` from the full
    /// code `rows` the sites shipped, and closes the build round.
    fn build(
        ctx: RunCtx,
        site: SiteId,
        sigma: &[Cfd],
        dicts: &[Arc<Dictionary>],
        rows: &[(TupleId, Box<[u32]>)],
    ) -> Self {
        // Collected first, so the index vector holds exactly one slot per CFD.
        let cfds: Vec<_> = sigma.iter().flat_map(Cfd::simplify).collect();
        let indices = cfds.into_iter().map(|cfd| ViolationIndex::new(cfd, dicts)).collect();
        let mut coord = Coordinator { site, indices, ctx, rounds: 0 };
        coord.maintain("incr:build-index", &[], rows);
        coord.ctx.end_round();
        coord
    }

    /// One delta round of `ops` operations around what the sites did:
    /// `charges` is what applying the batch cost each site, `effects`
    /// what the partition's `apply_delta` returned, and `ship` the run's
    /// manifest and ship phases over them. The coordinator then
    /// maintains every index, and the round's lag — simulated seconds
    /// from its start, in integer microseconds so merges stay order-free
    /// — enters the run's histogram.
    fn round(
        &mut self,
        ops: usize,
        charges: Vec<(SiteId, f64)>,
        effects: Vec<DeltaEffect>,
        ship: impl FnOnce(&mut RunCtx, &[DeltaEffect]),
    ) -> RoundOutput {
        self.rounds += 1;
        let round_start = self.ctx.response_time();
        self.ctx.begin_round();
        let help = "Delta operations applied across sites";
        self.ctx.metrics().add("dcd_incr_deltas_applied_total", help, &[], ops as u64);
        self.ctx.phase("incr:apply", |p| {
            for (site, secs) in charges {
                p.compute(site, secs);
            }
        });
        ship(&mut self.ctx, &effects);
        let deletes: Vec<TupleId> =
            effects.iter().flat_map(|e| e.deleted.iter().map(|&(t, _)| t)).collect();
        let inserts: CodeRows = effects.into_iter().flat_map(|e| e.inserted).collect();
        self.maintain("incr:maintain", &deletes, &inserts);
        let lag = ((self.ctx.response_time() - round_start) * 1e6) as u64;
        let help = "Simulated delta lag per batch, in microseconds";
        let buckets = [10, 100, 1_000, 10_000, 100_000, 1_000_000];
        self.ctx.metrics().observe("dcd_incr_delta_lag_micros", help, &[], &buckets, lag);
        let paper_cost = self.ctx.end_round();
        RoundOutput { report: self.report(), paper_cost }
    }

    /// Index build / maintenance, for both rounds: every index applies
    /// the delta in parallel (one task per CFD); the coordinator is then
    /// charged `check_time` of the members each index examined
    /// ([`ViolationIndex::apply`]: every indexed row at the build, the
    /// landed delta rows plus the old members of re-judged keys per
    /// batch), sequentially in CFD order, so the f64 sums stay
    /// bit-identical across pool widths.
    fn maintain(&mut self, phase: &str, deletes: &[TupleId], inserts: &[(TupleId, Box<[u32]>)]) {
        let (cfg, site, indices) = (*self.ctx.cfg(), self.site, &mut self.indices);
        self.ctx.phase(phase, |p| {
            let per_cfd = scoped_map(cfg.threads, indices, |index| index.apply(deletes, inserts));
            let mut examined = 0u64;
            for members in per_cfd {
                examined += members as u64;
                p.compute(site, cfg.cost.check_time(members));
            }
            p.metrics().add(
                "dcd_incr_keys_revalidated_total",
                "Index members examined during incremental maintenance: landed delta rows \
                 plus the old members of keys whose judgement changed",
                &[],
                examined,
            );
        });
    }

    /// The current report revision: one entry per compiled CFD, in CFD
    /// order.
    fn report(&self) -> ViolationReport {
        let mut report = ViolationReport::default();
        for idx in &self.indices {
            report.absorb(&idx.cfd().name, idx.snapshot());
        }
        report
    }

    /// A [`Detection`] snapshot of the whole run so far.
    fn detection(&self) -> Detection {
        self.ctx.snapshot(ALGORITHM, self.report())
    }
}

/// |attr(Σ)|: the attributes Σ's simple CFDs ship, `X ∪ {A}` each
/// ([`SimpleCfd::shipped_attrs`]), united.
fn attr_width(simples: &[SimpleCfd]) -> usize {
    let mut attrs: Vec<AttrId> = simples.iter().flat_map(SimpleCfd::shipped_attrs).collect();
    attrs.sort_unstable();
    attrs.dedup();
    attrs.len()
}

/// What a site found among the rows it would ship the coordinator: how
/// many of its inserts (at the build, its fragment's rows) and deletes
/// match some pattern of Σ, and the pattern comparisons it made to say.
#[derive(Debug, Clone, Copy, Default)]
struct Judged {
    inserts: usize,
    deletes: usize,
    comparisons: usize,
}

/// Each pattern's position in σ's scan order (most specific first): the
/// inverse of [`SortedCfd::original`].
fn sigma_positions(sorted: &SortedCfd) -> Vec<u32> {
    let mut position = vec![0u32; sorted.original.len()];
    for (at, &pattern) in (0u32..).zip(&sorted.original) {
        position[pattern] = at;
    }
    position
}

/// A fragment judged at the build: σ's scan of Lemma 6
/// ([`sigma_partition`]) over every pattern of each of Σ's CFDs — once
/// per distinct pinned projection, not once per row — and a row matches
/// when it lands in some CFD's block. `comparisons` sums σ's count
/// over the CFDs.
fn judge_fragment(data: &Relation, sorted: &[SortedCfd]) -> Judged {
    let mut hit = vec![false; data.len()];
    let mut comparisons = 0;
    for cfd in sorted {
        let every: Vec<usize> = (0..cfd.cfd.tableau.len()).collect();
        let part = sigma_partition(data, cfd, &every);
        comparisons += part.comparisons;
        for &r in part.blocks.iter().flatten() {
            hit[r] = true;
        }
    }
    let inserts = hit.iter().filter(|&&h| h).count();
    Judged { inserts, deletes: 0, comparisons }
}

/// A batch's rows judged at their sites, one row at a time, over the
/// tableaux the coordinator's indices compiled: every site codes
/// against the partition's one dictionary set, so a site's compiled
/// tableau is the index's. A row matches when some CFD's
/// [`ViolationIndex::matched_into`] is non-empty, and it is charged what
/// σ's scan would try: the σ position of its first match plus one, or
/// the whole tableau on a miss, summed over the CFDs.
struct Judge<'a> {
    indices: &'a [ViolationIndex],
    /// Per index, each pattern's position in σ's scan order
    /// ([`sigma_positions`]).
    positions: &'a [Vec<u32>],
    lhs: Vec<u32>,
    probe: Vec<u32>,
    ranks: Vec<u32>,
}

impl<'a> Judge<'a> {
    fn new(indices: &'a [ViolationIndex], positions: &'a [Vec<u32>]) -> Self {
        Judge { indices, positions, lhs: Vec::new(), probe: Vec::new(), ranks: Vec::new() }
    }

    fn effect(&mut self, effect: &DeltaEffect) -> Judged {
        let mut judged = Judged::default();
        for (_, codes) in &effect.inserted {
            judged.inserts += usize::from(self.row(codes, &mut judged.comparisons));
        }
        for (_, codes) in &effect.deleted {
            judged.deletes += usize::from(self.row(codes, &mut judged.comparisons));
        }
        judged
    }

    /// Whether the full-width row `codes` matches; adds its comparisons.
    fn row(&mut self, codes: &[u32], comparisons: &mut usize) -> bool {
        let Judge { indices, positions, lhs, probe, ranks } = self;
        let mut hit = false;
        for (index, position) in indices.iter().zip(positions.iter()) {
            index.matched_into(codes, lhs, probe, ranks);
            match ranks.iter().map(|&r| position[r as usize]).min() {
                Some(first) => {
                    hit = true;
                    *comparisons += first as usize + 1;
                }
                None => *comparisons += position.len(),
            }
        }
        hit
    }
}

/// Counts per-mask support-count updates of the tracked miners (`0`
/// registers the family).
fn count_mask_updates(metrics: &mut MetricsRegistry, updates: u64) {
    let help = "Per-mask support-count updates applied by incremental mining maintenance";
    metrics.add("dcd_mining_mask_updates_total", help, &[], updates);
}

/// A stateful incremental run over a *vertical* partition.
///
/// The delta feed carries whole tuples and reaches every site (each
/// applies its projection locally, CDC fan-out style — ingress is not
/// inter-site traffic). The run gathers every attribute by the one §V
/// placement rule, [`VerticalPartition::gather_plan`] of the whole
/// schema: its coordinator is the fragment holding the most attributes,
/// and every other supplier ships the codes of the columns the plan
/// assigns it plus the row-aligning tuple id — no key column travels.
/// Delete notifications are part of the feed itself, so only insert
/// codes move between sites.
#[derive(Debug)]
pub struct VerticalIncrementalRun {
    partition: VerticalPartition,
    /// The plan of every attribute; its suppliers after the coordinator
    /// ship.
    plan: GatherPlan,
    coord: Coordinator,
}

impl VerticalIncrementalRun {
    /// Builds the run: plans the gather of every attribute, ships each
    /// non-coordinator supplier's planned columns as code rows, and
    /// builds the per-CFD indices at the plan's coordinator.
    pub fn new(
        partition: VerticalPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        let n = partition.n_sites();
        let mut ctx = Coordinator::open(partition.schema(), sigma, n, cfg)?;
        let attrs: Vec<AttrId> = partition.schema().attr_ids().collect();
        let plan = partition.gather_plan(&attrs);
        let coordinator = partition.fragments()[plan.coordinator()].site;
        let n_rows = partition.fragments()[0].data.len();

        // Per-site encode scan: each fragment passes its rows once.
        ctx.phase("incr:build-scan", |p| {
            for frag in partition.fragments().iter().filter(|f| !f.data.is_empty()) {
                p.compute(frag.site, cfg.cost.scan_time(frag.data.len()));
            }
        });

        // The planned columns travel to the coordinator.
        ctx.phase("incr:build-ship", |p| {
            let mut wire = p.transfer();
            for (site, width) in shippers(&partition, &plan, n_rows) {
                wire.send(coordinator, site, n_rows, width);
            }
            wire.commit();
        });

        // Full code rows at the coordinator, read straight from the
        // plan's columns into schema order: the plan covers every
        // attribute once, and every fragment codes against the
        // partition's dictionary set.
        let (planned, cols) = (plan.attrs(), partition.columns(&plan));
        let tids = partition.fragments()[0].data.tids();
        let rows: CodeRows = (0..n_rows)
            .map(|r| {
                let mut codes = vec![0u32; attrs.len()].into_boxed_slice();
                for (a, col) in planned.iter().zip(&cols) {
                    codes[a.index()] = col.get(r);
                }
                (tids[r], codes)
            })
            .collect();
        let dicts = partition.dictionaries();
        // As in `IncrementalRun::build`: every insert interns into every
        // column, so the session indexes them all up front, sorted ones
        // aside.
        dicts.iter().for_each(|d| d.ensure_indexed());
        let coord = Coordinator::build(ctx, coordinator, sigma, &dicts, &rows);
        Ok(VerticalIncrementalRun { partition, plan, coord })
    }

    /// Applies one whole-tuple delta (the same feed reaches every
    /// site; each applies its projection) and returns the report
    /// revision. Error handling matches [`IncrementalRun::apply_batch`]:
    /// a delta any site's projection rejects (an unknown delete id, an
    /// insert ill-typed in that site's attributes) leaves the run as it
    /// was.
    pub fn apply_batch(&mut self, delta: &RelationDelta) -> Result<RoundOutput, RelationError> {
        // Every site receives a non-empty delta and is charged as a
        // horizontal site is: one pass over its fragment as it was before
        // the delta, plus per-op interning.
        let cfg = *self.coord.ctx.cfg();
        let charges: Vec<(SiteId, f64)> = self
            .partition
            .fragments()
            .iter()
            .filter(|_| !delta.is_empty())
            .map(|f| (f.site, cfg.cost.scan_time(f.data.len() + delta.n_ops())))
            .collect();
        let effect = self.partition.apply_delta(delta, cfg.threads)?;

        // Manifests, then the planned columns of the inserted rows (delete
        // ids are already part of the feed).
        let (coordinator, k) = (self.coord.site, self.coord.indices.len());
        let n_inserts = effect.inserted.len();
        let shippers = shippers(&self.partition, &self.plan, n_inserts);
        Ok(self.coord.round(delta.n_ops(), charges, vec![effect], |ctx, _| {
            ctx.phase("incr:manifest", |p| {
                for &(site, _) in &shippers {
                    p.control(site, [coordinator], k);
                }
            });
            ctx.phase("incr:ship", |p| {
                let mut wire = p.transfer();
                for &(site, width) in &shippers {
                    wire.send(coordinator, site, n_inserts, width);
                }
                wire.commit();
            });
        }))
    }

    /// The current report revision.
    pub fn report(&self) -> ViolationReport {
        self.coord.report()
    }

    /// A [`Detection`] snapshot of the whole run so far.
    pub fn detection(&self) -> Detection {
        self.coord.detection()
    }

    /// The materialized vertical partition.
    pub fn partition(&self) -> &VerticalPartition {
        &self.partition
    }

    /// Reassembles the materialized relation.
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        self.partition.reassemble()
    }

    /// The coordinator site.
    pub fn coordinator(&self) -> SiteId {
        self.coord.site
    }
}

/// The sites that ship `rows` rows to the coordinator of the vertical
/// `plan`, with the width each ships: every supplier after the
/// coordinator, none when no row moves.
fn shippers(partition: &VerticalPartition, plan: &GatherPlan, rows: usize) -> Vec<(SiteId, usize)> {
    if rows == 0 {
        return Vec::new();
    }
    let site = |f: usize| partition.fragments()[f].site;
    plan.supplies[1..].iter().map(|(f, attrs)| (site(*f), attrs.len())).collect()
}

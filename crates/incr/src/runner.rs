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
//! 3. **Ship** — sites ship only `(tid, codes)` delta rows: an insert
//!    row at the schema's arity, a delete row at width 0 (its id alone),
//!    priced by
//!    [`ShipmentLedger::ship_rows`](dcd_dist::ShipmentLedger::ship_rows);
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
//! other holders of its fragment. Vertical partitions ship only each
//! site's *owned* columns
//! ([`VerticalPartition::owner_of`]), plus the tuple id to align rows
//! at the coordinator.
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
use dcd_cfd::{Cfd, ViolationReport};
use dcd_core::report::Detection;
use dcd_core::{MinedTableau, MiningConfig, RunConfig, RunCtx};
use dcd_dist::pool::scoped_map;
use dcd_dist::{
    chained_holds as holds, HorizontalPartition, ReplicatedPartition, SiteId, VerticalPartition,
};
use dcd_obs::MetricsRegistry;
use dcd_relation::{
    AttrId, DeltaEffect, Dictionary, Relation, RelationDelta, RelationError, Schema, TupleId,
};
use std::sync::Arc;

/// The algorithm label incremental detections carry.
pub const ALGORITHM: &str = "INCRDETECT";

/// A site's encoded wire payload: `(tid, full-width code row)` pairs.
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
/// Construction performs the one-off index build: every site scans and
/// ships its fragment *as code rows* to the coordinator (already far
/// cheaper than value shipping), after which [`Self::apply_batch`]
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
    coord: Coordinator,
}

impl IncrementalRun {
    /// Builds the run over a plain horizontal partition: picks the
    /// coordinator (the site holding the most tuples, ties to the
    /// smallest id — the `CTRDETECT` rule), ships every fragment's code
    /// rows there, and builds one violation index per compiled CFD.
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
    /// non-replicated fragments ship their code rows — and delta
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
        let arity = partition.schema().arity();
        let attrs: Vec<AttrId> = partition.schema().attr_ids().collect();
        let sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
        let coordinator = (0..n).max_by_key(|&i| (sizes[i], n - i));
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: `validate` refused a partition of no fragment"
        )]
        let coordinator = SiteId(coordinator.expect("n ≥ 1") as u32);

        // Phase 1: every site scans its fragment once, encoding the
        // (tid, codes) rows it will ship (parallel).
        let encoded: Vec<CodeRows> = ctx.phase("incr:build-scan", |p| {
            let encoded = scoped_map(cfg.threads, 0..n, |i| {
                let frag = &partition.fragments()[i];
                frag.data.code_rows(&attrs, &(0..sizes[i]).collect::<Vec<_>>())
            });
            for (frag, &size) in partition.fragments().iter().zip(&sizes) {
                if size > 0 {
                    p.compute(frag.site, cfg.cost.scan_time(size));
                }
            }
            encoded
        });
        let mut rows: CodeRows = Vec::with_capacity(sizes.iter().sum());
        for site_rows in encoded {
            rows.extend(site_rows);
        }

        // Phase 2: code rows travel to the coordinator — except from
        // fragments it already holds a replica of.
        ctx.phase("incr:build-ship", |p| {
            let mut wire = p.transfer();
            for (i, frag) in partition.fragments().iter().enumerate() {
                if sizes[i] > 0 && !holds(n, factor, coordinator.index(), i) {
                    wire.send(coordinator, frag.site, sizes[i], arity);
                }
            }
            wire.commit();
        });

        // Phase 3: index build at the coordinator.
        let coord = Coordinator::build(ctx, coordinator, sigma, &dicts, &rows);
        Ok(IncrementalRun { partition, factor, miners: Vec::new(), coord })
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
        let charges: Vec<(SiteId, f64)> = self
            .partition
            .fragments()
            .iter()
            .zip(&batch.per_site)
            .filter(|(_, delta)| !delta.is_empty())
            .map(|(f, delta)| (f.site, cfg.cost.scan_time(f.data.len() + delta.n_ops())))
            .collect();
        let effects = self.partition.apply_delta(&batch.per_site, cfg.threads)?;

        let (n, factor) = (self.partition.n_sites(), self.factor);
        let arity = self.partition.schema().arity();
        let (coordinator, k) = (self.coord.site, self.coord.indices.len());
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

            // Ship (tid, codes) delta rows — to the other replica holders
            // (synchronization) and to the coordinator unless it holds a
            // replica of the origin fragment.
            ctx.phase("incr:ship", |p| {
                let mut wire = p.transfer();
                for (i, effect) in effects.iter().enumerate() {
                    if effect.is_empty() {
                        continue;
                    }
                    // Each receiver gets one copy: a holding coordinator's
                    // is its replica sync.
                    let from = SiteId(i as u32);
                    let receives =
                        |h| h != i && (h == coordinator.index() || holds(n, factor, h, i));
                    for to in (0..n).filter(|&h| receives(h)).map(|h| SiteId(h as u32)) {
                        wire.send(to, from, effect.inserted.len(), arity);
                        wire.send(to, from, effect.deleted.len(), 0);
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
/// inter-site traffic). Sites then ship the codes of the attributes
/// they *own* ([`VerticalPartition::owner_of`]) plus the row-aligning
/// tuple id to the coordinator — the fragment owning the most
/// attributes, so the heaviest column group never travels. Delete
/// notifications are part of the feed itself, so only insert codes move
/// between sites.
#[derive(Debug)]
pub struct VerticalIncrementalRun {
    partition: VerticalPartition,
    /// Attributes owned per fragment ([`VerticalPartition::owner_of`]).
    owned_count: Vec<usize>,
    coord: Coordinator,
}

impl VerticalIncrementalRun {
    /// Builds the run: assigns attribute ownership, picks the
    /// coordinator, ships every non-coordinator fragment's owned
    /// columns as code rows, and builds the per-CFD indices.
    pub fn new(
        partition: VerticalPartition,
        sigma: &[Cfd],
        cfg: RunConfig,
    ) -> Result<Self, RelationError> {
        let n = partition.n_sites();
        let mut ctx = Coordinator::open(partition.schema(), sigma, n, cfg)?;
        let mut owned_count = vec![0usize; n];
        for a in partition.schema().attr_ids() {
            owned_count[partition.owner_of(a).0] += 1;
        }
        let coordinator = (0..n).max_by_key(|&f| (owned_count[f], n - f));
        #[expect(
            clippy::expect_used,
            reason = "internal invariant: a vertical partition has an attribute group, hence a site"
        )]
        let coordinator = SiteId(coordinator.expect("n ≥ 1") as u32);
        let n_rows = partition.fragments()[0].data.len();

        // Per-site encode scan: each fragment passes its rows once.
        ctx.phase("incr:build-scan", |p| {
            for frag in partition.fragments().iter().filter(|f| !f.data.is_empty()) {
                p.compute(frag.site, cfg.cost.scan_time(frag.data.len()));
            }
        });

        // Owned columns travel to the coordinator.
        ctx.phase("incr:build-ship", |p| {
            let mut wire = p.transfer();
            for (f, &owned) in owned_count.iter().enumerate() {
                if f != coordinator.index() && n_rows > 0 && owned > 0 {
                    wire.send(coordinator, SiteId(f as u32), n_rows, owned);
                }
            }
            wire.commit();
        });

        // Full code rows at the coordinator: each attribute read from
        // its owner's column, through the owner's dictionary.
        let whole = partition.reassemble()?;
        let attrs: Vec<AttrId> = whole.schema().attr_ids().collect();
        let dicts = whole.dictionaries_of(&attrs);
        // As in `IncrementalRun::build`: every insert interns into every
        // column, so the session indexes them all up front, sorted ones
        // aside.
        dicts.iter().for_each(|d| d.ensure_indexed());
        let rows: CodeRows = whole.code_rows(&attrs, &(0..n_rows).collect::<Vec<_>>());
        let coord = Coordinator::build(ctx, coordinator, sigma, &dicts, &rows);
        Ok(VerticalIncrementalRun { partition, owned_count, coord })
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

        // Manifests, then owned-column shipment for the inserted rows
        // (delete ids are already part of the feed).
        let (coordinator, k) = (self.coord.site, self.coord.indices.len());
        let owned_count = &self.owned_count;
        Ok(self.coord.round(delta.n_ops(), charges, vec![effect], |ctx, effects| {
            let n_inserts = effects[0].inserted.len();
            let shippers: Vec<(SiteId, usize)> = owned_count
                .iter()
                .enumerate()
                .filter(|&(f, &owned)| f != coordinator.index() && n_inserts > 0 && owned > 0)
                .map(|(f, &owned)| (SiteId(f as u32), owned))
                .collect();
            ctx.phase("incr:manifest", |p| {
                for &(site, _) in &shippers {
                    p.control(site, [coordinator], k);
                }
            });
            ctx.phase("incr:ship", |p| {
                let mut wire = p.transfer();
                for &(site, owned) in &shippers {
                    wire.send(coordinator, site, n_inserts, owned);
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

//! The distributed delta protocol: stateful incremental detection runs.
//!
//! A run owns the (mutating) partition, one [`ViolationIndex`] per
//! compiled CFD at a fixed *coordinator* site, and the same [`RunCtx`]
//! every batch detector carries — shipment ledger, site clocks and
//! phase trace, kept in step. Each delta batch is one protocol round:
//!
//! 1. **Apply** — every site checks and locates its local delta
//!    ([`Relation::locate_delta`](dcd_relation::Relation::locate_delta))
//!    before any site mutates, then applies it, in parallel on the
//!    [`dcd_dist::pool`], charged per site like the batch detectors' scan
//!    phases;
//! 2. **Manifest** — each participating site sends the coordinator one
//!    control message (`8·k` bytes, its per-CFD touch counts), charged
//!    [`CostModel::control_time`](dcd_dist::CostModel::control_time);
//! 3. **Ship** — sites ship only `(tid, codes)` delta rows:
//!    `arity + 2` cells per insert (the id rides as [`TID_CELLS`] code
//!    cells) and `2` cells per delete, byte-accurate at 4 bytes/cell;
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
//! site mutates, no clock moves and no round is counted.
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
    chained_holds as holds, Fragment, HorizontalPartition, ReplicatedPartition, SiteId,
    VerticalPartition,
};
use dcd_obs::MetricsRegistry;
use dcd_relation::{
    AttrId, DeltaEffect, Dictionary, FxHashSet, PendingDelta, Relation, RelationDelta,
    RelationError, Tuple, TupleId,
};
use std::sync::Arc;

/// Wire cells occupied by one 8-byte tuple id in the code-shipped
/// protocol (two `u32` cells) — re-exported from the ledger, which all
/// code-shipping protocols (batch and incremental) share.
pub use dcd_dist::TID_CELLS;

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

fn shared_dictionaries(fragments: &[Fragment]) -> Result<Vec<Arc<Dictionary>>, RelationError> {
    let first = &fragments[0].data;
    let dicts: Vec<Arc<Dictionary>> = first.columns().iter().map(|c| c.dict().clone()).collect();
    for frag in &fragments[1..] {
        for (a, col) in frag.data.columns().iter().enumerate() {
            if !Arc::ptr_eq(col.dict(), &dicts[a]) {
                return Err(RelationError::SchemaMismatch {
                    detail: format!(
                        "fragment at {} does not share the partition dictionaries \
                         (attribute {a}); the cross-site index needs code-compatible \
                         fragments — build the partition through the dcd-dist \
                         constructors",
                        frag.site
                    ),
                });
            }
        }
    }
    Ok(dicts)
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
    indices: Vec<ViolationIndex>,
    /// Incrementally-maintained mined tableaux (see
    /// [`Self::track_mining`]); empty unless mining is tracked.
    miners: Vec<MinedTableau>,
    coordinator: SiteId,
    ctx: RunCtx,
    rounds: usize,
}

impl IncrementalRun {
    /// Builds the run over a plain horizontal partition: picks the
    /// coordinator (the site holding the most tuples, ties to the
    /// smallest id — the `CTRDETECT` rule), ships every fragment's code
    /// rows there, and builds one violation index per compiled CFD.
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
        cfg.cost.check()?;
        sigma.iter().try_for_each(|cfd| cfd.check_schema(partition.schema()))?;
        let n = partition.n_sites();
        let dicts = shared_dictionaries(partition.fragments())?;
        let arity = partition.schema().arity();
        let attrs: Vec<AttrId> = partition.schema().attr_ids().collect();
        let sizes: Vec<usize> = partition.fragments().iter().map(|f| f.data.len()).collect();
        let coordinator = SiteId((0..n).max_by_key(|&i| (sizes[i], n - i)).expect("n ≥ 1") as u32);
        let mut ctx = RunCtx::new(n, cfg);
        ctx.begin_round();

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
                    wire.send(coordinator, frag.site, sizes[i], sizes[i] * (arity + TID_CELLS));
                }
            }
            wire.commit();
        });

        // Phase 3: index build at the coordinator.
        let cfds: Vec<_> = sigma.iter().flat_map(Cfd::simplify).collect();
        let mut indices: Vec<ViolationIndex> =
            cfds.into_iter().map(|cfd| ViolationIndex::new(cfd, &dicts)).collect();
        maintain_indices(&mut ctx, "incr:build-index", &mut indices, coordinator, &[], &rows);
        ctx.end_round();
        Ok(IncrementalRun {
            partition,
            factor,
            indices,
            miners: Vec::new(),
            coordinator,
            ctx,
            rounds: 0,
        })
    }

    /// Applies one delta batch — one round of the protocol — and
    /// returns the resulting report revision plus that round's §III-B
    /// cost.
    ///
    /// Every site's delta is checked before any site applies its own, so
    /// an error (unknown delete id, ill-typed insert, an id live at
    /// another site) rejects the whole batch and leaves the run as it
    /// was: fragments, indices, clocks, ledger and round count.
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<RoundOutput, RelationError> {
        let n = self.partition.n_sites();
        if batch.per_site.len() != n {
            return Err(RelationError::InvalidPartition {
                detail: format!(
                    "delta batch covers {} sites, partition has {n}",
                    batch.per_site.len()
                ),
            });
        }
        // Cross-site id uniqueness: per-site apply_delta can only see
        // its own fragment, but the index keys on ids being unique
        // across the *whole* partition — a cross-site collision would
        // silently corrupt it. Checked before anything mutates, so a
        // bad batch is rejected cleanly.
        let mut insert_ids: FxHashSet<TupleId> = FxHashSet::default();
        for d in &batch.per_site {
            for t in &d.inserts {
                if !insert_ids.insert(t.tid) {
                    return Err(RelationError::DuplicateTuple { tid: t.tid.0 });
                }
            }
        }
        if !insert_ids.is_empty() {
            let deleted: FxHashSet<TupleId> =
                batch.per_site.iter().flat_map(|d| d.deletes.iter().copied()).collect();
            let kept: Vec<TupleId> = batch
                .per_site
                .iter()
                .flat_map(|d| d.inserts.iter().map(|t| t.tid))
                .filter(|tid| !deleted.contains(tid))
                .collect();
            for frag in self.partition.fragments() {
                if let Some(i) = frag.data.positions_of(&kept).into_iter().flatten().min() {
                    return Err(RelationError::DuplicateTuple { tid: frag.data.tids()[i].0 });
                }
            }
        }
        let arity = self.partition.schema().arity();
        let sites =
            self.partition.fragments_mut().iter_mut().map(|f| (f.site, &mut f.data)).collect();
        let located = Located::check(self.ctx.cfg(), sites, &batch.per_site)?;

        self.rounds += 1;
        let ctx = &mut self.ctx;
        let cost = ctx.cfg().cost;
        let coordinator = self.coordinator;
        let factor = self.factor;
        let round_start = ctx.response_time();
        let ops: usize = batch.per_site.iter().map(|d| d.n_ops()).sum();
        ctx.begin_round();
        count_deltas(ctx, ops);

        // Phase 1: apply at every site, in parallel.
        let effects = located.apply(ctx);

        // Phase 2: delta manifests (one control message per
        // participating non-coordinator site).
        let k = self.indices.len();
        ctx.phase("incr:manifest", |p| {
            for (i, effect) in effects.iter().enumerate() {
                if !effect.is_empty() && i != coordinator.index() {
                    p.control(SiteId(i as u32), [coordinator], 8 * k);
                }
            }
        });

        // Phase 3: ship (tid, codes) delta rows — to the other replica
        // holders (synchronization) and to the coordinator unless it
        // holds a replica of the origin fragment.
        ctx.phase("incr:ship", |p| {
            let mut wire = p.transfer();
            for (i, effect) in effects.iter().enumerate() {
                if effect.is_empty() {
                    continue;
                }
                let rows = effect.n_rows();
                let cells =
                    effect.inserted.len() * (arity + TID_CELLS) + effect.deleted.len() * TID_CELLS;
                let from = SiteId(i as u32);
                for h in (0..n).filter(|&h| h != i && holds(n, factor, h, i)) {
                    wire.send(SiteId(h as u32), from, rows, cells);
                }
                if !holds(n, factor, coordinator.index(), i) {
                    wire.send(coordinator, from, rows, cells);
                }
            }
            wire.commit();
        });

        // Mined-tableau maintenance: each site adjusts its tracked
        // support counts from its own effect — `rows × masks` key
        // updates instead of the `fragment × masks` scan a re-mine
        // costs. Site order, then miner order, keeps the f64 sums
        // deterministic.
        if !self.miners.is_empty() {
            let miners = &mut self.miners;
            ctx.phase("incr:mine", |p| {
                for (i, effect) in effects.iter().enumerate() {
                    if effect.is_empty() {
                        continue;
                    }
                    for miner in miners.iter_mut() {
                        let secs = cost.scan_time(effect.n_rows()) * miner.n_masks() as f64;
                        let updates = miner.apply_site_effect(i, effect);
                        count_mask_updates(p.metrics(), updates);
                        p.compute(SiteId(i as u32), secs);
                    }
                }
            });
        }

        // Phase 4: index maintenance at the coordinator.
        let deletes: Vec<TupleId> =
            effects.iter().flat_map(|e| e.deleted.iter().map(|&(t, _)| t)).collect();
        let inserts: CodeRows = effects.into_iter().flat_map(|e| e.inserted).collect();
        maintain_indices(ctx, "incr:maintain", &mut self.indices, coordinator, &deletes, &inserts);
        observe_lag(ctx, round_start);

        let paper_cost = ctx.end_round();
        Ok(RoundOutput { report: self.report(), paper_cost })
    }

    /// The current report revision: one entry per compiled CFD, in CFD
    /// order, identical to full re-detection on the materialized state.
    pub fn report(&self) -> ViolationReport {
        current_report(&self.indices)
    }

    /// A [`Detection`] snapshot of the whole run so far: the live
    /// report plus the accumulated traffic, clocks and paper cost.
    pub fn detection(&self) -> Detection {
        self.ctx.snapshot(ALGORITHM, self.report())
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
        self.coordinator
    }

    /// Number of delta batches applied so far (the build is round 0).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Distinct keys per CFD index, for diagnostics. The members examined
    /// across rounds are the `dcd_incr_keys_revalidated_total` counter of
    /// [`Self::detection`].
    pub fn index_key_counts(&self) -> Vec<usize> {
        self.indices.iter().map(ViolationIndex::key_count).collect()
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
        let cost = self.ctx.cfg().cost;
        let fragments = self.partition.fragments();
        self.ctx.phase("incr:mine-build", |p| {
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

/// Assembles the current report revision: one entry per compiled CFD,
/// in CFD order (shared by both run types).
fn current_report(indices: &[ViolationIndex]) -> ViolationReport {
    let mut report = ViolationReport::default();
    for idx in indices {
        report.absorb(&idx.cfd().name, idx.snapshot());
    }
    report
}

/// Counts one batch's delta operations.
fn count_deltas(ctx: &mut RunCtx, ops: usize) {
    let help = "Delta operations applied across sites";
    ctx.metrics().add("dcd_incr_deltas_applied_total", help, &[], ops as u64);
}

/// Counts per-mask support-count updates of the tracked miners (`0`
/// registers the family).
fn count_mask_updates(metrics: &mut MetricsRegistry, updates: u64) {
    let help = "Per-mask support-count updates applied by incremental mining maintenance";
    metrics.add("dcd_mining_mask_updates_total", help, &[], updates);
}

/// Records one batch's delta lag — simulated seconds from `round_start`
/// to now — into the run's lag histogram (integer microseconds, so
/// merges stay order-free).
fn observe_lag(ctx: &mut RunCtx, round_start: f64) {
    let lag = ((ctx.response_time() - round_start) * 1e6) as u64;
    ctx.metrics().observe(
        "dcd_incr_delta_lag_micros",
        "Simulated delta lag per batch, in microseconds",
        &[],
        &[10, 100, 1_000, 10_000, 100_000, 1_000_000],
        lag,
    );
}

/// Every site's delta of one round, checked against the site's relation
/// and located in it before any site mutates, with what applying it will
/// charge each site. Shared by both run types.
struct Located<'r, 'd> {
    /// Per site, in site order; `None` for an empty delta.
    pending: Vec<Option<PendingDelta<'r, 'd>>>,
    /// `(site, seconds)` for every site with a delta, in site order.
    charges: Vec<(SiteId, f64)>,
}

impl<'r, 'd> Located<'r, 'd> {
    /// Checks and locates every site's delta, in parallel (one task per
    /// site, handed its relation by `&mut`). The first error, in site
    /// order, rejects the batch with every relation as it was. The
    /// simulated site keeps no order on its tuple ids: it is charged one
    /// pass over the fragment as it was before the delta (locating the
    /// deletes, insert-id uniqueness) plus per-op interning, whatever
    /// lookup `locate_delta` ran on this host.
    fn check(
        cfg: &RunConfig,
        sites: Vec<(SiteId, &'r mut Relation)>,
        deltas: &'d [RelationDelta],
    ) -> Result<Self, RelationError> {
        let charges = sites
            .iter()
            .zip(deltas)
            .filter(|(_, delta)| !delta.is_empty())
            .map(|((site, data), delta)| (*site, cfg.cost.scan_time(data.len() + delta.n_ops())))
            .collect();
        let tasks = sites.into_iter().map(|(_, data)| data).zip(deltas);
        let pending = scoped_map(cfg.threads, tasks, |(data, delta)| {
            (!delta.is_empty()).then(|| data.locate_delta(delta)).transpose()
        });
        Ok(Located { pending: pending.into_iter().collect::<Result<_, _>>()?, charges })
    }

    /// The apply phase of a delta round: every site applies its located
    /// delta, in parallel, and is charged after the join. Sites with an
    /// empty delta do nothing and are not charged. Returns the per-site
    /// effects.
    fn apply(self, ctx: &mut RunCtx) -> Vec<DeltaEffect> {
        let threads = ctx.cfg().threads;
        ctx.phase("incr:apply", |p| {
            let effects = scoped_map(threads, self.pending, |pending| {
                pending.map_or_else(DeltaEffect::default, PendingDelta::apply)
            });
            for (site, secs) in self.charges {
                p.compute(site, secs);
            }
            effects
        })
    }
}

/// Index build / maintenance at the coordinator, shared by both run
/// types and both of their rounds: every index applies the delta in
/// parallel (one task per CFD); the coordinator is then charged
/// `check_time` of the members each index examined
/// ([`ViolationIndex::apply`]: every indexed row at the build, the
/// landed delta rows plus the old members of re-judged keys per batch),
/// sequentially in CFD order, so the f64 sums stay bit-identical across
/// pool widths.
fn maintain_indices(
    ctx: &mut RunCtx,
    phase: &str,
    indices: &mut [ViolationIndex],
    coordinator: SiteId,
    deletes: &[TupleId],
    inserts: &[(TupleId, Box<[u32]>)],
) {
    let cfg = *ctx.cfg();
    ctx.phase(phase, |p| {
        let per_cfd = scoped_map(cfg.threads, indices, |index| index.apply(deletes, inserts));
        let mut examined = 0u64;
        for members in per_cfd {
            examined += members as u64;
            p.compute(coordinator, cfg.cost.check_time(members));
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
    /// `(owning fragment, local column)` per original attribute — the
    /// first fragment covering it.
    placement: Vec<(usize, AttrId)>,
    /// Attributes owned per fragment.
    owned_count: Vec<usize>,
    indices: Vec<ViolationIndex>,
    coordinator: SiteId,
    ctx: RunCtx,
    rounds: usize,
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
        cfg.cost.check()?;
        sigma.iter().try_for_each(|cfd| cfd.check_schema(partition.schema()))?;
        let alignment = partition.row_alignment()?;
        let n = partition.n_sites();
        let placement: Vec<(usize, AttrId)> =
            partition.schema().attr_ids().map(|a| partition.owner_of(a)).collect();
        let mut owned_count = vec![0usize; n];
        for &(f, _) in &placement {
            owned_count[f] += 1;
        }
        let coordinator =
            SiteId((0..n).max_by_key(|&f| (owned_count[f], n - f)).expect("n ≥ 1") as u32);
        let dicts: Vec<Arc<Dictionary>> = placement
            .iter()
            .map(|&(f, local)| partition.fragments()[f].data.dictionary(local).clone())
            .collect();
        let mut ctx = RunCtx::new(n, cfg);
        ctx.begin_round();
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
                    wire.send(coordinator, SiteId(f as u32), n_rows, n_rows * (owned + TID_CELLS));
                }
            }
            wire.commit();
        });

        // Assemble full code rows at the coordinator: each attribute is
        // read from its owner's column, at the row the partition's
        // alignment pairs with fragment 0's.
        let columns: Vec<_> = placement
            .iter()
            .map(|&(f, local)| (f, partition.fragments()[f].data.column(local).codes()))
            .collect();
        let rows: CodeRows = partition.fragments()[0]
            .data
            .tids()
            .iter()
            .enumerate()
            .map(|(r, &tid)| {
                (tid, columns.iter().map(|(f, col)| col[alignment.row(*f, r)]).collect())
            })
            .collect();
        let cfds: Vec<_> = sigma.iter().flat_map(Cfd::simplify).collect();
        let mut indices: Vec<ViolationIndex> =
            cfds.into_iter().map(|cfd| ViolationIndex::new(cfd, &dicts)).collect();
        maintain_indices(&mut ctx, "incr:build-index", &mut indices, coordinator, &[], &rows);
        ctx.end_round();
        Ok(VerticalIncrementalRun {
            partition,
            placement,
            owned_count,
            indices,
            coordinator,
            ctx,
            rounds: 0,
        })
    }

    /// Applies one whole-tuple delta (the same feed reaches every
    /// site; each applies its projection) and returns the report
    /// revision. Error handling matches [`IncrementalRun::apply_batch`]:
    /// a delta any site's projection rejects (an unknown delete id, an
    /// insert ill-typed in that site's attributes) leaves the run as it
    /// was.
    pub fn apply_batch(&mut self, delta: &RelationDelta) -> Result<RoundOutput, RelationError> {
        if delta.is_empty() {
            self.rounds += 1;
            return Ok(RoundOutput { report: self.report(), paper_cost: 0.0 });
        }
        let threads = self.ctx.cfg().threads;
        let (attrs, sites): (Vec<&[AttrId]>, Vec<_>) = self
            .partition
            .fragments_mut()
            .iter_mut()
            .map(|f| (f.attrs.as_slice(), (f.site, &mut f.data)))
            .unzip();
        let projected = scoped_map(threads, &attrs, |attrs| {
            RelationDelta::new(
                delta.inserts.iter().map(|t| Tuple::new(t.tid, t.project(attrs))).collect(),
                delta.deletes.clone(),
            )
        });
        let located = Located::check(self.ctx.cfg(), sites, &projected)?;

        self.rounds += 1;
        let ctx = &mut self.ctx;
        let coordinator = self.coordinator;
        let round_start = ctx.response_time();
        ctx.begin_round();
        count_deltas(ctx, delta.n_ops());

        // Phase 1: every site applies its projection of the delta.
        let effects = located.apply(ctx);

        // Phases 2 + 3: manifests, then owned-column shipment for the
        // inserted rows (delete ids are already part of the feed).
        let k = self.indices.len();
        let n_inserts = delta.inserts.len();
        let shippers: Vec<(SiteId, usize)> = self
            .owned_count
            .iter()
            .enumerate()
            .filter(|&(f, &owned)| f != coordinator.index() && n_inserts > 0 && owned > 0)
            .map(|(f, &owned)| (SiteId(f as u32), owned))
            .collect();
        ctx.phase("incr:manifest", |p| {
            for &(site, _) in &shippers {
                p.control(site, [coordinator], 8 * k);
            }
        });
        ctx.phase("incr:ship", |p| {
            let mut wire = p.transfer();
            for &(site, owned) in &shippers {
                wire.send(coordinator, site, n_inserts, n_inserts * (owned + TID_CELLS));
            }
            wire.commit();
        });

        // Phase 4: assemble full insert rows from the per-site effects
        // (rows align across fragments — same deletes, same insert
        // order) and maintain the indices.
        let inserts: CodeRows = (0..n_inserts)
            .map(|r| {
                let (tid, _) = effects[0].inserted[r];
                let codes: Box<[u32]> = self
                    .placement
                    .iter()
                    .map(|&(f, local)| {
                        assert_eq!(effects[f].inserted[r].0, tid, "one feed, one insert order");
                        effects[f].inserted[r].1[local.index()]
                    })
                    .collect();
                (tid, codes)
            })
            .collect();
        maintain_indices(
            ctx,
            "incr:maintain",
            &mut self.indices,
            coordinator,
            &delta.deletes,
            &inserts,
        );
        observe_lag(ctx, round_start);

        let paper_cost = ctx.end_round();
        Ok(RoundOutput { report: self.report(), paper_cost })
    }

    /// The current report revision.
    pub fn report(&self) -> ViolationReport {
        current_report(&self.indices)
    }

    /// A [`Detection`] snapshot of the whole run so far.
    pub fn detection(&self) -> Detection {
        self.ctx.snapshot(ALGORITHM, self.report())
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
        self.coordinator
    }
}

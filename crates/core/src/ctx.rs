//! The run context: one owner for a run's two §III-B meters, its
//! metrics and its trace.
//!
//! The paper's cost model has exactly two meters — data shipped
//! ([`ShipmentLedger`]) and per-site response time ([`SiteClocks`]) —
//! and every engine must keep them, and the phase trace, in step.
//! [`RunCtx`] owns them and the run's [`MetricsRegistry`] privately and
//! exposes only operations that cannot let them drift apart:
//!
//! * a clock moves only inside [`RunCtx::phase`], whose span is
//!   recorded when the closure returns — there is no way to move a
//!   clock that the trace does not cover;
//! * shipment is charged only by [`Transfer::send`], which bumps the
//!   transfer matrix alongside the ledger, and
//!   [`Transfer::commit`] makes the clocks pay for exactly that matrix;
//! * a [`Detection`] is assembled only by [`RunCtx::finish`] /
//!   [`RunCtx::snapshot`], from those same meters;
//! * the meters and the registry have one owner: [`Phase`] hands them
//!   out by `&mut`, so a pool task cannot charge them — it returns its
//!   charge and what it counted, and the phase body applies both after
//!   the join.
//!
//! These are type and privacy facts, checked by rustc on every build.

use crate::config::RunConfig;
use crate::report::Detection;
use dcd_cfd::{ViolationReport, ViolationSet};
use dcd_dist::{ShipmentLedger, SiteClocks, SiteId};
use dcd_obs::{MetricsRegistry, RunTrace};

/// What the current detection round feeds the literal §III-B formula,
/// per site: local compute charged to it and rows it shipped.
#[derive(Debug)]
struct Round {
    local_secs: Vec<f64>,
    sent: Vec<usize>,
}

/// Everything a detection run accumulates besides its data: the
/// ledger, the site clocks, the registry and the trace, the
/// current round's §III-B inputs, and the run's report and paper
/// cost. Built in exactly one place, [`RunCtx::new`]; every engine
/// entry point and both incremental session types hold one.
///
/// Clocks move only inside a phase:
///
/// ```
/// use dcd_core::{ctx::Phase, RunConfig, RunCtx};
/// use dcd_dist::SiteId;
/// let mut ctx = RunCtx::new(2, RunConfig::default());
/// ctx.phase("scan", |p: &mut Phase| p.advance(SiteId(0), 1.0));
/// let d = ctx.finish("DEMO");
/// assert_eq!(d.site_clocks, [1.0, 0.0]);
/// assert_eq!((d.trace.spans[0].name.as_str(), d.trace.spans[0].end), ("scan", 1.0));
/// ```
///
/// The same advance outside [`RunCtx::phase`] does not compile — the
/// clocks are private and only [`Phase`] carries the operation:
///
/// ```compile_fail
/// use dcd_core::{RunConfig, RunCtx};
/// use dcd_dist::SiteId;
/// let mut ctx = RunCtx::new(2, RunConfig::default());
/// ctx.advance(SiteId(0), 1.0);
/// ```
///
/// Shipment is charged through a [`Transfer`], which says what ships —
/// rows and their attribute width — and leaves the pricing to the
/// ledger:
///
/// ```
/// use dcd_core::{ctx::Phase, RunConfig, RunCtx};
/// use dcd_dist::SiteId;
/// let mut ctx = RunCtx::new(2, RunConfig::default());
/// ctx.phase("ship", |p: &mut Phase| {
///     let mut t = p.transfer();
///     t.send(SiteId(1), SiteId(0), 3, 2);
///     t.commit();
/// });
/// let d = ctx.finish("DEMO");
/// // 3 rows of 2 codes plus a 2-cell id each, 4 bytes a cell.
/// assert_eq!((d.shipped_tuples, d.shipped_cells, d.shipped_bytes), (3, 12, 48));
/// assert!(d.site_clocks[1] > 0.0, "the receiver waited for the sender");
/// ```
///
/// Charging the ledger any other way does not compile — the ledger is
/// private, and a [`Phase`] has no ledger-charging method but
/// [`Phase::control`]:
///
/// ```compile_fail
/// use dcd_core::{ctx::Phase, RunConfig, RunCtx};
/// use dcd_dist::SiteId;
/// let mut ctx = RunCtx::new(2, RunConfig::default());
/// ctx.phase("ship", |p: &mut Phase| p.ship_rows(SiteId(1), SiteId(0), 3, 2));
/// ```
///
/// And a pool task cannot charge a clock — the pool takes `Fn + Sync`
/// tasks, and every [`Phase`] method takes `&mut self` — so a task
/// returns its charge and the body applies it after the join:
///
/// ```compile_fail
/// use dcd_core::{ctx::Phase, RunConfig, RunCtx};
/// use dcd_dist::{pool::scoped_map, SiteId};
/// let mut ctx = RunCtx::new(2, RunConfig::default());
/// ctx.phase("scan", |p: &mut Phase| {
///     scoped_map(2, 0..2, |i| p.compute(SiteId(i as u32), 1.0));
/// });
/// ```
#[derive(Debug)]
pub struct RunCtx {
    cfg: RunConfig,
    registry: MetricsRegistry,
    trace: RunTrace,
    ledger: ShipmentLedger,
    clocks: SiteClocks,
    /// `Some` between [`Self::begin_round`] and [`Self::end_round`].
    round: Option<Round>,
    report: ViolationReport,
    paper_cost: f64,
}

impl RunCtx {
    /// A fresh context over `n_sites` sites: empty registry, ledger and
    /// trace, all clocks at zero.
    pub fn new(n_sites: usize, cfg: RunConfig) -> Self {
        RunCtx {
            cfg,
            registry: MetricsRegistry::new(),
            trace: RunTrace::default(),
            ledger: ShipmentLedger::new(n_sites),
            clocks: SiteClocks::new(n_sites),
            round: None,
            report: ViolationReport::default(),
            paper_cost: 0.0,
        }
    }

    /// The run's configuration.
    pub fn cfg(&self) -> &RunConfig {
        &self.cfg
    }

    /// The run's metrics registry, for what an engine counts between
    /// phases; inside one, [`Phase::metrics`] is the same registry. The
    /// ledger's families and the run gauges are written only into a
    /// [`Detection`]'s copy ([`Self::snapshot`]).
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The simulated response time so far: the maximum per-site clock.
    pub fn response_time(&self) -> f64 {
        self.clocks.response_time()
    }

    /// Runs one phase. `body` receives the [`Phase`] handle — the only
    /// way to reach a clock-advancing operation — and when it returns,
    /// one span named `name` is recorded per site whose clock moved
    /// (an idle site leaves no zero-length span). Taking `&mut self`
    /// makes a phase inside a phase a borrow error, so no interval is
    /// ever recorded twice.
    pub fn phase<R>(&mut self, name: &str, body: impl FnOnce(&mut Phase<'_>) -> R) -> R {
        let before = self.clocks.snapshot();
        let out = body(&mut Phase { ctx: self });
        for (site, (b, a)) in before.into_iter().zip(self.clocks.snapshot()).enumerate() {
            if a > b {
                self.trace.record(name, site, b, a);
            }
        }
        out
    }

    /// Merges `vs` into the run's report under the CFD's name.
    pub fn absorb(&mut self, cfd: &str, vs: ViolationSet) {
        self.report.absorb(cfd, vs);
    }

    /// Opens a detection round: the §III-B formula is evaluated per
    /// round, over what is computed and shipped between here and
    /// [`Self::end_round`]. Work outside a round (hybrid's vertical
    /// gather, a session's mining build) moves clocks and ledger but
    /// enters no round's formula.
    ///
    /// # Panics
    /// When a round is already open (an internal invariant: replacing it
    /// would drop what it accumulated from the run's paper cost).
    pub fn begin_round(&mut self) {
        let n = self.clocks.n_sites();
        assert!(self.round.is_none(), "begin_round inside an open round");
        self.round = Some(Round { local_secs: vec![0.0; n], sent: vec![0; n] });
    }

    /// Closes the round: evaluates the literal §III-B two-phase formula
    /// over it, adds that to the run's paper cost, and returns it.
    pub fn end_round(&mut self) -> f64 {
        let round = self.round.take().expect("end_round without begin_round");
        let cost = self.cfg.cost.paper_cost(&round.sent, &round.local_secs);
        self.paper_cost += cost;
        cost
    }

    /// Finishes a batch run: the [`Detection`] over the report
    /// accumulated through [`Self::absorb`]. The context is spent, so its
    /// registry and trace move into the `Detection` uncopied.
    pub fn finish(mut self, algorithm: &str) -> Detection {
        let violations = std::mem::take(&mut self.report);
        let metrics = std::mem::take(&mut self.registry);
        let trace = std::mem::take(&mut self.trace);
        self.detection(algorithm, violations, metrics, trace)
    }

    /// A [`Detection`] of the run so far over an externally maintained
    /// report (incremental sessions keep theirs in violation indices).
    /// Its metrics are a copy of the run's registry plus the ledger's
    /// per-site-pair families and the run-summary gauges
    /// (`dcd_run_violating_tuples`, `dcd_run_violating_patterns`,
    /// `dcd_run_response_seconds`) — every engine finishes through here
    /// or [`Self::finish`], so the families are uniform across detectors.
    pub fn snapshot(&self, algorithm: &str, violations: ViolationReport) -> Detection {
        self.detection(algorithm, violations, self.registry.clone(), self.trace.clone())
    }

    /// The [`Detection`] over `violations`, with `metrics` — the run's
    /// registry — completed by the ledger's families and the run-summary
    /// gauges, and the run's `trace`.
    fn detection(
        &self,
        algorithm: &str,
        violations: ViolationReport,
        mut metrics: MetricsRegistry,
        trace: RunTrace,
    ) -> Detection {
        let tuples = violations.distinct_tids();
        let patterns: usize = violations.per_cfd.iter().map(|(_, v)| v.pattern_count()).sum();
        let response_time = self.clocks.response_time();
        self.ledger.record(&mut metrics);
        let help = "Distinct violating tuples across all CFDs";
        metrics.set("dcd_run_violating_tuples", help, &[], tuples as f64);
        let help = "Total Vioπ patterns across all CFDs";
        metrics.set("dcd_run_violating_patterns", help, &[], patterns as f64);
        let help = "Simulated response time of the run";
        metrics.set("dcd_run_response_seconds", help, &[], response_time);
        Detection {
            algorithm: algorithm.to_string(),
            violations,
            shipped_tuples: self.ledger.total_tuples(),
            shipped_cells: self.ledger.total_cells(),
            shipped_bytes: self.ledger.total_bytes(),
            control_messages: self.ledger.control_messages(),
            control_bytes: self.ledger.control_bytes(),
            response_time,
            site_clocks: self.clocks.snapshot(),
            paper_cost: self.paper_cost,
            metrics,
            trace,
        }
    }
}

/// The handle a [`RunCtx::phase`] body works through: every operation
/// that moves a site clock lives here and nowhere else, and each takes
/// seconds the caller worked out from the cost model — a phase runs no
/// work of its own. Every method takes `&mut self`, so no pool task can
/// charge through it: tasks return their charges and the body applies
/// them after the join, in task order, which keeps every clock and
/// every `local_secs` sum bit-identical across pool widths.
#[derive(Debug)]
pub struct Phase<'a> {
    ctx: &'a mut RunCtx,
}

impl Phase<'_> {
    /// Advances one site's clock by `secs` that are *not* local compute
    /// in the §III-B sense (control-packet send time, pre-round scans).
    pub fn advance(&mut self, site: SiteId, secs: f64) {
        self.ctx.clocks.advance(site, secs);
    }

    /// Charges `secs` of local compute to one site: its clock advances
    /// and the open round's `local_secs` grows by the same amount.
    pub fn compute(&mut self, site: SiteId, secs: f64) {
        self.ctx.clocks.advance(site, secs);
        if let Some(round) = &mut self.ctx.round {
            round.local_secs[site.index()] += secs;
        }
    }

    /// A barrier among `sites` only: each waits for the latest of them.
    /// Sites outside the set keep their own clocks.
    pub fn barrier(&mut self, sites: &[SiteId]) {
        let clocks = &mut self.ctx.clocks;
        let latest = sites.iter().map(|&s| clocks.now(s)).fold(0.0, f64::max);
        for &s in sites {
            clocks.wait_until(s, latest);
        }
    }

    /// Sends one control message of `counts` counts (one per CFD, in the
    /// statistics exchange and a delta manifest) from `from` to each
    /// site of `to`, and charges the sender
    /// [`control_time`](dcd_dist::CostModel::control_time) for them —
    /// control traffic shows up in the ledger and in response time
    /// together.
    pub fn control(&mut self, from: SiteId, to: impl IntoIterator<Item = SiteId>, counts: usize) {
        let mut msgs = 0;
        for to in to {
            self.ctx.ledger.control(to, from, counts);
            msgs += 1;
        }
        self.advance(from, self.ctx.cfg.cost.control_time(msgs));
    }

    /// The run's metrics registry: where the body adds what its pool
    /// tasks counted, after the join.
    pub fn metrics(&mut self) -> &mut MetricsRegistry {
        self.ctx.metrics()
    }

    /// Opens a bulk transfer round; see [`Transfer`].
    pub fn transfer(&mut self) -> Transfer<'_> {
        let n = self.ctx.clocks.n_sites();
        Transfer { ctx: self.ctx, matrix: vec![vec![0; n]; n] }
    }
}

/// A bulk code-shipped transfer round, built inside a phase:
/// [`Self::send`] charges the ledger and records the rows in the
/// transfer matrix together; [`Self::commit`] then makes each sender
/// serialize its outgoing rows and each receiver wait for its senders
/// ([`SiteClocks::transfer`]) over exactly that matrix, and adds it to
/// the open round's §III-B shipment term.
#[derive(Debug)]
#[must_use = "a transfer the clocks never pay for: call `commit`"]
pub struct Transfer<'a> {
    ctx: &'a mut RunCtx,
    matrix: Vec<Vec<usize>>,
}

impl Transfer<'_> {
    /// Ships `rows` `(tid, codes)` rows of `width` attribute codes each
    /// from `from` to `to`; the ledger prices them
    /// ([`ShipmentLedger::ship_rows`]).
    pub fn send(&mut self, to: SiteId, from: SiteId, rows: usize, width: usize) {
        self.ctx.ledger.ship_rows(to, from, rows, width);
        self.matrix[to.index()][from.index()] += rows;
    }

    /// Executes the transfer on the clocks.
    pub fn commit(self) {
        self.ctx.clocks.transfer(&self.matrix, &self.ctx.cfg.cost);
        if let Some(round) = &mut self.ctx.round {
            for row in &self.matrix {
                for (sent, &rows) in round.sent.iter_mut().zip(row) {
                    *sent += rows;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_dist::CostModel;

    fn unit_cfg() -> RunConfig {
        RunConfig {
            cost: CostModel {
                transfer_rate: 1.0,
                packet_tuples: 1.0,
                scan_coeff: 0.0,
                check_coeff: 0.0,
                match_coeff: 0.0,
            },
            threads: 1,
            ..RunConfig::default()
        }
    }

    #[test]
    fn finish_freezes_gauges_and_ledger_totals() {
        let mut ctx = RunCtx::new(2, RunConfig::default());
        ctx.phase("work", |p| {
            p.compute(SiteId(0), 0.25);
            p.control(SiteId(1), [SiteId(0)], 2);
            let mut t = p.transfer();
            t.send(SiteId(0), SiteId(1), 3, 1);
            t.commit();
        });
        let d = ctx.finish("test");
        assert_eq!(d.shipped_tuples, 3);
        assert_eq!(d.shipped_cells, 9);
        assert_eq!(d.shipped_bytes, 36);
        assert_eq!(d.control_messages, 1);
        assert_eq!(d.control_bytes, 16);
        let v = d.metrics.value("dcd_run_response_seconds", "").expect("gauge present");
        assert_eq!(*v, dcd_obs::SampleValue::GaugeBits(d.response_time.to_bits()));
    }

    #[test]
    fn a_round_costs_its_own_compute_and_shipment_only() {
        let mut ctx = RunCtx::new(2, unit_cfg());
        // Pre-round work moves the clocks but enters no formula.
        ctx.phase("gather", |p| p.compute(SiteId(0), 5.0));
        ctx.begin_round();
        ctx.phase("scan", |p| {
            p.compute(SiteId(0), 1.0);
            p.advance(SiteId(1), 7.0); // not local compute
        });
        ctx.phase("ship", |p| {
            let mut t = p.transfer();
            t.send(SiteId(0), SiteId(1), 2, 2);
            t.commit();
        });
        assert_eq!(ctx.end_round(), 2.0 + 1.0, "max ship (2 rows at 1/s) + max local");
        ctx.begin_round();
        assert_eq!(ctx.end_round(), 0.0, "a new round starts from zero");
        let d = ctx.finish("test");
        assert_eq!(d.paper_cost, 3.0);
        assert_eq!(d.site_clocks, [9.0, 9.0]);
    }

    /// The statistics exchange is not free: each participant pays
    /// [`control_time`](dcd_dist::CostModel::control_time) for its
    /// outgoing control packets *before* the barrier, so control traffic
    /// shows up in response time.
    #[test]
    fn control_packets_cost_time_before_the_barrier() {
        let mut cfg = unit_cfg();
        cfg.cost.transfer_rate = 10.0;
        let sites = [SiteId(0), SiteId(1), SiteId(2)];
        let mut ctx = RunCtx::new(3, cfg);
        ctx.phase("scan", |p| {
            p.advance(SiteId(0), 1.0);
            p.advance(SiteId(1), 4.0);
            p.advance(SiteId(2), 2.5);
        });
        ctx.phase("exchange", |p| {
            // Each sends 2 control packets (0.1 s each), then all meet.
            for &i in &sites {
                p.control(i, sites.iter().copied().filter(|&j| j != i), 1);
            }
            p.barrier(&sites);
        });
        let d = ctx.finish("test");
        // The slowest participant (site 1, at 4.0) also paid for its own
        // packets, so the barrier lands at 4.2 — not 4.0.
        assert_eq!(d.site_clocks, [4.2; 3]);
        assert_eq!(d.control_messages, 6);
    }

    /// A delta ships as two sends from one site to one receiver —
    /// inserts at the schema's arity, deletes at width 0 (the id alone).
    /// The ledger adds them; the clocks see one sender and pay one
    /// `send_time` over the rows together: 8 rows at 2 a packet are 4
    /// packets, where two sends paid apart would be 3 + 2.
    #[test]
    fn a_delta_ships_inserts_and_deletes_as_one_senders_rows() {
        let (k, a, d) = (5, 3, 3);
        let mut cfg = unit_cfg();
        cfg.cost.packet_tuples = 2.0;
        let mut ctx = RunCtx::new(2, cfg);
        ctx.begin_round();
        ctx.phase("ship", |p| {
            let mut t = p.transfer();
            t.send(SiteId(0), SiteId(1), k, a);
            t.send(SiteId(0), SiteId(1), d, 0);
            t.commit();
        });
        assert_eq!(ctx.end_round(), 4.0, "one sender's k + d rows, one packet a second");
        let out = ctx.finish("test");
        assert_eq!(out.shipped_tuples, k + d);
        assert_eq!(out.shipped_cells, k * (a + 2) + 2 * d);
        assert_eq!(out.shipped_bytes, 4 * out.shipped_cells);
        assert_eq!(out.site_clocks, [4.0; 2], "the receiver waited once, for one sender");
    }

    #[test]
    #[should_panic(expected = "begin_round inside an open round")]
    fn a_round_cannot_be_opened_over_an_open_one() {
        let mut ctx = RunCtx::new(2, unit_cfg());
        ctx.begin_round();
        ctx.begin_round();
    }

    #[test]
    fn spans_cover_exactly_the_sites_a_phase_moved() {
        let mut ctx = RunCtx::new(3, unit_cfg());
        ctx.phase("a", |p| p.advance(SiteId(1), 2.0));
        ctx.phase("idle", |_| ());
        ctx.phase("b", |p| p.barrier(&[SiteId(0), SiteId(1)]));
        let spans = ctx.finish("test").trace.spans;
        let got: Vec<_> = spans.iter().map(|s| (s.name.as_str(), s.site, s.start, s.end)).collect();
        assert_eq!(got, [("a", 1, 0.0, 2.0), ("b", 0, 0.0, 2.0)]);
    }
}

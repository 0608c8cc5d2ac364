//! The code-native detection façade: one request object over every
//! topology.
//!
//! Beneath it the engines keep their own signatures — `run_batch`,
//! `run_seq` / `run_clust`, `run_hybrid`, `run_replicated`,
//! `run_vertical`, and the two incremental runs — because what they need
//! differs: a strategy, a ship mode, a mining configuration. A caller
//! should not have to know which of them its data calls for, so this
//! module is the single front door, the shape a production service
//! exposes (measure-style front doors hiding the placement behind one
//! request object are standard in the inconsistency-measurement
//! literature — Livshits et al., *Properties of Inconsistency Measures
//! for Databases*; Parisi & Grant, *Inconsistency Measures for
//! Relational Databases*):
//!
//! * [`Topology`] names where the data lives: horizontal, vertical,
//!   hybrid or replicated partitions;
//! * [`Algorithm`] names how to detect: the paper's three single-CFD
//!   algorithms plus `SEQDETECT` and `CLUSTDETECT`;
//! * [`DetectRequest`] couples the two with the rules Σ and a
//!   [`RunConfig`]; [`DetectRequest::plan`] checks it once and returns
//!   a [`Plan`], the only thing that runs: [`Plan::run`] returns the
//!   same [`Detection`] every engine produces, and [`Plan::session`]
//!   opens an [`IncrementalSession`] that maintains the result under
//!   delta batches instead of re-running.
//!
//! Every engine beneath the façade ships dictionary codes, never value
//! payloads: the ledger charges every shipped `(tid, codes)` row at 4
//! bytes/cell ([`dcd_dist::CODE_BYTES`]), and cluster-round and vertical
//! coordinators read those rows where the fragments hold them;
//! incremental sessions ship delta code rows the same way. The engines remain public for
//! direct use, and `tests/prop_facade.rs` pins the façade bit-identical
//! to them.
//!
//! ```
//! use distributed_cfd::prelude::*;
//!
//! let schema = Schema::builder("r")
//!     .attr("cc", ValueType::Int)
//!     .attr("zip", ValueType::Str)
//!     .attr("street", ValueType::Str)
//!     .build()?;
//! let rel = Relation::from_rows(schema.clone(), vec![
//!     vals![44, "z1", "a"],
//!     vals![44, "z1", "b"],
//!     vals![31, "z2", "c"],
//! ])?;
//! let cfd = parse_cfd(&schema, "phi", "([cc, zip] -> [street])")?;
//! let partition = HorizontalPartition::round_robin(&rel, 3)?;
//!
//! let plan = DetectRequest::over(partition)
//!     .cfd(cfd)
//!     .algorithm(Algorithm::PatDetectS)
//!     .plan()?;
//! let detection = plan.run();
//! assert_eq!(detection.violations.all_tids().len(), 2);
//! println!("{detection}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use dcd_cfd::{Cfd, SimpleCfd, ViolationReport};
use dcd_core::runner::run_batch;
use dcd_core::{
    run_clust, run_hybrid, run_replicated, run_seq, CoordinatorStrategy, Detection, MiningConfig,
    RunConfig,
};
use dcd_dist::{
    HorizontalPartition, HybridPartition, ReplicatedPartition, SiteId, VerticalPartition,
};
use dcd_incr::{DeltaBatch, IncrementalRun, VerticalIncrementalRun};
use dcd_relation::{Relation, RelationError, Schema};
use dcd_vertical::run_vertical;

/// Where the data lives: one of the four fragmentation schemes the
/// workspace detects over. Each variant owns its partition — a request
/// is a self-contained unit of work, the shape a service queue wants.
#[derive(Debug, Clone)]
pub enum Topology {
    /// Horizontal fragments `Di = σ_Fi(D)` across sites (§II-B).
    Horizontal(HorizontalPartition),
    /// Vertical fragments `Di = π_{key ∪ Xi}(D)` (§II-B, §V).
    Vertical(VerticalPartition),
    /// Horizontal cells, each split vertically (§II-B; §VIII).
    Hybrid(HybridPartition),
    /// Horizontal fragments replicated by chained declustering (§VIII).
    Replicated(ReplicatedPartition),
}

impl Topology {
    /// The schema of the (unfragmented) relation the topology holds.
    fn schema(&self) -> &Schema {
        match self {
            Topology::Horizontal(p) => p.schema(),
            Topology::Vertical(p) => p.schema(),
            Topology::Hybrid(p) => p.schema(),
            Topology::Replicated(p) => p.base().schema(),
        }
    }
}

impl From<HorizontalPartition> for Topology {
    fn from(p: HorizontalPartition) -> Self {
        Topology::Horizontal(p)
    }
}
impl From<VerticalPartition> for Topology {
    fn from(p: VerticalPartition) -> Self {
        Topology::Vertical(p)
    }
}
impl From<HybridPartition> for Topology {
    fn from(p: HybridPartition) -> Self {
        Topology::Hybrid(p)
    }
}
impl From<ReplicatedPartition> for Topology {
    fn from(p: ReplicatedPartition) -> Self {
        Topology::Replicated(p)
    }
}

/// How to detect: the paper's single-CFD algorithms (§IV-B) and the
/// multi-CFD ones (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// `CTRDETECT`: one coordinator for the whole CFD.
    CtrDetect,
    /// `PATDETECTS`: per-pattern coordinators minimizing shipment.
    PatDetectS,
    /// `PATDETECTRT`: per-pattern coordinators minimizing the §III-B
    /// response-time estimate.
    PatDetectRT,
    /// `SEQDETECT`: pipelined one-CFD-at-a-time processing, each round
    /// run with the given single-CFD strategy.
    SeqDetect(CoordinatorStrategy),
    /// `CLUSTDETECT`: CFDs clustered by LHS containment, one shipment
    /// per tuple per cluster, rounds run with the given strategy.
    ClustDetect(CoordinatorStrategy),
}

impl Algorithm {
    /// `SEQDETECT` with its default inner strategy (`PATDETECTRT`, the
    /// paper's best general choice).
    pub fn seq_detect() -> Self {
        Algorithm::SeqDetect(CoordinatorStrategy::MinResponseTime)
    }

    /// `CLUSTDETECT` with its default inner strategy (`PATDETECTRT`).
    pub fn clust_detect() -> Self {
        Algorithm::ClustDetect(CoordinatorStrategy::MinResponseTime)
    }

    /// The coordinator strategy driving this algorithm's rounds.
    pub fn strategy(self) -> CoordinatorStrategy {
        match self {
            Algorithm::CtrDetect => CoordinatorStrategy::Central,
            Algorithm::PatDetectS => CoordinatorStrategy::MinShipment,
            Algorithm::PatDetectRT => CoordinatorStrategy::MinResponseTime,
            Algorithm::SeqDetect(inner) | Algorithm::ClustDetect(inner) => inner,
        }
    }
}

impl Default for Algorithm {
    /// `PATDETECTS` — the paper's shipment-minimizing default.
    fn default() -> Self {
        Algorithm::PatDetectS
    }
}

/// One detection request: a [`Topology`], the rules Σ, an
/// [`Algorithm`] and a [`RunConfig`] — everything a run needs, checked
/// once by [`Self::plan`].
///
/// Built builder-style; see the [module docs](self) for an example.
/// With several CFDs and a single-CFD algorithm, the CFDs are
/// processed as sequential rounds over one shared ledger and clock set
/// (exactly how `SEQDETECT` pipelines); on replicated topologies the
/// replica-aware `REPDETECT` coordinator rule applies regardless of the
/// algorithm's strategy.
#[derive(Debug, Clone)]
pub struct DetectRequest {
    topology: Topology,
    cfds: Vec<Cfd>,
    algorithm: Algorithm,
    config: RunConfig,
}

impl DetectRequest {
    /// Starts a request over a topology (any partition converts via
    /// [`From`]).
    pub fn over(topology: impl Into<Topology>) -> Self {
        DetectRequest {
            topology: topology.into(),
            cfds: Vec::new(),
            algorithm: Algorithm::default(),
            config: RunConfig::default(),
        }
    }

    /// Adds one CFD to Σ.
    pub fn cfd(mut self, cfd: Cfd) -> Self {
        self.cfds.push(cfd);
        self
    }

    /// Adds every CFD of an iterator to Σ.
    pub fn cfds(mut self, cfds: impl IntoIterator<Item = Cfd>) -> Self {
        self.cfds.extend(cfds);
        self
    }

    /// Selects the detection algorithm (default: `PATDETECTS`).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the run configuration (cost model, compute mode, pool
    /// width).
    pub fn config(mut self, config: RunConfig) -> Self {
        self.config = config;
        self
    }

    /// Checks the request once and returns the [`Plan`] that runs it:
    /// the cost model must be able to drive the clocks
    /// ([`CostModel::check`](dcd_dist::CostModel::check)), a horizontal
    /// partition must pass [`HorizontalPartition::validate`], and every
    /// CFD must be defined over the topology's schema
    /// ([`Cfd::check_schema`]). Σ is simplified here too, into the
    /// single-RHS CFDs `φ = R(X → A, Tp)` the single-CFD algorithms take.
    ///
    /// A horizontal partition is the one topology whose fragments can
    /// change unchecked after construction
    /// ([`HorizontalPartition::fragments_mut`], which no session calls: a
    /// session's batches go through [`HorizontalPartition::apply_delta`],
    /// which keeps what `validate` checks); the other three were checked
    /// where they were built and are read-only since.
    ///
    /// A cost model with a non-finite, negative or zero-rate field is
    /// rejected with [`RelationError::InvalidCostModel`]; a partition
    /// with a repeated tuple id or a tuple outside its fragment's
    /// predicate with [`RelationError::InvalidPartition`]; a fragment on
    /// dictionaries of its own, and a CFD defined over a schema other
    /// than the topology's, with [`RelationError::SchemaMismatch`].
    pub fn plan(self) -> Result<Plan, RelationError> {
        self.config.cost.check()?;
        if let Topology::Horizontal(p) = &self.topology {
            p.validate()?;
        }
        let schema = self.topology.schema();
        self.cfds.iter().try_for_each(|cfd| cfd.check_schema(schema))?;
        let simples = self.cfds.iter().flat_map(Cfd::simplify).collect();
        let DetectRequest { topology, cfds, algorithm, config } = self;
        Ok(Plan { topology, cfds, simples, algorithm, config })
    }
}

/// A checked [`DetectRequest`]: what [`DetectRequest::plan`] returns
/// once the request passed its checks, and the only thing that runs.
///
/// Its fields are private, so no `Plan` exists that skipped the checks:
///
/// ```compile_fail,E0451
/// use distributed_cfd::prelude::*;
///
/// # let partition: HorizontalPartition = unimplemented!();
/// let plan = Plan {
///     topology: Topology::Horizontal(partition),
///     cfds: Vec::new(),
///     simples: Vec::new(),
///     algorithm: Algorithm::PatDetectS,
///     config: RunConfig::default(),
/// };
/// ```
#[derive(Debug, Clone)]
pub struct Plan {
    topology: Topology,
    cfds: Vec<Cfd>,
    /// Σ simplified: the horizontal single-CFD algorithms' input.
    simples: Vec<SimpleCfd>,
    algorithm: Algorithm,
    config: RunConfig,
}

impl Plan {
    /// Runs the batch detection and returns the [`Detection`] — same
    /// violations, traffic and timing every engine reports, whatever
    /// the topology. `run` borrows the plan, so one plan runs any
    /// number of times, and every run answers the same.
    ///
    /// How much of the [`Algorithm`] each topology honours:
    ///
    /// * **Horizontal** — fully (all five algorithms);
    /// * **Hybrid** — the algorithm's coordinator *strategy* drives
    ///   the per-CFD horizontal rounds across cells;
    ///   `SeqDetect(inner)` / `ClustDetect(inner)` reduce to
    ///   sequential rounds with `inner` (no cross-CFD clustering);
    /// * **Replicated** — the replica-aware `REPDETECT` coordinator
    ///   rule applies regardless of the algorithm;
    /// * **Vertical** — placement is fixed by column coverage and
    ///   every fragment filters on its pattern constants before it
    ///   ships; the algorithm is ignored.
    pub fn run(&self) -> Detection {
        let cfg = &self.config;
        match &self.topology {
            Topology::Horizontal(p) => match self.algorithm {
                Algorithm::SeqDetect(inner) => run_seq(p, &self.cfds, inner, cfg),
                Algorithm::ClustDetect(inner) => run_clust(p, &self.cfds, inner, cfg),
                single
                @ (Algorithm::CtrDetect | Algorithm::PatDetectS | Algorithm::PatDetectRT) => {
                    run_batch(p, &self.simples, single.strategy(), cfg)
                }
            },
            Topology::Vertical(p) => run_vertical(p, &self.cfds, cfg),
            Topology::Hybrid(p) => run_hybrid(p, &self.cfds, self.algorithm.strategy(), cfg),
            Topology::Replicated(p) => run_replicated(p, &self.cfds, cfg),
        }
    }

    /// Opens an incremental session instead of running once: the
    /// initial index build ships code rows to a coordinator, after
    /// which [`IncrementalSession::apply_batch`] maintains the
    /// violation report per delta batch at a fraction of a re-run's
    /// cost. Supported over horizontal, replicated and vertical
    /// topologies; a hybrid topology returns an error (its gather
    /// recomputes per round — plan a batch request over the changed
    /// partition instead).
    ///
    /// The session consumes the plan: it owns the partition, which
    /// mutates as batches apply.
    pub fn session(self) -> Result<IncrementalSession, RelationError> {
        let (cfds, cfg) = (&self.cfds, self.config);
        match self.topology {
            Topology::Horizontal(p) => {
                Ok(IncrementalSession::Horizontal(IncrementalRun::new(p, cfds, cfg)?))
            }
            Topology::Replicated(p) => {
                Ok(IncrementalSession::Horizontal(IncrementalRun::new_replicated(&p, cfds, cfg)?))
            }
            Topology::Vertical(p) => {
                Ok(IncrementalSession::Vertical(VerticalIncrementalRun::new(p, cfds, cfg)?))
            }
            Topology::Hybrid(_) => Err(RelationError::InvalidPartition {
                detail: "incremental sessions are not supported over hybrid topologies; \
                         plan a batch request over the changed partition instead"
                    .into(),
            }),
        }
    }
}

/// A stateful detection session opened by [`Plan::session`]:
/// the topology-appropriate incremental run behind one interface.
#[derive(Debug)]
pub enum IncrementalSession {
    /// A horizontal (or chained-declustering replicated) delta
    /// protocol run.
    Horizontal(IncrementalRun),
    /// A vertical (whole-tuple feed) delta protocol run.
    Vertical(VerticalIncrementalRun),
}

impl IncrementalSession {
    /// Applies one delta batch and returns the resulting report
    /// revision. Vertical sessions consume the batch as one site-order
    /// whole-tuple feed ([`DeltaBatch::flatten`]).
    pub fn apply_batch(&mut self, batch: &DeltaBatch) -> Result<ViolationReport, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => Ok(run.apply_batch(batch)?.report),
            IncrementalSession::Vertical(run) => Ok(run.apply_batch(&batch.flatten())?.report),
        }
    }

    /// The current report revision (maintained, not recomputed).
    pub fn report(&self) -> ViolationReport {
        match self {
            IncrementalSession::Horizontal(run) => run.report(),
            IncrementalSession::Vertical(run) => run.report(),
        }
    }

    /// A [`Detection`] snapshot of the whole session so far: the live
    /// report plus the accumulated traffic, clocks and paper cost.
    pub fn detection(&self) -> Detection {
        match self {
            IncrementalSession::Horizontal(run) => run.detection(),
            IncrementalSession::Vertical(run) => run.detection(),
        }
    }

    /// The coordinator site holding the violation indices.
    pub fn coordinator(&self) -> SiteId {
        match self {
            IncrementalSession::Horizontal(run) => run.coordinator(),
            IncrementalSession::Vertical(run) => run.coordinator(),
        }
    }

    /// Reassembles the materialized relation (for comparison against
    /// centralized detection).
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => run.materialize(),
            IncrementalSession::Vertical(run) => run.materialize(),
        }
    }

    /// Registers a compiled CFD for incremental mined-tableau
    /// maintenance (§IV-B refinement kept current under deltas): the
    /// per-site support counts are built once from the current
    /// fragments, then every [`Self::apply_batch`] adjusts them from
    /// the batch's affected code rows — `rows × masks` key updates
    /// instead of a full re-mine. Returns a handle for
    /// [`Self::mined_cfd`]. Horizontal (and replicated) sessions only;
    /// vertical sessions return an error (mining walks LHS item sets
    /// over horizontal fragments), and so does a CFD defined over another
    /// schema than the session's (`SchemaMismatch`).
    pub fn track_mining(
        &mut self,
        cfd: &SimpleCfd,
        config: &MiningConfig,
    ) -> Result<usize, RelationError> {
        match self {
            IncrementalSession::Horizontal(run) => run.track_mining(cfd, config),
            IncrementalSession::Vertical(_) => Err(RelationError::InvalidPartition {
                detail: "mined-tableau maintenance needs horizontal fragments; \
                         vertical sessions do not support track_mining"
                    .into(),
            }),
        }
    }

    /// The refined CFD derived from a tracked miner's maintained
    /// counts — bit-identical to re-mining the materialized fragments —
    /// plus the number of mined patterns. `None` for an id no
    /// [`Self::track_mining`] call returned, so always on a vertical
    /// session.
    pub fn mined_cfd(&self, id: usize) -> Option<(SimpleCfd, usize)> {
        match self {
            IncrementalSession::Horizontal(run) => run.mined_cfd(id),
            IncrementalSession::Vertical(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcd_cfd::parse_cfd;
    use dcd_relation::{vals, Schema, ValueType};
    use std::sync::Arc;

    fn schema() -> Arc<dcd_relation::Schema> {
        Schema::builder("r")
            .attr("id", ValueType::Int)
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .key(&["id"])
            .build()
            .unwrap()
    }

    fn sample(n: usize) -> Relation {
        Relation::from_rows(
            schema(),
            (0..n)
                .map(|i| {
                    vals![
                        i,
                        if i % 3 == 0 { 44 } else { 31 },
                        format!("z{}", i % 5),
                        format!("s{}", i % 4)
                    ]
                })
                .collect(),
        )
        .unwrap()
    }

    /// `rel` under each of the four topologies, in `Topology` order.
    fn every_topology(rel: &Relation) -> Vec<Topology> {
        let horizontal = HorizontalPartition::round_robin(rel, 4).unwrap();
        vec![
            horizontal.clone().into(),
            VerticalPartition::by_attribute_groups(rel, &[&["cc", "zip"], &["street"]])
                .unwrap()
                .into(),
            HybridPartition::new(&horizontal, &[&["cc", "zip"], &["street"]]).unwrap().into(),
            ReplicatedPartition::chained(horizontal, 2).unwrap().into(),
        ]
    }

    #[test]
    fn one_request_shape_over_every_topology() {
        let rel = sample(60);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let global = dcd_cfd::detect(&rel, &cfd);
        assert!(!global.is_empty());
        for topology in every_topology(&rel) {
            let label = format!("{topology:?}");
            let d = DetectRequest::over(topology).cfd(cfd.clone()).plan().unwrap().run();
            assert_eq!(d.violations.all_tids(), global.tids(), "{}", &label[..30.min(label.len())]);
        }
    }

    #[test]
    fn algorithms_map_to_their_strategies_and_labels() {
        let rel = sample(40);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
        for (alg, label) in [
            (Algorithm::CtrDetect, "CTRDETECT"),
            (Algorithm::PatDetectS, "PATDETECTS"),
            (Algorithm::PatDetectRT, "PATDETECTRT"),
            (Algorithm::seq_detect(), "SEQDETECT"),
            (Algorithm::clust_detect(), "CLUSTDETECT"),
        ] {
            let d = DetectRequest::over(partition.clone())
                .cfd(cfd.clone())
                .algorithm(alg)
                .plan()
                .unwrap()
                .run();
            assert_eq!(d.algorithm, label);
        }
    }

    #[test]
    fn session_maintains_report_under_deltas() {
        use dcd_relation::{RelationDelta, Tuple, TupleId};
        let rel = sample(20);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let partition = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let plan = DetectRequest::over(partition).cfd(cfd.clone()).plan().unwrap();
        let mut session = plan.session().expect("session opens");
        // Insert a fresh conflict at site 0.
        let batch = DeltaBatch::new(vec![
            RelationDelta::new(vec![Tuple::new(TupleId(100), vals![100, 44, "z0", "sX"])], vec![]),
            RelationDelta::default(),
        ]);
        session.apply_batch(&batch).unwrap();
        let rel_now = session.materialize().unwrap();
        let global = dcd_cfd::detect(&rel_now, &cfd);
        assert_eq!(session.report().all_tids(), global.tids());
        assert_eq!(session.detection().algorithm, dcd_incr::ALGORITHM);
    }

    /// `run` borrows the plan, so one plan runs any number of times,
    /// and every run answers the same.
    #[test]
    fn a_request_runs_twice_to_the_same_detection() {
        let rel = sample(40);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let other = parse_cfd(rel.schema(), "psi", "([cc] -> [zip])").unwrap();
        for topology in every_topology(&rel) {
            let label = format!("{topology:?}");
            let plan = DetectRequest::over(topology)
                .cfds([cfd.clone(), other.clone()])
                .algorithm(Algorithm::clust_detect())
                .plan()
                .unwrap();
            let first = plan.run();
            assert_eq!(first, plan.run(), "{}", &label[..30.min(label.len())]);
        }
    }

    /// A batch that one site rejects leaves either session kind as it was
    /// — fragments, report, clocks, ledger, metrics and trace — and the
    /// next batch applies as if it had never been sent. The horizontal
    /// batch carries a valid insert at site 0 beside a delete of an id
    /// site 1 never held; the vertical one an insert that is well typed in
    /// the `cc, zip` fragment and ill-typed in the `street` one.
    #[test]
    fn a_rejected_batch_leaves_either_session_as_it_was() {
        use dcd_relation::{RelationDelta, Tuple, TupleId, Value};
        let rel = sample(20);
        let sigma = [parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap()];
        let insert = |tid: u64, street: Value| {
            let id = Value::Int(tid as i64);
            Tuple::new(TupleId(tid), vec![id, Value::Int(44), Value::str("z0"), street])
        };
        let at_site_0 = |t: Tuple| {
            DeltaBatch::new(vec![RelationDelta::new(vec![t], vec![]), RelationDelta::default()])
        };
        let horizontal = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["cc", "zip"], &["street"]]).unwrap();
        let unknown_delete = DeltaBatch::new(vec![
            RelationDelta::new(vec![insert(100, Value::str("sX"))], vec![]),
            RelationDelta::new(vec![], vec![TupleId(999)]),
        ]);
        let ill_typed_street = at_site_0(insert(100, Value::Int(7)));
        let cases: [(&str, Topology, DeltaBatch); 2] = [
            ("horizontal", horizontal.into(), unknown_delete),
            ("vertical", vertical.into(), ill_typed_street),
        ];
        for (label, topology, rejected) in cases {
            let plan = DetectRequest::over(topology).cfds(sigma.clone()).plan().unwrap();
            let mut session = plan.session().unwrap();
            let tuples =
                |s: &IncrementalSession| s.materialize().unwrap().iter().collect::<Vec<_>>();
            let (detection, report, rows) =
                (session.detection(), session.report(), tuples(&session));
            assert!(session.apply_batch(&rejected).is_err(), "{label}: the batch is refused");
            assert_eq!(detection, session.detection(), "{label}: detection");
            assert_eq!(report, session.report(), "{label}: report");
            assert_eq!(rows, tuples(&session), "{label}: fragments");

            session.apply_batch(&at_site_0(insert(101, Value::str("sY")))).unwrap();
            let whole = session.materialize().unwrap();
            assert_eq!(whole.len(), rel.len() + 1, "{label}");
            let want = dcd_cfd::detect_set(&whole, &sigma);
            assert!(!want.all_tids().is_empty(), "{label}: the insert conflicts");
            assert_eq!(session.report(), want, "{label}: next batch");
        }
    }

    /// A session's partition keeps its fragment predicates: an insert at
    /// a site whose `Fi` it fails is refused, naming the tuple and the
    /// site, with every fragment and the whole `Detection` as they were,
    /// through the run and through `Plan::session()`. It used to be
    /// applied: the partition then failed `validate`, and `run_batch` over
    /// it answered ∅ where the materialized relation holds `Vio` = {t0, t9}.
    #[test]
    fn a_session_insert_outside_its_predicate_is_refused() {
        use dcd_relation::{Atom, Predicate, RelationDelta, Tuple, TupleId};
        let rel = sample(9);
        let cc = rel.schema().require("cc").unwrap();
        let predicates = [44, 31].map(|v| Predicate::atom(Atom::eq(cc, v))).to_vec();
        let partition = HorizontalPartition::by_predicates(&rel, predicates).unwrap();
        let sigma = [parse_cfd(rel.schema(), "phi", "([cc=44, zip] -> [street])").unwrap()];
        let t9 = Tuple::new(TupleId(9), vals![9, 44, "z0", "X"]);
        let batch =
            DeltaBatch::new(vec![RelationDelta::default(), RelationDelta::new(vec![t9], vec![])]);
        let refused = RelationError::InvalidPartition {
            detail: "tuple t9 violates its fragment predicate at S2".into(),
        };

        let mut run = IncrementalRun::new(partition.clone(), &sigma, RunConfig::default()).unwrap();
        let rows = |run: &IncrementalRun| {
            run.partition()
                .fragments()
                .iter()
                .map(|f| f.data.iter().collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let (detection, fragments) = (run.detection(), rows(&run));
        assert_eq!(run.apply_batch(&batch).unwrap_err(), refused);
        assert_eq!(run.detection(), detection);
        assert_eq!(rows(&run), fragments);
        run.partition().validate().unwrap();

        let plan = DetectRequest::over(partition).cfds(sigma).plan().unwrap();
        let mut session = plan.session().unwrap();
        let detection = session.detection();
        assert_eq!(session.apply_batch(&batch).unwrap_err(), refused);
        assert_eq!(session.detection(), detection);
    }

    /// An empty batch is one rule on either session kind: a round in which
    /// no site is charged. The metrics count it (its lag histogram gains
    /// an observation); the report, ledger, clocks and trace are as they
    /// were.
    #[test]
    fn an_empty_batch_changes_nothing_on_either_session_kind() {
        let rel = sample(20);
        let sigma = [parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap()];
        let horizontal = HorizontalPartition::round_robin(&rel, 2).unwrap();
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["cc", "zip"], &["street"]]).unwrap();
        let topologies: [Topology; 2] = [horizontal.into(), vertical.into()];
        for topology in topologies {
            let plan = DetectRequest::over(topology).cfds(sigma.clone()).plan().unwrap();
            let mut session = plan.session().unwrap();
            let before = session.detection();
            let report =
                session.apply_batch(&DeltaBatch::new(vec![Default::default(); 2])).unwrap();
            let after = session.detection();
            assert_eq!(report, before.violations);
            assert!(after.metrics.expose().contains("dcd_incr_delta_lag_micros_count 1\n"));
            assert_eq!(before, Detection { metrics: before.metrics.clone(), ..after });
        }
    }

    /// A CFD's attribute lists are positions into *its* schema. Over a
    /// same-arity schema with the columns permuted they used to name
    /// the wrong columns (`Ok`, 0 violations where the right CFD finds
    /// some); over a wider one they used to index out of bounds. Every
    /// front door now answers `SchemaMismatch`, naming the CFD: `plan()`
    /// over every topology, so neither a run nor a session starts.
    #[test]
    fn foreign_schema_cfds_are_rejected_at_every_front_door() {
        let rel = sample(24);
        let rejected = |r: Result<(), RelationError>| matches!(r, Err(RelationError::SchemaMismatch { detail }) if detail.contains("`phi`"));
        let permuted = Schema::builder("r")
            .attr("id", ValueType::Int)
            .attr("street", ValueType::Str)
            .attr("zip", ValueType::Str)
            .attr("cc", ValueType::Int)
            .key(&["id"]);
        let wider = Schema::builder("r")
            .attr("pad0", ValueType::Int)
            .attr("pad1", ValueType::Int)
            .attr("pad2", ValueType::Int)
            .attr("id", ValueType::Int)
            .attr("cc", ValueType::Int)
            .attr("zip", ValueType::Str)
            .attr("street", ValueType::Str)
            .key(&["id"]);
        for other in [permuted.build().unwrap(), wider.build().unwrap()] {
            let cfd = parse_cfd(&other, "phi", "([cc, zip] -> [street])").unwrap();
            for topology in every_topology(&rel) {
                let label = format!("{topology:?}");
                let label = &label[..30.min(label.len())];
                let request = DetectRequest::over(topology).cfd(cfd.clone());
                assert!(rejected(request.plan().map(drop)), "plan over {label}");
            }
            // So is mined-tableau tracking on an open session.
            let horizontal = HorizontalPartition::round_robin(&rel, 3).unwrap();
            let own = parse_cfd(rel.schema(), "own", "([cc, zip] -> [street])").unwrap();
            let plan = DetectRequest::over(horizontal.clone()).cfd(own).plan().unwrap();
            let mut session = plan.session().unwrap();
            let foreign = &cfd.simplify()[0];
            assert!(rejected(session.track_mining(foreign, &MiningConfig::default()).map(drop)));
            // The session constructors are public front doors too.
            let sigma = [cfd];
            let cfg = RunConfig::default();
            let replicated = ReplicatedPartition::chained(horizontal.clone(), 2).unwrap();
            let vertical =
                VerticalPartition::by_attribute_groups(&rel, &[&["cc", "zip"], &["street"]])
                    .unwrap();
            assert!(rejected(IncrementalRun::new(horizontal, &sigma, cfg).map(drop)));
            assert!(rejected(IncrementalRun::new_replicated(&replicated, &sigma, cfg).map(drop)));
            assert!(rejected(VerticalIncrementalRun::new(vertical, &sigma, cfg).map(drop)));
        }
    }

    /// A miner id no `track_mining` call returned names no tableau: it
    /// used to index out of bounds (horizontal) or hit `unreachable!`
    /// (vertical).
    #[test]
    fn an_unknown_miner_id_is_none_on_both_session_kinds() {
        let rel = sample(24);
        let cfd = parse_cfd(rel.schema(), "phi", "([cc, zip] -> [street])").unwrap();
        let horizontal = HorizontalPartition::round_robin(&rel, 3).unwrap();
        let vertical =
            VerticalPartition::by_attribute_groups(&rel, &[&["cc", "zip"], &["street"]]).unwrap();
        let plan = DetectRequest::over(horizontal).cfd(cfd.clone()).plan().unwrap();
        let mut session = plan.session().unwrap();
        assert!(session.mined_cfd(0).is_none());
        let id = session.track_mining(&cfd.simplify()[0], &MiningConfig::default()).unwrap();
        assert!(session.mined_cfd(id).is_some());
        assert!(session.mined_cfd(id + 1).is_none());
        let vertical = DetectRequest::over(vertical).cfd(cfd).plan().unwrap().session().unwrap();
        assert!(vertical.mined_cfd(0).is_none());
    }

    /// A hybrid request plans, and its plan refuses to open a session.
    #[test]
    fn hybrid_sessions_are_rejected() -> Result<(), RelationError> {
        let rel = sample(12);
        let horizontal = HorizontalPartition::round_robin(&rel, 2)?;
        let hybrid = HybridPartition::new(&horizontal, &[&["cc", "zip"], &["street"]])?;
        let err = DetectRequest::over(hybrid).plan()?.session();
        assert!(matches!(err, Err(RelationError::InvalidPartition { .. })));
        Ok(())
    }
}

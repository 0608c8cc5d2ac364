//! Regeneration of every subfigure of the paper's evaluation (Fig. 3).
//!
//! Each function takes the dataset scale and returns a [`FigureResult`]
//! holding the same series the paper plots; the `experiments` binary
//! renders them as tables, and `tests/fig3_claims.rs` asserts the
//! paper's qualitative claim about each subfigure on the exact series.

use crate::workloads::{cust16, cust8, xref8, xref_h, CustWorkload};
use dcd_cfd::{Cfd, SimpleCfd};
use dcd_core::{
    mine_patterns, run_batch, run_clust, run_seq, CoordinatorStrategy, Detection, MiningConfig,
    RunConfig,
};
use dcd_dist::HorizontalPartition;

/// One plotted series: a label and (x, y) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (algorithm name).
    pub label: String,
    /// (x, y) points in x order.
    pub points: Vec<(f64, f64)>,
}

/// One regenerated subfigure.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Paper figure id, e.g. `fig3a`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: &'static str,
    /// Y-axis label.
    pub y_label: &'static str,
    /// The series.
    pub series: Vec<Series>,
}

impl FigureResult {
    /// Renders the figure as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{} — {}\n", self.id, self.title));
        out.push_str(&format!("{:<14}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("{:>16}", s.label));
        }
        out.push('\n');
        let n = self.series.first().map_or(0, |s| s.points.len());
        for i in 0..n {
            out.push_str(&format!("{:<14.2}", self.series[0].points[i].0));
            for s in &self.series {
                out.push_str(&format!("{:>16.3}", s.points[i].1));
            }
            out.push('\n');
        }
        out.push_str(&format!("  (y: {})\n", self.y_label));
        out
    }
}

fn cfg() -> RunConfig {
    RunConfig::default()
}

/// One single-CFD run through the engine (the figures sweep strategies
/// directly; [`SINGLE`] names each after its paper algorithm).
fn run_single(
    partition: &HorizontalPartition,
    cfd: &SimpleCfd,
    strategy: CoordinatorStrategy,
) -> Detection {
    run_batch(partition, std::slice::from_ref(cfd), strategy, &cfg())
}

/// The y axis of every figure but 3(e) and 3(f).
const RESPONSE: &str = "response time (s)";

/// The three single-CFD algorithms, one series each (Fig. 3(a)/(b)).
const SINGLE: [(&str, CoordinatorStrategy); 3] = [
    ("CTRDETECT", CoordinatorStrategy::Central),
    ("PATDETECTS", CoordinatorStrategy::MinShipment),
    ("PATDETECTRT", CoordinatorStrategy::MinResponseTime),
];

/// CTRDETECT against PATDETECTRT (Fig. 3(c)/(d)).
const CTR_VS_RT: [(&str, CoordinatorStrategy); 2] = [SINGLE[0], SINGLE[2]];

/// A multi-CFD engine: `run_seq` or `run_clust`.
type MultiEngine = fn(&HorizontalPartition, &[Cfd], CoordinatorStrategy, &RunConfig) -> Detection;

/// SEQDETECT against CLUSTDETECT, both with PATDETECTRT rounds
/// (Fig. 3(f)–(i)).
const MULTI: [(&str, MultiEngine); 2] = [("SEQDETECT", run_seq), ("CLUSTDETECT", run_clust)];

/// Runs every engine at every x of a sweep, in x order: `xs` yields
/// each x value with the input built for it, and `run` reads one metric
/// off one engine's run on that input. One series per engine, labelled
/// and ordered as in `engines`.
fn sweep<In, E: Copy>(
    (id, title): (&'static str, &str),
    (x_label, y_label): (&'static str, &'static str),
    xs: impl Iterator<Item = (f64, In)>,
    engines: &[(&str, E)],
    run: impl Fn(&In, E) -> f64,
) -> FigureResult {
    let mut series: Vec<Series> = engines
        .iter()
        .map(|&(label, _)| Series { label: label.into(), points: Vec::new() })
        .collect();
    for (x, input) in xs {
        for (s, &(_, engine)) in series.iter_mut().zip(engines) {
            s.points.push((x, run(&input, engine)));
        }
    }
    FigureResult { id, title: title.into(), x_label, y_label, series }
}

/// 2..=8 sites, each x its partition of the workload.
fn sites<'a>(
    partition: impl Fn(usize) -> HorizontalPartition + 'a,
) -> impl Iterator<Item = (f64, HorizontalPartition)> + 'a {
    (2..=8).map(move |n| (n as f64, partition(n)))
}

/// 10 %..100 % prefixes of `w` over 8 sites, each x its size in K
/// tuples.
fn prefixes(w: &CustWorkload) -> impl Iterator<Item = (f64, HorizontalPartition)> + '_ {
    (1..=10).map(|step| {
        let prefix = w.prefix(step as f64 / 10.0);
        let partition = HorizontalPartition::round_robin(&prefix, 8).expect("round robin");
        ((prefix.len() as f64) / 1000.0, partition)
    })
}

/// Exp-1 on CUST (Fig. 3(a)): response time vs number of sites, three
/// single-CFD algorithms, cust8, |Tp| = 255.
pub fn fig3a(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let cfd = w.main_cfd();
    let title = ("fig3a", "Scalability with |S| (cust8)");
    sweep(title, ("sites", RESPONSE), sites(|n| w.partition(n)), &SINGLE, |p, s| {
        run_single(p, &cfd, s).response_time
    })
}

/// Exp-1 on XREF (Fig. 3(b)): xref8, |Tp| = 11.
pub fn fig3b(scale: f64) -> FigureResult {
    let w = xref8(scale);
    let cfd = w.main_cfd();
    let title = ("fig3b", "Scalability with |S| (xref8)");
    sweep(title, ("sites", RESPONSE), sites(|n| w.partition(n)), &SINGLE, |p, s| {
        run_single(p, &cfd, s).response_time
    })
}

/// Exp-2 (Fig. 3(c)): response time vs |D| — 10%..100% of cust16 over 8
/// sites; CTRDETECT vs PATDETECTRT.
pub fn fig3c(scale: f64) -> FigureResult {
    let w = cust16(scale);
    let cfd = w.main_cfd();
    let title = ("fig3c", "Scalability with |D| (cust16)");
    sweep(title, ("K tuples", RESPONSE), prefixes(&w), &CTR_VS_RT, |p, s| {
        run_single(p, &cfd, s).response_time
    })
}

/// Exp-3 (Fig. 3(d)): response time vs tableau size — cust8, 8 sites,
/// |Tp| = 55..255.
pub fn fig3d(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let partition = w.partition(8);
    let tableaux = (55..=255).step_by(50).map(|n| (n as f64, w.main_cfd_with(n)));
    let title = ("fig3d", "Scalability with |Tp| (cust8)");
    sweep(title, ("patterns", RESPONSE), tableaux, &CTR_VS_RT, |cfd, s| {
        run_single(&partition, cfd, s).response_time
    })
}

/// Exp-4 (Fig. 3(e)): total shipment vs mining threshold θ — xrefH over
/// 7 type-based fragments, FD input; PATDETECTS with and without mining.
pub fn fig3e(scale: f64) -> FigureResult {
    let w = xref_h(scale);
    let partition = w.partition_by_info_type();
    let fd = w.mining_fd();
    let baseline =
        run_single(&partition, &fd, CoordinatorStrategy::MinShipment).shipped_tuples as f64;
    let mut plain = Vec::new();
    let mut mined = Vec::new();
    let thetas = [0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    for &theta in &thetas {
        let outcome =
            mine_patterns(&partition, &fd, &MiningConfig { theta, max_width: 2 }, &cfg().cost);
        let run = run_single(&partition, &outcome.cfd, CoordinatorStrategy::MinShipment);
        plain.push((theta, baseline));
        mined.push((theta, run.shipped_tuples as f64));
    }
    FigureResult {
        id: "fig3e",
        title: "Impact of mining on shipment (xrefH)".into(),
        x_label: "theta",
        y_label: "tuples shipped",
        series: vec![
            Series { label: "PATDETECTS".into(), points: plain },
            Series { label: "PATDETECTS+mining".into(), points: mined },
        ],
    }
}

/// Exp-5 (Fig. 3(f)): shipment vs number of sites, two overlapping CFDs
/// on xref8 — SEQDETECT vs CLUSTDETECT.
pub fn fig3f(scale: f64) -> FigureResult {
    let w = xref8(scale);
    let sigma = w.overlapping_pair();
    let title = ("fig3f", "Shipment with |S|, multiple CFDs (xref8)");
    sweep(title, ("sites", "tuples shipped"), sites(|n| w.partition(n)), &MULTI, |p, run| {
        run(p, &sigma, CoordinatorStrategy::MinResponseTime, &cfg()).shipped_tuples as f64
    })
}

/// Exp-5 (Fig. 3(g)): response time vs sites on xref8.
pub fn fig3g(scale: f64) -> FigureResult {
    let w = xref8(scale);
    let sigma = w.overlapping_pair();
    let title = ("fig3g", "Scalability with |S|, multiple CFDs (xref8)");
    sweep(title, ("sites", RESPONSE), sites(|n| w.partition(n)), &MULTI, |p, run| {
        run(p, &sigma, CoordinatorStrategy::MinResponseTime, &cfg()).response_time
    })
}

/// Exp-5 (Fig. 3(h)): response time vs sites on cust8.
pub fn fig3h(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let sigma = w.overlapping_pair();
    let title = ("fig3h", "Scalability with |S|, multiple CFDs (cust8)");
    sweep(title, ("sites", RESPONSE), sites(|n| w.partition(n)), &MULTI, |p, run| {
        run(p, &sigma, CoordinatorStrategy::MinResponseTime, &cfg()).response_time
    })
}

/// Exp-6 (Fig. 3(i)): response time vs |D| for two CFDs — cust16, 8
/// sites, SEQDETECT vs CLUSTDETECT.
pub fn fig3i(scale: f64) -> FigureResult {
    let w = cust16(scale);
    let sigma = w.overlapping_pair();
    let title = ("fig3i", "Scalability with |D|, multiple CFDs (cust16)");
    sweep(title, ("K tuples", RESPONSE), prefixes(&w), &MULTI, |p, run| {
        run(p, &sigma, CoordinatorStrategy::MinResponseTime, &cfg()).response_time
    })
}

/// A figure generator function, from the dataset scale.
pub type FigureFn = fn(f64) -> FigureResult;

/// All figure generators, in paper order.
pub fn all_figures() -> Vec<(&'static str, FigureFn)> {
    vec![
        ("fig3a", fig3a as FigureFn),
        ("fig3b", fig3b),
        ("fig3c", fig3c),
        ("fig3d", fig3d),
        ("fig3e", fig3e),
        ("fig3f", fig3f),
        ("fig3g", fig3g),
        ("fig3h", fig3h),
        ("fig3i", fig3i),
    ]
}

//! Regeneration of every subfigure of the paper's evaluation (Fig. 3).
//!
//! Each function takes the dataset scale and returns a [`FigureResult`]
//! holding the same series the paper plots; the `experiments` binary
//! renders them as tables, and `tests/fig3_claims.rs` asserts the
//! paper's qualitative claim about each subfigure on the exact series.

use crate::workloads::{cust16, cust8, xref8, xref_h};
use dcd_core::{
    mine_patterns, run_batch, run_clust, run_seq, CoordinatorStrategy, MiningConfig, RunConfig,
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
/// directly; the labels come from the strategy's paper name).
fn run_single(
    partition: &HorizontalPartition,
    cfd: &dcd_cfd::SimpleCfd,
    strategy: CoordinatorStrategy,
) -> dcd_core::Detection {
    run_batch(partition, std::slice::from_ref(cfd), strategy, &cfg())
}

/// Exp-1 on CUST (Fig. 3(a)): response time vs number of sites, three
/// single-CFD algorithms, cust8, |Tp| = 255.
pub fn fig3a(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let cfd = w.main_cfd();
    single_cfd_site_sweep("fig3a", "Scalability with |S| (cust8)", &cfd, |n| w.partition(n))
}

/// Exp-1 on XREF (Fig. 3(b)): xref8, |Tp| = 11.
pub fn fig3b(scale: f64) -> FigureResult {
    let w = xref8(scale);
    let cfd = w.main_cfd();
    single_cfd_site_sweep("fig3b", "Scalability with |S| (xref8)", &cfd, |n| w.partition(n))
}

fn single_cfd_site_sweep(
    id: &'static str,
    title: &str,
    cfd: &dcd_cfd::SimpleCfd,
    partition_for: impl Fn(usize) -> HorizontalPartition,
) -> FigureResult {
    let mut ctr = Vec::new();
    let mut pats = Vec::new();
    let mut patrt = Vec::new();
    for n_sites in 2..=8 {
        let partition = partition_for(n_sites);
        let x = n_sites as f64;
        ctr.push((x, run_single(&partition, cfd, CoordinatorStrategy::Central).response_time));
        pats.push((x, run_single(&partition, cfd, CoordinatorStrategy::MinShipment).response_time));
        patrt.push((
            x,
            run_single(&partition, cfd, CoordinatorStrategy::MinResponseTime).response_time,
        ));
    }
    FigureResult {
        id,
        title: title.to_string(),
        x_label: "sites",
        y_label: "response time (s)",
        series: vec![
            Series { label: "CTRDETECT".into(), points: ctr },
            Series { label: "PATDETECTS".into(), points: pats },
            Series { label: "PATDETECTRT".into(), points: patrt },
        ],
    }
}

/// Exp-2 (Fig. 3(c)): response time vs |D| — 10%..100% of cust16 over 8
/// sites; CTRDETECT vs PATDETECTRT.
pub fn fig3c(scale: f64) -> FigureResult {
    let w = cust16(scale);
    let cfd = w.main_cfd();
    let mut ctr = Vec::new();
    let mut patrt = Vec::new();
    for step in 1..=10 {
        let fraction = step as f64 / 10.0;
        let prefix = w.prefix(fraction);
        let partition = HorizontalPartition::round_robin(&prefix, 8).expect("round robin");
        let x = (prefix.len() as f64) / 1000.0;
        ctr.push((x, run_single(&partition, &cfd, CoordinatorStrategy::Central).response_time));
        patrt.push((
            x,
            run_single(&partition, &cfd, CoordinatorStrategy::MinResponseTime).response_time,
        ));
    }
    FigureResult {
        id: "fig3c",
        title: "Scalability with |D| (cust16)".into(),
        x_label: "K tuples",
        y_label: "response time (s)",
        series: vec![
            Series { label: "CTRDETECT".into(), points: ctr },
            Series { label: "PATDETECTRT".into(), points: patrt },
        ],
    }
}

/// Exp-3 (Fig. 3(d)): response time vs tableau size — cust8, 8 sites,
/// |Tp| = 55..255.
pub fn fig3d(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let partition = w.partition(8);
    let mut ctr = Vec::new();
    let mut patrt = Vec::new();
    for n_patterns in (55..=255).step_by(50) {
        let cfd = w.main_cfd_with(n_patterns);
        let x = n_patterns as f64;
        ctr.push((x, run_single(&partition, &cfd, CoordinatorStrategy::Central).response_time));
        patrt.push((
            x,
            run_single(&partition, &cfd, CoordinatorStrategy::MinResponseTime).response_time,
        ));
    }
    FigureResult {
        id: "fig3d",
        title: "Scalability with |Tp| (cust8)".into(),
        x_label: "patterns",
        y_label: "response time (s)",
        series: vec![
            Series { label: "CTRDETECT".into(), points: ctr },
            Series { label: "PATDETECTRT".into(), points: patrt },
        ],
    }
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
    multi_cfd_site_sweep(
        "fig3f",
        "Shipment with |S|, multiple CFDs (xref8)",
        "tuples shipped",
        &sigma,
        |n| w.partition(n),
        |d| d.shipped_tuples as f64,
    )
}

/// Exp-5 (Fig. 3(g)): response time vs sites on xref8.
pub fn fig3g(scale: f64) -> FigureResult {
    let w = xref8(scale);
    let sigma = w.overlapping_pair();
    multi_cfd_site_sweep(
        "fig3g",
        "Scalability with |S|, multiple CFDs (xref8)",
        "response time (s)",
        &sigma,
        |n| w.partition(n),
        |d| d.response_time,
    )
}

/// Exp-5 (Fig. 3(h)): response time vs sites on cust8.
pub fn fig3h(scale: f64) -> FigureResult {
    let w = cust8(scale);
    let sigma = w.overlapping_pair();
    multi_cfd_site_sweep(
        "fig3h",
        "Scalability with |S|, multiple CFDs (cust8)",
        "response time (s)",
        &sigma,
        |n| w.partition(n),
        |d| d.response_time,
    )
}

fn multi_cfd_site_sweep(
    id: &'static str,
    title: &str,
    y_label: &'static str,
    sigma: &[dcd_cfd::Cfd],
    partition_for: impl Fn(usize) -> HorizontalPartition,
    metric: impl Fn(&dcd_core::Detection) -> f64,
) -> FigureResult {
    let mut seq = Vec::new();
    let mut clust = Vec::new();
    for n_sites in 2..=8 {
        let partition = partition_for(n_sites);
        let x = n_sites as f64;
        seq.push((
            x,
            metric(&run_seq(&partition, sigma, CoordinatorStrategy::MinResponseTime, &cfg())),
        ));
        clust.push((
            x,
            metric(&run_clust(&partition, sigma, CoordinatorStrategy::MinResponseTime, &cfg())),
        ));
    }
    FigureResult {
        id,
        title: title.to_string(),
        x_label: "sites",
        y_label,
        series: vec![
            Series { label: "SEQDETECT".into(), points: seq },
            Series { label: "CLUSTDETECT".into(), points: clust },
        ],
    }
}

/// Exp-6 (Fig. 3(i)): response time vs |D| for two CFDs — cust16, 8
/// sites, SEQDETECT vs CLUSTDETECT.
pub fn fig3i(scale: f64) -> FigureResult {
    let w = cust16(scale);
    let sigma = w.overlapping_pair();
    let mut seq = Vec::new();
    let mut clust = Vec::new();
    for step in 1..=10 {
        let fraction = step as f64 / 10.0;
        let prefix = w.prefix(fraction);
        let partition = HorizontalPartition::round_robin(&prefix, 8).expect("round robin");
        let x = (prefix.len() as f64) / 1000.0;
        seq.push((
            x,
            run_seq(&partition, &sigma, CoordinatorStrategy::MinResponseTime, &cfg()).response_time,
        ));
        clust.push((
            x,
            run_clust(&partition, &sigma, CoordinatorStrategy::MinResponseTime, &cfg())
                .response_time,
        ));
    }
    FigureResult {
        id: "fig3i",
        title: "Scalability with |D|, multiple CFDs (cust16)".into(),
        x_label: "K tuples",
        y_label: "response time (s)",
        series: vec![
            Series { label: "SEQDETECT".into(), points: seq },
            Series { label: "CLUSTDETECT".into(), points: clust },
        ],
    }
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

//! The reproduction, checked: per subfigure of the paper's Fig. 3, the
//! qualitative claim §VI makes about it, asserted on the exact series
//! [`dcd_bench::figures`] regenerates. Both meters are simulated
//! (tuples shipped, §III-B response time), so every series is
//! bit-reproducible and a claim either holds at every x or it does not.
//!
//! A claim that stops holding is a finding about the engine or the cost
//! model: report it with the series and `#[ignore]` the test with that
//! message. Do not weaken the assertion until it passes.

use dcd_bench::figures::{self, FigureResult};
use dcd_bench::workloads;
use dcd_cfd::SimpleCfd;
use dcd_core::{run_batch, CoordinatorStrategy, RunConfig};
use dcd_dist::HorizontalPartition;

/// 1/80 of the paper's sizes: 10K-tuple `cust8`/`xref8`, 20K `cust16`,
/// 33.75K `xrefH`. All nine figures take about a second in release.
/// (At the builders' 1 000-tuple floor a round's control messages
/// outweigh a 125-tuple fragment and response time stops falling as
/// sites are added — the claims are about data, so they are checked on
/// some.)
const SCALE: f64 = 0.0125;

fn ys(fig: &FigureResult, label: &str) -> Vec<f64> {
    let series = fig.series.iter().find(|s| s.label == label);
    let series = series.unwrap_or_else(|| panic!("{}: no series `{label}`", fig.id));
    series.points.iter().map(|&(_, y)| y).collect()
}

/// `lo ≤ hi` at every x.
fn assert_never_above(fig: &FigureResult, lo: &str, hi: &str) {
    let (a, b) = (ys(fig, lo), ys(fig, hi));
    assert!(a.iter().zip(&b).all(|(a, b)| a <= b), "{}: {lo} {a:?} above {hi} {b:?}", fig.id);
}

fn assert_falls(fig: &FigureResult, label: &str) {
    let y = ys(fig, label);
    assert!(y.windows(2).all(|w| w[1] < w[0]), "{}: {label} does not fall: {y:?}", fig.id);
}

fn assert_grows(fig: &FigureResult, label: &str) {
    let y = ys(fig, label);
    assert!(y.windows(2).all(|w| w[1] > w[0]), "{}: {label} does not grow: {y:?}", fig.id);
}

/// Exp-1's claims about one site sweep, all but "`PATDETECTRT` answers
/// first" (a test of its own per figure): both pattern-based algorithms
/// answer before `CTRDETECT`, every algorithm answers sooner as sites
/// are added, and — on the shipment meter the figure does not plot —
/// `PATDETECTS` ships no more than `CTRDETECT`.
fn assert_single_cfd_sweep(
    fig: &FigureResult,
    cfd: &SimpleCfd,
    partition_for: impl Fn(usize) -> HorizontalPartition,
) {
    for pattern_based in ["PATDETECTS", "PATDETECTRT"] {
        assert_never_above(fig, pattern_based, "CTRDETECT");
    }
    for label in ["CTRDETECT", "PATDETECTS", "PATDETECTRT"] {
        assert_falls(fig, label);
    }
    for n_sites in 2..=8 {
        let partition = partition_for(n_sites);
        let shipped = |strategy| {
            let cfds = std::slice::from_ref(cfd);
            run_batch(&partition, cfds, strategy, &RunConfig::default()).shipped_tuples
        };
        let (pats, ctr) =
            (shipped(CoordinatorStrategy::MinShipment), shipped(CoordinatorStrategy::Central));
        assert!(pats <= ctr, "{} @{n_sites}: PATDETECTS ships {pats}, CTRDETECT {ctr}", fig.id);
    }
}

#[test]
fn fig3a_patterns_beat_ctrdetect_and_sites_help_on_cust8() {
    let w = workloads::cust8(SCALE);
    assert_single_cfd_sweep(&figures::fig3a(SCALE), &w.main_cfd(), |n| w.partition(n));
}

#[test]
#[ignore = "fails at SCALE = 0.0125: PATDETECTRT answers 1.0 % after PATDETECTS at 3 sites \
            (0.088527 s vs 0.087620 s) and 0.1 % after it at 5 (0.059571 s vs 0.059509 s); \
            first at 2, 4, 6, 7, 8, and at every |S| at DCD_SCALE=0.1 — its coordinator \
            assignment is a greedy heuristic, not a minimum"]
fn fig3a_patdetectrt_answers_first_on_cust8() {
    assert_never_above(&figures::fig3a(SCALE), "PATDETECTRT", "PATDETECTS");
}

#[test]
fn fig3b_patterns_beat_ctrdetect_and_sites_help_on_xref8() {
    let w = workloads::xref8(SCALE);
    assert_single_cfd_sweep(&figures::fig3b(SCALE), &w.main_cfd(), |n| w.partition(n));
}

#[test]
fn fig3b_patdetectrt_answers_first_on_xref8() {
    assert_never_above(&figures::fig3b(SCALE), "PATDETECTRT", "PATDETECTS");
}

#[test]
fn fig3c_response_time_grows_with_the_data() {
    let fig = figures::fig3c(SCALE);
    assert_never_above(&fig, "PATDETECTRT", "CTRDETECT");
    assert_grows(&fig, "CTRDETECT");
    assert_grows(&fig, "PATDETECTRT");
}

#[test]
fn fig3d_response_time_grows_with_the_tableau() {
    let fig = figures::fig3d(SCALE);
    assert_never_above(&fig, "PATDETECTRT", "CTRDETECT");
    assert_grows(&fig, "CTRDETECT");
    assert_grows(&fig, "PATDETECTRT");
}

#[test]
fn fig3e_mined_tableaux_cut_shipment() {
    let fig = figures::fig3e(SCALE);
    assert_never_above(&fig, "PATDETECTS+mining", "PATDETECTS");
    let (mined, plain) = (ys(&fig, "PATDETECTS+mining"), ys(&fig, "PATDETECTS"));
    assert!(mined[0] < plain[0], "the lowest θ mines patterns that save shipment: {mined:?}");
    assert!(mined.windows(2).all(|w| w[0] <= w[1]), "a higher θ mines fewer patterns: {mined:?}");
}

#[test]
fn fig3f_clustdetect_ships_less_than_seqdetect() {
    let fig = figures::fig3f(SCALE);
    let (clust, seq) = (ys(&fig, "CLUSTDETECT"), ys(&fig, "SEQDETECT"));
    assert!(clust.iter().zip(&seq).all(|(c, s)| c < s), "CLUSTDETECT {clust:?} SEQDETECT {seq:?}");
}

/// Exp-5's response-time claims about one site sweep.
fn assert_multi_cfd_sweep(fig: &FigureResult) {
    assert_never_above(fig, "CLUSTDETECT", "SEQDETECT");
    assert_falls(fig, "SEQDETECT");
    assert_falls(fig, "CLUSTDETECT");
}

#[test]
fn fig3g_clustdetect_answers_first_and_sites_help_on_xref8() {
    assert_multi_cfd_sweep(&figures::fig3g(SCALE));
}

#[test]
fn fig3h_clustdetect_answers_first_and_sites_help_on_cust8() {
    assert_multi_cfd_sweep(&figures::fig3h(SCALE));
}

#[test]
fn fig3i_clustdetect_answers_first_as_the_data_grows() {
    let fig = figures::fig3i(SCALE);
    assert_never_above(&fig, "CLUSTDETECT", "SEQDETECT");
    assert_grows(&fig, "SEQDETECT");
    assert_grows(&fig, "CLUSTDETECT");
}

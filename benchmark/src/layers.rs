//! A stage-by-stage re-enactment of `dcd_core::runner::run_single_cfd`
//! through the public functions the engine itself calls, one span per
//! layer. It carries no ledger, clocks or observer: that bookkeeping is
//! what `core.runner.other_ms` measures by subtraction.

use crate::trace::Tracer;
use dcd_cfd::violation::ViolationSet;
use dcd_cfd::{CodeLayout, CodeRow, SimpleCfd, ViolationReport};
use dcd_core::local::{applicable_patterns, check_constants_range_with, compile_constants};
use dcd_core::sigma::{sigma_partition, sort_for_sigma, SigmaPartition};
use dcd_dist::HorizontalPartition;

pub const LOCAL: &str = "core.local";
pub const SIGMA: &str = "core.sigma";
pub const CODE_ROWS: &str = "relation.code_rows";
pub const VALIDATE: &str = "cfd.validate";

/// Exact work counts of one re-enacted operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Tuples the local constant check flagged.
    pub rows_flagged: usize,
    /// Tuples σ assigned to a pattern.
    pub rows_matched: usize,
    /// Pattern-match comparisons σ performed.
    pub comparisons: usize,
    /// Wire rows encoded for coordinators.
    pub code_rows: usize,
}

/// `PATDETECTS` over `partition` for every CFD of `sigma`, layer by layer.
pub fn reenact_batch(
    partition: &HorizontalPartition,
    sigma: &[SimpleCfd],
    tracer: &mut Tracer,
) -> (ViolationReport, Counts) {
    let frags = partition.fragments();
    let mut report = ViolationReport::default();
    let mut counts = Counts::default();
    for cfd in sigma {
        report.absorb(&cfd.name, ViolationSet::default());
        let (variable, constants) = cfd.split_constant();
        if !constants.is_empty() {
            let flagged = tracer.span(LOCAL, || {
                let mut vs = ViolationSet::default();
                for frag in frags {
                    let compiled = compile_constants(frag, &constants);
                    vs.merge(check_constants_range_with(frag, &compiled, 0, frag.data.len()));
                }
                vs
            });
            counts.rows_flagged += flagged.tids.len();
            report.absorb(&cfd.name, flagged);
        }
        let Some(variable) = variable else { continue };

        let (sorted, parts) = tracer.span(SIGMA, || {
            let sorted = sort_for_sigma(&variable);
            let parts: Vec<SigmaPartition> = frags
                .iter()
                .map(|f| sigma_partition(&f.data, &sorted, &applicable_patterns(f, &sorted.cfd)))
                .collect();
            (sorted, parts)
        });
        counts.rows_matched += parts.iter().map(SigmaPartition::total_matching).sum::<usize>();
        counts.comparisons += parts.iter().map(|p| p.comparisons).sum::<usize>();

        // The PATDETECTS assignment: per pattern, the site holding the
        // most matching tuples, ties to the smallest id.
        let n = frags.len();
        let coordinators: Vec<Option<usize>> = (0..sorted.cfd.tableau.len())
            .map(|l| {
                let held = |i: usize| parts[i].blocks[l].len();
                (0..n).any(|i| held(i) > 0).then(|| {
                    (0..n).max_by_key(|&i| (held(i), n - i)).expect("a partition has sites")
                })
            })
            .collect();

        let attrs = sorted.cfd.shipped_attrs();
        let gathered = tracer.span(CODE_ROWS, || {
            let mut gathered: Vec<Vec<(usize, Vec<CodeRow>)>> = vec![Vec::new(); n];
            for (l, coord) in coordinators.iter().enumerate() {
                let Some(c) = *coord else { continue };
                let mut rows: Vec<CodeRow> = Vec::new();
                for (frag, part) in frags.iter().zip(&parts) {
                    if !part.blocks[l].is_empty() {
                        rows.extend(frag.data.code_rows(&attrs, &part.blocks[l]));
                    }
                }
                gathered[c].push((l, rows));
            }
            gathered
        });
        counts.code_rows += gathered.iter().flatten().map(|(_, rows)| rows.len()).sum::<usize>();

        let validated = tracer.span(VALIDATE, || {
            let resolved = CodeLayout::of_relation(&frags[0].data, &attrs).resolve(&sorted.cfd);
            let mut vs = ViolationSet::default();
            for jobs in &gathered {
                for (l, rows) in jobs {
                    vs.merge(resolved.detect_pattern_among(rows.iter(), *l));
                }
            }
            vs
        });
        report.absorb(&cfd.name, validated);
        // Freeing the wire rows is the other half of what building them
        // costs; the engine pays it when the round returns.
        tracer.span(CODE_ROWS, || drop(gathered));
    }
    (report, counts)
}

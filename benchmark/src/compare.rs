//! `--compare <a> <b>`: two result files written by this harness, side by
//! side. Per workload and end-to-end metric it prints both medians, the
//! ratio with its base, the bound, and `ok`, `worse` or `unresolved`; a
//! file may hold several runs of a workload (`--out` appends), and only
//! then is there a spread to call a metric unresolved by. Per-layer
//! metrics have no bound and read `same` or `info`.

use crate::json::Json;
use crate::metrics::{Better, Spec, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};
use crate::workloads::Workload;
use std::collections::BTreeMap;

/// Values per (workload, traced pass, metric), in run order.
type Runs = BTreeMap<(String, bool, String), Vec<f64>>;

pub fn read_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = Json::parse(line)?;
        let workload = record.get("workload").and_then(Json::as_str).ok_or("no workload")?;
        let traced = record.get("trace").and_then(Json::as_f64).ok_or("no trace")? != 0.0;
        let metrics = record.get("result").and_then(|r| r.get("metrics")).ok_or("no metrics")?;
        for (name, entry) in metrics.members() {
            let value = entry.get("value").and_then(Json::as_f64).ok_or("no value")?;
            runs.entry((workload.to_string(), traced, name.clone())).or_default().push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The no-regression rule: `b`'s median may be worse than `a`'s by at
/// most `bound` of it. Where either side's own run-to-run spread is
/// wider than the bound the metric is unresolved, unless every run of
/// `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let noisy = [a, b].iter().any(|runs| quartile_spread(runs).is_some_and(|s| s > bound));
    if noisy {
        let best_a = a.iter().map(|v| sign * v).fold(f64::INFINITY, f64::min);
        let worst_b = b.iter().map(|v| sign * v).fold(f64::NEG_INFINITY, f64::max);
        return if worst_b < best_a { Verdict::Ok } else { Verdict::Unresolved };
    }
    let (ma, mb) = (median(a), median(b));
    if sign * (mb - ma) > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn row(name: &str, a: &[f64], b: &[f64], spec: &Spec) -> (String, bool) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if a.is_empty() || b.is_empty() || ma == 0.0 {
        "-".to_string()
    } else {
        format!("{:.4}", mb / ma)
    };
    let (bound, verdict, worse) = match spec.bound {
        Some(bound) => {
            let v = judge(a, b, spec.better, bound);
            let word = match v {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            (format!("{:.0}%", bound * 100.0), word, v == Verdict::Worse)
        }
        None => ("-".to_string(), if a == b { "same" } else { "info" }, false),
    };
    let line = format!(
        "  {name:<30} {ma:>14.4} {mb:>14.4} {unit:<8} b/a={ratio:<8} {better:<6} bound={bound:<4} {verdict}",
        unit = spec.unit,
        better = spec.better.as_str(),
    );
    (line, worse)
}

/// Prints the comparison; `Ok(true)` when no metric is `worse`.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let (a, b) = (read_runs(a_text)?, read_runs(b_text)?);
    let mut clean = true;
    for w in Workload::ALL {
        for (traced, specs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let key = |s: &Spec| (w.name().to_string(), traced, s.name.to_string());
            if !specs.iter().any(|s| a.contains_key(&key(s)) || b.contains_key(&key(s))) {
                continue;
            }
            println!("== {} ({}) ==", w.name(), if traced { "per layer" } else { "end to end" });
            for s in specs {
                let none = Vec::new();
                let (va, vb) = (a.get(&key(s)).unwrap_or(&none), b.get(&key(s)).unwrap_or(&none));
                let (line, worse) = row(s.name, va, vb, s);
                println!("{line}");
                clean &= !worse;
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_median_within_the_bound_is_ok_and_beyond_it_worse() {
        assert_eq!(judge(&[100.0], &[109.0], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[111.0], Better::Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[50.0], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[91.0], Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[89.0], Better::Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[], Better::Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert_eq!(judge(&noisy, &[100.0; 5], Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[130.0; 5], Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[70.0; 5], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&noisy, &[130.0; 5], Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn result_files_are_read_a_record_a_line_and_runs_accumulate() {
        let line = |v: f64| {
            format!(
                "{{\"workload\": \"cust_dense\", \"trace\": 0, \"result\": {{\"metrics\": \
                 {{\"op_p50_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}}}}}}}\n"
            )
        };
        let runs = read_runs(&(line(1.5) + &line(2.5))).unwrap();
        let key = ("cust_dense".to_string(), false, "op_p50_ms".to_string());
        assert_eq!(runs[&key], [1.5, 2.5]);
        assert!(read_runs("{\"workload\": 3}").is_err());
    }
}

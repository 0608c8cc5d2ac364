//! Golden-file pin of the Prometheus text exposition: one small
//! deterministic run (the `observability` example's exact setup) must
//! reproduce `tests/golden/observability_exposition.txt` byte for
//! byte, over the example's relation as built and with grown
//! dictionaries (every scan hashes). Every line of the golden must parse
//! under the
//! exposition-format line grammar: `# HELP`/`# TYPE` headers followed by
//! `name{labels} value` samples whose family a header declared first.

mod common;

use common::grow_dictionaries;
use distributed_cfd::prelude::*;
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("golden/observability_exposition.txt");

/// The `observability` example's run, reproduced exactly, with its
/// relation's dictionaries `grown` or as built.
fn example_detection(grown: bool) -> Detection {
    let schema = Schema::builder("r")
        .attr("id", ValueType::Int)
        .attr("a", ValueType::Int)
        .attr("b", ValueType::Int)
        .attr("c", ValueType::Str)
        .key(&["id"])
        .build()
        .unwrap();
    let rel = Relation::from_rows(
        schema.clone(),
        (0..60)
            .map(|i| vals![i, i % 3, i % 5, format!("c{}", if i % 7 == 0 { 9 } else { i % 2 })])
            .collect(),
    )
    .unwrap();
    if grown {
        grow_dictionaries(&rel);
    }
    let sigma = vec![
        parse_cfd(&schema, "phi1", "([a, b] -> [c])").unwrap(),
        parse_cfd(&schema, "phi2", "([a=1, b] -> [c=c1])").unwrap(),
    ];
    let partition = HorizontalPartition::round_robin(&rel, 3).unwrap();
    DetectRequest::over(partition)
        .cfds(sigma)
        .algorithm(Algorithm::PatDetectS)
        .plan()
        .map(|plan| plan.run())
        .unwrap()
}

#[test]
fn exposition_matches_the_golden_byte_for_byte() {
    for grown in [false, true] {
        let exposed = example_detection(grown).metrics.expose();
        let hint = "regenerate with `cargo run --example observability`";
        assert_eq!(exposed, GOLDEN, "grown: {grown}; {hint}");
    }
}

/// A metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `name{k="v",..}` into the name and its label block.
fn split_labels(series: &str) -> (&str, Option<&str>) {
    match series.find('{') {
        Some(i) => (&series[..i], Some(&series[i..])),
        None => (series, None),
    }
}

#[test]
fn every_golden_line_parses() {
    // family name -> declared kind, filled by `# TYPE` lines.
    let mut kinds: BTreeMap<&str, &str> = BTreeMap::new();
    let mut samples = 0usize;
    for (no, line) in GOLDEN.lines().enumerate() {
        let at = || format!("line {}: {line:?}", no + 1);
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or_else(|| panic!("{}", at()));
            assert!(is_metric_name(name), "{}", at());
            assert!(!help.trim().is_empty(), "HELP without text; {}", at());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or_else(|| panic!("{}", at()));
            assert!(is_metric_name(name), "{}", at());
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind {kind}; {}",
                at()
            );
            assert!(kinds.insert(name, kind).is_none(), "family declared twice; {}", at());
        } else {
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{}", at()));
            value.parse::<f64>().unwrap_or_else(|_| panic!("unparseable value; {}", at()));
            let (name, labels) = split_labels(series);
            assert!(is_metric_name(name), "{}", at());
            // A histogram family's samples carry _bucket/_sum/_count
            // suffixes; everything else samples the family name itself.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| name.strip_suffix(suf).filter(|b| kinds.contains_key(b)))
                .unwrap_or(name);
            assert!(kinds.contains_key(family), "sample before its TYPE header; {}", at());
            if let Some(block) = labels {
                let inner = block
                    .strip_prefix('{')
                    .and_then(|b| b.strip_suffix('}'))
                    .unwrap_or_else(|| panic!("unbalanced label block; {}", at()));
                for pair in inner.split(',') {
                    let (k, v) = pair.split_once('=').unwrap_or_else(|| panic!("{}", at()));
                    assert!(is_metric_name(k), "{}", at());
                    assert!(
                        v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                        "unquoted label value; {}",
                        at()
                    );
                }
            }
            samples += 1;
        }
    }
    assert!(samples > 20, "golden should carry a full run's samples, got {samples}");
    assert!(kinds.contains_key("dcd_shipped_tuples_total"), "ledger mirror family missing");
    assert!(kinds.contains_key("dcd_kernel_groups_total"), "kernel family missing");
    assert!(kinds.contains_key("dcd_run_response_seconds"), "run-summary gauge missing");
}

//! Drives the built `benchmark` binary at smoke size (2 000 tuples, 5 ops,
//! 3 trace reps): the same code paths and the same verification as a full
//! run, under the binary's own counting allocator. Keeps the harness from
//! rotting: `cargo test --manifest-path benchmark/Cargo.toml`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const WORKLOADS: [&str; 5] = ["cust_load", "cust_dense", "cust_sparse", "xref_clust", "cust_incr"];
/// End-to-end metrics that repeat exactly for a seed.
const EXACT: [&str; 4] = ["resident_mb", "peak_mb", "shipped_kb_per_op", "sim_response_ms"];

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary with its result and trace files sent under `dir`.
fn benchmark(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .env("CARGO_TARGET_DIR", dir)
        .current_dir(dir)
        .output()
        .expect("the benchmark binary starts")
}

/// One smoke run over every workload and both passes: the records of its
/// result file, in run order.
fn smoke(dir: &Path, seed: &str, out: &str) -> Vec<Json> {
    let run = benchmark(dir, &["--workload", "all", "--smoke", "--seed", seed, "--out", out]);
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&run.stderr));
    let last = stdout.lines().last().expect("a result line");
    let last = Json::parse(last).expect("the last line of stdout is the result object");
    let keys: Vec<&str> = last.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let text = std::fs::read_to_string(dir.join(out)).expect("the result file is written");
    let records: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(records.len(), 2 * WORKLOADS.len(), "five workloads, two passes each");
    for (i, record) in records.iter().enumerate() {
        assert_eq!(record.get("workload").and_then(Json::as_str), Some(WORKLOADS[i / 2]));
        assert_eq!(record.get("trace").and_then(Json::as_f64), Some((i % 2) as f64));
        let result = record.get("result").unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", WORKLOADS[i / 2]);
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    }
    for w in WORKLOADS {
        assert!(dir.join("benchmark").join(format!("trace-{w}.json")).is_file(), "{w} trace file");
    }
    records
}

fn metric(record: &Json, name: &str) -> Option<f64> {
    record.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn unit<'a>(record: &'a Json, name: &str) -> Option<&'a str> {
    record.get("result")?.get("metrics")?.get(name)?.get("unit")?.as_str()
}

#[test]
fn smoke_runs_verify_repeat_exactly_for_a_seed_and_move_with_the_seed() {
    let dir = scratch("smoke");
    let first = smoke(&dir, "7", "a.jsonl");
    let again = smoke(&dir, "7", "b.jsonl");
    let other = smoke(&dir, "8", "c.jsonl");

    for ((a, b), c) in first.iter().zip(&again).zip(&other) {
        let workload = a.get("workload").and_then(Json::as_str).unwrap();
        let names: Vec<&str> = a
            .get("result")
            .and_then(|r| r.get("metrics"))
            .map(|m| m.members().iter().map(|(k, _)| k.as_str()).collect())
            .unwrap();
        if a.get("trace").and_then(Json::as_f64) == Some(0.0) {
            assert_eq!(names.len(), 7, "{workload}: every end-to-end metric is printed");
            assert!(names.iter().all(|n| metric(a, n).unwrap() > 0.0), "{workload}: never 0");
            // What the clock saw is filed beside the normalized metrics;
            // five samples cannot carry the p90 that a full run adds.
            let info = a.get("info").unwrap();
            for name in ["host_slowness_x", "raw_op_p50_ms", "raw_ops_per_s", "raw_setup_s"] {
                assert!(info.get(name).is_some(), "{workload} {name}");
            }
            assert!(info.get("op_p90_ms").is_none(), "{workload}");
            for name in EXACT {
                assert_eq!(metric(a, name), metric(b, name), "{workload} {name}");
            }
            assert_ne!(
                metric(a, "shipped_kb_per_op"),
                metric(c, "shipped_kb_per_op"),
                "{workload}: another seed is another dataset"
            );
        } else {
            assert_eq!(names.len(), 45, "{workload}: every per-layer metric is printed");
            for name in names.iter().filter(|n| unit(a, n) == Some("count")) {
                assert_eq!(metric(a, name), metric(b, name), "{workload} {name}");
            }
            let coverage = if workload == "cust_incr" {
                "incr.runner.coverage"
            } else {
                "core.runner.coverage"
            };
            let reenacted = workload != "xref_clust";
            assert_eq!(metric(a, coverage).unwrap() > 0.0, reenacted, "{workload} {coverage}");
        }
    }

    // The same seed twice compares clean on every exact metric; timings
    // at smoke size are too short to hold to a bound, so only the exit
    // code of a doctored file is pinned.
    let worse: String = std::fs::read_to_string(dir.join("a.jsonl"))
        .unwrap()
        .lines()
        .map(|l| {
            let mut record = Json::parse(l).unwrap();
            double_metric(&mut record, "shipped_kb_per_op");
            record.render() + "\n"
        })
        .collect();
    std::fs::write(dir.join("worse.jsonl"), worse).unwrap();
    let run = benchmark(&dir, &["--compare", "a.jsonl", "worse.jsonl"]);
    let table = String::from_utf8(run.stdout).unwrap();
    assert_eq!(run.status.code(), Some(1), "{table}");
    assert!(table.lines().any(|l| l.contains("shipped_kb_per_op") && l.ends_with("worse")));
    assert!(table.lines().any(|l| l.contains("resident_mb") && l.ends_with("ok")), "{table}");
    assert!(table.lines().any(|l| l.contains("core.sigma.comparisons") && l.ends_with("same")));
}

fn double_metric(record: &mut Json, name: &str) {
    let Json::Obj(members) = record else { return };
    for (key, value) in members {
        if key == name {
            if let Json::Obj(entry) = value {
                if let Some((_, Json::Num(v))) = entry.iter_mut().find(|(k, _)| k == "value") {
                    *v *= 2.0;
                }
            }
        } else {
            double_metric(value, name);
        }
    }
}

#[test]
fn usage_errors_exit_with_code_two_and_print_no_result() {
    let dir = scratch("usage");
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "cust_dense", "--trace", "2"],
        &["--workload", "cust_dense", "--seconds", "0"],
        &["--workload", "cust_dense", "--bogus"],
    ] {
        let run = benchmark(&dir, args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?}");
    }
    let run = benchmark(&dir, &["--compare", "missing-a.json", "missing-b.json"]);
    assert_eq!(run.status.code(), Some(1));
}

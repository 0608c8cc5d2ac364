//! The metric tables. `BENCHMARK.json` at the repository root repeats
//! them for the driver; a test keeps the two equal.

use crate::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics are informational and have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, better: Better::Higher, bound: None }
}

/// What a caller sees; the same names on every workload. The timed ones
/// are at the yardstick's nominal speed (see `yardstick.rs`). The p90 is
/// printed beside them without a bound: on the allocation-heavy workloads
/// its quartile spread over ten seeds reached 22 %, which no bound of at
/// most a quarter can sit three times above.
pub const END_TO_END: [Spec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("resident_mb", "MiB", Better::Lower, 0.02),
    e2e("peak_mb", "MiB", Better::Lower, 0.06),
    e2e("shipped_kb_per_op", "KiB", Better::Lower, 0.05),
    e2e("sim_response_ms", "ms", Better::Lower, 0.12),
];

/// Single layers, named after the module each span wraps. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [Spec; 45] = [
    lower("engine.op_ms", "ms"),
    lower("engine.op_p90_ms", "ms"),
    higher("engine.ops_per_s", "1/s"),
    lower("relation.ingest.ms", "ms"),
    higher("relation.ingest.krows_per_s", "krows/s"),
    lower("relation.ingest.allocs", "count"),
    lower("relation.ingest.alloc_mb", "MiB"),
    lower("dist.fragment.ms", "ms"),
    lower("dist.fragment.allocs", "count"),
    lower("dist.fragment.alloc_mb", "MiB"),
    lower("core.local.ms", "ms"),
    lower("core.local.rows_flagged", "count"),
    lower("core.sigma.ms", "ms"),
    lower("core.sigma.rows_matched", "count"),
    lower("core.sigma.comparisons", "count"),
    lower("relation.code_rows.ms", "ms"),
    lower("relation.code_rows.rows", "count"),
    lower("relation.code_rows.allocs", "count"),
    lower("cfd.validate.ms", "ms"),
    lower("cfd.validate.groups", "count"),
    lower("cfd.validate.probes", "count"),
    lower("cfd.validate.allocs", "count"),
    lower("core.runner.other_ms", "ms"),
    higher("core.runner.coverage", "share"),
    lower("core.runner.overhead_x", "x"),
    lower("core.runner.ctrdetect_ms", "ms"),
    lower("core.runner.patdetectrt_ms", "ms"),
    lower("cfd.central.ms", "ms"),
    lower("core.multi.clusters", "count"),
    lower("core.multi.seqdetect_ms", "ms"),
    higher("core.multi.ship_saving_x", "x"),
    higher("dist.pool.speedup_t2", "x"),
    lower("relation.apply_delta.ms", "ms"),
    lower("relation.apply_delta.allocs", "count"),
    lower("incr.index.apply_ms", "ms"),
    lower("incr.index.snapshot_ms", "ms"),
    lower("incr.index.keys_revalidated", "count"),
    lower("incr.index.build_ms", "ms"),
    lower("incr.build.encode_ms", "ms"),
    lower("incr.runner.other_ms", "ms"),
    higher("incr.runner.coverage", "share"),
    higher("incr.runner.redetect_x", "x"),
    lower("trace.overhead_pct", "%"),
    lower("trace.reps", "count"),
    lower("host.threads", "count"),
];

/// The layer sum must reconcile with the engine's operation within this
/// range, or the traced pass fails.
pub const COVERAGE_RANGE: (f64, f64) = (0.75, 1.05);

pub const MIB: f64 = 1024.0 * 1024.0;

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was verified.
    pub attempted: usize,
    /// Those whose output was wrong.
    pub failed: usize,
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind the timed metrics, printed beside them.
    pub samples: usize,
    /// Printed and filed beside the metrics, but not among them: name,
    /// value, unit.
    pub info: Vec<(&'static str, f64, &'static str)>,
    /// Lines for the human-readable table only.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one verified output, and whether it was wrong.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The contract's result object: `correct`, `attempted`, `failed`
    /// and every metric of `specs`, in table order. A metric that was
    /// not measured reads 0, which is how a layer the workload does not
    /// exercise is reported; every run measures every end-to-end one.
    pub fn to_json(&self, specs: &[Spec]) -> Json {
        let metrics = specs
            .iter()
            .map(|s| {
                let value = self.values.get(s.name).copied().unwrap_or(0.0);
                (s.name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(s.unit))]))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contracts_alphabet() {
        let mut seen = BTreeSet::new();
        for s in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(s.name), "{} is used twice", s.name);
            assert!(s.name.len() <= 64 && s.unit.len() <= 16, "{}", s.name);
            assert!(s.name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{}", s.name);
            assert!(s.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|s| s.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(PER_LAYER.iter().all(|s| s.bound.is_none()));
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").expect("setup_s is required");
        let widest = END_TO_END.iter().filter_map(|s| s.bound).fold(0.0, f64::max);
        assert_eq!((setup.unit, setup.better, setup.bound), ("s", Better::Lower, Some(widest)));
    }

    #[test]
    fn benchmark_json_repeats_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = file.get("workloads").and_then(Json::as_arr).expect("workloads");
        let listed: Vec<(&str, &str)> = workloads
            .iter()
            .map(|w| {
                (
                    w.get("name").and_then(Json::as_str).unwrap(),
                    w.get("why").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (key, specs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let entries = file.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(entries.len(), specs.len(), "{key}");
            for (entry, spec) in entries.iter().zip(specs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(spec.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(spec.unit),
                    "{}",
                    spec.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(spec.better.as_str()),
                    "{}",
                    spec.name
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), spec.bound, "{}", spec.name);
            }
        }
    }

    #[test]
    fn the_result_object_has_the_contracts_keys_and_every_listed_metric() {
        let mut o = Outcome { attempted: 7, ..Outcome::default() };
        for s in &END_TO_END {
            o.set(s.name, 1.5);
        }
        let j = o.to_json(&END_TO_END);
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("metrics").unwrap().members().len(), END_TO_END.len());
        // A per-layer metric the workload did not exercise reads 0.
        let layers = Outcome::default().to_json(&PER_LAYER);
        let m = layers.get("metrics").unwrap();
        assert_eq!(m.members().len(), PER_LAYER.len());
        assert_eq!(m.get("core.local.ms").unwrap().get("value"), Some(&Json::Num(0.0)));
    }
}

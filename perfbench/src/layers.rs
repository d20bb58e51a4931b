//! The metric names of `BENCHMARK.json`, and the per-layer accumulator the
//! traced run fills. Every run prints every name of its kind, so a layer a
//! workload does not exercise reads 0 there.

use crate::common::Outcome;
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sim_tasks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("max_rate_rps", "1/s"),
];

/// The engine variants of the fig06 suite, in cell order.
pub use drt_bench::SUITE_VARIANTS;

/// The S-U-C and DRT variants: the ones with a task stream.
pub const TASKGEN_VARIANTS: [&str; 3] = ["extensor", "extensor-op", "extensor-op-drt"];

/// Per-layer metrics: name and unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("core.grid.busy_ms".into(), "ms")];
    for var in TASKGEN_VARIANTS {
        v.push((format!("core.taskgen.{var}.busy_ms"), "ms"));
        v.push((format!("core.taskgen.{var}.plan_calls"), "count"));
        v.push((format!("core.taskgen.{var}.tasks"), "count"));
        v.push((format!("core.taskgen.{var}.useful_frac"), "ratio"));
    }
    for var in SUITE_VARIANTS {
        v.push((format!("accel.run.{var}.busy_ms"), "ms"));
    }
    let rest: &[(&str, &'static str)] = &[
        ("accel.tasks_per_ms", "1/ms"),
        ("accel.suc_sweep.waste_frac", "ratio"),
        ("accel.engine.self_ms", "ms"),
        ("kernels.reference.busy_ms", "ms"),
        ("kernels.reference.maccs", "count"),
        ("tensor.apply_delta.busy_us", "us"),
        ("tensor.apply_delta.dirty_rows", "count"),
        ("accel.incr.busy_ms", "ms"),
        ("accel.incr.executed_frac", "ratio"),
        ("core.plancache.replanned_frac", "ratio"),
        ("accel.scratch.busy_ms", "ms"),
        ("accel.incr.speedup", "x"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.queue_wait_tail_ms", "ms"),
        ("serve.exec_p50_ms", "ms"),
        ("serve.exec_tail_ms", "ms"),
        ("serve.admit_p50_us", "us"),
        ("serve.admit_tail_us", "us"),
        ("serve.memo_hit_frac", "ratio"),
        ("serve.memo_evictions", "count"),
        ("serve.batched_frac", "ratio"),
        ("serve.max_queue_depth", "count"),
        ("serve.shed", "count"),
        ("serve.rejected", "count"),
        ("serve.gen_late_p50_ms", "ms"),
        ("serve.gen_late_max_ms", "ms"),
    ];
    v.extend(rest.iter().map(|&(n, u)| (n.to_string(), u)));
    for layer in SELF_LAYERS {
        v.push((format!("self.{layer}_ms"), "ms"));
    }
    v.push(("trace.overhead_frac".into(), "ratio"));
    v.push(("trace.spans".into(), "count"));
    v
}

/// The layers whose self time the traced run reports: the workspace
/// crates the benchmark calls into, plus its own harness time.
pub const SELF_LAYERS: [&str; 6] = ["harness", "tensor", "core", "kernels", "accel", "serve"];

/// Per-layer values accumulated over a traced run.
#[derive(Debug, Default)]
pub struct LayerAcc {
    vals: BTreeMap<String, f64>,
}

impl LayerAcc {
    /// Add `v` to metric `name`.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.vals.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Set metric `name` to `v`.
    pub fn set(&mut self, name: &str, v: f64) {
        self.vals.insert(name.to_string(), v);
    }

    /// The accumulated value of `name` (0 when never added).
    pub fn get(&self, name: &str) -> f64 {
        self.vals.get(name).copied().unwrap_or(0.0)
    }

    /// `num / den`, or 0 when `den` is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.get(den);
        if d > 0.0 {
            self.get(num) / d
        } else {
            0.0
        }
    }

    /// Emit every per-layer metric into `out`, in `BENCHMARK.json` order.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in per_layer() {
            out.put(&name, self.get(&name), unit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names printed here are the names `BENCHMARK.json` declares, in
    /// the same order, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at =
                            obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(section("per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|&(n, _)| n.to_string()));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
    }
}

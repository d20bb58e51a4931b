//! What the workloads share: the report digest used for correctness
//! checks, the result record and its end-to-end summary, and the host
//! stamp.

use crate::stats::{self, Rng, Tail};
use drt_accel::report::RunReport;
use drt_tensor::CsMatrix;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Least set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Least total set-up time per run, in seconds: cheap set-ups repeat
/// until they fill it.
pub const SETUP_MIN_S: f64 = 3.0;

/// Digest of every modeled output of a report: counters, cycles, modeled
/// seconds, traffic, phases and the functional output, bit for bit.
pub fn digest(r: &RunReport) -> u64 {
    let mut h = DefaultHasher::new();
    r.name.hash(&mut h);
    format!("{:?}", r.traffic).hash(&mut h);
    (r.maccs, r.compute_cycles, r.exposed_extract_cycles, r.seconds.to_bits()).hash(&mut h);
    (r.tasks, r.skipped_tasks).hash(&mut h);
    format!("{:?}{:?}{:?}{:?}", r.actions, r.phases, r.stages, r.degradation).hash(&mut h);
    if let Some(z) = &r.output {
        (z.nrows(), z.ncols(), z.nnz()).hash(&mut h);
        for (i, j, v) in z.iter() {
            (i, j, v.to_bits()).hash(&mut h);
        }
    }
    h.finish()
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A run's outcome: counts, metrics, and human-readable notes printed
/// before the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured phase.
    pub attempted: u64,
    /// Ops that failed: errors, degraded runs, refusals, check mismatches.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Append a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count the closed-loop ops attempted and failed.
    pub fn count(&mut self, samples: &[OpSample]) {
        self.attempted = samples.len() as u64;
        self.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    }

    /// Note the first few failures.
    pub fn failures(&mut self, errors: &[String]) {
        for e in errors.iter().take(5) {
            self.note(format!("FAILED: {e}"));
        }
    }
}

/// One closed-loop op as measured.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// The op's position in its pass or cycle: ops in the same slot of
    /// different passes do the same kind of work.
    pub slot: usize,
    /// Time inside the timed interval.
    pub latency: Duration,
    /// `RunReport::tasks` of the op's result.
    pub tasks: u64,
    /// Passed its correctness check.
    pub ok: bool,
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics of a closed loop with one client. Failed ops
/// count as attempted; only passing ops count as completed.
///
/// Throughput and the median latency are those of the best pass: each
/// slot's fastest latency over the passes stands for the slot. Host noise
/// only adds time, and on a shared host it comes and goes within a run, so
/// the fastest of several passes is the steadiest reading of a slot's
/// cost. The tail is over every op.
pub fn closed_loop_metrics(out: &mut Outcome, setup_s: f64, samples: &[OpSample]) {
    out.count(samples);
    let done = out.attempted - out.failed;
    let slots = samples.iter().map(|s| s.slot + 1).max().unwrap_or(0);
    let (mut best_ms, mut pass_tasks) = (Vec::with_capacity(slots), 0.0);
    for slot in 0..slots {
        let of_slot: Vec<&OpSample> = samples.iter().filter(|s| s.slot == slot).collect();
        best_ms.push(of_slot.iter().map(|s| ms(s.latency)).fold(f64::INFINITY, f64::min));
        pass_tasks += stats::median(&of_slot.iter().map(|s| s.tasks as f64).collect::<Vec<_>>());
    }
    let pass_s = best_ms.iter().sum::<f64>() / 1e3;
    let ok_frac = done as f64 / out.attempted.max(1) as f64;
    let per_s = |x: f64| if pass_s > 0.0 { ok_frac * x / pass_s } else { 0.0 };
    let thr = per_s(slots as f64);
    out.put("setup_s", setup_s, "s");
    out.put("throughput_ops_s", thr, "1/s");
    out.put("latency_p50_ms", stats::median(&best_ms), "ms");
    tail_metric(out, &stats::sorted(samples.iter().map(|s| ms(s.latency)).collect()));
    out.put("sim_tasks_per_s", per_s(pass_tasks), "1/s");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    // A closed loop offers no rate ladder: its one client's sustained rate
    // is the highest it reaches without a backlog.
    out.put("max_rate_rps", thr, "1/s");
    let window: Duration = samples.iter().map(|s| s.latency).sum();
    let rounded: Vec<f64> = best_ms.iter().map(|x| (x * 1e3).round() / 1e3).collect();
    out.note(format!("best pass, ms per slot: {rounded:?}"));
    let passes: Vec<f64> = samples
        .chunks(slots.max(1))
        .map(|p| (p.iter().map(|s| s.latency.as_secs_f64()).sum::<f64>() * 1e3).round() / 1e3)
        .collect();
    out.note(format!("each pass in turn, s: {passes:?}"));
    out.note(format!(
        "timed window {:.3} s over {} ops in {} slots; best pass {:.3} s \
         (checks paused the clock between ops)",
        window.as_secs_f64(),
        samples.len(),
        slots,
        pass_s
    ));
}

/// `latency_tail_ms` of ascending millisecond samples.
pub fn tail_metric(out: &mut Outcome, sorted_ms: &[f64]) {
    match stats::tail(sorted_ms) {
        Some(Tail { pct, value, samples }) => {
            out.put("latency_tail_ms", value, "ms");
            out.note(format!("latency_tail_ms is p{pct:.2} of {samples} samples"));
        }
        None => {
            let max = sorted_ms.last().copied().unwrap_or(0.0);
            out.put("latency_tail_ms", max, "ms");
            out.note(format!(
                "latency_tail_ms is the maximum: {} samples leave no percentile with {} beyond",
                sorted_ms.len(),
                stats::TAIL_BEYOND
            ));
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status` (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host stamp printed with every result.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc {nproc} | cpu {cpu} | commit {}", commit())
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from a plain export, which has none.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: u32, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// `a` with row `r` renamed `rows[r]`, column `c` renamed `cols[c]` (`None`
/// keeps the coordinates) and every value drawn afresh from `rng`. The
/// pattern keeps its shape up to the renaming, so a product of operands
/// relabelled consistently (`P A Q · Qᵀ B R`) does the same multiply work
/// whatever the permutations.
pub fn relabel(
    a: &CsMatrix,
    rows: Option<&[u32]>,
    cols: Option<&[u32]>,
    rng: &mut Rng,
) -> CsMatrix {
    let entries = a
        .iter()
        .map(|(r, c, _)| {
            let r = rows.map_or(r, |p| p[r as usize]);
            let c = cols.map_or(c, |p| p[c as usize]);
            (r, c, 2.0 * rng.unit() - 1.0)
        })
        .collect();
    CsMatrix::from_entries(a.nrows(), a.ncols(), entries, a.major())
}

/// Median wall time of calls of `f`, and the last result: `reps` calls,
/// and while they took less than [`SETUP_MIN_S`] in all, more of them, so
/// a set-up of a fraction of a second is timed often enough to be steady.
/// One call when `reps` is 1.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let start = std::time::Instant::now();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    while times.len() < reps.max(1) || (reps > 1 && start.elapsed().as_secs_f64() < SETUP_MIN_S) {
        let t0 = std::time::Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one set-up"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(slot: usize, latency_ms: u64, ok: bool) -> OpSample {
        OpSample { slot, latency: Duration::from_millis(latency_ms), tasks: 10, ok }
    }

    #[test]
    fn a_consistent_relabelling_keeps_the_multiply_work() {
        let a = drt_workloads::patterns::unstructured(300, 300, 3000, 1.9, 4);
        let mut rng = Rng::new(9, 0);
        let p = permutation(300, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<u32>>());
        let b = relabel(&a, Some(&p), Some(&p), &mut rng);
        assert_eq!(b.nnz(), a.nnz());
        assert_ne!(b, a);
        let (za, zb) =
            (drt_kernels::spmspm::gustavson(&a, &a), drt_kernels::spmspm::gustavson(&b, &b));
        assert_eq!((za.maccs, za.z.nnz()), (zb.maccs, zb.z.nnz()));
        // Same seed, same inputs.
        let mut again = Rng::new(9, 0);
        let q = permutation(300, &mut again);
        assert_eq!(relabel(&a, Some(&q), Some(&q), &mut again), b);
    }

    fn metric(out: &Outcome, name: &str) -> f64 {
        out.metrics.iter().find(|m| m.name == name).expect("metric present").value
    }

    #[test]
    fn closed_loop_throughput_is_that_of_the_best_pass() {
        // Two slots over three passes; the second pass ran during a host
        // slowdown. The best pass takes 90 + 300 ms.
        let samples = [
            op(0, 100, true),
            op(1, 300, true),
            op(0, 500, true),
            op(1, 900, true),
            op(0, 90, true),
            op(1, 300, true),
        ];
        let mut out = Outcome::default();
        closed_loop_metrics(&mut out, 1.5, &samples);
        assert!((metric(&out, "throughput_ops_s") - 2.0 / 0.39).abs() < 1e-9);
        assert!((metric(&out, "sim_tasks_per_s") - 20.0 / 0.39).abs() < 1e-9);
        assert_eq!(metric(&out, "latency_p50_ms"), 300.0, "the best pass's upper median");
        assert_eq!(metric(&out, "max_rate_rps"), metric(&out, "throughput_ops_s"));
        assert_eq!(metric(&out, "setup_s"), 1.5);
        assert_eq!((out.attempted, out.failed), (6, 0));

        // A failed op is attempted but not completed.
        let mut failing = samples;
        failing[2].ok = false;
        let mut out = Outcome::default();
        closed_loop_metrics(&mut out, 1.5, &failing);
        assert_eq!((out.attempted, out.failed), (6, 1));
        assert!((metric(&out, "throughput_ops_s") - 5.0 / 6.0 * 2.0 / 0.39).abs() < 1e-9);
    }
}

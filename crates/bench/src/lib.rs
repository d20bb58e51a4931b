//! # drt-bench — the paper-reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (Section 6),
//! each printing the same rows/series the paper reports. Run with:
//!
//! ```text
//! cargo run -p drt-bench --release --bin fig06_spmspm_square -- --scale 16
//! ```
//!
//! Common flags (parsed by [`BenchOpts::from_args`]):
//!
//! * `--scale N` — divide every matrix's linear dimensions and non-zero
//!   count by `N` (buffers and LLC shrink proportionally so the regimes
//!   match the paper's); `--scale 1` runs full-size Table 3 matrices.
//! * `--seed S` — workload-generation seed.
//! * `--json` — additionally emit machine-readable JSON rows.
//! * `--quick` — shrink workload lists for smoke runs.
//! * `--threads N` — shard each engine run over `N` worker threads.
//!   Without the flag, `DRT_BENCH_THREADS` sets the count (default 1);
//!   an explicit `--threads` always wins. Reports and traces are
//!   bit-identical for every `N` — the engine's deterministic-reduction
//!   contract — so `--threads` only changes wall-clock time.
//! * `--trace FILE` — append a JSONL event trace (one JSON object per
//!   instrumentation event — tile plans, fetches, spills, per-phase
//!   totals) to `FILE` via [`drt_core::probe::JsonlSink`]. Trace rows and
//!   `--json` rows share one formatter, so one parser handles both.
//! * `--keep-going` — on a failing cell, emit an `"error"` JSON row and
//!   continue with the remaining cells; exit nonzero at the end instead
//!   of aborting on the first failure.
//! * `--priority CLASS` — request priority class (`interactive` /
//!   `normal` / `batch`) stamped on every kernel run. Standalone runs
//!   ignore the class (it only orders a server's queue), but the flag
//!   makes fig binaries build the exact [`Request`] structs `drt-serve`
//!   schedules.
//! * `--deadline-ms N` — per-run deadline, measured from dispatch.
//!   A run that exceeds it stops at the next task boundary and reports
//!   as a degraded (error) cell.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use drt_accel::cpu::CpuSpec;
use drt_accel::report::RunOutcome;
use drt_accel::session::Session;
use drt_accel::spec::RunCtx;
use drt_accel::workload::{Priority, Request, Workload};
use drt_core::par::par_map;
use drt_core::probe::{JsonValue, JsonlSink, Probe};
use drt_sim::memory::HierarchySpec;
use std::sync::Arc;
use std::time::Duration;

/// Common command-line options shared by all bench binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Workload down-scaling factor (1 = paper-size).
    pub scale: u32,
    /// Workload generation seed.
    pub seed: u64,
    /// Emit JSON rows in addition to the table.
    pub json: bool,
    /// Smoke-run mode: fewer workloads / sweep points.
    pub quick: bool,
    /// Append a JSONL event trace to this path.
    pub trace: Option<String>,
    /// Worker threads per engine run (sharded execution; 1 = serial).
    /// `None` when `--threads` was not given.
    pub threads: Option<usize>,
    /// Keep running after a failing cell, reporting it as an error row.
    pub keep_going: bool,
    /// Request priority class stamped on every kernel run.
    pub priority: Priority,
    /// Per-run deadline in milliseconds, measured from dispatch.
    pub deadline_ms: Option<u64>,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            scale: 16,
            seed: 42,
            json: false,
            quick: false,
            trace: None,
            threads: None,
            keep_going: false,
            priority: Priority::Normal,
            deadline_ms: None,
        }
    }
}

impl BenchOpts {
    /// Parse from `std::env::args` (unknown flags are ignored). A
    /// `--scale` that is not a positive integer prints the error and exits
    /// with status 2.
    pub fn from_args() -> BenchOpts {
        let args: Vec<String> = std::env::args().skip(1).collect();
        BenchOpts::parse(&args).unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2)
        })
    }

    /// Parse the arguments after the program name. The workloads divide by
    /// `--scale`, so it must be a positive integer; every other flag
    /// ignores a missing or unparsable value.
    fn parse(args: &[String]) -> Result<BenchOpts, String> {
        let mut opts = BenchOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    let value = args.get(i + 1).map(String::as_str).unwrap_or("");
                    opts.scale = value.parse().ok().filter(|&v| v > 0).ok_or_else(|| {
                        format!("--scale takes a positive integer, got {value:?}")
                    })?;
                    i += 1;
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.seed = v;
                        i += 1;
                    }
                }
                "--json" => opts.json = true,
                "--quick" => opts.quick = true,
                "--trace" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.trace = Some(v.clone());
                        i += 1;
                    }
                }
                "--threads" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.threads = Some(v);
                        i += 1;
                    }
                }
                "--keep-going" => opts.keep_going = true,
                "--priority" => {
                    if let Some(p) = args.get(i + 1).and_then(|s| Priority::parse(s)) {
                        opts.priority = p;
                        i += 1;
                    }
                }
                "--deadline-ms" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        opts.deadline_ms = Some(v);
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        Ok(opts)
    }

    /// The accelerator hierarchy at this scale (buffers shrink with the
    /// workloads so the capacity regimes match the paper's).
    pub fn hierarchy(&self) -> HierarchySpec {
        HierarchySpec::default().scaled_down(self.scale as u64)
    }

    /// The CPU baseline at this scale.
    pub fn cpu(&self) -> CpuSpec {
        CpuSpec::default().scaled_down(self.scale as u64)
    }

    /// The instrumentation probe for this run: disabled unless `--trace
    /// FILE` was passed, in which case events append to `FILE` as JSONL.
    pub fn probe(&self) -> Probe {
        match &self.trace {
            None => Probe::disabled(),
            Some(path) => match JsonlSink::append_to(path) {
                Ok(sink) => Probe::new(Arc::new(sink)),
                Err(err) => {
                    eprintln!("warning: cannot open trace file {path}: {err}");
                    Probe::disabled()
                }
            },
        }
    }

    /// The shared run context at this scale: hierarchy, CPU, probe, and
    /// the engine thread count. An explicit `--threads` wins; otherwise
    /// `DRT_BENCH_THREADS` ([`drt_core::par::env_threads`]) sets the
    /// engine thread count, and runs are serial when neither is given.
    pub fn run_ctx(&self) -> RunCtx {
        let threads = self.threads.unwrap_or_else(|| drt_core::par::env_threads().unwrap_or(1));
        RunCtx {
            hier: self.hierarchy(),
            cpu: self.cpu(),
            probe: self.probe(),
            threads,
            ..RunCtx::default()
        }
    }

    /// The per-run request parameters (`--priority` / `--deadline-ms`).
    pub fn request_opts(&self) -> RequestOpts {
        RequestOpts {
            priority: self.priority,
            deadline: self.deadline_ms.map(Duration::from_millis),
        }
    }
}

/// Per-run request parameters shared by every cell of a suite run — the
/// bench-side face of the serving layer's typed request API.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOpts {
    /// Priority class stamped on each request.
    pub priority: Priority,
    /// Deadline measured from dispatch, if any.
    pub deadline: Option<Duration>,
}

impl RequestOpts {
    /// Build the [`Request`] for one workload.
    pub fn wrap(&self, workload: Workload) -> Request {
        let mut req = Request::new(workload).with_priority(self.priority);
        if let Some(d) = self.deadline {
            req = req.with_deadline(d);
        }
        req
    }
}

/// Results of the standard four-engine suite on one operand pair.
#[derive(Debug)]
pub struct SuiteCell {
    /// CPU MKL-like baseline (§5.2.1 reference kernel).
    pub base: drt_accel::report::RunReport,
    /// ExTensor.
    pub ext: drt_accel::report::RunReport,
    /// ExTensor-OP.
    pub op: drt_accel::report::RunReport,
    /// ExTensor-OP-DRT.
    pub drt: drt_accel::report::RunReport,
}

/// The registry names of the standard four-variant suite, in cell order.
pub const SUITE_VARIANTS: [&str; 4] = ["cpu-mkl", "extensor", "extensor-op", "extensor-op-drt"];

/// Run one typed [`Request`] against a registered variant — the exact
/// structs and execution path ([`Session::execute`]) the `drt-serve`
/// layer uses, so bench cells and served requests are bit-identical by
/// construction. Degraded outcomes (deadline, budget) map to a
/// printable error naming the variant.
///
/// # Errors
///
/// Unknown variant names, run failures, and degradations.
pub fn try_run_request(
    name: &str,
    req: &Request,
    ctx: &RunCtx,
) -> Result<drt_accel::report::RunReport, String> {
    let session =
        Session::from_registry(name).map_err(|e| e.to_string())?.with_run_ctx(ctx.clone());
    match session.execute(req) {
        Ok(RunOutcome::Complete(r)) => Ok(r),
        Ok(RunOutcome::Degraded(r)) => {
            let why = r.degradation.map(|d| d.detail).unwrap_or_else(|| "unknown".into());
            Err(format!("{name}: run degraded: {why}"))
        }
        Err(e) => Err(format!("{name}: {e}")),
    }
}

/// Run the standard four-variant suite over independent operand pairs,
/// fanning the (variant × dataset) cells out over worker threads via
/// [`par_map`]; results come back in input order, so table rows and
/// `--json` output are deterministic regardless of thread scheduling.
/// Every cell goes through [`try_run_request`] — the serving layer's
/// execution path — on a per-pair `Arc`-shared workload (the four
/// variant cells of a pair clone the operands once, not per cell).
///
/// A row is `Err` when any of its four variant runs fails (or degrades),
/// or when the DRT output diverges from the CPU reference (the §5.2.1
/// functional cross-check, also fanned out); the remaining rows still
/// compute. Under `--keep-going` the caller prints error rows; otherwise
/// it panics on the first `Err` — a bench run with a broken engine must
/// not report numbers.
pub fn try_run_suite_cells_req(
    pairs: &[(String, drt_tensor::CsMatrix, drt_tensor::CsMatrix)],
    ctx: &RunCtx,
    req: &RequestOpts,
) -> Vec<Result<SuiteCell, String>> {
    let workloads: Vec<Workload> =
        pairs.iter().map(|(_, a, b)| Workload::spmspm(a.clone(), b.clone())).collect();
    let cells: Vec<(usize, usize)> =
        (0..pairs.len()).flat_map(|w| (0..SUITE_VARIANTS.len()).map(move |e| (w, e))).collect();
    let reports = par_map(&cells, |_, &(w, e)| {
        let (label, _, _) = &pairs[w];
        let name = SUITE_VARIANTS[e];
        try_run_request(name, &req.wrap(workloads[w].clone()), ctx)
            .map_err(|err| format!("{label}: {err}"))
    });
    let mut it = reports.into_iter();
    let mut out: Vec<Result<SuiteCell, String>> = (0..pairs.len())
        .map(|_| {
            let (base, ext, op, drt) = (
                it.next().expect("cell"),
                it.next().expect("cell"),
                it.next().expect("cell"),
                it.next().expect("cell"),
            );
            Ok(SuiteCell { base: base?, ext: ext?, op: op?, drt: drt? })
        })
        .collect();
    // Functional cross-check (the paper's MKL validation), fanned out too:
    // output comparison is O(nnz) per workload and independent per cell.
    let idx: Vec<usize> = (0..pairs.len()).collect();
    let diverged = par_map(&idx, |_, &w| {
        let Ok(c) = &out[w] else { return None };
        let (Some(got), Some(want)) = (c.drt.output.as_ref(), c.base.output.as_ref()) else {
            return Some(format!("{}: functional output missing", pairs[w].0));
        };
        (!got.approx_eq(want, 1e-6))
            .then(|| format!("{}: accelerator output diverges from CPU reference", pairs[w].0))
    });
    for (w, bad) in diverged.into_iter().enumerate() {
        if let Some(msg) = bad {
            out[w] = Err(msg);
        }
    }
    out
}

/// Geometric mean of positive finite values (the paper's summary
/// statistic).
pub fn geomean(xs: &[f64]) -> f64 {
    let vals: Vec<f64> = xs.iter().copied().filter(|&x| x > 0.0 && x.is_finite()).collect();
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|x| x.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// Print a figure/table banner.
pub fn banner(title: &str, opts: &BenchOpts) {
    println!("{}", "=".repeat(78));
    println!("{title}");
    println!(
        "scale = {} | seed = {}{}",
        opts.scale,
        opts.seed,
        if opts.quick { " | quick" } else { "" }
    );
    println!("{}", "=".repeat(78));
}

/// A JSON scalar for machine-readable rows (hand-rolled so the harness
/// stays dependency-free). Owned variant of the core probe layer's
/// [`JsonValue`]; both render through the same formatter.
#[derive(Debug, Clone)]
pub enum JsonVal {
    /// A string value.
    S(String),
    /// A float value.
    F(f64),
    /// An unsigned integer value.
    U(u64),
}

/// Render one machine-readable row (without the `JSON ` prefix), using the
/// same formatter — [`drt_core::probe::write_json_fields`] — as the JSONL
/// event traces, so bench rows and trace rows share escaping and number
/// formatting.
fn json_row(fields: &[(&str, JsonVal)]) -> String {
    let borrowed: Vec<(&str, JsonValue<'_>)> = fields
        .iter()
        .map(|(k, v)| {
            let jv = match v {
                JsonVal::S(x) => JsonValue::S(x.as_str()),
                JsonVal::F(x) => JsonValue::F(*x),
                JsonVal::U(x) => JsonValue::U(*x),
            };
            (*k, jv)
        })
        .collect();
    let mut s = String::new();
    drt_core::probe::write_json_fields(&mut s, &borrowed);
    s
}

/// Emit one machine-readable row when `--json` was passed.
pub fn emit_json(opts: &BenchOpts, fields: &[(&str, JsonVal)]) {
    if !opts.json {
        return;
    }
    println!("JSON {}", json_row(fields));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, f64::INFINITY, 0.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_hierarchy_shrinks_buffers() {
        let o = BenchOpts { scale: 16, ..BenchOpts::default() };
        let h = o.hierarchy();
        assert_eq!(h.llb.capacity_bytes, 30 * 1024 * 1024 / 16);
        let c = o.cpu();
        assert_eq!(c.llc_bytes, 30 * 1024 * 1024 / 16);
    }

    #[test]
    fn default_opts_sane() {
        let o = BenchOpts::default();
        assert!(o.scale >= 1);
        assert!(!o.json);
        assert!(o.trace.is_none());
        assert!(!o.probe().is_enabled());
    }

    #[test]
    fn scale_must_be_a_positive_integer() {
        let parse = |args: &[&str]| {
            BenchOpts::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&["--scale", "4", "--quick"]).map(|o| (o.scale, o.quick)), Ok((4, true)));
        for bad in [&["--scale", "0"][..], &["--scale", "-2"], &["--scale", "x"], &["--scale"]] {
            let err = parse(bad).expect_err("rejected");
            assert!(err.contains("--scale"), "{err}");
        }
        // The other flags still skip a value they cannot parse.
        let o = parse(&["--seed", "x", "--threads", "2"]).expect("parses");
        assert_eq!((o.seed, o.threads), (BenchOpts::default().seed, Some(2)));
    }

    #[test]
    fn json_rows_escape_strings() {
        let row = json_row(&[
            ("figure", JsonVal::S("fig\"06\\x".into())),
            ("speedup", JsonVal::F(1.5)),
            ("tasks", JsonVal::U(3)),
        ]);
        assert_eq!(row, "{\"figure\": \"fig\\\"06\\\\x\", \"speedup\": 1.5, \"tasks\": 3}");
        // Control characters become \uXXXX like the trace sink's rows.
        let ctrl = json_row(&[("s", JsonVal::S("a\nb\u{1}".into()))]);
        assert_eq!(ctrl, "{\"s\": \"a\\nb\\u0001\"}");
    }

    #[test]
    fn explicit_threads_always_win() {
        // Whatever DRT_BENCH_THREADS holds, an explicit `--threads` value
        // (including 1) is the engine thread count.
        for n in [1usize, 3] {
            let o = BenchOpts { threads: Some(n), ..BenchOpts::default() };
            assert_eq!(o.run_ctx().threads, n);
        }
        let unset = BenchOpts::default().run_ctx().threads;
        assert_eq!(unset, drt_core::par::env_threads().unwrap_or(1));
    }

    #[test]
    fn suite_variants_all_registered() {
        let reg = drt_accel::spec::Registry::standard();
        for name in SUITE_VARIANTS {
            assert!(reg.get(name).is_some(), "{name} must be in the registry");
        }
    }
}

//! The randomized differential driver: every registry variant × thread
//! count, against the dense oracle and the model invariants, over the seeded workload corpus — with greedy shrinking
//! and `.mtx` reproducer emission on failure.

use crate::invariants::{check_engine_stream, check_report};
use crate::oracle::{accumulation_tolerance, compare_to_dense_tol, dense_spmspm};
use crate::shrink::{shrink, write_reproducer};
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, Registry};
use drt_accel::workload::{Request, Workload};
use drt_kernels::spmspm::gustavson;
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use drt_workloads::corpus::differential_pairs;
use std::path::PathBuf;

/// Default ULP tolerance for output comparison. The engine merges partial
/// products in deterministic task order, which can differ from the dense
/// oracle's accumulation order, so bitwise equality is too strict — but
/// reassociation of a handful of partials stays within a few ULP at these
/// scales.
pub const DEFAULT_MAX_ULP: u64 = 512;

/// Driver configuration (mirrors the `verify` binary's flags).
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Base seed for the workload corpus.
    pub seed: u64,
    /// Corpus repetitions; iteration `i` uses seed `seed + 1000·i`.
    pub iters: usize,
    /// Quick mode: smaller corpus, fewer sizes (the CI gate).
    pub quick: bool,
    /// ULP tolerance for functional output comparison.
    pub max_ulp: u64,
    /// Thread counts to run each variant at.
    pub threads: Vec<usize>,
    /// Where to write `.mtx` reproducers for shrunk failures
    /// (`None` = don't emit files).
    pub reproducer_dir: Option<PathBuf>,
}

impl Default for VerifyOptions {
    fn default() -> VerifyOptions {
        VerifyOptions {
            seed: 0,
            iters: 1,
            quick: false,
            max_ulp: DEFAULT_MAX_ULP,
            threads: vec![1, 4],
            reproducer_dir: None,
        }
    }
}

/// One verified failure, after shrinking.
#[derive(Debug)]
pub struct Failure {
    /// Registry variant name.
    pub variant: String,
    /// Corpus workload label.
    pub workload: String,
    /// Thread-count label of the failing run.
    pub exec: String,
    /// The (shrunk) failure description.
    pub detail: String,
    /// Shrunk operand shapes, `(a_rows, a_cols, b_cols, a_nnz, b_nnz)`.
    pub shrunk_shape: (u32, u32, u32, usize, usize),
    /// Reproducer file paths, when emission was requested and succeeded.
    pub reproducer: Option<(PathBuf, PathBuf)>,
}

/// Aggregate outcome of a driver invocation.
#[derive(Debug, Default)]
pub struct VerifySummary {
    /// Variant runs checked (variant × workload × thread count).
    pub runs: usize,
    /// Failures found, shrunk, and (optionally) written out.
    pub failures: Vec<Failure>,
}

impl VerifySummary {
    /// Whether every checked run passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The hierarchy verification runs against: the default spec scaled down
/// so the corpus's small workloads still tile into multiple tasks.
pub fn verify_hierarchy() -> HierarchySpec {
    HierarchySpec::default().scaled_down(256)
}

/// Check one variant on one workload at one thread count: run it,
/// compare any functional output against the dense oracle, and check
/// every model invariant. `None` = clean; `Some(msg)` = first violation.
pub fn check_variant(
    spec: &AccelSpec,
    a: &CsMatrix,
    b: &CsMatrix,
    threads: usize,
    max_ulp: u64,
) -> Option<String> {
    let session = Session::new(spec.clone()).hierarchy(&verify_hierarchy()).threads(threads);
    // The sweep runs through the typed-request path (`Session::execute`)
    // — the same entry the serving layer dispatches — so the unified
    // Workload/Request surface stays under the oracle's eye for
    // every variant. A default request executes exactly like
    // `run_spmspm`, bit for bit.
    let req = Request::new(Workload::spmspm(a.clone(), b.clone()));
    let report = match session.execute(&req) {
        Ok(outcome) => outcome.into_report(),
        Err(e) => return Some(format!("{}: run failed: {e}", spec.name)),
    };
    let reference = dense_spmspm(a, b);
    if let Some(out) = report.output.as_ref() {
        let tol = accumulation_tolerance(a, b);
        if let Some(msg) = compare_to_dense_tol(out, &reference, &tol, max_ulp) {
            return Some(format!("{}: output disagrees with oracle: {msg}", spec.name));
        }
    }
    let oracle_z = gustavson(a, b).z;
    let violations = check_report(&report, a, b, &oracle_z, &spec.size_model);
    if let Some(v) = violations.into_iter().next() {
        return Some(v);
    }
    match session.resolved_engine_config(a, b) {
        Ok(Some(cfg)) => check_engine_stream(&report, a, b, &cfg).into_iter().next(),
        Ok(None) => None,
        Err(e) => Some(format!("{}: config resolution failed: {e}", spec.name)),
    }
}

/// Run the full differential sweep: the SpMSpM registry sweep plus the
/// staged-pipeline differentials ([`crate::pipelines::verify_pipelines`]).
/// Failures are shrunk with the same property that detected them, then
/// written as `.mtx` reproducers when a directory is configured.
pub fn verify_all(opts: &VerifyOptions) -> VerifySummary {
    let registry = Registry::standard();
    let mut summary = VerifySummary::default();
    for iter in 0..opts.iters.max(1) {
        let seed = opts.seed.wrapping_add(1000 * iter as u64);
        for pair in differential_pairs(seed, opts.quick) {
            for spec in registry.iter() {
                for &threads in &opts.threads {
                    summary.runs += 1;
                    let fail = check_variant(spec, &pair.a, &pair.b, threads, opts.max_ulp);
                    let Some(_) = fail else { continue };
                    let prop = |a: &CsMatrix, b: &CsMatrix| {
                        check_variant(spec, a, b, threads, opts.max_ulp)
                    };
                    let shrunk = shrink(&pair.a, &pair.b, &prop);
                    let exec_label = format!("t{threads}");
                    let stem = format!("{}-{}-{exec_label}", spec.name, sanitize(&pair.label));
                    let reproducer = opts
                        .reproducer_dir
                        .as_ref()
                        .and_then(|dir| write_reproducer(dir, &stem, &shrunk.a, &shrunk.b).ok());
                    summary.failures.push(Failure {
                        variant: spec.name.clone(),
                        workload: pair.label.clone(),
                        exec: exec_label,
                        detail: shrunk.failure.clone(),
                        shrunk_shape: (
                            shrunk.a.nrows(),
                            shrunk.a.ncols(),
                            shrunk.b.ncols(),
                            shrunk.a.nnz(),
                            shrunk.b.nnz(),
                        ),
                        reproducer,
                    });
                }
            }
        }
    }
    let pipelines = crate::pipelines::verify_pipelines(opts);
    summary.runs += pipelines.runs;
    summary.failures.extend(pipelines.failures);
    let deltas = crate::deltas::verify_deltas(opts);
    summary.runs += deltas.runs;
    summary.failures.extend(deltas.failures);
    summary
}

fn sanitize(label: &str) -> String {
    label.chars().map(|c| if c.is_alphanumeric() || c == '-' { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every registry variant must pass oracle + invariants on a small
    /// corpus at both thread counts — the in-tree version of the CI gate.
    #[test]
    fn registry_passes_quick_sweep() {
        let opts = VerifyOptions { quick: true, iters: 1, ..VerifyOptions::default() };
        let summary = verify_all(&opts);
        assert!(summary.runs > 0);
        assert!(
            summary.passed(),
            "{} failures, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }
}

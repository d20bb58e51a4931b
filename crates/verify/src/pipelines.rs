//! Differential verification of the staged pipelines: MTTKRP, TTV and
//! Gram over CSF, the fused SDDMM→SpMM layer, and the A·B·C chain, each
//! checked against its dense oracle, its model invariants, and
//! thread-count independence — with tensor workloads shrunk through
//! [`Tensor3Gen`] parameter candidates on failure.
//!
//! Multi-stage and tensor pipelines run through serial modeled streams,
//! so their reports must be *bit-identical* across thread counts (a
//! stronger property than the engine's deterministic reduction). Fused
//! variants must also model strictly less total traffic than their
//! unfused baselines whenever the inter-stage intermediate is non-empty.

use crate::driver::{verify_hierarchy, Failure, VerifyOptions, VerifySummary};
use crate::invariants::check_pipeline_report;
use crate::oracle::{
    compare_to_dense_tol, dense_abc, dense_gram, dense_mttkrp, dense_sddmm_spmm, dense_ttv,
};
use drt_accel::pipeline::{PipelineInput, PipelineSpec};
use drt_accel::report::{RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, Registry, SpecKind};
use drt_accel::workload::WorkloadRef;
use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix, MajorAxis};
use drt_workloads::patterns::unstructured;
use drt_workloads::tensor3::{dense_factor, Tensor3Gen};

/// Factor rank used for MTTKRP and SDDMM factors in the sweep.
const FACTOR_RANK: u32 = 4;

/// The engine-backed registry variants pipelines are differentially
/// checked on: one DRT and one swept-S-U-C discipline cover both
/// task-generation paths (quick mode), the full sweep adds the rest of
/// the engine-backed registry.
fn pipeline_panel(quick: bool) -> Vec<AccelSpec> {
    let engine: Vec<AccelSpec> = Registry::standard()
        .iter()
        .filter(|s| matches!(s.kind, SpecKind::Engine(_)))
        .cloned()
        .collect();
    if !quick {
        return engine;
    }
    let mut panel: Vec<AccelSpec> = Vec::new();
    for name in ["extensor-op-drt", "extensor-op"] {
        if let Some(s) = engine.iter().find(|s| s.name == name) {
            panel.push(s.clone());
        }
    }
    if panel.is_empty() {
        engine.into_iter().take(2).collect()
    } else {
        panel
    }
}

/// The tensor workload recipes for one corpus seed.
fn tensor_gens(seed: u64, quick: bool) -> Vec<Tensor3Gen> {
    let mut gens = vec![
        Tensor3Gen::mode_skewed(24, 20, 22, 500, seed),
        Tensor3Gen::hyper_sparse_uniform(20, 20, 20, 220, seed.wrapping_add(1)),
    ];
    if !quick {
        gens.push(Tensor3Gen::mode_skewed(40, 32, 36, 1800, seed.wrapping_add(2)));
        gens.push(Tensor3Gen::hyper_sparse_uniform(48, 40, 44, 700, seed.wrapping_add(3)));
    }
    gens
}

fn abs_dense(m: &DenseMatrix) -> DenseMatrix {
    let mut out = DenseMatrix::zeros(m.nrows(), m.ncols());
    for i in 0..m.nrows() {
        for j in 0..m.ncols() {
            out.set(i, j, m.get(i, j).abs());
        }
    }
    out
}

fn abs_sparse(m: &CsMatrix) -> CsMatrix {
    abs_dense(&DenseMatrix::from_sparse(m)).to_sparse(MajorAxis::Row)
}

fn abs_tensor(x: &CsfTensor) -> CsfTensor {
    let pts: Vec<(Vec<u32>, f64)> = x.iter_points().map(|(p, v)| (p, v.abs())).collect();
    let refs: Vec<(&[u32], f64)> = pts.iter().map(|(p, v)| (p.as_slice(), *v)).collect();
    CsfTensor::from_points(x.shape().to_vec(), &refs).expect("abs tensor rebuild")
}

/// Scale an absolute-value bound into a per-cell tolerance:
/// `4 · depth · ε · bound`, the same `γ` shape as
/// [`crate::oracle::accumulation_tolerance`] generalized to an arbitrary
/// accumulation depth.
fn scaled_tolerance(bound: &DenseMatrix, depth: f64) -> DenseMatrix {
    let gamma = 4.0 * depth.max(2.0) * f64::EPSILON;
    let mut tol = DenseMatrix::zeros(bound.nrows(), bound.ncols());
    for i in 0..bound.nrows() {
        for j in 0..bound.ncols() {
            tol.set(i, j, gamma * bound.get(i, j));
        }
    }
    tol
}

/// Run `pipe` on every requested thread count, check the pipeline report
/// invariants, and demand bit-identical reports across thread counts.
/// Returns the (first) report on success.
fn run_threads(
    spec: &AccelSpec,
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    threads: &[usize],
) -> Result<RunReport, String> {
    let mut first: Option<(usize, RunReport)> = None;
    for &t in threads {
        let session = Session::new(spec.clone()).hierarchy(&verify_hierarchy()).threads(t);
        let report = session
            .run_ref(WorkloadRef::Pipeline { input, pipe })
            .map(RunOutcome::into_report)
            .map_err(|e| format!("{}+{}: run failed at t{t}: {e}", spec.name, pipe.name))?;
        if let Some(v) = check_pipeline_report(&report).into_iter().next() {
            return Err(format!("{}+{} at t{t}: {v}", spec.name, pipe.name));
        }
        match &first {
            None => first = Some((t, report)),
            Some((t0, r0)) => {
                if let Some(d) = r0.bit_diff(&report) {
                    return Err(format!(
                        "{}+{}: report differs between t{t0} and t{t}: {d}",
                        spec.name, pipe.name
                    ));
                }
            }
        }
    }
    Ok(first.expect("at least one thread count").1)
}

/// Check a fused pipeline against its unfused baseline: strictly less
/// total modeled traffic (the intermediates here are always non-empty by
/// workload construction).
fn check_fusion_win(
    spec: &AccelSpec,
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    fused: &RunReport,
) -> Result<(), String> {
    let session = Session::new(spec.clone()).hierarchy(&verify_hierarchy());
    let unfused = session
        .run_ref(WorkloadRef::Pipeline { input, pipe: &pipe.clone().unfused() })
        .map(RunOutcome::into_report)
        .map_err(|e| format!("{}+{}: unfused baseline failed: {e}", spec.name, pipe.name))?;
    if fused.traffic.total() >= unfused.traffic.total() {
        return Err(format!(
            "{}+{}: fused traffic {} not below unfused {}",
            spec.name,
            pipe.name,
            fused.traffic.total(),
            unfused.traffic.total()
        ));
    }
    Ok(())
}

fn compare_output(
    report: &RunReport,
    want: &DenseMatrix,
    tol: &DenseMatrix,
    max_ulp: u64,
    what: &str,
) -> Result<(), String> {
    let out = report
        .output
        .as_ref()
        .ok_or_else(|| format!("{}: {what} produced no functional output", report.name))?;
    compare_to_dense_tol(out, want, tol, max_ulp)
        .map_or(Ok(()), |msg| Err(format!("{}: {what} disagrees with oracle: {msg}", report.name)))
}

/// MTTKRP differential: run on every thread count, compare `M` against
/// [`dense_mttkrp`] under an accumulation-depth tolerance, and pin the
/// MACC identity. `None` = clean.
pub fn check_mttkrp(
    spec: &AccelSpec,
    gen: &Tensor3Gen,
    threads: &[usize],
    max_ulp: u64,
) -> Option<String> {
    let x = gen.generate();
    let b = dense_factor(x.shape()[1], FACTOR_RANK, gen.seed.wrapping_add(101));
    let c = dense_factor(x.shape()[2], FACTOR_RANK, gen.seed.wrapping_add(202));
    let pipe = PipelineSpec::mttkrp(b.clone(), c.clone());
    let run = || -> Result<(), String> {
        let report = run_threads(spec, PipelineInput::Tensor(&x), &pipe, threads)?;
        if report.maccs != drt_kernels::mttkrp::mttkrp_maccs(&x, FACTOR_RANK) {
            return Err(format!(
                "{}: MACCs {} differ from the kernel identity {}",
                report.name,
                report.maccs,
                drt_kernels::mttkrp::mttkrp_maccs(&x, FACTOR_RANK)
            ));
        }
        let want = dense_mttkrp(&x, &b, &c);
        let bound = dense_mttkrp(&abs_tensor(&x), &abs_dense(&b), &abs_dense(&c));
        let depth = 2.0 * x.shape()[1] as f64 * x.shape()[2] as f64;
        compare_output(&report, &want, &scaled_tolerance(&bound, depth), max_ulp, "MTTKRP")
    };
    run().err()
}

/// TTV differential: compare `Y` against [`dense_ttv`] under a
/// contraction-depth tolerance, and pin one MACC per non-zero.
pub fn check_ttv(
    spec: &AccelSpec,
    gen: &Tensor3Gen,
    threads: &[usize],
    max_ulp: u64,
) -> Option<String> {
    let x = gen.generate();
    let nk = x.shape()[2];
    let v: Vec<f64> = (0..nk).map(|k| 0.375 + k as f64 * 0.0625).collect();
    let pipe = PipelineSpec::ttv(v.clone());
    let run = || -> Result<(), String> {
        let report = run_threads(spec, PipelineInput::Tensor(&x), &pipe, threads)?;
        if report.maccs != x.nnz() as u64 {
            return Err(format!(
                "{}: MACCs {} differ from nnz {}",
                report.name,
                report.maccs,
                x.nnz()
            ));
        }
        let want = dense_ttv(&x, &v);
        let av: Vec<f64> = v.iter().map(|x| x.abs()).collect();
        let bound = dense_ttv(&abs_tensor(&x), &av);
        compare_output(&report, &want, &scaled_tolerance(&bound, nk as f64), max_ulp, "TTV")
    };
    run().err()
}

/// Gram differential: compare `G` against [`dense_gram`] under a
/// contraction-depth tolerance, and pin the MACC identity. Runs on any
/// Gram-capable spec: DRT engine specs (the stage loop), static-tiling
/// engine specs (the closed-form S-U-C sweep) and `cpu-mkl` (TACO).
pub fn check_gram(
    spec: &AccelSpec,
    gen: &Tensor3Gen,
    threads: &[usize],
    max_ulp: u64,
) -> Option<String> {
    let x = gen.generate();
    let pipe = PipelineSpec::gram();
    let run = || -> Result<(), String> {
        let report = run_threads(spec, PipelineInput::Tensor(&x), &pipe, threads)?;
        let want_maccs = drt_kernels::gram::gram_maccs(&x);
        if report.maccs != want_maccs {
            return Err(format!(
                "{}: MACCs {} differ from the kernel identity {want_maccs}",
                report.name, report.maccs
            ));
        }
        let want = dense_gram(&x);
        let bound = dense_gram(&abs_tensor(&x));
        let depth = x.shape()[1] as f64 * x.shape()[2] as f64;
        compare_output(&report, &want, &scaled_tolerance(&bound, depth), max_ulp, "Gram")
    };
    run().err()
}

/// A·B·C chain differential: fused output against [`dense_abc`], plus
/// the fused-beats-unfused traffic property.
pub fn check_abc(
    spec: &AccelSpec,
    a: &CsMatrix,
    b: &CsMatrix,
    c: &CsMatrix,
    threads: &[usize],
    max_ulp: u64,
) -> Option<String> {
    let pipe = PipelineSpec::abc(b.clone(), c.clone());
    let run = || -> Result<(), String> {
        let report = run_threads(spec, PipelineInput::Matrix(a), &pipe, threads)?;
        check_fusion_win(spec, PipelineInput::Matrix(a), &pipe, &report)?;
        let want = dense_abc(a, b, c);
        let bound = dense_abc(&abs_sparse(a), &abs_sparse(b), &abs_sparse(c));
        let depth = (a.ncols() + b.ncols()) as f64;
        compare_output(&report, &want, &scaled_tolerance(&bound, depth), max_ulp, "A·B·C")
    };
    run().err()
}

/// Fused SDDMM→SpMM differential: fused output against
/// [`dense_sddmm_spmm`], plus the fused-beats-unfused traffic property.
pub fn check_sddmm_spmm(
    spec: &AccelSpec,
    a: &CsMatrix,
    u: &DenseMatrix,
    v: &DenseMatrix,
    h: &DenseMatrix,
    threads: &[usize],
    max_ulp: u64,
) -> Option<String> {
    let pipe = PipelineSpec::sddmm_spmm(u.clone(), v.clone(), h.clone());
    let run = || -> Result<(), String> {
        let report = run_threads(spec, PipelineInput::Matrix(a), &pipe, threads)?;
        check_fusion_win(spec, PipelineInput::Matrix(a), &pipe, &report)?;
        let want = dense_sddmm_spmm(a, u, v, h);
        let bound = dense_sddmm_spmm(&abs_sparse(a), &abs_dense(u), &abs_dense(v), &abs_dense(h));
        let depth = (u.ncols() + a.ncols()) as f64;
        compare_output(&report, &want, &scaled_tolerance(&bound, depth), max_ulp, "SDDMM→SpMM")
    };
    run().err()
}

/// Greedy shrink over [`Tensor3Gen::shrink_candidates`]: walk to the
/// smallest generator recipe that still fails `prop`.
fn shrink_tensor(
    gen: Tensor3Gen,
    detail: String,
    prop: impl Fn(&Tensor3Gen) -> Option<String>,
) -> (Tensor3Gen, String) {
    let mut cur = (gen, detail);
    loop {
        let next =
            cur.0.shrink_candidates().into_iter().find_map(|cand| prop(&cand).map(|d| (cand, d)));
        match next {
            Some(smaller) => cur = smaller,
            None => return cur,
        }
    }
}

fn tensor_failure(spec: &AccelSpec, pipeline: &str, gen: Tensor3Gen, detail: String) -> Failure {
    Failure {
        variant: spec.name.clone(),
        workload: format!("{pipeline}:{}", gen.label()),
        exec: "serial-modeled".into(),
        detail,
        shrunk_shape: (gen.i, gen.j, gen.k, gen.nnz, 0),
        reproducer: None,
    }
}

fn matrix_failure(
    spec: &AccelSpec,
    pipeline: &str,
    label: String,
    a: &CsMatrix,
    detail: String,
) -> Failure {
    Failure {
        variant: spec.name.clone(),
        workload: format!("{pipeline}:{label}"),
        exec: "serial-modeled".into(),
        detail,
        shrunk_shape: (a.nrows(), a.ncols(), 0, a.nnz(), 0),
        reproducer: None,
    }
}

/// Run the pipeline differential sweep: every panel variant × workload
/// recipe × pipeline, at every requested thread count, plus Gram on the
/// panel and `cpu-mkl`. Tensor failures are shrunk through generator
/// parameter candidates before reporting.
pub fn verify_pipelines(opts: &VerifyOptions) -> VerifySummary {
    let panel = pipeline_panel(opts.quick);
    let gram_panel: Vec<AccelSpec> =
        panel.iter().chain(Registry::standard().get("cpu-mkl")).cloned().collect();
    let mut summary = VerifySummary::default();
    for iter in 0..opts.iters.max(1) {
        let seed = opts.seed.wrapping_add(1000 * iter as u64);
        // Gram on the first tensor recipe, every Gram-capable machine.
        let gram_gen = tensor_gens(seed, opts.quick).swap_remove(0);
        for spec in &gram_panel {
            summary.runs += 1;
            if let Some(detail) = check_gram(spec, &gram_gen, &opts.threads, opts.max_ulp) {
                let (shrunk, detail) = shrink_tensor(gram_gen, detail, |g| {
                    check_gram(spec, g, &opts.threads, opts.max_ulp)
                });
                summary.failures.push(tensor_failure(spec, "gram", shrunk, detail));
            }
        }
        for spec in &panel {
            // Tensor pipelines: MTTKRP on every recipe, TTV on the first.
            for (gi, gen) in tensor_gens(seed, opts.quick).into_iter().enumerate() {
                summary.runs += 1;
                if let Some(detail) = check_mttkrp(spec, &gen, &opts.threads, opts.max_ulp) {
                    let (shrunk, detail) = shrink_tensor(gen, detail, |g| {
                        check_mttkrp(spec, g, &opts.threads, opts.max_ulp)
                    });
                    summary.failures.push(tensor_failure(spec, "mttkrp", shrunk, detail));
                }
                if gi == 0 {
                    summary.runs += 1;
                    if let Some(detail) = check_ttv(spec, &gen, &opts.threads, opts.max_ulp) {
                        let (shrunk, detail) = shrink_tensor(gen, detail, |g| {
                            check_ttv(spec, g, &opts.threads, opts.max_ulp)
                        });
                        summary.failures.push(tensor_failure(spec, "ttv", shrunk, detail));
                    }
                }
            }

            // Matrix pipelines: one A·B·C chain and one SDDMM→SpMM layer
            // per seed.
            let a = unstructured(48, 48, 420, 2.0, seed.wrapping_add(11));
            let b = unstructured(48, 48, 420, 2.0, seed.wrapping_add(12));
            let c = unstructured(48, 48, 420, 2.0, seed.wrapping_add(13));
            summary.runs += 1;
            if let Some(detail) = check_abc(spec, &a, &b, &c, &opts.threads, opts.max_ulp) {
                summary.failures.push(matrix_failure(
                    spec,
                    "abc",
                    format!("unstructured-48/s{seed}"),
                    &a,
                    detail,
                ));
            }

            let s = unstructured(40, 32, 260, 2.0, seed.wrapping_add(21));
            let u = dense_factor(40, FACTOR_RANK, seed.wrapping_add(22));
            let v = dense_factor(32, FACTOR_RANK, seed.wrapping_add(23));
            let h = dense_factor(32, 5, seed.wrapping_add(24));
            summary.runs += 1;
            if let Some(detail) =
                check_sddmm_spmm(spec, &s, &u, &v, &h, &opts.threads, opts.max_ulp)
            {
                summary.failures.push(matrix_failure(
                    spec,
                    "sddmm-spmm",
                    format!("unstructured-40x32/s{seed}"),
                    &s,
                    detail,
                ));
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pipeline half of the CI gate: every panel variant passes every
    /// pipeline differential on the quick corpus at threads {1, 4}.
    #[test]
    fn pipelines_pass_quick_sweep() {
        let opts = VerifyOptions { quick: true, iters: 1, ..VerifyOptions::default() };
        let summary = verify_pipelines(&opts);
        assert!(summary.runs > 0);
        assert!(
            summary.passed(),
            "{} failures, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }

    /// The tensor shrinker walks toward the minimum on an always-failing
    /// property and stops at the parameter floor.
    #[test]
    fn tensor_shrink_reaches_parameter_floor() {
        let gen = Tensor3Gen::mode_skewed(32, 32, 32, 800, 1);
        let (shrunk, detail) = shrink_tensor(gen, "always".into(), |_| Some("always".into()));
        assert_eq!(detail, "always");
        assert!(shrunk.i <= 4 && shrunk.j <= 4 && shrunk.k <= 4);
        assert_eq!(shrunk.nnz, 1);
    }

    /// A fused SDDMM→SpMM run whose traffic is inflated to match the
    /// unfused baseline is flagged by the fusion-win check.
    #[test]
    fn fusion_win_check_rejects_non_improving_fused_run() {
        let spec = AccelSpec::extensor_op_drt();
        let a = unstructured(40, 32, 260, 2.0, 31);
        let u = dense_factor(40, FACTOR_RANK, 32);
        let v = dense_factor(32, FACTOR_RANK, 33);
        let h = dense_factor(32, 5, 34);
        let pipe = PipelineSpec::sddmm_spmm(u, v, h);
        let session = Session::new(spec.clone()).hierarchy(&verify_hierarchy());
        let mut fused = session
            .run_ref(WorkloadRef::Pipeline { input: PipelineInput::Matrix(&a), pipe: &pipe })
            .expect("fused")
            .into_report();
        assert!(check_fusion_win(&spec, PipelineInput::Matrix(&a), &pipe, &fused).is_ok());
        fused.traffic.read("S", 1 << 30);
        let err = check_fusion_win(&spec, PipelineInput::Matrix(&a), &pipe, &fused)
            .expect_err("inflated");
        assert!(err.contains("not below unfused"), "{err}");
    }
}

//! Pipeline sweep: staged pipelines (MTTKRP, TTV, fused SDDMM→SpMM, and
//! the A·B·C chain) over the `drt_workloads::tensor3` synthetic FROSTT
//! corpus and unstructured matrix workloads, on a static (ExTensor-OP)
//! and a DRT (ExTensor-OP-DRT) tiling discipline.
//!
//! For every multi-stage cell the fused run is checked against its
//! unfused baseline: fused total modeled traffic must be *strictly*
//! lower (the intermediates round through DRAM otherwise). Any cell
//! violating the property makes the process exit nonzero, so the sweep
//! doubles as the fusion gate in CI. The modeled pipeline runners are
//! serial and thread-independent, so rows are byte-identical for every
//! `--threads`/`DRT_BENCH_THREADS` setting.

use drt_accel::pipeline::{PipelineInput, PipelineSpec};
use drt_accel::report::{RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, RunCtx};
use drt_accel::workload::WorkloadRef;
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_workloads::patterns::unstructured;
use drt_workloads::tensor3::{dense_factor, Tensor3Gen};

/// One sweep row: a pipeline on a workload under a variant, with the
/// unfused baseline alongside when the pipeline has more than one stage.
struct Row {
    pipeline: &'static str,
    workload: String,
    variant: String,
    fused: RunReport,
    unfused: Option<RunReport>,
}

impl Row {
    /// `Some(true)` when fused strictly beats unfused, `None` for
    /// single-stage pipelines (nothing to fuse).
    fn fusion_win(&self) -> Option<bool> {
        self.unfused.as_ref().map(|u| self.fused.traffic.total() < u.traffic.total())
    }
}

fn run(
    pipeline: &'static str,
    workload: String,
    spec: &AccelSpec,
    ctx: &RunCtx,
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    with_baseline: bool,
) -> Row {
    let session = Session::new(spec.clone()).with_run_ctx(ctx.clone());
    let run = |pipe: &PipelineSpec| {
        session.run_ref(WorkloadRef::Pipeline { input, pipe }).map(RunOutcome::into_report)
    };
    let fused = run(pipe).unwrap_or_else(|e| panic!("{}+{pipeline} on {workload}: {e}", spec.name));
    let unfused = with_baseline.then(|| {
        run(&pipe.clone().unfused())
            .unwrap_or_else(|e| panic!("{}+{pipeline} unfused on {workload}: {e}", spec.name))
    });
    Row { pipeline, workload, variant: spec.name.clone(), fused, unfused }
}

fn main() {
    let opts = BenchOpts::from_args();
    banner("Pipeline sweep: MTTKRP / TTV / SDDMM->SpMM / A*B*C", &opts);
    let ctx = opts.run_ctx();
    let seed = opts.seed;

    // Synthetic FROSTT-like tensor recipes (§ tensor3): one per
    // generator kind in quick mode, two sizes each in the full sweep.
    let mut gens = vec![
        Tensor3Gen::mode_skewed(48, 40, 44, 4_000, seed),
        Tensor3Gen::hyper_sparse_uniform(40, 40, 40, 1_500, seed.wrapping_add(1)),
    ];
    if !opts.quick {
        gens.push(Tensor3Gen::mode_skewed(160, 128, 144, 40_000, seed.wrapping_add(2)));
        gens.push(Tensor3Gen::hyper_sparse_uniform(128, 128, 128, 20_000, seed.wrapping_add(3)));
    }
    let rank = if opts.quick { 8 } else { 16 };
    let (mat_n, mat_nnz) = if opts.quick { (128, 3_000) } else { (384, 20_000) };
    let feat = if opts.quick { 6 } else { 12 };

    let specs = [AccelSpec::extensor_op(), AccelSpec::extensor_op_drt()];
    let mut rows: Vec<Row> = Vec::new();
    for spec in &specs {
        for gen in &gens {
            let x = gen.generate();
            let b = dense_factor(x.shape()[1], rank, gen.seed.wrapping_add(101));
            let c = dense_factor(x.shape()[2], rank, gen.seed.wrapping_add(202));
            rows.push(run(
                "mttkrp",
                gen.label(),
                spec,
                &ctx,
                PipelineInput::Tensor(&x),
                &PipelineSpec::mttkrp(b, c),
                false,
            ));
            let v: Vec<f64> = (0..x.shape()[2]).map(|k| 0.375 + k as f64 * 0.0625).collect();
            rows.push(run(
                "ttv",
                gen.label(),
                spec,
                &ctx,
                PipelineInput::Tensor(&x),
                &PipelineSpec::ttv(v),
                false,
            ));
        }

        let a = unstructured(mat_n, mat_n, mat_nnz, 2.0, seed.wrapping_add(11));
        let b = unstructured(mat_n, mat_n, mat_nnz, 2.0, seed.wrapping_add(12));
        let c = unstructured(mat_n, mat_n, mat_nnz, 2.0, seed.wrapping_add(13));
        rows.push(run(
            "abc",
            format!("unstr-{mat_n}n{mat_nnz}"),
            spec,
            &ctx,
            PipelineInput::Matrix(&a),
            &PipelineSpec::abc(b, c),
            true,
        ));

        let s = unstructured(mat_n, mat_n / 2, mat_nnz / 2, 2.0, seed.wrapping_add(21));
        let u = dense_factor(mat_n, rank, seed.wrapping_add(22));
        let v = dense_factor(mat_n / 2, rank, seed.wrapping_add(23));
        let h = dense_factor(mat_n / 2, feat, seed.wrapping_add(24));
        rows.push(run(
            "sddmm-spmm",
            format!("unstr-{mat_n}x{}n{}", mat_n / 2, mat_nnz / 2),
            spec,
            &ctx,
            PipelineInput::Matrix(&s),
            &PipelineSpec::sddmm_spmm(u, v, h),
            true,
        ));
    }

    println!(
        "\n{:<12} {:<26} {:<16} {:>12} {:>12} {:>7} {:>12}",
        "pipeline", "workload", "variant", "fused B", "unfused B", "win", "maccs"
    );
    let mut violations = 0usize;
    for row in &rows {
        let fused_bytes = row.fused.traffic.total();
        let (unfused_col, win_col) = match (&row.unfused, row.fusion_win()) {
            (Some(u), Some(win)) => {
                if !win {
                    violations += 1;
                }
                let ratio = u.traffic.total() as f64 / fused_bytes.max(1) as f64;
                (u.traffic.total().to_string(), format!("{ratio:.2}x"))
            }
            _ => ("-".into(), "-".into()),
        };
        println!(
            "{:<12} {:<26} {:<16} {:>12} {:>12} {:>7} {:>12}",
            row.pipeline,
            row.workload,
            row.variant,
            fused_bytes,
            unfused_col,
            win_col,
            row.fused.maccs
        );
        let mut fields = vec![
            ("figure", JsonVal::S("fig_pipeline".into())),
            ("pipeline", JsonVal::S(row.pipeline.into())),
            ("workload", JsonVal::S(row.workload.clone())),
            ("variant", JsonVal::S(row.variant.clone())),
            ("fused_bytes", JsonVal::U(fused_bytes)),
            ("maccs", JsonVal::U(row.fused.maccs)),
            ("tasks", JsonVal::U(row.fused.tasks)),
            ("stages", JsonVal::U(row.fused.stages.len() as u64)),
        ];
        if let Some(u) = &row.unfused {
            fields.push(("unfused_bytes", JsonVal::U(u.traffic.total())));
            fields.push(("fused_win", JsonVal::U(u64::from(row.fusion_win() == Some(true)))));
        }
        emit_json(&opts, &fields);
    }
    if violations > 0 {
        eprintln!(
            "fig_pipeline: {violations} cell(s) where fused traffic is not strictly below unfused"
        );
        std::process::exit(1);
    }
    println!("\nAll multi-stage cells: fused traffic strictly below the unfused baseline.");
}

//! Figure 9: arithmetic-intensity increase over the TACO-like baseline for
//! the Gram kernel (`G_il = χ_ijk · χ_ljk`), for ExTensor-OP (S-U-C) and
//! ExTensor-OP-DRT (D-N-C), across a tensor-density sweep.

use drt_accel::pipeline::{PipelineInput, PipelineSpec};
use drt_accel::report::{RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::workload::WorkloadRef;
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_tensor::CsfTensor;
use drt_workloads::tensor3::{figure9_sweep, frostt_like};

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 9: Gram arithmetic intensity vs TACO", &opts);
    let ctx = opts.run_ctx();
    let pipe = PipelineSpec::gram().with_micro3([8, 8, 8]);
    let run = |name: &str, x: &CsfTensor| -> RunReport {
        Session::from_registry(name)
            .expect("registered variant")
            .with_run_ctx(ctx.clone())
            .run_ref(WorkloadRef::Pipeline { input: PipelineInput::Tensor(x), pipe: &pipe })
            .map(RunOutcome::into_report)
            .unwrap_or_else(|e| panic!("{name} gram: {e}"))
    };

    // Fixed non-zero volume sized so the tensors dwarf the (scaled) LLC —
    // the regime FROSTT tensors occupy relative to a 30 MB cache.
    let nnz = if opts.quick { 60_000 } else { 8_000_000 / opts.scale as usize };
    let mut workloads = figure9_sweep(nnz, opts.seed);
    if !opts.quick {
        workloads.extend(frostt_like(64.max(opts.scale), opts.seed));
    }

    println!(
        "\n{:<16} {:>12} {:>14} {:>17} {:>12}",
        "tensor", "density", "SUC AI gain", "DRT AI gain", "DRT/SUC"
    );
    let (mut suc_gain, mut drt_gain) = (Vec::new(), Vec::new());
    for w in &workloads {
        let shape = w.tensor.shape();
        let vol = shape.iter().map(|&d| d as f64).product::<f64>();
        let density = w.tensor.nnz() as f64 / vol;
        let taco = run("cpu-mkl", &w.tensor);
        let suc = run("extensor-op", &w.tensor);
        let drt = run("extensor-op-drt", &w.tensor);
        let gs = suc.arithmetic_intensity() / taco.arithmetic_intensity();
        let gd = drt.arithmetic_intensity() / taco.arithmetic_intensity();
        println!("{:<16} {:>12.3e} {:>14.3} {:>17.3} {:>12.2}", w.name, density, gs, gd, gd / gs);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig09".into())),
                ("tensor", JsonVal::S(w.name.clone())),
                ("density", JsonVal::F(density)),
                ("suc_ai_gain", JsonVal::F(gs)),
                ("drt_ai_gain", JsonVal::F(gd)),
            ],
        );
        suc_gain.push(gs);
        drt_gain.push(gd);
    }
    println!(
        "\ngeomean AI gain: DRT over TACO {:.2}x | DRT over S-U-C {:.2}x  (paper: 3.9x / 16.6x)",
        geomean(&drt_gain),
        geomean(&drt_gain) / geomean(&suc_gain)
    );
}

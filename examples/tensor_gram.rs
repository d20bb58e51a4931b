//! Higher-order tensor algebra: the Gram kernel `G_il = χ_ijk · χ_ljk`
//! (a Tucker-decomposition subroutine, paper §6.1.3) with DRT growing
//! tiles across three dimensions — two of them contracted.
//!
//! ```text
//! cargo run -p drt-examples --release --bin tensor_gram [dim] [nnz]
//! ```

use drt_accel::cpu::CpuSpec;
use drt_accel::pipeline::PipelineSpec;
use drt_accel::session::Session;
use drt_accel::workload::Workload;
use drt_sim::memory::HierarchySpec;
use drt_workloads::tensor3::skewed_tensor;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let dim: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let nnz: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(20_000);

    let x = skewed_tensor(dim, dim, dim, nnz, 11);
    let density = x.nnz() as f64 / (dim as f64).powi(3);
    println!("tensor: {dim}^3, {} nnz ({:.4}% dense)", x.nnz(), density * 100.0);

    // Shrink the memory system so the tensor dwarfs the LLC, as FROSTT
    // tensors dwarf a 30 MB cache.
    let hier = HierarchySpec::default().scaled_down(512);
    let cpu = CpuSpec::default().scaled_down(512);
    // One workload, three machines: the TACO-like CPU model (`cpu-mkl`),
    // the best swept S-U-C shape, and DRT.
    let gram = Workload::pipeline_on_tensor(x.clone(), PipelineSpec::gram().with_micro3([8, 8, 8]));
    let run = |name: &str| -> Result<_, Box<dyn Error>> {
        let session = Session::from_registry(name)?.hierarchy(&hier).cpu(cpu);
        Ok(session.run_workload(&gram)?.into_report())
    };
    let taco = run("cpu-mkl")?;
    let suc = run("extensor-op")?;
    let drt = run("extensor-op-drt")?;

    // All three agree with the reference kernel.
    let reference = drt_kernels::gram::gram(&x).g;
    for r in [&taco, &suc, &drt] {
        assert!(
            r.output.as_ref().expect("gram output").approx_eq(&reference, 1e-9),
            "{} output mismatch",
            r.name
        );
    }
    println!("functional check: TACO, S-U-C, and DRT all match the reference Gram ✓");
    println!(
        "Gram matrix: {}x{}, {} nnz, {} effectual MACCs\n",
        reference.nrows(),
        reference.ncols(),
        reference.nnz(),
        drt.maccs
    );

    println!("{:<18} {:>12} {:>10} {:>12}", "config", "traffic (KB)", "AI", "AI vs TACO");
    for r in [&taco, &suc, &drt] {
        println!(
            "{:<18} {:>12.1} {:>10.4} {:>12.2}x",
            r.name,
            r.traffic.total() as f64 / 1e3,
            r.arithmetic_intensity(),
            r.arithmetic_intensity() / taco.arithmetic_intensity()
        );
    }
    println!(
        "\nDRT grew tiles over ranks i, l (uncontracted) and j, k (contracted, co-tiled across both operands): {} tasks, {} skipped empty",
        drt.tasks, drt.skipped_tasks
    );
    Ok(())
}

//! Graph analytics: multi-source BFS as a sequence of Boolean SpMSpM
//! frontier expansions (paper §6.1.2), run on the DRT accelerator and the
//! CPU baseline.
//!
//! ```text
//! cargo run -p drt-examples --release --bin graph_msbfs [vertices] [sources]
//! ```

use drt_accel::cpu::CpuSpec;
use drt_accel::session::Session;
use drt_sim::memory::HierarchySpec;
use drt_workloads::{msbfs, patterns};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2048);
    let sources: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(16);

    // A power-law graph and a frontier of random sources.
    let graph = patterns::unstructured(n, n, (n as usize) * 8, 1.9, 7);
    let aspect = (n / sources).max(1);
    let workload = msbfs::build(&graph, aspect, 16, 7);
    println!(
        "graph: {n} vertices, {} edges | {} BFS searches, {} levels",
        graph.nnz(),
        workload.frontiers[0].nrows(),
        workload.frontiers.len()
    );

    let hier = HierarchySpec::default().scaled_down(256);
    let cpu = CpuSpec::default().scaled_down(256);
    let cpu_mkl = Session::from_registry("cpu-mkl")?.cpu(cpu);
    let tactile = Session::from_registry("extensor-op-drt")?.hierarchy(&hier);

    println!(
        "\n{:<7} {:>10} {:>12} {:>12} {:>10}",
        "level", "frontier", "CPU (us)", "DRT (us)", "speedup"
    );
    let (mut t_cpu, mut t_drt) = (0.0f64, 0.0f64);
    for (lvl, f) in workload.frontiers.iter().enumerate() {
        if f.nnz() == 0 {
            continue;
        }
        let c = cpu_mkl.run_spmspm(f, &workload.adjacency)?;
        let d = tactile.run_spmspm(f, &workload.adjacency)?;
        // Validate: the accelerator's product has the same sparsity as the
        // reference expansion.
        let reference = drt_kernels::bfs::frontier_step(f, &workload.adjacency);
        let got = d.output.as_ref().expect("accelerator output");
        assert_eq!(got.nnz(), reference.nnz(), "level {lvl} frontier size mismatch");
        println!(
            "{:<7} {:>10} {:>12.2} {:>12.2} {:>10.2}",
            lvl,
            f.nnz(),
            c.seconds * 1e6,
            d.seconds * 1e6,
            c.seconds / d.seconds
        );
        t_cpu += c.seconds;
        t_drt += d.seconds;
    }
    println!(
        "\nall iterations: CPU {:.1} us, ExTensor-OP-DRT {:.1} us -> {:.2}x end-to-end",
        t_cpu * 1e6,
        t_drt * 1e6,
        t_cpu / t_drt
    );
    Ok(())
}

//! Simulate a full SpMSpM accelerator stack on a SuiteSparse-like matrix:
//! ExTensor (static tiling), ExTensor-OP, and ExTensor-OP-DRT, validated
//! against the reference kernel and compared to a CPU baseline.
//!
//! ```text
//! cargo run -p drt-examples --release --bin spmspm_accelerator [matrix-name] [scale]
//! ```

use drt_accel::cpu::CpuSpec;
use drt_accel::session::Session;
use drt_sim::energy::EnergyModel;
use drt_sim::memory::HierarchySpec;
use drt_workloads::suite::Catalog;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("scircuit");
    let scale: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(32);

    let catalog = Catalog::paper_table3();
    let entry = catalog
        .get(name)
        .ok_or_else(|| format!("unknown matrix {name:?}; see `table3_datasets` for the list"))?;
    let a = entry.generate(scale, 42);
    println!(
        "workload: {} at 1/{scale} scale -> {}x{}, {} nnz",
        entry.name,
        a.nrows(),
        a.ncols(),
        a.nnz()
    );

    let hier = HierarchySpec::default().scaled_down(scale as u64);
    let cpu = CpuSpec::default().scaled_down(scale as u64);
    let energy = EnergyModel::default();

    // Every design is a registered variant run through one door: the
    // same session builder, differing only in the name.
    let mut runs = Vec::new();
    for name in ["cpu-mkl", "extensor", "extensor-op", "extensor-op-drt"] {
        runs.push(Session::from_registry(name)?.hierarchy(&hier).cpu(cpu).run_spmspm(&a, &a)?);
    }
    let base = runs[0].clone();

    // Every simulated design must produce the same product (the paper
    // validates against Intel MKL; we validate against the CPU run, which
    // itself matches the reference kernels bit-for-bit).
    let reference = base.output.as_ref().expect("cpu output");
    for r in &runs[1..] {
        assert!(
            r.output.as_ref().expect("accelerator output").approx_eq(reference, 1e-6),
            "{} output mismatch",
            r.name
        );
    }
    println!("functional check: all designs agree with the reference product ✓\n");

    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "design", "time (us)", "traffic (KB)", "AI", "tasks", "energy(uJ)", "speedup"
    );
    for r in &runs {
        println!(
            "{:<18} {:>10.2} {:>12.1} {:>10.3} {:>10} {:>10.1} {:>9.2}",
            r.name,
            r.seconds * 1e6,
            r.traffic.total() as f64 / 1e3,
            r.arithmetic_intensity(),
            r.tasks,
            energy.energy_joules(&r.actions) * 1e6,
            base.seconds / r.seconds
        );
    }

    let drt = &runs[3];
    println!("\nper-operand DRAM traffic of {} (KB):", drt.name);
    for t in drt.traffic.tensors() {
        println!(
            "  {:>2}: read {:>10.1}  write {:>10.1}",
            t,
            drt.traffic.reads_of(&t) as f64 / 1e3,
            drt.traffic.writes_of(&t) as f64 / 1e3
        );
    }
    Ok(())
}

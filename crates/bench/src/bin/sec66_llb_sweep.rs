//! Section 6.6: LLB capacity and NoC bandwidth sweeps.
//!
//! The paper finds most workloads insensitive to LLB capacity beyond 15 MB
//! (half the default 30 MB) and to NoC bandwidth (main memory dominates).
//! At scale `s` the equivalent knee is 15 MB / s.

use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, SpecKind};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::extractor::ExtractorModel;
use drt_sim::memory::BufferSpec;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Section 6.6: LLB capacity and NoC bandwidth sweeps", &opts);
    let base_hier = opts.hierarchy();
    let full = base_hier.llb.capacity_bytes;
    let ctx = opts.run_ctx();

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };
    let matrices: Vec<_> = workloads.iter().map(|e| e.generate(opts.scale, opts.seed)).collect();

    // --- LLB capacity sweep. ---
    println!("\nLLB capacity sweep (geomean runtime, ms):");
    println!("{:>12} {:>14}", "LLB (KiB)", "runtime (ms)");
    for frac in [0.125f64, 0.25, 0.5, 1.0, 2.0] {
        let mut hier = base_hier;
        hier.llb = BufferSpec { capacity_bytes: ((full as f64) * frac) as u64, ports: 2 };
        let tactile = Session::new(AccelSpec::extensor_op_drt()).with_run_ctx(ctx.clone());
        let tactile = tactile.hierarchy(&hier);
        let mut times = Vec::new();
        for a in &matrices {
            if let Ok(r) = tactile.run_spmspm(a, a) {
                times.push(r.seconds * 1e3);
            }
        }
        let g = geomean(&times);
        println!("{:>12.1} {:>14.4}", hier.llb.capacity_bytes as f64 / 1024.0, g);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("sec66_llb".into())),
                ("llb_bytes", JsonVal::U(hier.llb.capacity_bytes)),
                ("runtime_ms", JsonVal::F(g)),
            ],
        );
    }
    println!("(paper: insensitive beyond the 15 MB-equivalent point — the 0.5x row)");

    // --- NoC bandwidth sweep (distribute width of the extractor). ---
    println!("\nNoC bandwidth sweep (geomean runtime, ms):");
    println!("{:>16} {:>14}", "NoC (B/cycle)", "runtime (ms)");
    for noc in [16u32, 32, 64, 128, 256] {
        let extractor =
            ExtractorModel { distribute_bytes_per_cycle: noc, ..ExtractorModel::parallel() };
        let mut spec = AccelSpec::extensor_op_drt();
        if let SpecKind::Engine(es) = &mut spec.kind {
            es.extractor = extractor;
        }
        let tactile = Session::new(spec).with_run_ctx(ctx.clone());
        let mut times = Vec::new();
        for a in &matrices {
            if let Ok(r) = tactile.run_spmspm(a, a) {
                times.push(r.seconds * 1e3);
            }
        }
        let g = geomean(&times);
        println!("{:>16} {:>14.4}", noc, g);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("sec66_noc".into())),
                ("noc_bytes_per_cycle", JsonVal::U(noc as u64)),
                ("runtime_ms", JsonVal::F(g)),
            ],
        );
    }
    println!("(paper: NoC bandwidth has no significant effect — DRAM dominates)");
}

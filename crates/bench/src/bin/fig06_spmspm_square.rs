//! Figure 6: ExTensor, ExTensor-OP, and ExTensor-OP-DRT speedup over the
//! CPU MKL-like baseline on the square SpMSpM workload (S², B = A), with
//! DRAM-bound oracle performance (the red dots). Workloads are grouped
//! diamond-band first, then unstructured, each by increasing density.
//!
//! Workload generation and the (engine × dataset) cells run in parallel
//! (`DRT_BENCH_THREADS` overrides the worker count); rows print in the
//! paper's order regardless of scheduling.

use drt_bench::{banner, emit_json, geomean, par, try_run_suite_cells_req, BenchOpts, JsonVal};
use drt_workloads::suite::{Catalog, PatternClass};

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 6: speedup over CPU (S^2)", &opts);
    let hier = opts.hierarchy();
    let ctx = opts.run_ctx();

    let workloads: Vec<_> =
        if opts.quick { Catalog::sweep_subset() } else { Catalog::figure6_order() };

    // Generate matrices (and their micro-tile grids, inside each engine
    // run) in parallel; S² squares each matrix against itself.
    let pairs: Vec<(String, _, _)> = par::par_map(&workloads, |_, entry| {
        let a = entry.generate(opts.scale, opts.seed);
        (entry.name.to_string(), a.clone(), a)
    });
    // `--keep-going`: a failing cell becomes an error row instead of an
    // abort; the process still exits nonzero after the full table prints.
    // Without it, the first failing cell aborts the run.
    let req = opts.request_opts();
    let cells = try_run_suite_cells_req(&pairs, &ctx, &req);
    if !opts.keep_going {
        if let Some(Err(err)) = cells.iter().find(|c| c.is_err()) {
            panic!("{err}");
        }
    }

    println!(
        "\n{:<18} {:>9} {:>12} {:>14} {:>17} {:>14}",
        "workload", "group", "ExTensor", "ExTensor-OP", "ExTensor-OP-DRT", "DRT red dot"
    );
    let mut errors = 0usize;
    let (mut s_ext, mut s_op, mut s_drt) = (Vec::new(), Vec::new(), Vec::new());
    for (entry, cell) in workloads.iter().zip(&cells) {
        let group = match entry.class {
            PatternClass::DiamondBand => "band",
            PatternClass::Unstructured => "unstr",
        };
        let cell = match cell {
            Ok(c) => c,
            Err(err) => {
                errors += 1;
                println!("{:<18} {:>9} ERROR: {err}", entry.name, group);
                emit_json(
                    &opts,
                    &[
                        ("figure", JsonVal::S("fig06".into())),
                        ("workload", JsonVal::S(entry.name.to_string())),
                        ("error", JsonVal::S(err.clone())),
                    ],
                );
                continue;
            }
        };
        let red_dot = cell.base.seconds / cell.drt.dram_bound_seconds(&hier);
        println!(
            "{:<18} {:>9} {:>12.2} {:>14.2} {:>17.2} {:>14.2}",
            entry.name,
            group,
            cell.ext.speedup_over(&cell.base),
            cell.op.speedup_over(&cell.base),
            cell.drt.speedup_over(&cell.base),
            red_dot
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig06".into())),
                ("workload", JsonVal::S(entry.name.to_string())),
                ("extensor", JsonVal::F(cell.ext.speedup_over(&cell.base))),
                ("extensor_op", JsonVal::F(cell.op.speedup_over(&cell.base))),
                ("extensor_op_drt", JsonVal::F(cell.drt.speedup_over(&cell.base))),
                ("drt_dram_bound", JsonVal::F(red_dot)),
            ],
        );
        s_ext.push(cell.ext.speedup_over(&cell.base));
        s_op.push(cell.op.speedup_over(&cell.base));
        s_drt.push(cell.drt.speedup_over(&cell.base));
    }
    let (ge, go, gd) = (geomean(&s_ext), geomean(&s_op), geomean(&s_drt));
    println!("\n{:<18} {:>9} {:>12.2} {:>14.2} {:>17.2}", "geomean", "", ge, go, gd);
    println!(
        "\nExTensor-OP-DRT vs ExTensor-OP: {:.2}x | vs ExTensor: {:.2}x  (paper: 1.7x / 2.4x)",
        gd / go,
        gd / ge
    );
    if errors > 0 {
        eprintln!("fig06: {errors} cell(s) failed (ran to completion under --keep-going)");
        std::process::exit(1);
    }
}

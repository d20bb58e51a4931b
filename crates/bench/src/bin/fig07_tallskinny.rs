//! Figure 7: ExTensor variants on tall-skinny workloads — for each matrix,
//! the short-long product `Fᵀ·F` then the tall-skinny product `F·Fᵀ`
//! (paper §6.1.1, "Tall-skinny matrices").

use drt_bench::{banner, emit_json, geomean, try_run_suite_cells_req, BenchOpts, JsonVal};
use drt_core::par::par_map;
use drt_workloads::suite::Catalog;
use drt_workloads::tallskinny::figure7_pair;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 7: speedup over CPU (F^T*F short-long, F*F^T tall-skinny)", &opts);
    let hier = opts.hierarchy();
    let ctx = opts.run_ctx();
    let aspect = 16;

    let names: &[&str] = if opts.quick {
        &["sx-mathoverflow", "p2p-Gnutella31"]
    } else {
        &[
            "amazon0302",
            "sx-askubuntu",
            "mac_econ_fwd500",
            "scircuit",
            "p2p-Gnutella31",
            "soc-sign-epinions",
            "enron",
            "soc-Epinions1",
            "shipsec1",
            "pwtk",
            "cit-HepPh",
            "sx-mathoverflow",
            "consph",
            "cant",
            "rma10",
            "pdb1HYS",
            "bcsstk17",
        ]
    };
    let catalog = Catalog::paper_table3();

    println!(
        "\n{:<20} {:>7} {:>12} {:>14} {:>17} {:>12}",
        "workload", "kind", "ExTensor", "ExTensor-OP", "ExTensor-OP-DRT", "DRT red dot"
    );
    // Each matrix yields two operand pairs (short-long Fᵀ·F, tall-skinny
    // F·Fᵀ). Generate them in parallel, then run all (engine × pair)
    // cells in parallel; rows print in the paper's order.
    let pairs: Vec<(String, _, _)> = par_map(names, |_, name| {
        let entry = catalog.get(name).expect("name in Table 3");
        let s = entry.generate(opts.scale, opts.seed);
        let (f, ft) = figure7_pair(&s, aspect);
        [(format!("{name}/FtF"), ft.clone(), f.clone()), (format!("{name}/FFt"), f, ft)]
    })
    .into_iter()
    .flatten()
    .collect();
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

    let mut errors = 0usize;
    let mut speedups = Vec::new();
    let (mut over_ext, mut over_op) = (Vec::new(), Vec::new());
    for ((label, _, _), cell) in pairs.iter().zip(&cells) {
        let (name, kind) = label.split_once('/').expect("label");
        let cell = match cell {
            Ok(c) => c,
            Err(err) => {
                errors += 1;
                println!("{:<20} {:>7} ERROR: {err}", name, kind);
                emit_json(
                    &opts,
                    &[
                        ("figure", JsonVal::S("fig07".into())),
                        ("workload", JsonVal::S(label.clone())),
                        ("error", JsonVal::S(err.clone())),
                    ],
                );
                continue;
            }
        };
        let (base, ext, op, drt) = (&cell.base, &cell.ext, &cell.op, &cell.drt);
        let red = base.seconds / drt.dram_bound_seconds(&hier);
        println!(
            "{:<20} {:>7} {:>12.2} {:>14.2} {:>17.2} {:>12.2}",
            name,
            kind,
            ext.speedup_over(base),
            op.speedup_over(base),
            drt.speedup_over(base),
            red
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig07".into())),
                ("workload", JsonVal::S(label.clone())),
                ("extensor", JsonVal::F(ext.speedup_over(base))),
                ("extensor_op", JsonVal::F(op.speedup_over(base))),
                ("extensor_op_drt", JsonVal::F(drt.speedup_over(base))),
            ],
        );
        speedups.push(drt.speedup_over(base));
        over_ext.push(drt.seconds.recip() / ext.seconds.recip());
        over_op.push(drt.seconds.recip() / op.seconds.recip());
    }
    println!(
        "\ngeomean: DRT over CPU {:.2}x | over ExTensor {:.2}x | over ExTensor-OP {:.2}x  (paper: 3.5x / 3.5x / 5.2x)",
        geomean(&speedups),
        geomean(&over_ext),
        geomean(&over_op)
    );
    if errors > 0 {
        eprintln!("fig07: {errors} cell(s) failed (ran to completion under --keep-going)");
        std::process::exit(1);
    }
}

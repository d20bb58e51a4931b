//! Figure 8: MS-BFS (all iterations, `F · S` per level) — ExTensor vs
//! ExTensor-OP-DRT speedup over the CPU baseline, with workloads sorted by
//! increasing coefficient of row variation of `S` (paper §6.1.2).

use drt_accel::session::Session;
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_tensor::stats::sparsity_stats;
use drt_workloads::msbfs;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 8: MS-BFS speedup over CPU (all iterations)", &opts);
    let ctx = opts.run_ctx();
    let session =
        |name: &str| Session::from_registry(name).expect("registered").with_run_ctx(ctx.clone());
    let (cpu_mkl, tactile) = (session("cpu-mkl"), session("extensor-op-drt"));
    // The paper's 2^7 ratio at full size; the scaled default divides the
    // aspect by the scale factor so the *number of BFS sources* matches a
    // paper-sized run (frontiers would otherwise degenerate to a couple of
    // rows). Pass `--aspect` explicitly for the 2^9 / 2^11 variants.
    let args: Vec<String> = std::env::args().collect();
    let aspect: u32 = args
        .iter()
        .position(|a| a == "--aspect")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (128 / opts.scale).max(2));
    println!("aspect ratio (vertices per BFS source): {aspect}");

    let catalog = Catalog::paper_table3();
    let names: &[&str] = if opts.quick {
        &["bcsstk17", "sx-mathoverflow"]
    } else {
        &[
            "pwtk",
            "amazon0302",
            "cant",
            "consph",
            "pdb1HYS",
            "bcsstk17",
            "shipsec1",
            "rma10",
            "cop20k_A",
            "mac_econ_fwd500",
            "scircuit",
            "cit-HepPh",
            "p2p-Gnutella31",
            "soc-Epinions1",
            "soc-sign-epinions",
            "sx-mathoverflow",
            "email-EuAll",
            "enron",
            "sx-askubuntu",
        ]
    };

    // Gather (row_cv, name, results) and sort by row variation like the
    // paper's x-axis.
    let mut rows = Vec::new();
    for name in names {
        let entry = catalog.get(name).expect("name in Table 3");
        let s = entry.generate(opts.scale, opts.seed);
        let cv = sparsity_stats(&s).row_cv;
        let workload = msbfs::build(&s, aspect, if opts.quick { 4 } else { 8 }, opts.seed);
        // Sum runtimes across all BFS iterations. The S-U-C shape sweep is
        // an offline, per-workload step (§5.2.1), so sweep once on the
        // first level and pin the winning configuration for the rest.
        let s = &workload.adjacency;
        let (mut t_cpu, mut t_ext, mut t_drt) = (0.0, 0.0, 0.0);
        let mut extensor: Option<Session> = None;
        for f in &workload.frontiers {
            if f.nnz() == 0 {
                continue;
            }
            t_cpu += cpu_mkl.run_spmspm(f, s).expect("cpu").seconds;
            let ext = extensor.get_or_insert_with(|| {
                let winner = session("extensor").resolved_engine_config(f, s).expect("sweep");
                Session::from_engine_config(winner.expect("engine variant"))
                    .with_run_ctx(ctx.clone())
            });
            t_ext += ext.run_spmspm(f, s).expect("extensor").seconds;
            t_drt += tactile.run_spmspm(f, s).expect("tactile").seconds;
        }
        rows.push((cv, name.to_string(), t_cpu / t_ext, t_cpu / t_drt, workload.frontiers.len()));
    }
    rows.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite cv"));

    println!(
        "\n{:<20} {:>8} {:>7} {:>12} {:>17}",
        "workload", "row CV", "iters", "ExTensor", "ExTensor-OP-DRT"
    );
    let (mut ext, mut drt, mut hi_var, mut lo_var) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (cv, name, se, sd, iters) in &rows {
        println!("{:<20} {:>8.2} {:>7} {:>12.2} {:>17.2}", name, cv, iters, se, sd);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig08".into())),
                ("workload", JsonVal::S(name.clone())),
                ("row_cv", JsonVal::F(*cv)),
                ("extensor", JsonVal::F(*se)),
                ("extensor_op_drt", JsonVal::F(*sd)),
            ],
        );
        ext.push(*se);
        drt.push(*sd);
        if *cv >= 2.0 {
            hi_var.push(*sd);
        } else {
            lo_var.push(*sd);
        }
    }
    println!(
        "\ngeomean: DRT over CPU {:.2}x | over ExTensor {:.2}x  (paper: 5.5x / 3.6x)",
        geomean(&drt),
        geomean(&drt) / geomean(&ext)
    );
    if !hi_var.is_empty() && !lo_var.is_empty() {
        println!(
            "high row-variation workloads {:.2}x vs low-variation {:.2}x (paper: 7.2x vs 2.7x)",
            geomean(&hi_var),
            geomean(&lo_var)
        );
    }
}

//! Extension: position a GAMMA-like row-granular design (FiberCache,
//! Gustavson dataflow — the related work the paper's §7 calls "a nascent
//! form of D-N-C tiling") against untiled MatRaptor and full DRT.

use drt_accel::session::Session;
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Extension: GAMMA-like vs MatRaptor vs DRT (S^2, DRAM-bound)", &opts);
    let ctx = opts.run_ctx();
    let session =
        |name: &str| Session::from_registry(name).expect("registered").with_run_ctx(ctx.clone());
    let (matraptor, gamma, matraptor_drt) =
        (session("matraptor"), session("gamma"), session("matraptor-drt"));

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::figure6_order()
    };

    println!(
        "\n{:<20} {:>14} {:>14} {:>14}",
        "workload", "MatRaptor (MB)", "GAMMA-like (MB)", "MatRaptor-DRT (MB)"
    );
    let (mut r_mr, mut r_ga, mut r_drt) = (Vec::new(), Vec::new(), Vec::new());
    for entry in &workloads {
        let a = entry.generate(opts.scale, opts.seed);
        let mr = matraptor.run_spmspm(&a, &a).expect("matraptor");
        let ga = gamma.run_spmspm(&a, &a).expect("gamma");
        let drt = match matraptor_drt.run_spmspm(&a, &a) {
            Ok(r) => r,
            Err(_) => continue,
        };
        println!(
            "{:<20} {:>14.3} {:>14.3} {:>14.3}",
            entry.name,
            mr.traffic.total() as f64 / 1e6,
            ga.traffic.total() as f64 / 1e6,
            drt.traffic.total() as f64 / 1e6
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("ext_gamma".into())),
                ("workload", JsonVal::S(entry.name.to_string())),
                ("matraptor_bytes", JsonVal::U(mr.traffic.total())),
                ("gamma_bytes", JsonVal::U(ga.traffic.total())),
                ("drt_bytes", JsonVal::U(drt.traffic.total())),
            ],
        );
        r_mr.push(mr.traffic.total() as f64);
        r_ga.push(ga.traffic.total() as f64);
        r_drt.push(drt.traffic.total() as f64);
    }
    println!(
        "\ngeomean traffic vs untiled MatRaptor: GAMMA-like {:.2}x better, MatRaptor-DRT {:.2}x better",
        geomean(&r_mr) / geomean(&r_ga),
        geomean(&r_mr) / geomean(&r_drt)
    );
    println!("(GAMMA's row-granular reuse sits between no tiling and full D-N-C co-tiling — Table 2's placement)");
}

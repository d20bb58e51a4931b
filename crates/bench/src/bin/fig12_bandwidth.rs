//! Figure 12: performance scaling with DRAM bandwidth (1x-8x) for
//! ExTensor-OP-DRT with three intersection units: serial skip-based,
//! parallel, and the serial-optimal oracle (paper Section 6.4).

use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, SpecKind};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_sim::intersect_unit::IntersectUnit;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 12: speedup over CPU vs DRAM bandwidth, by intersection unit", &opts);
    let ctx = opts.run_ctx();
    let cpu_mkl = Session::from_registry("cpu-mkl").expect("registered").with_run_ctx(ctx.clone());

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };
    let units =
        [IntersectUnit::SkipBased, IntersectUnit::Parallel(32), IntersectUnit::SerialOptimal];
    let factors = [1.0f64, 2.0, 4.0, 8.0];

    println!("\n{:<16} {:>8} {:>8} {:>8} {:>8}", "unit", "1x", "2x", "4x", "8x");
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    for unit in units {
        let mut spec = AccelSpec::extensor_op_drt();
        if let SpecKind::Engine(es) = &mut spec.kind {
            es.intersect = unit;
        }
        let tactile = Session::new(spec).with_run_ctx(ctx.clone());
        let mut per_factor = Vec::new();
        for &f in &factors {
            let mut hier = opts.hierarchy();
            hier.dram = hier.dram.scaled(f);
            let mut speeds = Vec::new();
            for entry in &workloads {
                let a = entry.generate(opts.scale, opts.seed);
                let base = cpu_mkl.run_spmspm(&a, &a).expect("cpu");
                let r = tactile.clone().hierarchy(&hier).run_spmspm(&a, &a).expect("tactile");
                speeds.push(r.speedup_over(&base));
            }
            per_factor.push(geomean(&speeds));
        }
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            unit.label(),
            per_factor[0],
            per_factor[1],
            per_factor[2],
            per_factor[3]
        );
        for (f, v) in factors.iter().zip(&per_factor) {
            emit_json(
                &opts,
                &[
                    ("figure", JsonVal::S("fig12".into())),
                    ("unit", JsonVal::S(unit.label())),
                    ("bandwidth_factor", JsonVal::F(*f)),
                    ("speedup", JsonVal::F(*v)),
                ],
            );
        }
        table.push((unit.label(), per_factor));
    }

    let skip_8x = table[0].1[3];
    let opt_1x = table[2].1[0];
    let opt_8x = table[2].1[3];
    println!(
        "\nat 8x bandwidth: Serial-Optimal is {:.2}x over its own 1x baseline and {:.2}x over Skip-Based at 8x",
        opt_8x / opt_1x,
        opt_8x / skip_8x
    );
    println!("(paper: 3.9x over baseline, 1.78x over ExTensor-OP-DRT at the same bandwidth)");
}

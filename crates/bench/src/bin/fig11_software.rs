//! Figure 11: Study 3 — software S-U-C and software DRT memory-traffic
//! improvement over the untiled CPU SpMSpM, as input density varies, for
//! diamond-band and random sparsity patterns.

use drt_accel::error::DrtError;
use drt_accel::session::Session;
use drt_accel::spec::AccelSpec;
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_tensor::CsMatrix;
use drt_workloads::patterns::{diamond_band, uniform_random};

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 11: software tiling traffic improvement over untiled SpMSpM (S^2)", &opts);
    let ctx = opts.run_ctx();
    let traffic = |spec: AccelSpec, a: &CsMatrix| -> Result<f64, DrtError> {
        Ok(Session::new(spec).with_run_ctx(ctx.clone()).run_spmspm(a, a)?.traffic.total() as f64)
    };
    let micro = (16u32, 16);
    let suc_tile = 64;

    // Density sweep at fixed dimension (the paper's x-axis). The dimension
    // scales inversely with `--scale` so the matrices dwarf the scaled LLC
    // the way the paper's full-size matrices dwarf 30 MB — tiling can only
    // help when the untiled working set misses cache.
    let n: u32 = if opts.quick { 1024 } else { (262_144 / opts.scale).max(1024) };
    let densities: &[f64] =
        if opts.quick { &[1e-3, 1e-2] } else { &[1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2] };

    println!("\n{:<12} {:>10} {:>12} {:>12}", "pattern", "density", "SW SUC", "SW DNC");
    let (mut all_suc, mut all_dnc) = (Vec::new(), Vec::new());
    for &d in densities {
        let nnz = (n as f64 * n as f64 * d) as usize;
        if nnz < 32 {
            continue;
        }
        for (pattern, a) in [
            ("diamond", diamond_band(n, nnz, opts.seed)),
            ("random", uniform_random(n, n, nnz, opts.seed)),
        ] {
            // Traffic improvement of software S-U-C and software DRT over
            // the untiled CPU run (the `cpu-mkl` model on the same CPU).
            let improvements = traffic(AccelSpec::cpu_mkl(), &a).and_then(|untiled| {
                Ok((
                    untiled / traffic(AccelSpec::sw_suc(suc_tile, micro), &a)?,
                    untiled / traffic(AccelSpec::sw_dnc(micro), &a)?,
                ))
            });
            let (suc, dnc) = match improvements {
                Ok(x) => x,
                Err(e) => {
                    println!("{:<12} {:>10.1e} {:>12} {:>12}  ({e})", pattern, d, "-", "-");
                    continue;
                }
            };
            println!("{:<12} {:>10.1e} {:>12.3} {:>12.3}", pattern, d, suc, dnc);
            emit_json(
                &opts,
                &[
                    ("figure", JsonVal::S("fig11".into())),
                    ("pattern", JsonVal::S(pattern.into())),
                    ("density", JsonVal::F(d)),
                    ("suc_improvement", JsonVal::F(suc)),
                    ("dnc_improvement", JsonVal::F(dnc)),
                ],
            );
            all_suc.push(suc);
            all_dnc.push(dnc);
        }
    }
    println!(
        "\ngeomean improvement over untiled: SW-SUC {:.2}x | SW-DNC {:.2}x  (paper: 2.48x / 7.29x; DNC over SUC 2.94x)",
        drt_bench::geomean(&all_suc),
        drt_bench::geomean(&all_dnc)
    );
    println!(
        "SW-DNC over SW-SUC: {:.2}x",
        drt_bench::geomean(&all_dnc) / drt_bench::geomean(&all_suc)
    );
}

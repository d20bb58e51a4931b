//! Figure 14: LLB buffer-partition sweep — geomean runtime as the A/B/O
//! allocation shares vary (B-stationary dataflow; O gets the remainder).

use drt_accel::engine::EngineConfig;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::config::{DrtConfig, Partitions};
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 14: A/B/O partition sweep (geomean runtime, ms)", &opts);
    let hier = opts.hierarchy();
    let llb = hier.llb.capacity_bytes;
    let ctx = opts.run_ctx();
    // ExTensor-OP-DRT with a verbatim partition table (no micro-shape
    // adaptation: an infeasible split is reported, not repaired).
    let run = |a: &drt_tensor::CsMatrix, parts: Partitions| {
        let drt = DrtConfig::new(parts);
        let cfg = EngineConfig { drt, hier, ..EngineConfig::new(AccelSpec::extensor_op_drt()) };
        Session::from_engine_config(cfg).with_run_ctx(ctx.clone()).run_spmspm(a, a)
    };

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };
    let matrices: Vec<_> = workloads.iter().map(|e| e.generate(opts.scale, opts.seed)).collect();

    let steps: Vec<f64> = if opts.quick {
        vec![0.1, 0.3, 0.5, 0.7]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    };

    // The sweep's reference point: the paper's static §6.6 shares, taken
    // from the registry's named preset rather than re-typed here.
    let preset = PartitionPreset::ExtensorPaper;
    let baseline: Vec<f64> = matrices
        .iter()
        .filter_map(|a| run(a, preset.partitions(llb)).ok().map(|r| r.seconds * 1e3))
        .collect();
    let baseline_ms = geomean(&baseline);
    let shares = preset.shares();
    println!(
        "\npreset {:?} (A {:.0}% / B {:.0}% / O {:.0}%): {:.4} ms",
        preset,
        shares[0].1 * 100.0,
        shares[1].1 * 100.0,
        shares[2].1 * 100.0,
        baseline_ms
    );
    emit_json(
        &opts,
        &[
            ("figure", JsonVal::S("fig14".into())),
            ("preset", JsonVal::S(format!("{preset:?}"))),
            ("a_share", JsonVal::F(shares[0].1)),
            ("b_share", JsonVal::F(shares[1].1)),
            ("o_share", JsonVal::F(shares[2].1)),
            ("runtime_ms", JsonVal::F(baseline_ms)),
        ],
    );

    println!("\n{:>6} {:>6} {:>6} {:>14}", "A %", "B %", "O %", "runtime (ms)");
    let mut best: Option<(f64, f64, f64, f64)> = None;
    for &fa in &steps {
        for &fb in &steps {
            if fa + fb >= 1.0 {
                continue;
            }
            let fo = 1.0 - fa - fb;
            let parts = Partitions::split(llb, &[("A", fa), ("B", fb), ("Z", fo)]);
            let mut times = Vec::new();
            let mut feasible = true;
            for a in &matrices {
                match run(a, parts.clone()) {
                    Ok(r) => times.push(r.seconds * 1e3),
                    Err(_) => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                println!(
                    "{:>6.0} {:>6.0} {:>6.0} {:>14}",
                    fa * 100.0,
                    fb * 100.0,
                    fo * 100.0,
                    "infeasible"
                );
                continue;
            }
            let g = geomean(&times);
            println!("{:>6.0} {:>6.0} {:>6.0} {:>14.4}", fa * 100.0, fb * 100.0, fo * 100.0, g);
            emit_json(
                &opts,
                &[
                    ("figure", JsonVal::S("fig14".into())),
                    ("a_share", JsonVal::F(fa)),
                    ("b_share", JsonVal::F(fb)),
                    ("o_share", JsonVal::F(fo)),
                    ("runtime_ms", JsonVal::F(g)),
                ],
            );
            if best.is_none() || g < best.expect("set").3 {
                best = Some((fa, fb, fo, g));
            }
        }
    }
    if let Some((fa, fb, fo, g)) = best {
        println!(
            "\nbest: A {:.0}% / B {:.0}% / O {:.0}% at {:.4} ms ({:.2}x vs paper preset)",
            fa * 100.0,
            fb * 100.0,
            fo * 100.0,
            g,
            baseline_ms / g
        );
        println!("(paper: small A allocations with B >= 30% and enough O space perform best)");
    }
}

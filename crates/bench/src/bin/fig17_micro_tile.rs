//! Figure 17: overall DRAM traffic as the micro-tile shape (x by x)
//! varies. Large micro tiles degenerate toward S-U-C behaviour; tiny ones
//! pay per-micro-tile metadata overhead.

use drt_accel::engine::EngineConfig;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset};
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_core::config::DrtConfig;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 17: traffic vs micro-tile shape (x by x)", &opts);
    let hier = opts.hierarchy();
    let parts = PartitionPreset::ExtensorPaper.partitions(hier.llb.capacity_bytes);
    let ctx = opts.run_ctx();
    let run = |a: &drt_tensor::CsMatrix, drt: DrtConfig, micro: (u32, u32)| {
        let cfg =
            EngineConfig { drt, micro, hier, ..EngineConfig::new(AccelSpec::extensor_op_drt()) };
        Session::from_engine_config(cfg).with_run_ctx(ctx.clone()).run_spmspm(a, a)
    };

    let names: &[&str] = if opts.quick {
        &["bcsstk17", "scircuit"]
    } else {
        &[
            "bcsstk17",
            "cant",
            "cit-HepPh",
            "consph",
            "mac_econ_fwd500",
            "pdb1HYS",
            "rma10",
            "scircuit",
            "shipsec1",
            "soc-Epinions1",
            "sx-mathoverflow",
        ]
    };
    let catalog = Catalog::paper_table3();
    let shapes: &[u32] = if opts.quick { &[8, 32] } else { &[4, 8, 16, 32, 48, 64] };

    print!("\n{:<20}", "workload");
    for s in shapes {
        print!(" {:>10}", format!("{s}x{s}"));
    }
    println!("   (traffic, MB)");
    for name in names {
        let entry = catalog.get(name).expect("name in Table 3");
        let a = entry.generate(opts.scale, opts.seed);
        print!("{:<20}", name);
        for &s in shapes {
            match run(&a, DrtConfig::new(parts.clone()), (s, s)) {
                Ok(r) => {
                    let mb = r.traffic.total() as f64 / 1e6;
                    print!(" {:>10.3}", mb);
                    emit_json(
                        &opts,
                        &[
                            ("figure", JsonVal::S("fig17".into())),
                            ("workload", JsonVal::S(name.to_string())),
                            ("micro", JsonVal::U(s as u64)),
                            ("traffic_mb", JsonVal::F(mb)),
                        ],
                    );
                }
                Err(_) => print!(" {:>10}", "oom"), // micro tile exceeds partition
            }
        }
        println!();
    }
    println!("\n(the paper omits runs with out-of-memory micro shapes; 'oom' marks the same)");
}

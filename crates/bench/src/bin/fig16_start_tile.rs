//! Figure 16: runtime sensitivity to DRT's starting tile size along the
//! `J` rank (which shapes the stationary `B` tile before growth begins).

use drt_accel::engine::EngineConfig;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset};
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_core::config::DrtConfig;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 16: runtime vs starting tile size (1 x J)", &opts);
    let hier = opts.hierarchy();
    let parts = PartitionPreset::ExtensorPaper.partitions(hier.llb.capacity_bytes);
    let ctx = opts.run_ctx();
    let run = |a: &drt_tensor::CsMatrix, drt: DrtConfig| {
        let cfg = EngineConfig { drt, hier, ..EngineConfig::new(AccelSpec::extensor_op_drt()) };
        Session::from_engine_config(cfg).with_run_ctx(ctx.clone()).run_spmspm(a, a)
    };

    let names: &[&str] = if opts.quick {
        &["bcsstk17", "scircuit"]
    } else {
        &[
            "amazon0302",
            "bcsstk17",
            "cant",
            "cit-HepPh",
            "consph",
            "mac_econ_fwd500",
            "pwtk",
            "rma10",
            "scircuit",
            "shipsec1",
            "soc-sign-epinions",
            "sx-mathoverflow",
        ]
    };
    let catalog = Catalog::paper_table3();
    let starts: &[u32] = if opts.quick { &[32, 128, 512] } else { &[32, 64, 128, 256, 512] };

    print!("\n{:<20}", "workload");
    for s in starts {
        print!(" {:>9}", format!("J0={s}"));
    }
    println!();
    for name in names {
        let entry = catalog.get(name).expect("name in Table 3");
        let a = entry.generate(opts.scale, opts.seed);
        print!("{:<20}", name);
        for &s in starts {
            let cfg = DrtConfig::new(parts.clone()).with_initial_size('j', s);
            match run(&a, cfg) {
                Ok(r) => {
                    print!(" {:>9.4}", r.seconds * 1e3);
                    emit_json(
                        &opts,
                        &[
                            ("figure", JsonVal::S("fig16".into())),
                            ("workload", JsonVal::S(name.to_string())),
                            ("start_j", JsonVal::U(s as u64)),
                            ("runtime_ms", JsonVal::F(r.seconds * 1e3)),
                        ],
                    );
                }
                Err(_) => print!(" {:>9}", "-"),
            }
        }
        println!();
    }
    println!("\n(runtime in ms; the paper finds mild sensitivity — large starts waste capacity on dense workloads)");
}

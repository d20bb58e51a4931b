//! Figure 15: overhead of the alternating DRT growth variant relative to
//! the default greedy contracted-first variant (traffic and runtime
//! ratios; lower is better, 1.0 = parity).

use drt_accel::engine::EngineConfig;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::config::{DrtConfig, GrowthOrder};
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 15: alternating-growth overhead vs greedy DRT", &opts);
    let hier = opts.hierarchy();

    let names: &[&str] = if opts.quick {
        &["bcsstk17", "cit-HepPh"]
    } else {
        &[
            "mac_econ_fwd500",
            "scircuit",
            "shipsec1",
            "pwtk",
            "consph",
            "cant",
            "rma10",
            "bcsstk17",
            "amazon0302",
            "soc-sign-epinions",
            "cit-HepPh",
            "sx-mathoverflow",
        ]
    };
    let catalog = Catalog::paper_table3();
    let parts = PartitionPreset::ExtensorPaper.partitions(hier.llb.capacity_bytes);
    let ctx = opts.run_ctx();
    let run = |a: &drt_tensor::CsMatrix, drt: DrtConfig| {
        let cfg = EngineConfig { drt, hier, ..EngineConfig::new(AccelSpec::extensor_op_drt()) };
        Session::from_engine_config(cfg).with_run_ctx(ctx.clone()).run_spmspm(a, a)
    };

    println!("\n{:<20} {:>16} {:>16}", "workload", "traffic overhead", "runtime overhead");
    let (mut t_ovh, mut r_ovh) = (Vec::new(), Vec::new());
    for name in names {
        let entry = catalog.get(name).expect("name in Table 3");
        let a = entry.generate(opts.scale, opts.seed);
        let greedy = run(&a, DrtConfig::new(parts.clone())).expect("greedy");
        let alt = run(&a, DrtConfig::new(parts.clone()).with_growth(GrowthOrder::Alternating))
            .expect("alternating");
        let to = alt.traffic.total() as f64 / greedy.traffic.total() as f64;
        let ro = alt.seconds / greedy.seconds;
        println!("{:<20} {:>16.3} {:>16.3}", name, to, ro);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig15".into())),
                ("workload", JsonVal::S(name.to_string())),
                ("traffic_overhead", JsonVal::F(to)),
                ("runtime_overhead", JsonVal::F(ro)),
            ],
        );
        t_ovh.push(to);
        r_ovh.push(ro);
    }
    println!(
        "\ngeomean overhead: traffic {:.3} | runtime {:.3}  (paper: alternating usually >= 1, due to extra output traffic)",
        geomean(&t_ovh),
        geomean(&r_ovh)
    );
}

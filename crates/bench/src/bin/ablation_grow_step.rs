//! Ablation: Algorithm 2's grow step `n` — how many micro tiles each grow
//! attempt adds. Finer steps (n = 1, the paper's choice) pack buffers
//! tighter but cost more Aggregate metadata reads; coarser steps trade
//! occupancy for extraction work.

use drt_accel::engine::EngineConfig;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::config::DrtConfig;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Ablation: DRT grow step n (Algorithm 2 line 13)", &opts);
    let hier = opts.hierarchy();
    let parts = PartitionPreset::ExtensorPaper.partitions(hier.llb.capacity_bytes);
    let ctx = opts.run_ctx();
    let run = |a: &drt_tensor::CsMatrix, drt: DrtConfig| {
        let cfg = EngineConfig { drt, hier, ..EngineConfig::new(AccelSpec::extensor_op_drt()) };
        Session::from_engine_config(cfg).with_run_ctx(ctx.clone()).run_spmspm(a, a)
    };

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };
    let steps: &[u32] = &[1, 2, 4, 8];

    println!(
        "\n{:>5} {:>14} {:>16} {:>14}",
        "n", "traffic (MB)", "aggregate words", "runtime (ms)"
    );
    for &n in steps {
        let (mut traffic, mut words, mut time) = (Vec::new(), Vec::new(), Vec::new());
        for entry in &workloads {
            let a = entry.generate(opts.scale, opts.seed);
            let cfg = DrtConfig::new(parts.clone()).with_grow_step(n);
            match run(&a, cfg) {
                Ok(r) => {
                    traffic.push(r.traffic.total() as f64 / 1e6);
                    words.push(r.actions.extractor_words as f64);
                    time.push(r.seconds * 1e3);
                }
                Err(_) => continue,
            }
        }
        println!(
            "{:>5} {:>14.3} {:>16.0} {:>14.4}",
            n,
            geomean(&traffic),
            geomean(&words),
            geomean(&time)
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("ablation_grow_step".into())),
                ("n", JsonVal::U(n as u64)),
                ("traffic_mb", JsonVal::F(geomean(&traffic))),
                ("aggregate_words", JsonVal::F(geomean(&words))),
                ("runtime_ms", JsonVal::F(geomean(&time))),
            ],
        );
    }
    println!("\n(n = 1 is the paper's default: tightest packing, most metadata reads)");
}

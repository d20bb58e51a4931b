//! The paper's central claim, measured directly: DRT maximizes buffer
//! occupancy and minimizes its variation (§1/§3). For each workload,
//! compare the stationary tensor's buffer utilization (mean and CV) and
//! per-tile non-zero variation between DRT and the best dense-safe static
//! shape.

use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_core::config::DrtConfig;
use drt_core::kernel::Kernel;
use drt_core::occupancy::OccupancyProbe;
use drt_core::taskgen::{TaskGenOptions, TaskStream};
use drt_workloads::suite::Catalog;
use std::collections::BTreeMap;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Ablation: buffer occupancy — DRT vs dense-safe S-U-C", &opts);
    let hier = opts.hierarchy();
    let parts = drt_accel::spec::PartitionPreset::ExtensorPaper.partitions(hier.llb.capacity_bytes);

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };

    println!(
        "\n{:<20} {:>12} {:>10} {:>10} | {:>12} {:>10} {:>10}",
        "workload", "DRT util", "util CV", "nnz CV", "SUC util", "util CV", "nnz CV"
    );
    for entry in &workloads {
        let a = entry.generate(opts.scale, opts.seed);
        let kernel = match Kernel::spmspm(&a, &a, (32, 32)) {
            Ok(k) => k,
            Err(_) => continue,
        };
        let cfg = DrtConfig::new(parts.clone());
        let mut drt_probe = OccupancyProbe::new();
        match TaskStream::build(&kernel, TaskGenOptions::drt(&['j', 'k', 'i'], cfg.clone())) {
            Ok(stream) => {
                for t in stream {
                    drt_probe.record(&t, &parts);
                }
            }
            Err(_) => continue,
        }
        // Best dense-safe shape from the candidate menu (largest volume).
        let mut candidates = drt_core::suc::candidate_shapes(&kernel, &parts, &Default::default());
        candidates.sort_by_key(|s| s.values().map(|&v| v as u64).product::<u64>());
        let sizes: BTreeMap<char, u32> = match candidates.pop() {
            Some(s) => s,
            None => continue,
        };
        let mut suc_probe = OccupancyProbe::new();
        if let Ok(stream) =
            TaskStream::build(&kernel, TaskGenOptions::suc(&['j', 'k', 'i'], cfg, &sizes))
        {
            for t in stream {
                suc_probe.record(&t, &parts);
            }
        }
        let d = &drt_probe.stats()["B"];
        let s = &suc_probe.stats()["B"];
        println!(
            "{:<20} {:>11.1}% {:>10.2} {:>10.2} | {:>11.1}% {:>10.2} {:>10.2}",
            entry.name,
            d.mean_utilization * 100.0,
            d.utilization_cv,
            d.nnz_cv,
            s.mean_utilization * 100.0,
            s.utilization_cv,
            s.nnz_cv
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("ablation_occupancy".into())),
                ("workload", JsonVal::S(entry.name.to_string())),
                ("drt_util", JsonVal::F(d.mean_utilization)),
                ("drt_nnz_cv", JsonVal::F(d.nnz_cv)),
                ("suc_util", JsonVal::F(s.mean_utilization)),
                ("suc_nnz_cv", JsonVal::F(s.nnz_cv)),
            ],
        );
    }
    println!(
        "\n(stationary tensor B; DRT should fill its partition nearly fully with low variation)"
    );
}

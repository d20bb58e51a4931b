//! Ablation: the tile extractor's pipelining (§4.2.3). Compares the ideal
//! 0-cycle extractor, the pipelined parallel extractor (the design), an
//! unpipelined variant (single-ported buffers), and a serial (P = 1)
//! aggregate — quantifying how much each mechanism hides.

use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, SpecKind};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::extractor::ExtractorModel;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Ablation: extractor pipelining and read width (§4.2.3)", &opts);
    let ctx = opts.run_ctx();

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };

    let variants: Vec<(&str, ExtractorModel)> = vec![
        ("ideal (0-cycle)", ExtractorModel::ideal()),
        ("pipelined P=32", ExtractorModel::parallel()),
        ("unpipelined P=32", ExtractorModel::unpipelined()),
        ("pipelined P=1", ExtractorModel::serial()),
        ("unpipelined P=1", ExtractorModel { pipelined: false, ..ExtractorModel::serial() }),
    ];

    println!("\n{:<20} {:>14} {:>18}", "extractor", "runtime (ms)", "exposed cycles");
    let mut ideal_ms = 0.0;
    for (label, model) in &variants {
        let mut spec = AccelSpec::extensor_op_drt();
        if let SpecKind::Engine(es) = &mut spec.kind {
            es.extractor = *model;
        }
        let tactile = Session::new(spec).with_run_ctx(ctx.clone());
        let (mut times, mut exposed) = (Vec::new(), Vec::new());
        for entry in &workloads {
            let a = entry.generate(opts.scale, opts.seed);
            if let Ok(r) = tactile.run_spmspm(&a, &a) {
                times.push(r.seconds * 1e3);
                exposed.push(r.exposed_extract_cycles as f64 + 1.0);
            }
        }
        let g = geomean(&times);
        if *label == "ideal (0-cycle)" {
            ideal_ms = g;
        }
        println!("{:<20} {:>14.4} {:>18.0}", label, g, geomean(&exposed) - 1.0);
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("ablation_pipeline".into())),
                ("extractor", JsonVal::S(label.to_string())),
                ("runtime_ms", JsonVal::F(g)),
            ],
        );
        if *label == "pipelined P=32" && ideal_ms > 0.0 {
            println!(
                "{:<20} {:>13.3}% overhead vs ideal (paper: < 1%)",
                "",
                (g / ideal_ms - 1.0) * 100.0
            );
        }
    }
}

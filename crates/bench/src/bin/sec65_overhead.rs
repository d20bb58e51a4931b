//! Section 6.5: tile-extraction overhead and energy.
//!
//! Compares ExTensor-OP-DRT with the parallel tile extractor against an
//! ideal 0-cycle extractor (the paper measures < 1% difference), and
//! reports per-design energy using the Accelergy-like model.

use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, SpecKind};
use drt_bench::{banner, emit_json, geomean, BenchOpts, JsonVal};
use drt_core::extractor::ExtractorModel;
use drt_sim::energy::EnergyModel;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Section 6.5: extractor overhead and energy", &opts);
    let ctx = opts.run_ctx();
    let session =
        |name: &str| Session::from_registry(name).expect("registered").with_run_ctx(ctx.clone());
    // ExTensor-OP-DRT with an explicit tile-extractor model.
    let tactile = |extractor: ExtractorModel| {
        let mut spec = AccelSpec::extensor_op_drt();
        if let SpecKind::Engine(es) = &mut spec.kind {
            es.extractor = extractor;
        }
        Session::new(spec).with_run_ctx(ctx.clone())
    };
    let energy = EnergyModel::default();

    let workloads: Vec<_> = if opts.quick {
        Catalog::sweep_subset().into_iter().take(2).collect()
    } else {
        Catalog::sweep_subset()
    };

    println!(
        "\n{:<20} {:>12} {:>12} {:>10} {:>14} {:>14} {:>14}",
        "workload",
        "ideal (ms)",
        "parallel(ms)",
        "overhead",
        "E ext (mJ)",
        "E op (mJ)",
        "E drt (mJ)"
    );
    let mut overheads = Vec::new();
    let (mut e_ext_r, mut e_op_r, mut e_drt_r) = (Vec::new(), Vec::new(), Vec::new());
    for entry in &workloads {
        let a = entry.generate(opts.scale, opts.seed);
        let ideal = tactile(ExtractorModel::ideal()).run_spmspm(&a, &a).expect("ideal");
        let real = tactile(ExtractorModel::parallel()).run_spmspm(&a, &a).expect("parallel");
        let ext = session("extensor").run_spmspm(&a, &a).expect("extensor");
        let op = session("extensor-op").run_spmspm(&a, &a).expect("op");
        let overhead = real.seconds / ideal.seconds - 1.0;
        let (e_ext, e_op, e_drt) = (
            energy.energy_joules(&ext.actions) * 1e3,
            energy.energy_joules(&op.actions) * 1e3,
            energy.energy_joules(&real.actions) * 1e3,
        );
        println!(
            "{:<20} {:>12.4} {:>12.4} {:>9.2}% {:>14.4} {:>14.4} {:>14.4}",
            entry.name,
            ideal.seconds * 1e3,
            real.seconds * 1e3,
            overhead * 100.0,
            e_ext,
            e_op,
            e_drt
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("sec65".into())),
                ("workload", JsonVal::S(entry.name.to_string())),
                ("extractor_overhead", JsonVal::F(overhead)),
                ("energy_extensor_mj", JsonVal::F(e_ext)),
                ("energy_op_mj", JsonVal::F(e_op)),
                ("energy_drt_mj", JsonVal::F(e_drt)),
            ],
        );
        overheads.push(overhead);
        e_ext_r.push(e_ext);
        e_op_r.push(e_op);
        e_drt_r.push(e_drt);
    }
    let max_ovh = overheads.iter().copied().fold(0.0f64, f64::max);
    println!("\nmax extractor overhead: {:.3}% (paper: < 1% on every workload)", max_ovh * 100.0);
    println!(
        "geomean energy: DRT uses {:.1}% less than ExTensor-OP and {:.1}% less than ExTensor",
        (1.0 - geomean(&e_drt_r) / geomean(&e_op_r)) * 100.0,
        (1.0 - geomean(&e_drt_r) / geomean(&e_ext_r)) * 100.0
    );
}

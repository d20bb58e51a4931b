//! Figure 1: DRAM traffic per operand (A, B, Z) aggregated over the
//! evaluation matrices, for OuterSPACE, MatRaptor, ExTensor, and
//! ExTensor-OP-DRT, with the per-design traffic lower bound (red squares).

use drt_accel::session::Session;
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_sim::traffic::TrafficCounter;
use drt_workloads::suite::Catalog;

fn main() {
    let opts = BenchOpts::from_args();
    banner("Figure 1: aggregate DRAM traffic per operand (S^2, B = A)", &opts);
    let ctx = opts.run_ctx();

    let workloads: Vec<_> =
        if opts.quick { Catalog::sweep_subset() } else { Catalog::figure6_order() };

    let mut totals: Vec<(String, TrafficCounter)> = vec![
        ("OuterSPACE".into(), TrafficCounter::new()),
        ("MatRaptor".into(), TrafficCounter::new()),
        ("ExTensor".into(), TrafficCounter::new()),
        ("ExTensor-OP-DRT".into(), TrafficCounter::new()),
    ];
    let mut lower = TrafficCounter::new();

    for entry in &workloads {
        let a = entry.generate(opts.scale, opts.seed);
        eprintln!("  {} ({}x{}, {} nnz)…", entry.name, a.nrows(), a.ncols(), a.nnz());
        let runs = ["outerspace", "matraptor", "extensor", "extensor-op-drt"].map(|name| {
            Session::from_registry(name)
                .expect("registered")
                .with_run_ctx(ctx.clone())
                .run_spmspm(&a, &a)
                .unwrap_or_else(|e| panic!("{name} run: {e}"))
        });
        let z = runs[2].output.as_ref().expect("functional output");
        lower.merge(&drt_sim::traffic::spmspm_lower_bound(&a, &a, z, &Default::default()));
        for (slot, run) in totals.iter_mut().zip(runs.iter()) {
            slot.1.merge(&run.traffic);
        }
    }

    let gb = |b: u64| b as f64 / 1e9;
    println!(
        "\n{:<18} {:>10} {:>10} {:>10} {:>10}",
        "design", "A (GB)", "B (GB)", "Z (GB)", "total"
    );
    for (name, t) in &totals {
        println!(
            "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            name,
            gb(t.of("A")),
            gb(t.of("B")),
            gb(t.of("Z")),
            gb(t.total())
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig01".into())),
                ("design", JsonVal::S(name.clone())),
                ("a_bytes", JsonVal::U(t.of("A"))),
                ("b_bytes", JsonVal::U(t.of("B"))),
                ("z_bytes", JsonVal::U(t.of("Z"))),
            ],
        );
    }
    println!(
        "{:<18} {:>10.4} {:>10.4} {:>10.4} {:>10.4}   (read once / write once)",
        "lower bound",
        gb(lower.of("A")),
        gb(lower.of("B")),
        gb(lower.of("Z")),
        gb(lower.total())
    );

    let drt_total = totals[3].1.total() as f64;
    println!("\ntraffic vs lower bound:");
    for (name, t) in &totals {
        println!("  {:<18} {:>6.2}x", name, t.total() as f64 / lower.total() as f64);
    }
    println!(
        "\nExTensor-OP-DRT reduces traffic by {:.2}x / {:.2}x / {:.2}x vs OuterSPACE / MatRaptor / ExTensor",
        totals[0].1.total() as f64 / drt_total,
        totals[1].1.total() as f64 / drt_total,
        totals[2].1.total() as f64 / drt_total,
    );
}

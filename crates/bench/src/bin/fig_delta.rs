//! fig_delta: incremental re-execution vs. update size.
//!
//! An evolving operand `A` receives seeded delta batches of growing size
//! (1 → hundreds of upserts/deletes); after each batch an
//! [`IncrementalSpmspm`] re-runs `Z = A · B`, planning the task stream
//! from scratch and re-executing only the tasks whose inputs the delta
//! crossed. Every incremental report is bit-diffed against a from-scratch
//! run of the patched operands — the binary exits nonzero on any
//! divergence — and the table records how the re-executed fraction scales
//! with update size (small deltas must re-execute a small fraction of the
//! tasks; growing deltas approach a full re-execution).
//!
//! stdout is fully deterministic (counters and fractions only) so the CI
//! golden can byte-diff a `--quick --json` run. Wall-clock measurements
//! (incremental vs. from-scratch milliseconds) go to stderr under
//! `--quick`; a full run prints them to stdout, plus one `JSON` row per
//! update size under `--json`. The binary writes no files.

use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::incremental::IncrementalSpmspm;
use drt_accel::session::Session;
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_core::config::{DrtConfig, Partitions};
use drt_tensor::DeltaBatch;
use drt_workloads::patterns;
use std::time::Instant;

/// Deterministic splitmix64 step for the seeded delta stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded batch of `ops` random upserts (3/4) and deletes (1/4).
fn random_batch(state: &mut u64, n: u32, ops: usize) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for _ in 0..ops {
        let r = (splitmix(state) % u64::from(n)) as u32;
        let c = (splitmix(state) % u64::from(n)) as u32;
        if splitmix(state).is_multiple_of(4) {
            d.delete(r, c);
        } else {
            let v = (splitmix(state) % 2_000) as f64 / 100.0 - 10.0;
            d.upsert(r, c, v);
        }
    }
    d
}

fn frac(f: Option<f64>) -> String {
    match f {
        Some(f) => format!("{f:.4}"),
        None => "-".into(),
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    banner("fig_delta: incremental re-execution across operand deltas", &opts);

    let n: u32 = if opts.quick { 512 } else { 1024 };
    let nnz = n as usize * 16;
    let mut a = patterns::unstructured(n, n, nnz, 1.5, opts.seed.wrapping_add(3));
    let b = patterns::unstructured(n, n, nnz, 1.0, opts.seed.wrapping_add(7));
    // Partitions sized so the workload splits into many boxes — the
    // granularity the delta path re-executes at.
    let mut cfg = EngineConfig::new((
        "fig-delta-drt",
        Tiling::Drt,
        DrtConfig::new(Partitions::from_bytes(&[("A", 8192), ("B", 8192), ("Z", 2048)])),
    ));
    // Re-execution locality follows the loop order: deltas dirty A's
    // rows, so sweeping `i` outermost confines changed plans and inputs
    // to the tasks whose `i` range crosses a dirty row (plus the next
    // task, whose residency they seed). Under the default j-outermost
    // dataflow every interior planning box spans all of `i`, so a
    // single-row delta can reshape tiles across the whole sweep.
    cfg.loop_order = vec!['i', 'k', 'j'];
    let update_sizes: &[usize] = if opts.quick { &[1, 8, 64] } else { &[1, 4, 16, 64, 256, 1024] };

    let mut eng = IncrementalSpmspm::new(cfg.clone());
    let t0 = Instant::now();
    let cold = eng.run(&a, &b).expect("cold incremental run");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold_stats = eng.last_stats();
    println!(
        "workload: A,B {n}x{n} ~{nnz} nnz | cold run: {} tasks, {} plans computed\n",
        cold_stats.tasks, cold_stats.plans_computed
    );
    drop(cold);

    println!(
        "{:>11} {:>7} {:>9} {:>8} {:>11} {:>14}",
        "update-size", "tasks", "executed", "spliced", "reexecuted", "bit-identical"
    );
    let mut state = opts.seed ^ 0xF16D_E17A_0000_0001;
    let mut errors = 0usize;
    let mut wall = Vec::new();
    for &ops in update_sizes {
        a.apply_delta(&random_batch(&mut state, n, ops));

        let t1 = Instant::now();
        let incr = eng.run(&a, &b).expect("incremental run");
        let incr_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let scratch =
            Session::from_engine_config(cfg.clone()).run_spmspm(&a, &b).expect("from-scratch run");
        let scratch_ms = t2.elapsed().as_secs_f64() * 1e3;

        let identical = match scratch.bit_diff(&incr) {
            None => "yes",
            Some(diff) => {
                errors += 1;
                eprintln!("fig_delta: update-size {ops}: diverged: {diff}");
                "NO"
            }
        };
        let s = eng.last_stats();
        println!(
            "{:>11} {:>7} {:>9} {:>8} {:>11} {:>14}",
            ops,
            s.tasks,
            s.executed,
            s.spliced,
            frac(s.executed_fraction()),
            identical
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig_delta".into())),
                ("update_size", JsonVal::U(ops as u64)),
                ("tasks", JsonVal::U(s.tasks)),
                ("executed", JsonVal::U(s.executed)),
                ("spliced", JsonVal::U(s.spliced)),
                ("reexecuted_fraction", JsonVal::S(frac(s.executed_fraction()))),
                ("bit_identical", JsonVal::S(identical.into())),
            ],
        );
        wall.push((ops, incr_ms, scratch_ms, s, eng.cached_tasks()));
    }

    // Wall-clock: nondeterministic, so stderr under --quick (keeping the
    // golden byte-stable) and stdout on a full run.
    let mut metrics = format!("\ncold run: {cold_ms:.2} ms\n");
    for (ops, incr_ms, scratch_ms, _, cached) in &wall {
        metrics.push_str(&format!(
            "update-size {ops:>5}: incremental {incr_ms:>8.2} ms | from-scratch \
             {scratch_ms:>8.2} ms | speedup {:>5.2}x | stored results {cached}\n",
            scratch_ms / incr_ms.max(1e-9)
        ));
    }
    if opts.quick {
        eprint!("{metrics}");
    } else {
        print!("{metrics}");
        for (ops, incr_ms, scratch_ms, s, _) in &wall {
            emit_json(
                &opts,
                &[
                    ("figure", JsonVal::S("fig_delta_wall".into())),
                    ("update_size", JsonVal::U(*ops as u64)),
                    ("tasks", JsonVal::U(s.tasks)),
                    ("reexecuted_fraction", JsonVal::S(frac(s.executed_fraction()))),
                    ("incremental_ms", JsonVal::F(*incr_ms)),
                    ("from_scratch_ms", JsonVal::F(*scratch_ms)),
                    ("speedup", JsonVal::F(scratch_ms / incr_ms.max(1e-9))),
                ],
            );
        }
    }
    if errors > 0 {
        eprintln!("fig_delta: {errors} update step(s) diverged from from-scratch");
        std::process::exit(1);
    }
}

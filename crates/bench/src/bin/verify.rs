//! Differential verification gate: every registered accelerator variant ×
//! thread counts {1, 4}, against the dense oracle and the model
//! invariants, over the seeded workload corpus.
//!
//! ```text
//! cargo run -p drt-bench --release --bin verify -- --quick --seed 0
//! ```
//!
//! Flags:
//!
//! * `--seed S` — base corpus seed (default 0).
//! * `--iters N` — corpus repetitions; iteration `i` reseeds with
//!   `S + 1000·i` (default 1).
//! * `--quick` — the small CI corpus instead of the full sweep.
//! * `--ulp N` — ULP tolerance for output comparison (default
//!   [`drt_verify::driver::DEFAULT_MAX_ULP`]).
//! * `--out DIR` — where to write shrunk `.mtx` reproducers (default
//!   `verify-reproducers/`).
//! * `--chaos` — run the chaos-injection harness instead of the
//!   differential sweep: seeded worker panics, slow shards, and
//!   cancellations, asserting the recovery invariants (a panic surfaces
//!   as a typed error with a consistent partial report, degraded reports
//!   consistent, traces parseable). Honors `--seed` and `--quick`.
//! * `--chaos-serve` — run the serve-layer chaos harness instead:
//!   seeded crashing, poison, and slow requests against a live
//!   `drt-serve` server, asserting the survivability invariants (every
//!   admitted ticket resolves, survivors bit-identical to standalone,
//!   quarantine trips at exactly its threshold). Honors `--seed` and
//!   `--quick`.
//!
//! Failures are greedily shrunk and written as `<case>.A.mtx` /
//! `<case>.B.mtx` reproducer pairs; the process exits non-zero, so CI can
//! use this binary as a gate.

use drt_verify::chaos::{run_chaos, ChaosOptions};
use drt_verify::chaos_serve::{run_chaos_serve, ChaosServeOptions};
use drt_verify::driver::{verify_all, VerifyOptions, DEFAULT_MAX_ULP};
use std::path::PathBuf;

fn parse_args() -> (VerifyOptions, bool, bool) {
    let mut chaos = false;
    let mut chaos_serve = false;
    let mut opts = VerifyOptions {
        reproducer_dir: Some(PathBuf::from("verify-reproducers")),
        ..VerifyOptions::default()
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.seed = v;
                    i += 1;
                }
            }
            "--iters" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.iters = v;
                    i += 1;
                }
            }
            "--ulp" => {
                if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                    opts.max_ulp = v;
                    i += 1;
                }
            }
            "--out" => {
                if let Some(v) = args.get(i + 1) {
                    opts.reproducer_dir = Some(PathBuf::from(v));
                    i += 1;
                }
            }
            "--quick" => opts.quick = true,
            "--chaos" => chaos = true,
            "--chaos-serve" => chaos_serve = true,
            other => {
                eprintln!("warning: unknown flag {other} ignored");
            }
        }
        i += 1;
    }
    (opts, chaos, chaos_serve)
}

fn main() {
    let (opts, chaos, chaos_serve) = parse_args();
    if chaos_serve {
        let copts = ChaosServeOptions { seed: opts.seed, quick: opts.quick };
        println!(
            "drt-verify chaos-serve: seed {}, {} corpus",
            copts.seed,
            if copts.quick { "quick" } else { "full" },
        );
        let summary = run_chaos_serve(&copts);
        println!(
            "checked {} serve-chaos scenario(s): {} failure(s)",
            summary.scenarios,
            summary.failures.len()
        );
        for f in &summary.failures {
            println!("FAIL {f}");
        }
        if summary.passed() {
            println!("PASS: every admitted ticket resolved and every survivor matched standalone");
            return;
        }
        std::process::exit(1);
    }
    if chaos {
        let copts = ChaosOptions { seed: opts.seed, quick: opts.quick, ..ChaosOptions::default() };
        println!(
            "drt-verify chaos: seed {}, {} corpus, threads {:?}",
            copts.seed,
            if copts.quick { "quick" } else { "full" },
            copts.threads
        );
        let summary = run_chaos(&copts);
        println!(
            "checked {} chaos scenario(s): {} failure(s)",
            summary.scenarios,
            summary.failures.len()
        );
        for f in &summary.failures {
            println!("FAIL {f}");
        }
        if summary.passed() {
            println!("PASS: every injected fault failed or degraded as promised");
            return;
        }
        std::process::exit(1);
    }
    println!(
        "drt-verify: seed {}, {} iteration(s), {} corpus, ulp tolerance {}",
        opts.seed,
        opts.iters.max(1),
        if opts.quick { "quick" } else { "full" },
        opts.max_ulp
    );
    if opts.max_ulp == DEFAULT_MAX_ULP {
        println!("           (default tolerance; override with --ulp N)");
    }
    let summary = verify_all(&opts);
    println!(
        "checked {} runs (variant x workload x threads): {} failure(s)",
        summary.runs,
        summary.failures.len()
    );
    for f in &summary.failures {
        let (ar, ac, bc, an, bn) = f.shrunk_shape;
        println!("FAIL {} on {} [{}]", f.variant, f.workload, f.exec);
        println!("     {}", f.detail);
        println!("     shrunk to A {ar}x{ac} ({an} nnz) · B {ac}x{bc} ({bn} nnz)");
        if let Some((pa, pb)) = &f.reproducer {
            println!("     reproducer: {} / {}", pa.display(), pb.display());
        }
    }
    if summary.passed() {
        println!("PASS: every variant agrees with the oracle and satisfies the invariants");
    } else {
        std::process::exit(1);
    }
}

//! fig_serve: open-loop load generator against the `drt-serve` layer.
//!
//! Submits a fixed arrival schedule of quick-sized kernels — a recurring
//! mix of SpMSpM, staged-pipeline, and MTTKRP workloads across all three
//! priority classes — to a [`Server`] pool, then reports sustained
//! throughput and p50/p99/p999 latency. Every served report is
//! bit-diffed against the same workload run through a standalone
//! [`Session`]: the serving layer adds scheduling, never semantics, and
//! this binary exits nonzero on any divergence, degradation, or error.
//!
//! stdout is fully deterministic (per-workload fingerprints, request
//! counts, outcomes, bit-identity verdicts) so the CI golden can byte-
//! diff a `--quick` run. Wall-clock measurements — latency percentiles,
//! req/s, server counters — go to stderr under `--quick`; a full run
//! prints them to stdout, plus one `JSON` row under `--json`. The binary
//! writes no files.
//!
//! Extra flags (on top of the common [`BenchOpts`] set):
//!
//! * `--rate N` — offered load in requests/second (default 2000; 1000
//!   under `--quick`).
//! * `--requests N` — total requests (default 2000; 48 under `--quick`).
//! * `--serve-workers N` — worker pool size (default: one per core).

use drt_accel::pipeline::PipelineSpec;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_accel::workload::{Priority, TenantId, Workload};
use drt_bench::{banner, emit_json, BenchOpts, JsonVal};
use drt_serve::{ServeConfig, Server};
use drt_workloads::patterns;
use drt_workloads::tensor3::{dense_factor, Tensor3Gen};
use std::time::{Duration, Instant};

/// The recurring workload mix: six distinct SpMSpM kernels plus one
/// A·B·C chain and one MTTKRP, all sized to stay small (batchable).
fn workload_mix(seed: u64) -> Vec<(String, Workload)> {
    let mut mix = Vec::new();
    for k in 0..6u64 {
        let a = patterns::unstructured(48, 40, 400, 1.0, seed * 100 + k);
        let b = patterns::unstructured(40, 44, 380, 1.0, seed * 100 + 50 + k);
        mix.push((format!("spmspm-{k}"), Workload::spmspm(a, b)));
    }
    let a = patterns::unstructured(48, 40, 400, 1.0, seed * 100 + 90);
    let b = patterns::unstructured(40, 44, 380, 1.0, seed * 100 + 91);
    let c = patterns::unstructured(44, 36, 300, 1.0, seed * 100 + 92);
    mix.push(("abc-chain".into(), Workload::pipeline_on_matrix(a, PipelineSpec::abc(b, c))));
    let x = Tensor3Gen::mode_skewed(24, 20, 22, 600, seed).generate();
    mix.push((
        "mttkrp".into(),
        Workload::mttkrp(x, dense_factor(20, 8, 1), dense_factor(22, 8, 2)),
    ));
    mix
}

fn arg_u64(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)?.parse().ok())
}

/// Sleep-then-spin until `target`, returning the actual instant reached.
fn pace(target: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= target {
            return now;
        }
        let rem = target - now;
        if rem > Duration::from_micros(300) {
            std::thread::sleep(rem - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let opts = BenchOpts::from_args();
    banner("fig_serve: drt-serve open-loop load generator", &opts);
    let ctx = opts.run_ctx();
    let total = arg_u64("--requests").unwrap_or(if opts.quick { 48 } else { 2000 }) as usize;
    let rate = arg_u64("--rate").unwrap_or(if opts.quick { 1000 } else { 2000 }).max(1);
    let interval = Duration::from_secs_f64(1.0 / rate as f64);

    let mix = workload_mix(opts.seed);
    let session = || {
        Session::from_registry("extensor-op-drt")
            .expect("registry variant")
            .with_run_ctx(ctx.clone())
    };

    // Standalone reference reports: the bit-identity baseline.
    let standalone = session();
    let expected: Vec<RunReport> = mix
        .iter()
        .map(|(name, w)| {
            let out = standalone.run_workload(w).unwrap_or_else(|e| panic!("{name}: {e}"));
            out.into_report()
        })
        .collect();

    let mut cfg = ServeConfig::default().with_queue_capacity(total.max(1024));
    if let Some(w) = arg_u64("--serve-workers") {
        cfg = cfg.with_workers(w as usize);
    }
    let workers = cfg.workers;
    let server = Server::start(session(), cfg).expect("start serve pool");

    // Open-loop submission: request i is *scheduled* at start + i·interval
    // regardless of how the pool is doing; latency is measured from the
    // scheduled arrival, so submit slip and queueing both count. Requests
    // rotate over three named tenants so the per-tenant counters exercise
    // the fair-share accounting under a deterministic assignment.
    let classes = [Priority::Interactive, Priority::Normal, Priority::Batch];
    let tenants: Vec<(&str, TenantId)> =
        ["alice", "bob", "carol"].iter().map(|n| (*n, TenantId::from_name(n))).collect();
    let req_opts = opts.request_opts();
    let start = Instant::now() + Duration::from_millis(2);
    let mut pending = Vec::with_capacity(total);
    for i in 0..total {
        let target = start + interval * i as u32;
        let submit_at = pace(target);
        let widx = i % mix.len();
        let req = req_opts
            .wrap(mix[widx].1.clone())
            .with_priority(classes[i % classes.len()])
            .with_tenant(tenants[i % tenants.len()].1);
        let slip = submit_at - target;
        match server.submit(req) {
            Ok(ticket) => pending.push((widx, slip, submit_at, Ok(ticket))),
            Err(e) => pending.push((widx, slip, submit_at, Err(e.to_string()))),
        }
    }

    // Collect. Latency = slip + (admission → completion), i.e. measured
    // from the scheduled arrival instant.
    let mut latencies = Vec::with_capacity(total);
    let mut end = start;
    let mut per: Vec<(u64, u64, Option<String>)> = vec![(0, 0, None); mix.len()];
    let mut errors = 0usize;
    for (widx, slip, submit_at, ticket) in pending {
        let row = &mut per[widx];
        row.0 += 1;
        let served = match ticket.and_then(|t| t.wait().map_err(|e| e.to_string())) {
            Ok(s) => s,
            Err(e) => {
                errors += 1;
                row.2.get_or_insert(format!("serve error: {e}"));
                continue;
            }
        };
        latencies.push(slip + served.total_time);
        end = end.max(submit_at + served.total_time);
        match &served.response {
            Ok(resp) if !resp.is_degraded() => {
                row.1 += 1;
                if let Some(diff) = expected[widx].bit_diff(resp.report()) {
                    errors += 1;
                    row.2.get_or_insert(format!("served report diverged: {diff}"));
                }
            }
            Ok(_) => {
                errors += 1;
                row.2.get_or_insert("run degraded".into());
            }
            Err(e) => {
                errors += 1;
                row.2.get_or_insert(format!("run error: {e}"));
            }
        }
    }
    let stats = server.shutdown();

    // Deterministic per-workload table (the CI golden byte-diffs this).
    println!(
        "\n{:<12} {:>8} {:>18} {:>9} {:>10} {:>14}",
        "workload", "kind", "fingerprint", "requests", "outcome", "bit-identical"
    );
    for ((name, w), (reqs, complete, bad)) in mix.iter().zip(&per) {
        let outcome = match bad {
            None if complete == reqs => "complete",
            _ => "FAILED",
        };
        let identical = if bad.is_none() { "yes" } else { "NO" };
        println!(
            "{:<12} {:>8} {:>#18x} {:>9} {:>10} {:>14}",
            name,
            w.kind(),
            w.fingerprint(),
            reqs,
            outcome,
            identical
        );
        if let Some(why) = bad {
            println!("  └─ {why}");
        }
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig_serve".into())),
                ("workload", JsonVal::S(name.clone())),
                ("kind", JsonVal::S(w.kind().into())),
                ("fingerprint", JsonVal::S(format!("{:#x}", w.fingerprint()))),
                ("requests", JsonVal::U(*reqs)),
                ("outcome", JsonVal::S(outcome.into())),
                ("bit_identical", JsonVal::S(identical.into())),
            ],
        );
    }
    println!(
        "\ntotal: {} requests over {} distinct workloads | errors: {}",
        total,
        mix.len(),
        errors
    );

    // Deterministic survivability + per-tenant rows: a healthy run has
    // every counter at zero and every request completed, so these lines
    // are byte-stable and the golden pins them.
    println!(
        "survivability: crashed {} | quarantined {} | quarantine-rejected {}",
        stats.crashed, stats.quarantined, stats.quarantine_rejected,
    );
    for (name, id) in &tenants {
        let row = stats.tenant(*id).copied().unwrap_or_default();
        println!(
            "tenant {:<6} submitted {:>5} | completed {:>5} | rejected {:>3} | crashed {:>3}",
            name, row.submitted, row.completed, row.rejected, row.crashed
        );
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig_serve".into())),
                ("tenant", JsonVal::S((*name).into())),
                ("submitted", JsonVal::U(row.submitted)),
                ("completed", JsonVal::U(row.completed)),
                ("rejected", JsonVal::U(row.rejected)),
                ("crashed", JsonVal::U(row.crashed)),
            ],
        );
    }

    // Wall-clock measurements: nondeterministic, so stderr under --quick
    // (keeping the golden byte-stable) and stdout on a full run.
    latencies.sort_unstable();
    let (p50, p99, p999) =
        (percentile(&latencies, 0.50), percentile(&latencies, 0.99), percentile(&latencies, 0.999));
    let elapsed = (end - start).as_secs_f64().max(1e-9);
    let sustained = latencies.len() as f64 / elapsed;
    let metrics = format!(
        "latency: p50 {:.1} us | p99 {:.1} us | p999 {:.1} us\n\
         sustained: {:.0} req/s ({} served in {:.3} s, offered {} req/s, {} workers)\n\
         server: completed {} | cache hits {} | batches {} (batched reqs {}) | max queue depth {}\n",
        p50.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
        p999.as_secs_f64() * 1e6,
        sustained,
        latencies.len(),
        elapsed,
        rate,
        workers,
        stats.completed,
        stats.cache_hits,
        stats.batches,
        stats.batched_requests,
        stats.max_queue_depth,
    );
    if opts.quick {
        eprint!("{metrics}");
    } else {
        print!("{metrics}");
        emit_json(
            &opts,
            &[
                ("figure", JsonVal::S("fig_serve_wall".into())),
                ("requests", JsonVal::U(total as u64)),
                ("distinct_workloads", JsonVal::U(mix.len() as u64)),
                ("workers", JsonVal::U(workers as u64)),
                ("offered_rps", JsonVal::U(rate)),
                ("sustained_rps", JsonVal::F(sustained)),
                ("p50_us", JsonVal::F(p50.as_secs_f64() * 1e6)),
                ("p99_us", JsonVal::F(p99.as_secs_f64() * 1e6)),
                ("p999_us", JsonVal::F(p999.as_secs_f64() * 1e6)),
                ("completed", JsonVal::U(stats.completed)),
                ("cache_hits", JsonVal::U(stats.cache_hits)),
                ("batches", JsonVal::U(stats.batches)),
                ("batched_requests", JsonVal::U(stats.batched_requests)),
                ("max_queue_depth", JsonVal::U(stats.max_queue_depth as u64)),
                ("crashed", JsonVal::U(stats.crashed)),
                ("quarantined", JsonVal::U(stats.quarantined)),
                ("quarantine_rejected", JsonVal::U(stats.quarantine_rejected)),
                ("errors", JsonVal::U(errors as u64)),
            ],
        );
    }
    if errors > 0 {
        eprintln!("fig_serve: {errors} request(s) failed or diverged");
        std::process::exit(1);
    }
}

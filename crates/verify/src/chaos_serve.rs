//! Serve-layer chaos harness: seeded fault injection against a live
//! [`Server`], proving the serving survivability machinery holds its
//! liveness invariants under worker crashes, poison workloads, and
//! head-of-line-blocking slow requests:
//!
//! 1. **Ticket liveness** — every admitted ticket resolves, even when
//!    the request crashes its worker, even at pool size 1 (one crashed
//!    request must not hang the whole pool). Resolution is bounded by a
//!    harness watchdog, so a violated invariant fails the gate instead
//!    of hanging it.
//! 2. **Survivor bit-identity** — requests that execute around the
//!    faults produce reports bit-identical to standalone
//!    [`Session`] runs: chaos changes who
//!    crashes, never the bits of who survives.
//! 3. **Quarantine precision** — a poison workload (persistent panic,
//!    matched by content fingerprint) is quarantined after *exactly*
//!    [`ServeConfig::quarantine_after`] crashed attempts: each crash up
//!    to the threshold executes, the very next submission is rejected at
//!    admission, and the injector's hit counter proves no quarantined
//!    submission ever reached a worker.
//! 4. **Recovered retries are invisible** — a transient crash under a
//!    retry budget resolves `Ok`, bit-identical, with the crash visible
//!    only in the stats.
//!
//! Injection decisions are seeded and wall-clock-free (faults fire at
//! fixed execution sequence numbers or fingerprints), so failures
//! replay. The `verify` binary fronts [`run_chaos_serve`] behind
//! `--chaos-serve`; CI runs `verify -- --chaos-serve --quick` as a gate.

use crate::chaos::ChaosSummary;
use crate::driver::verify_hierarchy;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_accel::spec::AccelSpec;
use drt_accel::workload::{Request, Workload};
use drt_core::chaos::{PanicInWorker, PoisonFingerprint, SlowRequest};
use drt_serve::config::RetryPolicy;
use drt_serve::{ServeConfig, ServeError, Served, Server, Ticket};
use drt_workloads::patterns::unstructured;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serve-chaos configuration (mirrors the `verify` binary's flags).
#[derive(Debug, Clone, Default)]
pub struct ChaosServeOptions {
    /// Workload seed.
    pub seed: u64,
    /// Quick mode: pool size 1 only, smaller request counts (the CI
    /// gate).
    pub quick: bool,
}

/// How long the watchdog waits for one ticket before declaring the
/// liveness invariant violated. Generous — a healthy pool answers these
/// workloads in milliseconds — because a false "hang" on a loaded CI box
/// is worse than a slow failure.
const TICKET_WATCHDOG: Duration = Duration::from_secs(60);

fn session() -> Session {
    Session::new(AccelSpec::extensor_op_drt()).hierarchy(&verify_hierarchy())
}

/// The seeded workload set: distinct small SpMSpM kernels (distinct
/// fingerprints, so per-workload faults are selective).
fn workloads(seed: u64, n: usize) -> Vec<Workload> {
    (0..n)
        .map(|i| {
            let s = seed + 10 * i as u64;
            let dim = 40 + i as u32;
            let a = unstructured(dim, 36, 320, 1.5, s + 1);
            let b = unstructured(36, dim, 300, 1.5, s + 2);
            Workload::spmspm(a, b)
        })
        .collect()
}

fn standalone_reports(workloads: &[Workload]) -> Vec<RunReport> {
    let s = session();
    workloads.iter().map(|w| s.run_workload(w).expect("standalone run").into_report()).collect()
}

/// Resolve a ticket under the watchdog: `Some(served)` or `None` on a
/// liveness violation (the ticket did not resolve in time).
fn wait_bounded(ticket: &Ticket) -> Option<Served> {
    let deadline = Instant::now() + TICKET_WATCHDOG;
    loop {
        if let Some(served) = ticket.try_wait() {
            return Some(served);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn check(summary: &mut ChaosSummary, label: &str, failure: Option<String>) {
    summary.scenarios += 1;
    if let Some(msg) = failure {
        summary.failures.push(format!("{label}: {msg}"));
    }
}

/// Scenario 1+2: crash the first `crashes` execution attempts at a given
/// pool size, no retries. Every ticket must resolve; exactly `crashes`
/// of them as [`ServeError::WorkerCrashed`] (at pool size 1, which ones
/// is deterministic: the first `crashes` in service order); every
/// survivor bit-identical to standalone.
fn check_crash_liveness(opts: &ChaosServeOptions, pool: usize, crashes: u32) -> Option<String> {
    let n = if opts.quick { 4 } else { 8 };
    let wls = workloads(opts.seed, n);
    let expected = standalone_reports(&wls);
    let cfg = ServeConfig::default()
        .with_workers(pool)
        .with_memoize(false)
        .with_retry(RetryPolicy::none())
        .with_quarantine_after(u32::MAX)
        .with_chaos(Arc::new(PanicInWorker::new(0, crashes)));
    let server = match Server::start(session(), cfg) {
        Ok(s) => s,
        Err(e) => return Some(format!("server failed to start: {e}")),
    };
    let tickets: Vec<Ticket> = match wls
        .iter()
        .map(|w| server.submit(Request::new(w.clone())))
        .collect::<Result<_, _>>()
    {
        Ok(t) => t,
        Err(e) => return Some(format!("admission refused a healthy submission: {e}")),
    };
    let mut crashed = 0u32;
    for (i, t) in tickets.iter().enumerate() {
        let served = match wait_bounded(t) {
            Some(s) => s,
            None => return Some(format!("ticket {i} did not resolve (liveness violation)")),
        };
        match served.response {
            Ok(resp) => {
                if let Some(diff) = expected[i].bit_diff(resp.report()) {
                    return Some(format!("survivor {i} diverged from standalone: {diff}"));
                }
            }
            Err(ServeError::WorkerCrashed { ref message, attempts }) => {
                crashed += 1;
                if attempts != 1 {
                    return Some(format!("no-retry crash reports {attempts} attempts"));
                }
                if !message.contains("chaos") {
                    return Some(format!("panic payload lost: {message:?}"));
                }
            }
            Err(e) => return Some(format!("request {i}: unexpected error {e}")),
        }
    }
    if crashed != crashes {
        return Some(format!("expected exactly {crashes} crashed tickets, saw {crashed}"));
    }
    let stats = server.shutdown();
    if stats.worker_panics != u64::from(crashes) || stats.crashed != u64::from(crashes) {
        return Some(format!(
            "stats disagree: {} panics / {} crashed, expected {crashes}",
            stats.worker_panics, stats.crashed
        ));
    }
    if stats.completed != (n as u64 - u64::from(crashes)) {
        return Some(format!("completed {} of {} non-crashed requests", stats.completed, n));
    }
    None
}

/// Scenario 3: a poison workload trips quarantine at exactly the
/// threshold while clean traffic keeps serving bit-identically.
fn check_quarantine_precision(opts: &ChaosServeOptions) -> Option<String> {
    let wls = workloads(opts.seed + 1000, 2);
    let expected = standalone_reports(&wls);
    let poison = wls[0].clone();
    let clean = wls[1].clone();
    let threshold = 3u32;
    let injector = Arc::new(PoisonFingerprint::new(poison.fingerprint()));
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_memoize(false)
        .with_retry(RetryPolicy::none())
        .with_quarantine_after(threshold)
        .with_chaos(injector.clone());
    let server = match Server::start(session(), cfg) {
        Ok(s) => s,
        Err(e) => return Some(format!("server failed to start: {e}")),
    };
    // Each submission up to the threshold is admitted and crashes.
    for i in 0..threshold {
        let ticket = match server.submit(Request::new(poison.clone())) {
            Ok(t) => t,
            Err(e) => return Some(format!("crash {i} rejected before the threshold: {e}")),
        };
        match wait_bounded(&ticket) {
            None => return Some(format!("poison ticket {i} did not resolve")),
            Some(s) if !matches!(s.response, Err(ServeError::WorkerCrashed { .. })) => {
                return Some(format!("poison request {i} did not crash: {:?}", s.response))
            }
            Some(_) => {}
        }
        // Clean traffic between crashes stays bit-identical.
        let ticket = match server.submit(Request::new(clean.clone())) {
            Ok(t) => t,
            Err(e) => return Some(format!("clean submission rejected: {e}")),
        };
        match wait_bounded(&ticket) {
            None => return Some("clean ticket did not resolve".into()),
            Some(s) => match s.response {
                Ok(resp) => {
                    if let Some(diff) = expected[1].bit_diff(resp.report()) {
                        return Some(format!("clean request diverged: {diff}"));
                    }
                }
                Err(e) => return Some(format!("clean request failed: {e}")),
            },
        }
    }
    // The very next poison submission must be rejected at admission.
    match server.submit(Request::new(poison.clone())) {
        Err(ServeError::Quarantined { crashes, .. }) if crashes == threshold => {}
        Err(e) => return Some(format!("wrong rejection after the threshold: {e}")),
        Ok(_) => return Some("submission past the threshold was admitted".into()),
    }
    if injector.hits() != u64::from(threshold) {
        return Some(format!(
            "injector fired {} times; a quarantined submission reached a worker",
            injector.hits()
        ));
    }
    let stats = server.shutdown();
    if stats.quarantined != 1 {
        return Some(format!("quarantine tripped {} times, expected once", stats.quarantined));
    }
    if stats.quarantine_rejected != 1 {
        return Some(format!("{} quarantine rejections, expected 1", stats.quarantine_rejected));
    }
    None
}

/// Scenario 4: a transient crash with a retry budget resolves `Ok`,
/// bit-identical, crash visible only in the stats.
fn check_retry_recovers(opts: &ChaosServeOptions) -> Option<String> {
    let wls = workloads(opts.seed + 2000, 1);
    let expected = standalone_reports(&wls);
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_memoize(false)
        .with_retry(RetryPolicy { max_attempts: 2, backoff: Duration::ZERO })
        .with_chaos(Arc::new(PanicInWorker::new(0, 1)));
    let server = match Server::start(session(), cfg) {
        Ok(s) => s,
        Err(e) => return Some(format!("server failed to start: {e}")),
    };
    let ticket = match server.submit(Request::new(wls[0].clone())) {
        Ok(t) => t,
        Err(e) => return Some(format!("admission refused: {e}")),
    };
    let served = match wait_bounded(&ticket) {
        Some(s) => s,
        None => return Some("retried ticket did not resolve".into()),
    };
    if served.attempts != 2 {
        return Some(format!("expected 2 attempts, saw {}", served.attempts));
    }
    match served.response {
        Ok(resp) => {
            if let Some(diff) = expected[0].bit_diff(resp.report()) {
                return Some(format!("retried report diverged from standalone: {diff}"));
            }
        }
        Err(e) => return Some(format!("retry did not recover: {e}")),
    }
    let stats = server.shutdown();
    if stats.retried != 1 || stats.worker_panics != 1 || stats.crashed != 0 {
        return Some(format!(
            "stats disagree: retried={} panics={} crashed={}",
            stats.retried, stats.worker_panics, stats.crashed
        ));
    }
    None
}

/// Scenario 5: a slow head-of-line request delays but never wedges the
/// pool — everything behind it still resolves and stays bit-identical.
fn check_slow_head_of_line(opts: &ChaosServeOptions) -> Option<String> {
    let n = if opts.quick { 3 } else { 6 };
    let wls = workloads(opts.seed + 3000, n);
    let expected = standalone_reports(&wls);
    let cfg = ServeConfig::default()
        .with_workers(1)
        .with_memoize(false)
        .with_chaos(Arc::new(SlowRequest::new(0, Duration::from_millis(80))));
    let server = match Server::start(session(), cfg) {
        Ok(s) => s,
        Err(e) => return Some(format!("server failed to start: {e}")),
    };
    let tickets: Vec<Ticket> = match wls
        .iter()
        .map(|w| server.submit(Request::new(w.clone())))
        .collect::<Result<_, _>>()
    {
        Ok(t) => t,
        Err(e) => return Some(format!("admission refused: {e}")),
    };
    for (i, t) in tickets.iter().enumerate() {
        let served = match wait_bounded(t) {
            Some(s) => s,
            None => return Some(format!("ticket {i} behind the slow head did not resolve")),
        };
        match served.response {
            Ok(resp) => {
                if let Some(diff) = expected[i].bit_diff(resp.report()) {
                    return Some(format!("request {i} diverged behind a slow head: {diff}"));
                }
            }
            Err(e) => return Some(format!("request {i} failed: {e}")),
        }
    }
    None
}

/// Run every serve-chaos scenario.
pub fn run_chaos_serve(opts: &ChaosServeOptions) -> ChaosSummary {
    let mut summary = ChaosSummary::default();
    check(
        &mut summary,
        "pool1/crash-liveness",
        check_crash_liveness(opts, 1, if opts.quick { 1 } else { 2 }),
    );
    if !opts.quick {
        // At pool 4 which request crashes is scheduling-dependent; the
        // counts and liveness invariants still hold.
        check(&mut summary, "pool4/crash-liveness", check_crash_liveness(opts, 4, 2));
    }
    check(&mut summary, "pool1/quarantine-precision", check_quarantine_precision(opts));
    check(&mut summary, "pool1/retry-recovers", check_retry_recovers(opts));
    check(&mut summary, "pool1/slow-head-of-line", check_slow_head_of_line(opts));
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree version of the CI chaos-serve gate.
    #[test]
    fn chaos_serve_quick_gate_passes() {
        let opts = ChaosServeOptions { quick: true, ..ChaosServeOptions::default() };
        let summary = run_chaos_serve(&opts);
        assert!(summary.scenarios > 0);
        assert!(summary.passed(), "serve chaos failures: {:#?}", summary.failures);
    }
}

//! Chaos-injection harness: seeded, deterministic fault injection that
//! proves the engine's recovery machinery actually recovers.
//!
//! Every scenario is wall-clock-free in its *injection decisions* (faults
//! fire at fixed task/shard indices, never at random times), so a chaos
//! failure replays exactly. The scenarios pin the recovery invariants the
//! fault-tolerant execution layer promises:
//!
//! 1. **Retry determinism** — a shard that panics and is retried yields a
//!    report *and trace* byte-identical to the fault-free run, at every
//!    thread count. Shard workers are pure functions of the task list, so
//!    a rebuilt shard reproduces its events exactly; the panicked
//!    attempt's partial events are discarded wholesale (no loss, no
//!    duplication — the poisoned attempt leaks nothing).
//! 2. **Typed failure** — when retries are exhausted, the caller gets
//!    [`drt_accel::error::DrtError::ShardPanicked`] naming the failing
//!    task range, with a partial report whose phase bytes still partition
//!    its committed traffic.
//! 3. **Graceful deadline** — a slow shard that blows a deadline degrades
//!    (never panics): the report says why, and a traced run's JSONL stays
//!    parseable, ending with exactly one `aborted` record.
//! 4. **Prefix commit** — cancellation commits a deterministic prefix of
//!    the task stream: two identical cancelled runs are bit-identical,
//!    and the committed events are a subsequence of the fault-free trace.
//!
//! The `verify` binary fronts [`run_chaos`] behind `--chaos`; CI runs
//! `verify -- --chaos --quick` as a gate.

use drt_accel::error::DrtError;
use drt_accel::report::{DegradeReason, RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::spec::AccelSpec;
use drt_accel::workload::WorkloadRef;
use drt_core::cancel::CancelToken;
use drt_core::chaos::FaultInjector;
use drt_core::probe::{event_json, Event, EventSink, Probe};
use drt_tensor::CsMatrix;
use drt_workloads::patterns::unstructured;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::driver::verify_hierarchy;

/// Chaos-harness configuration (mirrors the `verify` binary's flags).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Workload seed.
    pub seed: u64,
    /// Quick mode: one workload, one variant (the CI gate).
    pub quick: bool,
    /// Thread counts the recovery scenarios run at.
    pub threads: Vec<usize>,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions { seed: 0, quick: false, threads: vec![2, 4] }
    }
}

/// Aggregate outcome of a chaos invocation.
#[derive(Debug, Default)]
pub struct ChaosSummary {
    /// Scenario runs checked.
    pub scenarios: usize,
    /// Violated invariants, one message each.
    pub failures: Vec<String>,
}

impl ChaosSummary {
    /// Whether every scenario upheld its recovery invariant.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// An ordered in-memory trace: one `event_json` line per event, in the
/// exact order the probe saw them. Byte-comparing two sinks' lines is the
/// trace-identity check.
#[derive(Debug, Default)]
struct LineSink {
    lines: Mutex<Vec<String>>,
}

impl LineSink {
    fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl EventSink for LineSink {
    fn record(&self, event: &Event<'_>) {
        let row = event_json(event, &[]);
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).push(row);
    }
}

/// Panics in `before_task` at one chosen task index, for the first
/// `fail_attempts` times it is reached. With `fail_attempts = 1` and
/// retries enabled the fault recovers; with `u32::MAX` it never does.
#[derive(Debug)]
struct PanicAtTask {
    task: u64,
    remaining: AtomicU32,
}

impl PanicAtTask {
    fn new(task: u64, fail_attempts: u32) -> PanicAtTask {
        PanicAtTask { task, remaining: AtomicU32::new(fail_attempts) }
    }
}

impl FaultInjector for PanicAtTask {
    fn before_task(&self, task: u64) {
        if task == self.task
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("chaos: injected panic at task {task}");
        }
    }
}

/// Panics in `before_shard` — before the shard records anything — for the
/// first `fail_attempts` attempts of one chosen shard.
#[derive(Debug)]
struct PanicAtShard {
    shard: usize,
    remaining: AtomicU32,
}

impl PanicAtShard {
    fn new(shard: usize, fail_attempts: u32) -> PanicAtShard {
        PanicAtShard { shard, remaining: AtomicU32::new(fail_attempts) }
    }
}

impl FaultInjector for PanicAtShard {
    fn before_shard(&self, shard: usize, _attempt: u32) {
        if shard == self.shard
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("chaos: injected panic in shard {shard}");
        }
    }
}

/// Sleeps before every task — a uniformly slow worker, used to trip
/// deadlines mid-run.
#[derive(Debug)]
struct SlowTasks {
    sleep: Duration,
}

impl FaultInjector for SlowTasks {
    fn before_task(&self, _task: u64) {
        std::thread::sleep(self.sleep);
    }
}

/// Cancels a shared token when one chosen task index is reached — a
/// deterministic stand-in for an external `cancel()` call.
#[derive(Debug)]
struct CancelAtTask {
    token: CancelToken,
    task: u64,
}

impl FaultInjector for CancelAtTask {
    fn before_task(&self, task: u64) {
        if task == self.task {
            self.token.cancel();
        }
    }
}

/// The variant the recovery scenarios run: engine-backed, DRT-tiled, so
/// faults land in real sharded execution.
fn chaos_spec() -> AccelSpec {
    AccelSpec::extensor_op_drt()
}

fn session(threads: usize) -> Session {
    Session::new(chaos_spec()).hierarchy(&verify_hierarchy()).threads(threads)
}

/// Fault-free probed run: the reference report + trace.
fn baseline(a: &CsMatrix, b: &CsMatrix, threads: usize) -> (RunReport, Vec<String>) {
    let sink = Arc::new(LineSink::default());
    let report = session(threads)
        .probe(Probe::new(sink.clone()))
        .run_spmspm(a, b)
        .expect("fault-free baseline must run");
    (report, sink.lines())
}

fn check(summary: &mut ChaosSummary, label: &str, failure: Option<String>) {
    summary.scenarios += 1;
    if let Some(msg) = failure {
        summary.failures.push(format!("{label}: {msg}"));
    }
}

/// Is `needle` a subsequence of `haystack` (order-preserving)?
fn is_subsequence(needle: &[String], haystack: &[String]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|n| it.any(|h| h == n))
}

/// Structural JSONL sanity: every line is one `{...}` object carrying an
/// `"event"` field.
fn parse_failure(lines: &[String]) -> Option<String> {
    for line in lines {
        if !(line.starts_with('{') && line.ends_with('}') && line.contains("\"event\":")) {
            return Some(format!("unparseable trace line: {line}"));
        }
    }
    None
}

/// Scenario 1+2: a seeded panic (mid-shard or at shard entry), one retry
/// budget, and the run must be byte-identical to fault-free.
fn check_retry_recovers(
    a: &CsMatrix,
    b: &CsMatrix,
    threads: usize,
    injector: Arc<dyn FaultInjector>,
    site: &str,
) -> Option<String> {
    let (want_report, want_trace) = baseline(a, b, threads);
    let sink = Arc::new(LineSink::default());
    let got = session(threads)
        .probe(Probe::new(sink.clone()))
        .retries(2)
        .chaos(injector)
        .run_ref(WorkloadRef::Spmspm { a, b });
    let report = match got {
        Ok(RunOutcome::Complete(r)) => r,
        Ok(RunOutcome::Degraded(r)) => {
            return Some(format!("{site}: degraded instead of recovering: {:?}", r.degradation))
        }
        Err(e) => return Some(format!("{site}: errored instead of recovering: {e}")),
    };
    if let Some(diff) = want_report.bit_diff(&report) {
        return Some(format!("{site}: retried report differs from fault-free: {diff}"));
    }
    let trace = sink.lines();
    if trace != want_trace {
        return Some(format!(
            "{site}: retried trace differs from fault-free ({} vs {} lines)",
            trace.len(),
            want_trace.len()
        ));
    }
    None
}

/// Scenario 3: a shard that panics through every retry must surface
/// `DrtError::ShardPanicked` naming the failing range, with an internally
/// consistent partial report.
fn check_exhausted_retries(a: &CsMatrix, b: &CsMatrix, threads: usize) -> Option<String> {
    let (full, _) = baseline(a, b, threads);
    let target = full.tasks.saturating_sub(1);
    let got = session(threads)
        .retries(1)
        .chaos(Arc::new(PanicAtTask::new(target, u32::MAX)))
        .run_ref(WorkloadRef::Spmspm { a, b });
    let (partial, task_range, message, attempts) = match got {
        Err(DrtError::ShardPanicked { partial, task_range, message, attempts }) => {
            (partial, task_range, message, attempts)
        }
        Ok(_) => return Some("run succeeded despite a permanently panicking shard".into()),
        Err(e) => return Some(format!("wrong error type: {e}")),
    };
    if attempts != 2 {
        return Some(format!("expected 2 attempts (1 + 1 retry), got {attempts}"));
    }
    if !(task_range.start <= target && target < task_range.end) {
        return Some(format!("failing range {task_range:?} does not contain task {target}"));
    }
    if !message.contains("chaos") {
        return Some(format!("panic payload lost: {message:?}"));
    }
    if partial.output.is_some() {
        return Some("partial report still carries functional output".into());
    }
    if let Some(v) = partial.phase_partition_violation() {
        return Some(format!("partial report phase bytes inconsistent: {v}"));
    }
    if partial.tasks > full.tasks {
        return Some(format!(
            "partial committed {} tasks, more than the {} that exist",
            partial.tasks, full.tasks
        ));
    }
    None
}

/// Scenario 4: slow shard + deadline → degraded (never a panic), with a
/// parseable trace ending in exactly one `aborted` record.
fn check_deadline_degrades(a: &CsMatrix, b: &CsMatrix, threads: usize) -> Option<String> {
    let sink = Arc::new(LineSink::default());
    let got = session(threads)
        .probe(Probe::new(sink.clone()))
        .deadline(Duration::from_millis(1))
        .chaos(Arc::new(SlowTasks { sleep: Duration::from_millis(25) }))
        .run_ref(WorkloadRef::Spmspm { a, b });
    let report = match got {
        Ok(RunOutcome::Degraded(r)) => r,
        Ok(RunOutcome::Complete(_)) => return Some("completed despite an expired deadline".into()),
        Err(e) => return Some(format!("errored instead of degrading: {e}")),
    };
    let deg = match report.degradation.as_ref() {
        Some(d) => d,
        None => return Some("degraded outcome without a degradation record".into()),
    };
    if deg.reason != DegradeReason::DeadlineExceeded {
        return Some(format!("wrong degrade reason: {:?}", deg.reason));
    }
    if let Some(v) = report.phase_partition_violation() {
        return Some(format!("degraded report phase bytes inconsistent: {v}"));
    }
    let trace = sink.lines();
    if let Some(msg) = parse_failure(&trace) {
        return Some(msg);
    }
    let aborted: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter_map(|(i, l)| l.contains("\"event\": \"aborted\"").then_some(i))
        .collect();
    match aborted.as_slice() {
        [last] if *last == trace.len() - 1 => None,
        [] => Some("trace has no aborted record".into()),
        other => Some(format!(
            "expected exactly one trailing aborted record, found {} at {other:?} of {}",
            other.len(),
            trace.len()
        )),
    }
}

/// Scenario 5: serial cancellation commits a deterministic prefix — two
/// identical cancelled runs are bit-identical, and the committed events
/// are a subsequence of the fault-free trace.
fn check_cancel_prefix(a: &CsMatrix, b: &CsMatrix) -> Option<String> {
    let (full, full_trace) = baseline(a, b, 1);
    if full.tasks < 2 {
        return Some(format!(
            "workload too small to cancel mid-run ({} task(s)); grow it",
            full.tasks
        ));
    }
    // Cancel while task 0 runs: the token is checked before each later
    // task, so at least one task commits and at least one is cut.
    let run = || {
        let sess = session(1);
        let sink = Arc::new(LineSink::default());
        let token = sess.cancel_token();
        let got = sess
            .probe(Probe::new(sink.clone()))
            .chaos(Arc::new(CancelAtTask { token, task: 0 }))
            .run_ref(WorkloadRef::Spmspm { a, b });
        (got, sink.lines())
    };
    let (first, first_trace) = run();
    let (second, second_trace) = run();
    let report = match first {
        Ok(RunOutcome::Degraded(r)) => r,
        Ok(RunOutcome::Complete(_)) => return Some("completed despite cancellation".into()),
        Err(e) => return Some(format!("errored instead of degrading: {e}")),
    };
    let second = match second {
        Ok(out) => out.into_report(),
        Err(e) => return Some(format!("repeat run errored: {e}")),
    };
    if let Some(diff) = report.bit_diff(&second) {
        return Some(format!("cancelled runs are not deterministic: {diff}"));
    }
    if first_trace != second_trace {
        return Some("cancelled traces are not deterministic".into());
    }
    let deg = match report.degradation.as_ref() {
        Some(d) => d,
        None => return Some("degraded outcome without a degradation record".into()),
    };
    if deg.reason != DegradeReason::Cancelled {
        return Some(format!("wrong degrade reason: {:?}", deg.reason));
    }
    if deg.completed_tasks != report.tasks {
        return Some(format!(
            "degradation says {} tasks but the report committed {}",
            deg.completed_tasks, report.tasks
        ));
    }
    // Per-task events of the committed prefix must replay exactly as the
    // fault-free run replays them. End-of-run `phase` summaries describe
    // the *partial* run (fewer bytes), and the trailing `aborted` record
    // is degradation-only — both are excluded by construction.
    let committed: Vec<String> = first_trace
        .iter()
        .filter(|l| !l.contains("\"event\": \"aborted\"") && !l.contains("\"event\": \"phase\""))
        .cloned()
        .collect();
    if !is_subsequence(&committed, &full_trace) {
        return Some(
            "committed prefix events are not a subsequence of the fault-free trace".into(),
        );
    }
    None
}

/// Run every chaos scenario over the seeded workload(s).
pub fn run_chaos(opts: &ChaosOptions) -> ChaosSummary {
    let mut summary = ChaosSummary::default();
    // Sized so the task stream outnumbers every shard count in
    // `opts.threads` severalfold — a shard needs tasks *after* the
    // injection point for deadlines and cancellations to be observable.
    let mut workloads = vec![("dense-ish", unstructured(192, 192, 3000, 2.0, opts.seed + 1))];
    if !opts.quick {
        workloads.push(("skewed", unstructured(256, 256, 6000, 3.0, opts.seed + 2)));
    }
    for (wl, a) in &workloads {
        let (full, _) = baseline(a, a, 1);
        let mid = full.tasks / 2;
        for &t in &opts.threads {
            check(
                &mut summary,
                &format!("{wl}/t{t}/retry-mid-shard"),
                check_retry_recovers(a, a, t, Arc::new(PanicAtTask::new(mid, 1)), "mid-shard"),
            );
            check(
                &mut summary,
                &format!("{wl}/t{t}/retry-shard-entry"),
                check_retry_recovers(a, a, t, Arc::new(PanicAtShard::new(0, 1)), "shard-entry"),
            );
            check(
                &mut summary,
                &format!("{wl}/t{t}/exhausted-retries"),
                check_exhausted_retries(a, a, t),
            );
            check(&mut summary, &format!("{wl}/t{t}/deadline"), check_deadline_degrades(a, a, t));
        }
        check(&mut summary, &format!("{wl}/t1/cancel-prefix"), check_cancel_prefix(a, a));
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree version of the CI chaos gate.
    #[test]
    fn chaos_quick_gate_passes() {
        let opts = ChaosOptions { quick: true, ..ChaosOptions::default() };
        let summary = run_chaos(&opts);
        assert!(summary.scenarios > 0);
        assert!(summary.passed(), "chaos failures: {:#?}", summary.failures);
    }
}

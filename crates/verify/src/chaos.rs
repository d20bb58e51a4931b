//! Chaos-injection harness: seeded, deterministic fault injection that
//! proves the engine's recovery machinery actually recovers.
//!
//! Every scenario is wall-clock-free in its *injection decisions* (faults
//! fire at fixed task/shard indices, never at random times), so a chaos
//! failure replays exactly. The scenarios pin the recovery invariants the
//! fault-tolerant execution layer promises:
//!
//! 1. **Typed failure** — a shard that panics fails the run on its first
//!    attempt (workers are pure functions of the task list, so a re-run
//!    would panic again): the caller gets
//!    [`drt_accel::error::DrtError::ShardPanicked`] naming the failing
//!    task range, with a partial report over the shards below it whose
//!    phase bytes still partition its committed traffic, and a trace that
//!    is a prefix of the fault-free trace plus one `aborted` record. A
//!    one-thread run with an injector takes the sharded path, so this
//!    holds at every thread count.
//! 2. **Graceful deadline** — a slow shard that blows a deadline degrades
//!    (never panics): the report says why, and a traced run's JSONL stays
//!    parseable, ending with exactly one `aborted` record.
//! 3. **Prefix commit** — cancellation commits a deterministic prefix of
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
use std::sync::atomic::{AtomicBool, Ordering};
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
        ChaosOptions { seed: 0, quick: false, threads: vec![1, 2] }
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
pub(crate) struct LineSink {
    lines: Mutex<Vec<String>>,
}

impl LineSink {
    /// The lines recorded since the previous call.
    pub(crate) fn lines(&self) -> Vec<String> {
        std::mem::take(&mut *self.lines.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

impl EventSink for LineSink {
    fn record(&self, event: &Event<'_>) {
        let row = event_json(event);
        self.lines.lock().unwrap_or_else(|p| p.into_inner()).push(row);
    }
}

/// Panics once: in `before_task` at one chosen task index, or in
/// `before_shard` — before the shard records anything — at one chosen
/// shard. Disarmed after it fires, so a re-run of the shard would pass:
/// a run that still fails proves the panic surfaced on its first attempt.
#[derive(Debug)]
struct PanicOnce {
    task: Option<u64>,
    shard: Option<usize>,
    armed: AtomicBool,
}

impl PanicOnce {
    fn at_task(task: u64) -> PanicOnce {
        PanicOnce { task: Some(task), shard: None, armed: AtomicBool::new(true) }
    }

    fn at_shard(shard: usize) -> PanicOnce {
        PanicOnce { task: None, shard: Some(shard), armed: AtomicBool::new(true) }
    }

    fn fire(&self, site: &str) {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("chaos: injected panic at {site}");
        }
    }
}

impl FaultInjector for PanicOnce {
    fn before_shard(&self, shard: usize) {
        if self.shard == Some(shard) {
            self.fire(&format!("shard {shard}"));
        }
    }

    fn before_task(&self, task: u64) {
        if self.task == Some(task) {
            self.fire(&format!("task {task}"));
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

/// Scenario 1: a seeded panic (mid-shard or at shard entry) surfaces as
/// `DrtError::ShardPanicked` on its first attempt, naming the failing
/// shard's task range (which contains `target`, when given), with a
/// partial report over exactly the shards below it whose phase bytes
/// partition its traffic, and a trace that is a prefix of the fault-free
/// trace followed by its phase summaries and one `aborted` record.
fn check_panic_fails_typed(
    a: &CsMatrix,
    b: &CsMatrix,
    threads: usize,
    injector: PanicOnce,
    target: Option<u64>,
) -> Option<String> {
    let (_, full_trace) = baseline(a, b, threads);
    let sink = Arc::new(LineSink::default());
    let got = session(threads)
        .probe(Probe::new(sink.clone()))
        .chaos(Arc::new(injector))
        .run_ref(WorkloadRef::Spmspm { a, b });
    let (partial, task_range, message) = match got {
        Err(DrtError::ShardPanicked { partial, task_range, message }) => {
            (partial, task_range, message)
        }
        Ok(_) => return Some("run succeeded despite a panicking shard".into()),
        Err(e) => return Some(format!("wrong error type: {e}")),
    };
    if target.is_some_and(|t| !task_range.contains(&t)) {
        return Some(format!("failing range {task_range:?} does not contain task {target:?}"));
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
    if partial.tasks != task_range.start {
        return Some(format!(
            "partial committed {} tasks; the shards below the failing one hold {}",
            partial.tasks, task_range.start
        ));
    }
    let trace = sink.lines();
    if !trace.last().is_some_and(|l| l.contains("\"reason\": \"shard_panicked\"")) {
        return Some("trace does not end with a shard_panicked aborted record".into());
    }
    let per_task: Vec<String> = trace
        .iter()
        .filter(|l| !l.contains("\"event\": \"aborted\"") && !l.contains("\"event\": \"phase\""))
        .cloned()
        .collect();
    if !full_trace.starts_with(&per_task) {
        return Some("committed events are not a prefix of the fault-free trace".into());
    }
    None
}

/// Scenario 2: slow shard + deadline → degraded (never a panic), with a
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

/// Scenario 3: serial cancellation commits a deterministic prefix — two
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
                &format!("{wl}/t{t}/panic-mid-shard"),
                check_panic_fails_typed(a, a, t, PanicOnce::at_task(mid), Some(mid)),
            );
            // The last shard, so the shards below it commit a prefix.
            let last = t.min(full.tasks as usize).saturating_sub(1);
            check(
                &mut summary,
                &format!("{wl}/t{t}/panic-shard-entry"),
                check_panic_fails_typed(a, a, t, PanicOnce::at_shard(last), None),
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

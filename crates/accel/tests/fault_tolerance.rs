//! Fault-tolerant execution layer, end to end: degenerate edges never
//! panic, a panicked shard surfaces a typed error with a consistent
//! partial report on its first attempt, and DRT budget exhaustion
//! degrades to S-U-C fallback tiles with the functional output intact.

use drt_accel::error::DrtError;
use drt_accel::report::{DegradeReason, RunOutcome};
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, Registry};
use drt_accel::workload::WorkloadRef;
use drt_core::budget::ExecBudget;
use drt_core::chaos::FaultInjector;
use drt_kernels::spmspm::gustavson;
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use drt_workloads::patterns::unstructured;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn test_hier() -> HierarchySpec {
    HierarchySpec::default().scaled_down(256)
}

fn workload() -> CsMatrix {
    unstructured(192, 192, 3000, 2.0, 9)
}

fn session(spec: &AccelSpec, threads: usize) -> Session {
    Session::new(spec.clone()).hierarchy(&test_hier()).threads(threads)
}

/// Panics at one task index for the first `fails` attempts that reach it.
#[derive(Debug)]
struct PanicAt {
    task: u64,
    remaining: AtomicU32,
}

impl PanicAt {
    fn new(task: u64, fails: u32) -> Arc<PanicAt> {
        Arc::new(PanicAt { task, remaining: AtomicU32::new(fails) })
    }
}

impl FaultInjector for PanicAt {
    fn before_task(&self, task: u64) {
        if task == self.task
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("test: injected panic at task {task}");
        }
    }
}

/// Every registered variant, at threads {1, 4}, must return a well-formed
/// `Degraded` (never panic, never `Err`) when the budget permits no work.
#[test]
fn zero_task_budget_degrades_every_variant() {
    let a = workload();
    for spec in Registry::standard().iter() {
        for threads in [1usize, 4] {
            let out = session(spec, threads)
                .budget(ExecBudget::unlimited().with_max_tasks(0))
                .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
                .unwrap_or_else(|e| panic!("{}/t{threads}: errored: {e}", spec.name));
            let report = match out {
                RunOutcome::Degraded(r) => r,
                RunOutcome::Complete(_) => {
                    panic!("{}/t{threads}: completed with a zero task budget", spec.name)
                }
            };
            let deg = report
                .degradation
                .as_ref()
                .unwrap_or_else(|| panic!("{}/t{threads}: no degradation record", spec.name));
            assert_eq!(
                deg.reason,
                DegradeReason::TaskBudgetExhausted,
                "{}/t{threads}: wrong reason",
                spec.name
            );
            assert!(
                report.phase_partition_violation().is_none(),
                "{}/t{threads}: inconsistent degraded report",
                spec.name
            );
        }
    }
}

/// Every registered variant, at threads {1, 4}, must degrade (never
/// panic) when the deadline is already expired at entry.
#[test]
fn expired_deadline_at_entry_degrades_every_variant() {
    let a = workload();
    for spec in Registry::standard().iter() {
        for threads in [1usize, 4] {
            let out = session(spec, threads)
                .deadline(Duration::from_secs(0))
                .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
                .unwrap_or_else(|e| panic!("{}/t{threads}: errored: {e}", spec.name));
            let report = match out {
                RunOutcome::Degraded(r) => r,
                RunOutcome::Complete(_) => {
                    panic!("{}/t{threads}: completed despite expired deadline", spec.name)
                }
            };
            let deg = report
                .degradation
                .as_ref()
                .unwrap_or_else(|| panic!("{}/t{threads}: no degradation record", spec.name));
            assert_eq!(
                deg.reason,
                DegradeReason::DeadlineExceeded,
                "{}/t{threads}: wrong reason",
                spec.name
            );
            assert_eq!(deg.completed_tasks, 0, "{}/t{threads}: work ran anyway", spec.name);
        }
    }
}

/// Cancelling before the first shard starts commits zero tasks and
/// degrades cleanly, at threads {1, 4}.
#[test]
fn cancel_before_first_shard_degrades_every_variant() {
    let a = workload();
    for spec in Registry::standard().iter() {
        for threads in [1usize, 4] {
            let sess = session(spec, threads);
            sess.cancel_token().cancel();
            let out = sess
                .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
                .unwrap_or_else(|e| panic!("{}/t{threads}: errored: {e}", spec.name));
            let report = match out {
                RunOutcome::Degraded(r) => r,
                RunOutcome::Complete(_) => {
                    panic!("{}/t{threads}: completed despite cancellation", spec.name)
                }
            };
            let deg = report.degradation.as_ref().expect("degradation record");
            assert_eq!(
                deg.reason,
                DegradeReason::Cancelled,
                "{}/t{threads}: wrong reason",
                spec.name
            );
            assert_eq!(deg.completed_tasks, 0, "{}/t{threads}: work ran anyway", spec.name);
        }
    }
}

/// A panic in a shard worker fails the run on its first attempt — the
/// injector fires once, so any re-run would have passed — with
/// `DrtError::ShardPanicked` naming the failing shard and a partial
/// report over exactly the shards below it. At one thread the chaos hook
/// routes the run through a shard worker; at two the panic lands in the
/// second shard, so the first one's tasks commit.
#[test]
fn shard_panic_surfaces_typed_error_on_first_attempt() {
    let a = workload();
    let spec = AccelSpec::extensor_op_drt();
    for threads in [1usize, 2] {
        let clean = session(&spec, threads).run_spmspm(&a, &a).expect("fault-free");
        let target = clean.tasks - 1;
        let injector = PanicAt::new(target, 1);
        let err = session(&spec, threads)
            .chaos(injector.clone())
            .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
            .expect_err("a panicked shard must fail the run");
        let DrtError::ShardPanicked { partial, task_range, message } = err else {
            panic!("t{threads}: wrong error type: {err}");
        };
        assert_eq!(injector.remaining.load(Ordering::SeqCst), 0, "t{threads}: fired once");
        assert!(task_range.contains(&target), "t{threads}: {task_range:?} misses {target}");
        assert_eq!(task_range.end, clean.tasks, "t{threads}: the failing shard is the last");
        assert!(message.contains("injected panic"), "t{threads}: payload lost: {message:?}");
        assert!(partial.output.is_none(), "partial run must not claim a functional output");
        assert_eq!(partial.tasks, task_range.start, "t{threads}: the shards below commit");
        assert_eq!(partial.tasks > 0, threads > 1, "t{threads}: committed prefix");
        assert!(
            partial.phase_partition_violation().is_none(),
            "t{threads}: partial phase bytes must partition committed traffic"
        );
    }
}

/// Exhausting the DRT planning budget mid-run falls back to S-U-C tiles
/// for the remaining region (Algorithm 2's subdivision, applied as
/// degradation): the run completes, the functional output still matches
/// the reference kernel, and the report records the fallback.
#[test]
fn drt_plan_budget_falls_back_to_suc_with_intact_output() {
    let a = workload();
    let spec = AccelSpec::extensor_op_drt();
    let out = session(&spec, 1)
        .budget(ExecBudget::unlimited().with_max_plan_candidates(2))
        .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
        .expect("budgeted run must not error");
    let report = match out {
        RunOutcome::Degraded(r) => r,
        RunOutcome::Complete(_) => panic!("a 2-candidate plan budget must bind on this workload"),
    };
    let deg = report.degradation.as_ref().expect("degradation record");
    assert_eq!(deg.reason, DegradeReason::PlanBudgetExhausted);
    let z = report.output.as_ref().expect("fallback run still computes the product");
    let reference = gustavson(&a, &a).z;
    assert!(z.approx_eq(&reference, 1e-6), "S-U-C fallback changed the numbers");
    assert!(report.phase_partition_violation().is_none());
}

/// Same, for the task-count budget: the stream switches to S-U-C fallback
/// tiles instead of stopping, so coverage (and the output) is preserved.
#[test]
fn task_budget_falls_back_to_suc_with_intact_output() {
    let a = workload();
    let spec = AccelSpec::extensor_op_drt();
    let clean = session(&spec, 1).run_spmspm(&a, &a).expect("fault-free");
    assert!(clean.tasks > 2, "workload too small to exercise the budget");
    let out = session(&spec, 1)
        .budget(ExecBudget::unlimited().with_max_tasks(2))
        .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
        .expect("budgeted run must not error");
    let report = match out {
        RunOutcome::Degraded(r) => r,
        RunOutcome::Complete(_) => panic!("a 2-task budget must bind on this workload"),
    };
    let deg = report.degradation.as_ref().expect("degradation record");
    assert_eq!(deg.reason, DegradeReason::TaskBudgetExhausted);
    let z = report.output.as_ref().expect("fallback run still computes the product");
    let reference = gustavson(&a, &a).z;
    assert!(z.approx_eq(&reference, 1e-6), "S-U-C fallback changed the numbers");
}

//! Fault-tolerant execution layer, end to end: degenerate edges never
//! panic, retries are bit-identical, exhausted retries surface a typed
//! error with a consistent partial report, and DRT budget exhaustion
//! degrades to S-U-C fallback tiles with the functional output intact.

use drt_accel::engine::{EngineConfig, ExecPolicy, Tiling};
use drt_accel::error::DrtError;
use drt_accel::report::{DegradeReason, RunOutcome};
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, PartitionPreset, Registry};
use drt_accel::workload::WorkloadRef;
use drt_core::budget::ExecBudget;
use drt_core::chaos::FaultInjector;
use drt_core::config::DrtConfig;
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

/// A shard that panics once and is retried yields a run bit-identical to
/// the fault-free one — the retry-determinism contract, at threads {2, 4}.
#[test]
fn retried_shard_is_bit_identical_to_fault_free() {
    let a = workload();
    let spec = AccelSpec::extensor_op_drt();
    for threads in [2usize, 4] {
        let clean = session(&spec, threads).run_spmspm(&a, &a).expect("fault-free");
        let mid = clean.tasks / 2;
        let retried = session(&spec, threads)
            .retries(2)
            .chaos(PanicAt::new(mid, 1))
            .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
            .expect("retry must recover");
        let retried = match retried {
            RunOutcome::Complete(r) => r,
            RunOutcome::Degraded(r) => panic!("t{threads}: degraded: {:?}", r.degradation),
        };
        assert!(
            clean.bit_diff(&retried).is_none(),
            "t{threads}: retried run differs: {:?}",
            clean.bit_diff(&retried)
        );
    }
}

/// Exhausted retries surface `DrtError::ShardPanicked` whose partial
/// report covers a consistent committed prefix.
#[test]
fn exhausted_retries_surface_typed_error_with_consistent_partial() {
    let a = workload();
    let spec = AccelSpec::extensor_op_drt();
    let clean = session(&spec, 2).run_spmspm(&a, &a).expect("fault-free");
    let target = clean.tasks - 1;
    let err = session(&spec, 2)
        .retries(1)
        .chaos(PanicAt::new(target, u32::MAX))
        .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
        .expect_err("must fail after retries");
    let DrtError::ShardPanicked { partial, task_range, message, attempts } = err else {
        panic!("wrong error type: {err}");
    };
    assert_eq!(attempts, 2, "1 initial + 1 retry");
    assert!(task_range.contains(&target), "failing range {task_range:?} misses task {target}");
    assert!(message.contains("injected panic"), "payload lost: {message:?}");
    assert!(partial.output.is_none(), "partial run must not claim a functional output");
    assert!(partial.tasks < clean.tasks, "partial committed everything");
    assert!(
        partial.phase_partition_violation().is_none(),
        "partial phase bytes must partition committed traffic"
    );
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

/// The resident-bytes cap degrades sharded execution to serial streaming:
/// numbers stay bit-identical to the unbudgeted run, with the fallback
/// recorded as a memory-budget degradation.
#[test]
fn memory_budget_degrades_to_serial_streaming_bit_identically() {
    let a = workload();
    let parts = PartitionPreset::Balanced.partitions(6 * 1024);
    let cfg = EngineConfig {
        micro: (8, 8),
        hier: test_hier(),
        ..EngineConfig::new(("memcap", Tiling::Drt, DrtConfig::new(parts)))
    };
    let session = Session::from_engine_config(cfg).exec(ExecPolicy::threads(4));
    let clean = session.run_spmspm(&a, &a).expect("fault-free");
    let out = session
        .budget(ExecBudget::unlimited().with_max_resident_bytes(64))
        .run_ref(WorkloadRef::Spmspm { a: &a, b: &a })
        .expect("capped run must not error");
    let report = match out {
        RunOutcome::Degraded(r) => r,
        RunOutcome::Complete(_) => panic!("a 64-byte resident cap must bind"),
    };
    let deg = report.degradation.as_ref().expect("degradation record");
    assert_eq!(deg.reason, DegradeReason::MemoryBudgetExhausted);
    // Serial streaming is the same computation in the same task order, so
    // everything except the degradation record matches the sharded run.
    let mut comparable = report.clone();
    comparable.degradation = None;
    assert!(
        clean.bit_diff(&comparable).is_none(),
        "serial fallback changed numbers: {:?}",
        clean.bit_diff(&comparable)
    );
}

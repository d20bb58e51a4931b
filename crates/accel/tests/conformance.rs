//! Cross-accelerator conformance: every SpMSpM variant in the standard
//! registry must compute the same product as the reference Gustavson
//! kernel (the paper's §5.2.1 MKL cross-check, applied uniformly), and
//! every report must satisfy the task-count and traffic invariants.
//!
//! Also pins the determinism contracts across the whole registry:
//! attaching an instrumentation probe never changes the simulated numbers,
//! and sharded runs are bit-identical to serial ones.

use drt_accel::engine::{EngineConfig, ExecPolicy, ShardSchedule, Tiling};
use drt_accel::error::DrtError;
use drt_accel::incremental::IncrementalSpmspm;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, Registry};
use drt_core::config::{DrtConfig, Partitions};
use drt_core::probe::{CountingSink, JsonlSink, Probe};
use drt_core::CoreError;
use drt_kernels::spmspm::gustavson;
use drt_sim::memory::HierarchySpec;
use drt_tensor::{CsMatrix, DeltaBatch};
use drt_workloads::patterns::{diamond_band, rmat, unstructured};
use std::sync::{Arc, Mutex};

/// A hierarchy small enough that the tiny test workloads actually
/// exercise tiling decisions (multiple macro tiles, spills).
fn test_hier() -> HierarchySpec {
    HierarchySpec::default().scaled_down(256)
}

fn test_workloads() -> Vec<(&'static str, CsMatrix)> {
    vec![
        ("rmat-skewed", rmat(128, 2_000, 0.57, 0.19, 0.19, 7)),
        ("rmat-mild", rmat(64, 800, 0.45, 0.25, 0.2, 11)),
        ("diamond", diamond_band(96, 1_500, 13)),
    ]
}

/// The invariants every variant's report must satisfy on a non-trivial
/// product: positive work, consistent task accounting, positive traffic.
fn check_invariants(name: &str, wl: &str, r: &RunReport) {
    assert!(r.maccs > 0, "{wl}/{name}: no multiplies performed");
    assert!(r.seconds > 0.0 && r.seconds.is_finite(), "{wl}/{name}: bad runtime {}", r.seconds);
    assert!(r.traffic.total() > 0, "{wl}/{name}: no DRAM traffic charged");
    // Task accounting: every variant reports at least one emitted task,
    // and skipped (empty-intersection) tasks are always a separate,
    // non-overlapping tally.
    assert!(r.tasks >= 1, "{wl}/{name}: no tasks emitted");
    let total = r.tasks.checked_add(r.skipped_tasks);
    assert!(total.is_some(), "{wl}/{name}: task counters overflow");
}

#[test]
fn every_registered_variant_matches_gustavson() {
    let registry = Registry::standard();
    for (wl, a) in test_workloads() {
        let reference = gustavson(&a, &a).z;
        for spec in registry.iter() {
            let r = Session::new(spec.clone())
                .hierarchy(&test_hier())
                .run_spmspm(&a, &a)
                .unwrap_or_else(|err| panic!("{wl}/{}: run failed: {err:?}", spec.name));
            check_invariants(&spec.name, wl, &r);
            let z = r
                .output
                .as_ref()
                .unwrap_or_else(|| panic!("{wl}/{}: no functional output", spec.name));
            assert!(
                z.approx_eq(&reference, 1e-6),
                "{wl}/{}: output diverges from Gustavson reference",
                spec.name
            );
        }
    }
}

/// Attaching a probe observes the run — it must never perturb it — on
/// every registered variant. For engine-backed variants, a session
/// around the spec's resolved engine configuration also reproduces the
/// spec run bit for bit: the S-U-C winner pinning of fig08 and
/// `drt-verify`'s stream audit rely on that. The second, smaller
/// hierarchy makes ExTensor-OP-DRT halve its micro shape (adapt-micro).
#[test]
fn probe_does_not_perturb_reports() {
    use std::sync::atomic::Ordering;
    for hier in [test_hier(), HierarchySpec::default().scaled_down(1024)] {
        for (wl, a) in test_workloads() {
            for spec in Registry::standard().iter() {
                let at = format!("{wl}/{} (LLB {} B)", spec.name, hier.llb.capacity_bytes);
                let session = Session::new(spec.clone()).hierarchy(&hier);
                let plain = session.run_spmspm(&a, &a).expect("plain");
                let sink = Arc::new(CountingSink::new());
                let probed = session
                    .clone()
                    .probe(Probe::new(sink.clone()))
                    .run_spmspm(&a, &a)
                    .expect("probed");
                assert_eq!(plain.bit_diff(&probed), None, "{at}: the probe perturbed the run");
                let Some(cfg) = session.resolved_engine_config(&a, &a).expect("resolve") else {
                    continue;
                };
                // The sink saw the run: emitted-task events match the
                // report's count, and fetches and phases were reported too.
                assert_eq!(sink.tasks_emitted.load(Ordering::Relaxed), probed.tasks, "{at}");
                assert_eq!(
                    sink.tasks_skipped.load(Ordering::Relaxed),
                    probed.skipped_tasks,
                    "{at}"
                );
                assert!(
                    sink.events.load(Ordering::Relaxed) > probed.tasks,
                    "{at}: expected fetch/phase events too"
                );
                let pinned = Session::from_engine_config(cfg).run_spmspm(&a, &a).expect("pinned");
                assert_eq!(
                    plain.bit_diff(&pinned),
                    None,
                    "{at}: the resolved engine configuration diverged from the spec run"
                );
            }
        }
    }
}

/// The parallel determinism contract, across the whole registry: running
/// any variant on 2, 4, or 8 threads (and under work stealing) must
/// produce a report bit-identical to the single-threaded run, on a skewed
/// power-law input, a banded one, and a mildly skewed one.
#[test]
fn every_variant_bit_identical_across_thread_counts() {
    let hier = test_hier();
    let inputs = [
        ("rmat-17", rmat(128, 1_400, 0.57, 0.19, 0.19, 17)),
        ("rmat-skewed", rmat(128, 2_000, 0.57, 0.19, 0.19, 7)),
        ("diamond", diamond_band(96, 1_500, 13)),
    ];
    for (wl, a) in &inputs {
        for spec in Registry::standard().iter() {
            let serial = Session::new(spec.clone())
                .hierarchy(&hier)
                .run_spmspm(a, a)
                .unwrap_or_else(|err| panic!("{wl}/{}: serial run failed: {err:?}", spec.name));
            for exec in [
                ExecPolicy::threads(2),
                ExecPolicy::threads(4),
                ExecPolicy::threads(8),
                ExecPolicy {
                    threads: 3,
                    schedule: ShardSchedule::WorkStealing { tasks_per_shard: 2 },
                    max_retries: 0,
                },
            ] {
                let sharded = Session::new(spec.clone())
                    .hierarchy(&hier)
                    .exec(exec.clone())
                    .run_spmspm(a, a)
                    .unwrap_or_else(|err| {
                        panic!("{wl}/{}: {exec:?} run failed: {err:?}", spec.name)
                    });
                if let Some(diff) = serial.bit_diff(&sharded) {
                    panic!("{wl}/{} under {exec:?}: {diff}", spec.name);
                }
            }
        }
    }
}

/// A `Write` that appends into a shared buffer, so a JSONL trace can be
/// read back after the run.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // Recover a poisoned guard so one worker's panic reports cleanly
        // instead of cascading when the trace is read back.
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `--trace` output is part of the determinism contract too: the JSONL
/// event stream must be byte-identical across thread counts for every
/// registered variant.
#[test]
fn every_variant_trace_identical_across_thread_counts() {
    let hier = test_hier();
    let a = diamond_band(96, 1_500, 13);
    let traced = |spec: &AccelSpec, threads: usize| -> String {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        Session::new(spec.clone())
            .hierarchy(&hier)
            .threads(threads)
            .probe(Probe::new(sink))
            .run_spmspm(&a, &a)
            .unwrap_or_else(|err| panic!("{}: traced run failed: {err:?}", spec.name));
        let bytes = buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
        String::from_utf8(bytes).expect("utf8 trace")
    };
    for spec in Registry::standard().iter() {
        let serial = traced(spec, 1);
        assert!(!serial.is_empty(), "{}: probe saw no events", spec.name);
        for threads in [2, 4] {
            let sharded = traced(spec, threads);
            assert_eq!(serial, sharded, "{}: trace diverged at {threads} threads", spec.name);
        }
    }
}

/// The per-phase breakdown partitions the run's traffic: phase bytes must
/// sum to the total DRAM traffic for every engine-simulated variant.
#[test]
fn phase_bytes_sum_to_traffic() {
    let a = rmat(64, 800, 0.45, 0.25, 0.2, 11);
    for name in ["extensor", "extensor-op", "extensor-op-drt"] {
        let session = Session::from_registry(name).expect("registered").hierarchy(&test_hier());
        let r = session.run_spmspm(&a, &a).expect("run");
        assert_eq!(
            r.phases.total_bytes(),
            r.traffic.total(),
            "{name}: phase bytes must partition total traffic"
        );
    }
}

/// Two incremental test configurations: DRT and fixed-shape S-U-C.
fn incr_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::new((
            "incr-drt",
            Tiling::Drt,
            DrtConfig::new(Partitions::from_bytes(&[("A", 4096), ("B", 4096), ("Z", 1024)])),
        )),
        EngineConfig::new((
            "incr-suc",
            Tiling::Suc(std::collections::BTreeMap::from([('i', 16), ('k', 16), ('j', 16)])),
            DrtConfig::new(Partitions::from_bytes(&[("A", 4096), ("B", 4096), ("Z", 4096)])),
        )),
    ]
}

/// The operand pair the incremental tests patch.
fn incr_operands() -> (CsMatrix, CsMatrix) {
    (diamond_band(128, 900, 13), rmat(128, 1_000, 0.45, 0.25, 0.2, 11))
}

/// Three deltas: a new entry, a value overwrite, then a delete that
/// reverts the first step (exercising re-validation of old results).
fn incr_deltas() -> Vec<DeltaBatch> {
    let mut add = DeltaBatch::new();
    add.upsert(10, 12, 5.0).upsert(40, 3, -2.0);
    let mut overwrite = DeltaBatch::new();
    overwrite.upsert(10, 12, 7.5);
    let mut revert = DeltaBatch::new();
    revert.delete(10, 12).delete(40, 3);
    vec![add, overwrite, revert]
}

/// The delta-path determinism contract (incremental re-execution): a run
/// that splices cached task results after operand deltas must be
/// bit-identical to a from-scratch run of the patched operands — for DRT
/// and S-U-C tiling, against both serial and 4-thread from-scratch
/// oracles, across a sequence of upserts and deletes.
#[test]
fn incremental_runs_are_bit_identical_to_from_scratch() {
    for cfg in incr_configs() {
        let name = cfg.name.clone();
        let (mut a, b) = incr_operands();
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        let mut total_spliced = 0u64;
        let deltas = incr_deltas();
        for (step, delta) in std::iter::once(None).chain(deltas.iter().map(Some)).enumerate() {
            if let Some(d) = delta {
                a.apply_delta(d);
            }
            let incr = eng.run(&a, &b).unwrap_or_else(|e| panic!("{name}: step {step}: {e:?}"));
            for threads in [1usize, 4] {
                let scratch = Session::from_engine_config(cfg.clone())
                    .threads(threads)
                    .run_spmspm(&a, &b)
                    .unwrap_or_else(|e| panic!("{name}: step {step} oracle t{threads}: {e:?}"));
                assert_eq!(
                    scratch.bit_diff(&incr),
                    None,
                    "{name}: step {step} diverged from the {threads}-thread from-scratch run"
                );
            }
            if step > 0 {
                total_spliced += eng.last_stats().spliced;
            }
        }
        assert!(total_spliced > 0, "{name}: no task result was ever spliced across deltas");
    }
}

/// Incremental runs through sessions the store does not serve the usual
/// way: a pre-expired token degrades exactly like the same session's
/// from-scratch run, and a 2-thread session takes the ordinary sharded
/// path (every task executed, the store untouched) with the sharded
/// run's bits.
#[test]
fn incremental_sessions_match_their_from_scratch_runs() {
    for cfg in incr_configs() {
        let name = cfg.name.clone();
        let (mut a, b) = incr_operands();

        let expired = Session::from_engine_config(cfg.clone());
        expired.cancel_token().cancel();
        let mut eng = IncrementalSpmspm::new(expired.clone());
        let incr = eng.run(&a, &b).expect("a pre-expired run degrades, never fails");
        assert!(incr.degradation.is_some(), "{name}: an expired token must degrade the run");
        assert_eq!(expired.run_spmspm(&a, &b).expect("scratch").bit_diff(&incr), None, "{name}");
        assert_eq!(eng.last_stats().tasks, 0, "{name}");

        let sharded = Session::from_engine_config(cfg.clone()).threads(2);
        let mut eng = IncrementalSpmspm::new(sharded.clone());
        for (step, delta) in std::iter::once(None).chain(incr_deltas().iter().map(Some)).enumerate()
        {
            if let Some(d) = delta {
                a.apply_delta(d);
            }
            let incr = eng.run(&a, &b).unwrap_or_else(|e| panic!("{name}: step {step}: {e:?}"));
            let scratch = sharded.run_spmspm(&a, &b).expect("from-scratch t2");
            assert_eq!(scratch.bit_diff(&incr), None, "{name}: step {step}");
            let s = eng.last_stats();
            assert!(s.tasks > 0 && s.executed == s.tasks && s.spliced == 0, "{name}: {s:?}");
            assert_eq!(eng.cached_tasks(), 0, "{name}: a sharded run must not fill the store");
        }
    }
}

/// The task store is keyed for one engine configuration, so a
/// spec-backed session is a typed error at `run`, never a panic.
#[test]
fn incremental_run_on_a_spec_session_is_a_typed_error() {
    let (a, _) = incr_operands();
    let mut eng = IncrementalSpmspm::new(Session::new(AccelSpec::extensor_op_drt()));
    let got = eng.run(&a, &a);
    assert!(matches!(got, Err(DrtError::Core(CoreError::BadConfig { .. }))), "{got:?}");
}

/// Every registered variant, analytic models included, rejects a pair
/// whose inner dimensions disagree with a typed `BadConfig` error.
#[test]
fn mismatched_inner_dims_are_a_typed_error_for_every_variant() {
    let a = unstructured(40, 30, 200, 1.5, 1);
    let b = unstructured(50, 40, 200, 1.0, 2);
    for name in Registry::standard().names() {
        let session = Session::from_registry(name).expect("registered").hierarchy(&test_hier());
        let got = session.run_spmspm(&a, &b);
        assert!(matches!(got, Err(DrtError::Core(CoreError::BadConfig { .. }))), "{name}: {got:?}");
    }
}

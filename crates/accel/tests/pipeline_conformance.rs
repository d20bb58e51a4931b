//! Pipeline refactor conformance: a single-stage SpMSpM [`PipelineSpec`]
//! is the *degenerate* pipeline, and must be indistinguishable from the
//! direct `Session::run_spmspm` path — bit-identical reports and
//! byte-identical JSONL traces — for every variant in the standard
//! registry, at every thread count. This pins the multi-stage refactor:
//! moving single-kernel runs onto the pipeline entry point changed no
//! numbers and no instrumentation.

use drt_accel::pipeline::{PipelineInput, PipelineSpec};
use drt_accel::report::RunOutcome;
use drt_accel::session::Session;
use drt_accel::spec::{AccelSpec, Registry};
use drt_accel::workload::WorkloadRef;
use drt_core::probe::{JsonlSink, Probe};
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use drt_workloads::patterns::{diamond_band, rmat};
use std::sync::{Arc, Mutex};

fn test_hier() -> HierarchySpec {
    HierarchySpec::default().scaled_down(256)
}

fn test_workloads() -> Vec<(&'static str, CsMatrix)> {
    vec![
        ("rmat-skewed", rmat(128, 2_000, 0.57, 0.19, 0.19, 7)),
        ("diamond", diamond_band(96, 1_500, 13)),
    ]
}

/// Every registered variant, both thread counts: the degenerate pipeline
/// report must be bit-identical to the direct SpMSpM path, and must not
/// grow per-stage breakdowns (pre-refactor reports had none).
#[test]
fn one_stage_pipeline_bit_identical_across_registry() {
    let hier = test_hier();
    for (wl, a) in test_workloads() {
        for spec in Registry::standard().iter() {
            for threads in [1usize, 4] {
                let session = Session::new(spec.clone()).hierarchy(&hier).threads(threads);
                let direct = session.run_spmspm(&a, &a).unwrap_or_else(|err| {
                    panic!("{wl}/{} t{threads}: direct run failed: {err:?}", spec.name)
                });
                let pipe = PipelineSpec::spmspm(a.clone());
                let piped = session
                    .run_ref(WorkloadRef::Pipeline {
                        input: PipelineInput::Matrix(&a),
                        pipe: &pipe,
                    })
                    .map(RunOutcome::into_report)
                    .unwrap_or_else(|err| {
                        panic!("{wl}/{} t{threads}: piped run failed: {err:?}", spec.name)
                    });
                assert!(
                    direct.bit_diff(&piped).is_none(),
                    "{wl}/{} t{threads}: {}",
                    spec.name,
                    direct.bit_diff(&piped).unwrap()
                );
                assert!(
                    piped.stages.is_empty(),
                    "{wl}/{} t{threads}: degenerate pipeline must not add stage breakdowns",
                    spec.name
                );
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
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced(spec: &AccelSpec, a: &CsMatrix, threads: usize, pipeline: bool) -> String {
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
    let session =
        Session::new(spec.clone()).hierarchy(&test_hier()).threads(threads).probe(Probe::new(sink));
    if pipeline {
        let pipe = PipelineSpec::spmspm(a.clone());
        session
            .run_ref(WorkloadRef::Pipeline { input: PipelineInput::Matrix(a), pipe: &pipe })
            .unwrap_or_else(|err| panic!("{}: piped traced run failed: {err:?}", spec.name));
    } else {
        session
            .run_spmspm(a, a)
            .unwrap_or_else(|err| panic!("{}: traced run failed: {err:?}", spec.name));
    }
    let bytes = buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    String::from_utf8(bytes).expect("utf8 trace")
}

/// The JSONL event stream of the degenerate pipeline must be
/// byte-identical to the direct path's, for every registered variant at
/// both thread counts — instrumentation is part of the bit-identity
/// contract.
#[test]
fn one_stage_pipeline_trace_identical_across_registry() {
    let a = diamond_band(96, 1_500, 13);
    for spec in Registry::standard().iter() {
        for threads in [1usize, 4] {
            let direct = traced(spec, &a, threads, false);
            let piped = traced(spec, &a, threads, true);
            assert_eq!(
                direct, piped,
                "{} t{threads}: pipeline trace diverged from direct trace",
                spec.name
            );
        }
    }
}

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

/// Stable text dump of one report: every modeled field, with `seconds`
/// as raw bits and the functional output as a digest, so any drift in a
/// pipeline's modeled numbers shows up as a line diff.
fn dump_report(label: &str, r: &drt_accel::report::RunReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "[{label}]");
    let _ = writeln!(s, "name = {}", r.name);
    let _ = writeln!(s, "traffic = {:?}", r.traffic);
    let _ = writeln!(s, "maccs = {}", r.maccs);
    let _ = writeln!(s, "cycles = {} / {}", r.compute_cycles, r.exposed_extract_cycles);
    let _ = writeln!(s, "seconds_bits = {:#018x}", r.seconds.to_bits());
    let _ = writeln!(s, "tasks = {} skipped = {}", r.tasks, r.skipped_tasks);
    let _ = writeln!(s, "actions = {:?}", r.actions);
    let _ = writeln!(s, "phases = {:?}", r.phases.named());
    for st in &r.stages {
        let _ = writeln!(s, "stage {} = {:?}", st.stage, st.phases.named());
    }
    match &r.degradation {
        Some(d) => {
            let _ = writeln!(
                s,
                "degradation = {} after {}: {}",
                d.reason.tag(),
                d.completed_tasks,
                d.detail
            );
        }
        None => {
            let _ = writeln!(s, "degradation = none");
        }
    }
    match &r.output {
        Some(z) => {
            // FNV-1a over the shape and every (row, col, value-bits) entry.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            let mut mix = |x: u64| {
                for byte in x.to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            };
            mix(u64::from(z.nrows()));
            mix(u64::from(z.ncols()));
            for (r, c, v) in z.iter() {
                mix(u64::from(r));
                mix(u64::from(c));
                mix(v.to_bits());
            }
            let _ = writeln!(
                s,
                "output = {}x{} nnz {} digest {h:#018x}",
                z.nrows(),
                z.ncols(),
                z.nnz()
            );
        }
        None => {
            let _ = writeln!(s, "output = none");
        }
    }
    s
}

/// Report-level pipeline golden: every multi-stage and tensor pipeline,
/// on a DRT and a static-tiling spec, fused and unfused, on a roomy and a
/// cramped LLB, plus a pre-cancelled run and a two-task budget. The dump
/// is compared byte for byte with `tests/goldens/pipeline_reports.txt`;
/// set `UPDATE_GOLDENS=1` to rewrite it.
#[test]
fn pipeline_reports_match_golden() {
    use drt_core::budget::ExecBudget;
    use drt_core::cancel::CancelToken;
    use drt_workloads::patterns::unstructured;
    use drt_workloads::tensor3::{dense_factor, skewed_tensor};

    let a = unstructured(64, 64, 600, 2.0, 2);
    let b = unstructured(64, 64, 600, 2.0, 3);
    let c = unstructured(64, 64, 600, 2.0, 4);
    let s = unstructured(48, 40, 300, 2.0, 5);
    let (u, v, h) = (dense_factor(48, 6, 6), dense_factor(40, 6, 7), dense_factor(40, 5, 8));
    let x = skewed_tensor(32, 24, 28, 900, 9);
    let (fb, fc) = (dense_factor(24, 4, 10), dense_factor(28, 4, 11));
    let tv: Vec<f64> = (0..28).map(|k| 1.0 + k as f64 * 0.125).collect();
    let pipes: Vec<(PipelineInput<'_>, PipelineSpec)> = vec![
        (PipelineInput::Matrix(&a), PipelineSpec::abc(b.clone(), c.clone())),
        (PipelineInput::Matrix(&s), PipelineSpec::sddmm_spmm(u, v, h)),
        (PipelineInput::Tensor(&x), PipelineSpec::mttkrp(fb, fc)),
        (PipelineInput::Tensor(&x), PipelineSpec::ttv(tv)),
    ];
    let hiers = [("llb256", test_hier()), ("llb4k", HierarchySpec::default().scaled_down(1 << 30))];
    let specs = [AccelSpec::extensor_op_drt(), AccelSpec::extensor_op()];

    let run = |session: &Session, input: PipelineInput<'_>, pipe: &PipelineSpec| {
        session
            .run_ref(WorkloadRef::Pipeline { input, pipe })
            .map(RunOutcome::into_report)
            .unwrap_or_else(|err| panic!("{}: {err:?}", pipe.name))
    };
    let mut out = String::new();
    for (hname, hier) in &hiers {
        for spec in &specs {
            for (input, pipe) in &pipes {
                for p in [pipe.clone(), pipe.clone().unfused()] {
                    let session = Session::new(spec.clone()).hierarchy(hier);
                    let label = format!("{hname} {} {}", spec.name, p.name);
                    out.push_str(&dump_report(&label, &run(&session, *input, &p)));
                }
            }
        }
    }
    let (hname, hier) = &hiers[1];
    for spec in &specs {
        for (input, pipe) in &pipes {
            let cancelled = CancelToken::new();
            cancelled.cancel();
            let session = Session::new(spec.clone()).hierarchy(hier).with_cancel_token(cancelled);
            let label = format!("{hname} {} {} cancelled", spec.name, pipe.name);
            out.push_str(&dump_report(&label, &run(&session, *input, pipe)));
            let session = Session::new(spec.clone())
                .hierarchy(hier)
                .budget(ExecBudget::unlimited().with_max_tasks(2));
            let label = format!("{hname} {} {} max_tasks=2", spec.name, pipe.name);
            out.push_str(&dump_report(&label, &run(&session, *input, pipe)));
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/pipeline_reports.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &out).expect("write golden");
    }
    let want = std::fs::read_to_string(&path).expect("golden present (UPDATE_GOLDENS=1 writes it)");
    if want != out {
        let first = want
            .lines()
            .zip(out.lines())
            .position(|(w, g)| w != g)
            .unwrap_or_else(|| want.lines().count().min(out.lines().count()));
        panic!(
            "pipeline reports drifted from the golden at line {}:\n  want: {:?}\n  got:  {:?}",
            first + 1,
            want.lines().nth(first),
            out.lines().nth(first)
        );
    }
}

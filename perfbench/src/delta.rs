//! `delta-stream`: a closed loop of writes and reads on an evolving
//! operand. One op applies a `DeltaBatch` to `A` (`CsMatrix::apply_delta`)
//! and re-runs `Z = A · B` through `IncrementalSpmspm::run`.

use crate::common::{self, ms, permutation, relabel, OpSample, Outcome, SETUP_REPS};
use crate::layers::LayerAcc;
use crate::stats::Rng;
use crate::trace::Tracer;
use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::incremental::IncrementalSpmspm;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_core::config::{DrtConfig, Partitions};
use drt_kernels::spmspm::gustavson;
use drt_tensor::{CsMatrix, DeltaBatch};
use drt_workloads::patterns;
use std::time::{Duration, Instant};

/// Operand side (square, unstructured).
const N: u32 = 1024;
/// Non-zeros per operand.
const NNZ: usize = 16 * 1024;
/// Batch sizes of one cycle, each once scattered and once row-local.
const SIZES: [usize; 4] = [1, 4, 16, 64];
/// Ops per cycle: eight batches, then the revert to the base operand.
const CYCLE_OPS: usize = 2 * SIZES.len() + 1;
/// Structure seed of `A`; `B` uses this plus one.
const STRUCTURE_SEED: u64 = 0xDE17_5EED;
/// Nominal host seconds of one cycle at the defining commit (fixes the
/// number of cycles from `--seconds`, so every commit runs the same ops).
const NOMINAL_CYCLE_S: f64 = 0.5;

/// fig_delta's configuration: DRT with 8K/8K/2K-byte A/B/Z partitions and
/// `i` outermost, so a dirty row invalidates only the boxes crossing it.
fn config() -> EngineConfig {
    let mut cfg = EngineConfig::new((
        "perfbench-delta",
        Tiling::Drt,
        DrtConfig::new(Partitions::from_bytes(&[("A", 8192), ("B", 8192), ("Z", 2048)])),
    ));
    cfg.loop_order = vec!['i', 'k', 'j'];
    cfg
}

/// The seeded batches of one cycle: sizes 1/4/16/64 scattered over the
/// matrix, then the same sizes confined to one row. Upserts are 3/4 of the
/// mutations, deletes 1/4.
fn cycle_batches(rng: &mut Rng) -> Vec<DeltaBatch> {
    let mut out = Vec::with_capacity(2 * SIZES.len());
    for row_local in [false, true] {
        for &ops in &SIZES {
            let row = rng.below(u64::from(N)) as u32;
            let mut d = DeltaBatch::new();
            for _ in 0..ops {
                let r = if row_local { row } else { rng.below(u64::from(N)) as u32 };
                let c = rng.below(u64::from(N)) as u32;
                if rng.below(4) == 0 {
                    d.delete(r, c);
                } else {
                    d.upsert(r, c, rng.below(2000) as f64 / 100.0 - 10.0);
                }
            }
            out.push(d);
        }
    }
    out
}

/// Generated inputs: base operand, right operand and every cycle's batches.
struct DeltaInputs {
    base: CsMatrix,
    b: CsMatrix,
    cycles: Vec<Vec<DeltaBatch>>,
}

impl DeltaInputs {
    /// The inputs of `cycles` cycles for `seed`. The operands' patterns
    /// come from fixed structure seeds; `seed` relabels them consistently
    /// (`P A Q` and `Qᵀ B R`, so the product is `P (A B) R`), draws their
    /// values and the batch stream. Every seed thus asks for the same
    /// multiply work from the base operands: where the power-law hubs of
    /// `A`'s columns and `B`'s rows happen to meet stays fixed.
    fn generate(seed: u64, cycles: usize) -> DeltaInputs {
        let mut rng = Rng::new(seed, 0x4E1A);
        let (p, q, r) =
            (permutation(N, &mut rng), permutation(N, &mut rng), permutation(N, &mut rng));
        let base = patterns::unstructured(N, N, NNZ, 1.5, STRUCTURE_SEED);
        let base = relabel(&base, Some(&p), Some(&q), &mut rng);
        let b = patterns::unstructured(N, N, NNZ, 1.0, STRUCTURE_SEED + 1);
        let b = relabel(&b, Some(&q), Some(&r), &mut rng);
        let mut rng = Rng::new(seed, 0xDE17A);
        let cycles = (0..cycles).map(|_| cycle_batches(&mut rng)).collect();
        DeltaInputs { base, b, cycles }
    }
}

/// The stream's state: the evolving operand and the incremental runner,
/// warmed by a cold run of the base operand.
struct DeltaState {
    a: CsMatrix,
    eng: IncrementalSpmspm,
}

fn fresh_state(inp: &DeltaInputs) -> DeltaState {
    let mut eng = IncrementalSpmspm::new(config());
    eng.run(&inp.base, &inp.b).expect("cold incremental run of the base operand");
    DeltaState { a: inp.base.clone(), eng }
}

/// The batch of op `i` of cycle `c`: a stream batch, or the revert that
/// returns `A` to the base operand.
fn batch(inp: &DeltaInputs, st: &DeltaState, c: usize, i: usize) -> DeltaBatch {
    match inp.cycles[c].get(i) {
        Some(d) => d.clone(),
        None => DeltaBatch::diff(&st.a, &inp.base),
    }
}

/// The untimed check: bit-identity with a from-scratch run of the patched
/// operands, and the output against `gustavson`.
fn check(inp: &DeltaInputs, a: &CsMatrix, r: &Result<RunReport, String>) -> Result<(), String> {
    let r = r.as_ref().map_err(Clone::clone)?;
    let scratch =
        Session::from_engine_config(config()).run_spmspm(a, &inp.b).map_err(|e| e.to_string())?;
    if let Some(diff) = scratch.bit_diff(r) {
        return Err(format!("incremental run differs from scratch: {diff}"));
    }
    match &r.output {
        Some(z) if z.approx_eq(&gustavson(a, &inp.b).z, 1e-6) => Ok(()),
        Some(_) => Err("output differs from gustavson".into()),
        None => Err("no functional output".into()),
    }
}

/// Run `delta-stream` and fill `out`.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let cycles = ((seconds / NOMINAL_CYCLE_S).round() as usize).max(2);
    let reps = if trace { 1 } else { SETUP_REPS };
    let (setup_s, (inp, mut st)) = common::timed_setup(reps, || {
        let inp = DeltaInputs::generate(seed, cycles);
        let st = fresh_state(&inp);
        // The reference for the base operand: a standalone from-scratch run.
        let r = Session::from_engine_config(config()).run_spmspm(&inp.base, &inp.b);
        assert!(r.is_ok(), "reference run of the base operand failed");
        (inp, st)
    });
    out.note(format!(
        "workload: A, B {N}x{N} unstructured, {NNZ} nnz each, fixed structure relabelled and \
         valued by the seed | A/B/Z partitions 8K/8K/2K bytes, \
         loop order i,k,j | {cycles} cycles of batches sized {SIZES:?} scattered then row-local, \
         then a revert to the base operand"
    ));
    let mut errors = Vec::new();
    let mut samples = Vec::with_capacity(cycles * CYCLE_OPS);
    for c in 0..cycles {
        for i in 0..CYCLE_OPS {
            let d = batch(&inp, &st, c, i);
            let t0 = Instant::now();
            st.a.apply_delta(&d);
            let r = st.eng.run(&st.a, &inp.b).map_err(|e| e.to_string());
            let latency = t0.elapsed();
            let ok = match check(&inp, &st.a, &r) {
                Ok(()) => true,
                Err(e) => {
                    errors.push(format!("cycle {c} op {i}: {e}"));
                    false
                }
            };
            samples.push(OpSample { slot: i, latency, tasks: r.map_or(0, |r| r.tasks), ok });
        }
    }
    if trace {
        let untraced: Duration = samples.iter().map(|s| s.latency).sum();
        let mut st = fresh_state(&inp);
        let mut tracer = Tracer::new(Instant::now());
        let mut acc = LayerAcc::default();
        for c in 0..cycles {
            for i in 0..CYCLE_OPS {
                let d = batch(&inp, &st, c, i);
                traced_op(&inp, &mut st, &d, &mut tracer, &mut acc);
            }
        }
        let incr = acc.get("accel.incr.busy_ms");
        if incr > 0.0 {
            acc.set("accel.incr.speedup", acc.get("accel.scratch.busy_ms") / incr);
        }
        let executed = acc.ratio("accel.incr.executed", "accel.incr.tasks");
        acc.set("accel.incr.executed_frac", executed);
        let replanned = acc.ratio("core.plancache.computed", "core.plancache.calls");
        acc.set("core.plancache.replanned_frac", replanned);
        crate::finish_trace(out, &tracer, &mut acc, untraced);
        out.count(&samples);
    } else {
        common::closed_loop_metrics(out, setup_s, &samples);
    }
    out.failures(&errors);
}

/// One op in spans: the write, the incremental read, and the from-scratch
/// run and `gustavson` reference the untraced loop uses only as checks.
fn traced_op(
    inp: &DeltaInputs,
    st: &mut DeltaState,
    d: &DeltaBatch,
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
) {
    let root = tracer.open("op", "harness");
    let (dirty, apply_d) =
        tracer.time("tensor.apply_delta", "tensor", root, || st.a.apply_delta(d));
    acc.add("tensor.apply_delta.busy_us", apply_d.as_secs_f64() * 1e6);
    acc.add("tensor.apply_delta.dirty_rows", dirty.len() as f64);
    let (a, b) = (&st.a, &inp.b);
    let eng = &mut st.eng;
    let (_, incr_d) = tracer.time("accel.incr", "accel", root, || eng.run(a, b));
    acc.add("accel.incr.busy_ms", ms(incr_d));
    let s = eng.last_stats();
    acc.add("accel.incr.executed", s.executed as f64);
    acc.add("accel.incr.tasks", s.tasks as f64);
    acc.add("core.plancache.computed", s.plans_computed as f64);
    acc.add("core.plancache.calls", (s.plans_computed + s.plans_reused) as f64);
    let (_, scratch_d) = tracer.time("accel.scratch", "accel", root, || {
        Session::from_engine_config(config()).run_spmspm(a, b)
    });
    acc.add("accel.scratch.busy_ms", ms(scratch_d));
    let (reference, ref_d) = tracer.time("kernels.reference", "kernels", root, || gustavson(a, b));
    acc.add("kernels.reference.busy_ms", ms(ref_d));
    acc.add("kernels.reference.maccs", reference.maccs as f64);
    tracer.close(root);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_seed_gives_identical_inputs() {
        let (x, y) = (DeltaInputs::generate(11, 2), DeltaInputs::generate(11, 2));
        assert_eq!(x.base, y.base);
        assert_eq!(x.b, y.b);
        assert_eq!(x.cycles, y.cycles);
        let z = DeltaInputs::generate(12, 2);
        assert_ne!(x.cycles, z.cycles, "another seed must give another stream");
        assert_ne!(x.base, z.base, "another seed must relabel the operands");
        assert_eq!((x.base.nnz(), x.b.nnz()), (z.base.nnz(), z.b.nnz()));
        // Row-local batches touch one row; every cycle has all four sizes twice.
        for cycle in &x.cycles {
            let sizes: Vec<usize> = cycle.iter().map(DeltaBatch::len).collect();
            assert_eq!(sizes, [SIZES, SIZES].concat());
            for d in &cycle[SIZES.len()..] {
                let rows: std::collections::BTreeSet<u32> = d.ops().iter().map(|o| o.0).collect();
                assert_eq!(rows.len(), 1);
            }
        }
    }
}

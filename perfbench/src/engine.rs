//! The two engine workloads, `fig06-suite` and `drt-scale4`: closed loops
//! of one client over (matrix, variant) cells, each cell one
//! `Session::run_spmspm` call.

use crate::common::{self, digest, ms, OpSample, Outcome, SETUP_REPS};
use crate::layers::{LayerAcc, SUITE_VARIANTS};
use crate::stats::Rng;
use crate::trace::Tracer;
use drt_accel::cpu::CpuSpec;
use drt_accel::engine::Tiling;
use drt_accel::report::RunReport;
use drt_accel::session::Session;
use drt_core::kernel::Kernel;
use drt_core::taskgen::{TaskGenOptions, TaskStream};
use drt_kernels::spmspm::gustavson;
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use drt_workloads::suite::{Catalog, CatalogEntry, PatternClass};
use std::time::{Duration, Instant};

/// One engine workload's definition.
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// Catalog matrices, squared (`A · A`).
    pub matrices: Vec<CatalogEntry>,
    /// Instances of each matrix, each from its own structure seed.
    pub instances: usize,
    /// Down-scaling factor for matrices, buffers and the CPU model.
    pub scale: u32,
    /// Registry variants run on every matrix.
    pub variants: Vec<&'static str>,
    /// Nominal host seconds of one pass over every cell at the defining
    /// commit; `--seconds` divided by it fixes the number of passes, so
    /// every commit runs the same ops.
    pub nominal_pass_s: f64,
    /// Fewest passes, whatever `--seconds` asks.
    pub min_passes: usize,
}

impl EngineSpec {
    /// `fig06-suite`: the fig06 quick subset at scale 16, all four suite
    /// variants.
    pub fn fig06_suite() -> EngineSpec {
        EngineSpec {
            matrices: Catalog::sweep_subset(),
            instances: 1,
            scale: 16,
            variants: SUITE_VARIANTS.to_vec(),
            nominal_pass_s: 5.0,
            min_passes: 3,
        }
    }

    /// `drt-scale4`: ExTensor-OP-DRT alone at scale 4, on four matrices
    /// where planning dominates and one (rma10) where compute does.
    pub fn drt_scale4() -> EngineSpec {
        let c = Catalog::paper_table3();
        let matrices = ["email-EuAll", "amazon0302", "sx-askubuntu", "mc2depi", "rma10"]
            .iter()
            .map(|n| c.get(n).expect("Table 3 name").clone())
            .collect();
        // Six passes over two instances put 60 samples behind the
        // percentiles, so the tail (ten samples beyond it) falls among the
        // rma10 ops, one in five.
        EngineSpec {
            matrices,
            instances: 2,
            scale: 4,
            variants: vec!["extensor-op-drt"],
            nominal_pass_s: 4.0,
            min_passes: 6,
        }
    }

    /// Passes for a `seconds`-long measurement.
    pub fn passes(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s).round() as usize).max(self.min_passes)
    }

    /// The workload parameters, for the result stamp.
    pub fn describe(&self) -> String {
        let names: Vec<&str> = self.matrices.iter().map(|e| e.name).collect();
        format!(
            "matrices [{}] squared at scale {}, {} instance(s) each, fixed structure, \
             unstructured ones relabelled and all values drawn by the seed | variants [{}] | \
             serial engine runs",
            names.join(", "),
            self.scale,
            self.instances,
            self.variants.join(", ")
        )
    }
}

/// Structure seed of instance 0; instance `i` uses this plus `i`.
const STRUCTURE_SEED: u64 = 0x0D47_5EED;

/// The operands of every cell, instance by instance. Each instance's
/// non-zero pattern comes from a fixed structure seed; `seed` draws a
/// symmetric relabelling of the unstructured matrices (`P A Pᵀ`, whose
/// square is `P A² Pᵀ`) and fresh values for all of them. Every seed thus
/// asks for the same multiply work: where a power-law matrix's row and
/// column hubs happen to meet, which moves an `A · A` by tens of percent
/// from one structure draw to the next, stays fixed. Band matrices keep
/// their coordinates, since relabelling would scatter the band.
fn generate(spec: &EngineSpec, seed: u64) -> Vec<CsMatrix> {
    let mut rng = Rng::new(seed, 0xE46);
    let mut mats = Vec::with_capacity(spec.instances * spec.matrices.len());
    for i in 0..spec.instances as u64 {
        for e in &spec.matrices {
            let a = e.generate(spec.scale, STRUCTURE_SEED + i);
            let perm = match e.class {
                PatternClass::Unstructured => Some(common::permutation(a.nrows(), &mut rng)),
                PatternClass::DiamondBand => None,
            };
            mats.push(common::relabel(&a, perm.as_deref(), perm.as_deref(), &mut rng));
        }
    }
    mats
}

/// A set-up engine workload: inputs, sessions and reference results.
pub struct EngineWorkload {
    spec: EngineSpec,
    mats: Vec<CsMatrix>,
    /// `gustavson(A, A)` per matrix: the functional reference.
    reference_out: Vec<CsMatrix>,
    /// One session per variant.
    sessions: Vec<Session>,
    /// Digest of a standalone reference run per cell (`matrix * V + variant`).
    reference_digest: Vec<u64>,
}

impl EngineWorkload {
    /// Generate inputs, run references, build sessions.
    ///
    /// # Panics
    ///
    /// When a reference run fails: the benchmark cannot check anything
    /// without its references.
    pub fn setup(spec: &EngineSpec, seed: u64) -> EngineWorkload {
        let hier = HierarchySpec::default().scaled_down(u64::from(spec.scale));
        let cpu = CpuSpec::default().scaled_down(u64::from(spec.scale));
        let mats = generate(spec, seed);
        let reference_out = mats.iter().map(|a| gustavson(a, a).z).collect();
        let sessions: Vec<Session> = spec
            .variants
            .iter()
            .map(|v| {
                Session::from_registry(v).expect("registered variant").hierarchy(&hier).cpu(cpu)
            })
            .collect();
        let mut reference_digest = Vec::new();
        for (a, e) in mats.iter().zip(spec.matrices.iter().cycle()) {
            for (s, v) in sessions.iter().zip(&spec.variants) {
                let r = s
                    .run_spmspm(a, a)
                    .unwrap_or_else(|err| panic!("reference run {}/{v}: {err}", e.name));
                reference_digest.push(digest(&r));
            }
        }
        EngineWorkload { spec: spec.clone(), mats, reference_out, sessions, reference_digest }
    }

    fn cells(&self) -> usize {
        self.mats.len() * self.spec.variants.len()
    }

    fn cell(&self, c: usize) -> (usize, usize) {
        (c / self.spec.variants.len(), c % self.spec.variants.len())
    }

    /// The untimed correctness check of one cell's result.
    fn check(&self, c: usize, r: &Result<RunReport, String>) -> Result<(), String> {
        let (m, v) = self.cell(c);
        let entry = &self.spec.matrices[m % self.spec.matrices.len()];
        let label = format!("{}/{}", entry.name, self.spec.variants[v]);
        let r = r.as_ref().map_err(|e| format!("{label}: {e}"))?;
        if r.degradation.is_some() {
            return Err(format!("{label}: degraded run"));
        }
        if digest(r) != self.reference_digest[c] {
            return Err(format!("{label}: report digest differs from the standalone reference"));
        }
        match &r.output {
            Some(z) if !z.approx_eq(&self.reference_out[m], 1e-6) => {
                Err(format!("{label}: output differs from gustavson"))
            }
            _ => Ok(()),
        }
    }

    /// Run cell `c` untimed-checked: the op is the session run alone.
    fn op(&self, c: usize) -> (Result<RunReport, String>, Duration) {
        let (m, v) = self.cell(c);
        let a = &self.mats[m];
        let t0 = Instant::now();
        let r = self.sessions[v].run_spmspm(a, a);
        (r.map_err(|e| e.to_string()), t0.elapsed())
    }

    /// The measured closed loop: `passes` passes over every cell.
    pub fn run(&self, passes: usize, errors: &mut Vec<String>) -> Vec<OpSample> {
        let mut samples = Vec::with_capacity(passes * self.cells());
        for _ in 0..passes {
            for c in 0..self.cells() {
                let (r, latency) = self.op(c);
                let ok = match self.check(c, &r) {
                    Ok(()) => true,
                    Err(e) => {
                        errors.push(e);
                        false
                    }
                };
                let tasks = r.map_or(0, |r| r.tasks);
                samples.push(OpSample { slot: c, latency, tasks, ok });
            }
        }
        samples
    }

    /// The traced pass: the same ops, each wrapped in spans, plus the
    /// duplicate calls that split the engine run into layers — grid build
    /// and task stream on the run's resolved configuration, the S-U-C
    /// winner run alone, and the `gustavson` reference.
    pub fn run_traced(&self, passes: usize, tracer: &mut Tracer, acc: &mut LayerAcc) {
        for _ in 0..passes {
            for c in 0..self.cells() {
                self.traced_op(c, tracer, acc);
            }
        }
    }

    fn traced_op(&self, c: usize, tracer: &mut Tracer, acc: &mut LayerAcc) {
        let (m, v) = self.cell(c);
        let (a, variant, session) = (&self.mats[m], self.spec.variants[v], &self.sessions[v]);
        let root = tracer.open("op", "harness");
        let run_name = format!("accel.run.{variant}.busy_ms");
        let (r, run_d) = tracer.time(run_name.clone(), "accel", root, || session.run_spmspm(a, a));
        acc.add(&run_name, ms(run_d));
        if let Ok(r) = &r {
            acc.add("accel.tasks", r.tasks as f64);
            acc.add("accel.run_ms", ms(run_d));
        }
        let (cfg, _) =
            tracer.time("accel.resolve", "accel", root, || session.resolved_engine_config(a, a));
        if let Ok(Some(cfg)) = cfg {
            let mut engine_d = run_d;
            if matches!(cfg.tiling, Tiling::Suc(_)) {
                let winner = Session::from_engine_config(cfg.clone());
                let (_, win_d) =
                    tracer.time("accel.winner", "accel", root, || winner.run_spmspm(a, a));
                acc.add("accel.suc_sweep.run_ms", ms(run_d));
                acc.add("accel.suc_sweep.winner_ms", ms(win_d));
                engine_d = win_d;
            }
            let (kernel, grid_d) = tracer.time("core.grid", "core", root, || {
                Kernel::spmspm_fmt(a, a, cfg.micro, cfg.micro_format)
            });
            acc.add("core.grid.busy_ms", ms(grid_d));
            let mut taskgen_d = Duration::ZERO;
            if let Ok(kernel) = &kernel {
                let opts = match &cfg.tiling {
                    Tiling::Suc(sizes) => {
                        TaskGenOptions::suc(&cfg.loop_order, cfg.drt.clone(), sizes)
                    }
                    Tiling::Drt => TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()),
                };
                let (stream, d) = tracer.time("core.taskgen", "core", root, || {
                    TaskStream::build(kernel, opts).map(|mut s| {
                        let n = (&mut s).count() as u64;
                        (n, s.skipped_empty(), s.plan_calls())
                    })
                });
                taskgen_d = d;
                if let Ok((emitted, skipped, plans)) = stream {
                    let p = format!("core.taskgen.{variant}");
                    acc.add(&format!("{p}.busy_ms"), ms(d));
                    acc.add(&format!("{p}.plan_calls"), plans as f64);
                    acc.add(&format!("{p}.tasks"), emitted as f64);
                    acc.add(&format!("{p}.attempts"), (emitted + skipped) as f64);
                }
            }
            acc.add("accel.engine.self_ms", ms(engine_d) - ms(grid_d) - ms(taskgen_d));
        }
        let (reference, ref_d) =
            tracer.time("kernels.reference", "kernels", root, || gustavson(a, a));
        acc.add("kernels.reference.busy_ms", ms(ref_d));
        acc.add("kernels.reference.maccs", reference.maccs as f64);
        tracer.close(root);
    }

    /// Derived per-layer ratios, once every traced op is in.
    pub fn finish_layers(acc: &mut LayerAcc) {
        for var in crate::layers::TASKGEN_VARIANTS {
            let p = format!("core.taskgen.{var}");
            let useful = acc.ratio(&format!("{p}.tasks"), &format!("{p}.attempts"));
            acc.set(&format!("{p}.useful_frac"), useful);
        }
        let tasks_per_ms = acc.ratio("accel.tasks", "accel.run_ms");
        acc.set("accel.tasks_per_ms", tasks_per_ms);
        let sweep = acc.get("accel.suc_sweep.run_ms");
        if sweep > 0.0 {
            acc.set(
                "accel.suc_sweep.waste_frac",
                1.0 - acc.get("accel.suc_sweep.winner_ms") / sweep,
            );
        }
    }
}

/// Run an engine workload and fill `out`.
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let reps = if trace { 1 } else { SETUP_REPS };
    let (setup_s, w) = common::timed_setup(reps, || EngineWorkload::setup(spec, seed));
    let passes = spec.passes(seconds);
    out.note(format!("workload: {} | {passes} passes of {} cells", spec.describe(), w.cells()));
    let mut errors = Vec::new();
    let samples = w.run(passes, &mut errors);
    if trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut acc = LayerAcc::default();
        w.run_traced(passes, &mut tracer, &mut acc);
        EngineWorkload::finish_layers(&mut acc);
        let untraced: Duration = samples.iter().map(|s| s.latency).sum();
        crate::finish_trace(out, &tracer, &mut acc, untraced);
        out.count(&samples);
    } else {
        common::closed_loop_metrics(out, setup_s, &samples);
    }
    out.failures(&errors);
}

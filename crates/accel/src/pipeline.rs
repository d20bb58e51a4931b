//! Staged pipelines over one DRT co-tiling (the §7 outlook: "DRT is not
//! specific to SpMSpM"): A·B·C chains, the fused SDDMM→SpMM "GNN
//! attention layer", MTTKRP and TTV over CSF, and the Gram contraction
//! (§6.1.3), all runnable through [`crate::session::Session::run_ref`] as
//! a [`crate::workload::WorkloadRef::Pipeline`].
//!
//! A [`PipelineSpec`] is a list of 1..N [`Stage`]s applied to one sparse
//! input. Single-stage SpMSpM is the degenerate case and delegates
//! verbatim to the engine (through `AccelSpec::run_ft`), so its
//! reports and traces stay bit-identical to `Session::run_spmspm` for
//! every registered variant. Every other pipeline runs through **one
//! stage loop**. Each stage is data: a [`Kernel`] with its loop order and
//! `DrtConfig` partitions, its dense operand windows as
//! `(tensor, rank, bytes per coordinate)`, and an output rule — written
//! back whole once the stage completes, or merged per task through an
//! [`OutputCache`] keyed by the output ranks (MTTKRP, TTV, Gram). The
//! loop streams the stage's tasks under the spec's tiling discipline and
//! charges a tile or window load once per distinct coordinate-range
//! visit (the stationarity ledger, keyed by each binding's ranks). Every
//! pipeline report fills [`crate::report::RunReport::stages`] with one
//! [`StagePhases`] entry per stage, and those breakdowns partition the
//! report's phase totals
//! ([`crate::report::RunReport::stage_partition_violation`]).
//!
//! **Residency.** When `fused` is set (the default), inter-stage
//! intermediates stay tile-resident: the producing stage skips their
//! writeback and the consuming stage skips their loads — the residency
//! discipline of the row-panel reference kernels
//! (`drt_kernels::sddmm::fused_sddmm_spmm`). The `unfused` baseline
//! charges the full round trip (intermediate writeback plus per-tile
//! re-loads), so a fused run's total modeled traffic is strictly lower
//! whenever the intermediate is non-empty.
//!
//! **Gram** dispatches by spec kind: a DRT engine spec runs the stage
//! loop, a static-tiling engine spec runs the closed-form best-of S-U-C
//! sweep, and `cpu-mkl` runs the TACO-like CPU model.
//!
//! The stage loop is serial and thread-independent: reports are
//! identical for every `Session::threads` setting by construction.
//! Budgets and cancellation/deadlines ride on every stage stream exactly
//! as on the single-stage engine path: an exhausted DRT cap degrades the
//! remaining region to S-U-C fallback tiles (the run completes, the
//! report records why); an expired token stops the run at the next task
//! boundary, where a stage with an output cache flushes it, a whole
//! writeback is not charged, and the functional output is dropped. The
//! run context's probe receives one `phase` record per stage phase and a
//! final `aborted` record on a stop. Chaos injection remains
//! engine-path-only.

use crate::error::DrtError;
use crate::report::{Degradation, PhaseBreakdown, RunOutcome, RunReport, StagePhases};
use crate::spec::TilingSpec;
use crate::spec::{llc_hierarchy, AccelSpec, EngineSpec, PartitionPreset, RunCtx, SpecKind};
use crate::zcache::OutputCache;
use drt_core::cancel::ExpiryKind;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::drt::RankRanges;
use drt_core::kernel::{Kernel, TensorBinding};
use drt_core::micro::MicroGrid;
use drt_core::probe::{Event, Probe};
use drt_core::taskgen::{fallback_suc_coord_sizes, TaskGenOptions, TaskStream};
use drt_core::{CoreError, RankId};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix, MajorAxis};

/// The sparse input a pipeline starts from.
#[derive(Debug, Clone, Copy)]
pub enum PipelineInput<'a> {
    /// A 2-D compressed matrix (SpMSpM chains, SDDMM→SpMM).
    Matrix(&'a CsMatrix),
    /// A 3-D CSF tensor (MTTKRP, TTV, Gram).
    Tensor(&'a CsfTensor),
}

/// One stage of a pipeline. Each stage consumes the previous stage's
/// output (the pipeline input for the first stage) as its sparse operand;
/// the stage's own dense/sparse operands ride in the variant.
#[derive(Debug, Clone)]
pub enum Stage {
    /// `T' = T · B` (sparse × sparse).
    Spmspm {
        /// Right-hand sparse operand.
        b: CsMatrix,
    },
    /// `S_ij = T_ij · (U · Vᵀ)_ij` sampled at the sparse operand's
    /// non-zeros.
    Sddmm {
        /// Left dense factor, `I × R`.
        u: DenseMatrix,
        /// Right dense factor, `J × R`.
        v: DenseMatrix,
    },
    /// `Z = T · H` (sparse × dense, dense output).
    Spmm {
        /// Dense right operand, `J × F`.
        h: DenseMatrix,
    },
    /// `M_ir = Σ_jk χ_ijk · B_jr · C_kr` over a CSF 3-tensor.
    Mttkrp {
        /// Mode-1 dense factor, `J × R`.
        b: DenseMatrix,
        /// Mode-2 dense factor, `K × R`.
        c: DenseMatrix,
    },
    /// `Y_ij = Σ_k χ_ijk · v_k` over a CSF 3-tensor.
    Ttv {
        /// Dense vector over mode 2.
        v: Vec<f64>,
    },
    /// `G_il = Σ_jk χ_ijk · χ_ljk` — a CSF 3-tensor contracted with itself
    /// over two ranks (paper §6.1.3, Figure 9).
    Gram,
}

impl Stage {
    /// Stable stage label used in [`StagePhases`] and traffic rows.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::Spmspm { .. } => "spmspm",
            Stage::Sddmm { .. } => "sddmm",
            Stage::Spmm { .. } => "spmm",
            Stage::Mttkrp { .. } => "mttkrp",
            Stage::Ttv { .. } => "ttv",
            Stage::Gram => "gram",
        }
    }

    /// Traffic name of the intermediate this stage hands to stage
    /// `si + 1`.
    fn intermediate_name(&self, si: usize) -> String {
        match self {
            Stage::Sddmm { .. } => "S".into(),
            _ => format!("T{}", si + 1),
        }
    }
}

/// A staged pipeline: 1..N [`Stage`]s over one sparse input, sharing one
/// co-tiling discipline (the session spec's), with inter-stage
/// intermediates tile-resident when `fused`.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    /// Pipeline label, appended to the variant name in reports
    /// (`"ExTensor-OP-DRT+mttkrp"`).
    pub name: String,
    /// The stages, in execution order.
    pub stages: Vec<Stage>,
    /// Keep inter-stage intermediates on chip (`true`, default) or round
    /// them through DRAM between stages (`false`, the unfused baseline).
    pub fused: bool,
    /// Micro-tile shape for 3-D (CSF) kernels; 2-D stages use the spec's
    /// own micro shape.
    pub micro3: [u32; 3],
}

impl PipelineSpec {
    fn new(name: &str, stages: Vec<Stage>) -> PipelineSpec {
        PipelineSpec { name: name.into(), stages, fused: true, micro3: [8, 8, 8] }
    }

    /// Single-stage SpMSpM — the degenerate pipeline, bit-identical to
    /// [`crate::session::Session::run_spmspm`].
    pub fn spmspm(b: CsMatrix) -> PipelineSpec {
        PipelineSpec::new("spmspm", vec![Stage::Spmspm { b }])
    }

    /// The `Z = (A · B) · C` chain, intermediate `A · B` tile-resident.
    pub fn abc(b: CsMatrix, c: CsMatrix) -> PipelineSpec {
        PipelineSpec::new("abc", vec![Stage::Spmspm { b }, Stage::Spmspm { b: c }])
    }

    /// The fused SDDMM→SpMM "GNN attention layer":
    /// `Z = (spy(A) ⊙ (U · Vᵀ)) · H`.
    pub fn sddmm_spmm(u: DenseMatrix, v: DenseMatrix, h: DenseMatrix) -> PipelineSpec {
        PipelineSpec::new("sddmm-spmm", vec![Stage::Sddmm { u, v }, Stage::Spmm { h }])
    }

    /// MTTKRP over a CSF 3-tensor with dense factors `B` (J × R) and
    /// `C` (K × R).
    pub fn mttkrp(b: DenseMatrix, c: DenseMatrix) -> PipelineSpec {
        PipelineSpec::new("mttkrp", vec![Stage::Mttkrp { b, c }])
    }

    /// Tensor-times-vector over a CSF 3-tensor's last mode.
    pub fn ttv(v: Vec<f64>) -> PipelineSpec {
        PipelineSpec::new("ttv", vec![Stage::Ttv { v }])
    }

    /// The Gram contraction `G_il = χ_ijk · χ_ljk` over a CSF 3-tensor
    /// (Figure 9): the DRT stage loop on DRT specs, the best swept S-U-C
    /// shape on static-tiling specs, the TACO-like model on `cpu-mkl`.
    pub fn gram() -> PipelineSpec {
        PipelineSpec::new("gram", vec![Stage::Gram])
    }

    /// The unfused baseline of this pipeline: identical stages, but every
    /// inter-stage intermediate rounds through DRAM (written back by its
    /// producer, re-loaded tile-by-tile by its consumer).
    #[must_use]
    pub fn unfused(mut self) -> PipelineSpec {
        self.fused = false;
        self.name.push_str("-unfused");
        self
    }

    /// Override the 3-D micro-tile shape used by tensor (CSF) stages.
    #[must_use]
    pub fn with_micro3(mut self, micro3: [u32; 3]) -> PipelineSpec {
        self.micro3 = micro3;
        self
    }
}

fn bad(detail: String) -> DrtError {
    DrtError::Core(CoreError::BadConfig { detail })
}

/// Run a pipeline on `input` under `spec`'s tiling discipline.
///
/// Single-stage SpMSpM delegates to [`AccelSpec::run_ft`] (all registered
/// variants, reports bit-identical to `Session::run_spmspm`). Gram on a
/// static-tiling engine spec or `cpu-mkl` runs its closed-form model.
/// Every other pipeline requires an engine-backed spec and runs through
/// the stage loop described in the module docs. The body of
/// `Session::run_ref` for spec-backed pipeline workloads.
///
/// # Errors
///
/// [`DrtError::Core`] with `BadConfig` for unsupported input/stage
/// combinations or analytic (non-engine) specs; tiling configuration
/// errors propagate from `drt-core`.
pub(crate) fn run_pipeline(
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    if pipe.stages.is_empty() {
        return Err(bad("pipeline has no stages".into()));
    }
    check_shape(input, &pipe.stages)?;
    match (input, pipe.stages.as_slice(), &spec.kind) {
        // Degenerate single-stage SpMSpM: the existing engine path,
        // verbatim — works for all registered variants and keeps reports
        // and traces bit-identical to `Session::run_spmspm`.
        (PipelineInput::Matrix(a), [Stage::Spmspm { b }], _) => {
            spec.run_ft(a, b, ctx).map(RunOutcome::into_report)
        }
        (PipelineInput::Tensor(x), [Stage::Gram], SpecKind::CpuRoofline) => {
            let name = format!("TACO+{}", pipe.name);
            Ok(entry_stop(&name, ctx).unwrap_or_else(|| {
                crate::taco::gram(&name, x, &ctx.cpu, &spec.size_model, &ctx.probe)
            }))
        }
        (PipelineInput::Tensor(x), [Stage::Gram], SpecKind::Engine(es))
            if !matches!(es.tiling, TilingSpec::Drt) =>
        {
            let (_, hier) = engine_parts(spec, ctx, pipe)?;
            let name = format!("{}+{}", es.display, pipe.name);
            if let Some(r) = entry_stop(&name, ctx) {
                return Ok(r);
            }
            let r = crate::gram::best_suc(&name, x, &hier, pipe.micro3, &spec.size_model)
                .map_err(DrtError::Core)?;
            emit_phases(&ctx.probe, &r.phases);
            Ok(r)
        }
        _ => run_stages(input, pipe, spec, ctx),
    }
}

/// Reject stage lists outside the modeled compositions: SpMSpM chains and
/// SDDMM→SpMM over a matrix, one tensor stage over a 3-D CSF tensor.
fn check_shape(input: PipelineInput<'_>, stages: &[Stage]) -> Result<(), DrtError> {
    let ok = match (input, stages) {
        (PipelineInput::Matrix(_), [Stage::Sddmm { .. }, Stage::Spmm { .. }]) => true,
        (PipelineInput::Matrix(_), s) => s.iter().all(|s| matches!(s, Stage::Spmspm { .. })),
        (PipelineInput::Tensor(x), [Stage::Mttkrp { .. } | Stage::Ttv { .. } | Stage::Gram]) => {
            x.ndim() == 3
        }
        _ => false,
    };
    if ok {
        return Ok(());
    }
    Err(bad(format!(
        "unsupported pipeline shape: {} input through stages [{}]",
        match input {
            PipelineInput::Matrix(_) => "matrix".to_string(),
            PipelineInput::Tensor(x) => format!("{}-D tensor", x.ndim()),
        },
        stages.iter().map(Stage::label).collect::<Vec<_>>().join(", ")
    )))
}

/// The engine spec a stage-loop pipeline resolves against, plus the
/// hierarchy it runs on.
fn engine_parts<'s>(
    spec: &'s AccelSpec,
    ctx: &RunCtx,
    pipe: &PipelineSpec,
) -> Result<(&'s EngineSpec, HierarchySpec), DrtError> {
    match &spec.kind {
        SpecKind::Engine(es) => {
            let hier = if es.hier_from_cpu { llc_hierarchy(&ctx.cpu) } else { ctx.hier };
            Ok((es, hier))
        }
        _ => Err(bad(format!(
            "pipeline `{}` needs an engine-backed spec; `{}` is an analytic model",
            pipe.name, spec.name
        ))),
    }
}

/// Task-generation options for one stage stream: the spec's DRT
/// discipline, or (for any static scheme) the capacity-derived fallback
/// S-U-C shape for this stage's kernel — per-stage kernels have their own
/// rank sets, so pre-swept 2-rank SpMSpM shapes don't transfer.
fn stage_opts(
    kernel: &Kernel,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
) -> TaskGenOptions {
    match &es.tiling {
        TilingSpec::Drt => TaskGenOptions::drt(order, cfg.clone()),
        _ => {
            let coords = fallback_suc_coord_sizes(kernel, cfg);
            TaskGenOptions::suc(order, cfg.clone(), &coords)
        }
    }
}

/// Configuration-time micro-shape adjustment for a pipeline stage
/// (§5.2.4, mirroring the engine's adapt-micro): starting from `start`,
/// halve the square micro shape until the stage's kernel and task stream
/// build (the constructors enforce the worst-case-dense capacity rule),
/// and return the kernel that fits. The probe builds stay unarmed so the
/// shape search never consumes budget.
fn feasible_kernel(
    make_kernel: impl Fn(u32) -> Result<Kernel, CoreError>,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
    start: u32,
) -> Result<Kernel, CoreError> {
    let mut m = start.max(2);
    loop {
        let attempt = make_kernel(m).and_then(|k| {
            TaskStream::build(&k, stage_opts(&k, es, cfg, order))?;
            Ok(k)
        });
        match attempt {
            // Halve on either capacity failure: `TileTooLarge` is the
            // DRT preflight's densest-actual-tile rule,
            // `ShapeOverflowsBuffer` is the S-U-C worst-case-dense rule
            // (the static fallback shape is one micro tile per rank, so
            // it shrinks with the micro shape too).
            Err(CoreError::TileTooLarge { .. } | CoreError::ShapeOverflowsBuffer { .. })
                if m >= 4 =>
            {
                m /= 2
            }
            other => return other,
        }
    }
}

/// The per-task `(maccs, added output bytes)` of a cache-merged output.
type TaskCount<'a> = Box<dyn Fn(&RankRanges) -> (u64, u64) + 'a>;

/// One stage lowered onto the stage loop.
struct StageModel<'a> {
    kernel: Kernel,
    order: &'static [RankId],
    cfg: DrtConfig,
    /// Traffic name per kernel binding, in binding order.
    names: Vec<String>,
    /// Dense operand windows: `(tensor, rank, bytes per coordinate)`,
    /// loaded whenever the rank's coordinate range changes.
    windows: Vec<(&'static str, RankId, u64)>,
    /// `Some` for outputs merged per task through an [`OutputCache`]
    /// keyed by the kernel's output ranks; `None` for outputs written
    /// back whole once the stage completes.
    merge: Option<TaskCount<'a>>,
}

/// Partitions for a single-CSF-operand kernel stream: the sparse operand
/// gets the lion's share, the output panel the rest.
fn tensor_partitions(llb: u64, output: &str) -> Partitions {
    Partitions::split(llb, &[("X", 0.6), (output, 0.4)])
}

impl Stage {
    /// Lower this stage onto the stage loop: build its kernel over
    /// `operand` (halving the micro shape until it fits) and describe its
    /// traffic. `in_name` is the traffic name of the sparse operand.
    fn model<'a>(
        &'a self,
        operand: PipelineInput<'a>,
        in_name: &str,
        si: usize,
        pipe: &PipelineSpec,
        es: &EngineSpec,
        base: &crate::engine::EngineConfig,
    ) -> Result<StageModel<'a>, CoreError> {
        let sm = base.drt.size_model;
        let vb = sm.value_bytes as u64;
        let llb = base.hier.llb.capacity_bytes;
        let derived = |parts: Partitions| {
            DrtConfig::new(parts).with_growth(base.drt.growth).with_size_model(sm)
        };
        let m2 = base.micro.0.max(base.micro.1);
        let fmt = base.micro_format;
        let m3 = pipe.micro3.iter().copied().max().unwrap_or(8);
        let micro3 = |m: u32| pipe.micro3.map(|d| d.min(m));
        let model = |kernel, order, cfg, windows, merge| StageModel {
            kernel,
            order,
            cfg,
            names: vec![in_name.to_string()],
            windows,
            merge,
        };
        match (self, operand) {
            (Stage::Spmspm { b }, PipelineInput::Matrix(t)) => {
                // Output-row-outer dataflow: the i panel of every stage is
                // live at once, which is what makes intermediates fusable.
                let order = &['i', 'k', 'j'];
                let cfg = base.drt.clone();
                let k = feasible_kernel(
                    |m| Kernel::spmspm_fmt(t, b, (m, m), fmt),
                    es,
                    &cfg,
                    order,
                    m2,
                )?;
                let mut m = model(k, order, cfg, Vec::new(), None);
                // Each chain stage's right operand is the next letter.
                m.names.push(char::from(b'B' + si as u8).to_string());
                Ok(m)
            }
            (Stage::Sddmm { u, v }, PipelineInput::Matrix(t)) => {
                let order = &['i', 'j'];
                let cfg = base.drt.clone();
                let k =
                    feasible_kernel(|m| Kernel::sddmm_fmt(t, (m, m), fmt), es, &cfg, order, m2)?;
                let rank = u.ncols() as u64;
                debug_assert_eq!(rank, v.ncols() as u64);
                Ok(model(k, order, cfg, vec![("U", 'i', vb * rank), ("V", 'j', vb * rank)], None))
            }
            (Stage::Spmm { h }, PipelineInput::Matrix(t)) => {
                let order = &['i', 'j'];
                let cfg = derived(Partitions::split(llb, &[("S", 0.5), ("Z", 0.5)]));
                let kernel = |m: u32| {
                    let grid = MicroGrid::from_matrix_fmt(t, (m, m), fmt)?;
                    let s = TensorBinding { name: "S".into(), ranks: vec!['i', 'j'], grid };
                    Kernel::new(vec![s], "Z", vec!['i'])
                };
                let k = feasible_kernel(kernel, es, &cfg, order, m2)?;
                Ok(model(k, order, cfg, vec![("H", 'j', vb * h.ncols() as u64)], None))
            }
            (Stage::Mttkrp { b, .. }, PipelineInput::Tensor(x)) => {
                let order = &['i', 'j', 'k'];
                let cfg = derived(tensor_partitions(llb, "M"));
                let k = feasible_kernel(|m| Kernel::mttkrp(x, &micro3(m)), es, &cfg, order, m3)?;
                let rank = b.ncols() as u64;
                let count = move |cr: &RankRanges| {
                    let ir = cr[&'i'].clone();
                    let nnz =
                        x.nnz_in_box(&[ir.clone(), cr[&'j'].clone(), cr[&'k'].clone()]) as u64;
                    // The task's M panel rows: at most one per non-zero,
                    // at most the i-range.
                    (2 * rank * nnz, vb * rank * nnz.min(ir.len() as u64))
                };
                let windows = vec![("B", 'j', vb * rank), ("C", 'k', vb * rank)];
                Ok(model(k, order, cfg, windows, Some(Box::new(count))))
            }
            (Stage::Ttv { .. }, PipelineInput::Tensor(x)) => {
                let order = &['i', 'j', 'k'];
                let cfg = derived(tensor_partitions(llb, "Y"));
                let k = feasible_kernel(|m| Kernel::ttv(x, &micro3(m)), es, &cfg, order, m3)?;
                let count = move |cr: &RankRanges| {
                    let (ir, jr) = (cr[&'i'].clone(), cr[&'j'].clone());
                    let cells = ir.len() as u64 * jr.len() as u64;
                    let nnz = x.nnz_in_box(&[ir, jr, cr[&'k'].clone()]) as u64;
                    (nnz, sm.coo_bytes(nnz.min(cells) as usize, 2) as u64)
                };
                Ok(model(k, order, cfg, vec![("v", 'k', vb)], Some(Box::new(count))))
            }
            (Stage::Gram, PipelineInput::Tensor(x)) => {
                // The first operand's i slab stays stationary while l
                // sweeps; the contracted (j, k) ranges are co-tiled
                // between the two views of the tensor.
                let order = &['i', 'l', 'j', 'k'];
                let cfg = derived(PartitionPreset::Gram3.partitions(llb));
                let k = feasible_kernel(|m| Kernel::gram(x, &micro3(m)), es, &cfg, order, m3)?;
                let counter = crate::gram::GramCounter::new(x);
                let count = move |cr: &RankRanges| {
                    let (maccs, out_pairs) = counter.count(cr);
                    (maccs, sm.coo_bytes(out_pairs as usize, 2) as u64)
                };
                let mut m = model(k, order, cfg, Vec::new(), Some(Box::new(count)));
                m.names.push("Y".into());
                Ok(m)
            }
            _ => unreachable!("check_shape matched operands to stages"),
        }
    }

    /// The stage's functional output on `operand` and its reference MACC
    /// count.
    fn product(&self, operand: PipelineInput<'_>) -> (CsMatrix, u64) {
        match (self, operand) {
            (Stage::Spmspm { b }, PipelineInput::Matrix(t)) => {
                let p = drt_kernels::spmspm::gustavson(t, b);
                (p.z, p.maccs)
            }
            (Stage::Sddmm { u, v }, PipelineInput::Matrix(t)) => {
                (drt_kernels::spmm::sddmm(t, u, v), (u.ncols() as u64 + 1) * t.nnz() as u64)
            }
            (Stage::Spmm { h }, PipelineInput::Matrix(t)) => {
                let z = drt_kernels::spmm::spmm(t, h).to_sparse(MajorAxis::Row);
                (z, h.ncols() as u64 * t.nnz() as u64)
            }
            (Stage::Mttkrp { b, c }, PipelineInput::Tensor(x)) => {
                let r = drt_kernels::mttkrp::mttkrp(x, b, c);
                (r.m.to_sparse(MajorAxis::Row), r.maccs)
            }
            (Stage::Ttv { v }, PipelineInput::Tensor(x)) => {
                (drt_kernels::ttv::ttv(x, v), x.nnz() as u64)
            }
            (Stage::Gram, PipelineInput::Tensor(x)) => {
                let r = drt_kernels::gram::gram(x);
                (r.g, r.maccs)
            }
            _ => unreachable!("check_shape matched operands to stages"),
        }
    }

    /// Bytes of a whole writeback of this stage's output `out`: dense for
    /// SpMM, compressed otherwise.
    fn writeback_bytes(&self, out: &CsMatrix, sm: &SizeModel) -> u64 {
        match self {
            Stage::Spmm { h } => sm.value_bytes as u64 * h.ncols() as u64 * out.nrows() as u64,
            _ => sm.cs_matrix_bytes(out) as u64,
        }
    }
}

/// The concatenated coordinate ranges of `ranks` — the key of a tile or
/// window in the load ledger, and of an output tile in the cache.
fn range_key<const N: usize>(ranks: &[RankId], cr: &RankRanges) -> [u32; N] {
    debug_assert!(2 * ranks.len() <= N, "key holds {} ranks", N / 2);
    let mut key = [0u32; N];
    for (slot, r) in key.chunks_exact_mut(2).zip(ranks) {
        let range = &cr[r];
        slot[0] = range.start;
        slot[1] = range.end;
    }
    key
}

/// Charge a load once per distinct coordinate-range visit: one slot per
/// kernel binding, then one per dense window (the stationarity idiom
/// shared with the engine).
struct LoadLedger {
    last: Vec<Option<[u32; 8]>>,
}

impl LoadLedger {
    /// `true` when `key` differs from the slot's last visit (i.e. the
    /// bytes must be charged).
    fn changed(&mut self, slot: usize, key: [u32; 8]) -> bool {
        let changed = self.last[slot] != Some(key);
        self.last[slot] = Some(key);
        changed
    }
}

fn emit_phases(probe: &Probe, phases: &PhaseBreakdown) {
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }
}

/// The degraded report for a pipeline whose token was already expired at
/// entry (the engine's all-zero report), or `None` to run.
fn entry_stop(name: &str, ctx: &RunCtx) -> Option<RunReport> {
    let kind = ctx.cancel.expiry_kind()?;
    let reason = crate::engine::expiry_reason(kind);
    let outcome =
        crate::engine::degraded_entry(name, reason, "expired before any work ran", &ctx.probe);
    Some(outcome.into_report())
}

/// The degradation record for a pipeline stopped at a task boundary by
/// an expired token (the pipeline analogue of the engine's clean stop).
fn expiry_degradation(kind: ExpiryKind, completed: u64) -> Degradation {
    Degradation {
        reason: crate::engine::expiry_reason(kind),
        completed_tasks: completed,
        detail: if completed == 0 {
            "expired before any work ran".into()
        } else {
            format!("pipeline stopped at a task boundary after {completed} committed task(s)")
        },
    }
}

/// The stage loop: run every stage's task stream in order, charging loads
/// through the ledger, merging cache-merged outputs per task, and writing
/// whole outputs back unless they stay resident for the next stage.
fn run_stages(
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier) = engine_parts(spec, ctx, pipe)?;
    let base = spec.engine_config(es, &hier);
    let name = format!("{}+{}", base.name, pipe.name);
    if let Some(report) = entry_stop(&name, ctx) {
        return Ok(report);
    }
    let sm = base.drt.size_model;
    let mut report = RunReport::empty(&name);
    let mut inter: Option<CsMatrix> = None;
    let mut in_name = match input {
        PipelineInput::Matrix(_) => "A".to_string(),
        PipelineInput::Tensor(_) => "X".to_string(),
    };
    for (si, stage) in pipe.stages.iter().enumerate() {
        let operand = inter.as_ref().map_or(input, PipelineInput::Matrix);
        let last = si + 1 == pipe.stages.len();
        let label = if pipe.stages.iter().filter(|s| s.label() == stage.label()).count() > 1 {
            format!("{}#{si}", stage.label())
        } else {
            stage.label().to_string()
        };
        let model = stage.model(operand, &in_name, si, pipe, es, &base).map_err(DrtError::Core)?;
        let opts = stage_opts(&model.kernel, es, &model.cfg, model.order)
            .with_budget(ctx.budget.clone())
            .with_cancel(ctx.cancel.clone());
        let mut stream = TaskStream::build(&model.kernel, opts).map_err(DrtError::Core)?;
        let bindings = model.kernel.inputs();
        let out_name = model.kernel.output_name();
        let out_ranks = model.kernel.output_ranks();
        // A fused consumer's sparse operand was produced on chip.
        let resident_input = pipe.fused && si > 0;
        let mut ledger = LoadLedger { last: vec![None; bindings.len() + model.windows.len()] };
        let mut cache =
            model.merge.as_ref().map(|_| OutputCache::new(model.cfg.partitions.get(out_name)));
        let mut ph = PhaseBreakdown::default();
        let mut stage_maccs = 0u64;
        for task in &mut stream {
            let cr = &task.plan.coord_ranges;
            for (bi, (tile, binding)) in task.plan.tiles.iter().zip(bindings).enumerate() {
                if bi == 0 && resident_input {
                    continue;
                }
                if ledger.changed(bi, range_key(&binding.ranks, cr)) {
                    report.traffic.read(&model.names[bi], tile.footprint());
                    ph.load.bytes += tile.footprint();
                }
            }
            for (wi, &(tensor, rank, per_coord)) in model.windows.iter().enumerate() {
                if ledger.changed(bindings.len() + wi, range_key(&[rank], cr)) {
                    let bytes = per_coord * cr[&rank].len() as u64;
                    report.traffic.read(tensor, bytes);
                    ph.load.bytes += bytes;
                }
            }
            if let (Some(count), Some(cache)) = (&model.merge, &mut cache) {
                let (maccs, added) = count(cr);
                stage_maccs += maccs;
                let charge = cache.access(&range_key(out_ranks, cr), added);
                report.traffic.write(out_name, charge.spill_writes);
                report.traffic.read(out_name, charge.refill_reads);
                ph.merge.bytes += charge.spill_writes + charge.refill_reads;
            }
        }
        report.tasks += stream.emitted();
        report.skipped_tasks += stream.skipped_empty();
        if let Some(cause) = stream.degraded() {
            report
                .degradation
                .get_or_insert_with(|| crate::engine::budget_degradation(cause, report.tasks));
        }
        // A cache-merged output is flushed even on a stop (the engine's
        // rule); a whole writeback is charged only once the stage
        // completes.
        if let Some(cache) = &mut cache {
            let fin = cache.finish();
            report.traffic.read(out_name, fin.merge_reads);
            report.traffic.write(out_name, fin.final_writes);
            ph.writeback.bytes += fin.merge_reads + fin.final_writes;
        }
        report.maccs += stage_maccs;
        if let Some(kind) = stream.aborted() {
            emit_phases(&ctx.probe, &ph);
            report.stages.push(StagePhases { stage: label, phases: ph });
            report.degradation = Some(expiry_degradation(kind, report.tasks));
            ctx.probe.emit(|| Event::Aborted {
                reason: crate::engine::expiry_reason(kind).tag(),
                completed_tasks: report.tasks,
            });
            return Ok(finish(report, None, &hier));
        }
        drop(stream);
        drop(model);
        let (out, ref_maccs) = stage.product(operand);
        if cache.is_some() {
            debug_assert_eq!(stage_maccs, ref_maccs, "task MACCs must sum to the kernel total");
        } else {
            report.maccs += ref_maccs;
            if last || !pipe.fused {
                let tensor = if last { "Z".to_string() } else { stage.intermediate_name(si) };
                let bytes = stage.writeback_bytes(&out, &sm);
                report.traffic.write(&tensor, bytes);
                ph.writeback.bytes += bytes;
            }
        }
        emit_phases(&ctx.probe, &ph);
        report.stages.push(StagePhases { stage: label, phases: ph });
        in_name = stage.intermediate_name(si);
        inter = Some(out);
    }
    Ok(finish(report, inter, &hier))
}

/// Close a stage-loop report: phase totals from the stages, DRAM-bound
/// runtime, action counts, and the functional output (if any).
fn finish(mut report: RunReport, output: Option<CsMatrix>, hier: &HierarchySpec) -> RunReport {
    for s in &report.stages {
        report.phases.add(&s.phases);
    }
    report.seconds = hier.dram.seconds_for(report.traffic.total());
    report.actions = ActionCounts {
        dram_bytes: report.traffic.total(),
        maccs: report.maccs,
        ..Default::default()
    };
    report.output = output;
    report
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::workload::WorkloadRef;
    use drt_workloads::patterns::unstructured;
    use drt_workloads::tensor3::{dense_factor, skewed_tensor};

    fn run(
        session: &Session,
        input: PipelineInput<'_>,
        pipe: &PipelineSpec,
    ) -> Result<RunReport, DrtError> {
        session.run_ref(WorkloadRef::Pipeline { input, pipe }).map(RunOutcome::into_report)
    }

    fn small_hier() -> HierarchySpec {
        HierarchySpec::default().scaled_down(256)
    }

    #[test]
    fn one_stage_pipeline_is_bit_identical_to_run_spmspm() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        for threads in [1usize, 4] {
            let session = Session::new(AccelSpec::extensor_op_drt())
                .hierarchy(&small_hier())
                .threads(threads);
            let direct = session.run_spmspm(&a, &a).expect("direct");
            let piped = run(&session, PipelineInput::Matrix(&a), &PipelineSpec::spmspm(a.clone()))
                .expect("piped");
            assert!(direct.bit_diff(&piped).is_none(), "{:?}", direct.bit_diff(&piped));
            assert!(piped.stages.is_empty(), "degenerate pipeline keeps stages empty");
        }
    }

    #[test]
    fn abc_chain_fused_beats_unfused_and_matches_reference() {
        let a = unstructured(64, 64, 600, 2.0, 2);
        let b = unstructured(64, 64, 600, 2.0, 3);
        let c = unstructured(64, 64, 600, 2.0, 4);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let pipe = PipelineSpec::abc(b.clone(), c.clone());
        let fused = run(&session, PipelineInput::Matrix(&a), &pipe).expect("fused");
        let unfused = run(&session, PipelineInput::Matrix(&a), &pipe.unfused()).expect("unfused");
        let t = drt_kernels::spmspm::gustavson(&a, &b).z;
        assert!(t.nnz() > 0, "intermediate must be non-empty for this test");
        assert!(
            fused.traffic.total() < unfused.traffic.total(),
            "fused {} must beat unfused {}",
            fused.traffic.total(),
            unfused.traffic.total()
        );
        let want = drt_kernels::spmspm::gustavson(&t, &c).z;
        assert!(fused.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert_eq!(fused.stages.len(), 2);
        assert!(fused.stage_partition_violation().is_none());
        assert!(fused.phase_partition_violation().is_none());
    }

    #[test]
    fn sddmm_spmm_fused_beats_unfused_and_matches_reference() {
        let a = unstructured(48, 40, 300, 2.0, 5);
        let u = dense_factor(48, 6, 6);
        let v = dense_factor(40, 6, 7);
        let h = dense_factor(40, 5, 8);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let pipe = PipelineSpec::sddmm_spmm(u.clone(), v.clone(), h.clone());
        let fused = run(&session, PipelineInput::Matrix(&a), &pipe).expect("fused");
        let unfused =
            run(&session, PipelineInput::Matrix(&a), &pipe.clone().unfused()).expect("unfused");
        assert!(fused.traffic.total() < unfused.traffic.total());
        let want = drt_kernels::sddmm::fused_sddmm_spmm(&a, &u, &v, &h).z.to_sparse(MajorAxis::Row);
        assert!(fused.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert!(fused.stage_partition_violation().is_none());
        assert!(fused.phase_partition_violation().is_none());
    }

    #[test]
    fn mttkrp_maccs_and_output_match_reference() {
        let x = skewed_tensor(32, 24, 28, 900, 9);
        let b = dense_factor(24, 4, 10);
        let c = dense_factor(28, 4, 11);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let r =
            run(&session, PipelineInput::Tensor(&x), &PipelineSpec::mttkrp(b.clone(), c.clone()))
                .expect("mttkrp");
        assert_eq!(r.maccs, drt_kernels::mttkrp::mttkrp_maccs(&x, 4));
        let want = drt_kernels::mttkrp::mttkrp(&x, &b, &c).m.to_sparse(MajorAxis::Row);
        assert!(r.output.as_ref().expect("out").approx_eq(&want, 1e-9));
        assert!(r.stage_partition_violation().is_none());
        assert!(r.phase_partition_violation().is_none());
    }

    #[test]
    fn ttv_runs_on_suc_and_drt_variants() {
        let x = skewed_tensor(24, 24, 24, 600, 12);
        let v: Vec<f64> = (0..24).map(|k| 1.0 + k as f64 * 0.125).collect();
        let want = drt_kernels::ttv::ttv(&x, &v);
        for spec in [AccelSpec::extensor_op_drt(), AccelSpec::extensor_op()] {
            let session = Session::new(spec).hierarchy(&small_hier());
            let r = run(&session, PipelineInput::Tensor(&x), &PipelineSpec::ttv(v.clone()))
                .expect("ttv");
            assert_eq!(r.maccs, x.nnz() as u64);
            assert!(r.output.as_ref().expect("out").approx_eq(&want, 1e-9));
            assert!(r.phase_partition_violation().is_none());
        }
    }

    #[test]
    fn gram_dispatches_by_spec_kind() {
        let x = skewed_tensor(16, 16, 16, 400, 14);
        let want = drt_kernels::gram::gram(&x).g;
        let pipe = PipelineSpec::gram().with_micro3([4, 4, 4]);
        for (spec, name) in [
            (AccelSpec::extensor_op_drt(), "ExTensor-OP-DRT+gram"),
            (AccelSpec::extensor_op(), "ExTensor-OP+gram"),
            (AccelSpec::cpu_mkl(), "TACO+gram"),
        ] {
            let session = Session::new(spec).hierarchy(&small_hier());
            let r = run(&session, PipelineInput::Tensor(&x), &pipe).expect("gram");
            assert_eq!(r.name, name);
            assert_eq!(r.maccs, drt_kernels::gram::gram_maccs(&x), "{name}");
            assert!(r.output.as_ref().expect("out").approx_eq(&want, 1e-9), "{name}");
            assert_eq!(r.stages.len(), 1, "{name}");
            assert!(r.stage_partition_violation().is_none(), "{name}");
            assert!(r.phase_partition_violation().is_none(), "{name}");
        }
    }

    #[test]
    fn unsupported_shapes_are_typed_errors() {
        let a = unstructured(16, 16, 40, 2.0, 15);
        let x = skewed_tensor(8, 8, 8, 40, 16);
        let session = Session::new(AccelSpec::extensor_op_drt());
        let ttv_then_spmspm = PipelineSpec::new(
            "bad",
            vec![Stage::Ttv { v: vec![1.0; 8] }, Stage::Spmspm { b: a.clone() }],
        );
        for (input, pipe) in [
            (PipelineInput::Matrix(&a), PipelineSpec::gram()),
            (PipelineInput::Tensor(&x), PipelineSpec::abc(a.clone(), a.clone())),
            (PipelineInput::Tensor(&x), ttv_then_spmspm),
        ] {
            let err = run(&session, input, &pipe).expect_err("must reject");
            assert!(err.to_string().contains("unsupported pipeline shape"), "{err}");
        }
    }

    /// Records event kinds; cancels `stop` at the first `phase` record.
    struct Recorder {
        kinds: std::sync::Mutex<Vec<&'static str>>,
        stop: Option<drt_core::cancel::CancelToken>,
    }

    impl drt_core::probe::EventSink for Recorder {
        fn record(&self, event: &Event<'_>) {
            if let (Event::Phase { .. }, Some(stop)) = (event, &self.stop) {
                stop.cancel();
            }
            self.kinds.lock().expect("kinds").push(event.kind());
        }
    }

    fn recorded(
        session: Session,
        input: PipelineInput<'_>,
        pipe: &PipelineSpec,
        cancel_at_first_phase: bool,
    ) -> (RunReport, Vec<&'static str>) {
        let stop = cancel_at_first_phase.then(|| session.cancel_token());
        let sink = std::sync::Arc::new(Recorder { kinds: Default::default(), stop });
        let probe = Probe::new(sink.clone());
        let report = run(&session.probe(probe), input, pipe).expect("probed");
        let kinds = sink.kinds.lock().expect("kinds").clone();
        (report, kinds)
    }

    #[test]
    fn probed_stage_loop_is_bit_identical_and_emits_phase_records() {
        let a = unstructured(64, 64, 600, 2.0, 2);
        let b = unstructured(64, 64, 600, 2.0, 3);
        let x = skewed_tensor(32, 24, 28, 900, 9);
        let cases = [
            (PipelineInput::Matrix(&a), PipelineSpec::abc(b.clone(), b.clone())),
            (PipelineInput::Tensor(&x), PipelineSpec::ttv(vec![0.5; 28])),
            (PipelineInput::Tensor(&x), PipelineSpec::gram()),
        ];
        for spec in [AccelSpec::extensor_op_drt(), AccelSpec::extensor_op(), AccelSpec::cpu_mkl()] {
            for (input, pipe) in &cases {
                if spec.name == "cpu-mkl" && pipe.name != "gram" {
                    continue; // the CPU model runs Gram only
                }
                let session = Session::new(spec.clone()).hierarchy(&small_hier());
                let plain = run(&session, *input, pipe).expect("plain");
                let (probed, kinds) = recorded(session, *input, pipe, false);
                assert!(plain.bit_diff(&probed).is_none(), "{:?}", plain.bit_diff(&probed));
                let phases = kinds.iter().filter(|k| **k == "phase").count();
                assert_eq!(phases, 5 * probed.stages.len(), "{} {}", spec.name, pipe.name);
                assert!(!kinds.contains(&"aborted"));
            }
        }
    }

    #[test]
    fn stop_between_stages_drops_output_and_skips_later_writeback() {
        let a = unstructured(64, 64, 600, 2.0, 2);
        let b = unstructured(64, 64, 600, 2.0, 3);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&small_hier());
        let pipe = PipelineSpec::abc(b.clone(), b.clone()).unfused();
        let full = run(&session, PipelineInput::Matrix(&a), &pipe).expect("full");
        let (stopped, kinds) = recorded(session, PipelineInput::Matrix(&a), &pipe, true);
        // Stage 0 ran whole (loads plus the unfused T1 writeback); stage 1
        // stopped at its first task boundary.
        let first = &full.stages[0].phases;
        assert_eq!(stopped.stages.len(), 2);
        assert_eq!(stopped.stages[0].phases, *first);
        assert_eq!(stopped.stages[1].phases, PhaseBreakdown::default());
        assert_eq!(stopped.traffic.total(), first.total_bytes());
        assert_eq!(stopped.traffic.writes_of("T1"), full.traffic.writes_of("T1"));
        assert_eq!(stopped.traffic.writes_of("Z"), 0);
        assert_eq!(stopped.maccs, drt_kernels::spmspm::gustavson(&a, &b).maccs);
        assert!(stopped.output.is_none());
        let d = stopped.degradation.as_ref().expect("degraded");
        assert_eq!(d.reason, crate::report::DegradeReason::Cancelled);
        assert_eq!(d.completed_tasks, stopped.tasks);
        assert_eq!(kinds.last(), Some(&"aborted"));
        assert_eq!(kinds.iter().filter(|k| **k == "phase").count(), 10);
    }

    #[test]
    fn analytic_spec_rejects_multi_stage_pipelines() {
        let x = skewed_tensor(8, 8, 8, 40, 13);
        let b = dense_factor(8, 2, 1);
        let c = dense_factor(8, 2, 2);
        let session = Session::new(AccelSpec::outerspace());
        for pipe in [PipelineSpec::mttkrp(b, c), PipelineSpec::gram()] {
            let err =
                run(&session, PipelineInput::Tensor(&x), &pipe).expect_err("analytic must reject");
            assert!(err.to_string().contains("engine-backed"), "{err}");
        }
    }
}

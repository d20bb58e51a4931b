//! Multi-stage fused pipelines over one DRT co-tiling (the §7 outlook:
//! "DRT is not specific to SpMSpM"): MTTKRP over CSF, the fused
//! SDDMM→SpMM "GNN attention layer", and A·B·C chains, all runnable
//! through [`crate::session::Session::run_ref`] as a
//! [`crate::workload::WorkloadRef::Pipeline`].
//!
//! A [`PipelineSpec`] is a list of 1..N [`Stage`]s applied to one sparse
//! input. Single-stage SpMSpM is the degenerate case and delegates
//! verbatim to the engine ([`crate::spec::AccelSpec::run_ft`]), so its
//! reports and traces stay bit-identical to `Session::run_spmspm` for
//! every registered variant. Multi-stage and tensor pipelines run through
//! gram-style modeled streams (one task stream per stage, sharing the
//! spec's tiling discipline) and additionally fill
//! [`crate::report::RunReport::stages`] with one [`StagePhases`] entry
//! per stage; the per-stage breakdowns partition the report's phase totals
//! ([`crate::report::RunReport::stage_partition_violation`]).
//!
//! **Fusion.** When `fused` is set (the default), inter-stage
//! intermediates stay tile-resident: the producing stage charges no
//! writeback for them and the consuming stage charges no loads — exactly
//! the residency discipline of the row-panel reference kernels
//! (`drt_kernels::sddmm::fused_sddmm_spmm`). The `unfused` baseline
//! charges the full round trip (intermediate writeback plus per-tile
//! re-loads), so a fused run's total modeled traffic is strictly lower
//! whenever the intermediate is non-empty.
//!
//! The modeled multi-stage runners are serial and thread-independent:
//! reports are identical for every `Session::threads` setting by
//! construction. Budgets and cancellation/deadlines ride on every stage
//! stream exactly as on the single-stage engine path: an exhausted DRT
//! cap degrades the remaining region to S-U-C fallback tiles (the run
//! completes, the report records why), an expired token stops the run
//! at the next task boundary with a degraded partial report. Chaos
//! injection remains engine-path-only.

use crate::error::DrtError;
use crate::report::{Degradation, PhaseBreakdown, RunOutcome, RunReport, StagePhases};
use crate::spec::{llc_hierarchy, AccelSpec, EngineSpec, RunCtx, SpecKind, TilingSpec};
use drt_core::budget::ExecBudget;
use drt_core::cancel::ExpiryKind;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::kernel::{Kernel, TensorBinding};
use drt_core::micro::MicroGrid;
use drt_core::taskgen::{fallback_suc_coord_sizes, TaskGenOptions, TaskStream};
use drt_core::{CoreError, RankId};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix, MajorAxis};
use std::collections::BTreeMap;

/// The sparse input a pipeline starts from.
#[derive(Debug, Clone, Copy)]
pub enum PipelineInput<'a> {
    /// A 2-D compressed matrix (SpMSpM chains, SDDMM→SpMM).
    Matrix(&'a CsMatrix),
    /// A 3-D CSF tensor (MTTKRP, TTV).
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
/// variants, reports bit-identical to `Session::run_spmspm`). Every other
/// pipeline shape requires an engine-backed spec and runs through the
/// modeled stage streams described in the module docs. The body of
/// `Session::run_ref` for spec-backed pipeline workloads.
///
/// # Errors
///
/// [`DrtError::Core`] with `BadConfig` for unsupported input/stage
/// combinations or analytic (non-engine) specs on multi-stage pipelines;
/// tiling configuration errors propagate from `drt-core`.
pub(crate) fn run_pipeline(
    input: PipelineInput<'_>,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    if pipe.stages.is_empty() {
        return Err(bad("pipeline has no stages".into()));
    }
    match (input, pipe.stages.as_slice()) {
        // Degenerate single-stage SpMSpM: the existing engine path,
        // verbatim — works for all registered variants and keeps reports
        // and traces bit-identical to `Session::run_spmspm`.
        (PipelineInput::Matrix(a), [Stage::Spmspm { b }]) => {
            spec.run_ft(a, b, ctx).map(RunOutcome::into_report)
        }
        (PipelineInput::Matrix(a), stages)
            if stages.iter().all(|s| matches!(s, Stage::Spmspm { .. })) =>
        {
            let bs: Vec<&CsMatrix> = stages
                .iter()
                .map(|s| match s {
                    Stage::Spmspm { b } => b,
                    _ => unreachable!("guard checked"),
                })
                .collect();
            run_chain(a, &bs, pipe, spec, ctx)
        }
        (PipelineInput::Matrix(a), [Stage::Sddmm { u, v }, Stage::Spmm { h }]) => {
            run_sddmm_spmm(a, u, v, h, pipe, spec, ctx)
        }
        (PipelineInput::Tensor(x), [Stage::Mttkrp { b, c }]) => {
            run_mttkrp(x, b, c, pipe, spec, ctx)
        }
        (PipelineInput::Tensor(x), [Stage::Ttv { v }]) => run_ttv(x, v, pipe, spec, ctx),
        (input, stages) => Err(bad(format!(
            "unsupported pipeline shape: {:?} input through stages [{}]",
            match input {
                PipelineInput::Matrix(_) => "matrix",
                PipelineInput::Tensor(_) => "tensor",
            },
            stages.iter().map(Stage::label).collect::<Vec<_>>().join(", ")
        ))),
    }
}

/// The engine spec a multi-stage pipeline resolves against, plus the
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

/// [`stage_opts`] armed with the run context's budget and cancellation —
/// used for the real stage streams (the `feasible_micro` probe builds
/// stay unarmed so the shape search never consumes budget). The
/// resident-bytes cap is an engine-level cap on materialized task lists
/// and does not ride on task generation, mirroring the engine's
/// gen-budget discipline.
fn armed_opts(
    kernel: &Kernel,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
    ctx: &RunCtx,
) -> TaskGenOptions {
    let gen_budget = ExecBudget {
        max_tasks: ctx.budget.max_tasks,
        max_resident_bytes: None,
        max_plan_candidates: ctx.budget.max_plan_candidates,
    };
    stage_opts(kernel, es, cfg, order).with_budget(gen_budget).with_cancel(ctx.cancel.clone())
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

/// The degraded report for a pipeline whose token was already expired at
/// entry: an all-zero report, no work.
fn degraded_pipeline_entry(name: &str, kind: ExpiryKind) -> RunReport {
    let mut report = RunReport::empty(name);
    report.degradation = Some(expiry_degradation(kind, 0));
    report
}

/// Configuration-time micro-shape adjustment for a pipeline stage
/// (§5.2.4, mirroring the engine's adapt-micro): starting from `start`,
/// halve the square micro shape until the stage's kernel and task stream
/// build (the constructors enforce the worst-case-dense capacity rule).
fn feasible_micro(
    make_kernel: impl Fn(u32) -> Result<Kernel, CoreError>,
    es: &EngineSpec,
    cfg: &DrtConfig,
    order: &[RankId],
    start: u32,
) -> Result<u32, CoreError> {
    let mut m = start.max(2);
    loop {
        let attempt = make_kernel(m).and_then(|k| {
            let opts = stage_opts(&k, es, cfg, order);
            TaskStream::build(&k, opts).map(|_| ())
        });
        match attempt {
            Ok(()) => return Ok(m),
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
            Err(e) => return Err(e),
        }
    }
}

/// Charge a tile load once per distinct coordinate-range visit (the
/// stationarity idiom shared with the engine and the Gram runner).
struct LoadLedger {
    last: BTreeMap<String, Vec<u32>>,
}

impl LoadLedger {
    fn new() -> LoadLedger {
        LoadLedger { last: BTreeMap::new() }
    }

    /// `true` when `ranges` differs from the last visit under `key`
    /// (i.e. the bytes must be charged).
    fn changed(&mut self, key: &str, ranges: Vec<u32>) -> bool {
        if self.last.get(key) == Some(&ranges) {
            return false;
        }
        self.last.insert(key.to_string(), ranges);
        true
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_report(
    name: String,
    traffic: TrafficCounter,
    maccs: u64,
    output: Option<CsMatrix>,
    tasks: u64,
    skipped: u64,
    stages: Vec<StagePhases>,
    hier: &HierarchySpec,
) -> RunReport {
    let mut phases = PhaseBreakdown::default();
    for s in &stages {
        phases.add(&s.phases);
    }
    let seconds = hier.dram.seconds_for(traffic.total());
    let actions = ActionCounts { dram_bytes: traffic.total(), maccs, ..Default::default() };
    RunReport {
        name,
        traffic,
        maccs,
        compute_cycles: 0,
        exposed_extract_cycles: 0,
        seconds,
        output,
        tasks,
        skipped_tasks: skipped,
        actions,
        phases,
        stages,
        degradation: None,
    }
}

/// `Z = A · B₀ · B₁ · …` — each stage a row-wise SpMSpM whose sparse left
/// operand is the previous stage's output. Fused: intermediates stay
/// tile-resident (no writeback, no re-loads). Unfused: each intermediate
/// is written back whole and its tiles re-loaded by the next stage.
fn run_chain(
    a: &CsMatrix,
    bs: &[&CsMatrix],
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier) = engine_parts(spec, ctx, pipe)?;
    let base = spec.engine_config(es, &hier);
    let name = format!("{}+{}", base.name, pipe.name);
    if let Some(kind) = ctx.cancel.expiry_kind() {
        return Ok(degraded_pipeline_entry(&name, kind));
    }
    let sm = base.drt.size_model;
    // Output-row-outer dataflow: the i panel of every stage is live at
    // once, which is what makes the intermediates fusable.
    let order: [RankId; 3] = ['i', 'k', 'j'];
    let mut traffic = TrafficCounter::new();
    let mut stages: Vec<StagePhases> = Vec::new();
    let mut degradation: Option<Degradation> = None;
    let mut maccs = 0u64;
    let mut tasks = 0u64;
    let mut skipped = 0u64;
    let mut cur = a.clone();
    for (si, b) in bs.iter().enumerate() {
        let m = feasible_micro(
            |m| Kernel::spmspm_fmt(&cur, b, (m, m), base.micro_format),
            es,
            &base.drt,
            &order,
            base.micro.0.max(base.micro.1),
        )
        .map_err(DrtError::Core)?;
        let kernel =
            Kernel::spmspm_fmt(&cur, b, (m, m), base.micro_format).map_err(DrtError::Core)?;
        let opts = armed_opts(&kernel, es, &base.drt, &order, ctx);
        let mut stream = TaskStream::build(&kernel, opts).map_err(DrtError::Core)?;
        let mut ph = PhaseBreakdown::default();
        let mut ledger = LoadLedger::new();
        let left_name = if si == 0 { "A".to_string() } else { format!("T{si}") };
        let right_name = ((b'B' + si as u8) as char).to_string();
        let left_is_fused_intermediate = pipe.fused && si > 0;
        for task in &mut stream {
            let ir = &task.plan.coord_ranges[&'i'];
            let kr = &task.plan.coord_ranges[&'k'];
            let jr = &task.plan.coord_ranges[&'j'];
            for tile in &task.plan.tiles {
                let (display, ranges) = if tile.name == "A" {
                    (&left_name, vec![ir.start, ir.end, kr.start, kr.end])
                } else {
                    (&right_name, vec![kr.start, kr.end, jr.start, jr.end])
                };
                if tile.name == "A" && left_is_fused_intermediate {
                    continue; // produced on chip by the previous stage
                }
                if ledger.changed(&format!("{si}:{display}"), ranges) {
                    traffic.read(display, tile.footprint());
                    ph.load.bytes += tile.footprint();
                }
            }
        }
        tasks += stream.emitted();
        skipped += stream.skipped_empty();
        if let Some(cause) = stream.degraded() {
            degradation.get_or_insert_with(|| crate::engine::budget_degradation(cause, tasks));
        }
        if let Some(kind) = stream.aborted() {
            // Clean stop at a task boundary: partial traffic for this
            // stage stands, later stages never run, the (incomplete)
            // functional output is dropped — engine abort semantics.
            stages.push(StagePhases { stage: format!("spmspm#{si}"), phases: ph });
            let mut report =
                finish_report(name, traffic, maccs, None, tasks, skipped, stages, &hier);
            report.degradation = Some(expiry_degradation(kind, tasks));
            return Ok(report);
        }
        let product = drt_kernels::spmspm::gustavson(&cur, b);
        maccs += product.maccs;
        let is_last = si + 1 == bs.len();
        if is_last {
            let z_bytes = sm.cs_matrix_bytes(&product.z) as u64;
            traffic.write("Z", z_bytes);
            ph.writeback.bytes += z_bytes;
        } else if !pipe.fused {
            // Unfused: the intermediate rounds through DRAM — written
            // whole here, re-loaded tile-by-tile by the next stage.
            let t_bytes = sm.cs_matrix_bytes(&product.z) as u64;
            traffic.write(&format!("T{}", si + 1), t_bytes);
            ph.writeback.bytes += t_bytes;
        }
        stages.push(StagePhases { stage: format!("spmspm#{si}"), phases: ph });
        cur = product.z;
    }
    let mut report = finish_report(name, traffic, maccs, Some(cur), tasks, skipped, stages, &hier);
    report.degradation = degradation;
    Ok(report)
}

/// Fused SDDMM→SpMM: stage 0 samples `U · Vᵀ` at the sparse operand's
/// non-zeros, stage 1 multiplies the surviving entries into dense `H`.
/// The intermediate `S` stays row-panel-resident when fused.
fn run_sddmm_spmm(
    a: &CsMatrix,
    u: &DenseMatrix,
    v: &DenseMatrix,
    h: &DenseMatrix,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier) = engine_parts(spec, ctx, pipe)?;
    let base = spec.engine_config(es, &hier);
    let name = format!("{}+{}", base.name, pipe.name);
    if let Some(kind) = ctx.cancel.expiry_kind() {
        return Ok(degraded_pipeline_entry(&name, kind));
    }
    let sm = base.drt.size_model;
    let vb = sm.value_bytes as u64;
    let rank = u.ncols() as u64;
    let feat = h.ncols() as u64;
    let order: [RankId; 2] = ['i', 'j'];
    let mut traffic = TrafficCounter::new();
    let mut degradation: Option<Degradation> = None;
    let mut maccs = 0u64;
    let mut tasks = 0u64;
    let mut skipped = 0u64;

    // Stage 0: SDDMM over A's occupancy (nothing contracted).
    let m0 = feasible_micro(
        |m| Kernel::sddmm_fmt(a, (m, m), base.micro_format),
        es,
        &base.drt,
        &order,
        base.micro.0.max(base.micro.1),
    )
    .map_err(DrtError::Core)?;
    let kernel0 = Kernel::sddmm_fmt(a, (m0, m0), base.micro_format).map_err(DrtError::Core)?;
    let opts0 = armed_opts(&kernel0, es, &base.drt, &order, ctx);
    let mut stream0 = TaskStream::build(&kernel0, opts0).map_err(DrtError::Core)?;
    let mut ph0 = PhaseBreakdown::default();
    let mut ledger = LoadLedger::new();
    for task in &mut stream0 {
        let ir = &task.plan.coord_ranges[&'i'];
        let jr = &task.plan.coord_ranges[&'j'];
        for tile in &task.plan.tiles {
            if ledger.changed("0:A", vec![ir.start, ir.end, jr.start, jr.end]) {
                traffic.read("A", tile.footprint());
                ph0.load.bytes += tile.footprint();
            }
        }
        // Dense factor row windows stream in with their coordinate range.
        if ledger.changed("0:U", vec![ir.start, ir.end]) {
            let bytes = vb * rank * ir.len() as u64;
            traffic.read("U", bytes);
            ph0.load.bytes += bytes;
        }
        if ledger.changed("0:V", vec![jr.start, jr.end]) {
            let bytes = vb * rank * jr.len() as u64;
            traffic.read("V", bytes);
            ph0.load.bytes += bytes;
        }
    }
    tasks += stream0.emitted();
    skipped += stream0.skipped_empty();
    if let Some(cause) = stream0.degraded() {
        degradation.get_or_insert_with(|| crate::engine::budget_degradation(cause, tasks));
    }
    if let Some(kind) = stream0.aborted() {
        let stages = vec![StagePhases { stage: "sddmm".into(), phases: ph0 }];
        let mut report = finish_report(name, traffic, maccs, None, tasks, skipped, stages, &hier);
        report.degradation = Some(expiry_degradation(kind, tasks));
        return Ok(report);
    }
    let s = drt_kernels::spmm::sddmm(a, u, v);
    maccs += (rank + 1) * a.nnz() as u64;
    if !pipe.fused {
        let s_bytes = sm.cs_matrix_bytes(&s) as u64;
        traffic.write("S", s_bytes);
        ph0.writeback.bytes += s_bytes;
    }

    // Stage 1: SpMM of the intermediate into dense H (contracts j).
    let spmm_kernel = |m: u32| -> Result<Kernel, CoreError> {
        let grid_s = MicroGrid::from_matrix_fmt(&s, (m, m), base.micro_format)?;
        let binding = TensorBinding { name: "S".into(), ranks: vec!['i', 'j'], grid: grid_s };
        Kernel::new(vec![binding], "Z", vec!['i'])
    };
    let llb = hier.llb.capacity_bytes;
    let cfg1 = DrtConfig::new(Partitions::split(llb, &[("S", 0.5), ("Z", 0.5)]))
        .with_growth(base.drt.growth)
        .with_size_model(sm);
    let m1 = feasible_micro(spmm_kernel, es, &cfg1, &order, base.micro.0.max(base.micro.1))
        .map_err(DrtError::Core)?;
    let kernel1 = spmm_kernel(m1).map_err(DrtError::Core)?;
    let opts1 = armed_opts(&kernel1, es, &cfg1, &order, ctx);
    let mut stream1 = TaskStream::build(&kernel1, opts1).map_err(DrtError::Core)?;
    let mut ph1 = PhaseBreakdown::default();
    for task in &mut stream1 {
        let ir = &task.plan.coord_ranges[&'i'];
        let jr = &task.plan.coord_ranges[&'j'];
        for tile in &task.plan.tiles {
            if pipe.fused {
                continue; // the S panel was produced on chip by stage 0
            }
            if ledger.changed("1:S", vec![ir.start, ir.end, jr.start, jr.end]) {
                traffic.read("S", tile.footprint());
                ph1.load.bytes += tile.footprint();
            }
        }
        if ledger.changed("1:H", vec![jr.start, jr.end]) {
            let bytes = vb * feat * jr.len() as u64;
            traffic.read("H", bytes);
            ph1.load.bytes += bytes;
        }
    }
    tasks += stream1.emitted();
    skipped += stream1.skipped_empty();
    if let Some(cause) = stream1.degraded() {
        degradation.get_or_insert_with(|| crate::engine::budget_degradation(cause, tasks));
    }
    if let Some(kind) = stream1.aborted() {
        let stages = vec![
            StagePhases { stage: "sddmm".into(), phases: ph0 },
            StagePhases { stage: "spmm".into(), phases: ph1 },
        ];
        let mut report = finish_report(name, traffic, maccs, None, tasks, skipped, stages, &hier);
        report.degradation = Some(expiry_degradation(kind, tasks));
        return Ok(report);
    }
    maccs += feat * s.nnz() as u64;
    let fused_ref = drt_kernels::sddmm::fused_sddmm_spmm(a, u, v, h);
    debug_assert_eq!(maccs, fused_ref.maccs, "stage MACCs must sum to the fused reference");
    // The dense Z streams out once either way.
    let z_bytes = vb * feat * a.nrows() as u64;
    traffic.write("Z", z_bytes);
    ph1.writeback.bytes += z_bytes;

    let stages = vec![
        StagePhases { stage: "sddmm".into(), phases: ph0 },
        StagePhases { stage: "spmm".into(), phases: ph1 },
    ];
    let out = fused_ref.z.to_sparse(MajorAxis::Row);
    let mut report = finish_report(name, traffic, maccs, Some(out), tasks, skipped, stages, &hier);
    report.degradation = degradation;
    Ok(report)
}

/// Partitions for a single-CSF-operand kernel stream: the sparse operand
/// gets the lion's share, the output panel the rest.
fn tensor_partitions(llb: u64, input: &str, output: &str) -> Partitions {
    Partitions::split(llb, &[(input, 0.6), (output, 0.4)])
}

/// MTTKRP over CSF: one task stream over the co-tiled `(i, j, k)` space;
/// factor row windows stream with their coordinate ranges, the dense `M`
/// panel is output-row-stationary.
fn run_mttkrp(
    x: &CsfTensor,
    b: &DenseMatrix,
    c: &DenseMatrix,
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier) = engine_parts(spec, ctx, pipe)?;
    let name = format!("{}+{}", es.display, pipe.name);
    if let Some(kind) = ctx.cancel.expiry_kind() {
        return Ok(degraded_pipeline_entry(&name, kind));
    }
    let sm = spec.size_model;
    let vb = sm.value_bytes as u64;
    let rank = b.ncols() as u64;
    let cfg = DrtConfig::new(tensor_partitions(hier.llb.capacity_bytes, "X", "M"))
        .with_growth(es.growth)
        .with_size_model(sm);
    let order: [RankId; 3] = ['i', 'j', 'k'];
    let m3 = feasible_micro(
        |m| Kernel::mttkrp(x, &pipe.micro3.map(|d| d.min(m))),
        es,
        &cfg,
        &order,
        pipe.micro3.iter().copied().max().unwrap_or(8),
    )
    .map_err(DrtError::Core)?;
    let kernel = Kernel::mttkrp(x, &pipe.micro3.map(|d| d.min(m3))).map_err(DrtError::Core)?;
    let opts = armed_opts(&kernel, es, &cfg, &order, ctx);
    let mut stream = TaskStream::build(&kernel, opts).map_err(DrtError::Core)?;
    let mut traffic = TrafficCounter::new();
    let mut ph = PhaseBreakdown::default();
    let mut ledger = LoadLedger::new();
    let mut zcache = crate::zcache::OutputCache::new(cfg.partitions.get("M"));
    let mut maccs = 0u64;
    for task in &mut stream {
        let ir = task.plan.coord_ranges[&'i'].clone();
        let jr = task.plan.coord_ranges[&'j'].clone();
        let kr = task.plan.coord_ranges[&'k'].clone();
        for tile in &task.plan.tiles {
            if ledger.changed("X", vec![ir.start, ir.end, jr.start, jr.end, kr.start, kr.end]) {
                traffic.read("X", tile.footprint());
                ph.load.bytes += tile.footprint();
            }
        }
        if ledger.changed("B", vec![jr.start, jr.end]) {
            let bytes = vb * rank * jr.len() as u64;
            traffic.read("B", bytes);
            ph.load.bytes += bytes;
        }
        if ledger.changed("C", vec![kr.start, kr.end]) {
            let bytes = vb * rank * kr.len() as u64;
            traffic.read("C", bytes);
            ph.load.bytes += bytes;
        }
        let nnz = x.nnz_in_box(&[ir.clone(), jr, kr]) as u64;
        maccs += 2 * rank * nnz;
        // The task's M panel rows: at most one per non-zero, at most the
        // i-range.
        let added = vb * rank * nnz.min(ir.len() as u64);
        let charge = zcache.access(&[ir.start, ir.end, 0, 0], added);
        traffic.write("M", charge.spill_writes);
        traffic.read("M", charge.refill_reads);
        ph.merge.bytes += charge.spill_writes + charge.refill_reads;
    }
    let fin = zcache.finish();
    traffic.read("M", fin.merge_reads);
    traffic.write("M", fin.final_writes);
    ph.writeback.bytes += fin.merge_reads + fin.final_writes;
    let stages = vec![StagePhases { stage: "mttkrp".into(), phases: ph }];
    if let Some(kind) = stream.aborted() {
        let (emitted, skipped) = (stream.emitted(), stream.skipped_empty());
        let mut report = finish_report(name, traffic, maccs, None, emitted, skipped, stages, &hier);
        report.degradation = Some(expiry_degradation(kind, emitted));
        return Ok(report);
    }
    debug_assert_eq!(
        maccs,
        drt_kernels::mttkrp::mttkrp_maccs(x, b.ncols()),
        "task MACCs must sum to the kernel total"
    );
    let m = drt_kernels::mttkrp::mttkrp(x, b, c);
    let out = m.m.to_sparse(MajorAxis::Row);
    let mut report = finish_report(
        name,
        traffic,
        maccs,
        Some(out),
        stream.emitted(),
        stream.skipped_empty(),
        stages,
        &hier,
    );
    report.degradation =
        stream.degraded().map(|c| crate::engine::budget_degradation(c, stream.emitted()));
    Ok(report)
}

/// TTV over CSF: `Y_ij = Σ_k χ_ijk · v_k` under the same stream shape as
/// MTTKRP, with a sparse `(i, j)` output.
fn run_ttv(
    x: &CsfTensor,
    v: &[f64],
    pipe: &PipelineSpec,
    spec: &AccelSpec,
    ctx: &RunCtx,
) -> Result<RunReport, DrtError> {
    let (es, hier) = engine_parts(spec, ctx, pipe)?;
    let name = format!("{}+{}", es.display, pipe.name);
    if let Some(kind) = ctx.cancel.expiry_kind() {
        return Ok(degraded_pipeline_entry(&name, kind));
    }
    let sm = spec.size_model;
    let vb = sm.value_bytes as u64;
    let cfg = DrtConfig::new(tensor_partitions(hier.llb.capacity_bytes, "X", "Y"))
        .with_growth(es.growth)
        .with_size_model(sm);
    let order: [RankId; 3] = ['i', 'j', 'k'];
    let m3 = feasible_micro(
        |m| Kernel::ttv(x, &pipe.micro3.map(|d| d.min(m))),
        es,
        &cfg,
        &order,
        pipe.micro3.iter().copied().max().unwrap_or(8),
    )
    .map_err(DrtError::Core)?;
    let kernel = Kernel::ttv(x, &pipe.micro3.map(|d| d.min(m3))).map_err(DrtError::Core)?;
    let opts = armed_opts(&kernel, es, &cfg, &order, ctx);
    let mut stream = TaskStream::build(&kernel, opts).map_err(DrtError::Core)?;
    let mut traffic = TrafficCounter::new();
    let mut ph = PhaseBreakdown::default();
    let mut ledger = LoadLedger::new();
    let mut zcache = crate::zcache::OutputCache::new(cfg.partitions.get("Y"));
    let mut maccs = 0u64;
    for task in &mut stream {
        let ir = task.plan.coord_ranges[&'i'].clone();
        let jr = task.plan.coord_ranges[&'j'].clone();
        let kr = task.plan.coord_ranges[&'k'].clone();
        for tile in &task.plan.tiles {
            if ledger.changed("X", vec![ir.start, ir.end, jr.start, jr.end, kr.start, kr.end]) {
                traffic.read("X", tile.footprint());
                ph.load.bytes += tile.footprint();
            }
        }
        if ledger.changed("v", vec![kr.start, kr.end]) {
            let bytes = vb * kr.len() as u64;
            traffic.read("v", bytes);
            ph.load.bytes += bytes;
        }
        let nnz = x.nnz_in_box(&[ir.clone(), jr.clone(), kr]) as u64;
        maccs += nnz;
        let cells = ir.len() as u64 * jr.len() as u64;
        let added = sm.coo_bytes(nnz.min(cells) as usize, 2) as u64;
        let charge = zcache.access(&[ir.start, ir.end, jr.start, jr.end], added);
        traffic.write("Y", charge.spill_writes);
        traffic.read("Y", charge.refill_reads);
        ph.merge.bytes += charge.spill_writes + charge.refill_reads;
    }
    let fin = zcache.finish();
    traffic.read("Y", fin.merge_reads);
    traffic.write("Y", fin.final_writes);
    ph.writeback.bytes += fin.merge_reads + fin.final_writes;
    let stages = vec![StagePhases { stage: "ttv".into(), phases: ph }];
    if let Some(kind) = stream.aborted() {
        let (emitted, skipped) = (stream.emitted(), stream.skipped_empty());
        let mut report = finish_report(name, traffic, maccs, None, emitted, skipped, stages, &hier);
        report.degradation = Some(expiry_degradation(kind, emitted));
        return Ok(report);
    }
    debug_assert_eq!(maccs, x.nnz() as u64, "one MACC per non-zero");
    let y = drt_kernels::ttv::ttv(x, v);
    let mut report = finish_report(
        name,
        traffic,
        maccs,
        Some(y),
        stream.emitted(),
        stream.skipped_empty(),
        stages,
        &hier,
    );
    report.degradation =
        stream.degraded().map(|c| crate::engine::budget_degradation(c, stream.emitted()));
    Ok(report)
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
    fn analytic_spec_rejects_multi_stage_pipelines() {
        let x = skewed_tensor(8, 8, 8, 40, 13);
        let b = dense_factor(8, 2, 1);
        let c = dense_factor(8, 2, 2);
        let session = Session::new(AccelSpec::outerspace());
        let err = run(&session, PipelineInput::Tensor(&x), &PipelineSpec::mttkrp(b, c))
            .expect_err("analytic must reject");
        assert!(err.to_string().contains("engine-backed"), "{err}");
    }
}

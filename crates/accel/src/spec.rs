//! Declarative accelerator specifications and the variant registry.
//!
//! Every machine the paper evaluates is described by an [`AccelSpec`]: a
//! name, a [`SpecKind`] (either a configuration of the shared simulation
//! [`crate::engine`] or one of the closed-form analytic models), and a
//! byte-accounting [`SizeModel`]. [`Registry::standard`] maps stable
//! variant names (`"extensor-op-drt"`, `"outerspace"`, …) to specs so
//! bench drivers and tests can select machines by name instead of
//! hard-wiring per-module `run_*` calls. Specs are data: every run goes
//! through [`crate::session::Session`].
//!
//! The spec layer is also where the paper's static buffer-partition
//! tables live ([`PartitionPreset`], §5.2.4 / §6.6) — previously each
//! accelerator module carried its own `Partitions::split` literal.

use crate::cpu::{run_mkl_like, CpuSpec};
use crate::engine::{
    best_suc_shape, degraded_entry, expiry_reason, run_spmspm_ft, EngineConfig, Tiling,
};
use crate::error::DrtError;
use crate::report::{DegradeReason, RunOutcome};
use drt_core::budget::ExecBudget;
use drt_core::cancel::CancelToken;
use drt_core::chaos::FaultInjector;
use drt_core::config::{DrtConfig, GrowthOrder, Partitions};
use drt_core::extractor::ExtractorModel;
use drt_core::kernel::check_inner_dims;
use drt_core::micro::MicroFormat;
use drt_core::probe::Probe;
use drt_core::{CoreError, RankId};
use drt_sim::intersect_unit::IntersectUnit;
use drt_sim::memory::{BufferSpec, HierarchySpec};
use drt_tensor::format::SizeModel;
use drt_tensor::CsMatrix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Named static buffer-partition tables (paper §5.2.4: every on-chip
/// buffer is statically split across tensors; §6.6 / Figure 14 sweep the
/// shares). Each accelerator family references a preset instead of
/// carrying its own share literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionPreset {
    /// The ExTensor paper's LLB split: a small A partition, B around
    /// 45%, half for output partials (§6.6, Figure 14's baseline).
    ExtensorPaper,
    /// Outer-product designs (OuterSPACE): favor the output working set.
    OuterProduct,
    /// Row-wise Gustavson designs (MatRaptor): B dominates, the output
    /// row band stays modest.
    RowWise,
    /// The software study's LLC split: inputs evenly, inner-product
    /// dataflow keeps the output resident (§6.3).
    SoftwareLlc,
    /// The 3-tensor Gram contraction: both operand views plus the G
    /// output partials.
    Gram3,
    /// A balanced split used by engine-level unit tests.
    Balanced,
}

impl PartitionPreset {
    /// The preset's fractional shares, `(tensor, share)` pairs.
    pub fn shares(self) -> &'static [(&'static str, f64)] {
        match self {
            PartitionPreset::ExtensorPaper => &[("A", 0.05), ("B", 0.45), ("Z", 0.5)],
            PartitionPreset::OuterProduct => &[("A", 0.2), ("B", 0.2), ("Z", 0.6)],
            PartitionPreset::RowWise => &[("A", 0.2), ("B", 0.5), ("Z", 0.3)],
            PartitionPreset::SoftwareLlc => &[("A", 0.4), ("B", 0.4), ("Z", 0.2)],
            PartitionPreset::Gram3 => &[("X", 0.3), ("Y", 0.3), ("G", 0.4)],
            PartitionPreset::Balanced => &[("A", 0.25), ("B", 0.45), ("Z", 0.3)],
        }
    }

    /// Split a buffer capacity by this preset's shares.
    pub fn partitions(self, total_bytes: u64) -> Partitions {
        Partitions::split(total_bytes, self.shares())
    }
}

/// Tiling scheme selected by a spec — the engine's [`Tiling`] plus the
/// offline S-U-C shape sweep the paper grants static baselines (§5.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TilingSpec {
    /// Dynamic reflexive tiling.
    Drt,
    /// Best-of-N swept static uniform coordinate shapes.
    SucSweep {
        /// Candidate shapes tried per workload.
        candidates: usize,
    },
    /// A fixed (already swept) static shape, coordinates per rank.
    SucFixed(BTreeMap<RankId, u32>),
}

/// Declarative configuration of an engine-simulated variant. Resolved
/// against a [`RunCtx`]'s hierarchy into an [`EngineConfig`] when a
/// [`crate::session::Session`] runs the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSpec {
    /// Report label (the paper's machine name, e.g. `"ExTensor-OP-DRT"`).
    pub display: String,
    /// Dataflow loop order, outermost first.
    pub loop_order: Vec<RankId>,
    /// Tiling scheme.
    pub tiling: TilingSpec,
    /// Buffer-partition preset, applied to the LLB capacity.
    pub partitions: PartitionPreset,
    /// Micro-tile shape (paper default 32 × 32, §5.2.4).
    pub micro: (u32, u32),
    /// Micro-tile representation.
    pub micro_format: MicroFormat,
    /// PE intersection unit.
    pub intersect: IntersectUnit,
    /// Merge lanes for combining partial outputs on chip.
    pub merge_lanes: u32,
    /// Tile-extractor model (ignored for S-U-C).
    pub extractor: ExtractorModel,
    /// When `true`, runtime is DRAM-bound only (Study 2 idealization).
    pub ideal_on_chip: bool,
    /// Dimension-growth strategy for DRT.
    pub growth: GrowthOrder,
    /// Halve the micro shape until the capacity preflight passes
    /// (configuration-time micro-shape adjustment, §5.2.4).
    pub adapt_micro: bool,
    /// Derive the hierarchy from the context's CPU (LLC-sized LLB) —
    /// the software study runs on the CPU's memory system (§5.2.3).
    pub hier_from_cpu: bool,
    /// When set, this exact `DrtConfig` (partitions, growth, size model)
    /// is used verbatim instead of deriving one from `partitions` and the
    /// hierarchy's LLB capacity. This is how ad-hoc
    /// `(name, Tiling, DrtConfig)` triples convert into specs without
    /// losing their hand-built partition tables.
    pub drt_override: Option<DrtConfig>,
}

impl EngineSpec {
    /// A spec with the engine's defaults around the given dataflow.
    pub fn new(
        display: impl Into<String>,
        loop_order: &[RankId],
        tiling: TilingSpec,
        partitions: PartitionPreset,
    ) -> EngineSpec {
        EngineSpec {
            display: display.into(),
            loop_order: loop_order.to_vec(),
            tiling,
            partitions,
            micro: (32, 32),
            micro_format: MicroFormat::default(),
            intersect: IntersectUnit::SkipBased,
            merge_lanes: 1,
            extractor: ExtractorModel::parallel(),
            ideal_on_chip: false,
            growth: GrowthOrder::default(),
            adapt_micro: false,
            hier_from_cpu: false,
            drt_override: None,
        }
    }
}

impl<S: Into<String>> From<(S, Tiling, DrtConfig)> for AccelSpec {
    /// The old `EngineConfig::new(name, tiling, drt)` triple as a spec:
    /// the given `DrtConfig` is carried verbatim (as `drt_override`), the
    /// remaining knobs take the engine defaults.
    fn from((name, tiling, drt): (S, Tiling, DrtConfig)) -> AccelSpec {
        let tiling_spec = match tiling {
            Tiling::Drt => TilingSpec::Drt,
            Tiling::Suc(sizes) => TilingSpec::SucFixed(sizes),
        };
        let name = name.into();
        let mut es =
            EngineSpec::new(name.clone(), &['j', 'k', 'i'], tiling_spec, PartitionPreset::Balanced);
        es.growth = drt.growth;
        let size_model = drt.size_model;
        es.drt_override = Some(drt);
        AccelSpec { name, kind: SpecKind::Engine(es), size_model }
    }
}

/// What kind of model a spec resolves to.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecKind {
    /// The shared task-stream simulation engine.
    Engine(EngineSpec),
    /// Untiled OuterSPACE's closed-form traffic model.
    OuterSpaceUntiled,
    /// Untiled MatRaptor's closed-form traffic model.
    MatRaptorUntiled,
    /// The GAMMA-like FiberCache model.
    GammaLike,
    /// The SpArch-like merge-tree model.
    SpArchLike {
        /// Merge-tree fan-in (SpArch uses a 64-way tree).
        merge_ways: u32,
    },
    /// The MKL-like CPU roofline (uses the context's [`CpuSpec`]).
    CpuRoofline,
}

/// One registered accelerator variant: everything needed to run it on a
/// workload given a [`RunCtx`].
#[derive(Debug, Clone, PartialEq)]
pub struct AccelSpec {
    /// Stable registry name (lower-case, hyphenated).
    pub name: String,
    /// The model this spec resolves to.
    pub kind: SpecKind,
    /// Byte-accounting parameters used for every footprint and traffic
    /// measurement under this spec.
    pub size_model: SizeModel,
}

/// Shared run context: the memory hierarchy for accelerator models, the
/// CPU for roofline/software variants, and the instrumentation probe.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Accelerator memory hierarchy (LLB capacity sizes partitions).
    pub hier: HierarchySpec,
    /// CPU parameters for `cpu-mkl` and the `sw-*` variants.
    pub cpu: CpuSpec,
    /// Instrumentation probe threaded through taskgen and the engine.
    pub probe: Probe,
    /// Worker threads for engine-simulated variants (1 = serial
    /// streaming; more shard the task list); analytic models ignore it.
    /// Reports and traces are bit-identical at every thread count.
    pub threads: usize,
    /// Resource budgets (task / planner-call caps).
    /// DRT engine runs degrade gracefully on exhaustion; `max_tasks = 0`
    /// ("no work permitted") binds uniformly on every variant; other
    /// caps are non-binding for analytic and already-S-U-C runs.
    pub budget: ExecBudget,
    /// Cooperative cancellation/deadline token, polled at task
    /// boundaries. An expired token degrades the run; it never panics.
    pub cancel: CancelToken,
    /// Chaos-injection hook for engine runs (`None` in production).
    pub chaos: Option<Arc<dyn FaultInjector>>,
}

impl Default for RunCtx {
    fn default() -> RunCtx {
        RunCtx {
            hier: HierarchySpec::default(),
            cpu: CpuSpec::default(),
            probe: Probe::disabled(),
            threads: 1,
            budget: ExecBudget::unlimited(),
            cancel: CancelToken::new(),
            chaos: None,
        }
    }
}

impl RunCtx {
    /// A context around the given hierarchy, default CPU, no probe.
    pub fn new(hier: &HierarchySpec) -> RunCtx {
        RunCtx { hier: *hier, ..RunCtx::default() }
    }
}

/// The hierarchy the software study runs on: an LLB the size of the
/// CPU's LLC in front of the CPU's DRAM (§5.2.3).
pub fn llc_hierarchy(spec: &CpuSpec) -> HierarchySpec {
    HierarchySpec {
        llb: BufferSpec { capacity_bytes: spec.llc_bytes, ports: 2 },
        dram: drt_sim::memory::DramModel {
            bandwidth_bytes_per_sec: spec.bandwidth_bytes_per_sec,
            burst_bytes: 64,
        },
        ..HierarchySpec::default()
    }
}

/// The engine's configuration-time feasibility check, without running:
/// build the kernel and task stream (whose constructors enforce the
/// micro-tile and worst-case-dense capacity rules) and discard them.
fn engine_preflight(a: &CsMatrix, b: &CsMatrix, cfg: &EngineConfig) -> Result<(), DrtError> {
    let kernel = drt_core::kernel::Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format)?;
    drt_core::taskgen::TaskStream::build(&kernel, cfg.task_options())?;
    Ok(())
}

/// Configuration-time micro-shape adjustment (§5.2.4): `attempt` the
/// configured micro shape, squared, and halve it while a partition
/// cannot hold even one dense micro tile (possible at scaled-down buffer
/// sizes), down to 2 × 2.
fn halve_micro<T>(
    cfg: &mut EngineConfig,
    mut attempt: impl FnMut(&EngineConfig) -> Result<T, DrtError>,
) -> Result<T, DrtError> {
    let mut m = cfg.micro.0.max(cfg.micro.1);
    loop {
        cfg.micro = (m, m);
        match attempt(cfg) {
            Err(DrtError::Core(CoreError::TileTooLarge { .. })) if m >= 4 => m /= 2,
            last => return last,
        }
    }
}

/// Pin `cfg` to an S-U-C sweep's winning shape, quantizing the kernel's
/// micro shape like the sweep does so sub-micro shapes stay representable.
fn use_suc_winner(cfg: &mut EngineConfig, shape: BTreeMap<RankId, u32>) {
    let q = shape.values().copied().min().unwrap_or(32).clamp(1, 32);
    cfg.micro = (q, q);
    cfg.tiling = Tiling::Suc(shape);
}

impl AccelSpec {
    /// Fault-tolerant run of this variant on `Z = A · B`: the full
    /// outcome taxonomy of `engine::run_spmspm_ft`, made uniform across
    /// every registered variant. An expired token or a zero task budget
    /// degrades — never panics — for analytic models too; engine
    /// variants additionally degrade mid-run (DRT → S-U-C fallback on
    /// budget exhaustion, clean stops at task boundaries) and isolate
    /// panicked shards. [`crate::session::Session::run_ref`] is the
    /// public door to it.
    ///
    /// # Errors
    ///
    /// Configuration errors as [`DrtError::Core`] (mismatched inner
    /// dimensions first, for every variant); a panicked shard as
    /// [`DrtError::ShardPanicked`].
    pub(crate) fn run_ft(
        &self,
        a: &CsMatrix,
        b: &CsMatrix,
        ctx: &RunCtx,
    ) -> Result<RunOutcome, DrtError> {
        // Analytic models assume a chaining pair: reject it for every variant.
        check_inner_dims(a, b)?;
        if let Some(kind) = ctx.cancel.expiry_kind() {
            return Ok(degraded_entry(
                &self.name,
                expiry_reason(kind),
                "expired before any work ran",
                &ctx.probe,
            ));
        }
        // A zero task budget permits no work for any variant, uniformly:
        // analytic models do no task generation, and an S-U-C-tiled engine
        // stream has no cheaper mode to degrade into. (Nonzero caps are
        // enforced per mode: DRT streams degrade to S-U-C fallback tiles;
        // analytic and already-S-U-C runs treat them as non-binding.)
        if ctx.budget.max_tasks == Some(0) {
            return Ok(degraded_entry(
                &self.name,
                DegradeReason::TaskBudgetExhausted,
                "max_tasks = 0 permits no work",
                &ctx.probe,
            ));
        }
        match &self.kind {
            SpecKind::Engine(es) => self.run_engine_ft(es, a, b, ctx),
            SpecKind::OuterSpaceUntiled => Ok(RunOutcome::Complete(
                crate::outerspace::run_untiled(a, b, &ctx.hier, &self.size_model, &ctx.probe),
            )),
            SpecKind::MatRaptorUntiled => Ok(RunOutcome::Complete(crate::matraptor::run_untiled(
                a,
                b,
                &ctx.hier,
                &self.size_model,
                &ctx.probe,
            ))),
            SpecKind::GammaLike => Ok(RunOutcome::Complete(crate::gamma::run_gamma_like(
                a,
                b,
                &ctx.hier,
                &self.size_model,
                &ctx.probe,
            ))),
            SpecKind::SpArchLike { merge_ways } => {
                Ok(RunOutcome::Complete(crate::sparch::run_sparch_like(
                    a,
                    b,
                    &ctx.hier,
                    *merge_ways,
                    &self.size_model,
                    &ctx.probe,
                )))
            }
            SpecKind::CpuRoofline => {
                Ok(RunOutcome::Complete(run_mkl_like(a, b, &ctx.cpu, &self.size_model, &ctx.probe)))
            }
        }
    }

    /// Resolve an [`EngineSpec`] against a hierarchy into the engine's
    /// concrete configuration. Public so design-space sweeps can start
    /// from a registered spec and perturb one knob.
    pub fn engine_config(&self, es: &EngineSpec, hier: &HierarchySpec) -> EngineConfig {
        let drt = es.drt_override.clone().unwrap_or_else(|| {
            DrtConfig::new(es.partitions.partitions(hier.llb.capacity_bytes))
                .with_growth(es.growth)
                .with_size_model(self.size_model)
        });
        let tiling = match &es.tiling {
            TilingSpec::Drt => Tiling::Drt,
            TilingSpec::SucSweep { .. } => Tiling::Suc(BTreeMap::new()),
            TilingSpec::SucFixed(sizes) => Tiling::Suc(sizes.clone()),
        };
        EngineConfig {
            name: es.display.clone(),
            loop_order: es.loop_order.clone(),
            tiling,
            drt,
            micro: es.micro,
            micro_format: es.micro_format,
            intersect: es.intersect,
            merge_lanes: es.merge_lanes,
            hier: *hier,
            extractor: es.extractor,
            ideal_on_chip: es.ideal_on_chip,
            skip_output: false,
        }
    }

    /// The concrete [`EngineConfig`] a run of this spec on `(a, b)` under
    /// `ctx` executes, with every data-dependent knob resolved: the S-U-C
    /// sweep's winning shape (the same sweep the run performs) and the
    /// adapt-micro halving (resolved by the capacity preflight the run's
    /// task stream applies). Running the result through
    /// [`crate::session::Session::from_engine_config`] reproduces the
    /// spec run bit for bit. `None` for analytic (non-engine) variants.
    ///
    /// This is the introspection hook external checkers (`drt-verify`)
    /// use to rebuild a run's task stream and audit tile footprints and
    /// output-space coverage against the report.
    ///
    /// # Errors
    ///
    /// Propagates tiling configuration errors, exactly as the run would.
    pub fn resolved_engine_config(
        &self,
        a: &CsMatrix,
        b: &CsMatrix,
        ctx: &RunCtx,
    ) -> Result<Option<EngineConfig>, DrtError> {
        let SpecKind::Engine(es) = &self.kind else {
            return Ok(None);
        };
        let mut cfg = self.swept_config(es, a, b, ctx)?;
        if es.adapt_micro && es.tiling == TilingSpec::Drt {
            halve_micro(&mut cfg, |c| engine_preflight(a, b, c))?;
        }
        Ok(Some(cfg))
    }

    /// The engine configuration of `es` on the context's hierarchy (or
    /// its CPU's LLC), with an S-U-C sweep resolved to its winning shape.
    fn swept_config(
        &self,
        es: &EngineSpec,
        a: &CsMatrix,
        b: &CsMatrix,
        ctx: &RunCtx,
    ) -> Result<EngineConfig, DrtError> {
        let hier = if es.hier_from_cpu { llc_hierarchy(&ctx.cpu) } else { ctx.hier };
        let mut cfg = self.engine_config(es, &hier);
        if let TilingSpec::SucSweep { candidates } = es.tiling {
            let shape = best_suc_shape(a, b, &cfg, candidates, ctx.threads)?;
            use_suc_winner(&mut cfg, shape);
        }
        Ok(cfg)
    }

    fn run_engine_ft(
        &self,
        es: &EngineSpec,
        a: &CsMatrix,
        b: &CsMatrix,
        ctx: &RunCtx,
    ) -> Result<RunOutcome, DrtError> {
        let mut cfg = self.swept_config(es, a, b, ctx)?;
        if matches!(es.tiling, TilingSpec::SucSweep { .. }) {
            // The sweep is an offline search the paper doesn't charge
            // (§5.2.1); the token is polled once it finishes, so an
            // expiry during the sweep degrades here.
            if let Some(kind) = ctx.cancel.expiry_kind() {
                return Ok(degraded_entry(
                    &cfg.name,
                    expiry_reason(kind),
                    "expired during the offline S-U-C shape sweep",
                    &ctx.probe,
                ));
            }
        }
        if es.adapt_micro && es.tiling == TilingSpec::Drt {
            // Halve by trying the run itself: a separate preflight would
            // build the operands' micro grids twice.
            return halve_micro(&mut cfg, |c| run_spmspm_ft(a, b, c, ctx, None));
        }
        run_spmspm_ft(a, b, &cfg, ctx, None)
    }

    // ---- standard variants ------------------------------------------------

    fn engine_spec(name: &str, es: EngineSpec) -> AccelSpec {
        AccelSpec {
            name: name.into(),
            kind: SpecKind::Engine(es),
            size_model: SizeModel::default(),
        }
    }

    fn analytic(name: &str, kind: SpecKind) -> AccelSpec {
        AccelSpec { name: name.into(), kind, size_model: SizeModel::default() }
    }

    /// Original ExTensor: best-swept S-U-C, serial skip intersection.
    pub fn extensor() -> AccelSpec {
        let mut es = EngineSpec::new(
            "ExTensor",
            &['j', 'k', 'i'],
            TilingSpec::SucSweep { candidates: crate::extensor::SUC_SWEEP_CANDIDATES },
            PartitionPreset::ExtensorPaper,
        );
        es.intersect = IntersectUnit::SkipBased;
        es.merge_lanes = 1;
        AccelSpec::engine_spec("extensor", es)
    }

    /// ExTensor-OP: parallel intersection, multiply-and-merge.
    pub fn extensor_op() -> AccelSpec {
        let mut es = EngineSpec::new(
            "ExTensor-OP",
            &['j', 'k', 'i'],
            TilingSpec::SucSweep { candidates: crate::extensor::SUC_SWEEP_CANDIDATES },
            PartitionPreset::ExtensorPaper,
        );
        es.intersect = IntersectUnit::Parallel(32);
        es.merge_lanes = 16;
        AccelSpec::engine_spec("extensor-op", es)
    }

    /// ExTensor-OP-DRT (TACTile): ExTensor-OP with DRT tile extraction.
    pub fn extensor_op_drt() -> AccelSpec {
        let mut es = EngineSpec::new(
            "ExTensor-OP-DRT",
            &['j', 'k', 'i'],
            TilingSpec::Drt,
            PartitionPreset::ExtensorPaper,
        );
        es.intersect = IntersectUnit::Parallel(32);
        es.merge_lanes = 16;
        es.adapt_micro = true;
        AccelSpec::engine_spec("extensor-op-drt", es)
    }

    /// Untiled OuterSPACE.
    pub fn outerspace() -> AccelSpec {
        AccelSpec::analytic("outerspace", SpecKind::OuterSpaceUntiled)
    }

    /// OuterSPACE with best-swept S-U-C tiling.
    pub fn outerspace_suc() -> AccelSpec {
        let mut es = EngineSpec::new(
            "OuterSPACE-SUC",
            &['k', 'i', 'j'],
            TilingSpec::SucSweep { candidates: crate::extensor::SUC_SWEEP_CANDIDATES },
            PartitionPreset::OuterProduct,
        );
        es.ideal_on_chip = true;
        AccelSpec::engine_spec("outerspace-suc", es)
    }

    /// OuterSPACE with DRT tiling.
    pub fn outerspace_drt() -> AccelSpec {
        let mut es = EngineSpec::new(
            "OuterSPACE-DRT",
            &['k', 'i', 'j'],
            TilingSpec::Drt,
            PartitionPreset::OuterProduct,
        );
        es.ideal_on_chip = true;
        AccelSpec::engine_spec("outerspace-drt", es)
    }

    /// Untiled MatRaptor.
    pub fn matraptor() -> AccelSpec {
        AccelSpec::analytic("matraptor", SpecKind::MatRaptorUntiled)
    }

    /// MatRaptor with best-swept S-U-C tiling.
    pub fn matraptor_suc() -> AccelSpec {
        let mut es = EngineSpec::new(
            "MatRaptor-SUC",
            &['i', 'k', 'j'],
            TilingSpec::SucSweep { candidates: crate::extensor::SUC_SWEEP_CANDIDATES },
            PartitionPreset::RowWise,
        );
        es.ideal_on_chip = true;
        AccelSpec::engine_spec("matraptor-suc", es)
    }

    /// MatRaptor with DRT tiling.
    pub fn matraptor_drt() -> AccelSpec {
        let mut es = EngineSpec::new(
            "MatRaptor-DRT",
            &['i', 'k', 'j'],
            TilingSpec::Drt,
            PartitionPreset::RowWise,
        );
        es.ideal_on_chip = true;
        AccelSpec::engine_spec("matraptor-drt", es)
    }

    /// The GAMMA-like FiberCache design.
    pub fn gamma() -> AccelSpec {
        AccelSpec::analytic("gamma", SpecKind::GammaLike)
    }

    /// The SpArch-like merge-tree design (64-way).
    pub fn sparch() -> AccelSpec {
        AccelSpec::analytic("sparch", SpecKind::SpArchLike { merge_ways: 64 })
    }

    /// The MKL-like CPU roofline baseline.
    pub fn cpu_mkl() -> AccelSpec {
        AccelSpec::analytic("cpu-mkl", SpecKind::CpuRoofline)
    }

    /// Software S-U-C on the CPU's memory system (Study 3), with the
    /// given static tile size and micro shape.
    pub fn sw_suc(suc_tile: u32, micro: (u32, u32)) -> AccelSpec {
        let sizes = BTreeMap::from([('i', suc_tile), ('k', suc_tile), ('j', suc_tile)]);
        let mut es = EngineSpec::new(
            "SW-SUC",
            &['i', 'j', 'k'],
            TilingSpec::SucFixed(sizes),
            PartitionPreset::SoftwareLlc,
        );
        es.micro = micro;
        es.micro_format = MicroFormat::Uc;
        es.ideal_on_chip = true;
        es.growth = GrowthOrder::Alternating;
        es.hier_from_cpu = true;
        AccelSpec::engine_spec("sw-suc", es)
    }

    /// Software DRT (alternating growth) on the CPU's memory system.
    pub fn sw_dnc(micro: (u32, u32)) -> AccelSpec {
        let mut es = EngineSpec::new(
            "SW-DNC",
            &['i', 'j', 'k'],
            TilingSpec::Drt,
            PartitionPreset::SoftwareLlc,
        );
        es.micro = micro;
        es.micro_format = MicroFormat::Uc;
        es.ideal_on_chip = true;
        es.growth = GrowthOrder::Alternating;
        es.hier_from_cpu = true;
        AccelSpec::engine_spec("sw-dnc", es)
    }
}

/// Name → spec mapping for every modelled variant.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    specs: Vec<AccelSpec>,
}

impl Registry {
    /// All standard variants under their stable names.
    pub fn standard() -> Registry {
        Registry {
            specs: vec![
                AccelSpec::cpu_mkl(),
                AccelSpec::extensor(),
                AccelSpec::extensor_op(),
                AccelSpec::extensor_op_drt(),
                AccelSpec::outerspace(),
                AccelSpec::outerspace_suc(),
                AccelSpec::outerspace_drt(),
                AccelSpec::matraptor(),
                AccelSpec::matraptor_suc(),
                AccelSpec::matraptor_drt(),
                AccelSpec::gamma(),
                AccelSpec::sparch(),
                AccelSpec::sw_suc(16, (8, 8)),
                AccelSpec::sw_dnc((8, 8)),
            ],
        }
    }

    /// Look up a variant by name (`"tactile"` aliases `"extensor-op-drt"`).
    pub fn get(&self, name: &str) -> Option<&AccelSpec> {
        let name = if name == "tactile" { "extensor-op-drt" } else { name };
        self.specs.iter().find(|s| s.name == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Iterate over all registered specs.
    pub fn iter(&self) -> impl Iterator<Item = &AccelSpec> {
        self.specs.iter()
    }

    /// Add (or replace) a spec under its own name.
    pub fn register(&mut self, spec: AccelSpec) {
        self.specs.retain(|s| s.name != spec.name);
        self.specs.push(spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_shares() {
        let p = PartitionPreset::ExtensorPaper.partitions(1000);
        assert_eq!((p.get("A"), p.get("B"), p.get("Z")), (50, 450, 500));
        for preset in [
            PartitionPreset::ExtensorPaper,
            PartitionPreset::OuterProduct,
            PartitionPreset::RowWise,
            PartitionPreset::SoftwareLlc,
            PartitionPreset::Gram3,
            PartitionPreset::Balanced,
        ] {
            let sum: f64 = preset.shares().iter().map(|&(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-9, "{preset:?} shares must cover the buffer");
        }
    }

    #[test]
    fn registry_resolves_all_standard_names() {
        let reg = Registry::standard();
        for name in [
            "cpu-mkl",
            "extensor",
            "extensor-op",
            "extensor-op-drt",
            "tactile",
            "outerspace",
            "outerspace-suc",
            "outerspace-drt",
            "matraptor",
            "matraptor-suc",
            "matraptor-drt",
            "gamma",
            "sparch",
            "sw-suc",
            "sw-dnc",
        ] {
            assert!(reg.get(name).is_some(), "missing registry entry {name}");
        }
        assert!(reg.get("no-such-machine").is_none());
        assert_eq!(reg.names().len(), 14);
    }

    #[test]
    fn register_replaces_by_name() {
        let mut reg = Registry::standard();
        let n = reg.names().len();
        reg.register(AccelSpec::sparch());
        assert_eq!(reg.names().len(), n);
    }
}

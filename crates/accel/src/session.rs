//! The unified run API: build a [`Session`] around a spec, configure
//! threads/probe/hierarchy with builders, run.
//!
//! ```rust
//! use drt_accel::session::Session;
//! use drt_accel::spec::AccelSpec;
//! use drt_workloads::patterns::unstructured;
//!
//! # fn main() -> Result<(), drt_accel::error::DrtError> {
//! let a = unstructured(96, 96, 700, 2.0, 1);
//! let serial = Session::new(AccelSpec::extensor_op_drt()).run_spmspm(&a, &a)?;
//! let sharded = Session::new(AccelSpec::extensor_op_drt()).threads(4).run_spmspm(&a, &a)?;
//! // The determinism contract: thread count never changes the numbers.
//! assert!(serial.bit_diff(&sharded).is_none());
//! # Ok(())
//! # }
//! ```
//!
//! A session accepts anything `Into<AccelSpec>` — a registered spec, or
//! the ad-hoc `(name, Tiling, DrtConfig)` triple — or a hand-built
//! [`EngineConfig`] via [`Session::from_engine_config`]. Every run —
//! SpMSpM, multi-stage pipelines (MTTKRP, fused SDDMM→SpMM, A·B·C
//! chains), typed requests — lands in [`Session::run_ref`]:
//!
//! ```rust
//! use drt_accel::pipeline::{PipelineInput, PipelineSpec};
//! use drt_accel::session::Session;
//! use drt_accel::workload::WorkloadRef;
//! use drt_workloads::patterns::unstructured;
//!
//! # fn main() -> Result<(), drt_accel::error::DrtError> {
//! let a = unstructured(96, 96, 700, 2.0, 1);
//! let session = Session::from_registry("extensor-op-drt")?;
//! let pipe = PipelineSpec::abc(a.clone(), a.clone());
//! let input = PipelineInput::Matrix(&a);
//! let chain = session.run_ref(WorkloadRef::Pipeline { input, pipe: &pipe })?;
//! assert!(!chain.is_degraded());
//! # Ok(())
//! # }
//! ```

use crate::cpu::CpuSpec;
use crate::engine::{run_spmspm_ft, EngineConfig, ExecPolicy, ShardSchedule};
use crate::error::DrtError;
use crate::incremental::TaskStore;
use crate::pipeline::{PipelineInput, PipelineSpec, Stage};
use crate::report::{RunOutcome, RunReport};
use crate::spec::{AccelSpec, Registry, RunCtx};
use crate::workload::{Request, Response, Workload, WorkloadRef};
use drt_core::budget::ExecBudget;
use drt_core::cancel::CancelToken;
use drt_core::chaos::FaultInjector;
use drt_core::probe::Probe;
use drt_core::CoreError;
use drt_sim::memory::HierarchySpec;
use drt_tensor::CsMatrix;
use std::sync::Arc;
use std::time::Duration;

/// What a session runs: a declarative spec (resolved against the
/// session's hierarchy at run time) or a fully concrete engine
/// configuration (used verbatim).
#[derive(Debug, Clone)]
enum Target {
    Spec(AccelSpec),
    Config(EngineConfig),
}

/// One configured simulation run: target variant + run context, with
/// builder-style knobs. The single blessed entry point for SpMSpM runs —
/// serial and sharded-parallel execution, probed and unprobed, registry
/// variants and ad-hoc configurations all go through [`Session::run_spmspm`].
#[derive(Debug, Clone)]
pub struct Session {
    target: Target,
    ctx: RunCtx,
}

impl From<EngineConfig> for Session {
    fn from(cfg: EngineConfig) -> Session {
        Session::from_engine_config(cfg)
    }
}

impl Session {
    /// A session around anything spec-like: a registered [`AccelSpec`],
    /// or an ad-hoc `(name, Tiling, DrtConfig)` triple.
    pub fn new(spec: impl Into<AccelSpec>) -> Session {
        Session { target: Target::Spec(spec.into()), ctx: RunCtx::default() }
    }

    /// A session around a registered variant name (see
    /// [`Registry::standard`]; `"tactile"` aliases `"extensor-op-drt"`).
    ///
    /// # Errors
    ///
    /// [`DrtError::UnknownVariant`] when the name is not registered.
    pub fn from_registry(name: &str) -> Result<Session, DrtError> {
        Registry::standard()
            .get(name)
            .cloned()
            .map(Session::new)
            .ok_or_else(|| DrtError::UnknownVariant { name: name.to_string() })
    }

    /// A session around a hand-built engine configuration, used verbatim
    /// (its embedded hierarchy included).
    pub fn from_engine_config(cfg: EngineConfig) -> Session {
        let ctx = RunCtx::new(&cfg.hier);
        Session { target: Target::Config(cfg), ctx }
    }

    /// [`Session::run_spmspm`] with a task store ([`crate::incremental`]).
    /// A spec-backed session is a `BadConfig` error: a store is keyed for
    /// one engine configuration.
    pub(crate) fn run_stored(
        &self,
        a: &CsMatrix,
        b: &CsMatrix,
        store: &mut TaskStore,
    ) -> Result<RunReport, DrtError> {
        let Target::Config(cfg) = &self.target else {
            let detail = "a task store needs a session around an engine configuration".into();
            return Err(DrtError::Core(CoreError::BadConfig { detail }));
        };
        run_spmspm_ft(a, b, cfg, &self.ctx, Some(store)).map(RunOutcome::into_report)
    }

    /// Replace the session's entire run context (hierarchy, CPU, probe,
    /// execution policy, budgets, cancellation token) with a
    /// caller-built one — the bench-harness path, where one [`RunCtx`]
    /// is shared across many variant sessions.
    #[must_use]
    pub fn with_run_ctx(mut self, ctx: RunCtx) -> Session {
        self.ctx = ctx;
        self
    }

    /// Run on `n` worker threads (statically sharded; 1 = serial).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Session {
        self.ctx.exec.threads = n.max(1);
        self
    }

    /// Select a shard schedule (static chunks, work stealing, or explicit
    /// cut points).
    #[must_use]
    pub fn schedule(mut self, schedule: ShardSchedule) -> Session {
        self.ctx.exec.schedule = schedule;
        self
    }

    /// Set the full execution policy at once.
    #[must_use]
    pub fn exec(mut self, exec: ExecPolicy) -> Session {
        self.ctx.exec = exec;
        self
    }

    /// Attach an instrumentation probe. Traces are bit-identical across
    /// thread counts and shard schedules.
    #[must_use]
    pub fn probe(mut self, probe: Probe) -> Session {
        self.ctx.probe = probe;
        self
    }

    /// Whether an instrumentation probe is attached. A serving layer
    /// uses this to disable report caching: a cache hit would skip the
    /// taskgen pass and with it the trace events a probed run owes.
    pub fn is_probed(&self) -> bool {
        self.ctx.probe.is_enabled()
    }

    /// Set the memory hierarchy specs resolve against. Ignored by
    /// [`Session::from_engine_config`] sessions, whose configuration
    /// already embeds one.
    #[must_use]
    pub fn hierarchy(mut self, hier: &HierarchySpec) -> Session {
        self.ctx.hier = *hier;
        self
    }

    /// Set the CPU model used by roofline and software-study variants.
    #[must_use]
    pub fn cpu(mut self, cpu: CpuSpec) -> Session {
        self.ctx.cpu = cpu;
        self
    }

    /// Arm a deadline `d` from now. When it passes, the run stops at the
    /// next task boundary and returns a degraded report (never panics);
    /// a traced run's JSONL ends with one `aborted` record.
    #[must_use]
    pub fn deadline(self, d: Duration) -> Session {
        self.ctx.cancel.set_deadline_in(d);
        self
    }

    /// The session's cancellation token. Clone it to another thread and
    /// call `cancel()` to stop an in-flight run at the next task
    /// boundary. The same token is polled by every run of this session.
    pub fn cancel_token(&self) -> CancelToken {
        self.ctx.cancel.clone()
    }

    /// Replace the session's cancellation token. A serving layer installs
    /// its root kill switch here (so cancelling the root stops every run
    /// executed under this session) and derives per-request children from
    /// it via [`CancelToken::child`].
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Session {
        self.ctx.cancel = token;
        self
    }

    /// Set resource budgets. Exhausting a DRT planning budget degrades
    /// the rest of the run to S-U-C fallback tiles; exhausting the
    /// resident-byte cap degrades sharded execution to serial streaming.
    /// Either way the run completes and the report records why.
    #[must_use]
    pub fn budget(mut self, budget: ExecBudget) -> Session {
        self.ctx.budget = budget;
        self
    }

    /// Retry a panicked shard up to `n` times before failing with
    /// [`DrtError::ShardPanicked`]. Recovered runs are bit-identical to
    /// fault-free ones.
    #[must_use]
    pub fn retries(mut self, n: u32) -> Session {
        self.ctx.exec.max_retries = n;
        self
    }

    /// Install a chaos injector (tests only): the engine calls it at
    /// shard and task boundaries so `drt-verify` can inject worker
    /// panics, slow shards, and cancellations deterministically.
    #[must_use]
    pub fn chaos(mut self, chaos: Arc<dyn FaultInjector>) -> Session {
        self.ctx.chaos = Some(chaos);
        self
    }

    /// Simulate `Z = A · B` under this session's target and context.
    ///
    /// A degraded run (expired deadline, cancellation, exhausted budget)
    /// is still `Ok`: its report carries a `degradation` record saying
    /// why and how far it got. Use [`Session::run_ref`] to branch on
    /// completeness explicitly. The operands are borrowed, never cloned.
    ///
    /// # Errors
    ///
    /// Engine/tiling configuration errors as [`DrtError::Core`]; a shard
    /// that panicked through every retry as [`DrtError::ShardPanicked`].
    /// Analytic models are infallible.
    pub fn run_spmspm(&self, a: &CsMatrix, b: &CsMatrix) -> Result<RunReport, DrtError> {
        self.run_ref(WorkloadRef::Spmspm { a, b }).map(RunOutcome::into_report)
    }

    /// **The** execution path: every session entry point —
    /// [`Session::run_spmspm`], owned [`Workload`]s, queued [`Request`]s
    /// — lowers to a [`WorkloadRef`] and lands here, so a workload
    /// produces the same report bit for bit no matter which door it came
    /// in through.
    ///
    /// A single-stage SpMSpM pipeline is the degenerate case and produces
    /// a report bit-identical to the plain SpMSpM run (traces included).
    /// Multi-stage and tensor pipelines require a spec-backed session
    /// around an engine variant; their reports additionally carry
    /// per-stage phase breakdowns in `report.stages`.
    ///
    /// # Errors
    ///
    /// Engine/tiling configuration errors as [`DrtError::Core`]; a shard
    /// that panicked through every retry as [`DrtError::ShardPanicked`];
    /// `BadConfig` for pipeline shapes the session target cannot run:
    /// unsupported input/stage combinations, analytic specs on
    /// multi-stage pipelines, or multi-stage pipelines on a
    /// [`Session::from_engine_config`] session.
    pub fn run_ref(&self, w: WorkloadRef<'_>) -> Result<RunOutcome, DrtError> {
        match (w, &self.target) {
            (WorkloadRef::Spmspm { a, b }, Target::Spec(spec)) => spec.run_ft(a, b, &self.ctx),
            (WorkloadRef::Spmspm { a, b }, Target::Config(cfg)) => {
                run_spmspm_ft(a, b, cfg, &self.ctx, None)
            }
            (WorkloadRef::Pipeline { input, pipe }, Target::Spec(spec)) => {
                crate::pipeline::run_pipeline(input, pipe, spec, &self.ctx)
                    .map(RunOutcome::from_report)
            }
            (WorkloadRef::Pipeline { input, pipe }, Target::Config(_)) => {
                match (input, pipe.stages.as_slice()) {
                    (PipelineInput::Matrix(a), [Stage::Spmspm { b }]) => {
                        self.run_ref(WorkloadRef::Spmspm { a, b })
                    }
                    _ => Err(DrtError::Core(CoreError::BadConfig {
                        detail: "multi-stage pipelines need a spec-backed session".into(),
                    })),
                }
            }
        }
    }

    /// Run an owned [`Workload`]. MTTKRP and TTV workloads lower to their
    /// one-stage [`PipelineSpec::mttkrp`] / [`PipelineSpec::ttv`]
    /// pipelines, so reports are bit-identical to running those
    /// pipelines through [`Session::run_ref`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run_ref`].
    pub fn run_workload(&self, w: &Workload) -> Result<RunOutcome, DrtError> {
        match w {
            Workload::Spmspm { a, b } => self.run_ref(WorkloadRef::Spmspm { a, b }),
            Workload::Pipeline { input, pipe } => {
                self.run_ref(WorkloadRef::Pipeline { input: input.as_pipeline_input(), pipe })
            }
            Workload::Mttkrp { x, b, c } => self.run_ref(WorkloadRef::Pipeline {
                input: PipelineInput::Tensor(x),
                pipe: &PipelineSpec::mttkrp((**b).clone(), (**c).clone()),
            }),
            Workload::Ttv { x, v } => self.run_ref(WorkloadRef::Pipeline {
                input: PipelineInput::Tensor(x),
                pipe: &PipelineSpec::ttv((**v).clone()),
            }),
        }
    }

    /// Execute a typed [`Request`]: the session specialized to the
    /// request's deadline and budget runs its workload. A default request
    /// (`Request::new(w)`) executes exactly like `run_workload(&w)` —
    /// same report, bit for bit — which is what makes served and
    /// standalone runs comparable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::run_ref`].
    pub fn execute(&self, req: &Request) -> Result<Response, DrtError> {
        self.for_request(req).run_workload(&req.workload).map(|outcome| Response { outcome })
    }

    /// The session specialized to one request: a request deadline is
    /// armed on a fresh [`CancelToken::child`] of the session token (so
    /// concurrent requests never cancel each other but a session-level
    /// kill switch still reaches them), and the request budget tightens
    /// the session budget pointwise. With no deadline and an unlimited
    /// budget this is an exact clone.
    #[must_use]
    pub fn for_request(&self, req: &Request) -> Session {
        self.for_request_at(req, req.deadline.map(|d| std::time::Instant::now() + d))
    }

    /// [`Session::for_request`] with an absolute deadline instant — the
    /// serving layer's form, where deadlines are measured from request
    /// *submission*, not execution start.
    #[must_use]
    pub fn for_request_at(
        &self,
        req: &Request,
        deadline_at: Option<std::time::Instant>,
    ) -> Session {
        let mut s = self.clone();
        if let Some(at) = deadline_at {
            let token = s.ctx.cancel.child();
            token.set_deadline_at(at);
            s.ctx.cancel = token;
        }
        if req.budget.is_limited() {
            s.ctx.budget = s.ctx.budget.min_with(&req.budget);
        }
        s
    }

    /// The declarative spec this session targets, when built from one
    /// (`None` for [`Session::from_engine_config`] sessions).
    pub fn spec(&self) -> Option<&AccelSpec> {
        match &self.target {
            Target::Spec(spec) => Some(spec),
            Target::Config(_) => None,
        }
    }

    /// The concrete engine configuration a `run_spmspm(a, b)` call would
    /// execute, with data-dependent knobs (S-U-C sweep winner, adapt-micro
    /// halving) resolved the same way the run resolves them; a
    /// [`Session::from_engine_config`] session around it reproduces this
    /// session's run bit for bit. `None` for analytic variants. External
    /// checkers use this to rebuild the run's task stream and audit it
    /// against the report.
    ///
    /// # Errors
    ///
    /// Propagates tiling configuration errors, exactly as the run would.
    pub fn resolved_engine_config(
        &self,
        a: &CsMatrix,
        b: &CsMatrix,
    ) -> Result<Option<EngineConfig>, DrtError> {
        match &self.target {
            Target::Spec(spec) => spec.resolved_engine_config(a, b, &self.ctx),
            Target::Config(cfg) => Ok(Some(cfg.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Tiling;
    use drt_core::config::DrtConfig;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn registry_session_matches_direct_spec_run() {
        let a = unstructured(96, 96, 700, 2.0, 3);
        let hier = HierarchySpec::default().scaled_down(256);
        let direct = AccelSpec::extensor_op_drt()
            .run_ft(&a, &a, &RunCtx::new(&hier))
            .expect("direct")
            .into_report();
        let via_session = Session::from_registry("tactile")
            .expect("alias must resolve")
            .hierarchy(&hier)
            .run_spmspm(&a, &a)
            .expect("session");
        assert!(direct.bit_diff(&via_session).is_none(), "session must not change numbers");
    }

    #[test]
    fn engine_config_session_runs_serial_and_sharded_identically() {
        let a = unstructured(96, 96, 800, 2.0, 4);
        let parts = crate::spec::PartitionPreset::Balanced.partitions(6 * 1024);
        let cfg = EngineConfig {
            micro: (8, 8),
            hier: HierarchySpec::default().scaled_down(256),
            ..EngineConfig::new(("session", Tiling::Drt, DrtConfig::new(parts)))
        };
        let serial = Session::from_engine_config(cfg.clone()).run_spmspm(&a, &a).expect("serial");
        let sharded = Session::from_engine_config(cfg)
            .threads(4)
            .schedule(ShardSchedule::WorkStealing { tasks_per_shard: 2 })
            .run_spmspm(&a, &a)
            .expect("sharded");
        assert!(serial.bit_diff(&sharded).is_none(), "{:?}", serial.bit_diff(&sharded));
    }

    #[test]
    fn unknown_registry_name_is_a_typed_error() {
        let err = Session::from_registry("no-such-machine").expect_err("must not resolve");
        assert!(
            matches!(&err, crate::error::DrtError::UnknownVariant { name } if name == "no-such-machine"),
            "got {err:?}"
        );
        assert!(Session::from_registry("tactile").is_ok(), "alias must stay registered");
    }

    #[test]
    fn request_execution_matches_direct_run() {
        use crate::workload::{Request, Workload};
        let a = unstructured(64, 64, 400, 2.0, 9);
        let hier = HierarchySpec::default().scaled_down(256);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&hier);
        let direct = session.run_spmspm(&a, &a).expect("direct");
        let req = Request::new(Workload::spmspm(a.clone(), a.clone()));
        let via_request = session.execute(&req).expect("request");
        assert!(
            direct.bit_diff(via_request.report()).is_none(),
            "{:?}",
            direct.bit_diff(via_request.report())
        );
    }

    #[test]
    fn workload_forms_match_their_pipeline_lowering() {
        use crate::workload::Workload;
        use drt_workloads::tensor3::{dense_factor, Tensor3Gen};
        let hier = HierarchySpec::default().scaled_down(256);
        let session = Session::new(AccelSpec::extensor_op()).hierarchy(&hier);
        let x = Tensor3Gen::mode_skewed(24, 20, 22, 600, 5).generate();
        let (b, c) = (dense_factor(20, 8, 1), dense_factor(22, 8, 2));
        let run_pipe = |pipe: &PipelineSpec| {
            session
                .run_ref(WorkloadRef::Pipeline { input: PipelineInput::Tensor(&x), pipe })
                .expect("pipeline")
                .into_report()
        };
        let staged = run_pipe(&PipelineSpec::mttkrp(b.clone(), c.clone()));
        let typed = session
            .run_workload(&Workload::mttkrp(x.clone(), b, c))
            .expect("typed mttkrp")
            .into_report();
        assert!(staged.bit_diff(&typed).is_none(), "{:?}", staged.bit_diff(&typed));

        let v: Vec<f64> = (0..22).map(|k| 1.0 + k as f64 * 0.25).collect();
        let staged = run_pipe(&PipelineSpec::ttv(v.clone()));
        let typed =
            session.run_workload(&Workload::ttv(x.clone(), v)).expect("typed ttv").into_report();
        assert!(staged.bit_diff(&typed).is_none(), "{:?}", staged.bit_diff(&typed));
    }
}

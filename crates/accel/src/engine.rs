//! The shared SpMSpM simulation engine.
//!
//! Drives a `drt-core` task stream (S-U-C or DRT) over `Z = A · B`,
//! charging DRAM traffic, intersection/merge cycles, output-partial spills,
//! and tile-extraction latency — and computing the *actual* product
//! tile-by-tile so every simulated configuration is functionally validated
//! against the reference kernels (the paper's MKL check, §5.2.1).
//!
//! Traffic rules (the bandwidth/queuing fidelity of §5.2.1):
//!
//! * An input tile is fetched when its coordinate ranges differ from the
//!   tile currently resident for that tensor — consecutive tasks sharing a
//!   stationary tile fetch it once (tile reuse is exactly what tiling is
//!   for).
//! * Output partials go through an LRU [`crate::zcache::OutputCache`]
//!   sized by the Z buffer partition: revisited-after-eviction tiles pay
//!   spill writes and refill reads ("multiply-and-merge").
//! * The final output is written once in compressed form.
//!
//! ## One worker step, one reducer
//!
//! Every run executes the paper's per-task pipeline (Figure 5's task
//! list) through one worker step, `Worker::step`: load the tiles whose
//! ranges changed, intersect and multiply, measure the merge, and charge
//! the tile extraction. The step adds its order-independent effects to a
//! `Totals` (traffic, actions, MACCs, exposed extract cycles, output
//! entries, phases: all sums) and returns the task's order-dependent
//! merge record. One `Reducer` commits merge records in global task order
//! (the Z output cache, PE round-robin assignment and the merge and
//! extraction trace records), folds totals, and writes the report back.
//!
//! * A serial run streams: each generated task is stepped and committed
//!   at once, one resident task at a time.
//! * A sharded run (an [`ExecPolicy`] picks the schedule) materializes
//!   the task list, steps contiguous shards on their own workers, and
//!   reduces the shards in order.
//! * An incremental run ([`crate::incremental`]) steps only the tasks an
//!   operand delta touched, each as a one-task shard (`TaskCapture`), and
//!   reduces those with the stored captures of every other task.
//!
//! All three produce **bit-identical** reports and traces. Workers can
//! step tasks independently because residency after task *t* depends only
//! on task *t* itself: a worker seeds its resident-tile table from the
//! task immediately preceding its first.
//!
//! The public door is [`crate::session::Session::run_ref`]; a
//! hand-built [`EngineConfig`] runs through
//! [`crate::session::Session::from_engine_config`].

use crate::error::DrtError;
use crate::report::{Degradation, DegradeReason, PhaseBreakdown, RunOutcome, RunReport};
use crate::spec::{AccelSpec, RunCtx, SpecKind};
use crate::zcache::OutputCache;
use drt_core::budget::ExecBudget;
use drt_core::cancel::ExpiryKind;
use drt_core::config::DrtConfig;
use drt_core::drt::TileStats;
use drt_core::extractor::{ExtractionCost, ExtractorModel};
use drt_core::kernel::Kernel;
use drt_core::micro::MicroFormat;
use drt_core::par::par_map_isolated;
use drt_core::probe::{lane, replay_sorted, Event, Probe, TaggedEvent, TaggingSink};
use drt_core::taskgen::{shard_bounds, BudgetCause, Task, TaskGenOptions, TaskStream};
use drt_core::{CoreError, RankId};
use drt_kernels::spmspm::{gustavson_view_into, SpaWorkspace};
use drt_sim::energy::ActionCounts;
use drt_sim::intersect_unit::IntersectUnit;
use drt_sim::memory::HierarchySpec;
use drt_sim::pe::PeArray;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::{CsMatrix, MajorAxis};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Tiling scheme the engine drives.
#[derive(Debug, Clone)]
pub enum Tiling {
    /// Static uniform coordinate tiles of the given per-rank sizes
    /// (coordinates).
    Suc(BTreeMap<RankId, u32>),
    /// Dynamic reflexive tiling.
    Drt,
}

/// How a run's materialized task list is split into contiguous shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardSchedule {
    /// One contiguous chunk per worker, balanced to within one task.
    Static,
    /// Fixed-size shards pulled off an atomic cursor: with more shards
    /// than workers, fast workers steal the stragglers' leftover shards.
    WorkStealing {
        /// Tasks per shard (clamped to ≥ 1).
        tasks_per_shard: usize,
    },
    /// Explicit shard cut points (task indices, ascending). Mainly for
    /// tests that pin pathological boundaries — empty shards included.
    Explicit(Vec<usize>),
}

/// Execution policy for one engine run: worker count plus shard schedule.
///
/// `threads == 1` with a non-[`ShardSchedule::Explicit`] schedule takes
/// the classic serial path; everything else shards. Either way the report
/// and trace are bit-identical — the determinism contract tested by
/// `conformance.rs` and `shard_props.rs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// Shard schedule.
    pub schedule: ShardSchedule,
    /// How many times a panicked shard is re-run before the run fails
    /// with [`DrtError::ShardPanicked`]. Retried shards are bit-identical
    /// to their first attempt (workers are pure functions of the task
    /// list), so `max_retries > 0` never changes a successful run's
    /// numbers. Any non-zero value also routes `threads == 1` runs
    /// through the sharded path so panic isolation applies.
    pub max_retries: u32,
}

impl ExecPolicy {
    /// Single-threaded execution (the default).
    pub fn serial() -> ExecPolicy {
        ExecPolicy { threads: 1, schedule: ShardSchedule::Static, max_retries: 0 }
    }

    /// Statically sharded execution over `n` worker threads.
    pub fn threads(n: usize) -> ExecPolicy {
        ExecPolicy { threads: n.max(1), schedule: ShardSchedule::Static, max_retries: 0 }
    }

    /// This policy with up to `n` retries per panicked shard.
    pub fn with_retries(mut self, n: u32) -> ExecPolicy {
        self.max_retries = n;
        self
    }
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy::serial()
    }
}

/// Engine configuration for one accelerator variant.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Report label.
    pub name: String,
    /// Dataflow loop order, outermost first (e.g. `['j','k','i']` for a
    /// B-stationary sweep).
    pub loop_order: Vec<RankId>,
    /// Tiling scheme.
    pub tiling: Tiling,
    /// Buffer partitions and growth strategy (partitions also size the
    /// S-U-C capacity rule and the output cache).
    pub drt: DrtConfig,
    /// Micro-tile shape (paper default 32 × 32, §5.2.4).
    pub micro: (u32, u32),
    /// Micro-tile representation (hardware uses [`MicroFormat::Adaptive`];
    /// the software study uses plain `T-UC`, reproducing Figure 11's
    /// metadata-overhead outliers).
    pub micro_format: MicroFormat,
    /// PE intersection unit.
    pub intersect: IntersectUnit,
    /// Merge lanes for combining partial outputs on chip (1 = serial).
    pub merge_lanes: u32,
    /// Memory hierarchy.
    pub hier: HierarchySpec,
    /// Tile-extractor model (ignored for S-U-C).
    pub extractor: ExtractorModel,
    /// When `true`, runtime is DRAM-bound only (Study 2's idealized
    /// on-chip assumption for OuterSPACE/MatRaptor).
    pub ideal_on_chip: bool,
    /// When `true`, the run skips materializing [`RunReport::output`]
    /// (the report carries `None`). Every modeled number — traffic,
    /// cycles, seconds, counts — is computed before output assembly and
    /// is unaffected. Offline searches that only compare modeled seconds
    /// (the S-U-C candidate sweep) set this to avoid sorting each
    /// discarded candidate's entry stream.
    pub skip_output: bool,
}

impl EngineConfig {
    /// Resolve anything spec-like into a concrete engine configuration:
    /// a registered engine-backed [`AccelSpec`], or an ad-hoc
    /// `(name, Tiling, DrtConfig)` triple (the old three-argument form,
    /// now an `Into<AccelSpec>` conversion):
    ///
    /// ```rust
    /// use drt_accel::engine::{EngineConfig, Tiling};
    /// use drt_core::config::{DrtConfig, Partitions};
    ///
    /// let parts = Partitions::split(8192, &[("A", 0.25), ("B", 0.45), ("Z", 0.3)]);
    /// let cfg = EngineConfig::new(("demo", Tiling::Drt, DrtConfig::new(parts)));
    /// assert_eq!(cfg.name, "demo");
    /// ```
    ///
    /// The spec is resolved against [`HierarchySpec::default`]; override
    /// `hier` (or any other field) with struct-update syntax afterwards.
    ///
    /// # Panics
    ///
    /// Panics when the spec resolves to a closed-form analytic model —
    /// those have no engine configuration; run them through a
    /// [`crate::session::Session`] instead.
    pub fn new(spec: impl Into<AccelSpec>) -> EngineConfig {
        let spec = spec.into();
        match &spec.kind {
            SpecKind::Engine(es) => spec.engine_config(es, &HierarchySpec::default()),
            _ => panic!(
                "EngineConfig::new needs an engine-backed spec; `{}` is an analytic model",
                spec.name
            ),
        }
    }

    /// Task-generation options for this configuration's tiling, loop
    /// order and partitions (no probe, budget or cancel token attached).
    pub(crate) fn task_options(&self) -> TaskGenOptions {
        match &self.tiling {
            Tiling::Suc(sizes) => TaskGenOptions::suc(&self.loop_order, self.drt.clone(), sizes),
            Tiling::Drt => TaskGenOptions::drt(&self.loop_order, self.drt.clone()),
        }
    }
}

/// Simulate `Z = A · B` under `cfg` in the run context `ctx`: its probe,
/// execution policy, budgets, cancellation token and chaos hook (the
/// context's hierarchy is ignored; `cfg` carries its own). Reached
/// through [`crate::session::Session::run_ref`].
///
/// Outcomes:
///
/// * `Ok(RunOutcome::Complete(_))` — a fault-free run; bit-identical for
///   every execution policy (retries that never fire change nothing).
/// * `Ok(RunOutcome::Degraded(_))` — the run stopped cleanly at a task
///   boundary (cancel/deadline) or fell back to cheaper execution (budget
///   caps). The report's `degradation` field says why; its phase bytes
///   still partition its traffic, and a traced run ends with one
///   `aborted` record when the run stopped early.
/// * `Err(_)` — no trustworthy report exists: a tiling configuration
///   error ([`DrtError::Core`]), or a shard that kept panicking after
///   `exec.max_retries` retries ([`DrtError::ShardPanicked`], carrying
///   the committed-prefix report).
pub(crate) fn run_spmspm_ft(
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
    ctx: &RunCtx,
) -> Result<RunOutcome, DrtError> {
    let probe = &ctx.probe;
    if let Some(kind) = ctx.cancel.expiry_kind() {
        let reason = expiry_reason(kind);
        return Ok(degraded_entry(&cfg.name, reason, "expired before any work ran", probe));
    }
    let kernel = Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format)?;
    // Cow-based layout normalization: when the operands are already
    // row-major (the common case) no clone happens.
    let a_cow = a.as_major(MajorAxis::Row);
    let b_cow = b.as_major(MajorAxis::Row);
    let (a_rows, b_rows): (&CsMatrix, &CsMatrix) = (a_cow.as_ref(), b_cow.as_ref());
    let dims = (a.nrows(), b.ncols());
    // Generator caps ride on the task stream; `max_resident_bytes` is an
    // engine-level cap on the materialized task list (below).
    let gen_budget = ExecBudget {
        max_tasks: ctx.budget.max_tasks,
        max_resident_bytes: None,
        max_plan_candidates: ctx.budget.max_plan_candidates,
    };
    let stream = |p: Probe| {
        let opts = cfg.task_options().with_probe(p).with_budget(gen_budget.clone());
        TaskStream::build(&kernel, opts.with_cancel(ctx.cancel.clone()))
    };
    let exec = &ctx.exec;
    if exec.threads <= 1
        && !matches!(exec.schedule, ShardSchedule::Explicit(_))
        && exec.max_retries == 0
        && ctx.chaos.is_none()
    {
        return Ok(run_serial(a_rows, b_rows, cfg, probe, stream(probe.clone())?, None));
    }

    // ---- sharded path -----------------------------------------------------

    // 1. Materialize the task list. Generation is inherently sequential —
    //    each plan's base advances by the previous plan's extent — so only
    //    task execution shards. Generator events buffer into a tagging
    //    sink, to be re-interleaved with engine events at the end.
    let gen_sink = probe.is_enabled().then(|| Arc::new(TaggingSink::auto_gen()));
    let list = materialize(stream(tagging_probe(&gen_sink))?, ctx.budget.max_resident_bytes);
    if list.over_budget {
        // The materialized list is over budget: drop it and fall back to
        // serial streaming, which holds one task at a time. Numbers are
        // bit-identical to the sharded run (the determinism contract);
        // only wall-clock parallelism is lost, and the report records the
        // degradation.
        drop(list);
        let detail = format!(
            "materialized task list exceeded max_resident_bytes={}; \
             fell back to serial streaming execution",
            ctx.budget.max_resident_bytes.unwrap_or_default()
        );
        return Ok(run_serial(a_rows, b_rows, cfg, probe, stream(probe.clone())?, Some(detail)));
    }
    let tasks = &list.tasks;

    // 2. Shard bounds over the task list, per the schedule.
    let bounds = shard_ranges(tasks.len(), exec);

    // 3. Workers: each shard steps its tasks with its own residency,
    //    totals and trace buffer. Merge records are kept, not committed:
    //    the Z cache and PE assignment are order-dependent, so they belong
    //    to the reducer. Workers poll the cancel token before each task
    //    and call the chaos hook (if any) at shard and task boundaries.
    let traced = probe.is_enabled();
    let chaos = ctx.chaos.as_deref();
    let run_shard = |sidx: usize, attempt: u32| -> ShardOut {
        if let Some(ch) = chaos {
            ch.before_shard(sidx, attempt);
        }
        let range = bounds[sidx].clone();
        let sink = traced.then(|| Arc::new(TaggingSink::manual()));
        let prev = (!range.is_empty() && range.start > 0).then(|| &tasks[range.start - 1]);
        let mut worker = Worker::new(a_rows, b_rows, cfg, tagging_probe(&sink), prev);
        let mut totals = Totals::default();
        let mut recs = Vec::with_capacity(range.len());
        let mut aborted_at = None;
        for task in &tasks[range] {
            if ctx.cancel.expired() {
                aborted_at = Some(task.index);
                break;
            }
            if let Some(ch) = chaos {
                ch.before_task(task.index);
            }
            if let Some(s) = &sink {
                s.set_position(task.index, lane::LOAD);
            }
            recs.push(worker.step(task, &mut totals));
        }
        let events = sink.map(|s| s.drain()).unwrap_or_default();
        ShardOut { totals, recs, events, aborted_at }
    };

    // 4. Run every shard with per-shard panic isolation, retrying failed
    //    shards up to `exec.max_retries` times. Workers are pure
    //    functions of (task list, shard range) — shared state only ever
    //    advances in the reducer — so a retried shard reproduces its
    //    first attempt exactly and a recovered run stays bit-identical
    //    to a fault-free one.
    let mut results: Vec<Option<ShardOut>> = Vec::with_capacity(bounds.len());
    results.resize_with(bounds.len(), || None);
    let mut pending: Vec<usize> = (0..bounds.len()).collect();
    let mut attempt: u32 = 0;
    loop {
        let outs = par_map_isolated(exec.threads, &pending, |_, &sidx| run_shard(sidx, attempt));
        let mut failed: Vec<(usize, String)> = Vec::new();
        for (&sidx, out) in pending.iter().zip(outs) {
            match out {
                Ok(s) => results[sidx] = Some(s),
                Err(p) => failed.push((sidx, p.message)),
            }
        }
        if failed.is_empty() {
            break;
        }
        if attempt >= exec.max_retries {
            // Retries exhausted: surface a typed error carrying the
            // report over the contiguous prefix of shards before the
            // first (lowest) failing shard. `pending` is ascending, so
            // `failed` is too, and every shard below it completed.
            let (bad, message) = failed.remove(0);
            let prefix = results.into_iter().take(bad).map_while(|s| s).collect();
            let gen_events = gen_sink.map(|s| s.drain()).unwrap_or_default();
            let (mut partial, _) =
                reduce_shards(dims, cfg, prefix, list.skipped, gen_events, probe, true);
            partial.output = None;
            let committed = partial.tasks;
            probe.emit(|| Event::Aborted { reason: "shard_panicked", completed_tasks: committed });
            let range = &bounds[bad];
            return Err(DrtError::ShardPanicked {
                partial: Box::new(partial),
                task_range: (range.start as u64)..(range.end as u64),
                message,
                attempts: attempt + 1,
            });
        }
        attempt += 1;
        pending = failed.into_iter().map(|(s, _)| s).collect();
    }

    // 5. Deterministic reduction + trace replay over the committed
    //    shards (all of them unless a cancel cut execution short).
    let shard_outs: Vec<ShardOut> = results.into_iter().flatten().collect();
    debug_assert_eq!(shard_outs.len(), bounds.len());
    let gen_events = gen_sink.map(|s| s.drain()).unwrap_or_default();
    let (report, cut) =
        reduce_shards(dims, cfg, shard_outs, list.skipped, gen_events, probe, false);
    // A worker that saw the token expire cut the run short; otherwise
    // generation may have stopped early, and every materialized task
    // committed.
    let aborted = if cut {
        Some(ctx.cancel.expiry_kind().unwrap_or(ExpiryKind::Cancelled))
    } else {
        list.aborted
    };
    Ok(outcome(report, aborted, list.degraded, None, probe))
}

/// The serial streaming path of [`run_spmspm_ft`]: each task is stepped
/// and committed as the stream generates it (one resident task at a
/// time), events flow straight to the probe, and cancellation is handled
/// by the stream itself — so every generated task is a committed task.
/// `memory_note` marks a run that landed here because
/// `max_resident_bytes` rejected the materialized task list.
fn run_serial(
    a_rows: &CsMatrix,
    b_rows: &CsMatrix,
    cfg: &EngineConfig,
    probe: &Probe,
    mut stream: TaskStream<'_>,
    memory_note: Option<String>,
) -> RunOutcome {
    let mut worker = Worker::new(a_rows, b_rows, cfg, probe.clone(), None);
    let mut red = Reducer::new(cfg, probe.clone(), None);
    for task in &mut stream {
        let rec = worker.step(&task, &mut red.totals);
        red.commit(&rec);
    }
    let report = red.finish(a_rows.nrows(), b_rows.ncols(), stream.skipped_empty());
    outcome(report, stream.aborted(), stream.degraded(), memory_note, probe)
}

/// One shard worker's complete output, handed to the reducer.
struct ShardOut {
    totals: Totals,
    recs: Vec<MergeRec>,
    events: Vec<TaggedEvent>,
    /// Global index of the first task *not* executed because the cancel
    /// token expired mid-shard; `None` when the shard ran to completion.
    aborted_at: Option<u64>,
}

/// Reduce committed shard outputs and replay the trace. Shards come back
/// in input order and each shard's records are in task order, so folding
/// shard by shard commits in exactly the global serial order —
/// independent of how many workers ran.
///
/// If a shard aborted mid-run (cancel/deadline), only shards up to and
/// including it commit; per-task events past the committed prefix are
/// dropped so the trace stays a byte-identical prefix of the fault-free
/// trace (end-of-run summaries, which describe the partial run, stay).
/// `prefix_only` truncates the same way for a prefix of a failed run.
/// Returns the report (its `tasks` count the committed tasks) and
/// whether a shard was cut short.
fn reduce_shards(
    (nrows, ncols): (u32, u32),
    cfg: &EngineConfig,
    shard_outs: Vec<ShardOut>,
    skipped: u64,
    mut events: Vec<TaggedEvent>,
    probe: &Probe,
    prefix_only: bool,
) -> (RunReport, bool) {
    let cut = shard_outs.iter().position(|s| s.aborted_at.is_some());
    let commit_n = cut.map_or(shard_outs.len(), |i| i + 1);
    let sink = probe.is_enabled().then(|| Arc::new(TaggingSink::manual()));
    let mut red = Reducer::new(cfg, tagging_probe(&sink), sink.clone());
    for sout in shard_outs.into_iter().take(commit_n) {
        events.extend(sout.events);
        red.fold(&sout.totals, &sout.recs);
    }
    let report = red.finish(nrows, ncols, skipped);
    debug_assert_eq!(
        report.phases.total_bytes(),
        report.traffic.total(),
        "shard reduction must preserve the phase-byte partition of DRAM traffic"
    );
    if prefix_only || cut.is_some() {
        // Keep only the committed prefix of per-task events; end-of-run
        // summaries (`pos == u64::MAX`) describe the partial run and stay.
        events.retain(|e| e.pos < report.tasks || e.pos == u64::MAX);
    }
    if let Some(s) = &sink {
        events.extend(s.drain());
    }
    // Replay the merged event log in (task, phase-lane, seq) order —
    // bit-identical to the serial trace for any shard layout.
    replay_sorted(events, probe);
    (report, cut.is_some())
}

/// A probe recording into `sink`, or a disabled one for an untraced run.
fn tagging_probe(sink: &Option<Arc<TaggingSink>>) -> Probe {
    match sink {
        Some(s) => Probe::new(s.clone()),
        None => Probe::disabled(),
    }
}

/// The outcome of a finished run: degraded when it stopped early
/// (`aborted`), fell back to S-U-C tiles (`degraded`) or to serial
/// streaming (`memory_note`), in that precedence; complete otherwise.
/// A run that stopped early drops its incomplete functional output and
/// ends its trace with one `aborted` record.
fn outcome(
    mut report: RunReport,
    aborted: Option<ExpiryKind>,
    degraded: Option<BudgetCause>,
    memory_note: Option<String>,
    probe: &Probe,
) -> RunOutcome {
    let committed = report.tasks;
    report.degradation = if let Some(kind) = aborted {
        let reason = expiry_reason(kind);
        report.output = None;
        probe.emit(|| Event::Aborted { reason: reason.tag(), completed_tasks: committed });
        Some(Degradation {
            reason,
            completed_tasks: committed,
            detail: format!("run stopped at a task boundary after {committed} committed task(s)"),
        })
    } else if let Some(cause) = degraded {
        Some(budget_degradation(cause, committed))
    } else {
        memory_note.map(|detail| Degradation {
            reason: DegradeReason::MemoryBudgetExhausted,
            completed_tasks: committed,
            detail,
        })
    };
    RunOutcome::from_report(report)
}

/// Map a token expiry to its degradation reason.
pub(crate) fn expiry_reason(kind: ExpiryKind) -> DegradeReason {
    match kind {
        ExpiryKind::Cancelled => DegradeReason::Cancelled,
        ExpiryKind::DeadlineExceeded => DegradeReason::DeadlineExceeded,
    }
}

/// The degradation record for a DRT budget cap that switched the rest of
/// the run to S-U-C fallback tiles (the run still completes and covers
/// the whole iteration space).
pub(crate) fn budget_degradation(cause: BudgetCause, completed: u64) -> Degradation {
    let reason = match cause {
        BudgetCause::MaxTasks => DegradeReason::TaskBudgetExhausted,
        BudgetCause::MaxPlanCandidates => DegradeReason::PlanBudgetExhausted,
    };
    Degradation {
        reason,
        completed_tasks: completed,
        detail: "DRT budget exhausted; remaining region covered with S-U-C fallback tiles \
                 (run completed, functional output intact)"
            .into(),
    }
}

/// The degraded outcome for a run rejected at entry (expired token, zero
/// task budget): an all-zero report and one `aborted` trace record.
pub(crate) fn degraded_entry(
    name: &str,
    reason: DegradeReason,
    detail: &str,
    probe: &Probe,
) -> RunOutcome {
    let mut report = RunReport::empty(name);
    report.degradation = Some(Degradation { reason, completed_tasks: 0, detail: detail.into() });
    probe.emit(|| Event::Aborted { reason: reason.tag(), completed_tasks: 0 });
    RunOutcome::Degraded(report)
}

/// A run's materialized task list and the end state of the stream that
/// generated it.
pub(crate) struct TaskList {
    pub(crate) tasks: Vec<Task>,
    pub(crate) skipped: u64,
    pub(crate) plan_calls: u64,
    aborted: Option<ExpiryKind>,
    degraded: Option<BudgetCause>,
    /// Generation stopped early because the list outgrew the
    /// `max_resident_bytes` cap.
    over_budget: bool,
}

/// Drain `stream` into a [`TaskList`], stopping as soon as the estimated
/// resident bytes of the tasks so far exceed `max_resident_bytes`.
pub(crate) fn materialize(mut stream: TaskStream<'_>, max_resident_bytes: Option<u64>) -> TaskList {
    let mut tasks = Vec::new();
    let (mut resident, mut over_budget) = (0u64, false);
    for task in &mut stream {
        if let Some(cap) = max_resident_bytes {
            resident += estimated_task_bytes(&task);
            over_budget = resident > cap;
        }
        tasks.push(task);
        if over_budget {
            break;
        }
    }
    debug_assert!(over_budget || stream.emitted() as usize == tasks.len());
    TaskList {
        tasks,
        skipped: stream.skipped_empty(),
        plan_calls: stream.plan_calls(),
        aborted: stream.aborted(),
        degraded: stream.degraded(),
        over_budget,
    }
}

/// Deterministic estimate of one materialized task's resident heap
/// footprint, charged against `ExecBudget::max_resident_bytes`. A model
/// cap, not an allocator measurement — it only needs to be monotone in
/// task-list size and identical across platforms and thread counts.
fn estimated_task_bytes(task: &Task) -> u64 {
    let plan = &task.plan;
    let tile_bytes: u64 =
        plan.tiles.iter().map(|t| (std::mem::size_of::<TileStats>() + t.name.len()) as u64).sum();
    let range_bytes = (plan.grid_ranges.len() + plan.coord_ranges.len()) as u64 * 40;
    std::mem::size_of::<Task>() as u64 + tile_bytes + range_bytes
}

/// Contiguous shard bounds over `n_tasks` tasks under `exec`'s schedule.
fn shard_ranges(n_tasks: usize, exec: &ExecPolicy) -> Vec<Range<usize>> {
    match &exec.schedule {
        ShardSchedule::Static => shard_bounds(n_tasks, exec.threads),
        ShardSchedule::WorkStealing { tasks_per_shard } => {
            let per = (*tasks_per_shard).max(1);
            if n_tasks == 0 {
                vec![Range { start: 0, end: 0 }]
            } else {
                (0..n_tasks).step_by(per).map(|s| s..(s + per).min(n_tasks)).collect()
            }
        }
        ShardSchedule::Explicit(cuts) => {
            let mut bounds = Vec::with_capacity(cuts.len() + 1);
            let mut start = 0usize;
            for &c in cuts {
                let c = c.clamp(start, n_tasks);
                bounds.push(start..c);
                start = c;
            }
            bounds.push(start..n_tasks);
            bounds
        }
    }
}

/// Micro-tile parallelism of one task: how many PEs the LLB-level
/// distributor can spread the task's work over (paper Figure 5's task
/// list). Saturates at 1 for empty plans and all-zero micro-tile counts
/// so PE assignment always has at least one lane.
fn subtask_parallelism(tiles: &[TileStats]) -> u64 {
    tiles.iter().map(|t| t.micro_tiles).fold(1, u64::max)
}

/// The three coordinate ranges of one SpMSpM task.
struct TaskRanges {
    ir: Range<u32>,
    kr: Range<u32>,
    jr: Range<u32>,
}

impl TaskRanges {
    fn of(task: &Task) -> TaskRanges {
        // Planner invariant, not user input: every SpMSpM plan from
        // `drt-core` taskgen carries exactly the i/k/j coordinate ranges.
        TaskRanges {
            ir: task.plan.coord_ranges[&'i'].clone(),
            kr: task.plan.coord_ranges[&'k'].clone(),
            jr: task.plan.coord_ranges[&'j'].clone(),
        }
    }

    /// The residency slot (0 for "A", 1 for "B": SpMSpM plans carry
    /// exactly these two tiles) and the coordinate ranges that identify
    /// the tensor's resident tile.
    fn tile(&self, name: &str) -> (usize, [u32; 4]) {
        match name {
            "A" => (0, [self.ir.start, self.ir.end, self.kr.start, self.kr.end]),
            _ => (1, [self.kr.start, self.kr.end, self.jr.start, self.jr.end]),
        }
    }
}

/// The order-independent effects of a run, a shard, or one task. Every
/// field is a sum, so totals fold in any grouping; output entries
/// concatenate, and folding in task order keeps them in task order.
#[derive(Debug, Default)]
pub(crate) struct Totals {
    traffic: TrafficCounter,
    actions: ActionCounts,
    maccs: u64,
    exposed_extract: u64,
    out_entries: Vec<(u32, u32, f64)>,
    phases: PhaseBreakdown,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.traffic.merge(&other.traffic);
        self.actions.add(&other.actions);
        self.maccs += other.maccs;
        self.exposed_extract += other.exposed_extract;
        self.out_entries.extend_from_slice(&other.out_entries);
        self.phases.add(&other.phases);
    }
}

/// Order-dependent effects of one task, measured by [`Worker::step`] and
/// committed in global task order by [`Reducer::commit`].
#[derive(Debug)]
pub(crate) struct MergeRec {
    /// Z-cache key of the task's output tile (`Copy`, no per-task heap).
    key: [u32; 4],
    /// Compressed bytes the task adds to its output tile.
    added: u64,
    /// On-chip merge cycles.
    merge_cycles: u64,
    /// Total on-chip cycles (intersection + merge) handed to a PE.
    on_chip_cycles: u64,
    /// Micro-tile parallelism for the PE distributor.
    subtasks: u64,
    /// The task's tile-extraction cost (DRT only), traced at commit so
    /// the extraction record follows the merge records as in Figure 5's
    /// pipeline order.
    extract: Option<ExtractionCost>,
}

/// One worker's per-task state: the operands, the resident input tiles
/// and the SPA workspace. [`Worker::step`] is the only place a task
/// executes.
struct Worker<'c> {
    cfg: &'c EngineConfig,
    a_rows: &'c CsMatrix,
    b_rows: &'c CsMatrix,
    /// Resident-tile ranges for the two SpMSpM input tiles ("A" and "B")
    /// — fixed `Copy` slots instead of a name-keyed map, so residency
    /// tracking allocates nothing per task.
    resident: [Option<[u32; 4]>; 2],
    /// SPA workspace, reused across every task the worker steps.
    ws: SpaWorkspace,
    probe: Probe,
}

impl<'c> Worker<'c> {
    /// A worker whose residency is seeded, without charging traffic, from
    /// `prev`, the task before its first. Residency after task *t − 1* is
    /// fully determined by task *t − 1* alone (every plan carries tiles
    /// for all inputs), so the worker makes exactly the serial run's
    /// hit/fetch decisions.
    fn new(
        a_rows: &'c CsMatrix,
        b_rows: &'c CsMatrix,
        cfg: &'c EngineConfig,
        probe: Probe,
        prev: Option<&Task>,
    ) -> Worker<'c> {
        let mut resident = [None; 2];
        if let Some(p) = prev {
            let r = TaskRanges::of(p);
            for tile in &p.plan.tiles {
                let (slot, ranges) = r.tile(&tile.name);
                resident[slot] = Some(ranges);
            }
        }
        // The operands are borrowed for the worker's whole life, so their
        // addresses are stable and the workspace may cache fiber windows
        // across tasks.
        let mut ws = SpaWorkspace::new();
        ws.assume_stable_parents();
        Worker { cfg, a_rows, b_rows, resident, ws, probe }
    }

    /// The per-task pipeline: load the tiles whose ranges changed, compute
    /// (intersect + multiply) on them, measure the merge, then account
    /// the tile-extraction latency that produced the task in the first
    /// place (DRT only — extraction overlaps the previous task's compute,
    /// so only the excess is exposed). Order-independent effects go to
    /// `totals`; the merge itself is the returned record's, committed by
    /// the [`Reducer`].
    ///
    /// Steady-state allocation audit: a step performs **no heap
    /// allocation per task**. The A/B rectangles are borrowed `CsView`s
    /// (no tile materialization), the SPA accumulator, touched list, and
    /// B-fiber window cache live in the worker's [`SpaWorkspace`] (grown
    /// once to the widest tile, reset sparsely), operand tile sizes come
    /// from the planner's already-measured [`TileStats`] (no re-count
    /// over the parent arrays), and output triples append to
    /// `totals.out_entries` (amortized growth). The emitted entry order
    /// and every f64 bit match the historical extract-then-multiply
    /// chain: `gustavson_view_into` accumulates in the same row-major /
    /// A-coordinate / B-coordinate order and emits per row in ascending
    /// column order with exact cancellations skipped, which is precisely
    /// what iterating the extracted tile product produced.
    fn step(&mut self, task: &Task, totals: &mut Totals) -> MergeRec {
        let r = TaskRanges::of(task);
        let cfg = self.cfg;

        // Load: fetch input tiles whose coordinate ranges changed.
        for tile in &task.plan.tiles {
            let (slot, ranges) = r.tile(&tile.name);
            let bytes = tile.footprint();
            if self.resident[slot] != Some(ranges) {
                totals.traffic.read(&tile.name, bytes);
                self.resident[slot] = Some(ranges);
                totals.phases.load.bytes += bytes;
                self.probe.emit(|| Event::Fetch { tensor: &tile.name, bytes });
            } else {
                self.probe.emit(|| Event::Hit { tensor: &tile.name, bytes });
            }
            // The tile streams over the NoC to PEs regardless of whether
            // DRAM supplied it or the LLB already held it.
            totals.actions.noc_bytes += bytes;
            totals.actions.llb_bytes += bytes;
            totals.actions.pe_buf_bytes += bytes;
        }

        // Compute: the functional product plus the intersection-scan
        // cycle cost. Inner-product co-iteration intersects each occupied
        // A row with each occupied B column of the task, so the scan
        // volume is operand-nnz × co-iterated-fiber-count (exactly the
        // work a skip-based unit skips through and a parallel unit
        // divides — Figure 12's lever).
        let va = self.a_rows.view(r.ir.clone(), r.kr.clone());
        let vb = self.b_rows.view(r.kr.clone(), r.jr.clone());
        let tp = gustavson_view_into(
            &va,
            &vb,
            &mut self.ws,
            r.ir.start,
            r.jr.start,
            &mut totals.out_entries,
        );
        if cfg.skip_output {
            // The entries would only feed the (skipped) output assembly;
            // dropping them per task keeps the buffer's capacity bounded
            // by one task's output. All counters read `tp`, not the buffer.
            totals.out_entries.clear();
        }
        totals.maccs += tp.maccs;
        totals.actions.maccs += tp.maccs;
        // The planner measured each tile's exact nnz when it emitted the
        // task (pinned by `drt-core`'s planner tests to equal a direct
        // rectangle count), so the scan-volume model reads it instead of
        // re-counting the rectangles per task.
        let a_nnz = task.plan.tile("A").map_or(0, |t| t.nnz);
        let b_nnz = task.plan.tile("B").map_or(0, |t| t.nnz);
        let occ_i = a_nnz.min(r.ir.len() as u64).max(1);
        let occ_j = b_nnz.min(r.jr.len() as u64).max(1);
        let scan = a_nnz * occ_j + b_nnz * occ_i;
        let isect_cycles = cfg.intersect.cycles_from_counts(scan, tp.maccs);
        totals.actions.intersect_steps += scan;
        totals.phases.compute.cycles += isect_cycles;

        // Merge: measured here, committed by the reducer.
        let merge_cycles = tp.out_nnz.div_ceil(cfg.merge_lanes.max(1) as u64);
        let on_chip_cycles = isect_cycles + merge_cycles;

        // Extract (DRT only; S-U-C tiles are static).
        let extract = matches!(cfg.tiling, Tiling::Drt).then(|| {
            let cost = cfg.extractor.tile_cost(&task.plan.trace, &task.plan.tiles);
            totals.actions.extractor_words += task.plan.trace.meta_words;
            let effective = cfg.extractor.effective_cycles(&cost);
            totals.phases.extract.cycles += effective;
            totals.exposed_extract += effective.saturating_sub(on_chip_cycles);
            cost
        });

        MergeRec {
            key: [r.ir.start, r.ir.end, r.jr.start, r.jr.end],
            added: cfg.drt.size_model.coo_bytes(tp.out_nnz as usize, 2) as u64,
            merge_cycles,
            on_chip_cycles,
            subtasks: subtask_parallelism(&task.plan.tiles),
            extract,
        }
    }
}

/// One task stepped as a one-task shard: its totals plus its merge
/// record. This is the content-addressed unit of incremental
/// re-execution ([`crate::incremental`]): a task whose plan, predecessor
/// residency, and operand rows are unchanged since a previous run
/// contributes exactly this capture again, so splicing it is
/// bit-identical to re-executing the task — the same purity argument that
/// makes sharded runs bit-identical to serial ones.
#[derive(Debug)]
pub(crate) struct TaskCapture {
    pub(crate) totals: Totals,
    pub(crate) rec: MergeRec,
}

impl TaskCapture {
    /// Step `task` alone with residency seeded from `prev`, exactly as a
    /// shard worker whose range starts at `task` would. The output
    /// entries are trimmed to their length: a capture may be stored for
    /// many runs.
    pub(crate) fn new(
        a_rows: &CsMatrix,
        b_rows: &CsMatrix,
        cfg: &EngineConfig,
        prev: Option<&Task>,
        task: &Task,
    ) -> TaskCapture {
        let mut totals = Totals::default();
        let mut worker = Worker::new(a_rows, b_rows, cfg, Probe::disabled(), prev);
        let rec = worker.step(task, &mut totals);
        totals.out_entries.shrink_to_fit();
        TaskCapture { totals, rec }
    }
}

/// The order-dependent half of every run: commits merge records in
/// global task order through the Z output cache and the PE round-robin,
/// folds totals, and writes the report back. Serial runs commit each
/// task as it is stepped; sharded and incremental runs fold whole shards
/// (an incremental task is a one-task shard).
pub(crate) struct Reducer<'c> {
    cfg: &'c EngineConfig,
    /// The run's totals: the folded shards' plus the reducer's own merge
    /// and writeback charges.
    totals: Totals,
    pes: PeArray,
    zcache: OutputCache,
    /// Merge records committed so far. Tasks commit contiguously from 0,
    /// so this is also the next record's task position.
    committed: u64,
    probe: Probe,
    /// The tagging sink behind `probe` on the sharded path, whose trace
    /// is replayed in task order afterwards.
    tags: Option<Arc<TaggingSink>>,
}

impl<'c> Reducer<'c> {
    pub(crate) fn new(
        cfg: &'c EngineConfig,
        probe: Probe,
        tags: Option<Arc<TaggingSink>>,
    ) -> Reducer<'c> {
        Reducer {
            cfg,
            totals: Totals::default(),
            pes: PeArray::new(cfg.hier.num_pes),
            zcache: OutputCache::new(cfg.drt.partitions.get("Z")),
            committed: 0,
            probe,
            tags,
        }
    }

    /// Commit one task's merge: push its delta through the LRU Z cache
    /// (spill writes / refill reads on eviction) and hand its on-chip
    /// work to a PE, then trace its extraction.
    fn commit(&mut self, rec: &MergeRec) {
        if let Some(s) = &self.tags {
            s.set_position(self.committed, lane::MERGE);
        }
        self.committed += 1;
        let t = &mut self.totals;
        t.phases.merge.cycles += rec.merge_cycles;
        // The LLB-level distributor schedules micro-tile pairs to PEs
        // (paper Figure 5's task list), so one LLB task's work spreads
        // over up to `micro-tile pairs` PEs, round-robin.
        self.pes.assign_parallel(rec.on_chip_cycles, rec.subtasks);

        let charge = self.zcache.access(&rec.key, rec.added);
        t.traffic.write("Z", charge.spill_writes);
        t.traffic.read("Z", charge.refill_reads);
        t.phases.merge.bytes += charge.spill_writes + charge.refill_reads;
        if charge.spill_writes > 0 {
            self.probe.emit(|| Event::Spill { bytes: charge.spill_writes });
        }
        if charge.refill_reads > 0 {
            self.probe.emit(|| Event::Refill { bytes: charge.refill_reads });
        }
        if let Some(c) = rec.extract {
            self.probe.emit(|| Event::Extraction {
                aggregate: c.aggregate,
                md_build: c.md_build,
                distribute: c.distribute,
            });
        }
    }

    /// Commit a shard's merge records (in task order), then fold its
    /// totals.
    pub(crate) fn fold(&mut self, totals: &Totals, recs: &[MergeRec]) {
        for rec in recs {
            self.commit(rec);
        }
        self.totals.add(totals);
    }

    /// Writeback: flush the Z cache (resident tiles stream out,
    /// multi-segment spills merge), assemble the functional output from
    /// the task-ordered partials with [`finalize_output`] (host work
    /// only, modeled by none of the report's numbers), and assemble the
    /// report over the committed tasks.
    pub(crate) fn finish(mut self, nrows: u32, ncols: u32, skipped_tasks: u64) -> RunReport {
        if let Some(s) = &self.tags {
            s.set_position(u64::MAX, lane::FINISH);
        }
        let cfg = self.cfg;
        let mut t = self.totals;
        let fin = self.zcache.finish();
        t.traffic.read("Z", fin.merge_reads);
        t.traffic.write("Z", fin.final_writes);
        t.phases.writeback.bytes += fin.merge_reads + fin.final_writes;
        // Output assembly happens after every modeled number is final, so
        // skipping it (offline candidate sweeps) cannot perturb a report.
        let z = (!cfg.skip_output).then(|| finalize_output(nrows, ncols, t.out_entries));

        t.actions.dram_bytes = t.traffic.total();
        let compute_cycles = self.pes.makespan();
        let mem_seconds = cfg.hier.dram.seconds_for(t.traffic.total());
        let seconds = if cfg.ideal_on_chip {
            mem_seconds
        } else {
            mem_seconds.max(compute_cycles as f64 / cfg.hier.clock_hz)
                + t.exposed_extract as f64 / cfg.hier.clock_hz
        };

        for (phase, stats) in t.phases.named() {
            self.probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
        }

        RunReport {
            name: cfg.name.clone(),
            traffic: t.traffic,
            maccs: t.maccs,
            compute_cycles,
            exposed_extract_cycles: t.exposed_extract,
            seconds,
            output: z,
            tasks: self.committed,
            skipped_tasks,
            actions: t.actions,
            phases: t.phases,
            stages: Vec::new(),
            degradation: None,
        }
    }
}

/// Merge accumulated per-task partial entries into the final output
/// without a global sort: a stable counting sort by row, then per row
/// either a straight copy, when its columns already ascend strictly (one
/// partial per `(i, j)`, as when the tasks covering a row split `j` in
/// ascending order and never split `k`), or one dense-accumulator pass,
/// which sorts only that row's distinct columns. Partials of one `(i, j)`
/// are summed in the order they appear — task order, the order the
/// [`Reducer`] folds them in — and exact zeros (`0.0` and `-0.0`) are
/// dropped.
pub(crate) fn finalize_output(nrows: u32, ncols: u32, entries: Vec<(u32, u32, f64)>) -> CsMatrix {
    let n = nrows as usize;
    let mut seg = vec![0usize; n + 1];
    for &(r, _, _) in &entries {
        seg[r as usize + 1] += 1;
    }
    for i in 0..n {
        seg[i + 1] += seg[i];
    }
    let mut next = seg[..n].to_vec();
    let mut cols = vec![0u32; entries.len()];
    let mut vals = vec![0f64; entries.len()];
    for (r, c, v) in entries {
        let p = &mut next[r as usize];
        cols[*p] = c;
        vals[*p] = v;
        *p += 1;
    }
    drop(next);
    // Each row is compacted in place: the rows before it kept at most as
    // many entries as they read, so row `i`'s output starts at or before
    // its first input; a copied row writes each entry at or before the
    // slot it reads, and a summed row is written only after it is summed.
    // The accumulator is allocated on the first row that needs it.
    let mut acc: Vec<f64> = Vec::new();
    let mut seen: Vec<bool> = Vec::new();
    let mut touched: Vec<u32> = Vec::new();
    let (mut start, mut w) = (0, 0);
    for i in 0..n {
        let end = seg[i + 1];
        if cols[start..end].windows(2).all(|p| p[0] < p[1]) {
            for p in start..end {
                if vals[p] != 0.0 {
                    cols[w] = cols[p];
                    vals[w] = vals[p];
                    w += 1;
                }
            }
        } else {
            if acc.is_empty() {
                acc = vec![0f64; ncols as usize];
                seen = vec![false; ncols as usize];
            }
            for p in start..end {
                let c = cols[p] as usize;
                if seen[c] {
                    acc[c] += vals[p];
                } else {
                    seen[c] = true;
                    acc[c] = vals[p];
                    touched.push(cols[p]);
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                seen[c as usize] = false;
                let v = acc[c as usize];
                if v != 0.0 {
                    cols[w] = c;
                    vals[w] = v;
                    w += 1;
                }
            }
            touched.clear();
        }
        seg[i + 1] = w;
        start = end;
    }
    cols.truncate(w);
    cols.shrink_to_fit();
    vals.truncate(w);
    vals.shrink_to_fit();
    CsMatrix::from_parts(nrows, ncols, MajorAxis::Row, seg, cols, vals)
        .expect("rows ascend and columns ascend within a row")
}

/// The paper's offline S-U-C shape sweep (§5.2.1): run sampled candidate
/// shapes of `base` under `exec`, unprobed and without output assembly,
/// and return the shape (in coordinates) with the least modeled seconds,
/// the first on ties. Callers pin it with [`Tiling::Suc`] and run once,
/// so repeated runs on similar operands — e.g. the BFS levels of one
/// workload — can reuse the winner. The winner is independent of `exec`
/// because every candidate's report is.
///
/// # Errors
///
/// Propagates engine errors; returns `BadConfig` when no candidate shape
/// satisfies the capacity rule.
pub(crate) fn best_suc_shape(
    a: &CsMatrix,
    b: &CsMatrix,
    base: &EngineConfig,
    max_candidates: usize,
    exec: &ExecPolicy,
) -> Result<BTreeMap<RankId, u32>, DrtError> {
    // S-U-C tiles are not bound to DRT's micro-tile grid: the scheme may
    // pick any coordinate shape (it pre-tiles offline). Quantize the sweep
    // to the largest power-of-two square whose worst-case-dense tile fits
    // the smallest input partition, capped at the configured micro shape.
    let sm = base.drt.size_model;
    let min_part = base.drt.partitions.get("A").min(base.drt.partitions.get("B"));
    let mut quantum = 1u32;
    while quantum * 2 <= base.micro.0.max(base.micro.1)
        && drt_core::suc::dense_footprint(&[quantum * 2, quantum * 2], &sm) <= min_part
    {
        quantum *= 2;
    }
    let base = EngineConfig { micro: (quantum, quantum), skip_output: true, ..base.clone() };
    let kernel = Kernel::spmspm(a, b, base.micro)?;
    let mut candidates = drt_core::suc::candidate_shapes(&kernel, &base.drt.partitions, &sm);
    // Prune shapes whose task-box count explodes (tiny tiles over a large
    // iteration space visit billions of empty boxes — never competitive,
    // and the paper's offline sweep would discard them immediately). Keep
    // at least the largest-volume shape as a fallback.
    let boxes = |shape: &BTreeMap<RankId, u32>| -> u64 {
        shape.iter().map(|(&r, &sz)| (kernel.extent(r).div_ceil(sz.max(1))) as u64).product()
    };
    const BOX_BUDGET: u64 = 5_000_000;
    if candidates.iter().any(|c| boxes(c) <= BOX_BUDGET) {
        candidates.retain(|c| boxes(c) <= BOX_BUDGET);
    } else if let Some(best) = candidates.iter().min_by_key(|c| boxes(c)).cloned() {
        candidates = vec![best];
    }
    // Sample the sweep evenly across the volume-sorted shape space so both
    // cube-like and asymmetric shapes are represented (the paper sweeps
    // shapes per workload and keeps the best).
    candidates.sort_by_key(|s| s.values().map(|&v| v as u64).product::<u64>());
    let want = max_candidates.max(1).min(candidates.len().max(1));
    if candidates.len() > want {
        let step = (candidates.len() - 1) as f64 / (want - 1).max(1) as f64;
        let picked: Vec<_> =
            (0..want).map(|i| candidates[(i as f64 * step).round() as usize].clone()).collect();
        candidates = picked;
        candidates.dedup();
    }
    // Candidate passes skip output assembly: selection compares modeled
    // seconds only, which are final before the output is built.
    let ctx = RunCtx::default().with_exec(exec.clone());
    let mut best: Option<(f64, BTreeMap<RankId, u32>)> = None;
    for sizes in candidates {
        let cfg = EngineConfig { tiling: Tiling::Suc(sizes.clone()), ..base.clone() };
        let seconds = run_spmspm_ft(a, b, &cfg, &ctx)?.into_report().seconds;
        if best.as_ref().is_none_or(|(s, _)| seconds < *s) {
            best = Some((seconds, sizes));
        }
    }
    let (_, sizes) = best.ok_or(CoreError::BadConfig {
        detail: "no S-U-C shape satisfies the worst-case capacity rule".into(),
    })?;
    Ok(sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use drt_core::config::Partitions;
    use drt_core::probe::JsonlSink;
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::BufferSpec;
    use drt_tensor::format::SizeModel;
    use drt_workloads::patterns::{diamond_band, unstructured};
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    fn small_hier() -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 8192, ports: 2 },
            pe_buffer: BufferSpec { capacity_bytes: 512, ports: 2 },
            num_pes: 8,
            ..HierarchySpec::default()
        }
    }

    fn drt_cfg(llb: u64) -> DrtConfig {
        DrtConfig::new(crate::spec::PartitionPreset::Balanced.partitions(llb))
    }

    fn engine_cfg(name: &str, tiling: Tiling, llb: u64) -> EngineConfig {
        EngineConfig {
            micro: (8, 8),
            hier: small_hier(),
            ..EngineConfig::new((name, tiling, drt_cfg(llb)))
        }
    }

    fn run(a: &CsMatrix, b: &CsMatrix, cfg: &EngineConfig) -> Result<RunReport, DrtError> {
        run_exec(a, b, cfg, ExecPolicy::serial())
    }

    fn run_exec(
        a: &CsMatrix,
        b: &CsMatrix,
        cfg: &EngineConfig,
        exec: ExecPolicy,
    ) -> Result<RunReport, DrtError> {
        Session::from_engine_config(cfg.clone()).exec(exec).run_spmspm(a, b)
    }

    #[test]
    fn drt_output_matches_reference() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        let b = unstructured(96, 96, 700, 2.0, 2);
        let cfg = engine_cfg("drt", Tiling::Drt, 8192);
        let r = run(&a, &b, &cfg).expect("run");
        let reference = gustavson(&a, &b).z;
        assert!(
            r.output.as_ref().expect("functional").approx_eq(&reference, 1e-9),
            "simulated output must match the reference kernel"
        );
        assert_eq!(r.maccs, gustavson(&a, &b).maccs);
    }

    #[test]
    fn suc_output_matches_reference() {
        let a = diamond_band(64, 1200, 3);
        let sizes = BTreeMap::from([('i', 16u32), ('k', 16), ('j', 16)]);
        let cfg = engine_cfg("suc", Tiling::Suc(sizes), 128 * 1024);
        let r = run(&a, &a, &cfg).expect("run");
        let reference = gustavson(&a, &a).z;
        assert!(r.output.as_ref().expect("functional").approx_eq(&reference, 1e-9));
    }

    #[test]
    fn traffic_at_least_lower_bound() {
        let a = unstructured(128, 128, 900, 2.0, 4);
        let cfg = engine_cfg("drt", Tiling::Drt, 16 * 1024);
        let r = run(&a, &a, &cfg).expect("run");
        let z = r.output.as_ref().expect("functional");
        let lb = drt_sim::traffic::spmspm_lower_bound(&a, &a, z, &SizeModel::default());
        // Inputs: at least one full read each (micro-tiled representations
        // carry extra metadata, so ≥ the plain compressed bound).
        assert!(r.traffic.reads_of("A") >= lb.reads_of("A"));
        assert!(r.traffic.reads_of("B") >= lb.reads_of("B"));
        assert!(r.traffic.writes_of("Z") >= lb.writes_of("Z"));
    }

    #[test]
    fn drt_beats_suc_traffic_on_irregular_matrix() {
        // The paper's core claim at engine level.
        let a = unstructured(192, 192, 1400, 2.0, 5);
        let drt = run(&a, &a, &engine_cfg("drt", Tiling::Drt, 6 * 1024)).expect("run");
        let base = engine_cfg("suc", Tiling::Suc(BTreeMap::new()), 6 * 1024);
        let shape = best_suc_shape(&a, &a, &base, 6, &ExecPolicy::serial()).expect("sweep");
        let best_suc =
            run(&a, &a, &EngineConfig { tiling: Tiling::Suc(shape), ..base }).expect("run");
        assert!(
            drt.traffic.total() < best_suc.traffic.total(),
            "DRT traffic {} must beat best S-U-C traffic {}",
            drt.traffic.total(),
            best_suc.traffic.total()
        );
        // And both compute the right answer.
        assert!(drt
            .output
            .as_ref()
            .expect("functional")
            .approx_eq(best_suc.output.as_ref().expect("functional"), 1e-9));
    }

    #[test]
    fn stationary_tensor_read_once_per_sweep() {
        // With huge partitions, DRT covers everything in one task: each
        // input read exactly once (plus tiled metadata).
        let a = unstructured(64, 64, 300, 2.0, 6);
        let cfg = engine_cfg("drt", Tiling::Drt, 1 << 20);
        let r = run(&a, &a, &cfg).expect("run");
        assert_eq!(r.tasks, 1, "everything fits in one task");
        let sm = SizeModel::default();
        // One task → B read once; its bytes are bounded by ~2× the plain
        // compressed footprint (micro-tile metadata overhead).
        assert!(r.traffic.reads_of("B") < 2 * sm.cs_matrix_bytes(&a) as u64 + 4096);
    }

    #[test]
    fn rectangular_operands_compute_correctly() {
        // The F·Fᵀ / Fᵀ·F regime: ranks with very different extents.
        let f = unstructured(200, 24, 600, 2.0, 15);
        let ft = f.to_transposed().to_major(drt_tensor::MajorAxis::Row);
        for (a, b) in [(&f, &ft), (&ft, &f)] {
            let cfg = engine_cfg("rect", Tiling::Drt, 8192);
            let r = run(a, b, &cfg).expect("run");
            let reference = gustavson(a, b).z;
            assert!(r.output.as_ref().expect("functional").approx_eq(&reference, 1e-9));
            assert_eq!(r.maccs, gustavson(a, b).maccs);
        }
    }

    #[test]
    fn empty_operand_yields_empty_output_and_minimal_traffic() {
        let a = drt_tensor::CsMatrix::zero(64, 64, drt_tensor::MajorAxis::Row);
        let b = unstructured(64, 64, 200, 2.0, 16);
        let cfg = engine_cfg("empty", Tiling::Drt, 8192);
        let r = run(&a, &b, &cfg).expect("run");
        assert_eq!(r.output.as_ref().expect("functional").nnz(), 0);
        assert_eq!(r.maccs, 0);
        assert_eq!(r.tasks, 0, "all tasks skip on an empty operand");
    }

    #[test]
    fn ideal_on_chip_is_dram_bound() {
        let a = unstructured(96, 96, 500, 2.0, 7);
        let mut cfg = engine_cfg("ideal", Tiling::Drt, 8192);
        cfg.ideal_on_chip = true;
        let r = run(&a, &a, &cfg).expect("run");
        // Burst rounding on the aggregate differs from the unrounded
        // oracle by at most one burst.
        assert!((r.seconds - r.dram_bound_seconds(&cfg.hier)).abs() / r.seconds < 1e-2);
    }

    #[test]
    fn smaller_z_partition_spills_more() {
        // Identical input partitions (identical tiling) — only the output
        // cache differs.
        let a = diamond_band(128, 3000, 8);
        let big = DrtConfig::new(Partitions::from_bytes(&[("A", 2000), ("B", 4000), ("Z", 8000)]));
        let tiny = DrtConfig::new(Partitions::from_bytes(&[("A", 2000), ("B", 4000), ("Z", 200)]));
        let mk = |drt: DrtConfig, name: &str| EngineConfig {
            micro: (8, 8),
            hier: small_hier(),
            ..EngineConfig::new((name, Tiling::Drt, drt))
        };
        let r_big = run(&a, &a, &mk(big, "bigZ")).expect("run");
        let r_tiny = run(&a, &a, &mk(tiny, "tinyZ")).expect("run");
        assert!(
            r_tiny.traffic.of("Z") >= r_big.traffic.of("Z"),
            "tiny Z partition ({}) should spill at least as much as big ({})",
            r_tiny.traffic.of("Z"),
            r_big.traffic.of("Z")
        );
    }

    // ---- sharded execution ------------------------------------------------

    #[test]
    fn subtask_parallelism_saturates_at_one() {
        assert_eq!(subtask_parallelism(&[]), 1, "empty plan still occupies one PE lane");
        let zero = TileStats {
            name: "A".into(),
            nnz: 0,
            data_bytes: 0,
            macro_meta_bytes: 0,
            micro_tiles: 0,
            outer_rows: 0,
        };
        let some = TileStats { name: "B".into(), micro_tiles: 7, ..zero.clone() };
        assert_eq!(
            subtask_parallelism(std::slice::from_ref(&zero)),
            1,
            "zero micro tiles must not stall"
        );
        assert_eq!(subtask_parallelism(&[zero, some]), 7, "max over tensors");
    }

    #[test]
    fn shard_ranges_cover_schedules() {
        let ws = |per| ExecPolicy {
            threads: 3,
            schedule: ShardSchedule::WorkStealing { tasks_per_shard: per },
            max_retries: 0,
        };
        assert_eq!(shard_ranges(7, &ws(3)), vec![0..3, 3..6, 6..7]);
        assert_eq!(shard_ranges(0, &ws(3)), vec![0..0]);
        assert_eq!(shard_ranges(4, &ws(0)), vec![0..1, 1..2, 2..3, 3..4], "per-shard clamps to 1");
        let ex = |cuts: &[usize]| ExecPolicy {
            threads: 2,
            schedule: ShardSchedule::Explicit(cuts.to_vec()),
            max_retries: 0,
        };
        assert_eq!(shard_ranges(5, &ex(&[0, 2, 2, 9])), vec![0..0, 0..2, 2..2, 2..5, 5..5]);
        assert_eq!(shard_ranges(6, &ExecPolicy::threads(2)), vec![0..3, 3..6]);
    }

    fn report_bits_eq(name: &str, serial: &RunReport, sharded: &RunReport) {
        assert!(
            serial.bit_diff(sharded).is_none(),
            "{name}: sharded report diverged: {}",
            serial.bit_diff(sharded).unwrap()
        );
    }

    #[test]
    fn sharded_reports_bit_identical_to_serial() {
        let a = unstructured(96, 96, 900, 2.0, 21);
        let suc_sizes = BTreeMap::from([('i', 16u32), ('k', 16), ('j', 16)]);
        for (label, tiling, llb) in
            [("drt", Tiling::Drt, 6 * 1024), ("suc", Tiling::Suc(suc_sizes), 64 * 1024)]
        {
            let cfg = engine_cfg(label, tiling, llb);
            let serial = run(&a, &a, &cfg).expect("serial");
            assert!(serial.tasks > 1, "{label}: workload must span several tasks");
            for exec in [
                ExecPolicy::threads(2),
                ExecPolicy::threads(4),
                ExecPolicy::threads(64),
                ExecPolicy {
                    threads: 3,
                    schedule: ShardSchedule::WorkStealing { tasks_per_shard: 2 },
                    max_retries: 0,
                },
                ExecPolicy {
                    threads: 2,
                    schedule: ShardSchedule::Explicit(vec![0, 0, 3, 3, 5]),
                    max_retries: 0,
                },
            ] {
                let sharded = run_exec(&a, &a, &cfg, exec).expect("sharded");
                report_bits_eq(label, &serial, &sharded);
            }
        }
    }

    /// A `Write` that appends into a shared buffer, so a JSONL trace can
    /// be read back after the run.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            // Recover a poisoned guard: a panicking worker must not cascade
            // into a second panic in whoever reads the trace back.
            self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn traced_run(a: &CsMatrix, cfg: &EngineConfig, exec: &ExecPolicy) -> (RunReport, String) {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let r = Session::from_engine_config(cfg.clone())
            .probe(Probe::new(sink))
            .exec(exec.clone())
            .run_spmspm(a, a)
            .expect("run");
        let text = String::from_utf8(
            buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        )
        .expect("utf8");
        (r, text)
    }

    #[test]
    fn sharded_trace_bit_identical_to_serial() {
        let a = unstructured(96, 96, 900, 2.0, 22);
        let cfg = engine_cfg("trace", Tiling::Drt, 6 * 1024);
        let (serial_r, serial_t) = traced_run(&a, &cfg, &ExecPolicy::serial());
        assert!(serial_t.lines().count() > 10, "trace must have substance");
        for exec in [
            ExecPolicy::threads(2),
            ExecPolicy::threads(4),
            ExecPolicy {
                threads: 2,
                schedule: ShardSchedule::WorkStealing { tasks_per_shard: 1 },
                max_retries: 0,
            },
            ExecPolicy {
                threads: 1,
                schedule: ShardSchedule::Explicit(vec![2, 4]),
                max_retries: 0,
            },
        ] {
            let (r, t) = traced_run(&a, &cfg, &exec);
            report_bits_eq("trace", &serial_r, &r);
            assert_eq!(serial_t, t, "trace diverged under {exec:?}");
        }
    }

    #[test]
    fn sharded_handles_empty_task_list() {
        let a = drt_tensor::CsMatrix::zero(64, 64, drt_tensor::MajorAxis::Row);
        let b = unstructured(64, 64, 200, 2.0, 16);
        let cfg = engine_cfg("empty", Tiling::Drt, 8192);
        let serial = run(&a, &b, &cfg).expect("serial");
        let sharded = run_exec(&a, &b, &cfg, ExecPolicy::threads(4)).expect("run");
        report_bits_eq("empty", &serial, &sharded);
        assert_eq!(sharded.tasks, 0);
    }

    #[test]
    fn best_suc_winner_independent_of_exec() {
        let a = unstructured(128, 128, 1000, 2.0, 23);
        let base = engine_cfg("suc", Tiling::Suc(BTreeMap::new()), 6 * 1024);
        let s1 = best_suc_shape(&a, &a, &base, 4, &ExecPolicy::serial()).expect("serial");
        let s4 = best_suc_shape(&a, &a, &base, 4, &ExecPolicy::threads(4)).expect("threads");
        assert_eq!(s1, s4, "winning shape must not depend on the execution policy");
    }

    /// The sort-based finalize that [`finalize_output`] replaced, kept as
    /// its oracle: sort and sum duplicates, drop exact zeros, rebuild.
    fn finalize_sort_oracle(nrows: u32, ncols: u32, entries: Vec<(u32, u32, f64)>) -> CsMatrix {
        let merged = CsMatrix::from_entries(nrows, ncols, entries, MajorAxis::Row);
        let nonzero: Vec<(u32, u32, f64)> = merged.iter().filter(|&(_, _, v)| v != 0.0).collect();
        CsMatrix::from_entries(nrows, ncols, nonzero, MajorAxis::Row)
    }

    /// Structure and value bits of a matrix, for bit-level comparison.
    fn z_bits(z: &CsMatrix) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        let vals = z.values().iter().map(|v| v.to_bits()).collect();
        (z.seg().to_vec(), z.coord_array().to_vec(), vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// With at most two partials per `(i, j)` the summation order
        /// cannot matter (`a + b == b + a` bit for bit), so the linear
        /// finalize equals the sort-based oracle exactly: exact
        /// cancellations and `-0.0` sums are dropped, empty rows stay
        /// empty, and the last row and column are kept.
        #[test]
        fn finalize_matches_sort_oracle_with_two_partials(
            shape in (1u32..40, 1u32..40),
            cells in proptest::collection::vec(
                (0u32..40, 0u32..40, -4.0..4.0f64, 0u8..5),
                0..120,
            ),
        ) {
            let (nrows, ncols) = shape;
            let mut firsts = BTreeMap::new();
            for (r, c, v, kind) in cells {
                firsts.insert((r % nrows, c % ncols), (v, kind));
            }
            firsts.insert((nrows - 1, ncols - 1), (1.5, 1));
            firsts.insert((nrows - 1, 0), (-0.0, 0));
            firsts.insert((0, ncols - 1), (2.0, 2));
            let mut entries = Vec::new();
            let mut seconds = Vec::new();
            for (&(r, c), &(v, kind)) in &firsts {
                let first = if kind == 4 { -0.0 } else { v };
                entries.push((r, c, first));
                match kind {
                    0 => {}                            // one partial
                    1 => seconds.push((r, c, -first)), // exact cancellation
                    2 => seconds.push((r, c, v * 0.37 + 1.0)),
                    _ => seconds.push((r, c, -0.0)),   // signed zeros
                }
            }
            // Second partials arrive later, in a different order.
            entries.extend(seconds.into_iter().rev());
            let fast = finalize_output(nrows, ncols, entries.clone());
            let oracle = finalize_sort_oracle(nrows, ncols, entries);
            proptest::prop_assert_eq!(z_bits(&fast), z_bits(&oracle));
            proptest::prop_assert!(fast.values().iter().all(|&v| v != 0.0));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Rows whose columns arrive strictly ascending take the copy
        /// path; rows with shuffled or repeated columns take the
        /// accumulator. Rows of each kind are mixed in one matrix (and
        /// `all_ascending` makes every row the first kind), their entries
        /// interleave as tasks' outputs do, values include signed zeros,
        /// and at most two partials share an `(i, j)`, so the result must
        /// equal the sort-based oracle bit for bit.
        #[test]
        fn finalize_copy_path_matches_sort_oracle(
            shape in (1u32..24, 1u32..40),
            rows in proptest::collection::vec(
                (proptest::collection::btree_set(0u32..40, 0..12), 0u8..3, 0u32..1000),
                1..24,
            ),
            vals in proptest::collection::vec(-3i8..4, 64..65),
            all_ascending in 0u8..3,
        ) {
            let (nrows, ncols) = shape;
            let mut per_row: Vec<Vec<(u32, u32, f64)>> = Vec::new();
            let mut vi = 0usize;
            let mut next_val = || {
                vi += 1;
                match vals[vi % vals.len()] {
                    -3 => -0.0,
                    v => f64::from(v) * 0.75,
                }
            };
            for (r, (set, kind, seed)) in rows.iter().enumerate().take(nrows as usize) {
                // Strictly ascending and duplicate-free: the set's columns
                // that fit the shape.
                let mut cs: Vec<u32> = set.iter().copied().filter(|&c| c < ncols).collect();
                let kind = if all_ascending == 0 { 0 } else { *kind };
                let row: Vec<(u32, u32, f64)> = match kind {
                    0 => cs.iter().map(|&c| (r as u32, c, next_val())).collect(),
                    1 => {
                        // Distinct columns, rotated out of order.
                        let k = if cs.is_empty() { 0 } else { *seed as usize % cs.len() };
                        cs.rotate_left(k);
                        cs.reverse();
                        cs.iter().map(|&c| (r as u32, c, next_val())).collect()
                    }
                    _ => {
                        // A second partial for every other column.
                        let mut row: Vec<(u32, u32, f64)> =
                            cs.iter().map(|&c| (r as u32, c, next_val())).collect();
                        let mut extra: Vec<(u32, u32, f64)> = row
                            .iter()
                            .step_by(2)
                            .map(|&(i, j, v)| (i, j, if *seed % 2 == 0 { -v } else { next_val() }))
                            .collect();
                        extra.reverse();
                        row.extend(extra);
                        row
                    }
                };
                // The row's stated shape: kind 0 ascends strictly (the
                // copy path), every kind carries at most two partials per
                // column, and kind 1 repeats none.
                let mut partials = BTreeMap::new();
                for &(_, c, _) in &row {
                    *partials.entry(c).or_insert(0usize) += 1;
                }
                proptest::prop_assert!(partials.values().all(|&n| n <= 2));
                if kind == 0 {
                    proptest::prop_assert!(row.windows(2).all(|p| p[0].1 < p[1].1));
                }
                if kind == 1 {
                    proptest::prop_assert_eq!(partials.len(), row.len());
                }
                per_row.push(row);
            }
            // Interleave rows round-robin, keeping each row's own order.
            let mut entries = Vec::new();
            let longest = per_row.iter().map(Vec::len).max().unwrap_or(0);
            for p in 0..longest {
                for row in per_row.iter().rev() {
                    if let Some(&e) = row.get(p) {
                        entries.push(e);
                    }
                }
            }
            let fast = finalize_output(nrows, ncols, entries.clone());
            let oracle = finalize_sort_oracle(nrows, ncols, entries);
            proptest::prop_assert_eq!(z_bits(&fast), z_bits(&oracle));
            proptest::prop_assert!(fast.values().iter().all(|&v| v != 0.0));
        }
    }

    #[test]
    fn finalize_sums_partials_in_task_order() {
        // (1e16 + 1) rounds back to 1e16, so these three partials sum to
        // exactly zero in this order (dropped) and to 1 if the last two
        // swapped places.
        let z = finalize_output(2, 3, vec![(1, 2, 1e16), (0, 0, 4.0), (1, 2, 1.0), (1, 2, -1e16)]);
        assert_eq!(z.nnz(), 1);
        assert_eq!(z.get(0, 0), 4.0);
        let z = finalize_output(2, 3, vec![(1, 2, 1e16), (1, 2, -1e16), (1, 2, 1.0)]);
        assert_eq!(z.get(1, 2), 1.0);
    }

    #[test]
    fn k_tiled_suc_output_is_thread_count_independent() {
        // Static tiles eight k wide over a 64-wide contraction: an output
        // entry collects one partial per k tile that contributes to it.
        let a = unstructured(64, 64, 1600, 2.0, 31);
        let sizes = BTreeMap::from([('i', 16u32), ('k', 8), ('j', 16)]);
        let cfg = engine_cfg("suc-k8", Tiling::Suc(sizes), 128 * 1024);
        let mut k_tiles: BTreeMap<(u32, u32), BTreeSet<u32>> = BTreeMap::new();
        for (i, k, _) in a.iter() {
            for (_, j, _) in a.iter().filter(|&(r, _, _)| r == k) {
                k_tiles.entry((i, j)).or_default().insert(k / 8);
            }
        }
        let multi = k_tiles.values().filter(|t| t.len() >= 3).count();
        assert!(multi > 100, "only {multi} outputs have three or more partials");
        let serial = run(&a, &a, &cfg).expect("serial");
        let z1 = serial.output.as_ref().expect("functional");
        assert!(z1.approx_eq(&gustavson(&a, &a).z, 1e-9));
        let sharded = run_exec(&a, &a, &cfg, ExecPolicy::threads(4)).expect("sharded");
        assert_eq!(z_bits(z1), z_bits(sharded.output.as_ref().expect("functional")));
        report_bits_eq("suc-k8", &serial, &sharded);
    }
}

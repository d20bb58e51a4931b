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
//! merge record, which also says whether each input tile was fetched or
//! hit. One `Reducer` commits merge records in global task order (the Z
//! output cache, PE round-robin assignment and every engine trace
//! record), folds totals, and writes the report back. A run takes one of
//! two paths:
//!
//! * **Serial streaming.** Each generated task is stepped and committed
//!   at once. With a task store ([`crate::incremental`]) a task whose key
//!   hits folds its stored one-task capture (`TaskCapture`: totals plus
//!   merge record); a miss is stepped by the same worker and stored.
//! * **Sharded.** More than one thread (`RunCtx::threads`) or a chaos
//!   hook materializes the task list, buffering a traced run's generator
//!   events per task, steps one contiguous shard per thread on its own
//!   worker, and reduces the shards in order; the reducer replays each
//!   task's generator events just before committing it.
//!
//! Both produce **bit-identical** reports and traces. Workers can step
//! tasks independently because residency after task *t* depends only on
//! task *t* itself: a worker seeds its resident-tile table from the task
//! before its first, and a store run re-seeds it before each miss.
//!
//! The public door is [`crate::session::Session::run_ref`]; a
//! hand-built [`EngineConfig`] runs through
//! [`crate::session::Session::from_engine_config`].

use crate::error::DrtError;
use crate::incremental::TaskStore;
use crate::report::{Degradation, DegradeReason, PhaseBreakdown, RunOutcome, RunReport};
use crate::spec::{AccelSpec, RunCtx, SpecKind};
use crate::zcache::OutputCache;
use drt_core::cancel::ExpiryKind;
use drt_core::config::DrtConfig;
use drt_core::drt::TileStats;
use drt_core::extractor::{ExtractionCost, ExtractorModel};
use drt_core::kernel::Kernel;
use drt_core::micro::MicroFormat;
use drt_core::par::par_map_isolated;
use drt_core::probe::{Event, EventSink, OwnedEvent, Probe};
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
use std::sync::{Arc, Mutex, PoisonError};

/// Tiling scheme the engine drives.
#[derive(Debug, Clone)]
pub enum Tiling {
    /// Static uniform coordinate tiles of the given per-rank sizes
    /// (coordinates).
    Suc(BTreeMap<RankId, u32>),
    /// Dynamic reflexive tiling.
    Drt,
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
/// thread count, budgets, cancellation token and chaos hook (the
/// context's hierarchy is ignored; `cfg` carries its own). Reached
/// through [`crate::session::Session::run_ref`], or with a `store`
/// through [`crate::incremental::IncrementalSpmspm::run`].
///
/// Outcomes:
///
/// * `Ok(RunOutcome::Complete(_))` — a fault-free run; bit-identical at
///   every thread count.
/// * `Ok(RunOutcome::Degraded(_))` — the run stopped cleanly at a task
///   boundary (cancel/deadline) or fell back to S-U-C tiles (budget
///   caps). The report's `degradation` field says why; its phase bytes
///   still partition its traffic, and a traced run ends with one
///   `aborted` record when the run stopped early.
/// * `Err(_)` — no trustworthy report exists: a tiling configuration
///   error ([`DrtError::Core`]), or a panicked shard
///   ([`DrtError::ShardPanicked`], carrying the committed-prefix report).
pub(crate) fn run_spmspm_ft(
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
    ctx: &RunCtx,
    store: Option<&mut TaskStore>,
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
    let stream = |p: Probe| {
        let opts = cfg.task_options().with_probe(p).with_budget(ctx.budget.clone());
        TaskStream::build(&kernel, opts.with_cancel(ctx.cancel.clone()))
    };
    if ctx.threads <= 1 && ctx.chaos.is_none() {
        // A splice would cut a probed run's trace.
        let store = store.filter(|_| !probe.is_enabled());
        return Ok(run_serial(a_rows, b_rows, cfg, probe, stream(probe.clone())?, store));
    }

    // ---- sharded path -----------------------------------------------------

    // 1. Materialize the task list. Generation is inherently sequential —
    //    each plan's base advances by the previous plan's extent — so only
    //    task execution shards. A traced run buffers the generator's
    //    events per emitted task, for the reducer to replay.
    let log = probe.is_enabled().then(|| Arc::new(EventLog::default()));
    let gen_probe = match &log {
        Some(l) => Probe::new(l.clone()),
        None => Probe::disabled(),
    };
    let mut gen = stream(gen_probe)?;
    let (tasks, gen_events) = materialize(&mut gen, log.as_deref());

    // 2. Workers: each contiguous shard steps its tasks with its own
    //    residency and totals. Merge records are kept, not committed:
    //    the Z cache, PE assignment and trace are order-dependent, so
    //    they belong to the reducer. Workers poll the cancel token before
    //    each task and call the chaos hook (if any) at shard and task
    //    boundaries.
    let bounds = shard_bounds(tasks.len(), ctx.threads);
    let chaos = ctx.chaos.as_deref();
    let run_shard = |sidx: usize, range: &Range<usize>| -> ShardOut {
        if let Some(ch) = chaos {
            ch.before_shard(sidx);
        }
        let mut worker = Worker::new(a_rows, b_rows, cfg);
        worker.seed(range.start.checked_sub(1).map(|p| ranges6(&tasks[p])));
        let mut totals = Totals::default();
        let mut recs = Vec::with_capacity(range.len());
        let mut aborted_at = None;
        for task in &tasks[range.clone()] {
            if ctx.cancel.expired() {
                aborted_at = Some(task.index);
                break;
            }
            if let Some(ch) = chaos {
                ch.before_task(task.index);
            }
            recs.push(worker.step(task, &mut totals));
        }
        ShardOut { totals, recs, aborted_at }
    };

    // 3. Run every shard with per-shard panic isolation. Workers are pure
    //    functions of (task list, shard range), so a panic would recur on
    //    any re-run: the lowest panicked shard fails the run with a typed
    //    error carrying the report over the shards below it.
    let dims = (a.nrows(), b.ncols());
    let skipped = gen.skipped_empty();
    let outs = par_map_isolated(ctx.threads, &bounds, run_shard);
    let mut shard_outs = Vec::with_capacity(bounds.len());
    for (out, range) in outs.into_iter().zip(&bounds) {
        match out {
            Ok(s) => shard_outs.push(s),
            Err(p) => {
                let (mut partial, _) =
                    reduce_shards(dims, cfg, shard_outs, gen_events, skipped, probe);
                partial.output = None;
                let committed = partial.tasks;
                probe.emit(|| Event::Aborted {
                    reason: "shard_panicked",
                    completed_tasks: committed,
                });
                return Err(DrtError::ShardPanicked {
                    partial: Box::new(partial),
                    task_range: (range.start as u64)..(range.end as u64),
                    message: p.message,
                });
            }
        }
    }

    // 4. Deterministic reduction over the committed shards (all of them
    //    unless a cancel cut execution short).
    let (report, cut) = reduce_shards(dims, cfg, shard_outs, gen_events, skipped, probe);
    // A worker that saw the token expire cut the run short; otherwise
    // generation may have stopped early, and every materialized task
    // committed.
    let aborted = if cut {
        Some(ctx.cancel.expiry_kind().unwrap_or(ExpiryKind::Cancelled))
    } else {
        gen.aborted()
    };
    Ok(outcome(report, aborted, gen.degraded(), probe))
}

/// The serial streaming path of [`run_spmspm_ft`]: each task is stepped
/// and committed as the stream generates it (one resident task at a
/// time), events flow straight to the probe, and cancellation is handled
/// by the stream itself — so every generated task is a committed task.
/// A `store` (unprobed runs only) supplies or takes each task's capture.
fn run_serial(
    a_rows: &CsMatrix,
    b_rows: &CsMatrix,
    cfg: &EngineConfig,
    probe: &Probe,
    mut stream: TaskStream<'_>,
    store: Option<&mut TaskStore>,
) -> RunOutcome {
    let mut worker = Worker::new(a_rows, b_rows, cfg);
    let mut red = Reducer::new(cfg, probe.clone(), GenEvents::default());
    if let Some(store) = store {
        store.begin(a_rows, b_rows);
        for task in &mut stream {
            let capture = store.capture(task, |task, prev| {
                // The worker skips spliced tasks, so its residency may be
                // stale: re-seed it (a no-op after a stepped task).
                worker.seed(prev);
                let mut totals = Totals::default();
                let rec = worker.step(task, &mut totals);
                // A capture may be stored for many runs.
                totals.out_entries.shrink_to_fit();
                TaskCapture { totals, rec }
            });
            red.fold(&capture.totals, std::slice::from_ref(&capture.rec));
        }
        store.finish(stream.plan_calls());
    } else {
        for task in &mut stream {
            let rec = worker.step(&task, &mut red.totals);
            red.commit(&rec);
        }
    }
    let report = red.finish(a_rows.nrows(), b_rows.ncols(), stream.skipped_empty());
    outcome(report, stream.aborted(), stream.degraded(), probe)
}

/// One shard worker's complete output, handed to the reducer.
struct ShardOut {
    totals: Totals,
    recs: Vec<MergeRec>,
    /// Global index of the first task *not* executed because the cancel
    /// token expired mid-shard; `None` when the shard ran to completion.
    aborted_at: Option<u64>,
}

/// Reduce committed shard outputs. Shards come in input order and each
/// shard's records are in task order, so folding shard by shard commits
/// in exactly the global serial order — independent of how many workers
/// ran — and the reducer's trace (generator events replayed per task,
/// then the task's own records) is the serial trace.
///
/// If a shard aborted mid-run (cancel/deadline), only shards up to and
/// including it commit, so the trace is a byte-identical prefix of the
/// fault-free trace (end-of-run summaries, which describe the partial
/// run, follow it). Returns the report (its `tasks` count the committed
/// tasks) and whether a shard was cut short.
fn reduce_shards(
    (nrows, ncols): (u32, u32),
    cfg: &EngineConfig,
    shard_outs: Vec<ShardOut>,
    gen_events: GenEvents,
    skipped: u64,
    probe: &Probe,
) -> (RunReport, bool) {
    let cut = shard_outs.iter().position(|s| s.aborted_at.is_some());
    let commit_n = cut.map_or(shard_outs.len(), |i| i + 1);
    let mut red = Reducer::new(cfg, probe.clone(), gen_events);
    for sout in shard_outs.into_iter().take(commit_n) {
        red.fold(&sout.totals, &sout.recs);
    }
    let report = red.finish(nrows, ncols, skipped);
    debug_assert_eq!(
        report.phases.total_bytes(),
        report.traffic.total(),
        "shard reduction must preserve the phase-byte partition of DRAM traffic"
    );
    (report, cut.is_some())
}

/// The outcome of a finished run: degraded when it stopped early
/// (`aborted`) or fell back to S-U-C tiles (`degraded`), in that
/// precedence; complete otherwise. A run that stopped early drops its
/// incomplete functional output and ends its trace with one `aborted`
/// record.
fn outcome(
    mut report: RunReport,
    aborted: Option<ExpiryKind>,
    degraded: Option<BudgetCause>,
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
    } else {
        degraded.map(|cause| budget_degradation(cause, committed))
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

/// The generator's trace events on a traced sharded run, buffered while
/// the task list materialized: the events the stream emitted while
/// producing each task (its skips, plan and `task_emitted` record), then
/// the events after the last task (trailing skips). Empty on every other
/// run.
#[derive(Debug, Default)]
struct GenEvents {
    per_task: Vec<Vec<OwnedEvent>>,
    trailing: Vec<OwnedEvent>,
}

/// A sink that buffers events for later replay.
#[derive(Debug, Default)]
struct EventLog(Mutex<Vec<OwnedEvent>>);

impl EventLog {
    /// The events recorded since the previous call.
    fn take(&self) -> Vec<OwnedEvent> {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl EventSink for EventLog {
    fn record(&self, event: &Event<'_>) {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).push(OwnedEvent::from_event(event));
    }
}

/// Re-emit buffered events through `probe`.
fn replay(events: &[OwnedEvent], probe: &Probe) {
    for e in events {
        probe.emit(|| e.as_event());
    }
}

/// Drain `stream` into a task list. With a `log` (the sink behind the
/// stream's probe), the generator's events are split per emitted task.
fn materialize(stream: &mut TaskStream<'_>, log: Option<&EventLog>) -> (Vec<Task>, GenEvents) {
    let (mut tasks, mut events) = (Vec::new(), GenEvents::default());
    for task in &mut *stream {
        if let Some(log) = log {
            events.per_task.push(log.take());
        }
        tasks.push(task);
    }
    if let Some(log) = log {
        events.trailing = log.take();
    }
    debug_assert_eq!(stream.emitted() as usize, tasks.len());
    (tasks, events)
}

/// The i/k/j coordinate ranges of a task, flattened. Planner invariant,
/// not user input: every SpMSpM plan from `drt-core` taskgen carries
/// exactly these three ranges.
pub(crate) fn ranges6(task: &Task) -> [u32; 6] {
    let p = &task.plan.coord_ranges;
    let (i, k, j) = (&p[&'i'], &p[&'k'], &p[&'j']);
    [i.start, i.end, k.start, k.end, j.start, j.end]
}

/// Micro-tile parallelism of one task: how many PEs the LLB-level
/// distributor can spread the task's work over (paper Figure 5's task
/// list). Saturates at 1 for empty plans and all-zero micro-tile counts
/// so PE assignment always has at least one lane.
fn subtask_parallelism(tiles: &[TileStats]) -> u64 {
    tiles.iter().map(|t| t.micro_tiles).fold(1, u64::max)
}

/// The resident-tile keys a task with i/k/j ranges `r` leaves: A's
/// (i, k) and B's (k, j) coordinate rectangles, in residency-slot order.
fn tile_keys([i0, i1, k0, k1, j0, j1]: [u32; 6]) -> [[u32; 4]; 2] {
    [[i0, i1, k0, k1], [k0, k1, j0, j1]]
}

/// The order-independent effects of a run, a shard, or one task. Every
/// field is a sum, so totals fold in any grouping; output entries
/// concatenate, and folding in task order keeps them in task order.
#[derive(Debug, Default)]
struct Totals {
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
struct MergeRec {
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
    /// The load outcome of the input tiles, in residency-slot order
    /// ("A", "B"), traced at commit ahead of the merge records.
    loads: [Load; 2],
    /// The task's tile-extraction cost (DRT only), traced at commit so
    /// the extraction record follows the merge records as in Figure 5's
    /// pipeline order.
    extract: Option<ExtractionCost>,
}

/// One input tile's load in a task: fetched from DRAM, or served
/// resident.
#[derive(Debug, Clone, Copy, Default)]
struct Load {
    fetched: bool,
    /// The tile's footprint.
    bytes: u64,
}

/// The input tiles' names, in residency-slot order.
const TILE_NAMES: [&str; 2] = ["A", "B"];

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
}

impl<'c> Worker<'c> {
    /// A worker with nothing resident.
    fn new(a_rows: &'c CsMatrix, b_rows: &'c CsMatrix, cfg: &'c EngineConfig) -> Worker<'c> {
        // The operands are borrowed for the worker's whole life, so their
        // addresses are stable and the workspace may cache fiber windows
        // across tasks.
        let mut ws = SpaWorkspace::new();
        ws.assume_stable_parents();
        Worker { cfg, a_rows, b_rows, resident: [None; 2], ws }
    }

    /// Set residency, without charging traffic, to what it is right after
    /// a task with the i/k/j ranges `prev` executed (`None`: no task
    /// before, nothing resident). Residency after task *t − 1* is fully
    /// determined by task *t − 1* alone (every plan carries both input
    /// tiles), so the worker makes exactly the serial run's hit/fetch
    /// decisions.
    fn seed(&mut self, prev: Option<[u32; 6]>) {
        self.resident = prev.map(tile_keys).map_or([None; 2], |keys| keys.map(Some));
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
        let r = ranges6(task);
        let [i0, i1, k0, k1, j0, j1] = r;
        let cfg = self.cfg;

        // Load: fetch input tiles whose coordinate ranges changed. SpMSpM
        // plans carry exactly the tiles "A" (slot 0) and "B" (slot 1).
        let mut loads = [Load::default(); 2];
        for tile in &task.plan.tiles {
            let slot = usize::from(tile.name != "A");
            let ranges = tile_keys(r)[slot];
            let bytes = tile.footprint();
            let fetched = self.resident[slot] != Some(ranges);
            if fetched {
                totals.traffic.read(&tile.name, bytes);
                self.resident[slot] = Some(ranges);
                totals.phases.load.bytes += bytes;
            }
            loads[slot] = Load { fetched, bytes };
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
        let va = self.a_rows.view(i0..i1, k0..k1);
        let vb = self.b_rows.view(k0..k1, j0..j1);
        let tp = gustavson_view_into(&va, &vb, &mut self.ws, i0, j0, &mut totals.out_entries);
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
        let occ_i = a_nnz.min(u64::from(i1.saturating_sub(i0))).max(1);
        let occ_j = b_nnz.min(u64::from(j1.saturating_sub(j0))).max(1);
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
            key: [i0, i1, j0, j1],
            added: cfg.drt.size_model.coo_bytes(tp.out_nnz as usize, 2) as u64,
            merge_cycles,
            on_chip_cycles,
            subtasks: subtask_parallelism(&task.plan.tiles),
            loads,
            extract,
        }
    }
}

/// One task stepped as a one-task shard: its totals plus its merge
/// record. This is the content-addressed unit of a task store
/// ([`crate::incremental`]): a task whose plan, predecessor residency,
/// and operand rows are unchanged since a previous run contributes
/// exactly this capture again, so splicing it is bit-identical to
/// re-executing the task — the same purity argument that makes sharded
/// runs bit-identical to serial ones.
#[derive(Debug)]
pub(crate) struct TaskCapture {
    totals: Totals,
    rec: MergeRec,
}

/// The order-dependent half of every run: commits merge records in
/// global task order through the Z output cache and the PE round-robin,
/// folds totals, and writes the report back. It is also the only engine
/// code that traces, so the trace follows commit order on every path.
/// Serial runs commit each task as it is stepped or fold its capture
/// from a task store; sharded runs fold whole shards.
struct Reducer<'c> {
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
    /// Generator events to replay ahead of each commit (traced sharded
    /// runs; on the serial path the stream emits its own).
    gen: GenEvents,
}

impl<'c> Reducer<'c> {
    fn new(cfg: &'c EngineConfig, probe: Probe, gen: GenEvents) -> Reducer<'c> {
        Reducer {
            cfg,
            totals: Totals::default(),
            pes: PeArray::new(cfg.hier.num_pes),
            zcache: OutputCache::new(cfg.drt.partitions.get("Z")),
            committed: 0,
            probe,
            gen,
        }
    }

    /// Commit one task's merge: trace the task's generator events (if
    /// buffered) and its tile loads, push its delta through the LRU Z
    /// cache (spill writes / refill reads on eviction) and hand its
    /// on-chip work to a PE, then trace its extraction.
    fn commit(&mut self, rec: &MergeRec) {
        if let Some(events) = self.gen.per_task.get(self.committed as usize) {
            replay(events, &self.probe);
        }
        self.committed += 1;
        for (tensor, load) in TILE_NAMES.into_iter().zip(rec.loads) {
            let bytes = load.bytes;
            if load.fetched {
                self.probe.emit(|| Event::Fetch { tensor, bytes });
            } else {
                self.probe.emit(|| Event::Hit { tensor, bytes });
            }
        }
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
    fn fold(&mut self, totals: &Totals, recs: &[MergeRec]) {
        for rec in recs {
            self.commit(rec);
        }
        self.totals.add(totals);
    }

    /// Writeback: flush the Z cache (resident tiles stream out,
    /// multi-segment spills merge), assemble the functional output from
    /// the task-ordered partials with [`finalize_output`] (host work
    /// only, modeled by none of the report's numbers), and assemble the
    /// report over the committed tasks. The generator's trailing events
    /// are replayed only when every buffered task committed.
    fn finish(mut self, nrows: u32, ncols: u32, skipped_tasks: u64) -> RunReport {
        if self.committed as usize == self.gen.per_task.len() {
            replay(&self.gen.trailing, &self.probe);
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
/// shapes of `base` on `threads` worker threads, unprobed and without
/// output assembly, and return the shape (in coordinates) with the least
/// modeled seconds, the first on ties. Callers pin it with [`Tiling::Suc`] and run once,
/// so repeated runs on similar operands — e.g. the BFS levels of one
/// workload — can reuse the winner. The winner is independent of
/// `threads` because every candidate's report is.
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
    threads: usize,
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
    let ctx = RunCtx { threads, ..RunCtx::default() };
    let mut best: Option<(f64, BTreeMap<RankId, u32>)> = None;
    for sizes in candidates {
        let cfg = EngineConfig { tiling: Tiling::Suc(sizes.clone()), ..base.clone() };
        let seconds = run_spmspm_ft(a, b, &cfg, &ctx, None)?.into_report().seconds;
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
        run_threads(a, b, cfg, 1)
    }

    fn run_threads(
        a: &CsMatrix,
        b: &CsMatrix,
        cfg: &EngineConfig,
        threads: usize,
    ) -> Result<RunReport, DrtError> {
        Session::from_engine_config(cfg.clone()).threads(threads).run_spmspm(a, b)
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
        let shape = best_suc_shape(&a, &a, &base, 6, 1).expect("sweep");
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
            for threads in [2, 3, 4, 64] {
                let sharded = run_threads(&a, &a, &cfg, threads).expect("sharded");
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

    /// Run `session` on `A · A` with a JSONL probe; the report and trace.
    fn traced_run(a: &CsMatrix, session: Session) -> (RunReport, String) {
        let buf = SharedBuf::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let r = session.probe(Probe::new(sink)).run_spmspm(a, a).expect("run");
        let text = String::from_utf8(
            buf.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone(),
        )
        .expect("utf8");
        (r, text)
    }

    #[test]
    fn sharded_trace_bit_identical_to_serial() {
        // A's rows 64.. keep only columns below 48, so the last boxes of
        // the sweep find an empty tile: the stream skips tasks after its
        // last emitted one. The tight LLB forces fallback subdivisions.
        let base = unstructured(96, 96, 900, 2.0, 22);
        let kept = base.iter().filter(|&(r, c, _)| r < 64 || c < 48).collect();
        let a = CsMatrix::from_entries(96, 96, kept, MajorAxis::Row);
        let session = Session::from_engine_config(engine_cfg("trace", Tiling::Drt, 2 * 1024));
        let (serial_r, serial_t) = traced_run(&a, session.clone());
        let lines: Vec<&str> = serial_t.lines().collect();
        let is = |l: &&str, kind: &str| l.contains(&format!("\"event\": \"{kind}\""));
        let last_task = lines.iter().rposition(|l| is(l, "task_emitted")).expect("tasks");
        assert!(lines.iter().any(|l| is(l, "fallback")), "no fallback subdivision traced");
        assert!(
            lines[last_task..].iter().any(|l| is(l, "task_skipped")),
            "no task skipped after the last emitted task"
        );
        // A chaos hook routes a one-thread run through a shard worker.
        let chaos = session.clone().chaos(Arc::new(drt_core::chaos::NoFaults));
        for (label, sharded) in [
            ("t1+chaos", chaos),
            ("t2", session.clone().threads(2)),
            ("t3", session.clone().threads(3)),
            ("t4", session.threads(4)),
        ] {
            let (r, t) = traced_run(&a, sharded);
            report_bits_eq(label, &serial_r, &r);
            assert_eq!(serial_t, t, "trace diverged at {label}");
        }
    }

    #[test]
    fn sharded_handles_empty_task_list() {
        let a = drt_tensor::CsMatrix::zero(64, 64, drt_tensor::MajorAxis::Row);
        let b = unstructured(64, 64, 200, 2.0, 16);
        let cfg = engine_cfg("empty", Tiling::Drt, 8192);
        let serial = run(&a, &b, &cfg).expect("serial");
        let sharded = run_threads(&a, &b, &cfg, 4).expect("run");
        report_bits_eq("empty", &serial, &sharded);
        assert_eq!(sharded.tasks, 0);
    }

    #[test]
    fn best_suc_winner_independent_of_exec() {
        let a = unstructured(128, 128, 1000, 2.0, 23);
        let base = engine_cfg("suc", Tiling::Suc(BTreeMap::new()), 6 * 1024);
        let s1 = best_suc_shape(&a, &a, &base, 4, 1).expect("serial");
        let s4 = best_suc_shape(&a, &a, &base, 4, 4).expect("threads");
        assert_eq!(s1, s4, "winning shape must not depend on the thread count");
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
        let sharded = run_threads(&a, &a, &cfg, 4).expect("sharded");
        assert_eq!(z_bits(z1), z_bits(sharded.output.as_ref().expect("functional")));
        report_bits_eq("suc-k8", &serial, &sharded);
    }
}

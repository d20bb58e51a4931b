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
//! ## Sharded execution
//!
//! [`run_spmspm_exec`] splits the materialized task list into contiguous
//! shards (an [`ExecPolicy`] picks the schedule) and runs each shard's
//! load/compute/extract phases on its own worker. Order-dependent state —
//! the Z output cache, PE round-robin assignment, and the final output
//! assembly — is replayed by a single reducer in global task order, so
//! every report and every probe trace is **bit-identical** across thread
//! counts. Workers can run load/compute independently because residency
//! after task *t* depends only on task *t* itself: each worker seeds its
//! resident-tile table from the task immediately preceding its shard.
//!
//! The preferred entry point is [`crate::session::Session`]; the
//! `*_exec`/`*_ft` free functions are the policy-explicit engine API.

use crate::error::DrtError;
use crate::report::{Degradation, DegradeReason, PhaseBreakdown, RunOutcome, RunReport};
use crate::spec::{AccelSpec, SpecKind};
use crate::zcache::OutputCache;
use drt_core::budget::ExecBudget;
use drt_core::cancel::{CancelToken, ExpiryKind};
use drt_core::chaos::FaultInjector;
use drt_core::config::DrtConfig;
use drt_core::drt::TileStats;
use drt_core::extractor::ExtractorModel;
use drt_core::kernel::Kernel;
use drt_core::micro::MicroFormat;
use drt_core::par::par_map_isolated;
use drt_core::probe::{lane, replay_sorted, Event, Probe, TaggedEvent, TaggingSink};
use drt_core::taskgen::{shard_bounds, BudgetCause, Task, TaskGenOptions, TaskStream};
use drt_core::{CoreError, RankId};
use drt_kernels::spmspm::{gustavson_view_into, SpaWorkspace, TileProduct};
use drt_sim::energy::ActionCounts;
use drt_sim::intersect_unit::IntersectUnit;
use drt_sim::memory::HierarchySpec;
use drt_sim::pe::PeArray;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
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
    /// Cross-run tile-plan cache (see [`drt_core::plancache::PlanCache`]):
    /// DRT planner calls replay fingerprint-matched plans instead of
    /// re-measuring. `None` (the default) plans every run from scratch.
    /// One cache must serve exactly one engine configuration — the cache
    /// key does not encode the config.
    pub plan_cache: Option<Arc<drt_core::plancache::PlanCache>>,
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
}

/// Simulate `Z = A · B` under `cfg` with an instrumentation probe and an
/// execution policy. The one real engine entry point — everything else
/// forwards here ([`crate::session::Session`] is the ergonomic front).
///
/// The task stream reports tile plans and task emission; the engine
/// reports fetches, reuse hits, spills/refills, extraction costs, and
/// per-phase totals. Reports and traces are bit-identical for every
/// `exec` — sharding changes wall-clock time, never the numbers.
///
/// # Errors
///
/// Propagates tiling configuration errors from `drt-core` (bad loop order,
/// impossible partitions, S-U-C shapes violating the dense rule).
pub fn run_spmspm_exec(
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
    probe: &Probe,
    exec: &ExecPolicy,
) -> Result<RunReport, CoreError> {
    match run_spmspm_ft(a, b, cfg, probe, exec, &FaultPolicy::default()) {
        Ok(out) => Ok(out.into_report()),
        Err(DrtError::Core(e)) => Err(e),
        // With an inert fault policy and zero retries the legacy contract
        // is that worker panics propagate — keep it for this shim.
        Err(DrtError::ShardPanicked { task_range, message, .. }) => panic!(
            "parallel worker panicked on tasks {}..{}: {}",
            task_range.start, task_range.end, message
        ),
        Err(e) => Err(CoreError::BadConfig { detail: e.to_string() }),
    }
}

/// Fault-tolerance knobs for one engine run: resource budgets, a
/// cooperative cancellation/deadline token, and an optional chaos
/// injector. `Default` is fully inert — unlimited budgets, a token that
/// never expires, no injection — and adds no per-task cost beyond one
/// atomic load at each task boundary.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy {
    /// Resource budgets (task / planner-call / resident-byte caps).
    pub budget: ExecBudget,
    /// Cancellation + deadline handle, polled at task boundaries.
    pub cancel: CancelToken,
    /// Chaos-injection hook (`None` in production; `drt-verify`'s chaos
    /// harness installs seeded injectors here).
    pub chaos: Option<Arc<dyn FaultInjector>>,
}

/// One shard worker's complete output, handed to the reducer.
struct ShardOut<'c> {
    run: EngineRun<'c>,
    recs: Vec<MergeRec>,
    events: Vec<TaggedEvent>,
    /// Global index of the first task *not* executed because the cancel
    /// token expired mid-shard; `None` when the shard ran to completion.
    aborted_at: Option<u64>,
}

/// The fault-tolerant engine entry point: [`run_spmspm_exec`] plus panic
/// isolation with bounded shard retries, cooperative cancellation and
/// deadlines, and resource budgets with graceful degradation.
///
/// Outcomes:
///
/// * `Ok(RunOutcome::Complete(_))` — fault-free run; bit-identical to
///   [`run_spmspm_exec`] for every `exec` (retries that never fire do not
///   change numbers).
/// * `Ok(RunOutcome::Degraded(_))` — the run stopped cleanly at a task
///   boundary (cancel/deadline) or fell back to cheaper execution (budget
///   caps). The report's `degradation` field says why; its phase bytes
///   still partition its traffic, and a traced run ends with one
///   `aborted` record when the run stopped early.
/// * `Err(_)` — no trustworthy report exists: a configuration error, or
///   a shard that kept panicking after `exec.max_retries` retries
///   ([`DrtError::ShardPanicked`], carrying the committed-prefix report).
///
/// # Errors
///
/// Tiling configuration errors (as [`DrtError::Core`]) and exhausted
/// shard retries (as [`DrtError::ShardPanicked`]).
pub fn run_spmspm_ft(
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
    probe: &Probe,
    exec: &ExecPolicy,
    fault: &FaultPolicy,
) -> Result<RunOutcome, DrtError> {
    if let Some(kind) = fault.cancel.expiry_kind() {
        return Ok(degrade_before_work(&cfg.name, kind, probe));
    }
    let kernel = Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format)?;
    // Cow-based layout normalization: when the operands are already
    // row-major (the common case) no clone happens.
    let a_cow = a.as_major(MajorAxis::Row);
    let b_cow = b.as_major(MajorAxis::Row);
    let a_rows: &CsMatrix = a_cow.as_ref();
    let b_rows: &CsMatrix = b_cow.as_ref();
    // Generator caps ride on the task stream; `max_resident_bytes` is an
    // engine-level cap on the materialized task list (below).
    let gen_budget = ExecBudget {
        max_tasks: fault.budget.max_tasks,
        max_resident_bytes: None,
        max_plan_candidates: fault.budget.max_plan_candidates,
    };
    let mk_opts = |p: Probe| {
        let mut o = match &cfg.tiling {
            Tiling::Suc(sizes) => TaskGenOptions::suc(&cfg.loop_order, cfg.drt.clone(), sizes),
            Tiling::Drt => TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()),
        };
        o.plan_cache = cfg.plan_cache.clone();
        o.with_probe(p).with_budget(gen_budget.clone()).with_cancel(fault.cancel.clone())
    };

    if exec.threads <= 1
        && !matches!(exec.schedule, ShardSchedule::Explicit(_))
        && exec.max_retries == 0
        && fault.chaos.is_none()
    {
        // Serial fast path: generate and execute task-by-task, events
        // flowing straight to the probe — the pre-sharding code path,
        // bit-identical to historical goldens by construction.
        return run_serial_ft(
            a,
            b,
            a_rows,
            b_rows,
            cfg,
            probe,
            &kernel,
            mk_opts(probe.clone()),
            None,
        );
    }

    // ---- sharded fault-tolerant path --------------------------------------

    // 1. Materialize the task list. Generation is inherently sequential —
    //    each plan's base advances by the previous plan's extent — so only
    //    engine execution shards. Generator events buffer into a tagging
    //    sink, to be re-interleaved with engine events at the end.
    let gen_sink = probe.is_enabled().then(|| Arc::new(TaggingSink::auto_gen()));
    let gen_probe = match &gen_sink {
        Some(s) => Probe::new(s.clone()),
        None => Probe::disabled(),
    };
    let mut stream = TaskStream::build(&kernel, mk_opts(gen_probe))?;
    let mut tasks: Vec<Task> = Vec::new();
    if let Some(cap) = fault.budget.max_resident_bytes {
        let mut resident = 0u64;
        for task in &mut stream {
            resident += estimated_task_bytes(&task);
            tasks.push(task);
            if resident > cap {
                // The materialized list is over budget: drop it and fall
                // back to serial streaming, which holds one task at a
                // time. Numbers are bit-identical to the sharded run (the
                // determinism contract); only wall-clock parallelism is
                // lost, and the report records the degradation.
                drop(tasks);
                let detail = format!(
                    "materialized task list exceeded max_resident_bytes={cap}; \
                     fell back to serial streaming execution"
                );
                return run_serial_ft(
                    a,
                    b,
                    a_rows,
                    b_rows,
                    cfg,
                    probe,
                    &kernel,
                    mk_opts(probe.clone()),
                    Some(detail),
                );
            }
        }
    } else {
        tasks.extend(&mut stream);
    }
    let skipped = stream.skipped_empty();
    let gen_aborted = stream.aborted();
    let gen_degraded = stream.degraded();
    debug_assert_eq!(stream.emitted() as usize, tasks.len());

    // 2. Shard bounds over the task list, per the schedule.
    let bounds = shard_ranges(tasks.len(), exec);

    // 3. Workers: each shard runs load/compute/extract with its own state
    //    and probe buffer. Merge effects are recorded, not applied — the
    //    Z cache and PE assignment are order-dependent, so they belong to
    //    the reducer. Workers poll the cancel token before each task and
    //    call the chaos hook (if any) at shard and task boundaries.
    let traced = probe.is_enabled();
    let chaos = fault.chaos.as_deref();
    let cancel = &fault.cancel;
    let run_shard = |sidx: usize, attempt: u32| -> ShardOut<'_> {
        if let Some(ch) = chaos {
            ch.before_shard(sidx, attempt);
        }
        let range = bounds[sidx].clone();
        let sink = traced.then(|| Arc::new(TaggingSink::manual()));
        let wprobe = match &sink {
            Some(s) => Probe::new(s.clone()),
            None => Probe::disabled(),
        };
        let mut run = EngineRun::new(a_rows, b_rows, cfg, wprobe);
        // Seed resident-tile ranges from the task just before the shard:
        // residency after task t−1 is fully determined by task t−1 alone
        // (every plan carries tiles for all inputs), so the worker makes
        // exactly the serial hit/fetch decisions.
        if !range.is_empty() && range.start > 0 {
            run.seed_residency(&tasks[range.start - 1]);
        }
        let mut recs = Vec::with_capacity(range.len());
        let mut aborted_at = None;
        for task in &tasks[range] {
            if cancel.expired() {
                aborted_at = Some(task.index);
                break;
            }
            if let Some(ch) = chaos {
                ch.before_task(task.index);
            }
            let ranges = TaskRanges::of(task);
            if let Some(s) = &sink {
                s.set_position(task.index, lane::LOAD);
            }
            run.phase_load(task, &ranges);
            let (tp, isect_cycles) = run.phase_compute(task, &ranges);
            let rec = run.merge_prep(task, &ranges, tp, isect_cycles);
            if let Some(s) = &sink {
                s.set_position(task.index, lane::EXTRACT);
            }
            run.phase_extract(task, rec.on_chip_cycles);
            recs.push(rec);
        }
        let events = sink.map(|s| s.drain()).unwrap_or_default();
        ShardOut { run, recs, events, aborted_at }
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
            // `failed` is too.
            let (bad, message) = failed.remove(0);
            let gen_events = gen_sink.map(|s| s.drain()).unwrap_or_default();
            let mut prefix = Vec::with_capacity(bad);
            for s in results.into_iter().take(bad) {
                match s {
                    Some(s) => prefix.push(s),
                    // Unreachable: every shard below the lowest failure
                    // completed; stop committing if that ever breaks.
                    None => break,
                }
            }
            let (mut partial, committed, _) = reduce_and_replay(
                a.nrows(),
                b.ncols(),
                cfg,
                a_rows,
                b_rows,
                prefix,
                tasks.len(),
                skipped,
                traced,
                gen_events,
                probe,
                true,
            );
            partial.output = None;
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
    let (mut report, committed, cut) = reduce_and_replay(
        a.nrows(),
        b.ncols(),
        cfg,
        a_rows,
        b_rows,
        shard_outs,
        tasks.len(),
        skipped,
        traced,
        gen_events,
        probe,
        false,
    );
    if cut {
        // A worker saw the token expire mid-run; everything up to the
        // committed prefix is in the report.
        let kind = cancel.expiry_kind().unwrap_or(ExpiryKind::Cancelled);
        return Ok(finish_degraded(report, kind, committed, probe));
    }
    if let Some(kind) = gen_aborted {
        // Generation stopped early; every materialized task committed.
        return Ok(finish_degraded(report, kind, committed, probe));
    }
    if let Some(cause) = gen_degraded {
        report.degradation = Some(budget_degradation(cause, committed));
        return Ok(RunOutcome::Degraded(report));
    }
    Ok(RunOutcome::Complete(report))
}

/// The serial streaming path of [`run_spmspm_ft`]: tasks execute as they
/// are generated (one resident task at a time), events flow straight to
/// the probe, and cancellation is handled by the stream itself — so all
/// generated tasks are committed tasks. `memory_note` marks a run that
/// landed here because `max_resident_bytes` rejected the materialized
/// task list.
#[allow(clippy::too_many_arguments)]
fn run_serial_ft(
    a: &CsMatrix,
    b: &CsMatrix,
    a_rows: &CsMatrix,
    b_rows: &CsMatrix,
    cfg: &EngineConfig,
    probe: &Probe,
    kernel: &Kernel,
    opts: TaskGenOptions,
    memory_note: Option<String>,
) -> Result<RunOutcome, DrtError> {
    let mut stream = TaskStream::build(kernel, opts)?;
    let mut run = EngineRun::new(a_rows, b_rows, cfg, probe.clone());
    // The pipeline per task: load the tiles whose ranges changed,
    // compute (intersect + multiply) on them, merge the partial
    // outputs through the Z cache, then account the tile-extraction
    // latency that produced the task in the first place (DRT only —
    // extraction overlaps the previous task's compute, so only the
    // excess is exposed).
    for task in &mut stream {
        let ranges = TaskRanges::of(&task);
        run.phase_load(&task, &ranges);
        let (tp, isect_cycles) = run.phase_compute(&task, &ranges);
        let on_chip = run.phase_merge(&task, &ranges, tp, isect_cycles);
        run.phase_extract(&task, on_chip);
    }
    let (emitted, skipped) = (stream.emitted(), stream.skipped_empty());
    let aborted = stream.aborted();
    let degraded = stream.degraded();
    let mut report = run.phase_writeback(a.nrows(), b.ncols(), emitted, skipped);
    if let Some(kind) = aborted {
        return Ok(finish_degraded(report, kind, emitted, probe));
    }
    if let Some(cause) = degraded {
        report.degradation = Some(budget_degradation(cause, emitted));
        return Ok(RunOutcome::Degraded(report));
    }
    if let Some(detail) = memory_note {
        report.degradation = Some(Degradation {
            reason: DegradeReason::MemoryBudgetExhausted,
            completed_tasks: emitted,
            detail,
        });
        return Ok(RunOutcome::Degraded(report));
    }
    Ok(RunOutcome::Complete(report))
}

/// Deterministic reduction of committed shard outputs, plus trace
/// replay. Shards come back in input order and each shard's records are
/// in task order, so iterating shards then records replays the Z cache,
/// PE round-robin, and output assembly in exactly the global serial
/// order — independent of how many workers ran.
///
/// If a shard aborted mid-run (cancel/deadline), only shards up to and
/// including it commit; per-task events past the committed prefix are
/// dropped so the trace stays a byte-identical prefix of the fault-free
/// trace (end-of-run summaries, which describe the partial run, stay).
/// Returns `(report, committed_tasks, hit_an_aborted_shard)`.
#[allow(clippy::too_many_arguments)]
fn reduce_and_replay<'c>(
    nrows: u32,
    ncols: u32,
    cfg: &'c EngineConfig,
    a_rows: &'c CsMatrix,
    b_rows: &'c CsMatrix,
    shard_outs: Vec<ShardOut<'c>>,
    total_tasks: usize,
    skipped: u64,
    traced: bool,
    gen_events: Vec<TaggedEvent>,
    probe: &Probe,
    prefix_only: bool,
) -> (RunReport, u64, bool) {
    let cut = shard_outs.iter().position(|s| s.aborted_at.is_some());
    let commit_n = cut.map(|i| i + 1).unwrap_or(shard_outs.len());
    let red_sink = traced.then(|| Arc::new(TaggingSink::manual()));
    let red_probe = match &red_sink {
        Some(s) => Probe::new(s.clone()),
        None => Probe::disabled(),
    };
    let mut main = EngineRun::new(a_rows, b_rows, cfg, red_probe);
    let mut events = gen_events;
    let mut committed: u64 = 0;
    for sout in shard_outs.into_iter().take(commit_n) {
        events.extend(sout.events);
        for rec in &sout.recs {
            if let Some(s) = &red_sink {
                s.set_position(rec.pos, lane::MERGE);
            }
            main.merge_commit(rec);
            // Task indices are contiguous from 0, so the count of
            // committed tasks is one past the highest committed index.
            committed = committed.max(rec.pos + 1);
        }
        main.absorb(sout.run);
    }
    if let Some(s) = &red_sink {
        s.set_position(u64::MAX, lane::FINISH);
    }
    let truncated = prefix_only || cut.is_some();
    if truncated {
        // Keep only the committed prefix of per-task events; end-of-run
        // summaries (`pos == u64::MAX`) describe the partial run and stay.
        events.retain(|e| e.pos < committed || e.pos == u64::MAX);
    }
    let reported_tasks = if truncated { committed } else { total_tasks as u64 };
    let report = main.phase_writeback(nrows, ncols, reported_tasks, skipped);
    debug_assert_eq!(
        report.phases.total_bytes(),
        report.traffic.total(),
        "shard reduction must preserve the phase-byte partition of DRAM traffic"
    );
    if let Some(s) = &red_sink {
        events.extend(s.drain());
    }
    // Replay the merged event log in (task, phase-lane, seq) order —
    // bit-identical to the serial trace for any shard layout.
    replay_sorted(events, probe);
    (report, committed, cut.is_some())
}

/// Map a token expiry to its degradation reason.
pub(crate) fn expiry_reason(kind: ExpiryKind) -> DegradeReason {
    match kind {
        ExpiryKind::Cancelled => DegradeReason::Cancelled,
        ExpiryKind::DeadlineExceeded => DegradeReason::DeadlineExceeded,
    }
}

/// Finish a run that stopped cleanly at a task boundary: drop the
/// (incomplete) functional output, record the degradation, and emit the
/// final `aborted` trace record.
fn finish_degraded(
    mut report: RunReport,
    kind: ExpiryKind,
    committed: u64,
    probe: &Probe,
) -> RunOutcome {
    let reason = expiry_reason(kind);
    report.output = None;
    report.degradation = Some(Degradation {
        reason,
        completed_tasks: committed,
        detail: format!("run stopped at a task boundary after {committed} committed task(s)"),
    });
    probe.emit(|| Event::Aborted { reason: reason.tag(), completed_tasks: committed });
    RunOutcome::Degraded(report)
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

/// The degraded outcome for a run whose token was already expired at
/// entry: an all-zero report, no work, one `aborted` trace record.
pub(crate) fn degrade_before_work(name: &str, kind: ExpiryKind, probe: &Probe) -> RunOutcome {
    let reason = expiry_reason(kind);
    let mut report = RunReport::empty(name);
    report.degradation = Some(Degradation {
        reason,
        completed_tasks: 0,
        detail: "expired before any work ran".into(),
    });
    probe.emit(|| Event::Aborted { reason: reason.tag(), completed_tasks: 0 });
    RunOutcome::Degraded(report)
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
}

/// Order-dependent effects of one task's merge phase, recorded by a
/// worker ([`EngineRun::merge_prep`]) and applied in global task order by
/// the reducer ([`EngineRun::merge_commit`]).
struct MergeRec {
    /// Global task index (the probe-trace position).
    pos: u64,
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
}

/// Mutable state of one engine run, advanced phase-by-phase per task.
/// Workers advance load/compute/extract state; the Z cache, PE array, and
/// output assembly only ever advance on the reducer's instance.
struct EngineRun<'c> {
    cfg: &'c EngineConfig,
    sm: SizeModel,
    a_rows: &'c CsMatrix,
    b_rows: &'c CsMatrix,
    traffic: TrafficCounter,
    actions: ActionCounts,
    pes: PeArray,
    zcache: OutputCache,
    out_entries: Vec<(u32, u32, f64)>,
    maccs: u64,
    exposed_extract: u64,
    /// Resident-tile ranges for the two SpMSpM input tiles ("A" and "B")
    /// — fixed `Copy` slots instead of a name-keyed map, so residency
    /// tracking allocates nothing per task.
    resident_a: Option<[u32; 4]>,
    resident_b: Option<[u32; 4]>,
    /// Per-run SPA workspace, reused across every task of the run (one
    /// per shard worker on the sharded path).
    ws: SpaWorkspace,
    phases: PhaseBreakdown,
    probe: Probe,
}

impl<'c> EngineRun<'c> {
    fn new(
        a_rows: &'c CsMatrix,
        b_rows: &'c CsMatrix,
        cfg: &'c EngineConfig,
        probe: Probe,
    ) -> EngineRun<'c> {
        EngineRun {
            cfg,
            sm: cfg.drt.size_model,
            a_rows,
            b_rows,
            traffic: TrafficCounter::new(),
            actions: ActionCounts::default(),
            pes: PeArray::new(cfg.hier.num_pes),
            zcache: OutputCache::new(cfg.drt.partitions.get("Z")),
            out_entries: Vec::new(),
            maccs: 0,
            exposed_extract: 0,
            resident_a: None,
            resident_b: None,
            // The run's operands are borrowed for the whole run, so their
            // addresses are stable and the workspace may cache fiber
            // windows across tasks.
            ws: {
                let mut ws = SpaWorkspace::new();
                ws.assume_stable_parents();
                ws
            },
            phases: PhaseBreakdown::default(),
            probe,
        }
    }

    /// The coordinate ranges that identify one tensor's resident tile.
    fn tile_ranges(name: &str, r: &TaskRanges) -> [u32; 4] {
        match name {
            "A" => [r.ir.start, r.ir.end, r.kr.start, r.kr.end],
            _ => [r.kr.start, r.kr.end, r.jr.start, r.jr.end],
        }
    }

    /// The residency slot for one tensor name (SpMSpM plans carry exactly
    /// the tiles "A" and "B").
    fn resident_slot(&mut self, name: &str) -> &mut Option<[u32; 4]> {
        match name {
            "A" => &mut self.resident_a,
            _ => &mut self.resident_b,
        }
    }

    /// Mark `task`'s tiles resident without charging traffic — a shard
    /// worker seeds from the task preceding its first so its hit/fetch
    /// decisions match the serial run's.
    fn seed_residency(&mut self, task: &Task) {
        let r = TaskRanges::of(task);
        for tile in &task.plan.tiles {
            *self.resident_slot(&tile.name) = Some(Self::tile_ranges(&tile.name, &r));
        }
    }

    /// Load phase: fetch input tiles whose coordinate ranges changed —
    /// consecutive tasks sharing a stationary tile fetch it once.
    fn phase_load(&mut self, task: &Task, r: &TaskRanges) {
        for tile in &task.plan.tiles {
            let ranges = Self::tile_ranges(&tile.name, r);
            let bytes = tile.footprint();
            let hit = *self.resident_slot(&tile.name) == Some(ranges);
            if !hit {
                self.traffic.read(&tile.name, bytes);
                *self.resident_slot(&tile.name) = Some(ranges);
                self.phases.load.bytes += bytes;
                self.probe.emit(|| Event::Fetch { tensor: &tile.name, bytes });
            } else {
                self.probe.emit(|| Event::Hit { tensor: &tile.name, bytes });
            }
            // The tile streams over the NoC to PEs regardless of whether
            // DRAM supplied it or the LLB already held it.
            self.actions.noc_bytes += bytes;
            self.actions.llb_bytes += bytes;
            self.actions.pe_buf_bytes += bytes;
        }
    }

    /// Compute phase: functional product on the task's tiles plus the
    /// intersection-scan cycle cost.
    ///
    /// Inner-product co-iteration intersects each occupied A row with
    /// each occupied B column of the task, so the scan volume is
    /// operand-nnz × co-iterated-fiber-count (this is exactly the work
    /// a skip-based unit skips through and a parallel unit divides —
    /// Figure 12's lever).
    ///
    /// Steady-state allocation audit: this phase performs **no heap
    /// allocation per task**. The A/B rectangles are borrowed [`CsView`]s
    /// (no tile materialization), the SPA accumulator, touched list, and
    /// B-fiber window cache live in the per-run [`SpaWorkspace`] (grown
    /// once to the widest tile, reset sparsely), operand tile sizes come
    /// from the planner's already-measured [`TileStats`] (no re-count
    /// over the parent arrays), and output triples append to the run-long
    /// `out_entries` buffer (amortized growth, exactly as before). The
    /// emitted entry order and every f64 bit match the historical
    /// extract-then-multiply chain: `gustavson_view_into` accumulates in
    /// the same row-major / A-coordinate / B-coordinate order and emits
    /// per row in ascending column order with exact cancellations
    /// skipped, which is precisely what iterating the extracted tile
    /// product produced.
    fn phase_compute(&mut self, task: &Task, r: &TaskRanges) -> (TileProduct, u64) {
        let va = self.a_rows.view(r.ir.clone(), r.kr.clone());
        let vb = self.b_rows.view(r.kr.clone(), r.jr.clone());
        let tp = gustavson_view_into(
            &va,
            &vb,
            &mut self.ws,
            r.ir.start,
            r.jr.start,
            &mut self.out_entries,
        );
        if self.cfg.skip_output {
            // The entries would only feed the (skipped) output assembly;
            // dropping them per task keeps the buffer's capacity bounded
            // by one task's output. All counters read `tp`, not the buffer.
            self.out_entries.clear();
        }
        self.maccs += tp.maccs;
        self.actions.maccs += tp.maccs;
        // The planner measured each tile's exact nnz when it emitted the
        // task (pinned by `drt-core`'s planner tests to equal a direct
        // rectangle count), so the scan-volume model reads it instead of
        // re-counting the rectangles per task.
        let a_nnz = task.plan.tile("A").map_or(0, |t| t.nnz);
        let b_nnz = task.plan.tile("B").map_or(0, |t| t.nnz);
        let occ_i = a_nnz.min(r.ir.len() as u64).max(1);
        let occ_j = b_nnz.min(r.jr.len() as u64).max(1);
        let scan = a_nnz * occ_j + b_nnz * occ_i;
        let isect_cycles = self.cfg.intersect.cycles_from_counts(scan, tp.maccs);
        self.actions.intersect_steps += scan;
        self.phases.compute.cycles += isect_cycles;
        (tp, isect_cycles)
    }

    /// Worker half of the merge phase: pure measurement of the task's
    /// merge work and Z-cache delta. No order-dependent state moves.
    fn merge_prep(
        &self,
        task: &Task,
        r: &TaskRanges,
        tp: TileProduct,
        isect_cycles: u64,
    ) -> MergeRec {
        let merge_cycles = tp.out_nnz.div_ceil(self.cfg.merge_lanes.max(1) as u64);
        MergeRec {
            pos: task.index,
            key: [r.ir.start, r.ir.end, r.jr.start, r.jr.end],
            added: self.sm.coo_bytes(tp.out_nnz as usize, 2) as u64,
            merge_cycles,
            on_chip_cycles: isect_cycles + merge_cycles,
            subtasks: subtask_parallelism(&task.plan.tiles),
        }
    }

    /// Reducer half of the merge phase: push the recorded delta through
    /// the LRU Z cache (spill writes / refill reads on eviction) and hand
    /// the task's on-chip work to a PE, both in global task order.
    fn merge_commit(&mut self, rec: &MergeRec) {
        self.phases.merge.cycles += rec.merge_cycles;
        // The LLB-level distributor schedules micro-tile pairs to PEs
        // (paper Figure 5's task list), so one LLB task's work spreads
        // over up to `micro-tile pairs` PEs, round-robin.
        self.pes.assign_parallel(rec.on_chip_cycles, rec.subtasks);

        let charge = self.zcache.access(&rec.key, rec.added);
        self.traffic.write("Z", charge.spill_writes);
        self.traffic.read("Z", charge.refill_reads);
        self.phases.merge.bytes += charge.spill_writes + charge.refill_reads;
        if charge.spill_writes > 0 {
            self.probe.emit(|| Event::Spill { bytes: charge.spill_writes });
        }
        if charge.refill_reads > 0 {
            self.probe.emit(|| Event::Refill { bytes: charge.refill_reads });
        }
    }

    /// Merge phase (serial path): combine partial outputs on chip and
    /// push them through the Z cache. Returns the task's total on-chip
    /// cycles (intersection + merge).
    fn phase_merge(
        &mut self,
        task: &Task,
        r: &TaskRanges,
        tp: TileProduct,
        isect_cycles: u64,
    ) -> u64 {
        let rec = self.merge_prep(task, r, tp, isect_cycles);
        let on_chip = rec.on_chip_cycles;
        self.merge_commit(&rec);
        on_chip
    }

    /// Extract phase: tile-extraction latency (DRT only; S-U-C traces are
    /// zero). Extraction of the next task overlaps this task's on-chip
    /// work, so only the excess is exposed.
    fn phase_extract(&mut self, task: &Task, on_chip_cycles: u64) {
        if matches!(self.cfg.tiling, Tiling::Drt) {
            let cost = self.cfg.extractor.tile_cost_probed(
                &task.plan.trace,
                &task.plan.tiles,
                &self.probe,
            );
            self.actions.extractor_words += task.plan.trace.meta_words;
            let effective = self.cfg.extractor.effective_cycles(&cost);
            self.phases.extract.cycles += effective;
            self.exposed_extract += effective.saturating_sub(on_chip_cycles);
        }
    }

    /// Fold a finished shard run into the reducer's state. Every field
    /// here is a commutative sum except `out_entries`, which concatenates
    /// in shard order — identical to the serial emission order because
    /// shards are contiguous and come back in input order.
    fn absorb(&mut self, other: EngineRun<'_>) {
        self.traffic.merge(&other.traffic);
        self.actions.add(&other.actions);
        self.maccs += other.maccs;
        self.exposed_extract += other.exposed_extract;
        self.out_entries.extend(other.out_entries);
        self.phases.add(&other.phases);
    }

    /// Writeback phase: flush the Z cache (resident tiles stream out,
    /// multi-segment spills merge) and assemble the final report.
    fn phase_writeback(
        mut self,
        nrows: u32,
        ncols: u32,
        tasks: u64,
        skipped_tasks: u64,
    ) -> RunReport {
        let fin = self.zcache.finish();
        self.traffic.read("Z", fin.merge_reads);
        self.traffic.write("Z", fin.final_writes);
        self.phases.writeback.bytes += fin.merge_reads + fin.final_writes;
        // Output assembly happens after every modeled number is final, so
        // skipping it (offline candidate sweeps) cannot perturb a report.
        let out_entries = std::mem::take(&mut self.out_entries);
        let z = if self.cfg.skip_output {
            None
        } else {
            Some(finalize_output(nrows, ncols, out_entries))
        };

        self.actions.dram_bytes = self.traffic.total();
        let compute_cycles = self.pes.makespan();
        let mem_seconds = self.cfg.hier.dram.seconds_for(self.traffic.total());
        let seconds = if self.cfg.ideal_on_chip {
            mem_seconds
        } else {
            mem_seconds.max(compute_cycles as f64 / self.cfg.hier.clock_hz)
                + self.exposed_extract as f64 / self.cfg.hier.clock_hz
        };

        for (phase, stats) in self.phases.named() {
            self.probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
        }

        RunReport {
            name: self.cfg.name.clone(),
            traffic: self.traffic,
            maccs: self.maccs,
            compute_cycles,
            exposed_extract_cycles: self.exposed_extract,
            seconds,
            output: z,
            tasks,
            skipped_tasks,
            actions: self.actions,
            phases: self.phases,
            stages: Vec::new(),
            degradation: None,
        }
    }
}

/// One task's complete order-independent engine effects: everything a
/// worker computes before the reducer applies the order-dependent merge.
/// This is the content-addressed unit of incremental re-execution
/// ([`crate::incremental`]): a task whose plan, predecessor residency,
/// and operand rows are unchanged since a previous run contributes
/// exactly this capture again, so splicing it is bit-identical to
/// re-executing the task — the same purity argument that makes sharded
/// runs bit-identical to serial ones.
#[derive(Debug, Clone)]
pub(crate) struct TaskCapture {
    pub(crate) traffic: TrafficCounter,
    pub(crate) actions: ActionCounts,
    pub(crate) maccs: u64,
    pub(crate) exposed_extract: u64,
    pub(crate) out_entries: Vec<(u32, u32, f64)>,
    pub(crate) phases: PhaseBreakdown,
    /// Z-cache key of the task's output tile.
    pub(crate) zkey: [u32; 4],
    /// Compressed bytes the task adds to its output tile.
    pub(crate) added: u64,
    pub(crate) merge_cycles: u64,
    pub(crate) on_chip_cycles: u64,
    pub(crate) subtasks: u64,
}

/// Execute one task in isolation (a one-task shard): load/compute/merge-
/// measure/extract with residency seeded from `prev`, exactly as a shard
/// worker whose range starts at `task` would.
pub(crate) fn capture_task(
    a_rows: &CsMatrix,
    b_rows: &CsMatrix,
    cfg: &EngineConfig,
    prev: Option<&Task>,
    task: &Task,
) -> TaskCapture {
    let mut run = EngineRun::new(a_rows, b_rows, cfg, Probe::disabled());
    if let Some(p) = prev {
        run.seed_residency(p);
    }
    let ranges = TaskRanges::of(task);
    run.phase_load(task, &ranges);
    let (tp, isect_cycles) = run.phase_compute(task, &ranges);
    let rec = run.merge_prep(task, &ranges, tp, isect_cycles);
    run.phase_extract(task, rec.on_chip_cycles);
    TaskCapture {
        traffic: run.traffic,
        actions: run.actions,
        maccs: run.maccs,
        exposed_extract: run.exposed_extract,
        out_entries: run.out_entries,
        phases: run.phases,
        zkey: rec.key,
        added: rec.added,
        merge_cycles: rec.merge_cycles,
        on_chip_cycles: rec.on_chip_cycles,
        subtasks: rec.subtasks,
    }
}

/// Reduce per-task captures (in global task order, positions `0..n`) into
/// a finished report — the reducer half of [`reduce_and_replay`] with
/// one-task shards: commit each capture's merge record through the Z
/// cache and PE round-robin, fold its commutative sums, then write back.
pub(crate) fn replay_captures(
    nrows: u32,
    ncols: u32,
    cfg: &EngineConfig,
    a_rows: &CsMatrix,
    b_rows: &CsMatrix,
    captures: &[TaskCapture],
    skipped: u64,
) -> RunReport {
    let mut main = EngineRun::new(a_rows, b_rows, cfg, Probe::disabled());
    for (i, c) in captures.iter().enumerate() {
        main.merge_commit(&MergeRec {
            pos: i as u64,
            key: c.zkey,
            added: c.added,
            merge_cycles: c.merge_cycles,
            on_chip_cycles: c.on_chip_cycles,
            subtasks: c.subtasks,
        });
        main.traffic.merge(&c.traffic);
        main.actions.add(&c.actions);
        main.maccs += c.maccs;
        main.exposed_extract += c.exposed_extract;
        main.out_entries.extend_from_slice(&c.out_entries);
        main.phases.add(&c.phases);
    }
    main.phase_writeback(nrows, ncols, captures.len() as u64, skipped)
}

/// Merge accumulated per-task partial entries into the final output.
pub(crate) fn finalize_output(nrows: u32, ncols: u32, entries: Vec<(u32, u32, f64)>) -> CsMatrix {
    let merged = CsMatrix::from_entries(nrows, ncols, entries, MajorAxis::Row);
    let nonzero: Vec<(u32, u32, f64)> = merged.iter().filter(|&(_, _, v)| v != 0.0).collect();
    CsMatrix::from_entries(nrows, ncols, nonzero, MajorAxis::Row)
}

/// Sweep S-U-C candidate shapes under `exec` and return the winner's
/// report and tile shape (in coordinates), so repeated runs on similar
/// operands — e.g. the BFS levels of one workload — can reuse the sweep's
/// result via [`Tiling::Suc`]. The sweep itself runs unprobed (it is the
/// paper's offline search, §5.2.1); re-run the winner with a probe if a
/// trace is wanted. The winning shape is independent of `exec` because
/// every candidate's report is.
///
/// # Errors
///
/// Propagates engine errors; returns `BadConfig` when no candidate shape
/// satisfies the capacity rule.
pub fn run_spmspm_best_suc_exec(
    a: &CsMatrix,
    b: &CsMatrix,
    base: &EngineConfig,
    max_candidates: usize,
    exec: &ExecPolicy,
) -> Result<(RunReport, BTreeMap<RankId, u32>), CoreError> {
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
    let base = EngineConfig { micro: (quantum, quantum), ..base.clone() };
    let base = &base;
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
    // seconds only, which are final before the output is built. The
    // winner is re-run once with the output materialized — deterministic
    // engine, so its report matches its candidate pass exactly.
    let mut best: Option<(RunReport, BTreeMap<RankId, u32>)> = None;
    for sizes in candidates {
        let cfg =
            EngineConfig { tiling: Tiling::Suc(sizes.clone()), skip_output: true, ..base.clone() };
        let report = run_spmspm_exec(a, b, &cfg, &Probe::disabled(), exec)?;
        if best.as_ref().is_none_or(|(b, _)| report.seconds < b.seconds) {
            best = Some((report, sizes));
        }
    }
    let (_, sizes) = best.ok_or(CoreError::BadConfig {
        detail: "no S-U-C shape satisfies the worst-case capacity rule".into(),
    })?;
    let cfg = EngineConfig { tiling: Tiling::Suc(sizes.clone()), ..base.clone() };
    let report = run_spmspm_exec(a, b, &cfg, &Probe::disabled(), exec)?;
    Ok((report, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_core::config::Partitions;
    use drt_core::probe::JsonlSink;
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::BufferSpec;
    use drt_workloads::patterns::{diamond_band, unstructured};
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

    fn run(a: &CsMatrix, b: &CsMatrix, cfg: &EngineConfig) -> Result<RunReport, CoreError> {
        run_spmspm_exec(a, b, cfg, &Probe::disabled(), &ExecPolicy::serial())
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
        let (best_suc, _) = run_spmspm_best_suc_exec(
            &a,
            &a,
            &engine_cfg("suc", Tiling::Suc(BTreeMap::new()), 6 * 1024),
            6,
            &ExecPolicy::serial(),
        )
        .expect("run");
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
                let sharded =
                    run_spmspm_exec(&a, &a, &cfg, &Probe::disabled(), &exec).expect("sharded");
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
        let r = run_spmspm_exec(a, a, cfg, &Probe::new(sink), exec).expect("run");
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
        let sharded = run_spmspm_exec(&a, &b, &cfg, &Probe::disabled(), &ExecPolicy::threads(4))
            .expect("run");
        report_bits_eq("empty", &serial, &sharded);
        assert_eq!(sharded.tasks, 0);
    }

    #[test]
    fn best_suc_winner_independent_of_exec() {
        let a = unstructured(128, 128, 1000, 2.0, 23);
        let base = engine_cfg("suc", Tiling::Suc(BTreeMap::new()), 6 * 1024);
        let (r1, s1) =
            run_spmspm_best_suc_exec(&a, &a, &base, 4, &ExecPolicy::serial()).expect("serial");
        let (r4, s4) =
            run_spmspm_best_suc_exec(&a, &a, &base, 4, &ExecPolicy::threads(4)).expect("threads");
        assert_eq!(s1, s4, "winning shape must not depend on the execution policy");
        report_bits_eq("best-suc", &r1, &r4);
    }
}

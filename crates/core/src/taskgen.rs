//! Task generation: driving repeated tiling calls across the full kernel.
//!
//! Completing an Einsum means evaluating a set of tasks whose tiles
//! partition the compute space (paper §3). [`TaskStream`] walks the
//! iteration space in the dataflow's loop order, invoking
//! [`crate::drt::plan_tile`] (or S-U-C measurement) to choose each task's
//! tile shapes:
//!
//! * A rank's size is chosen when its loop level *opens* and stays pinned
//!   for the whole inner sweep — this is what keeps the stationary tensor's
//!   tile resident while less-stationary tensors stream past it.
//! * After the plan of paper §3.2, "the `K₁` determined by the first call
//!   to DRT becomes the starting index for the `K` dimension for the
//!   second call": bases advance by the just-used (nonuniform) size.
//! * Fallback partials (a tensor that cannot fit under its pinned ranges)
//!   split the pinned chunk; the remainder is streamed as extra tasks while
//!   the stationary tile stays resident.
//! * Tasks in which any input tile is empty are skipped (counted but not
//!   emitted), as in Figure 3a.

use crate::budget::ExecBudget;
use crate::cancel::{CancelToken, ExpiryKind};
use crate::config::DrtConfig;
use crate::drt::{plan_tile, ExtractionTrace, RankRanges, TilePlan, TileStats};
use crate::kernel::Kernel;
use crate::micro::RegionStats;
use crate::probe::{Event, Probe};
use crate::{suc, CoreError, RankId};
use std::collections::BTreeMap;
use std::ops::Range;

/// One emitted Einsum task.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Sequence number among emitted tasks.
    pub index: u64,
    /// The chosen tiles.
    pub plan: TilePlan,
}

#[derive(Debug, Clone)]
enum Mode {
    Drt,
    /// Fixed tile sizes in grid units.
    Suc(BTreeMap<RankId, u32>),
}

#[derive(Debug, Clone)]
struct Frame {
    region: BTreeMap<RankId, Range<u32>>,
    pinned: BTreeMap<RankId, u32>,
}

/// Which tiling scheme a [`TaskStream`] uses to size each task.
#[derive(Debug, Clone, PartialEq)]
pub enum TileScheme {
    /// Dynamic reflexive tiling: sizes chosen online per task (paper §3).
    Drt,
    /// Static S-U-C tiling with fixed coordinate tile sizes per rank.
    Suc(BTreeMap<RankId, u32>),
}

/// Everything [`TaskStream::build`] needs besides the kernel: the one
/// construction path shared by DRT, S-U-C, whole-space, and
/// region-restricted streams.
///
/// ```rust
/// # use drt_core::config::{DrtConfig, Partitions};
/// # use drt_core::kernel::Kernel;
/// # use drt_core::taskgen::{TaskGenOptions, TaskStream};
/// # use drt_workloads::patterns::diamond_band;
/// # fn main() -> Result<(), drt_core::CoreError> {
/// let a = diamond_band(64, 1200, 3);
/// let kernel = Kernel::spmspm(&a, &a, (8, 8))?;
/// let cfg = DrtConfig::new(Partitions::split(8192, &[("A", 0.3), ("B", 0.5), ("Z", 0.2)]));
/// let stream = TaskStream::build(&kernel, TaskGenOptions::drt(&['j', 'k', 'i'], cfg))?;
/// assert!(stream.count() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskGenOptions {
    /// Dataflow loop order, outermost first.
    pub loop_order: Vec<RankId>,
    /// Buffer partitions, growth policy, and size model.
    pub config: DrtConfig,
    /// Tiling scheme (DRT or fixed-shape S-U-C).
    pub scheme: TileScheme,
    /// Grid-unit sub-region to cover; `None` = the whole kernel space.
    pub region: Option<BTreeMap<RankId, Range<u32>>>,
    /// Instrumentation probe (disabled by default).
    pub probe: Probe,
    /// Resource budget; exhausting the task or planner-call cap degrades a
    /// DRT stream to S-U-C fallback tiles for the remaining region.
    pub budget: ExecBudget,
    /// Cooperative cancellation token, polled at every `next()`.
    pub cancel: CancelToken,
}

impl TaskGenOptions {
    /// Options for a DRT stream over the whole kernel.
    pub fn drt(loop_order: &[RankId], config: DrtConfig) -> TaskGenOptions {
        TaskGenOptions {
            loop_order: loop_order.to_vec(),
            config,
            scheme: TileScheme::Drt,
            region: None,
            probe: Probe::disabled(),
            budget: ExecBudget::default(),
            cancel: CancelToken::default(),
        }
    }

    /// Options for a fixed-shape S-U-C stream (tile sizes in coordinates).
    pub fn suc(
        loop_order: &[RankId],
        config: DrtConfig,
        tile_sizes: &BTreeMap<RankId, u32>,
    ) -> TaskGenOptions {
        TaskGenOptions {
            loop_order: loop_order.to_vec(),
            config,
            scheme: TileScheme::Suc(tile_sizes.clone()),
            region: None,
            probe: Probe::disabled(),
            budget: ExecBudget::default(),
            cancel: CancelToken::default(),
        }
    }

    /// Restrict the stream to a grid-unit sub-region (the hierarchical
    /// case, paper §3.2.1).
    #[must_use]
    pub fn in_region(mut self, region: &BTreeMap<RankId, Range<u32>>) -> TaskGenOptions {
        self.region = Some(region.clone());
        self
    }

    /// Attach an instrumentation probe.
    #[must_use]
    pub fn with_probe(mut self, probe: Probe) -> TaskGenOptions {
        self.probe = probe;
        self
    }

    /// Attach a resource budget (see [`ExecBudget`]).
    #[must_use]
    pub fn with_budget(mut self, budget: ExecBudget) -> TaskGenOptions {
        self.budget = budget;
        self
    }

    /// Attach a cancellation token polled at every `next()`.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> TaskGenOptions {
        self.cancel = cancel;
        self
    }
}

/// Which budget cap degraded a DRT stream to S-U-C fallback tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetCause {
    /// `ExecBudget::max_tasks` was reached.
    MaxTasks,
    /// `ExecBudget::max_plan_candidates` was reached.
    MaxPlanCandidates,
}

/// Split `n_tasks` into `shards` contiguous index ranges whose union is
/// `0..n_tasks`, balanced to within one task. Used by the sharded engine
/// to statically chunk a materialized task list; the result depends only
/// on the two inputs, so shard layout is deterministic.
///
/// Fewer than `shards` ranges are returned when there aren't enough tasks
/// (never an empty range); `shards == 0` is treated as 1.
pub fn shard_bounds(n_tasks: usize, shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1).min(n_tasks.max(1));
    if n_tasks == 0 {
        // One empty shard (not "a Vec of the range 0..0" — lint is wrong here).
        return vec![Range { start: 0, end: 0 }];
    }
    let base = n_tasks / shards;
    let extra = n_tasks % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n_tasks);
    out
}

/// Lazy stream of tasks covering a kernel's full iteration space (or a
/// sub-region, for hierarchical tiling).
///
/// # Example
///
/// ```rust
/// use drt_core::config::{DrtConfig, Partitions};
/// use drt_core::kernel::Kernel;
/// use drt_core::taskgen::{TaskGenOptions, TaskStream};
/// use drt_workloads::patterns::diamond_band;
///
/// # fn main() -> Result<(), drt_core::CoreError> {
/// let a = diamond_band(64, 1200, 3);
/// let kernel = Kernel::spmspm(&a, &a, (8, 8))?;
/// let cfg = DrtConfig::new(Partitions::split(8192, &[("A", 0.3), ("B", 0.5), ("Z", 0.2)]));
/// let mut covered = 0u64;
/// for task in TaskStream::build(&kernel, TaskGenOptions::drt(&['j', 'k', 'i'], cfg))? {
///     covered += task
///         .plan
///         .grid_ranges
///         .values()
///         .map(|r| r.len() as u64)
///         .product::<u64>();
/// }
/// assert!(covered > 0, "tasks tile the grid space");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TaskStream<'k> {
    kernel: &'k Kernel,
    order: Vec<RankId>,
    config: DrtConfig,
    mode: Mode,
    stack: Vec<Frame>,
    /// Flat enumerator for the fixed-shape frame currently being swept
    /// (S-U-C mode only); `None` while walking the stack.
    cursor: Option<SucCursor>,
    emitted: u64,
    skipped_empty: u64,
    probe: Probe,
    budget: ExecBudget,
    cancel: CancelToken,
    plan_calls: u64,
    degraded: Option<BudgetCause>,
    aborted: Option<ExpiryKind>,
}

impl<'k> TaskStream<'k> {
    /// The one construction path for every stream flavor: DRT or S-U-C,
    /// whole-space or region-restricted, probed or not — all selected via
    /// [`TaskGenOptions`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadLoopOrder`] for invalid loop orders.
    /// * DRT: [`CoreError::TileTooLarge`] when some tensor's densest micro
    ///   tile cannot fit its partition (no tiling could make progress).
    /// * S-U-C: [`CoreError::ShapeOverflowsBuffer`] when the fixed shape
    ///   violates the worst-case-dense capacity rule.
    pub fn build(kernel: &'k Kernel, opts: TaskGenOptions) -> Result<TaskStream<'k>, CoreError> {
        let TaskGenOptions { loop_order, config, scheme, region, probe, budget, cancel } = opts;
        kernel.validate_loop_order(&loop_order)?;
        let mode = match scheme {
            TileScheme::Drt => {
                for b in kernel.inputs() {
                    let minimal =
                        b.grid.max_tile_footprint() as u64 + b.grid.macro_meta_bytes(1, 1);
                    let partition = config.partitions.get(&b.name);
                    if minimal > partition {
                        return Err(CoreError::TileTooLarge {
                            tensor: b.name.clone(),
                            needed: minimal,
                            partition,
                        });
                    }
                }
                Mode::Drt
            }
            TileScheme::Suc(tile_sizes) => {
                suc::validate_shape(kernel, &tile_sizes, &config.partitions, &config.size_model)?;
                // Fixed sizes are given in coordinates; round down to whole
                // micro tiles (at least one).
                let grid_sizes: BTreeMap<RankId, u32> = tile_sizes
                    .iter()
                    .map(|(&r, &coords)| (r, (coords / kernel.micro_step(r)).max(1)))
                    .collect();
                Mode::Suc(grid_sizes)
            }
        };
        let region = region.unwrap_or_else(|| full_region(kernel));
        Ok(TaskStream {
            kernel,
            order: loop_order,
            config,
            mode,
            stack: vec![Frame { region, pinned: BTreeMap::new() }],
            cursor: None,
            emitted: 0,
            skipped_empty: 0,
            probe,
            budget,
            cancel,
            plan_calls: 0,
            degraded: None,
            aborted: None,
        })
    }

    /// Builder-style: attach an instrumentation probe. Tile plans, emitted
    /// tasks, skipped-empty tasks, and fallback subdivisions are reported
    /// through it; the default (disabled) probe adds no work.
    pub fn with_probe(mut self, probe: Probe) -> TaskStream<'k> {
        self.probe = probe;
        self
    }

    /// Tasks emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Tasks skipped so far because an input tile was empty.
    pub fn skipped_empty(&self) -> u64 {
        self.skipped_empty
    }

    /// DRT planner invocations so far (counted against
    /// `ExecBudget::max_plan_candidates`).
    pub fn plan_calls(&self) -> u64 {
        self.plan_calls
    }

    /// If a budget cap degraded this stream from DRT to S-U-C fallback
    /// tiling, which cap tripped. `None` for non-degraded streams.
    pub fn degraded(&self) -> Option<BudgetCause> {
        self.degraded
    }

    /// If the stream terminated early on a cancel/deadline poll, why.
    /// A `Some` here means the last `next() == None` was an abort, not
    /// exhaustion of the iteration space.
    pub fn aborted(&self) -> Option<ExpiryKind> {
        self.aborted
    }

    /// Check the budget caps and, if a DRT cap is exhausted, switch the
    /// remaining region to S-U-C fallback tiles — the runtime analogue of
    /// Algorithm 2's fallback subdivision: keep covering the space, just
    /// with cheaper statically-sized tiles.
    fn maybe_degrade(&mut self) {
        if !matches!(self.mode, Mode::Drt) {
            return;
        }
        let cause = if self.budget.max_tasks.is_some_and(|m| self.emitted >= m) {
            BudgetCause::MaxTasks
        } else if self.budget.max_plan_candidates.is_some_and(|m| self.plan_calls >= m) {
            BudgetCause::MaxPlanCandidates
        } else {
            return;
        };
        self.degraded = Some(cause);
        self.mode = Mode::Suc(fallback_suc_grid_sizes(self.kernel, &self.config));
    }

    /// One DRT planner invocation (counted against `max_plan_candidates`
    /// by the caller).
    fn plan_drt(&self, frame: &Frame) -> TilePlan {
        plan_tile(self.kernel, &self.order, &frame.region, &frame.pinned, &self.config)
            .expect("preflight guaranteed a minimal tile fits")
    }

    /// The S-U-C "plan" for the cursor's current box: each input's
    /// fixed-shape tile measured through the cursor's memos, its whole
    /// footprint reported as data bytes.
    fn cursor_plan(&self, cur: &mut SucCursor) -> TilePlan {
        let sm = self.config.size_model;
        let mut grid_ranges = RankRanges::new();
        let mut coord_ranges = RankRanges::new();
        for (d, &r) in self.order.iter().enumerate() {
            let gr = cur.level_range(d);
            let step = self.kernel.micro_step(r);
            let extent = self.kernel.extent(r);
            coord_ranges.insert(r, (gr.start * step)..(gr.end.saturating_mul(step)).min(extent));
            grid_ranges.insert(r, gr);
        }
        let mut tiles = Vec::new();
        let mut saw_empty = false;
        for bi in 0..self.kernel.inputs().len() {
            // Short-circuit: once any input tile is empty the task will be
            // skipped, so later tensors need no measurement (this is what
            // makes enumerating the many empty boxes of a fine static grid
            // cheap, mirroring how compressed traversal skips them).
            let stats = if saw_empty {
                RegionStats::default()
            } else {
                cur.input_stats(self.kernel, &self.order, bi)
            };
            saw_empty |= stats.nnz == 0;
            let b = &self.kernel.inputs()[bi];
            let outer_rows = coord_ranges[&b.ranks[0]].len() as u64;
            let inner_levels = (b.ranks.len() - 1) as u64;
            let foot = suc::actual_footprint(outer_rows, stats.nnz, inner_levels, &sm);
            tiles.push(TileStats {
                name: b.name.clone(),
                nnz: stats.nnz,
                data_bytes: foot,
                macro_meta_bytes: 0,
                micro_tiles: stats.micro_tiles,
                outer_rows,
            });
        }
        TilePlan {
            grid_ranges,
            coord_ranges,
            tiles,
            trace: ExtractionTrace::default(),
            partial_rank: None,
        }
    }
}

/// The S-U-C tile shape (in grid units) a budget-degraded DRT stream
/// falls back to: the largest uniform power-of-two multiple of the micro
/// step that passes the worst-case-dense capacity rule for every tensor.
/// When even one micro tile fails the dense rule, one grid unit per rank
/// is used anyway — DRT's preflight already guaranteed the densest
/// *actual* micro tile fits, so the minimal box is safe in practice.
pub fn fallback_suc_grid_sizes(kernel: &Kernel, config: &DrtConfig) -> BTreeMap<RankId, u32> {
    let ranks = kernel.ranks();
    let grid_ext: BTreeMap<RankId, u32> = ranks
        .iter()
        .map(|&r| (r, kernel.extent(r).div_ceil(kernel.micro_step(r)).max(1)))
        .collect();
    let max_ext = grid_ext.values().copied().max().unwrap_or(1);
    let mut best = 1u32;
    let mut mult = 1u32;
    loop {
        let coords: BTreeMap<RankId, u32> =
            ranks.iter().map(|&r| (r, kernel.micro_step(r).saturating_mul(mult))).collect();
        if suc::validate_shape(kernel, &coords, &config.partitions, &config.size_model).is_err() {
            break;
        }
        best = mult;
        if mult >= max_ext {
            break;
        }
        mult = mult.saturating_mul(2);
    }
    ranks.iter().map(|&r| (r, best.min(grid_ext[&r]).max(1))).collect()
}

/// [`fallback_suc_grid_sizes`] converted to *coordinate* sizes per rank —
/// the units [`TaskGenOptions::suc`] takes. Callers that need a feasible
/// static shape without sweeping (e.g. the pipeline layer resolving a
/// `SucSweep` spec for a non-SpMSpM kernel) use this as the shape.
pub fn fallback_suc_coord_sizes(kernel: &Kernel, config: &DrtConfig) -> BTreeMap<RankId, u32> {
    fallback_suc_grid_sizes(kernel, config)
        .into_iter()
        .map(|(r, grid_units)| (r, grid_units.saturating_mul(kernel.micro_step(r)).max(1)))
        .collect()
}

fn full_region(kernel: &Kernel) -> BTreeMap<RankId, Range<u32>> {
    kernel.full_grid_region()
}

/// Flat box enumerator for fixed-shape (S-U-C) frames.
///
/// A fixed-shape frame's recursive open/pin walk visits its boxes in
/// plain lexicographic chunk order (outermost loop level slowest), so it
/// can be driven by an odometer over precomputed chunk boundaries instead
/// of the frame stack — no per-level frame clones, no map churn on the
/// millions-of-boxes sweeps a fine static grid produces. Emission order,
/// skip counting, and probe events are identical to the stack walk.
///
/// Two host-side caches exploit the sweep's revisit structure (they alter
/// no modeled cost — `region_is_empty` is documented as model-free, and
/// `region_stats` is a pure function of the queried box):
///
/// * `empty`: a lazily filled per-box emptiness map for the first input
///   (the skip probe). The first input's ranks never include the
///   innermost-varying output rank, so each cell is probed many times per
///   sweep and resolved once here.
/// * per-input [`RegionStats`] memos keyed by the input's own chunk
///   indices: a stationary tile's stats are measured once, not once per
///   pass of the streaming dimension.
#[derive(Debug)]
struct SucCursor {
    /// Chunk boundaries per loop level, outermost first: level `d`'s chunk
    /// `c` spans grid units `starts[d][c]..starts[d][c + 1]`. Pinned ranks
    /// contribute a single chunk (their whole pinned range).
    starts: Vec<Vec<u32>>,
    /// Current chunk index per loop level (the odometer).
    idx: Vec<usize>,
    done: bool,
    /// Emptiness of the first input's chunk boxes, `(c0, c1)` →
    /// 0 unknown / 1 empty / 2 occupied. `None` when that input is not
    /// two-dimensional.
    empty: Option<EmptyMemo>,
    /// Per-input region measurements keyed by the input's chunk indices
    /// (2-D inputs only; others measure directly).
    stats: Vec<StatsMemo>,
}

#[derive(Debug)]
struct EmptyMemo {
    /// Loop-level positions of the input's two ranks.
    pos: (usize, usize),
    /// Chunk count of the second rank (row stride of `cells`).
    n1: usize,
    cells: Vec<u8>,
}

#[derive(Debug)]
struct StatsMemo {
    /// Loop-level positions of the input's two ranks; `None` disables
    /// memoization for that input.
    pos: Option<(usize, usize)>,
    /// Chunk count of the second rank (row stride of `cells`).
    n1: usize,
    cells: Vec<Option<RegionStats>>,
}

impl SucCursor {
    fn new(
        frame: &Frame,
        sizes: &BTreeMap<RankId, u32>,
        kernel: &Kernel,
        order: &[RankId],
    ) -> Self {
        let mut starts = Vec::with_capacity(order.len());
        for &r in order {
            let region = &frame.region[&r];
            let mut bounds = Vec::new();
            if !region.is_empty() {
                if frame.pinned.contains_key(&r) {
                    bounds.extend([region.start, region.end]);
                } else {
                    let step = sizes[&r].max(1);
                    bounds.extend((region.start..region.end).step_by(step as usize));
                    bounds.push(region.end);
                }
            }
            starts.push(bounds);
        }
        let done = starts.iter().any(|b| b.len() < 2);
        let rank_pos = |ranks: &[RankId]| -> Option<(usize, usize)> {
            if ranks.len() != 2 {
                return None;
            }
            let p0 = order.iter().position(|&q| q == ranks[0])?;
            let p1 = order.iter().position(|&q| q == ranks[1])?;
            Some((p0, p1))
        };
        let empty = kernel.inputs().first().and_then(|b| rank_pos(&b.ranks)).map(|pos| EmptyMemo {
            pos,
            n1: starts[pos.1].len().saturating_sub(1),
            cells: vec![
                0u8;
                starts[pos.0].len().saturating_sub(1)
                    * starts[pos.1].len().saturating_sub(1)
            ],
        });
        let stats = kernel
            .inputs()
            .iter()
            .map(|b| match rank_pos(&b.ranks) {
                Some(pos) => StatsMemo {
                    pos: Some(pos),
                    n1: starts[pos.1].len().saturating_sub(1),
                    cells: vec![
                        None;
                        starts[pos.0].len().saturating_sub(1)
                            * starts[pos.1].len().saturating_sub(1)
                    ],
                },
                None => StatsMemo { pos: None, n1: 0, cells: Vec::new() },
            })
            .collect();
        SucCursor { starts, idx: vec![0; order.len()], done, empty, stats }
    }

    /// The current box's range at loop level `d`.
    fn level_range(&self, d: usize) -> Range<u32> {
        self.starts[d][self.idx[d]]..self.starts[d][self.idx[d] + 1]
    }

    /// Advance the odometer (innermost level fastest). Returns `false`
    /// once every box has been visited.
    fn advance(&mut self) -> bool {
        for d in (0..self.idx.len()).rev() {
            self.idx[d] += 1;
            if self.idx[d] + 1 < self.starts[d].len() {
                return true;
            }
            self.idx[d] = 0;
        }
        self.done = true;
        false
    }

    /// Whether the first input's tile in the current box is empty
    /// (the cheap skip probe), resolved through the emptiness memo.
    fn first_input_empty(&mut self, kernel: &Kernel, order: &[RankId]) -> bool {
        let b = &kernel.inputs()[0];
        if let Some(m) = &self.empty {
            let (p0, p1) = m.pos;
            let cell = self.idx[p0] * m.n1 + self.idx[p1];
            if self.empty.as_ref().is_some_and(|m| m.cells[cell] == 0) {
                let ranges = [self.level_range(p0), self.level_range(p1)];
                let v = if b.grid.region_is_empty(&ranges) { 1 } else { 2 };
                self.empty.as_mut().expect("memo present").cells[cell] = v;
            }
            self.empty.as_ref().expect("memo present").cells[cell] == 1
        } else {
            let ranges: Vec<Range<u32>> = b
                .ranks
                .iter()
                .map(|r| self.level_range(order.iter().position(|q| q == r).expect("bound rank")))
                .collect();
            b.grid.region_is_empty(&ranges)
        }
    }

    /// Measure input `bi`'s tile in the current box, through its memo.
    fn input_stats(&mut self, kernel: &Kernel, order: &[RankId], bi: usize) -> RegionStats {
        let b = &kernel.inputs()[bi];
        if let Some((p0, p1)) = self.stats[bi].pos {
            let cell = self.idx[p0] * self.stats[bi].n1 + self.idx[p1];
            if let Some(s) = self.stats[bi].cells[cell] {
                return s;
            }
            let s = b.grid.region_stats(&[self.level_range(p0), self.level_range(p1)]);
            self.stats[bi].cells[cell] = Some(s);
            s
        } else {
            let ranges: Vec<Range<u32>> = b
                .ranks
                .iter()
                .map(|r| self.level_range(order.iter().position(|q| q == r).expect("bound rank")))
                .collect();
            b.grid.region_stats(&ranges)
        }
    }
}

impl Iterator for TaskStream<'_> {
    type Item = Task;

    fn next(&mut self) -> Option<Task> {
        loop {
            // Cooperative cancellation: poll at the task boundary so an
            // aborted stream never leaves a half-planned task behind.
            if self.aborted.is_some() {
                return None;
            }
            if let Some(kind) = self.cancel.expiry_kind() {
                self.aborted = Some(kind);
                return None;
            }
            // Fixed-shape frames are swept by the flat cursor — one box
            // per loop pass, so cancellation is polled per box exactly as
            // the stack walk polled it per frame pop.
            if let Some(cur) = self.cursor.as_mut() {
                if cur.done {
                    self.cursor = None; // exhausted: fall back to the stack
                    continue;
                }
                // Cheap empty-box early-out: fine static grids are mostly
                // empty boxes, and building a full plan for each would
                // dominate the sweep. `region_is_empty` (memoized
                // host-side, never re-probing a box pair) models no
                // Aggregate cost — pruning, not an extractor action. The
                // cursor stays borrowed in place on this path: moving it
                // out and back (it is ~150 bytes of inline state) per box
                // is measurable over the millions of empty boxes a fine
                // grid sweeps.
                if cur.first_input_empty(self.kernel, &self.order) {
                    self.skipped_empty += 1;
                    cur.advance();
                    self.probe.emit(|| Event::TaskSkipped { total_skipped: self.skipped_empty });
                    continue;
                }
                // Occupied box (rare relative to the sweep): take the
                // cursor out so planning can borrow `self` freely.
                let mut cur = self.cursor.take().expect("cursor checked above");
                let plan = self.cursor_plan(&mut cur);
                cur.advance();
                self.cursor = Some(cur);
                self.probe.emit(|| Event::TilePlanned {
                    task: self.emitted,
                    grow_steps: plan.trace.grow_steps,
                    rejected_grows: plan.trace.rejected_grows,
                    fallbacks: plan.trace.fallbacks,
                    meta_words: plan.trace.meta_words,
                });
                // Fixed-shape plans never subdivide: no partial ranks, no
                // remainder frames.
                if plan.is_empty_task() {
                    self.skipped_empty += 1;
                    self.probe.emit(|| Event::TaskSkipped { total_skipped: self.skipped_empty });
                    continue;
                }
                let t = Task { index: self.emitted, plan };
                self.emitted += 1;
                self.probe.emit(|| Event::TaskEmitted { index: t.index });
                return Some(t);
            }
            let frame = self.stack.pop()?;
            // Budget caps are checked before any further DRT planning; an
            // exhausted cap flips the remaining frames to S-U-C tiles.
            self.maybe_degrade();
            // Every fixed-shape frame — fresh stream or budget-degraded
            // leftover — is handed to the flat enumerator.
            if let Mode::Suc(sizes) = &self.mode {
                self.cursor = Some(SucCursor::new(&frame, sizes, self.kernel, &self.order));
                continue;
            }
            // Past this point the stream is in DRT mode.
            // Fully pinned box → emit one task (plus remainder frames on
            // fallback partials).
            if frame.pinned.len() == self.order.len() {
                self.plan_calls += 1;
                let plan = self.plan_drt(&frame);
                self.probe.emit(|| Event::TilePlanned {
                    task: self.emitted,
                    grow_steps: plan.trace.grow_steps,
                    rejected_grows: plan.trace.rejected_grows,
                    fallbacks: plan.trace.fallbacks,
                    meta_words: plan.trace.meta_words,
                });
                if let Some(rank) = plan.partial_rank {
                    self.probe.emit(|| Event::FallbackSubdivision { task: self.emitted, rank });
                }
                // The fallback path may have subdivided one or more pinned
                // ranks: the plan covers a prefix box P of the frame's
                // region R. Decompose R \ P into disjoint boxes — one per
                // shortened rank r: (covered prefixes of earlier ranks) ×
                // (R_r \ P_r) × (full regions of later ranks) — and queue
                // each as a remainder frame so coverage stays exact.
                let shortened: Vec<RankId> = self
                    .order
                    .iter()
                    .copied()
                    .filter(|r| plan.grid_ranges[r].end < frame.region[r].end)
                    .collect();
                let mut prefix = frame.region.clone();
                for &r in &shortened {
                    let covered_end = plan.grid_ranges[&r].end;
                    let mut rem = Frame { region: prefix.clone(), pinned: BTreeMap::new() };
                    rem.region.insert(r, covered_end..frame.region[&r].end);
                    for (&q, range) in &rem.region {
                        rem.pinned.insert(q, range.len() as u32);
                    }
                    if rem.region.values().all(|x| !x.is_empty()) {
                        self.stack.push(rem);
                    }
                    prefix.insert(r, frame.region[&r].start..covered_end);
                }
                if plan.is_empty_task() {
                    self.skipped_empty += 1;
                    self.probe.emit(|| Event::TaskSkipped { total_skipped: self.skipped_empty });
                    continue;
                }
                let t = Task { index: self.emitted, plan };
                self.emitted += 1;
                self.probe.emit(|| Event::TaskEmitted { index: t.index });
                return Some(t);
            }
            // Open the outermost unpinned loop level.
            let r = *self
                .order
                .iter()
                .find(|r| !frame.pinned.contains_key(r))
                .expect("unpinned rank exists");
            if frame.region[&r].is_empty() {
                continue;
            }
            let base = frame.region[&r].start;
            // Probe: let DRT choose r's size for this sweep chunk.
            self.plan_calls += 1;
            let s_r = self.plan_drt(&frame).grid_ranges[&r].len() as u32;
            debug_assert!(s_r >= 1, "loop levels must make progress");
            // Continuation: the rest of r's range (processed after the sub-sweep).
            let mut cont = frame.clone();
            cont.region.insert(r, base + s_r..frame.region[&r].end);
            if !cont.region[&r].is_empty() {
                self.stack.push(cont);
            }
            // Sub-sweep with r pinned.
            let mut sub = frame;
            sub.region.insert(r, base..base + s_r);
            sub.pinned.insert(r, s_r);
            self.stack.push(sub);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Partitions;
    use drt_workloads::patterns::{diamond_band, unstructured};
    use std::collections::BTreeSet;

    fn coverage_check(kernel: &Kernel, tasks: &[Task], skipped_ok: bool) {
        // Every (i, k) cell of A and (k, j) cell of B with data must be
        // covered by exactly one task's (range_i × range_k × range_j) box —
        // unless the task was skipped as empty (then the cell has no data).
        let _ = skipped_ok;
        // Check disjointness + coverage over the 3-D grid space.
        let ext: BTreeMap<RankId, u32> = kernel
            .ranks()
            .into_iter()
            .map(|r| (r, kernel.extent(r).div_ceil(kernel.micro_step(r))))
            .collect();
        let ranks = kernel.ranks();
        let mut covered: BTreeSet<(u32, u32, u32)> = BTreeSet::new();
        for t in tasks {
            let r0 = t.plan.grid_ranges[&ranks[0]].clone();
            let r1 = t.plan.grid_ranges[&ranks[1]].clone();
            let r2 = t.plan.grid_ranges[&ranks[2]].clone();
            for a in r0 {
                for b in r1.clone() {
                    for c in r2.clone() {
                        assert!(covered.insert((a, b, c)), "grid cell ({a},{b},{c}) covered twice");
                    }
                }
            }
        }
        // Coverage: every cell either covered or belongs to a skipped-empty
        // task. We verify the stronger property on dense-enough inputs in
        // dedicated tests; here assert no overlap and nonempty coverage.
        let total: u64 = ranks.iter().map(|r| ext[r] as u64).product();
        assert!(covered.len() as u64 <= total);
    }

    fn full_cover_check(kernel: &Kernel, tasks: &[Task], skipped: u64) {
        // With zero skipped tasks, coverage must be exact.
        assert_eq!(skipped, 0, "this check requires no skipped tasks");
        let ranks = kernel.ranks();
        let mut count = 0u64;
        for t in tasks {
            count += ranks.iter().map(|r| t.plan.grid_ranges[r].len() as u64).product::<u64>();
        }
        let total: u64 =
            ranks.iter().map(|&r| kernel.extent(r).div_ceil(kernel.micro_step(r)) as u64).product();
        assert_eq!(count, total, "tasks must tile the whole grid space");
    }

    #[test]
    fn drt_tasks_tile_space_exactly_on_dense_input() {
        // A dense-ish band matrix: few empty tiles → with generous buffers
        // nothing is skipped and coverage is exact.
        let m = diamond_band(48, 1800, 1);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]));
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)).expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert!(!tasks.is_empty());
        coverage_check(&k, &tasks, true);
        if stream.skipped_empty() == 0 {
            full_cover_check(&k, &tasks, 0);
        }
    }

    #[test]
    fn drt_tasks_never_overlap_on_sparse_input() {
        let m = unstructured(96, 96, 400, 2.0, 2);
        let k = Kernel::spmspm(&m, &m, (8, 8)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 0)]));
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)).expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        coverage_check(&k, &tasks, true);
        // All emitted tasks are non-empty.
        for t in &tasks {
            assert!(!t.plan.is_empty_task());
        }
    }

    #[test]
    fn drt_covers_all_nonzeros() {
        // Every non-zero of A must fall inside some emitted task's (i × k)
        // box (skipped tasks have no A or no B data; a non-zero of A only
        // needs covering when B's co-range has data — for B = A^T dense
        // rows guarantee it here, so check A coverage over emitted tasks
        // plus skipped counting).
        let m = diamond_band(40, 1200, 3);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 3000), ("B", 3000), ("Z", 0)]));
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)).expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        // Sum of per-task A-tile nnz over all (i,k) boxes, for a fixed j
        // sweep, equals A's nnz once per distinct j chunk.
        let j_chunks: BTreeSet<(u32, u32)> = tasks
            .iter()
            .map(|t| (t.plan.grid_ranges[&'j'].start, t.plan.grid_ranges[&'j'].end))
            .collect();
        assert!(!j_chunks.is_empty());
        let a_nnz_total: u64 = tasks.iter().map(|t| t.plan.tile("A").expect("A").nnz).sum();
        // Each j chunk re-reads (at most) all of A; emitted tasks carry
        // nonempty tiles only, so the sum is ≤ chunks × nnz and ≥ nnz.
        assert!(a_nnz_total >= 1);
        assert!(a_nnz_total <= j_chunks.len() as u64 * m.nnz() as u64);
    }

    #[test]
    fn suc_tasks_tile_space_with_fixed_shape() {
        let m = diamond_band(32, 600, 4);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]));
        let sizes = BTreeMap::from([('i', 8u32), ('k', 8), ('j', 8)]);
        let mut stream = TaskStream::build(&k, TaskGenOptions::suc(&['j', 'k', 'i'], cfg, &sizes))
            .expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        // All emitted S-U-C tasks have the same shape (except edge tiles).
        for t in &tasks {
            assert!(t.plan.grid_ranges[&'i'].len() <= 2);
            assert!(!t.plan.is_empty_task());
        }
        coverage_check(&k, &tasks, true);
        assert!(stream.emitted() == tasks.len() as u64);
    }

    #[test]
    fn suc_rejects_shape_over_worst_case() {
        let m = unstructured(64, 64, 100, 2.0, 5);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 100), ("B", 100), ("Z", 0)]));
        let sizes = BTreeMap::from([('i', 64u32), ('k', 64), ('j', 64)]);
        assert!(matches!(
            TaskStream::build(&k, TaskGenOptions::suc(&['j', 'k', 'i'], cfg, &sizes)),
            Err(CoreError::ShapeOverflowsBuffer { .. })
        ));
    }

    #[test]
    fn drt_preflight_rejects_impossible_partition() {
        let m = diamond_band(32, 600, 6);
        let k = Kernel::spmspm(&m, &m, (8, 8)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 8), ("B", 8), ("Z", 0)]));
        assert!(matches!(
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)),
            Err(CoreError::TileTooLarge { .. })
        ));
    }

    #[test]
    fn empty_tasks_are_skipped_and_counted() {
        // A block-diagonal-ish sparse matrix has many empty cross blocks.
        let m = unstructured(64, 64, 60, 2.0, 7);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 600), ("B", 600), ("Z", 0)]));
        let sizes = BTreeMap::from([('i', 4u32), ('k', 4), ('j', 4)]);
        let mut stream = TaskStream::build(&k, TaskGenOptions::suc(&['j', 'k', 'i'], cfg, &sizes))
            .expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert!(stream.skipped_empty() > 0, "sparse grid must have empty tasks");
        for t in &tasks {
            assert!(!t.plan.is_empty_task());
        }
    }

    #[test]
    fn drt_emits_fewer_tasks_than_suc_on_irregular_input() {
        // The headline mechanism: DRT's bigger coordinate tiles mean fewer
        // passes/tasks than the worst-case-limited S-U-C shape for the same
        // buffer budget.
        let m = unstructured(128, 128, 600, 2.0, 8);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let parts = Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 0)]);
        let drt_tasks = TaskStream::build(
            &k,
            TaskGenOptions::drt(&['j', 'k', 'i'], DrtConfig::new(parts.clone())),
        )
        .expect("stream")
        .count();
        // Best dense-safe S-U-C shape for 2048 bytes is about 12x12; use 12
        // rounded to micro multiples (12 coords = 3 micro tiles).
        let sizes = BTreeMap::from([('i', 12u32), ('k', 12), ('j', 12)]);
        let suc_tasks = TaskStream::build(
            &k,
            TaskGenOptions::suc(&['j', 'k', 'i'], DrtConfig::new(parts), &sizes),
        )
        .expect("stream")
        .count();
        assert!(
            drt_tasks < suc_tasks,
            "DRT ({drt_tasks}) should need fewer tasks than S-U-C ({suc_tasks})"
        );
    }

    #[test]
    fn fallback_remainders_keep_coverage_exact() {
        // A dense band with a tiny A partition: loading A under the pinned
        // (k, j) ranges of B's big stationary tile must subdivide and
        // re-issue remainders. Coverage must stay exact and disjoint even
        // when multiple pinned ranks are shortened.
        let m = diamond_band(48, 1800, 12);
        let k = Kernel::spmspm(&m, &m, (2, 2)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[
            ("A", 300),     // a handful of micro tiles at most
            ("B", 100_000), // effectively unlimited: k and j grow huge
            ("Z", 0),
        ]));
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)).expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert!(
            tasks.iter().any(|t| t.plan.trace.fallbacks > 0 || t.plan.partial_rank.is_some()),
            "scenario must exercise the fallback path"
        );
        coverage_check(&k, &tasks, true);
        // Every A tile still fits the tiny partition.
        for t in &tasks {
            assert!(t.plan.tile("A").expect("A").footprint() <= 300);
        }
        if stream.skipped_empty() == 0 {
            full_cover_check(&k, &tasks, 0);
        }
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for (n, s) in [(0usize, 4usize), (1, 4), (7, 3), (8, 4), (100, 7), (5, 1), (3, 0)] {
            let bounds = shard_bounds(n, s);
            assert!(!bounds.is_empty());
            let mut expect = 0usize;
            for r in &bounds {
                assert_eq!(r.start, expect, "shards must be contiguous");
                assert!(n == 0 || !r.is_empty(), "no empty shards for nonempty task lists");
                expect = r.end;
            }
            assert_eq!(expect, n, "shards must cover 0..{n}");
            if n > 0 {
                let sizes: Vec<usize> = bounds.iter().map(Range::len).collect();
                let (min, max) =
                    (sizes.iter().min().expect("min"), sizes.iter().max().expect("max"));
                assert!(max - min <= 1, "shards balanced to within one task: {sizes:?}");
            }
        }
    }

    #[test]
    fn task_budget_degrades_to_suc_but_keeps_exact_coverage() {
        let m = diamond_band(48, 1800, 1);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let parts = Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]);
        let full: Vec<Task> = TaskStream::build(
            &k,
            TaskGenOptions::drt(&['j', 'k', 'i'], DrtConfig::new(parts.clone())),
        )
        .expect("stream")
        .collect();
        assert!(full.len() >= 4, "need enough tasks to cut the budget mid-stream");
        let budget = ExecBudget::unlimited().with_max_tasks(2);
        let mut stream = TaskStream::build(
            &k,
            TaskGenOptions::drt(&['j', 'k', 'i'], DrtConfig::new(parts)).with_budget(budget),
        )
        .expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert_eq!(stream.degraded(), Some(BudgetCause::MaxTasks));
        assert!(stream.aborted().is_none(), "degradation is not an abort");
        // The degraded stream still tiles the space exactly — just with
        // more, smaller, statically-sized tasks past the budget point.
        coverage_check(&k, &tasks, true);
        if stream.skipped_empty() == 0 {
            full_cover_check(&k, &tasks, 0);
        }
        assert!(tasks.len() > 2, "S-U-C fallback keeps emitting past the DRT cap");
    }

    #[test]
    fn plan_budget_degrades_to_suc() {
        let m = unstructured(96, 96, 500, 2.0, 3);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 0)]));
        let budget = ExecBudget::unlimited().with_max_plan_candidates(3);
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg).with_budget(budget))
                .expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert_eq!(stream.degraded(), Some(BudgetCause::MaxPlanCandidates));
        assert!(stream.plan_calls() <= 4, "at most one planning call past the cap");
        coverage_check(&k, &tasks, true);
    }

    #[test]
    fn zero_task_budget_is_pure_suc_fallback() {
        let m = diamond_band(32, 600, 2);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]));
        let budget = ExecBudget::unlimited().with_max_tasks(0);
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg).with_budget(budget))
                .expect("stream");
        let tasks: Vec<Task> = (&mut stream).collect();
        assert_eq!(stream.degraded(), Some(BudgetCause::MaxTasks));
        assert_eq!(stream.plan_calls(), 0, "no DRT planning under a zero budget");
        coverage_check(&k, &tasks, true);
    }

    #[test]
    fn cancelled_stream_stops_cleanly_at_a_task_boundary() {
        let m = diamond_band(48, 1800, 1);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]));
        let cancel = CancelToken::new();
        let mut stream = TaskStream::build(
            &k,
            TaskGenOptions::drt(&['j', 'k', 'i'], cfg).with_cancel(cancel.clone()),
        )
        .expect("stream");
        let first = stream.next();
        assert!(first.is_some());
        cancel.cancel();
        assert!(stream.next().is_none(), "cancelled stream yields no more tasks");
        assert_eq!(stream.aborted(), Some(ExpiryKind::Cancelled));
        assert_eq!(stream.emitted(), 1);
        // And the stream stays terminated even if polled again.
        assert!(stream.next().is_none());
    }

    #[test]
    fn expired_deadline_aborts_before_the_first_task() {
        let m = diamond_band(32, 600, 2);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 4000), ("B", 4000), ("Z", 0)]));
        let cancel = CancelToken::new();
        cancel.set_deadline_in(std::time::Duration::ZERO);
        let mut stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg).with_cancel(cancel))
                .expect("stream");
        assert!(stream.next().is_none());
        assert_eq!(stream.aborted(), Some(ExpiryKind::DeadlineExceeded));
        assert_eq!(stream.emitted(), 0);
    }

    #[test]
    fn fallback_suc_sizes_are_dense_safe_or_minimal() {
        let m = unstructured(64, 64, 300, 2.0, 11);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 0)]));
        let sizes = fallback_suc_grid_sizes(&k, &cfg);
        for (&r, &s) in &sizes {
            assert!(s >= 1, "rank {r} must make progress");
            assert!(s <= k.extent(r).div_ceil(k.micro_step(r)), "rank {r} within grid extent");
        }
        // The chosen multiple is uniform before extent clamping: doubling it
        // must violate the dense rule (or exceed the grid) — i.e. maximal.
        let mult = *sizes.values().max().expect("nonempty");
        let doubled: BTreeMap<RankId, u32> =
            k.ranks().iter().map(|&r| (r, k.micro_step(r) * mult * 2)).collect();
        let grid_max =
            k.ranks().iter().map(|&r| k.extent(r).div_ceil(k.micro_step(r))).max().unwrap();
        assert!(
            mult >= grid_max
                || suc::validate_shape(&k, &doubled, &cfg.partitions, &cfg.size_model).is_err(),
            "fallback shape should be the largest dense-safe power of two"
        );
    }

    #[test]
    fn fallback_coord_sizes_build_a_valid_suc_stream() {
        let m = unstructured(64, 64, 300, 2.0, 12);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 0)]));
        let coords = fallback_suc_coord_sizes(&k, &cfg);
        let grids = fallback_suc_grid_sizes(&k, &cfg);
        for (&r, &c) in &coords {
            assert_eq!(c, grids[&r] * k.micro_step(r), "rank {r}: coords = grid units × step");
        }
        let stream = TaskStream::build(&k, TaskGenOptions::suc(&['j', 'k', 'i'], cfg, &coords))
            .expect("fallback shape must pass the capacity rule");
        assert!(stream.count() > 0);
    }

    #[test]
    fn region_restricted_stream_stays_in_region() {
        let m = unstructured(64, 64, 300, 2.0, 9);
        let k = Kernel::spmspm(&m, &m, (4, 4)).expect("valid");
        let cfg = DrtConfig::new(Partitions::from_bytes(&[("A", 800), ("B", 800), ("Z", 0)]));
        let region = BTreeMap::from([('i', 2u32..10u32), ('k', 0..8), ('j', 4..12)]);
        let stream =
            TaskStream::build(&k, TaskGenOptions::drt(&['j', 'k', 'i'], cfg).in_region(&region))
                .expect("stream");
        for t in stream {
            assert!(t.plan.grid_ranges[&'i'].start >= 2 && t.plan.grid_ranges[&'i'].end <= 10);
            assert!(t.plan.grid_ranges[&'k'].end <= 8);
            assert!(t.plan.grid_ranges[&'j'].start >= 4 && t.plan.grid_ranges[&'j'].end <= 12);
        }
    }
}

//! Incremental re-execution of SpMSpM runs across small operand deltas.
//!
//! An [`IncrementalSpmspm`] is a thin handle: a [`Session`] around one
//! engine configuration plus a content-addressed store of per-task
//! results. After a [`drt_tensor::DeltaBatch`] patches an operand in
//! place ([`CsMatrix::apply_delta`]), [`IncrementalSpmspm::run`] takes
//! the engine's serial streaming path with the store attached: it plans
//! the whole stream from scratch (planning reads only prefix sums, so it
//! is cheap), steps only the tasks whose inputs changed, and splices the
//! stored results, shared by pointer, for everything else.
//!
//! ## Why splicing is bit-identical
//!
//! Every engine run executes tasks through one worker step and commits
//! them through one reducer ([`crate::engine`]). A step's effects for
//! task *t* depend only on task *t*'s plan, the residency left by task
//! *t − 1*, and the operand values under the task's coordinate ranges —
//! never on how earlier tasks executed. Order-dependent state (the
//! Z-cache LRU, PE round-robin, output assembly) is confined to the
//! task's merge record, which the reducer commits in global task order.
//! A stored `TaskCapture` is exactly a one-task shard (the step's totals
//! plus its merge record), so folding captures — whether freshly stepped
//! or spliced from a previous run — reproduces the plain serial run
//! bit-for-bit, by the same argument that makes sharded runs match it.
//! The worker skips spliced tasks, so before it steps a miss it re-seeds
//! its residency from the previous task's ranges. The conformance
//! suite pins `RunReport::bit_diff == None` against from-scratch runs.
//!
//! ## What a task result is keyed by
//!
//! * the task's full [`TilePlan`] (coordinate ranges, per-tile nnz and
//!   footprints, extraction trace) — every modeled cost reads it;
//! * the predecessor task's coordinate ranges (they seed tile residency,
//!   which decides the task's fetch-vs-hit traffic), or `None` for the
//!   first task;
//! * **value-inclusive** fingerprints of the A rows and B rows the task
//!   reads. Planning never reads values, but compute does, so a
//!   value-only update leaves every plan unchanged and must still
//!   invalidate the tasks crossing it.
//!
//! Each row's fingerprint hashes its index, minor coordinates and raw
//! value bits in two independently seeded 64-bit lanes, and a run keeps
//! the prefix sums of those per-row words. A task's fingerprint of a row
//! range is then two subtractions, however many rows the range spans.
//!
//! The store is addressed by a 64-bit multiply-rotate digest of the whole
//! key and confirms every hit by exact equality against the stored key
//! (plan, predecessor ranges, both 128-bit fingerprints). A digest
//! collision is therefore a miss, never a wrong splice. Only a miss
//! stores a key, and its plan is moved in from the streamed task rather
//! than cloned.
//!
//! Keys are conservative (a changed row invalidates every task crossing
//! it; an unchanged task always matches, modulo 128-bit fingerprint
//! collisions) and config-blind: one store serves exactly one engine
//! configuration.
//!
//! ## How the store stays bounded
//!
//! Every entry carries the number of the run that last hit or inserted
//! it. When a run leaves more than `STORE_CAP_RUNS` (4) times its own
//! task count in the store, whole runs' entries are dropped, least
//! recently hit first, until at most `STORE_KEEP_RUNS` (2) times its task
//! count remain. The latest run's entries always survive. Superseded
//! results are kept until then on purpose: a delta that is later
//! reverted makes them valid again, and a revert that finds them splices
//! instead of re-executing.
//!
//! ## What each kind of session does
//!
//! * Plain, budgeted and cancelled sessions splice on the streaming path
//!   and degrade exactly as their from-scratch runs do.
//! * Probed (a splice would cut the trace), multi-threaded, retrying and
//!   chaos sessions run the engine's ordinary path, leave the store
//!   untouched, and count every committed task as executed.
//! * A spec-backed session is a typed `BadConfig` error at
//!   [`IncrementalSpmspm::run`]: the store is keyed for one engine
//!   configuration.
//!
//! ```rust
//! use drt_accel::engine::{EngineConfig, Tiling};
//! use drt_accel::incremental::IncrementalSpmspm;
//! use drt_core::config::{DrtConfig, Partitions};
//! use drt_tensor::{CsMatrix, DeltaBatch};
//!
//! // Partitions small enough that a 256×256 identity splits into many
//! // tiles — an incremental run has per-task results worth splicing.
//! let parts = Partitions::from_bytes(&[("A", 1200), ("B", 1600), ("Z", 512)]);
//! let cfg = EngineConfig::new(("demo", Tiling::Drt, DrtConfig::new(parts)));
//! let mut eng = IncrementalSpmspm::new(cfg);
//!
//! use drt_tensor::MajorAxis;
//! let eye = |n: u32| {
//!     CsMatrix::from_entries(n, n, (0..n).map(|i| (i, i, 1.0)).collect(), MajorAxis::Row)
//! };
//! let mut a = eye(256);
//! let b = eye(256);
//! let first = eng.run(&a, &b).unwrap();
//!
//! let mut delta = DeltaBatch::new();
//! delta.upsert(3, 7, 2.5);
//! a.apply_delta(&delta);
//! let second = eng.run(&a, &b).unwrap();
//! assert!(eng.last_stats().spliced > 0); // most tasks replayed
//! # let _ = (first, second);
//! ```

use crate::engine::{ranges6, TaskCapture};
use crate::error::DrtError;
use crate::report::RunReport;
use crate::session::Session;
use drt_core::drt::TilePlan;
use drt_core::taskgen::Task;
use drt_tensor::CsMatrix;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// Seeds of the two fingerprint lanes.
const LANE_SEEDS: [u64; 2] = [0x1C4E_11E1_D347_A5EE, 0xA076_1D64_78BD_642F];

/// A run that leaves more than this many times its task count in the
/// store trims it (see the module docs).
const STORE_CAP_RUNS: usize = 4;

/// A trim keeps the most recently hit entries, whole runs at a time, up
/// to this many times the latest run's task count.
const STORE_KEEP_RUNS: usize = 2;

/// One multiply-rotate mixing step.
#[inline]
fn fp_mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(13) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Murmur-style avalanche finisher.
#[inline]
fn fp_finish(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 33)
}

/// A value-inclusive fingerprint of a row range, one word per lane.
type RangeFp = [u64; 2];

/// Prefix sums (wrapping, per lane) of the per-major-fiber fingerprints
/// of a row-major operand: entry `r` covers rows `0..r`. Each row hashes
/// its index, minor coordinates and raw value bits. `O(nnz)` once per
/// run; [`range_fp`] then answers any row range in `O(1)`.
fn row_fps(m: &CsMatrix) -> Vec<RangeFp> {
    let mut sums = Vec::with_capacity(m.major_dim() as usize + 1);
    let mut acc: RangeFp = [0; 2];
    sums.push(acc);
    for r in 0..m.major_dim() {
        let f = m.fiber(r);
        let mut h = LANE_SEEDS.map(|seed| fp_mix(seed, u64::from(r)));
        for (c, v) in f.coords.iter().zip(f.values) {
            for h in &mut h {
                *h = fp_mix(fp_mix(*h, u64::from(*c)), v.to_bits());
            }
        }
        for (a, h) in acc.iter_mut().zip(h) {
            *a = a.wrapping_add(fp_finish(h));
        }
        sums.push(acc);
    }
    sums
}

/// Fingerprint of the rows under `r` (clamped to the operand), from the
/// prefix sums of [`row_fps`]. Row indices are baked into each row's
/// fingerprint, so two ranges with shifted-but-equal content cannot
/// collide structurally.
#[inline]
fn range_fp(sums: &[RangeFp], r: &Range<u32>) -> RangeFp {
    let rows = sums.len() - 1;
    let (lo, hi) = (sums[(r.start as usize).min(rows)], sums[(r.end as usize).min(rows)]);
    [hi[0].wrapping_sub(lo[0]), hi[1].wrapping_sub(lo[1])]
}

/// Multiply-rotate [`Hasher`] over [`fp_mix`]: digests task keys, and
/// hashes the store's digest keys. The store holds one entry per digest,
/// so keys whose digests collide replace each other instead of piling
/// into one bucket.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        fp_finish(self.0)
    }
    fn write(&mut self, bytes: &[u8]) {
        for c in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..c.len()].copy_from_slice(c);
            self.0 = fp_mix(self.0, u64::from_le_bytes(buf));
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.0 = fp_mix(self.0, u64::from(v));
    }
    fn write_u32(&mut self, v: u32) {
        self.0 = fp_mix(self.0, u64::from(v));
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = fp_mix(self.0, v);
    }
    fn write_usize(&mut self, v: usize) {
        self.0 = fp_mix(self.0, v as u64);
    }
}

/// Everything in a task's key but its plan (see the module docs for the
/// completeness argument).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct KeyTail {
    /// Predecessor coordinate ranges (residency seed); `None` for the
    /// run-opening task, whose tiles are always cold.
    prev: Option<[u32; 6]>,
    /// Value-inclusive fingerprint of the A rows in the task's i-range.
    a_fp: RangeFp,
    /// Value-inclusive fingerprint of the B rows in the task's k-range.
    b_fp: RangeFp,
}

/// The store address of a task's key.
fn digest(plan: &TilePlan, tail: &KeyTail) -> u64 {
    let mut h = DigestHasher::default();
    plan.hash(&mut h);
    tail.hash(&mut h);
    h.finish()
}

/// One stored task result under its full key.
struct Entry {
    plan: TilePlan,
    tail: KeyTail,
    capture: Arc<TaskCapture>,
    /// The run that last hit or inserted this entry.
    run: u64,
}

/// Counters for the most recent [`IncrementalSpmspm::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Committed tasks in the run.
    pub tasks: u64,
    /// Tasks executed for real (missed the store, or ran the ordinary path).
    pub executed: u64,
    /// Tasks spliced from the result store.
    pub spliced: u64,
    /// DRT planner invocations of a store run (every run plans from
    /// scratch); 0 for a run that took the ordinary path.
    pub plans_computed: u64,
    /// Always 0 (no plan is reused across runs); kept for the repo
    /// benchmark's (`perfbench`) field reads.
    pub plans_reused: u64,
}

impl IncrStats {
    /// Fraction of tasks executed for real (`None` for an empty run).
    pub fn executed_fraction(&self) -> Option<f64> {
        (self.tasks > 0).then(|| self.executed as f64 / self.tasks as f64)
    }
}

/// The content-addressed store of per-task engine results behind an
/// [`IncrementalSpmspm`]. The engine's serial streaming path opens a run
/// with [`TaskStore::begin`], asks [`TaskStore::capture`] for each task
/// in stream order, and closes the run with [`TaskStore::finish`].
#[derive(Default)]
pub(crate) struct TaskStore {
    results: HashMap<u64, Entry, BuildHasherDefault<DigestHasher>>,
    /// Runs so far: the stamp of the current run's hits and inserts.
    runs: u64,
    /// The open run's row fingerprint prefix sums of A and B, previous
    /// task's ranges, and task and miss counts.
    a_fps: Vec<RangeFp>,
    b_fps: Vec<RangeFp>,
    prev: Option<[u32; 6]>,
    tasks: u64,
    executed: u64,
    /// Counters of the latest run.
    last: IncrStats,
}

impl TaskStore {
    /// Open a run over the row-major operands `a_rows` and `b_rows`.
    pub(crate) fn begin(&mut self, a_rows: &CsMatrix, b_rows: &CsMatrix) {
        self.runs += 1;
        self.a_fps = row_fps(a_rows);
        self.b_fps = row_fps(b_rows);
        (self.prev, self.tasks, self.executed) = (None, 0, 0);
    }

    /// The capture of the run's next task: the stored one when the task's
    /// key hits, else `step(task, prev)`'s, stored under the key (`prev`
    /// is the previous task's i/k/j ranges).
    pub(crate) fn capture(
        &mut self,
        task: Task,
        step: impl FnOnce(&Task, Option<[u32; 6]>) -> TaskCapture,
    ) -> Arc<TaskCapture> {
        let p = &task.plan.coord_ranges;
        let tail = KeyTail {
            prev: self.prev.replace(ranges6(&task)),
            a_fp: range_fp(&self.a_fps, &p[&'i']),
            b_fp: range_fp(&self.b_fps, &p[&'k']),
        };
        self.tasks += 1;
        let d = digest(&task.plan, &tail);
        if let Some(e) = self.results.get_mut(&d).filter(|e| e.tail == tail && e.plan == task.plan)
        {
            e.run = self.runs;
            return Arc::clone(&e.capture);
        }
        self.executed += 1;
        let capture = Arc::new(step(&task, tail.prev));
        let entry = Entry { plan: task.plan, tail, capture: Arc::clone(&capture), run: self.runs };
        self.results.insert(d, entry);
        capture
    }

    /// Close the run: bound the store and record the run's counters.
    pub(crate) fn finish(&mut self, plan_calls: u64) {
        self.evict(self.tasks as usize);
        self.last = IncrStats {
            tasks: self.tasks,
            executed: self.executed,
            spliced: self.tasks - self.executed,
            plans_computed: plan_calls,
            plans_reused: 0,
        };
    }

    /// Enforce the store bound after a run of `tasks` tasks: above
    /// [`STORE_CAP_RUNS`] times `tasks` entries, drop every entry last hit
    /// at or before the newest run that does not fit in
    /// [`STORE_KEEP_RUNS`] times `tasks`. The latest run's entries number
    /// at most `tasks`, so they always survive.
    fn evict(&mut self, tasks: usize) {
        if self.results.len() <= STORE_CAP_RUNS * tasks {
            return;
        }
        let keep = STORE_KEEP_RUNS * tasks;
        let mut runs: Vec<u64> = self.results.values().map(|e| e.run).collect();
        let (_, &mut cutoff, _) = runs.select_nth_unstable_by(keep, |x, y| y.cmp(x));
        self.results.retain(|_, e| e.run > cutoff);
    }
}

/// A reusable SpMSpM runner that re-executes only what an operand delta
/// touched: a session plus its task store. See the module docs for the
/// determinism contract and what each kind of session does.
pub struct IncrementalSpmspm {
    session: Session,
    store: TaskStore,
}

impl std::fmt::Debug for IncrementalSpmspm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSpmspm")
            .field("session", &self.session)
            .field("cached_tasks", &self.store.results.len())
            .field("last", &self.store.last)
            .finish()
    }
}

impl IncrementalSpmspm {
    /// A runner around `session` (an [`crate::engine::EngineConfig`]
    /// converts into its [`Session::from_engine_config`] session), with
    /// an empty task store.
    pub fn new(session: impl Into<Session>) -> IncrementalSpmspm {
        IncrementalSpmspm { session: session.into(), store: TaskStore::default() }
    }

    /// Run `Z = A · B`, splicing stored results for every task whose key
    /// (plan, predecessor residency, operand-row content) is unchanged
    /// since an earlier run of this instance. The report is bit-identical
    /// to the same session's from-scratch [`Session::run_spmspm`] run,
    /// degradation included.
    ///
    /// # Errors
    ///
    /// The session's own run errors (tiling configuration errors as
    /// [`DrtError::Core`], a shard that panicked through every retry as
    /// [`DrtError::ShardPanicked`]), and a `BadConfig` [`DrtError::Core`]
    /// for a spec-backed session.
    pub fn run(&mut self, a: &CsMatrix, b: &CsMatrix) -> Result<RunReport, DrtError> {
        let runs = self.store.runs;
        let report = self.session.run_stored(a, b, &mut self.store)?;
        if self.store.runs == runs {
            // The ordinary path: every committed task executed.
            let tasks = report.tasks;
            self.store.last = IncrStats { tasks, executed: tasks, ..IncrStats::default() };
        }
        Ok(report)
    }

    /// Counters for the most recent [`IncrementalSpmspm::run`].
    pub fn last_stats(&self) -> IncrStats {
        self.store.last
    }

    /// Number of distinct task results currently stored: at most four
    /// times the latest store run's task count (see the module docs).
    pub fn cached_tasks(&self) -> usize {
        self.store.results.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Tiling};
    use drt_core::config::{DrtConfig, Partitions};
    use drt_core::kernel::Kernel;
    use drt_core::taskgen::TaskStream;
    use drt_tensor::{DeltaBatch, MajorAxis};

    fn band(n: u32, w: u32) -> CsMatrix {
        let mut entries = Vec::new();
        for i in 0..n {
            for d in 0..=w {
                if i + d < n {
                    entries.push((i, i + d, 1.0 + f64::from(i * 31 + d)));
                }
            }
        }
        CsMatrix::from_entries(n, n, entries, MajorAxis::Row)
    }

    fn drt_cfg() -> EngineConfig {
        let parts = Partitions::from_bytes(&[("A", 1200), ("B", 1600), ("Z", 512)]);
        EngineConfig::new(("incr-test", Tiling::Drt, DrtConfig::new(parts)))
    }

    #[test]
    fn first_run_matches_from_scratch() {
        let (a, b) = (band(64, 1), band(64, 2));
        let cfg = drt_cfg();
        let scratch = scratch_run(&a, &b, &cfg);
        let mut eng = IncrementalSpmspm::new(cfg);
        let incr = eng.run(&a, &b).expect("incremental run");
        assert_eq!(scratch.bit_diff(&incr), None);
        let s = eng.last_stats();
        assert_eq!(s.spliced, 0, "a cold store has nothing to splice");
        assert_eq!(s.executed, s.tasks);
    }

    #[test]
    fn identical_rerun_splices_every_task() {
        let (a, b) = (band(64, 1), band(64, 2));
        let mut eng = IncrementalSpmspm::new(drt_cfg());
        let r1 = eng.run(&a, &b).expect("first run");
        let first = eng.last_stats();
        let r2 = eng.run(&a, &b).expect("second run");
        assert_eq!(r1.bit_diff(&r2), None);
        let s = eng.last_stats();
        assert_eq!(s.executed, 0, "unchanged operands must splice everything");
        assert_eq!(s.spliced, s.tasks);
        assert_eq!(s.plans_computed, first.plans_computed, "every run plans from scratch");
    }

    #[test]
    fn small_delta_reexecutes_a_strict_subset() {
        let (mut a, b) = (band(96, 1), band(96, 2));
        let cfg = drt_cfg();
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold run");
        let cold = eng.last_stats();

        let mut delta = DeltaBatch::new();
        delta.upsert(10, 12, 5.0);
        a.apply_delta(&delta);

        let scratch = scratch_run(&a, &b, &cfg);
        let incr = eng.run(&a, &b).expect("incremental run on patched operand");
        assert_eq!(scratch.bit_diff(&incr), None);

        let s = eng.last_stats();
        assert!(s.spliced > 0, "tasks away from the delta must splice");
        assert!(
            s.executed < cold.executed,
            "a one-entry delta must re-execute fewer tasks than the cold run ({} vs {})",
            s.executed,
            cold.executed
        );
    }

    #[test]
    fn value_only_change_invalidates_results() {
        // Flipping a value without touching structure leaves every plan
        // intact but changes the row fingerprints (value-inclusive): the
        // crossing tasks re-run, and the output still matches from-scratch
        // bit-for-bit.
        let (mut a, b) = (band(64, 1), band(64, 2));
        let cfg = drt_cfg();
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold run");

        let mut delta = DeltaBatch::new();
        delta.upsert(5, 5, 99.0); // (5,5) already exists in a band matrix
        a.apply_delta(&delta);

        let scratch = scratch_run(&a, &b, &cfg);
        let incr = eng.run(&a, &b).expect("incremental run");
        assert_eq!(scratch.bit_diff(&incr), None);
        let s = eng.last_stats();
        assert!(s.executed > 0, "value change must invalidate crossing tasks");
    }

    #[test]
    fn plans_computed_counts_every_planner_call() {
        let (mut a, b) = (band(96, 1), band(96, 2));
        let cfg = drt_cfg();
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold run");

        let mut delta = DeltaBatch::new();
        delta.upsert(40, 41, 3.0);
        a.apply_delta(&delta);
        eng.run(&a, &b).expect("incremental run");

        let kernel = Kernel::spmspm_fmt(&a, &b, cfg.micro, cfg.micro_format).expect("kernel");
        let mut fresh = TaskStream::build(&kernel, cfg.task_options()).expect("stream");
        let tasks = (&mut fresh).count() as u64;
        let s = eng.last_stats();
        assert_eq!(s.tasks, tasks);
        assert!(fresh.plan_calls() > 0);
        assert_eq!(s.plans_computed, fresh.plan_calls());
        assert_eq!(s.plans_reused, 0);
    }

    #[test]
    fn suc_tiling_is_supported() {
        let (mut a, b) = (band(64, 1), band(64, 2));
        let sizes = std::collections::BTreeMap::from([('i', 16), ('k', 16), ('j', 16)]);
        let parts = Partitions::from_bytes(&[("A", 4096), ("B", 4096), ("Z", 4096)]);
        let cfg = EngineConfig::new(("incr-suc", Tiling::Suc(sizes), DrtConfig::new(parts)));
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold run");

        let mut delta = DeltaBatch::new();
        delta.upsert(2, 3, -1.5);
        a.apply_delta(&delta);

        let scratch = scratch_run(&a, &b, &cfg);
        let incr = eng.run(&a, &b).expect("incremental run");
        assert_eq!(scratch.bit_diff(&incr), None);
        let s = eng.last_stats();
        assert!(s.spliced > 0, "S-U-C tasks away from the delta must splice");
        assert_eq!(s.plans_computed, 0, "S-U-C never calls the DRT planner");
    }

    /// A value-only delta on one A row: every plan stays, and the tasks
    /// crossing the row miss. Under the default `j, k, i` order a miss's
    /// predecessor in the same (k, j) box splices and shares its B tile,
    /// so unless the run's worker re-seeds residency from that spliced
    /// task before stepping the miss, the miss re-fetches B and the
    /// traffic diverges from the from-scratch run.
    #[test]
    fn a_miss_after_a_spliced_task_reseeds_residency() {
        let sizes = std::collections::BTreeMap::from([('i', 16), ('k', 16), ('j', 16)]);
        let parts = Partitions::from_bytes(&[("A", 4096), ("B", 4096), ("Z", 4096)]);
        let suc = EngineConfig::new(("incr-suc", Tiling::Suc(sizes), DrtConfig::new(parts)));
        let row = 50;
        for cfg in [drt_cfg(), suc] {
            let (mut a, b) = (band(96, 1), band(96, 2));
            let mut eng = IncrementalSpmspm::new(cfg.clone());
            eng.run(&a, &b).expect("cold run");
            let mut delta = DeltaBatch::new();
            delta.upsert(row, row, -3.25); // (row, row) exists in a band matrix
            a.apply_delta(&delta);

            let kernel = Kernel::spmspm_fmt(&a, &b, cfg.micro, cfg.micro_format).expect("kernel");
            let tasks: Vec<Task> =
                TaskStream::build(&kernel, cfg.task_options()).expect("stream").collect();
            let crosses = |t: &Task| t.plan.coord_ranges[&'i'].contains(&row);
            let b_tile = |t: &Task| ranges6(t)[2..].to_vec();
            assert!(
                tasks.windows(2).any(|w| {
                    !crosses(&w[0]) && crosses(&w[1]) && b_tile(&w[0]) == b_tile(&w[1])
                }),
                "{}: no miss follows a spliced task sharing its B tile",
                cfg.name
            );

            let incr = eng.run(&a, &b).expect("incremental run");
            assert_eq!(scratch_run(&a, &b, &cfg).bit_diff(&incr), None, "{}", cfg.name);
            let s = eng.last_stats();
            assert!(s.executed > 0 && s.spliced > 0, "{}: {s:?}", cfg.name);
        }
    }

    /// A small deterministic generator for delta streams (splitmix64).
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % u64::from(n)) as u32
        }
    }

    /// An `i`-outermost DRT configuration over a power-law operand pair:
    /// a dirty row of `A` invalidates only the tasks crossing it.
    fn stream_setup(n: u32) -> (EngineConfig, CsMatrix, CsMatrix) {
        let parts = Partitions::from_bytes(&[("A", 2048), ("B", 2048), ("Z", 1024)]);
        let mut cfg = EngineConfig::new(("incr-stream", Tiling::Drt, DrtConfig::new(parts)));
        cfg.loop_order = vec!['i', 'k', 'j'];
        let nnz = 8 * n as usize;
        let a = drt_workloads::patterns::unstructured(n, n, nnz, 1.5, 11);
        let b = drt_workloads::patterns::unstructured(n, n, nnz, 1.0, 12);
        (cfg, a, b)
    }

    /// An existing non-zero of `a` in a random non-empty row.
    fn existing_entry(a: &CsMatrix, rng: &mut Lcg) -> (u32, u32, f64) {
        loop {
            let r = rng.below(a.nrows());
            let f = a.fiber(r);
            if !f.is_empty() {
                let at = rng.below(f.len() as u32) as usize;
                return (r, f.coords[at], f.values[at]);
            }
        }
    }

    /// Delta `t` of a mixed stream: scattered upserts, row-local upserts,
    /// a value-only change of an existing entry, or a delete of one.
    fn mixed_delta(a: &CsMatrix, rng: &mut Lcg, t: usize) -> DeltaBatch {
        let n = a.nrows();
        let mut d = DeltaBatch::new();
        match t % 4 {
            0 => {
                for _ in 0..2 {
                    d.upsert(rng.below(n), rng.below(n), 1.0 + f64::from(rng.below(90)));
                }
            }
            1 => {
                let r = rng.below(n);
                for _ in 0..4 {
                    d.upsert(r, rng.below(n), -1.0 - f64::from(rng.below(90)));
                }
            }
            2 => {
                let (r, c, v) = existing_entry(a, rng);
                d.upsert(r, c, v + 0.5);
            }
            _ => {
                let (r, c, _) = existing_entry(a, rng);
                d.delete(r, c);
            }
        }
        d
    }

    fn scratch_run(a: &CsMatrix, b: &CsMatrix, cfg: &EngineConfig) -> RunReport {
        Session::from_engine_config(cfg.clone()).run_spmspm(a, b).expect("from-scratch run")
    }

    #[test]
    fn store_stays_bounded_and_a_revert_splices_everything() {
        let (cfg, base, b) = stream_setup(384);
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&base, &b).expect("cold run");
        let mut a = base.clone();
        let mut rng = Lcg(7);
        for t in 0..20 {
            a.apply_delta(&mixed_delta(&a, &mut rng, t));
            let incr = eng.run(&a, &b).expect("incremental run");
            assert_eq!(scratch_run(&a, &b, &cfg).bit_diff(&incr), None, "delta {t}");
            let s = eng.last_stats();
            assert!(
                eng.cached_tasks() <= STORE_CAP_RUNS * s.tasks as usize,
                "delta {t}: {} stored results for a {}-task run",
                eng.cached_tasks(),
                s.tasks
            );
        }
        assert_ne!(a, base, "the stream must leave the operand changed");
        a.apply_delta(&DeltaBatch::diff(&a, &base));
        assert_eq!(a, base);
        let incr = eng.run(&a, &b).expect("revert run");
        assert_eq!(scratch_run(&a, &b, &cfg).bit_diff(&incr), None);
        let s = eng.last_stats();
        assert_eq!(s.executed, 0, "the base's results must survive the stream's churn");
        assert_eq!(s.spliced, s.tasks);
    }

    #[test]
    fn eviction_bounds_a_long_stream_and_keeps_the_latest_run() {
        let (cfg, mut a, b) = stream_setup(256);
        let mut eng = IncrementalSpmspm::new(cfg.clone());
        eng.run(&a, &b).expect("cold run");
        let mut rng = Lcg(3);
        let mut trims = 0;
        for t in 0..24 {
            let before = eng.cached_tasks();
            let mut d = DeltaBatch::new();
            for _ in 0..4 {
                d.upsert(rng.below(256), rng.below(256), 2.0 + f64::from(t));
            }
            a.apply_delta(&d);
            let incr = eng.run(&a, &b).expect("incremental run");
            assert_eq!(scratch_run(&a, &b, &cfg).bit_diff(&incr), None, "delta {t}");
            let s = eng.last_stats();
            assert!(eng.cached_tasks() <= STORE_CAP_RUNS * s.tasks as usize, "delta {t}");
            if eng.cached_tasks() < before + s.executed as usize {
                trims += 1;
                assert!(eng.cached_tasks() <= STORE_KEEP_RUNS * s.tasks as usize, "delta {t}");
            }
        }
        assert!(trims > 0, "the stream must outgrow the bound at least once");
        // The latest run's entries always survive a trim.
        eng.run(&a, &b).expect("rerun");
        assert_eq!(eng.last_stats().executed, 0);
    }

    #[test]
    fn digest_collision_is_a_miss_not_a_wrong_splice() {
        let (a, b) = (band(64, 1), band(64, 2));
        let cfg = drt_cfg();
        let scratch = scratch_run(&a, &b, &cfg);
        // A wrong capture under a real digest with a different full key: a
        // mutated fingerprint, then a plan with one tile's nnz changed.
        let plant: [fn(&mut Entry); 2] = [|e| e.tail.a_fp[0] ^= 1, |e| e.plan.tiles[0].nnz += 1];
        for mutate in plant {
            let mut eng = IncrementalSpmspm::new(cfg.clone());
            eng.run(&a, &b).expect("cold run");
            let mut digests: Vec<u64> = eng.store.results.keys().copied().collect();
            digests.sort_unstable();
            let other = Arc::clone(&eng.store.results[&digests[1]].capture);
            let e = eng.store.results.get_mut(&digests[0]).expect("stored entry");
            e.capture = other;
            mutate(e);

            let incr = eng.run(&a, &b).expect("run over the planted entry");
            assert_eq!(scratch.bit_diff(&incr), None);
            let s = eng.last_stats();
            assert_eq!(s.executed, 1, "only the planted task re-executes");
        }
    }

    /// The sequential per-row fingerprint and fold that keyed tasks
    /// before prefix sums: the oracle for [`range_fp`]'s verdicts.
    fn oracle_row_fps(m: &CsMatrix) -> Vec<u64> {
        (0..m.major_dim())
            .map(|r| {
                let f = m.fiber(r);
                let mut h = fp_mix(LANE_SEEDS[0], u64::from(r));
                for (c, v) in f.coords.iter().zip(f.values) {
                    h = fp_mix(h, u64::from(*c));
                    h = fp_mix(h, v.to_bits());
                }
                fp_finish(h)
            })
            .collect()
    }

    fn fold_rows(fps: &[u64], r: &Range<u32>) -> u64 {
        let lo = (r.start as usize).min(fps.len());
        let hi = (r.end as usize).min(fps.len());
        fp_finish(fps[lo..hi].iter().fold(LANE_SEEDS[0], |h, &f| fp_mix(h, f)))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One value-only edit, insert or delete, inside or outside a
        /// random row range: the prefix-sum fingerprint reaches the same
        /// equal/unequal verdict as the sequential fold.
        #[test]
        fn range_fingerprints_agree_with_sequential_fold(
            shape in (1u32..12, 1u32..12),
            cells in proptest::collection::vec((0u32..12, 0u32..12, 1u32..50), 0..40),
            range in (0u32..14, 0u32..14),
            edit in (0u8..3, 0u32..12, 0u32..12, 0u32..64),
        ) {
            let (nrows, ncols) = shape;
            let entries: Vec<(u32, u32, f64)> = cells
                .iter()
                .map(|&(r, c, v)| (r % nrows, c % ncols, f64::from(v)))
                .collect();
            let old = CsMatrix::from_entries(nrows, ncols, entries, MajorAxis::Row);
            let (kind, r, c, pick) = edit;
            let (r, c) = (r % nrows, c % ncols);
            let mut d = DeltaBatch::new();
            match (kind, old.nnz()) {
                (0, n) if n > 0 => {
                    let (r, c, v) = old.iter().nth(pick as usize % n).expect("entry");
                    d.upsert(r, c, v + 0.25);
                }
                (1, n) if n > 0 => {
                    let (r, c, _) = old.iter().nth(pick as usize % n).expect("entry");
                    d.delete(r, c);
                }
                _ => {
                    d.upsert(r, c, 100.0 + f64::from(pick));
                }
            }
            let mut new = old.clone();
            new.apply_delta(&d);
            let rows = range.0.min(range.1)..range.0.max(range.1);

            let oracle_same = fold_rows(&oracle_row_fps(&old), &rows)
                == fold_rows(&oracle_row_fps(&new), &rows);
            let same = range_fp(&row_fps(&old), &rows) == range_fp(&row_fps(&new), &rows);
            proptest::prop_assert_eq!(same, oracle_same);
            let edited_row = d.ops()[0].0;
            let inside = rows.contains(&edited_row) && old != new;
            proptest::prop_assert_eq!(same, !inside);
        }
    }
}

//! Incremental re-execution of SpMSpM runs across small operand deltas.
//!
//! An [`IncrementalSpmspm`] owns one engine configuration and a
//! content-addressed store of per-task engine results. After a
//! [`drt_tensor::DeltaBatch`] patches an operand in place
//! ([`CsMatrix::apply_delta`]), the next [`IncrementalSpmspm::run`]
//! plans the whole task stream from scratch (planning reads only prefix
//! sums, so it is cheap), re-executes only the tasks whose inputs
//! actually changed, and splices the stored results for everything else.
//! A spliced task shares its stored capture by pointer.
//!
//! ## Why splicing is bit-identical
//!
//! The sharded engine already proves the required purity: a worker's
//! load/compute/extract effects for task *t* depend only on task *t*'s
//! plan, the residency seeded from task *t − 1*, and the operand values
//! under the task's coordinate ranges — never on how earlier tasks
//! executed. Order-dependent state (the Z-cache LRU, PE round-robin,
//! output assembly) is confined to a per-task merge record that the
//! reducer replays in global task order. A stored [`TaskCapture`] is
//! exactly a one-task shard's output, so replaying captures — whether
//! freshly computed or spliced from a previous run — reproduces the
//! serial run bit-for-bit. The conformance suite pins
//! `RunReport::bit_diff == None` against from-scratch runs.
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
//! Keys are conservative (a changed row invalidates every task crossing
//! it; an unchanged task always matches, modulo 64-bit fingerprint
//! collisions) and config-blind: one `IncrementalSpmspm` serves exactly
//! one engine configuration.
//!
//! Incremental runs are complete, unprobed, inert-fault serial runs —
//! the fast path the delta workloads need. Probed, budget-capped,
//! chaos-injected, or cancelled runs must go through
//! [`crate::engine::run_spmspm_ft`], which reports degradation honestly;
//! this type does not accept those knobs at all rather than silently
//! ignoring them.
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

use crate::engine::{capture_task, replay_captures, EngineConfig, TaskCapture, Tiling};
use crate::error::DrtError;
use crate::report::RunReport;
use drt_core::drt::TilePlan;
use drt_core::kernel::Kernel;
use drt_core::taskgen::{Task, TaskGenOptions, TaskStream};
use drt_tensor::{CsMatrix, MajorAxis};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Seed for the value-inclusive row fingerprints.
const ROW_FP_SEED: u64 = 0x1C4E_11E1_D347_A5EE;

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

/// Per-major-fiber content fingerprints of a row-major operand: index,
/// minor coordinates, and raw value bits. `O(nnz)` once per run; task
/// keys then fold the rows in each task's range.
fn row_fps(m: &CsMatrix) -> Vec<u64> {
    (0..m.major_dim())
        .map(|r| {
            let f = m.fiber(r);
            let mut h = fp_mix(ROW_FP_SEED, u64::from(r));
            for (c, v) in f.coords.iter().zip(f.values) {
                h = fp_mix(h, u64::from(*c));
                h = fp_mix(h, v.to_bits());
            }
            fp_finish(h)
        })
        .collect()
}

/// Fold the per-row fingerprints under `r` into one word. Row indices are
/// baked into each row's fingerprint, so two ranges with shifted-but-
/// equal content cannot collide structurally.
fn fold_rows(fps: &[u64], r: &Range<u32>) -> u64 {
    let lo = (r.start as usize).min(fps.len());
    let hi = (r.end as usize).min(fps.len());
    fp_finish(fps[lo..hi].iter().fold(ROW_FP_SEED, |h, &f| fp_mix(h, f)))
}

/// The i/k/j coordinate ranges of a task, flattened — what the task seeds
/// as residency for its successor.
fn ranges6(task: &Task) -> [u32; 6] {
    let p = &task.plan.coord_ranges;
    let (i, k, j) = (&p[&'i'], &p[&'k'], &p[&'j']);
    [i.start, i.end, k.start, k.end, j.start, j.end]
}

/// Content address of one task's engine effects (see the module docs for
/// the completeness argument).
#[derive(Clone, PartialEq, Eq, Hash)]
struct TaskKey {
    plan: TilePlan,
    /// Predecessor coordinate ranges (residency seed); `None` for the
    /// run-opening task, whose tiles are always cold.
    prev: Option<[u32; 6]>,
    /// Value-inclusive fingerprint of the A rows in the task's i-range.
    a_fp: u64,
    /// Value-inclusive fingerprint of the B rows in the task's k-range.
    b_fp: u64,
}

impl TaskKey {
    fn of(task: &Task, prev: Option<&Task>, a_fps: &[u64], b_fps: &[u64]) -> TaskKey {
        let p = &task.plan.coord_ranges;
        TaskKey {
            a_fp: fold_rows(a_fps, &p[&'i']),
            b_fp: fold_rows(b_fps, &p[&'k']),
            plan: task.plan.clone(),
            prev: prev.map(ranges6),
        }
    }
}

/// Counters for the most recent [`IncrementalSpmspm::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Committed tasks in the run.
    pub tasks: u64,
    /// Tasks executed for real (key missed the result store).
    pub executed: u64,
    /// Tasks spliced from the result store.
    pub spliced: u64,
    /// DRT planner invocations this run ([`TaskStream::plan_calls`]):
    /// every run plans from scratch, so this is every call.
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

/// A reusable SpMSpM runner that re-executes only what an operand delta
/// touched. See the module docs for the determinism contract and the
/// gating rules.
pub struct IncrementalSpmspm {
    cfg: EngineConfig,
    results: HashMap<TaskKey, Arc<TaskCapture>>,
    last: IncrStats,
}

impl std::fmt::Debug for IncrementalSpmspm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalSpmspm")
            .field("cfg", &self.cfg.name)
            .field("cached_tasks", &self.results.len())
            .field("last", &self.last)
            .finish()
    }
}

impl IncrementalSpmspm {
    /// Wrap `cfg` for incremental execution, with an empty result store.
    pub fn new(cfg: EngineConfig) -> IncrementalSpmspm {
        IncrementalSpmspm { cfg, results: HashMap::new(), last: IncrStats::default() }
    }

    /// Run `Z = A · B`, splicing stored results for every task whose key
    /// (plan, predecessor residency, operand-row content) is unchanged
    /// since an earlier run of this instance. The report is bit-identical
    /// to a from-scratch [`crate::engine::run_spmspm_exec`] of the same
    /// operands under the same configuration.
    ///
    /// # Errors
    ///
    /// Tiling configuration errors from `drt-core`, as
    /// [`DrtError::Core`] — the same surface as a from-scratch run.
    pub fn run(&mut self, a: &CsMatrix, b: &CsMatrix) -> Result<RunReport, DrtError> {
        let cfg = &self.cfg;
        let kernel = Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format)?;
        let a_cow = a.as_major(MajorAxis::Row);
        let b_cow = b.as_major(MajorAxis::Row);
        let (a_rows, b_rows) = (a_cow.as_ref(), b_cow.as_ref());

        let opts = match &cfg.tiling {
            Tiling::Suc(sizes) => TaskGenOptions::suc(&cfg.loop_order, cfg.drt.clone(), sizes),
            Tiling::Drt => TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()),
        };
        let mut stream = TaskStream::build(&kernel, opts)?;
        let tasks: Vec<Task> = (&mut stream).collect();
        let skipped = stream.skipped_empty();
        // No budget and an inert cancel token: the stream cannot degrade
        // or abort, so every generated task is a committed task.
        debug_assert!(stream.aborted().is_none() && stream.degraded().is_none());

        let a_fps = row_fps(a_rows);
        let b_fps = row_fps(b_rows);
        let mut captures: Vec<Arc<TaskCapture>> = Vec::with_capacity(tasks.len());
        let (mut executed, mut spliced) = (0u64, 0u64);
        for (i, task) in tasks.iter().enumerate() {
            let prev = i.checked_sub(1).map(|p| &tasks[p]);
            let key = TaskKey::of(task, prev, &a_fps, &b_fps);
            let c = match self.results.get(&key) {
                Some(c) => {
                    spliced += 1;
                    Arc::clone(c)
                }
                None => {
                    executed += 1;
                    let c = Arc::new(capture_task(a_rows, b_rows, cfg, prev, task));
                    self.results.insert(key, Arc::clone(&c));
                    c
                }
            };
            captures.push(c);
        }
        let report = replay_captures(a.nrows(), b.ncols(), cfg, a_rows, b_rows, &captures, skipped);

        self.last = IncrStats {
            tasks: tasks.len() as u64,
            executed,
            spliced,
            plans_computed: stream.plan_calls(),
            plans_reused: 0,
        };
        Ok(report)
    }

    /// Counters for the most recent [`IncrementalSpmspm::run`].
    pub fn last_stats(&self) -> IncrStats {
        self.last
    }

    /// Number of distinct task results currently stored.
    pub fn cached_tasks(&self) -> usize {
        self.results.len()
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Drop every stored task result. The result store grows
    /// monotonically across deltas (superseded results are not collected
    /// — they may become valid again when a delta is reverted); call this
    /// to bound long-lived instances.
    pub fn clear(&mut self) {
        self.results.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_spmspm_exec;
    use drt_core::config::{DrtConfig, Partitions};
    use drt_core::probe::Probe;
    use drt_tensor::DeltaBatch;

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
        let scratch = run_spmspm_exec(&a, &b, &cfg, &Probe::disabled(), &Default::default())
            .expect("from-scratch run");
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
        let mut eng = IncrementalSpmspm::new(drt_cfg());
        eng.run(&a, &b).expect("cold run");
        let cold = eng.last_stats();

        let mut delta = DeltaBatch::new();
        delta.upsert(10, 12, 5.0);
        a.apply_delta(&delta);

        let cfg2 = eng.config().clone();
        let scratch = run_spmspm_exec(&a, &b, &cfg2, &Probe::disabled(), &Default::default())
            .expect("from-scratch run on patched operand");
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
        let mut eng = IncrementalSpmspm::new(drt_cfg());
        eng.run(&a, &b).expect("cold run");

        let mut delta = DeltaBatch::new();
        delta.upsert(5, 5, 99.0); // (5,5) already exists in a band matrix
        a.apply_delta(&delta);

        let cfg2 = eng.config().clone();
        let scratch = run_spmspm_exec(&a, &b, &cfg2, &Probe::disabled(), &Default::default())
            .expect("from-scratch run");
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
        let mut fresh =
            TaskStream::build(&kernel, TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()))
                .expect("stream");
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

        let scratch = run_spmspm_exec(&a, &b, &cfg, &Probe::disabled(), &Default::default())
            .expect("from-scratch run");
        let incr = eng.run(&a, &b).expect("incremental run");
        assert_eq!(scratch.bit_diff(&incr), None);
        let s = eng.last_stats();
        assert!(s.spliced > 0, "S-U-C tasks away from the delta must splice");
        assert_eq!(s.plans_computed, 0, "S-U-C never calls the DRT planner");
    }
}

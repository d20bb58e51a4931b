//! Model-invariant checks over [`RunReport`]s and engine task streams.
//!
//! Four invariants hold for every variant the registry can produce,
//! regardless of tiling scheme or thread count:
//!
//! 1. **Phase partition** — per-phase byte totals partition the DRAM
//!    traffic: every counted byte is attributed to exactly one pipeline
//!    phase.
//! 2. **Lower bound** — measured traffic is at least the compulsory
//!    traffic of [`drt_sim::traffic::spmspm_effectual_lower_bound`]: every
//!    effectual input entry read at least once, every output entry written
//!    at least once. (The plain "read each operand once" bound is *not* an
//!    invariant: Gustavson dataflows with fiber caches legitimately skip
//!    `B` rows that `A` never references.)
//! 3. **Footprint** — every tile a task stream plans fits its tensor's
//!    static buffer partition (engine-backed variants).
//! 4. **Coverage** — the emitted tasks tile the kernel's iteration space
//!    exactly once: no grid cell is covered twice, and every uncovered
//!    cell is empty in at least one input (engine-backed variants).

use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::report::RunReport;
use drt_core::kernel::Kernel;
use drt_core::taskgen::{TaskGenOptions, TaskStream};
use drt_sim::traffic::spmspm_effectual_lower_bound;
use drt_tensor::format::SizeModel;
use drt_tensor::CsMatrix;
use std::collections::BTreeSet;

/// Check the report-level invariants (phase partition, traffic lower
/// bound) that apply to every variant, analytic or engine-backed.
/// `oracle_z` is the reference product, used to size the compulsory
/// output write. Returns all violations found (empty = clean).
pub fn check_report(
    report: &RunReport,
    a: &CsMatrix,
    b: &CsMatrix,
    oracle_z: &CsMatrix,
    sm: &SizeModel,
) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(v) = report.phase_partition_violation() {
        violations.push(v);
    }
    let lb = spmspm_effectual_lower_bound(a, b, oracle_z, sm);
    for tensor in lb.tensors() {
        let (need_r, need_w) = (lb.reads_of(&tensor), lb.writes_of(&tensor));
        let (got_r, got_w) = (report.traffic.reads_of(&tensor), report.traffic.writes_of(&tensor));
        if got_r < need_r {
            violations.push(format!(
                "{}: reads of {tensor} = {got_r} below compulsory lower bound {need_r}",
                report.name
            ));
        }
        if got_w < need_w {
            violations.push(format!(
                "{}: writes of {tensor} = {got_w} below compulsory lower bound {need_w}",
                report.name
            ));
        }
    }
    violations
}

/// Check the report-level invariants of a staged pipeline run: phase
/// partition, stage partition (per-stage breakdowns must sum to the
/// report's phase totals), and energy-accounting consistency (the DRAM
/// action count equals the traffic total). Returns all violations found.
pub fn check_pipeline_report(report: &RunReport) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(v) = report.phase_partition_violation() {
        violations.push(v);
    }
    if let Some(v) = report.stage_partition_violation() {
        violations.push(v);
    }
    if report.actions.dram_bytes != report.traffic.total() {
        violations.push(format!(
            "{}: action ledger counts {} DRAM bytes but traffic totals {}",
            report.name,
            report.actions.dram_bytes,
            report.traffic.total()
        ));
    }
    violations
}

/// Check the stream-level invariants (tile footprints, exact-once
/// coverage, task accounting) by rebuilding the task stream a report's
/// engine run executed. `cfg` must be the *resolved* configuration — see
/// [`drt_accel::session::Session::resolved_engine_config`].
pub fn check_engine_stream(
    report: &RunReport,
    a: &CsMatrix,
    b: &CsMatrix,
    cfg: &EngineConfig,
) -> Vec<String> {
    let mut violations = Vec::new();
    let kernel = match Kernel::spmspm_fmt(a, b, cfg.micro, cfg.micro_format) {
        Ok(k) => k,
        Err(e) => return vec![format!("{}: kernel rebuild failed: {e}", report.name)],
    };
    let opts = match &cfg.tiling {
        Tiling::Suc(sizes) => TaskGenOptions::suc(&cfg.loop_order, cfg.drt.clone(), sizes),
        Tiling::Drt => TaskGenOptions::drt(&cfg.loop_order, cfg.drt.clone()),
    };
    let mut stream = match TaskStream::build(&kernel, opts) {
        Ok(s) => s,
        Err(e) => return vec![format!("{}: stream rebuild failed: {e}", report.name)],
    };

    // Rank order is the BTreeMap iteration order of the grid region:
    // stable and shared by every task's `grid_ranges`.
    let full = kernel.full_grid_region();
    let ranks: Vec<char> = full.keys().copied().collect();
    let mut covered: BTreeSet<Vec<u32>> = BTreeSet::new();
    for task in &mut stream {
        for tile in &task.plan.tiles {
            let partition = cfg.drt.partitions.get(&tile.name);
            if tile.footprint() > partition {
                violations.push(format!(
                    "{}: task {} tile {} footprint {} bytes over its {partition}-byte partition",
                    report.name,
                    task.index,
                    tile.name,
                    tile.footprint()
                ));
            }
        }
        for cell in cells_of(&ranks, &task) {
            if !covered.insert(cell.clone()) {
                violations.push(format!(
                    "{}: task {} covers grid cell {cell:?} already covered by an earlier task",
                    report.name, task.index
                ));
            }
        }
    }

    // Every uncovered grid cell must be empty in at least one input —
    // otherwise the stream dropped effectual work.
    let mut missed = 0usize;
    for cell in all_cells(&full, &ranks) {
        if covered.contains(&cell) {
            continue;
        }
        let skippable = kernel.inputs().iter().any(|binding| {
            let ranges: Vec<std::ops::Range<u32>> = binding
                .ranks
                .iter()
                .map(|r| {
                    let i = ranks.iter().position(|x| x == r).expect("binding rank in kernel");
                    cell[i]..cell[i] + 1
                })
                .collect();
            binding.grid.region_is_empty(&ranges)
        });
        if !skippable {
            missed += 1;
            if missed <= 3 {
                violations.push(format!(
                    "{}: grid cell {cell:?} is non-empty in every input but no task covers it",
                    report.name
                ));
            }
        }
    }
    if missed > 3 {
        violations.push(format!("{}: … and {} more uncovered cells", report.name, missed - 3));
    }

    if stream.emitted() != report.tasks {
        violations.push(format!(
            "{}: stream emits {} tasks but report counts {}",
            report.name,
            stream.emitted(),
            report.tasks
        ));
    }
    if stream.skipped_empty() != report.skipped_tasks {
        violations.push(format!(
            "{}: stream skips {} tasks but report counts {}",
            report.name,
            stream.skipped_empty(),
            report.skipped_tasks
        ));
    }
    violations
}

/// The grid cells a task's plan covers: the cartesian product of its
/// per-rank grid ranges, in `ranks` order.
fn cells_of(ranks: &[char], task: &drt_core::taskgen::Task) -> Vec<Vec<u32>> {
    let mut cells = vec![Vec::new()];
    for r in ranks {
        let range = task.plan.grid_ranges.get(r).cloned().unwrap_or(0..0);
        cells = cells
            .into_iter()
            .flat_map(|c| {
                range.clone().map(move |g| {
                    let mut c2 = c.clone();
                    c2.push(g);
                    c2
                })
            })
            .collect();
    }
    cells
}

/// Every cell of the full grid region, in `ranks` order.
fn all_cells(
    full: &std::collections::BTreeMap<char, std::ops::Range<u32>>,
    ranks: &[char],
) -> Vec<Vec<u32>> {
    let mut cells = vec![Vec::new()];
    for r in ranks {
        let range = full[r].clone();
        cells = cells
            .into_iter()
            .flat_map(|c| {
                range.clone().map(move |g| {
                    let mut c2 = c.clone();
                    c2.push(g);
                    c2
                })
            })
            .collect();
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_accel::session::Session;
    use drt_accel::spec::AccelSpec;
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::HierarchySpec;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn clean_engine_run_passes_all_invariants() {
        let a = unstructured(64, 64, 400, 2.0, 5);
        let hier = HierarchySpec::default().scaled_down(256);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&hier);
        let report = session.run_spmspm(&a, &a).expect("run");
        let z = gustavson(&a, &a).z;
        let sm = SizeModel::default();
        assert_eq!(check_report(&report, &a, &a, &z, &sm), Vec::<String>::new());
        let cfg = session.resolved_engine_config(&a, &a).expect("resolve").expect("engine");
        assert_eq!(check_engine_stream(&report, &a, &a, &cfg), Vec::<String>::new());
    }

    #[test]
    fn task_miscount_is_detected() {
        let a = unstructured(64, 64, 400, 2.0, 6);
        let hier = HierarchySpec::default().scaled_down(256);
        let session = Session::new(AccelSpec::extensor_op_drt()).hierarchy(&hier);
        let mut report = session.run_spmspm(&a, &a).expect("run");
        report.tasks += 1;
        let cfg = session.resolved_engine_config(&a, &a).expect("resolve").expect("engine");
        let violations = check_engine_stream(&report, &a, &a, &cfg);
        assert!(violations.iter().any(|v| v.contains("tasks")), "{violations:?}");
    }

    #[test]
    fn phase_imbalance_is_detected() {
        let a = unstructured(48, 48, 200, 2.0, 7);
        let hier = HierarchySpec::default().scaled_down(256);
        let mut report = Session::new(AccelSpec::extensor_op_drt())
            .hierarchy(&hier)
            .run_spmspm(&a, &a)
            .expect("run");
        report.phases.load.bytes += 1;
        let z = gustavson(&a, &a).z;
        let violations = check_report(&report, &a, &a, &z, &SizeModel::default());
        assert!(violations.iter().any(|v| v.contains("phase bytes")), "{violations:?}");
    }
}

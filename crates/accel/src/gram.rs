//! The Gram kernel on ExTensor-OP and ExTensor-OP-DRT (paper §6.1.3,
//! Figure 9), run as [`crate::pipeline::PipelineSpec::gram`].
//!
//! `G_il = χ_ijk · χ_ljk` binds the same 3-tensor twice (the second
//! operand with `i` renamed `l`) and contracts over *two* ranks, so DRT
//! must grow tiles across three dimensions per operand — two of them
//! contracted. The DRT machine runs the pipeline stage loop; this module
//! holds its per-task MACC counter and the static machine's closed-form
//! S-U-C model.

use crate::report::{PhaseBreakdown, RunReport, StagePhases};
use crate::spec::PartitionPreset;
use drt_core::drt::RankRanges;
use drt_core::kernel::Kernel;
use drt_core::micro::{MicroFormat, MicroGrid};
use drt_core::{CoreError, RankId};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::CsfTensor;
use std::collections::BTreeMap;

/// Pre-grouped non-zeros for fast per-task MACC counting:
/// `j → k → sorted list of i coordinates`.
#[derive(Debug)]
pub(crate) struct GramCounter {
    jk: BTreeMap<u32, BTreeMap<u32, Vec<u32>>>,
}

impl GramCounter {
    pub(crate) fn new(x: &CsfTensor) -> GramCounter {
        let mut jk: BTreeMap<u32, BTreeMap<u32, Vec<u32>>> = BTreeMap::new();
        for (p, _) in x.iter_points() {
            jk.entry(p[1]).or_default().entry(p[2]).or_default().push(p[0]);
        }
        for ks in jk.values_mut() {
            for is in ks.values_mut() {
                is.sort_unstable();
            }
        }
        GramCounter { jk }
    }

    /// `(maccs, output-pair upper bound)` for one task's `(i, l, j, k)`
    /// coordinate box.
    pub(crate) fn count(&self, cr: &RankRanges) -> (u64, u64) {
        let (ir, lr, jr, kr) = (&cr[&'i'], &cr[&'l'], &cr[&'j'], &cr[&'k']);
        let mut maccs = 0u64;
        for (_, ks) in self.jk.range(jr.start..jr.end) {
            for (_, is) in ks.range(kr.start..kr.end) {
                let ci =
                    is.partition_point(|&v| v < ir.end) - is.partition_point(|&v| v < ir.start);
                let cl =
                    is.partition_point(|&v| v < lr.end) - is.partition_point(|&v| v < lr.start);
                maccs += (ci * cl) as u64;
            }
        }
        let cells = ir.len() as u64 * lr.len() as u64;
        (maccs, maccs.min(cells))
    }
}

/// The S-U-C Gram model for one uniform tile shape (`tile_sizes` are
/// per-rank coordinate sizes), reported under `name`.
///
/// Uniform tiles under the `i → l → (j, k)` dataflow admit a closed-form
/// traffic model (used here instead of enumerating the task grid, which is
/// intractable for hypersparse tensors whose static grids have trillions
/// of mostly-empty boxes — the hardware skips those through compressed
/// traversal, and the closed form reproduces that):
///
/// * the `X` operand's tiled footprint streams once per `l` chunk,
/// * the `Y` operand's tiled footprint streams once per `i` chunk,
/// * each `(i, l)` output tile is stationary for its whole `(j, k)` sweep,
///   so `G` is written once.
fn suc(
    name: &str,
    x: &CsfTensor,
    hier: &HierarchySpec,
    micro: [u32; 3],
    sm: &SizeModel,
    tile_sizes: &BTreeMap<RankId, u32>,
) -> Result<RunReport, CoreError> {
    let kernel = Kernel::gram(x, &micro)?;
    let partitions = PartitionPreset::Gram3.partitions(hier.llb.capacity_bytes);
    drt_core::suc::validate_shape(&kernel, tile_sizes, &partitions, sm)?;
    let (si, sl, sj, sk) = (tile_sizes[&'i'], tile_sizes[&'l'], tile_sizes[&'j'], tile_sizes[&'k']);
    // Tiled footprints from S-U-C grids at the tile shapes themselves
    // (plain T-UC tiles, as the static scheme stores them).
    let gx = MicroGrid::from_csf_fmt(x, &[si, sj, sk], MicroFormat::Uc)?;
    let gy = MicroGrid::from_csf_fmt(x, &[sl, sj, sk], MicroFormat::Uc)?;
    let shape = x.shape();
    let n_i = shape[0].div_ceil(si) as u64;
    let n_l = shape[0].div_ceil(sl) as u64;
    let mut traffic = TrafficCounter::new();
    let mut phases = PhaseBreakdown::default();
    traffic.read("X", gx.total_data_bytes() * n_l);
    traffic.read("Y", gy.total_data_bytes() * n_i);
    phases.load.bytes += gx.total_data_bytes() * n_l + gy.total_data_bytes() * n_i;
    let result = drt_kernels::gram::gram(x);
    let g_bytes = sm.cs_matrix_bytes(&result.g) as u64;
    traffic.write("G", g_bytes);
    phases.writeback.bytes += g_bytes;
    let mut report = RunReport::empty(name);
    report.seconds = hier.dram.seconds_for(traffic.total());
    report.actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: result.maccs, ..Default::default() };
    report.traffic = traffic;
    report.maccs = result.maccs;
    report.output = Some(result.g);
    report.tasks = n_i * n_l;
    report.phases = phases;
    report.stages = vec![StagePhases { stage: "gram".into(), phases }];
    Ok(report)
}

/// Best swept S-U-C configuration over a small shape menu — Figure 9's
/// S-U-C points (the paper sweeps static shapes per workload).
///
/// # Errors
///
/// Returns `BadConfig` when no swept shape satisfies the capacity rule.
pub(crate) fn best_suc(
    name: &str,
    x: &CsfTensor,
    hier: &HierarchySpec,
    micro: [u32; 3],
    sm: &SizeModel,
) -> Result<RunReport, CoreError> {
    let mut best: Option<RunReport> = None;
    for mult in [1u32, 2, 4, 8] {
        let sizes = BTreeMap::from([
            ('i', micro[0] * mult),
            ('l', micro[0] * mult),
            ('j', micro[1] * mult),
            ('k', micro[2] * mult),
        ]);
        if let Ok(r) = suc(name, x, hier, micro, sm, &sizes) {
            if best.as_ref().is_none_or(|b| r.traffic.total() < b.traffic.total()) {
                best = Some(r);
            }
        }
    }
    best.ok_or(CoreError::BadConfig { detail: "no feasible S-U-C Gram shape".into() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineInput, PipelineSpec};
    use crate::session::Session;
    use crate::spec::AccelSpec;
    use crate::workload::WorkloadRef;
    use drt_sim::memory::BufferSpec;
    use drt_workloads::tensor3::skewed_tensor;

    fn hier() -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 32 * 1024, ports: 2 },
            ..HierarchySpec::default()
        }
    }

    fn run(spec: AccelSpec, x: &CsfTensor) -> RunReport {
        let pipe = PipelineSpec::gram().with_micro3([4, 4, 4]);
        Session::new(spec)
            .hierarchy(&hier())
            .run_ref(WorkloadRef::Pipeline { input: PipelineInput::Tensor(x), pipe: &pipe })
            .expect("gram")
            .into_report()
    }

    #[test]
    fn drt_maccs_match_reference() {
        let x = skewed_tensor(24, 24, 24, 800, 1);
        let r = run(AccelSpec::extensor_op_drt(), &x);
        assert_eq!(
            r.maccs,
            drt_kernels::gram::gram_maccs(&x),
            "task MACCs must sum to the kernel total"
        );
    }

    #[test]
    fn suc_maccs_match_reference() {
        let x = skewed_tensor(16, 16, 16, 400, 2);
        let sizes = BTreeMap::from([('i', 8u32), ('l', 8), ('j', 8), ('k', 8)]);
        let sm = SizeModel::default();
        let r = suc("ExTensor-OP", &x, &hier(), [4, 4, 4], &sm, &sizes).expect("run");
        assert_eq!(r.maccs, drt_kernels::gram::gram_maccs(&x));
    }

    #[test]
    fn drt_ai_at_least_suc_ai() {
        let x = skewed_tensor(32, 32, 32, 1500, 3);
        let drt = run(AccelSpec::extensor_op_drt(), &x);
        let suc = run(AccelSpec::extensor_op(), &x);
        assert!(
            drt.arithmetic_intensity() >= suc.arithmetic_intensity() * 0.9,
            "DRT AI {:.4} vs S-U-C AI {:.4}",
            drt.arithmetic_intensity(),
            suc.arithmetic_intensity()
        );
    }

    #[test]
    fn gram_output_attached_for_validation() {
        let x = skewed_tensor(12, 12, 12, 200, 4);
        let r = run(AccelSpec::extensor_op_drt(), &x);
        let reference = drt_kernels::gram::gram(&x).g;
        assert!(r.output.as_ref().expect("out").approx_eq(&reference, 1e-9));
    }
}

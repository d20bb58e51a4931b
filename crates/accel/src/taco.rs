//! TACO-like CPU baseline for the Gram kernel (paper §6.1.3, Figure 9),
//! run as [`crate::pipeline::PipelineSpec::gram`] on the `cpu-mkl` spec.
//!
//! The paper passes the Gram Einsum `G_il = χ_ijk · χ_ljk` to the TACO
//! compiler and measures its memory behaviour. TACO's generated loop nest
//! iterates `i` over the first operand's slices and, for each `i`,
//! co-iterates the second operand's full `(l, j, k)` space — so the tensor
//! is effectively re-read once per occupied `i` slice unless it fits in
//! the LLC. Figure 9 reports arithmetic intensity relative to this
//! baseline, which this model computes from the CSF footprint.

use crate::cpu::CpuSpec;
use crate::report::{PhaseBreakdown, RunReport, StagePhases};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::CsfTensor;

/// The TACO-like Gram baseline on a 3-tensor (the pipeline layer checks
/// the rank), reported under `name`.
pub(crate) fn gram(
    name: &str,
    x: &CsfTensor,
    spec: &CpuSpec,
    sm: &SizeModel,
    probe: &Probe,
) -> RunReport {
    let result = drt_kernels::gram::gram(x);

    let x_bytes = sm.csf_bytes(x) as u64;
    let occupied_slices = x.level_len(0) as u64;
    // First operand streams once. Second operand: one pass per occupied i
    // slice, discounted by LLC hits (most of the LLC is available — the
    // slice stream is small).
    let hit_rate = ((spec.llc_bytes as f64) * 0.9 / x_bytes as f64).min(1.0);
    let repeat_passes = occupied_slices.saturating_sub(1) as f64 * (1.0 - hit_rate);
    let mut traffic = TrafficCounter::new();
    let mut phases = PhaseBreakdown::default();
    traffic.read("X", x_bytes);
    probe.emit(|| Event::Fetch { tensor: "X", bytes: x_bytes });
    let y_bytes = x_bytes + (x_bytes as f64 * repeat_passes) as u64;
    traffic.read("Y", y_bytes);
    probe.emit(|| Event::Fetch { tensor: "Y", bytes: y_bytes });
    phases.load.bytes += x_bytes + y_bytes;
    let g_bytes = sm.cs_matrix_bytes(&result.g) as u64;
    traffic.write("G", g_bytes);
    phases.writeback.bytes += g_bytes;
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }

    let mem_seconds =
        traffic.total() as f64 / (spec.bandwidth_bytes_per_sec * spec.bandwidth_efficiency);
    let cmp_seconds = result.maccs as f64 / spec.peak_maccs_per_sec;
    let mut report = RunReport::empty(name);
    report.seconds = mem_seconds.max(cmp_seconds);
    report.actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: result.maccs, ..Default::default() };
    report.traffic = traffic;
    report.maccs = result.maccs;
    report.output = Some(result.g);
    report.tasks = occupied_slices;
    report.phases = phases;
    report.stages = vec![StagePhases { stage: "gram".into(), phases }];
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_workloads::tensor3::skewed_tensor;

    fn run_gram(x: &CsfTensor, spec: &CpuSpec) -> RunReport {
        gram("TACO", x, spec, &SizeModel::default(), &Probe::disabled())
    }

    #[test]
    fn output_matches_reference_gram() {
        let x = skewed_tensor(16, 16, 16, 300, 1);
        let r = run_gram(&x, &CpuSpec::default());
        let reference = drt_kernels::gram::gram(&x).g;
        assert!(r.output.as_ref().expect("out").approx_eq(&reference, 1e-9));
        assert_eq!(r.maccs, drt_kernels::gram::gram_maccs(&x));
    }

    #[test]
    fn small_llc_multiplies_y_traffic() {
        let x = skewed_tensor(24, 24, 24, 2000, 2);
        let big = run_gram(&x, &CpuSpec::default());
        let tiny = run_gram(&x, &CpuSpec { llc_bytes: 256, ..CpuSpec::default() });
        assert!(tiny.traffic.reads_of("Y") > big.traffic.reads_of("Y"));
        assert!(tiny.arithmetic_intensity() < big.arithmetic_intensity());
    }

    #[test]
    fn x_always_read_once() {
        let x = skewed_tensor(12, 12, 12, 200, 3);
        let sm = SizeModel::default();
        let r = run_gram(&x, &CpuSpec::default());
        assert_eq!(r.traffic.reads_of("X"), sm.csf_bytes(&x) as u64);
    }
}

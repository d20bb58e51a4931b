//! MatRaptor (row-wise Gustavson dataflow) and its tiled variants
//! (Study 2, paper §5.2.2 / Figure 10 bottom).
//!
//! The untiled baseline tiles only along the `M` (row) dimension: `A` has
//! perfect reuse (each row read once), the output has partial reuse (rows
//! merge on chip before a single write), but `B` has poor reuse — every
//! non-zero `A_ik` streams `B`'s row `k` again unless it happens to be
//! resident. Tiling `B` (S-U-C or DRT) is what restores its input reuse.
//! Study 2 idealizes on-chip behaviour: DRAM-bound runtimes.

use crate::report::{PhaseBreakdown, RunReport};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, MajorAxis};

/// Untiled MatRaptor: `A` and `Z` once; `B` row `k` re-streamed per
/// touching `A` non-zero, except rows still resident in the (small) B
/// buffer slice — modelled as rows re-read once per distinct `A` row that
/// touches them beyond the first. The body of the registry's `matraptor`
/// spec.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub(crate) fn run_untiled(
    a: &CsMatrix,
    b: &CsMatrix,
    hier: &HierarchySpec,
    sm: &SizeModel,
    probe: &Probe,
) -> RunReport {
    let a_rows = a.as_major(MajorAxis::Row);
    let b_rows = b.as_major(MajorAxis::Row);
    let prod = drt_kernels::spmspm::gustavson(&a_rows, &b_rows);
    let mut traffic = TrafficCounter::new();
    let mut phases = PhaseBreakdown::default();
    let a_bytes = sm.cs_matrix_bytes(&a_rows) as u64;
    traffic.read("A", a_bytes);
    probe.emit(|| Event::Fetch { tensor: "A", bytes: a_bytes });
    // Row-wise streaming: each A non-zero pulls B's row k. Within one A
    // row the PE holds fetched B rows, but across A rows nothing persists
    // (the paper's "poor reuse on B").
    let mut b_bytes = 0u64;
    let row_bytes = |k: u32| -> u64 {
        let nnz = b_rows.fiber_len(k) as u64;
        nnz * (sm.coord_bytes as u64 + sm.value_bytes as u64)
    };
    for i in 0..a_rows.nrows() {
        let fiber = a_rows.fiber(i);
        for &k in fiber.coords {
            b_bytes += row_bytes(k);
        }
    }
    let b_total = b_bytes + b_rows.seg().len() as u64 * sm.seg_bytes as u64;
    traffic.read("B", b_total);
    probe.emit(|| Event::Fetch { tensor: "B", bytes: b_total });
    phases.load.bytes += a_bytes + b_total;
    let z_bytes = sm.cs_matrix_bytes(&prod.z) as u64;
    traffic.write("Z", z_bytes);
    phases.writeback.bytes += z_bytes;
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }
    let seconds = hier.dram.seconds_for(traffic.total());
    let actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: prod.maccs, ..Default::default() };
    RunReport {
        name: "MatRaptor".into(),
        traffic,
        maccs: prod.maccs,
        compute_cycles: 0,
        exposed_extract_cycles: 0,
        seconds,
        output: Some(prod.z),
        tasks: a_rows.nrows() as u64,
        skipped_tasks: 0,
        actions,
        phases,
        stages: Vec::new(),
        degradation: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::spec::AccelSpec;
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::BufferSpec;
    use drt_workloads::patterns::unstructured;

    fn run(spec: AccelSpec, a: &CsMatrix, h: &HierarchySpec) -> RunReport {
        Session::new(spec).hierarchy(h).run_spmspm(a, a).expect("run")
    }

    fn hier() -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 16 * 1024, ports: 2 },
            ..HierarchySpec::default()
        }
    }

    #[test]
    fn untiled_b_traffic_scales_with_a_nnz() {
        let a = unstructured(96, 96, 800, 2.0, 1);
        let r = run(AccelSpec::matraptor(), &a, &hier());
        let sm = SizeModel::default();
        // B is streamed per A non-zero: traffic well above one footprint.
        assert!(r.traffic.reads_of("B") > sm.cs_matrix_bytes(&a) as u64);
        // A read exactly once.
        assert_eq!(r.traffic.reads_of("A"), sm.cs_matrix_bytes(&a) as u64);
        assert!(r.output.as_ref().expect("out").approx_eq(&gustavson(&a, &a).z, 1e-9));
    }

    #[test]
    fn tiling_restores_b_reuse() {
        let a = unstructured(160, 160, 1400, 2.0, 2);
        let h = hier();
        let untiled = run(AccelSpec::matraptor(), &a, &h);
        let drt = run(AccelSpec::matraptor_drt(), &a, &h);
        assert!(
            drt.traffic.reads_of("B") < untiled.traffic.reads_of("B"),
            "DRT B reads {} vs untiled {}",
            drt.traffic.reads_of("B"),
            untiled.traffic.reads_of("B")
        );
    }

    #[test]
    fn variants_agree_functionally() {
        let a = unstructured(128, 128, 900, 2.0, 3);
        let h = hier();
        let reference = gustavson(&a, &a).z;
        for r in [
            run(AccelSpec::matraptor(), &a, &h),
            run(AccelSpec::matraptor_suc(), &a, &h),
            run(AccelSpec::matraptor_drt(), &a, &h),
        ] {
            assert!(r.output.as_ref().expect("out").approx_eq(&reference, 1e-9), "{}", r.name);
        }
    }
}

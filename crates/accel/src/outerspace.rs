//! OuterSPACE (outer-product dataflow) and its tiled variants (Study 2,
//! paper §5.2.2 / Figure 10 top).
//!
//! The untiled original distributes columns of `A` and rows of `B`: the
//! inputs are read once (perfect reuse), but *every* partial product is
//! materialized to DRAM during the multiply phase and read back during the
//! merge phase — the output has poor reuse. Tiling `A` and `B` (S-U-C or
//! DRT) shrinks the working set of partial outputs so they can be
//! partially reduced on chip, which is where the traffic reduction comes
//! from. Study 2 idealizes on-chip behaviour: all variants report
//! DRAM-bound runtime.

use crate::report::{PhaseBreakdown, RunReport};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::CsMatrix;

/// Untiled OuterSPACE: inputs once, all partial products spilled and
/// re-read, final output written once. The body of the registry's
/// `outerspace` spec.
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
    let prod = drt_kernels::spmspm::outer_product(a, b);
    let mut traffic = TrafficCounter::new();
    let mut phases = PhaseBreakdown::default();
    let a_bytes = sm.cs_matrix_bytes(a) as u64;
    let b_bytes = sm.cs_matrix_bytes(b) as u64;
    traffic.read("A", a_bytes);
    traffic.read("B", b_bytes);
    phases.load.bytes += a_bytes + b_bytes;
    probe.emit(|| Event::Fetch { tensor: "A", bytes: a_bytes });
    probe.emit(|| Event::Fetch { tensor: "B", bytes: b_bytes });
    // Multiply phase writes every partial product (COO-like linked lists);
    // merge phase reads them all back and writes the final result.
    let partial_bytes = sm.coo_bytes(prod.partial_products as usize, 2) as u64;
    traffic.write("Z", partial_bytes);
    traffic.read("Z", partial_bytes);
    phases.merge.bytes += 2 * partial_bytes;
    probe.emit(|| Event::Spill { bytes: partial_bytes });
    probe.emit(|| Event::Refill { bytes: partial_bytes });
    let final_bytes = sm.cs_matrix_bytes(&prod.z) as u64;
    traffic.write("Z", final_bytes);
    phases.writeback.bytes += final_bytes;
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }
    let seconds = hier.dram.seconds_for(traffic.total());
    let actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: prod.maccs, ..Default::default() };
    RunReport {
        name: "OuterSPACE".into(),
        traffic,
        maccs: prod.maccs,
        compute_cycles: 0,
        exposed_extract_cycles: 0,
        seconds,
        output: Some(prod.z),
        tasks: 1,
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
    fn untiled_charges_all_partials() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        let r = run(AccelSpec::outerspace(), &a, &hier());
        let sm = SizeModel::default();
        let partials = drt_kernels::spmspm::outer_product(&a, &a).partial_products;
        assert!(r.traffic.of("Z") >= 2 * sm.coo_bytes(partials as usize, 2) as u64);
        assert!(r.output.as_ref().expect("functional").approx_eq(&gustavson(&a, &a).z, 1e-9));
    }

    #[test]
    fn tiling_reduces_output_traffic() {
        // The regime Figure 10 evaluates: partial-product volume dominates
        // input footprints, and the LLB can hold meaningful tiles.
        let a = unstructured(160, 160, 3200, 2.0, 2);
        let h = HierarchySpec {
            llb: BufferSpec { capacity_bytes: 64 * 1024, ports: 2 },
            ..HierarchySpec::default()
        };
        let untiled = run(AccelSpec::outerspace(), &a, &h);
        let drt = run(AccelSpec::outerspace_drt(), &a, &h);
        assert!(
            drt.traffic.of("Z") < untiled.traffic.of("Z"),
            "DRT Z traffic {} vs untiled {}",
            drt.traffic.of("Z"),
            untiled.traffic.of("Z")
        );
        assert!(drt.seconds < untiled.seconds);
    }

    #[test]
    fn drt_at_least_matches_suc() {
        let a = unstructured(160, 160, 1200, 2.0, 3);
        let h = hier();
        let suc = run(AccelSpec::outerspace_suc(), &a, &h);
        let drt = run(AccelSpec::outerspace_drt(), &a, &h);
        assert!(drt.traffic.total() <= suc.traffic.total() * 11 / 10);
        // Functional agreement across all three variants.
        let reference = gustavson(&a, &a).z;
        assert!(suc.output.as_ref().expect("out").approx_eq(&reference, 1e-9));
        assert!(drt.output.as_ref().expect("out").approx_eq(&reference, 1e-9));
    }

    #[test]
    fn ideal_on_chip_runtime_is_dram_bound() {
        let a = unstructured(96, 96, 500, 2.0, 4);
        let h = hier();
        let r = run(AccelSpec::outerspace_drt(), &a, &h);
        assert!((r.seconds - r.dram_bound_seconds(&h)).abs() / r.seconds < 1e-2);
    }
}

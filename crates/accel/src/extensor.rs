//! ExTensor-family accelerators (paper §5.2.1).
//!
//! Three variants, differing exactly as the paper describes:
//!
//! * **ExTensor** — the original design: S-U-C tiling at every level,
//!   serial skip-based intersection, serial merging.
//! * **ExTensor-OP** — the authors' improved baseline: same S-U-C tiling,
//!   but an outer-product dataflow between the global and local buffers
//!   with multiply-and-merge (partial sums reduced locally until spilled)
//!   and a parallelized skip-based intersection unit.
//! * **ExTensor-OP-DRT** (TACTile) — identical to ExTensor-OP except the
//!   buffer-fill logic is replaced by DRT tile extractors; *the only
//!   difference is the tiling mechanism* (§6.1.1).
//!
//! All variants use the paper's B-stationary `J → K → I` dataflow at the
//! LLB (§6.6: "The dataflow at this level is B stationary") and the §5.2.4
//! configuration: static partitions shared by all workloads and 32 × 32
//! micro tiles (micro-tile shape only matters to the DRT variant).
//!
//! The variants are registry data ([`crate::spec::AccelSpec::extensor`],
//! [`crate::spec::AccelSpec::extensor_op`],
//! [`crate::spec::AccelSpec::extensor_op_drt`]) and run through
//! [`crate::session::Session`]. Design-space sweeps perturb a spec's
//! [`crate::spec::EngineSpec`] fields (intersection unit, extractor,
//! micro shape, a verbatim `DrtConfig`).

/// Number of S-U-C candidate shapes swept per workload (the paper sweeps
/// static shapes and reports the best, §5.2.1).
pub const SUC_SWEEP_CANDIDATES: usize = 8;

#[cfg(test)]
mod tests {
    use crate::report::RunReport;
    use crate::session::Session;
    use crate::spec::{AccelSpec, PartitionPreset};
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::{BufferSpec, HierarchySpec};
    use drt_tensor::CsMatrix;
    use drt_workloads::patterns::unstructured;

    fn run(spec: AccelSpec, a: &CsMatrix) -> RunReport {
        Session::new(spec).hierarchy(&hier()).run_spmspm(a, a).expect("run")
    }

    fn hier() -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 24 * 1024, ports: 2 },
            num_pes: 16,
            ..HierarchySpec::default()
        }
    }

    #[test]
    fn all_three_variants_agree_functionally() {
        let a = unstructured(160, 160, 1100, 2.0, 11);
        let reference = gustavson(&a, &a).z;
        for r in [
            run(AccelSpec::extensor(), &a),
            run(AccelSpec::extensor_op(), &a),
            run(AccelSpec::extensor_op_drt(), &a),
        ] {
            assert!(
                r.output.as_ref().expect("functional").approx_eq(&reference, 1e-9),
                "{} output mismatch",
                r.name
            );
        }
    }

    #[test]
    fn drt_variant_reduces_traffic_and_time() {
        let a = unstructured(256, 256, 1800, 2.0, 12);
        let op = run(AccelSpec::extensor_op(), &a);
        let drt = run(AccelSpec::extensor_op_drt(), &a);
        assert!(
            drt.traffic.total() < op.traffic.total(),
            "DRT traffic {} vs S-U-C {}",
            drt.traffic.total(),
            op.traffic.total()
        );
        assert!(drt.seconds <= op.seconds * 1.05, "DRT should not be slower");
    }

    #[test]
    fn op_variant_no_slower_than_original() {
        let a = unstructured(128, 128, 900, 2.0, 13);
        let ext = run(AccelSpec::extensor(), &a);
        let op = run(AccelSpec::extensor_op(), &a);
        // Same tiling; better intersection/merge hardware → never slower.
        assert!(op.compute_cycles <= ext.compute_cycles);
        assert!(op.seconds <= ext.seconds * 1.0001);
    }

    #[test]
    fn partitions_follow_paper_shares() {
        let p = PartitionPreset::ExtensorPaper.partitions(1000);
        assert_eq!(p.get("A"), 50);
        assert_eq!(p.get("B"), 450);
        assert_eq!(p.get("Z"), 500);
    }
}

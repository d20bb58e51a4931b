//! Study 3: software S-U-C and DRT (paper §5.2.3 / §6.3, Figure 11).
//!
//! The paper's oracle, best-case software analysis: implement the tiling
//! schemes on a CPU, follow an *inner-product* dataflow when computing on
//! macro tiles in the LLC, and track memory traffic relative to an untiled
//! SpMSpM implementation. Because inner-product has perfect reuse on the
//! output, the software DRT uses the **alternating** growth variant to
//! promote reuse on the inputs (§6.3).
//!
//! The variants are the registry's `sw-suc` / `sw-dnc` specs
//! ([`crate::spec::AccelSpec::sw_suc`], [`crate::spec::AccelSpec::sw_dnc`]):
//! an inner-product dataflow (`i, j` outer, `k` inner — Z tiles never
//! spill) on an LLC-sized buffer, with micro tiles stored as plain CSR
//! (T-UC), which is what produces Figure 11's metadata-overhead outliers
//! on hypersparse inputs. Figure 11's y-axis is the traffic improvement of
//! each over the untiled `cpu-mkl` run on the same CPU:
//!
//! ```rust
//! use drt_accel::cpu::CpuSpec;
//! use drt_accel::session::Session;
//! use drt_accel::spec::AccelSpec;
//! use drt_workloads::patterns::uniform_random;
//!
//! # fn main() -> Result<(), drt_accel::error::DrtError> {
//! let a = uniform_random(128, 128, 700, 11);
//! let cpu = CpuSpec { llc_bytes: 8 * 1024, ..CpuSpec::default() };
//! let traffic = |spec: AccelSpec| -> Result<f64, drt_accel::error::DrtError> {
//!     Ok(Session::new(spec).cpu(cpu).run_spmspm(&a, &a)?.traffic.total() as f64)
//! };
//! let dnc_improvement = traffic(AccelSpec::cpu_mkl())? / traffic(AccelSpec::sw_dnc((8, 8)))?;
//! assert!(dnc_improvement > 0.0);
//! # Ok(())
//! # }
//! ```

#[cfg(test)]
mod tests {
    use crate::cpu::CpuSpec;
    use crate::report::RunReport;
    use crate::session::Session;
    use crate::spec::AccelSpec;
    use drt_tensor::CsMatrix;
    use drt_workloads::patterns::{diamond_band, uniform_random};

    fn small_cpu() -> CpuSpec {
        CpuSpec { llc_bytes: 8 * 1024, ..CpuSpec::default() }
    }

    /// The untiled, software S-U-C and software DRT runs of `A · A`.
    fn study3(a: &CsMatrix, suc_tile: u32) -> [RunReport; 3] {
        [AccelSpec::cpu_mkl(), AccelSpec::sw_suc(suc_tile, (8, 8)), AccelSpec::sw_dnc((8, 8))]
            .map(|spec| Session::new(spec).cpu(small_cpu()).run_spmspm(a, a).expect("run"))
    }

    /// Traffic improvement of a tiled run over the untiled one.
    fn improvement(untiled: &RunReport, tiled: &RunReport) -> f64 {
        untiled.traffic.total() as f64 / tiled.traffic.total() as f64
    }

    #[test]
    fn dnc_beats_suc_on_random_pattern() {
        // Figure 11: "for the random, unstructured pattern workloads, DRT
        // consistently outperforms S-U-C".
        let a = uniform_random(256, 256, 1600, 7);
        let [untiled, suc, dnc] = study3(&a, 16);
        let (suc, dnc) = (improvement(&untiled, &suc), improvement(&untiled, &dnc));
        assert!(dnc >= suc, "DNC {dnc:.3} vs SUC {suc:.3}");
    }

    #[test]
    fn all_variants_compute_same_product() {
        let a = diamond_band(96, 1400, 9);
        let [untiled, suc, dnc] = study3(&a, 16);
        let reference = untiled.output.as_ref().expect("out");
        assert!(suc.output.as_ref().expect("out").approx_eq(reference, 1e-9));
        assert!(dnc.output.as_ref().expect("out").approx_eq(reference, 1e-9));
    }

    #[test]
    fn improvements_are_finite_and_positive() {
        let a = uniform_random(128, 128, 700, 11);
        let [untiled, suc, dnc] = study3(&a, 8);
        for tiled in [&suc, &dnc] {
            let x = improvement(&untiled, tiled);
            assert!(x > 0.0 && x.is_finite(), "{}: {x}", tiled.name);
        }
    }
}

//! The MKL-like CPU baseline (paper §5.2.1).
//!
//! Every speedup figure normalizes to Intel MKL's SpMSpM on a Xeon
//! E5-2687W: 12 cores at 3 GHz, a 30 MB LLC, and 68.25 GB/s of DRAM
//! bandwidth. SpMSpM is memory-bound there, so the baseline is a roofline:
//! runtime = max(traffic / bandwidth, flops / peak-compute), with traffic
//! from a Gustavson sweep through an LLC reuse model — `A` and `Z` stream
//! once; `B` rows hit in the LLC with probability proportional to how much
//! of `B` fits.

use crate::report::{PhaseBreakdown, RunReport};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, MajorAxis};

/// CPU baseline parameters (paper §5.2.1 values by default).
///
/// The efficiency factors calibrate the roofline to what software SpGEMM
/// actually achieves on a Xeon-class part: irregular accesses utilize only
/// a fraction of peak DRAM bandwidth, transfers happen at cache-line
/// granularity, and the per-MACC instruction overhead of hash/heap merging
/// caps effective compute far below peak FLOPs (cf. Nagasaka et al.'s
/// SpGEMM measurements, which the paper cites for its CPU comparison).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Last-level cache capacity in bytes.
    pub llc_bytes: u64,
    /// Peak DRAM bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Fraction of peak bandwidth irregular sparse code sustains.
    pub bandwidth_efficiency: f64,
    /// Effective MACC throughput (MACCs per second) across cores for
    /// sparse-sparse multiplication.
    pub peak_maccs_per_sec: f64,
    /// Cache-line granularity of DRAM transfers.
    pub line_bytes: u32,
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec {
            llc_bytes: 30 * 1024 * 1024,
            bandwidth_bytes_per_sec: 68.25e9,
            bandwidth_efficiency: 0.4,
            // Measured MKL/heap SpGEMM effective rates are a few GFLOP/s on
            // a 12-core Xeon.
            peak_maccs_per_sec: 2.5e9,
            line_bytes: 64,
        }
    }
}

impl CpuSpec {
    /// A proportionally shrunken CPU for scaled-down workloads: LLC
    /// divided by `scale` so cache effects survive scaling (bandwidth and
    /// compute are rates and stay put).
    pub fn scaled_down(&self, scale: u64) -> CpuSpec {
        CpuSpec { llc_bytes: (self.llc_bytes / scale.max(1)).max(4096), ..*self }
    }
}

/// Run the MKL-like baseline on `Z = A · B`. The body of the registry's
/// `cpu-mkl` spec.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub(crate) fn run_mkl_like(
    a: &CsMatrix,
    b: &CsMatrix,
    spec: &CpuSpec,
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
    let z_bytes = sm.cs_matrix_bytes(&prod.z) as u64;
    traffic.write("Z", z_bytes);
    phases.writeback.bytes += z_bytes;

    // B reuse through the LLC: the first touch of each row is compulsory;
    // repeat touches hit with probability ≈ (LLC share available to B) /
    // (B footprint). A and Z streams leave roughly 2/3 of the LLC to B.
    let b_bytes = sm.cs_matrix_bytes(&b_rows) as u64;
    let b_cache = (spec.llc_bytes as f64) * (2.0 / 3.0);
    let hit_rate = (b_cache / b_bytes as f64).min(1.0);
    // Row fetches happen at cache-line granularity (scattered CSR rows
    // round up to whole lines).
    let line = spec.line_bytes.max(1) as u64;
    let row_bytes = |k: u32| -> u64 {
        let logical = b_rows.fiber_len(k) as u64 * (sm.coord_bytes as u64 + sm.value_bytes as u64);
        if logical == 0 {
            0
        } else {
            logical.div_ceil(line) * line
        }
    };
    let mut first_touch = vec![false; b_rows.nrows() as usize];
    let mut compulsory = 0u64;
    let mut repeats = 0u64;
    for (_, k, _) in a_rows.iter() {
        if !first_touch[k as usize] {
            first_touch[k as usize] = true;
            compulsory += row_bytes(k);
        } else {
            repeats += row_bytes(k);
        }
    }
    let b_traffic = compulsory + (repeats as f64 * (1.0 - hit_rate)) as u64;
    traffic.read("B", b_traffic);
    phases.load.bytes += a_bytes + b_traffic;
    probe.emit(|| Event::Fetch { tensor: "B", bytes: b_traffic });
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }

    let effective_bw = spec.bandwidth_bytes_per_sec * spec.bandwidth_efficiency;
    let mem_seconds = traffic.total() as f64 / effective_bw;
    let cmp_seconds = prod.maccs as f64 / spec.peak_maccs_per_sec;
    let seconds = mem_seconds.max(cmp_seconds);
    let actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: prod.maccs, ..Default::default() };
    RunReport {
        name: "CPU-MKL".into(),
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
    use drt_workloads::patterns::unstructured;

    fn run_mkl(a: &CsMatrix, spec: CpuSpec) -> RunReport {
        Session::new(AccelSpec::cpu_mkl()).cpu(spec).run_spmspm(a, a).expect("run")
    }

    #[test]
    fn output_matches_reference() {
        let a = unstructured(96, 96, 600, 2.0, 1);
        let r = run_mkl(&a, CpuSpec::default());
        assert!(r.output.as_ref().expect("out").approx_eq(&gustavson(&a, &a).z, 1e-9));
    }

    #[test]
    fn big_llc_gives_compulsory_only_b_traffic() {
        let a = unstructured(96, 96, 600, 2.0, 2);
        let sm = SizeModel::default();
        let big = run_mkl(&a, CpuSpec::default());
        // Everything fits: B traffic is compulsory only — bounded by the
        // line-rounded footprint (≤ one cache line per occupied row extra).
        let line_rounded = sm.cs_matrix_bytes(&a) as u64 + 64 * a.nrows() as u64;
        assert!(big.traffic.reads_of("B") <= line_rounded);
    }

    #[test]
    fn small_llc_increases_b_traffic() {
        let a = unstructured(128, 128, 1500, 2.0, 3);
        let big = run_mkl(&a, CpuSpec::default());
        let tiny = run_mkl(&a, CpuSpec { llc_bytes: 1024, ..CpuSpec::default() });
        assert!(tiny.traffic.reads_of("B") > big.traffic.reads_of("B"));
        assert!(tiny.seconds >= big.seconds);
    }

    #[test]
    fn runtime_respects_both_roofs() {
        let a = unstructured(96, 96, 900, 2.0, 4);
        let spec = CpuSpec::default();
        let r = run_mkl(&a, spec);
        let mem =
            r.traffic.total() as f64 / (spec.bandwidth_bytes_per_sec * spec.bandwidth_efficiency);
        let cmp = r.maccs as f64 / spec.peak_maccs_per_sec;
        assert!((r.seconds - mem.max(cmp)).abs() < 1e-12);
    }

    #[test]
    fn scattered_rows_pay_line_granularity() {
        // A one-nnz row costs a whole cache line on first touch.
        let a = unstructured(64, 64, 80, 2.0, 5);
        let spec = CpuSpec { llc_bytes: 0, ..CpuSpec::default() };
        let r = run_mkl(&a, spec);
        let sm = SizeModel::default();
        assert!(r.traffic.reads_of("B") >= sm.cs_matrix_bytes(&a) as u64 / 2);
    }
}

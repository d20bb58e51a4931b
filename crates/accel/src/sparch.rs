//! A SpArch-like accelerator model (extension; paper Table 2 classifies
//! SpArch as outer-product with **S-N-P** tiling — static, nonuniform,
//! position-space: it streams equal-*occupancy* chunks and merges partial
//! matrices through a pipelined multi-way merge tree).
//!
//! The model: inputs stream once (outer product); partial products are
//! written once and re-read `ceil(log_K(chunks))` times through the K-way
//! merger, where each chunk is one on-chip-buffer's worth of partials.
//! This sits between OuterSPACE's write-all-read-all and a tiled design's
//! on-chip reduction, which is exactly Table 2's placement.

use crate::report::{PhaseBreakdown, RunReport};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::CsMatrix;

/// Run the SpArch-like model on `Z = A · B` (DRAM-bound runtime). The
/// body of the registry's `sparch` spec.
///
/// `merge_ways` is the merger's fan-in (SpArch uses a 64-way tree).
///
/// # Panics
///
/// Panics when inner dimensions disagree or `merge_ways < 2`.
pub(crate) fn run_sparch_like(
    a: &CsMatrix,
    b: &CsMatrix,
    hier: &HierarchySpec,
    merge_ways: u32,
    sm: &SizeModel,
    probe: &Probe,
) -> RunReport {
    assert!(merge_ways >= 2, "merge tree needs fan-in of at least 2");
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
    // Partial matrices: one per S-N-P chunk (a buffer's worth of partial
    // products). The merge tree combines `merge_ways` per pass.
    let partial_bytes = sm.coo_bytes(prod.partial_products as usize, 2) as u64;
    let chunk_bytes = (hier.llb.capacity_bytes / 2).max(1);
    let chunks = partial_bytes.div_ceil(chunk_bytes).max(1);
    let merge_passes =
        if chunks <= 1 { 0 } else { (chunks as f64).log(merge_ways as f64).ceil() as u64 };
    // Write all partials once; each merge pass reads and rewrites the
    // shrinking stream (bounded below by the final output footprint).
    let final_bytes = sm.cs_matrix_bytes(&prod.z) as u64;
    traffic.write("Z", partial_bytes);
    phases.merge.bytes += partial_bytes;
    probe.emit(|| Event::Spill { bytes: partial_bytes });
    for _ in 0..merge_passes {
        let pass = partial_bytes.max(final_bytes);
        traffic.read("Z", pass);
        traffic.write("Z", pass);
        phases.merge.bytes += 2 * pass;
        probe.emit(|| Event::Refill { bytes: pass });
        probe.emit(|| Event::Spill { bytes: pass });
    }
    if merge_passes == 0 {
        // Everything merged on chip: rewrite as the final form.
        traffic.read("Z", 0);
    }
    traffic.write("Z", final_bytes);
    phases.writeback.bytes += final_bytes;
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }

    let seconds = hier.dram.seconds_for(traffic.total());
    let actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: prod.maccs, ..Default::default() };
    RunReport {
        name: "SpArch-like".into(),
        traffic,
        maccs: prod.maccs,
        compute_cycles: 0,
        exposed_extract_cycles: 0,
        seconds,
        output: Some(prod.z),
        tasks: chunks,
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
    use crate::spec::{AccelSpec, SpecKind};
    use drt_kernels::spmspm::gustavson;
    use drt_sim::memory::BufferSpec;
    use drt_workloads::patterns::unstructured;

    fn run(spec: AccelSpec, a: &CsMatrix, h: &HierarchySpec) -> RunReport {
        Session::new(spec).hierarchy(h).run_spmspm(a, a).expect("run")
    }

    fn sparch(merge_ways: u32) -> AccelSpec {
        AccelSpec { kind: SpecKind::SpArchLike { merge_ways }, ..AccelSpec::sparch() }
    }

    fn hier(kib: u64) -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: kib * 1024, ports: 2 },
            ..HierarchySpec::default()
        }
    }

    #[test]
    fn output_matches_reference() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        let r = run(sparch(64), &a, &hier(16));
        assert!(r.output.as_ref().expect("out").approx_eq(&gustavson(&a, &a).z, 1e-9));
    }

    #[test]
    fn merge_tree_beats_outerspace_on_dense_partials() {
        // Lots of partials per on-chip chunk: the log-pass merger re-reads
        // far less than OuterSPACE's single monolithic merge when chunks
        // exceed the fan-in only logarithmically.
        let a = unstructured(128, 128, 3000, 2.0, 2);
        let h = hier(4);
        let sparch = run(sparch(64), &a, &h);
        let os = run(AccelSpec::outerspace(), &a, &h);
        // With a 64-way merger, one pass suffices here, matching
        // OuterSPACE's 2x partial traffic — never worse.
        assert!(sparch.traffic.of("Z") <= os.traffic.of("Z") * 3);
        assert!(sparch.maccs == os.maccs);
    }

    #[test]
    fn everything_on_chip_needs_no_merge_passes() {
        let a = unstructured(48, 48, 150, 2.0, 3);
        let r = run(sparch(64), &a, &hier(1024));
        let sm = SizeModel::default();
        // Partials written once + final output once.
        let partials = sm
            .coo_bytes(drt_kernels::spmspm::outer_product(&a, &a).partial_products as usize, 2)
            as u64;
        assert_eq!(r.traffic.reads_of("Z"), 0);
        assert_eq!(
            r.traffic.writes_of("Z"),
            partials + sm.cs_matrix_bytes(r.output.as_ref().expect("out")) as u64
        );
    }

    #[test]
    fn narrower_merger_pays_more_passes() {
        let a = unstructured(160, 160, 4000, 2.0, 4);
        let h = hier(1);
        let wide = run(sparch(64), &a, &h);
        let narrow = run(sparch(2), &a, &h);
        assert!(narrow.traffic.of("Z") >= wide.traffic.of("Z"));
    }
}

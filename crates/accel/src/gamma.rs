//! A GAMMA-like accelerator model (extension beyond the paper's evaluated
//! set; paper §7 discusses GAMMA as "a nascent form of D-N-C tiling": it
//! distributes *rows* of `A` — not coordinate tiles — in the context of
//! Gustavson's dataflow, and caches `B` rows in its FiberCache).
//!
//! The model: `A` and `Z` stream once (row-wise dataflow with on-chip
//! merging), and `B` rows flow through an LRU *row cache* of the on-chip
//! capacity — GAMMA's FiberCache. This sits between untiled MatRaptor
//! (no `B` reuse) and DRT-tiled designs (explicit co-tiled reuse), which
//! is exactly where the paper's Table 2 places it.

use crate::report::{PhaseBreakdown, RunReport};
use drt_core::probe::{Event, Probe};
use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, MajorAxis};
use std::collections::HashMap;

/// Run the GAMMA-like model on `Z = A · B` (DRAM-bound runtime, like the
/// Study 2 portability models); FiberCache misses surface as `fetch`
/// events, hits as `hit`. The body of the registry's `gamma` spec.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub(crate) fn run_gamma_like(
    a: &CsMatrix,
    b: &CsMatrix,
    hier: &HierarchySpec,
    sm: &SizeModel,
    probe: &Probe,
) -> RunReport {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
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

    // FiberCache: LRU over B rows with most of the on-chip capacity.
    let capacity = hier.llb.capacity_bytes * 3 / 4;
    let row_bytes = |k: u32| -> u64 {
        b_rows.fiber_len(k) as u64 * (sm.coord_bytes as u64 + sm.value_bytes as u64)
    };
    let mut resident: HashMap<u32, u64> = HashMap::new(); // row -> stamp
    let mut used = 0u64;
    let mut clock = 0u64;
    let mut b_traffic = b_rows.seg().len() as u64 * sm.seg_bytes as u64;
    for (_, k, _) in a_rows.iter() {
        clock += 1;
        if let Some(stamp) = resident.get_mut(&k) {
            *stamp = clock;
            probe.emit(|| Event::Hit { tensor: "B", bytes: row_bytes(k) });
            continue; // FiberCache hit
        }
        let bytes = row_bytes(k);
        probe.emit(|| Event::Fetch { tensor: "B", bytes });
        b_traffic += bytes;
        used += bytes;
        resident.insert(k, clock);
        while used > capacity && resident.len() > 1 {
            let victim = *resident
                .iter()
                .filter(|&(&r, _)| r != k)
                .min_by_key(|(_, &stamp)| stamp)
                .map(|(r, _)| r)
                .expect("non-empty cache");
            used -= row_bytes(victim);
            resident.remove(&victim);
        }
    }
    traffic.read("B", b_traffic);
    phases.load.bytes += a_bytes + b_traffic;
    for (phase, stats) in phases.named() {
        probe.emit(|| Event::Phase { phase, cycles: stats.cycles, bytes: stats.bytes });
    }

    let seconds = hier.dram.seconds_for(traffic.total());
    let actions =
        ActionCounts { dram_bytes: traffic.total(), maccs: prod.maccs, ..Default::default() };
    RunReport {
        name: "GAMMA-like".into(),
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

    fn hier(kib: u64) -> HierarchySpec {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: kib * 1024, ports: 2 },
            ..HierarchySpec::default()
        }
    }

    #[test]
    fn output_matches_reference() {
        let a = unstructured(96, 96, 700, 2.0, 1);
        let r = run(AccelSpec::gamma(), &a, &hier(16));
        assert!(r.output.as_ref().expect("out").approx_eq(&gustavson(&a, &a).z, 1e-9));
    }

    #[test]
    fn fibercache_beats_untiled_matraptor_on_b_traffic() {
        let a = unstructured(128, 128, 1200, 2.0, 2);
        let h = hier(16);
        let gamma = run(AccelSpec::gamma(), &a, &h);
        let untiled = run(AccelSpec::matraptor(), &a, &h);
        assert!(
            gamma.traffic.reads_of("B") < untiled.traffic.reads_of("B"),
            "FiberCache reuse ({}) must beat no reuse ({})",
            gamma.traffic.reads_of("B"),
            untiled.traffic.reads_of("B")
        );
    }

    #[test]
    fn big_cache_gives_compulsory_b_traffic() {
        let a = unstructured(64, 64, 500, 2.0, 3);
        let r = run(AccelSpec::gamma(), &a, &hier(1024));
        let sm = SizeModel::default();
        // With everything cached, B is read at most once.
        assert!(r.traffic.reads_of("B") <= sm.cs_matrix_bytes(&a) as u64 + 64);
    }

    #[test]
    fn tiny_cache_degrades_toward_untiled() {
        let a = unstructured(128, 128, 1200, 2.0, 4);
        let big = run(AccelSpec::gamma(), &a, &hier(64));
        let tiny = run(AccelSpec::gamma(), &a, &hier(1));
        assert!(tiny.traffic.reads_of("B") >= big.traffic.reads_of("B"));
    }
}

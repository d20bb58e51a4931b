//! Regression tests pinning empty-operand behavior (nnz = 0 and
//! zero-extent shapes) through taskgen → engine → report, for both DRT
//! and S-U-C tilings and across the full registry. The workload shrinker
//! in `drt-verify` reduces failing cases toward these degenerate shapes,
//! so every one of them must produce a clean report instead of a panic.

use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::session::Session;
use drt_accel::spec::Registry;
use drt_core::config::DrtConfig;
use drt_sim::memory::HierarchySpec;
use drt_tensor::{CsMatrix, MajorAxis};
use std::collections::BTreeMap;

fn suc_tiling() -> Tiling {
    Tiling::Suc(BTreeMap::from([('i', 8), ('k', 8), ('j', 8)]))
}

fn hier() -> HierarchySpec {
    HierarchySpec::default().scaled_down(256)
}

fn engine_session(tiling: Tiling) -> Session {
    let parts = drt_accel::spec::PartitionPreset::Balanced.partitions(6 * 1024);
    let cfg = EngineConfig {
        micro: (8, 8),
        hier: hier(),
        ..EngineConfig::new(("empty-probe", tiling, DrtConfig::new(parts)))
    };
    Session::from_engine_config(cfg)
}

/// Shapes the shrinker can reduce to: all-zero square, zero rows, zero
/// cols, and fully degenerate 0×0.
fn empty_shapes() -> Vec<(CsMatrix, CsMatrix)> {
    let z64 = CsMatrix::zero(64, 64, MajorAxis::Row);
    vec![
        (z64.clone(), z64.clone()),
        (CsMatrix::zero(0, 64, MajorAxis::Row), CsMatrix::zero(64, 0, MajorAxis::Row)),
        (CsMatrix::zero(64, 0, MajorAxis::Row), CsMatrix::zero(0, 64, MajorAxis::Row)),
        (CsMatrix::zero(0, 0, MajorAxis::Row), CsMatrix::zero(0, 0, MajorAxis::Row)),
        (CsMatrix::zero(1, 1, MajorAxis::Row), CsMatrix::zero(1, 1, MajorAxis::Row)),
    ]
}

#[test]
fn engine_tilings_survive_empty_operands_serial_and_sharded() {
    for tiling in [Tiling::Drt, suc_tiling()] {
        for (a, b) in empty_shapes() {
            for threads in [1usize, 4] {
                let report = engine_session(tiling.clone())
                    .threads(threads)
                    .run_spmspm(&a, &b)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{tiling:?} {}x{} · {}x{} threads={threads}: {e}",
                            a.nrows(),
                            a.ncols(),
                            b.nrows(),
                            b.ncols()
                        )
                    });
                let out = report.output.as_ref().expect("engine runs are functional");
                assert_eq!(out.nrows(), a.nrows(), "{tiling:?} output rows");
                assert_eq!(out.ncols(), b.ncols(), "{tiling:?} output cols");
                assert_eq!(out.nnz(), 0, "{tiling:?} empty inputs → empty output");
                assert_eq!(report.maccs, 0, "{tiling:?} no effectual MACCs");
                assert_eq!(
                    report.phases.total_bytes(),
                    report.traffic.total(),
                    "{tiling:?} phase bytes must partition traffic even when empty"
                );
            }
        }
    }
}

#[test]
fn engine_empty_reports_are_thread_invariant() {
    for tiling in [Tiling::Drt, suc_tiling()] {
        for (a, b) in empty_shapes() {
            let serial = engine_session(tiling.clone()).run_spmspm(&a, &b).expect("serial");
            let sharded =
                engine_session(tiling.clone()).threads(4).run_spmspm(&a, &b).expect("sharded");
            assert!(
                serial.bit_diff(&sharded).is_none(),
                "{tiling:?}: {:?}",
                serial.bit_diff(&sharded)
            );
        }
    }
}

#[test]
fn full_registry_survives_empty_operands() {
    for spec in Registry::standard().iter() {
        for (a, b) in empty_shapes() {
            for threads in [1usize, 4] {
                let report = Session::new(spec.clone())
                    .hierarchy(&hier())
                    .threads(threads)
                    .run_spmspm(&a, &b)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} on {}x{} · {}x{} threads={threads}: {e}",
                            spec.name,
                            a.nrows(),
                            a.ncols(),
                            b.nrows(),
                            b.ncols()
                        )
                    });
                if let Some(out) = report.output.as_ref() {
                    assert_eq!(out.nnz(), 0, "{}: empty inputs → empty output", spec.name);
                }
                assert_eq!(report.maccs, 0, "{}: no effectual MACCs on empty inputs", spec.name);
            }
        }
    }
}

/// One-sided emptiness: a populated operand against an all-zero one, in
/// both orders. The product is empty but load traffic is not, so this
/// pins the skipped-task accounting.
#[test]
fn one_sided_empty_operand_yields_empty_product() {
    let dense = drt_workloads::patterns::unstructured(64, 64, 400, 2.0, 7);
    let zero = CsMatrix::zero(64, 64, MajorAxis::Row);
    for tiling in [Tiling::Drt, suc_tiling()] {
        for (a, b) in [(&dense, &zero), (&zero, &dense)] {
            for threads in [1usize, 4] {
                let report = engine_session(tiling.clone())
                    .threads(threads)
                    .run_spmspm(a, b)
                    .unwrap_or_else(|e| panic!("{tiling:?} threads={threads}: {e}"));
                let out = report.output.as_ref().expect("functional run");
                assert_eq!(out.nnz(), 0, "{tiling:?}: product with zero factor is zero");
                assert_eq!(report.maccs, 0, "{tiling:?}: zero factor → zero MACCs");
                assert_eq!(report.phases.total_bytes(), report.traffic.total());
            }
        }
    }
}

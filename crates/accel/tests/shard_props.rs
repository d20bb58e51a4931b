//! Property-based tests of the sharded-execution determinism contract:
//! for random matrices, every thread count from 1 to 8 — and so every
//! shard layout `shard_bounds` cuts for it, down to one-task shards and a
//! single empty shard — the merged shard reports must be bit-identical
//! to the serial run, for both DRT and S-U-C tilings.

use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::session::Session;
use drt_core::config::DrtConfig;
use drt_sim::memory::{BufferSpec, HierarchySpec};
use drt_tensor::{CsMatrix, MajorAxis};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_matrix(dim: u32, max_nnz: usize) -> impl Strategy<Value = CsMatrix> {
    proptest::collection::vec((0..dim, 0..dim, 0.1..1.0f64), 1..max_nnz)
        .prop_map(move |entries| CsMatrix::from_entries(dim, dim, entries, MajorAxis::Row))
}

fn small_hier() -> HierarchySpec {
    HierarchySpec {
        llb: BufferSpec { capacity_bytes: 4096, ports: 2 },
        num_pes: 4,
        ..HierarchySpec::default()
    }
}

fn engine_cfg(tiling: Tiling) -> EngineConfig {
    let parts = drt_accel::spec::PartitionPreset::Balanced.partitions(4096);
    EngineConfig {
        micro: (8, 8),
        hier: small_hier(),
        ..EngineConfig::new(("shard-prop", tiling, DrtConfig::new(parts)))
    }
}

/// Exercise one tiling at every thread count from 1 to 8. One thread
/// runs the serial streaming path; the rest shard the task list.
fn check_tiling(a: &CsMatrix, tiling: Tiling) -> Result<(), TestCaseError> {
    let cfg = engine_cfg(tiling);
    let session = Session::from_engine_config(cfg);
    // Infeasible partitions for this micro shape are skipped.
    let Ok(serial) = session.run_spmspm(a, a) else { return Ok(()) };
    for threads in 2..=8 {
        let sharded = session
            .clone()
            .threads(threads)
            .run_spmspm(a, a)
            .expect("feasible serially implies feasible sharded");
        prop_assert!(
            serial.bit_diff(&sharded).is_none(),
            "{threads} threads diverged: {}",
            serial.bit_diff(&sharded).unwrap()
        );
    }
    Ok(())
}

/// Guard against the property tests rotting into vacuity: the shared
/// fixture configuration must be feasible and span several tasks for a
/// representative dense-ish matrix, so the `Ok` path really runs.
#[test]
fn fixture_configuration_is_feasible() {
    let entries: Vec<(u32, u32, f64)> =
        (0..220u32).map(|i| ((i * 7) % 48, (i * 13) % 48, 0.5)).collect();
    let a = CsMatrix::from_entries(48, 48, entries, MajorAxis::Row);
    let r = Session::from_engine_config(engine_cfg(Tiling::Drt))
        .run_spmspm(&a, &a)
        .expect("fixture must be feasible");
    assert!(r.tasks > 1, "fixture must span several tasks, got {}", r.tasks);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn drt_sharded_matches_serial_for_random_boundaries(a in arb_matrix(48, 220)) {
        check_tiling(&a, Tiling::Drt)?;
    }

    #[test]
    fn suc_sharded_matches_serial_for_random_boundaries(
        a in arb_matrix(48, 220),
        tile in 1u32..5,
    ) {
        let sizes: BTreeMap<char, u32> =
            [('i', tile * 8), ('k', tile * 8), ('j', tile * 8)].into();
        check_tiling(&a, Tiling::Suc(sizes))?;
    }

    #[test]
    fn empty_edge_shards_are_harmless(a in arb_matrix(48, 4)) {
        // A handful of non-zeros span a few tasks or none (A · A can be
        // empty), so most thread counts exceed the task count: shards
        // shrink to one task each, or to the single empty shard.
        check_tiling(&a, Tiling::Drt)?;
    }
}

//! Property-based tests for the DRT core: single-call planning invariants
//! and full task-stream coverage, over random matrices and configurations.

use drt_core::config::{DrtConfig, GrowthOrder, Partitions};
use drt_core::drt::{plan_tile, plan_tile_with_mode, MeasureMode};
use drt_core::kernel::Kernel;
use drt_core::micro::MicroGrid;
use drt_core::taskgen::{TaskGenOptions, TaskStream};
use drt_tensor::{CsMatrix, CsfTensor, MajorAxis};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_matrix(dim: u32, max_nnz: usize) -> impl Strategy<Value = CsMatrix> {
    proptest::collection::vec((0..dim, 0..dim, 0.5..1.5f64), 1..max_nnz)
        .prop_map(move |e| CsMatrix::from_entries(dim, dim, e, MajorAxis::Row))
}

fn full_region(k: &Kernel) -> BTreeMap<char, std::ops::Range<u32>> {
    k.ranks().into_iter().map(|r| (r, 0..k.extent(r).div_ceil(k.micro_step(r)).max(1))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single plan never exceeds any tensor's partition, and its counted
    /// nnz match a direct rectangle count (Aggregate is exact).
    #[test]
    fn plan_is_capacity_safe_and_exact(
        a in arb_matrix(48, 200),
        b in arb_matrix(48, 200),
        a_share in 2u32..6,
        llb in 1500u64..20_000,
    ) {
        let kernel = Kernel::spmspm(&a, &b, (4, 4)).unwrap();
        let fa = a_share as f64 / 10.0;
        let parts = Partitions::split(llb, &[("A", fa), ("B", 0.8 - fa), ("Z", 0.2)]);
        let cfg = DrtConfig::new(parts.clone());
        let plan = match plan_tile(&kernel, &['j', 'k', 'i'], &full_region(&kernel), &BTreeMap::new(), &cfg) {
            Ok(p) => p,
            Err(_) => return Ok(()), // infeasible partition, rejected cleanly
        };
        for tile in &plan.tiles {
            prop_assert!(tile.footprint() <= parts.get(&tile.name));
        }
        // Exactness: the A tile's nnz equals a direct rectangle count.
        let ir = plan.coord_ranges[&'i'].clone();
        let kr = plan.coord_ranges[&'k'].clone();
        let jr = plan.coord_ranges[&'j'].clone();
        prop_assert_eq!(
            plan.tile("A").unwrap().nnz,
            a.nnz_in_rect(ir, kr.clone()) as u64
        );
        prop_assert_eq!(
            plan.tile("B").unwrap().nnz,
            b.nnz_in_rect(kr, jr) as u64
        );
    }

    /// Co-tiling: both operands' chosen k ranges are a single shared range.
    #[test]
    fn co_tiling_is_shared(a in arb_matrix(40, 160)) {
        let kernel = Kernel::spmspm(&a, &a, (4, 4)).unwrap();
        let cfg = DrtConfig::new(Partitions::split(8_000, &[("A", 0.4), ("B", 0.4), ("Z", 0.2)]));
        if let Ok(plan) =
            plan_tile(&kernel, &['j', 'k', 'i'], &full_region(&kernel), &BTreeMap::new(), &cfg)
        {
            // One entry per rank: if co-tiling were violated there would be
            // no single consistent range to report.
            prop_assert_eq!(plan.coord_ranges.len(), 3);
            let k = &plan.grid_ranges[&'k'];
            prop_assert!(k.end > k.start);
        }
    }

    /// Task streams cover every non-zero of both operands at least once
    /// per outer sweep chunk, and skipped tasks only ever hide empty tiles.
    #[test]
    fn streams_cover_all_nonzeros(a in arb_matrix(40, 140), growth_alt in any::<bool>()) {
        let kernel = Kernel::spmspm(&a, &a, (4, 4)).unwrap();
        let growth = if growth_alt { GrowthOrder::Alternating } else { GrowthOrder::ContractedFirst };
        let cfg = DrtConfig::new(Partitions::split(6_000, &[("A", 0.35), ("B", 0.45), ("Z", 0.2)]))
            .with_growth(growth);
        let stream = match TaskStream::build(&kernel, TaskGenOptions::drt(&['j', 'k', 'i'], cfg)) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        // Union of all (i, k) boxes of emitted tasks must contain every A
        // non-zero whose (k, j) co-range has B data somewhere — weaker but
        // sufficient check: every A nnz must be inside *some* emitted or
        // skipped (i, k) box; since skipped boxes have an empty tile, an A
        // nnz inside a skipped box implies B's co-tile was empty.
        let tasks: Vec<_> = stream.collect();
        for (r, c, _) in a.iter() {
            let in_emitted = tasks.iter().any(|t| {
                t.plan.coord_ranges[&'i'].contains(&r) && t.plan.coord_ranges[&'k'].contains(&c)
            });
            if in_emitted {
                continue;
            }
            // Not in any emitted task: B must be empty for every j over
            // this k — i.e. B's row c is empty.
            prop_assert_eq!(
                a.nnz_in_rect(c..c + 1, 0..a.ncols()),
                0,
                "A nnz ({}, {}) uncovered although B row {} is non-empty",
                r, c, c
            );
        }
    }

    /// The prefix-sum region query agrees with the retained linear-scan
    /// oracle on 2-D boxes over rectangular matrices and non-square micro
    /// shapes: tall-narrow boxes (walked by column), wide-short and square
    /// boxes (walked by row; a square box is the tie), arbitrary ranges
    /// including empty (start >= end) ones, and boxes that start at or
    /// past the grid extent. The uncharged emptiness predicate agrees too.
    #[test]
    fn region_stats_matches_naive_2d(
        m in (1u32..96, 1u32..96).prop_flat_map(|(r, c)| {
            proptest::collection::vec((0..r, 0..c, 0.5..1.5f64), 1..400)
                .prop_map(move |e| CsMatrix::from_entries(r, c, e, MajorAxis::Row))
        }),
        micro in (1u32..9, 1u32..9),
        q in proptest::collection::vec((0u8..4, 0u32..30, 0u32..30, 1u32..30, 1u32..4), 1..16),
    ) {
        let grid = MicroGrid::from_matrix(&m, micro).unwrap();
        let gd = grid.grid_dims().to_vec();
        let mut boxes = vec![
            [0..gd[0], 0..1],                     // one full-height column
            [0..1, 0..gd[1]],                     // one full-width row
            [0..gd[0].min(gd[1]), 0..gd[0].min(gd[1])], // square: the tie
            [gd[0]..gd[0] + 3, 0..gd[1]],         // rows start at the extent
            [0..gd[0], gd[1]..gd[1] + 2],         // columns start at the extent
            [gd[0] + 1..gd[0] + 9, gd[1] + 1..gd[1] + 2], // both past it
        ];
        for (kind, r0, c0, long, short) in q {
            boxes.push(match kind {
                0 => [r0..r0 + long, c0..c0 + short], // tall and narrow
                1 => [r0..r0 + short, c0..c0 + long], // wide and short
                2 => [r0..r0 + long, c0..c0 + long],  // square
                _ => [r0..long, c0..short + c0 % 7],  // arbitrary, maybe empty
            });
        }
        for ranges in boxes {
            let fast = grid.region_stats(&ranges);
            let naive = grid.region_stats_naive(&ranges);
            prop_assert_eq!(fast, naive, "box {:?} on grid {:?}", &ranges, &gd);
            prop_assert_eq!(grid.region_is_empty(&ranges), naive.nnz == 0, "box {:?}", &ranges);
        }
        // Whole-grid query reproduces the precomputed totals.
        let full = grid.region_stats(&[0..gd[0], 0..gd[1]]);
        prop_assert_eq!(full.nnz, grid.total_nnz());
        prop_assert_eq!(full.data_bytes, grid.total_data_bytes());
        prop_assert_eq!(full.micro_tiles, grid.occupied_tiles() as u64);
    }

    /// Same agreement on 3-D CSF grids, where the query recurses through
    /// equal-coordinate groups below the binary-searched second dimension.
    #[test]
    fn region_stats_matches_naive_3d(
        pts in proptest::collection::btree_set((0u32..24, 0u32..24, 0u32..24), 1..250),
        q in proptest::collection::vec(
            (0u32..10, 0u32..10, 0u32..10, 0u32..10, 0u32..10, 0u32..10), 1..10),
    ) {
        let points: Vec<([u32; 3], f64)> =
            pts.into_iter().map(|(i, j, k)| ([i, j, k], 1.0)).collect();
        let borrowed: Vec<(&[u32], f64)> =
            points.iter().map(|(p, v)| (p.as_slice(), *v)).collect();
        let t = CsfTensor::from_points(vec![24, 24, 24], &borrowed).unwrap();
        let grid = MicroGrid::from_csf(&t, &[4, 4, 4]).unwrap();
        for (a0, a1, b0, b1, c0, c1) in q {
            let ranges = [a0..a1, b0..b1, c0..c1];
            let fast = grid.region_stats(&ranges);
            let naive = grid.region_stats_naive(&ranges);
            prop_assert_eq!(fast, naive, "box {:?}", &ranges);
            prop_assert_eq!(grid.region_is_empty(&ranges), naive.nnz == 0, "box {:?}", &ranges);
        }
    }

    /// Incremental measurement caching reproduces the from-scratch plan
    /// bit-for-bit: same ranges, same tile stats, same trace counters —
    /// across growth orders, pinned ranks, and fallback subdivision (tight
    /// partitions + pinned ranks force the fallback/invalidate paths).
    #[test]
    fn incremental_plan_matches_from_scratch(
        a in arb_matrix(48, 240),
        b in arb_matrix(48, 240),
        llb in 300u64..12_000,
        growth_alt in any::<bool>(),
        pin_k in 0u32..8,
        pin_j in 0u32..8,
    ) {
        let kernel = Kernel::spmspm(&a, &b, (4, 4)).unwrap();
        let growth = if growth_alt { GrowthOrder::Alternating } else { GrowthOrder::ContractedFirst };
        let cfg = DrtConfig::new(Partitions::split(llb, &[("A", 0.3), ("B", 0.5), ("Z", 0.2)]))
            .with_growth(growth);
        let mut pinned = BTreeMap::new();
        if pin_k > 0 { pinned.insert('k', pin_k); }
        if pin_j > 0 { pinned.insert('j', pin_j); }
        let region = full_region(&kernel);
        let inc = plan_tile_with_mode(
            &kernel, &['j', 'k', 'i'], &region, &pinned, &cfg, MeasureMode::Incremental);
        let scratch = plan_tile_with_mode(
            &kernel, &['j', 'k', 'i'], &region, &pinned, &cfg, MeasureMode::FromScratch);
        match (inc, scratch) {
            (Ok(i), Ok(s)) => prop_assert_eq!(i, s),
            (Err(_), Err(_)) => {} // both reject the infeasible partition
            (i, s) => prop_assert!(false, "modes disagree on feasibility: {:?} vs {:?}", i, s),
        }
    }

    /// Growth monotonicity: a strictly larger partition never produces a
    /// smaller stationary tile (in grid cells) for the same input.
    #[test]
    fn bigger_buffers_grow_no_smaller(a in arb_matrix(48, 200)) {
        let kernel = Kernel::spmspm(&a, &a, (4, 4)).unwrap();
        let region = full_region(&kernel);
        let small = DrtConfig::new(Partitions::split(3_000, &[("A", 0.3), ("B", 0.5), ("Z", 0.2)]));
        let large = DrtConfig::new(Partitions::split(30_000, &[("A", 0.3), ("B", 0.5), ("Z", 0.2)]));
        let (p_small, p_large) = match (
            plan_tile(&kernel, &['j', 'k', 'i'], &region, &BTreeMap::new(), &small),
            plan_tile(&kernel, &['j', 'k', 'i'], &region, &BTreeMap::new(), &large),
        ) {
            (Ok(s), Ok(l)) => (s, l),
            _ => return Ok(()),
        };
        let cells = |p: &drt_core::drt::TilePlan| {
            p.grid_ranges[&'k'].len() as u64 * p.grid_ranges[&'j'].len() as u64
        };
        prop_assert!(cells(&p_large) >= cells(&p_small));
    }
}

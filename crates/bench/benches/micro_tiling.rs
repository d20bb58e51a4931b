//! Criterion micro-benchmark: micro-grid construction (the S-U-C
//! pre-processing DRT shares with prior schemes) and region queries (the
//! Aggregate step's primitive).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drt_core::micro::MicroGrid;
use drt_workloads::patterns::unstructured;
use std::hint::black_box;

fn bench_grid_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_grid_build");
    group.sample_size(10);
    for nnz in [50_000usize, 200_000] {
        let a = unstructured(8192, 8192, nnz, 2.0, 4);
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nnz), &a, |b, a| {
            b.iter(|| MicroGrid::from_matrix(black_box(a), (32, 32)).expect("grid"))
        });
    }
    group.finish();
}

fn bench_region_stats(c: &mut Criterion) {
    // `prefix` is the shipping prefix-sum implementation; `naive` is the
    // retained linear-scan oracle. Same box queries on the same grid
    // (>= 10^4 occupied micro tiles), so the pair directly shows the
    // box-query speedup. `strip` queries are one column wide and `span`
    // rows tall — the shape of a planner grow probe on an inner rank —
    // which the shipping query answers along the column.
    let mut group = c.benchmark_group("region_stats");
    let a = unstructured(8192, 8192, 200_000, 2.0, 5);
    let grid = MicroGrid::from_matrix(&a, (32, 32)).expect("grid");
    assert!(grid.occupied_tiles() >= 10_000, "grid too sparse for the comparison");
    let full = grid.grid_dims()[0];
    for frac in [1u32, 4, 16, 64] {
        let span = (full / frac).max(1);
        group.bench_with_input(
            BenchmarkId::new("prefix", format!("1/{frac}")),
            &span,
            |b, &span| b.iter(|| grid.region_stats(black_box(&[0..span, 0..span]))),
        );
        group.bench_with_input(
            BenchmarkId::new("naive", format!("1/{frac}")),
            &span,
            |b, &span| b.iter(|| grid.region_stats_naive(black_box(&[0..span, 0..span]))),
        );
        let col = full / 2;
        group.bench_with_input(
            BenchmarkId::new("strip", format!("1/{frac}")),
            &span,
            |b, &span| b.iter(|| grid.region_stats(black_box(&[0..span, col..col + 1]))),
        );
        group.bench_with_input(
            BenchmarkId::new("strip_naive", format!("1/{frac}")),
            &span,
            |b, &span| b.iter(|| grid.region_stats_naive(black_box(&[0..span, col..col + 1]))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_grid_build, bench_region_stats);
criterion_main!(benches);

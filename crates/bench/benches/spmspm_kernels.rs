//! Criterion micro-benchmark: the three reference SpMSpM dataflows
//! (row-wise Gustavson, inner-product, outer-product) on banded and
//! power-law matrices, plus the engine's per-task compute path at tile
//! sizes — alloc-per-call (extract + multiply) vs zero-copy views with a
//! reused workspace — and the view kernel's two row loops on banded rows
//! (narrow output spans, the dense-window loop) vs power-law rows (wide
//! spans, the touched-list loop).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drt_kernels::spmspm::{
    gustavson, gustavson_view_into, inner_product, outer_product, SpaWorkspace,
};
use drt_tensor::CsMatrix;
use drt_workloads::patterns::{diamond_band, unstructured};
use std::hint::black_box;
use std::ops::Range;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmspm");
    group.sample_size(10);
    for (label, a) in [
        ("banded-1k", diamond_band(1024, 20_000, 3)),
        ("powerlaw-1k", unstructured(1024, 1024, 20_000, 2.0, 3)),
    ] {
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("gustavson", label), &a, |b, a| {
            b.iter(|| gustavson(black_box(a), black_box(a)))
        });
        group.bench_with_input(BenchmarkId::new("outer_product", label), &a, |b, a| {
            b.iter(|| outer_product(black_box(a), black_box(a)))
        });
        // Inner product visits every candidate output point; keep it to the
        // banded case where fibers are clustered.
        if label.starts_with("banded") {
            group.bench_with_input(BenchmarkId::new("inner_product", label), &a, |b, a| {
                b.iter(|| inner_product(black_box(a), black_box(a)))
            });
        }
    }
    group.finish();
}

/// Every `ir × kr × jr` task of `a · a` over `ranges` through
/// `gustavson_view_into`, reusing `ws` and `out`; returns the MACCs.
fn view_sweep(
    a: &CsMatrix,
    ranges: &[Range<u32>],
    ws: &mut SpaWorkspace,
    out: &mut Vec<(u32, u32, f64)>,
) -> u64 {
    out.clear();
    let mut maccs = 0u64;
    for ir in ranges {
        for kr in ranges {
            for jr in ranges {
                let va = a.view(ir.clone(), kr.clone());
                let vb = a.view(kr.clone(), jr.clone());
                maccs += gustavson_view_into(&va, &vb, ws, ir.start, jr.start, out).maccs;
            }
        }
    }
    maccs
}

/// The engine's per-task compute at tile granularity: sweep every
/// `t × t` task of a tiled 1k product. "alloc-per-call" is the historical
/// chain (extract both rectangles, multiply the owned tiles, copy out the
/// rebased entries); "workspace-reuse" is the zero-copy path the engine
/// now runs (borrowed views + one SPA workspace reused across all tasks).
fn bench_compute_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("compute_path");
    group.sample_size(10);
    let n: u32 = 1024;
    for (label, a) in [
        ("banded-1k", diamond_band(n, 20_000, 3)),
        ("powerlaw-1k", unstructured(n, n, 20_000, 2.0, 3)),
    ] {
        for tile in [32u32, 64, 128, 256] {
            let ranges: Vec<Range<u32>> =
                (0..n).step_by(tile as usize).map(|s| s..(s + tile).min(n)).collect();
            group.throughput(Throughput::Elements(a.nnz() as u64));
            let id = format!("{label}/{tile}x{tile}");
            group.bench_with_input(BenchmarkId::new("alloc-per-call", &id), &a, |bch, a| {
                bch.iter(|| {
                    let mut out: Vec<(u32, u32, f64)> = Vec::new();
                    let mut maccs = 0u64;
                    for ir in &ranges {
                        for kr in &ranges {
                            for jr in &ranges {
                                let ta = a.extract_rect(ir.clone(), kr.clone());
                                let tb = a.extract_rect(kr.clone(), jr.clone());
                                let prod = gustavson(&ta, &tb);
                                maccs += prod.maccs;
                                for (r, cc, v) in prod.z.iter() {
                                    out.push((r + ir.start, cc + jr.start, v));
                                }
                            }
                        }
                    }
                    black_box((out, maccs))
                })
            });
            group.bench_with_input(BenchmarkId::new("workspace-reuse", &id), &a, |bch, a| {
                // Workspace and output buffer persist across iterations,
                // mirroring the engine's per-run reuse.
                let mut ws = SpaWorkspace::with_cols(tile as usize);
                let mut out: Vec<(u32, u32, f64)> = Vec::new();
                bch.iter(|| black_box(view_sweep(a, &ranges, &mut ws, &mut out)))
            });
        }
    }
    group.finish();
}

/// `gustavson_view_into` over every `t × t` task of a 2k product. Banded
/// rows carry ~48 non-zeros (rma10's density) and map to a narrow output
/// column window per tile, so they take the dense-window loop; power-law
/// rows carry ~8 (amazon0302's) and scatter across the tile, so most take
/// the touched list. The workspace promises stable parents, as the
/// engine's does, so the fiber-window caches run too.
fn bench_span(c: &mut Criterion) {
    let mut group = c.benchmark_group("span");
    group.sample_size(10);
    let n: u32 = 2048;
    for (label, a) in [
        ("banded-2k", diamond_band(n, 48 * n as usize, 3)),
        ("powerlaw-2k", unstructured(n, n, 8 * n as usize, 2.0, 3)),
    ] {
        for tile in [128u32, 512] {
            let ranges: Vec<Range<u32>> =
                (0..n).step_by(tile as usize).map(|s| s..(s + tile).min(n)).collect();
            group.throughput(Throughput::Elements(a.nnz() as u64));
            let mut ws = SpaWorkspace::with_cols(tile as usize);
            ws.assume_stable_parents();
            let mut out: Vec<(u32, u32, f64)> = Vec::new();
            let id = format!("{label}/{tile}x{tile}");
            group.bench_with_input(BenchmarkId::new("view", &id), &a, |bch, a| {
                bch.iter(|| black_box(view_sweep(a, &ranges, &mut ws, &mut out)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_compute_path, bench_span);
criterion_main!(benches);

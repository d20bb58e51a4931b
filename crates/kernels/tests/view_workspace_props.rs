//! Property tests pinning the zero-copy compute path to the copying
//! reference chain, bit for bit.
//!
//! The engine's per-task compute replaced `extract_rect` × 2 +
//! [`gustavson`] on the materialized tiles with [`gustavson_view_into`]
//! over borrowed [`CsView`]s and a reused [`SpaWorkspace`]. Everything
//! downstream (reports, JSON rows, JSONL traces) is a function of the
//! emitted entries and counts, so these tests require *exact* equality:
//! entry order, `f64` bit patterns, MACC and output-nnz counts — across
//! random tiles of corpus-style operands and across workspace reuse over
//! whole task sequences.

use drt_kernels::spmspm::{gustavson, gustavson_view_into, SpaWorkspace, SPAN_FACTOR};
use drt_tensor::{CsMatrix, MajorAxis};
use drt_workloads::corpus::differential_pairs;
use drt_workloads::patterns::{diamond_band, rmat, uniform_random, unstructured};
use proptest::prelude::*;
use std::ops::Range;

/// Reference: extract both rectangles, multiply the owned tiles, rebase.
fn reference_task(
    a: &CsMatrix,
    b: &CsMatrix,
    ir: &Range<u32>,
    kr: &Range<u32>,
    jr: &Range<u32>,
) -> (Vec<(u32, u32, f64)>, u64, u64) {
    let ta = a.extract_rect(ir.clone(), kr.clone());
    let tb = b.extract_rect(kr.clone(), jr.clone());
    let prod = gustavson(&ta, &tb);
    let entries: Vec<(u32, u32, f64)> =
        prod.z.iter().map(|(r, c, v)| (r + ir.start, c + jr.start, v)).collect();
    let nnz = prod.z.nnz() as u64;
    (entries, prod.maccs, nnz)
}

/// Assert bitwise-equal entry streams (coordinates and value bits).
fn assert_bit_identical(got: &[(u32, u32, f64)], want: &[(u32, u32, f64)], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: entry count");
    for (idx, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!((g.0, g.1), (w.0, w.1), "{ctx}: coords at entry {idx}");
        assert_eq!(g.2.to_bits(), w.2.to_bits(), "{ctx}: value bits at entry {idx}");
    }
}

/// Run one task through the view kernel and compare against the
/// reference chain.
fn check_task(
    a: &CsMatrix,
    b: &CsMatrix,
    ws: &mut SpaWorkspace,
    ir: &Range<u32>,
    kr: &Range<u32>,
    jr: &Range<u32>,
    ctx: &str,
) {
    let va = a.view(ir.clone(), kr.clone());
    let vb = b.view(kr.clone(), jr.clone());
    let mut got = Vec::new();
    let tp = gustavson_view_into(&va, &vb, ws, ir.start, jr.start, &mut got);
    let (want, maccs, nnz) = reference_task(a, b, ir, kr, jr);
    assert_eq!(tp.maccs, maccs, "{ctx}: maccs");
    assert_eq!(tp.out_nnz, nnz, "{ctx}: out_nnz");
    assert_bit_identical(&got, &want, ctx);
}

/// Split `0..extent` into contiguous chunks of width `step` (the last
/// chunk may be shorter) — the shape of an engine task grid along one
/// rank.
fn chunks(extent: u32, step: u32) -> Vec<Range<u32>> {
    let step = step.max(1);
    (0..extent).step_by(step as usize).map(|s| s..(s + step).min(extent)).collect()
}

fn arb_matrix(r: u32, c: u32, max_nnz: usize) -> impl Strategy<Value = CsMatrix> {
    proptest::collection::vec((0..r, 0..c, -4.0..4.0f64), 0..max_nnz)
        .prop_map(move |e| CsMatrix::from_entries(r, c, e, MajorAxis::Row))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random operands, random rectangle (including empty and overhanging
    /// ranges): one-shot tasks are bit-identical to the reference chain.
    #[test]
    fn random_tiles_are_bit_identical(
        a in arb_matrix(40, 32, 160),
        b in arb_matrix(32, 44, 160),
        i0 in 0u32..40, iw in 0u32..48,
        k0 in 0u32..32, kw in 0u32..40,
        j0 in 0u32..44, jw in 0u32..52,
    ) {
        let mut ws = SpaWorkspace::new();
        let (ir, kr, jr) = (i0..(i0 + iw), k0..(k0 + kw), j0..(j0 + jw));
        check_task(&a, &b, &mut ws, &ir, &kr, &jr, "random tile");
    }

    /// A full task sweep over a random grid, reusing one workspace for
    /// every task in sequence (the engine's steady state): the
    /// concatenated entry stream matches the reference chain task by
    /// task, so no state leaks between tasks through the workspace.
    #[test]
    fn workspace_reuse_across_task_sequences(
        a in arb_matrix(36, 30, 200),
        b in arb_matrix(30, 36, 200),
        istep in 1u32..20, kstep in 1u32..16, jstep in 1u32..20,
    ) {
        let mut ws = SpaWorkspace::new();
        // `a`/`b` outlive the sweep, so the engine's cross-task
        // fiber-window caches are sound here — turn them on so the sweep
        // pins their bit-identity too.
        ws.assume_stable_parents();
        for ir in chunks(36, istep) {
            for kr in chunks(30, kstep) {
                for jr in chunks(36, jstep) {
                    check_task(&a, &b, &mut ws, &ir, &kr, &jr,
                        &format!("sweep {ir:?}/{kr:?}/{jr:?}"));
                }
            }
        }
    }
}

/// The verification corpus (banded, power-law, R-MAT, rectangular,
/// degenerate shapes): tile every pair on a fixed grid with one shared
/// workspace and require bit-identity for every task.
#[test]
fn corpus_pairs_are_bit_identical_under_tiling() {
    let mut ws = SpaWorkspace::new();
    for pair in differential_pairs(7, true) {
        let (m, k, n) = (pair.a.nrows(), pair.a.ncols(), pair.b.ncols());
        for ir in chunks(m, m.div_ceil(3)) {
            for kr in chunks(k, k.div_ceil(2)) {
                for jr in chunks(n, n.div_ceil(3)) {
                    check_task(&pair.a, &pair.b, &mut ws, &ir, &kr, &jr, &pair.label);
                }
            }
        }
    }
}

/// Structured generators at tile-benchmark sizes, including a CSC-parent
/// rejection check and degenerate all-empty tiles.
#[test]
fn structured_patterns_and_degenerate_tiles() {
    let mut ws = SpaWorkspace::with_cols(8);
    // Every case matrix stays alive for the whole test, so cached windows
    // may persist across the parent switches below — this exercises the
    // cache's parent-change invalidation.
    ws.assume_stable_parents();
    let cases = [
        diamond_band(64, 380, 3),
        unstructured(64, 64, 400, 2.0, 9),
        rmat(64, 380, 0.57, 0.19, 0.19, 21),
        CsMatrix::zero(64, 64, MajorAxis::Row),
    ];
    for (ci, m) in cases.iter().enumerate() {
        for step in [16u32, 32, 64] {
            for ir in chunks(64, step) {
                for kr in chunks(64, step) {
                    for jr in chunks(64, step) {
                        check_task(m, m, &mut ws, &ir, &kr, &jr, &format!("case {ci} step {step}"));
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "row-major parent")]
fn csc_parents_are_rejected() {
    let m = unstructured(8, 8, 20, 2.0, 1).to_major(MajorAxis::Col);
    let mut ws = SpaWorkspace::new();
    let mut out = Vec::new();
    let va = m.view(0..8, 0..8);
    let vb = m.view(0..8, 0..8);
    let _ = gustavson_view_into(&va, &vb, &mut ws, 0, 0, &mut out);
}

/// Per output row of one task: `(MACCs, output column span)`, measured on
/// the extracted tiles, for rows with at least one MACC.
fn row_shapes(
    a: &CsMatrix,
    b: &CsMatrix,
    ir: &Range<u32>,
    kr: &Range<u32>,
    jr: &Range<u32>,
) -> Vec<(usize, usize)> {
    let ta = a.extract_rect(ir.clone(), kr.clone());
    let tb = b.extract_rect(kr.clone(), jr.clone());
    (0..ta.nrows())
        .filter_map(|i| {
            let fa = ta.fiber(i);
            let mut cols = fa.coords.iter().flat_map(|&k| tb.fiber(k).coords.iter().copied());
            let first = cols.next()?;
            let (mut lo, mut hi, mut maccs) = (first, first, 1usize);
            for c in cols {
                lo = lo.min(c);
                hi = hi.max(c);
                maccs += 1;
            }
            Some((maccs, (hi - lo + 1) as usize))
        })
        .collect()
}

/// Banded and sparse uniform operands tiled at several widths: banded
/// rows take the dense-window loop, sparse rows whose few MACCs spread
/// over a wide tile take the touched list, and some rows sit on the
/// threshold itself (counted against the kernel's own [`SPAN_FACTOR`]).
/// Every task is bit-identical to the reference chain, with one workspace
/// reused across widths.
#[test]
fn diamond_band_tiles_cover_both_row_loops() {
    let m = diamond_band(256, 256 * 10, 5);
    let scattered = uniform_random(256, 256, 256 * 2, 6);
    // Few MACCs spread over a wide tile: the touched-list rows.
    let sparse: Vec<CsMatrix> =
        (7..11).map(|seed| uniform_random(256, 256, 256 * 3, seed)).collect();
    let mut ws = SpaWorkspace::new();
    ws.assume_stable_parents();
    let (mut window_rows, mut touched_rows, mut near) = (0usize, 0usize, 0usize);
    let mut pairs = vec![("band·band", &m, &m), ("band·scattered", &m, &scattered)];
    pairs.extend(sparse.iter().map(|a| ("sparse·scattered", a, &scattered)));
    for (label, a, b) in pairs {
        for width in [4u32, 8, 16, 32, 64, 128, 256] {
            for ir in chunks(256, width.max(16)) {
                for kr in chunks(256, width) {
                    for jr in chunks(256, width) {
                        for (maccs, span) in row_shapes(a, b, &ir, &kr, &jr) {
                            if span <= SPAN_FACTOR * maccs {
                                window_rows += 1;
                            } else {
                                touched_rows += 1;
                            }
                            if span.abs_diff(SPAN_FACTOR * maccs) <= 1 {
                                near += 1;
                            }
                        }
                        check_task(a, b, &mut ws, &ir, &kr, &jr, &format!("{label} width {width}"));
                    }
                }
            }
        }
    }
    assert!(window_rows > 1000, "only {window_rows} dense-window rows");
    assert!(touched_rows > 1000, "only {touched_rows} touched-list rows");
    assert!(near > 100, "only {near} rows on the threshold");
}

/// Exact cancellations, on both row loops: products that cancel to
/// `+0.0`, products that underflow to `-0.0`, and a slot that cancels and
/// is touched again later in the same row. The slots they leave behind
/// are reused by later rows and later tasks, and nothing cancelled is
/// emitted.
#[test]
fn cancelled_slots_are_dropped_and_reused() {
    let tiny = 1e-200;
    let a = CsMatrix::from_entries(
        8,
        8,
        vec![
            // Row 0, dense window: columns 3..=6 cancel exactly.
            (0, 0, 1.0),
            (0, 1, 1.0),
            // Row 1 reuses the cancelled slots.
            (1, 2, 1.0),
            // Row 2: one product underflows to -0.0.
            (2, 3, -tiny),
            // Row 3, touched list: columns 0 and 127 cancel, then column
            // 0 is touched again by k = 6.
            (3, 4, 1.0),
            (3, 5, 1.0),
            (3, 6, 1.0),
            // Row 4 reuses every slot above.
            (4, 2, 0.5),
            (4, 6, 2.0),
            (4, 7, -1.0),
        ],
        MajorAxis::Row,
    );
    let mut b_entries = Vec::new();
    for j in 3..=6u32 {
        b_entries.push((0, j, f64::from(j) * 0.3));
        b_entries.push((1, j, -f64::from(j) * 0.3));
        b_entries.push((2, j, f64::from(j) + 0.25));
    }
    b_entries.extend([(3, 4, tiny), (4, 0, 1.5), (4, 127, 2.5), (5, 0, -1.5), (5, 127, -2.5)]);
    b_entries.extend([(6, 0, 7.0), (6, 40, 1.0), (7, 5, 3.0), (7, 127, 1.0)]);
    let b = CsMatrix::from_entries(8, 128, b_entries, MajorAxis::Row);
    let mut ws = SpaWorkspace::new();
    ws.assume_stable_parents();
    for _ in 0..2 {
        check_task(&a, &b, &mut ws, &(0..8), &(0..8), &(0..128), "whole product");
        for ir in chunks(8, 3) {
            for kr in chunks(8, 4) {
                for jr in chunks(128, 48) {
                    check_task(&a, &b, &mut ws, &ir, &kr, &jr, &format!("{ir:?}/{kr:?}/{jr:?}"));
                }
            }
        }
    }
    let mut out = Vec::new();
    gustavson_view_into(&a.view(0..8, 0..8), &b.view(0..8, 0..128), &mut ws, 0, 0, &mut out);
    assert!(out.iter().all(|&(_, _, v)| v != 0.0), "cancelled slots must not be emitted");
    assert!(!out.iter().any(|&(i, _, _)| i == 0 || i == 2), "rows 0 and 2 cancel entirely");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One workspace carried across a random sequence of tasks whose rows
    /// mix both loops — banded rows on narrow spans, rows with a few
    /// MACCs spread over a wide tile on the touched list, in the same
    /// task and across tasks — stays bit-identical to the reference chain
    /// task after task.
    #[test]
    fn workspace_reuse_across_mixed_row_loops(
        seed in 0u64..1000,
        tasks in proptest::collection::vec((0u32..64, 1u32..64, 0u32..64, 1u32..64, 0u32..64, 1u32..64), 1..24),
    ) {
        // A: rows 0..32 banded, rows 32..64 scattered across the width.
        let band = diamond_band(64, 64 * 6, seed);
        let scatter = unstructured(64, 64, 64 * 4, 2.0, seed + 1);
        let entries: Vec<(u32, u32, f64)> = band
            .iter()
            .filter(|&(r, _, _)| r < 32)
            .chain(scatter.iter().filter(|&(r, _, _)| r >= 32))
            .collect();
        let a = CsMatrix::from_entries(64, 64, entries, MajorAxis::Row);
        // B: rows 0..32 banded, rows 32..64 two non-zeros each spread
        // over 1024 columns, so one A row can land on either loop.
        let wide = uniform_random(64, 1024, 64 * 2, seed + 2);
        let entries: Vec<(u32, u32, f64)> = band
            .iter()
            .filter(|&(r, _, _)| r < 32)
            .chain(wide.iter().filter(|&(r, _, _)| r >= 32))
            .collect();
        let b = CsMatrix::from_entries(64, 1024, entries, MajorAxis::Row);
        let mut ws = SpaWorkspace::new();
        ws.assume_stable_parents();
        for (i0, iw, k0, kw, j0, jw) in tasks {
            let (ir, kr, jr) = (i0..(i0 + iw).min(64), k0..(k0 + kw).min(64), j0..(j0 + jw).min(64));
            check_task(&a, &band, &mut ws, &ir, &kr, &jr, &format!("a·band {ir:?}/{kr:?}/{jr:?}"));
            let jr = jr.start * 16..jr.end * 16;
            check_task(&a, &b, &mut ws, &ir, &kr, &jr, &format!("a·b {ir:?}/{kr:?}/{jr:?}"));
        }
    }
}

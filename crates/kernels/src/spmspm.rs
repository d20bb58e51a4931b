//! Sparse-sparse matrix multiplication (SpMSpM) in the paper's three
//! dataflows (§1, Figure 1):
//!
//! * [`gustavson`] — row-wise: for each row of `A`, scale-and-merge the
//!   rows of `B` it touches (MatRaptor/GAMMA's dataflow).
//! * [`inner_product`] — for each output point, intersect a row of `A`
//!   with a column of `B` (ExTensor's dataflow).
//! * [`outer_product`] — for each `k`, outer-multiply `A`'s column `k`
//!   with `B`'s row `k` and merge partial products (OuterSPACE/SpArch).
//!
//! All three produce identical outputs and identical effectual-MACC counts
//! (a MACC happens exactly once per `(i, k, j)` with `A_ik ≠ 0 ∧ B_kj ≠ 0`);
//! what differs is the data-access pattern, which is what the accelerator
//! models charge for.

use drt_tensor::intersect::sparse_dot;
use drt_tensor::{CsMatrix, CsView, MajorAxis};

/// Result of a reference SpMSpM run.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmspmResult {
    /// The product `Z = A · B`, row-major.
    pub z: CsMatrix,
    /// Effectual multiply-accumulates performed.
    pub maccs: u64,
    /// Partial products generated before merging (equals `maccs`; the
    /// outer-product dataflow materializes them).
    pub partial_products: u64,
}

/// Effectual MACC count of `A · B` without forming the product: for each
/// non-zero `A_ik`, the occupancy of `B`'s row `k`.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub fn effectual_maccs(a: &CsMatrix, b: &CsMatrix) -> u64 {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let b_rows = b.as_major(MajorAxis::Row);
    let mut row_nnz = vec![0u64; b_rows.nrows() as usize];
    for (i, n) in row_nnz.iter_mut().enumerate() {
        *n = b_rows.fiber_len(i as u32) as u64;
    }
    a.iter().map(|(_, k, _)| row_nnz[k as usize]).sum()
}

/// Row-wise (Gustavson's) SpMSpM: `Z = A · B`.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
///
/// # Example
///
/// ```rust
/// use drt_tensor::{CooMatrix, CsMatrix, MajorAxis};
/// use drt_kernels::spmspm::gustavson;
///
/// # fn main() -> Result<(), drt_tensor::TensorError> {
/// let a = CsMatrix::from_coo(&CooMatrix::from_triplets(2, 2, vec![(0, 0, 2.0)])?, MajorAxis::Row);
/// let b = CsMatrix::from_coo(&CooMatrix::from_triplets(2, 2, vec![(0, 1, 3.0)])?, MajorAxis::Row);
/// let r = gustavson(&a, &b);
/// assert_eq!(r.z.get(0, 1), 6.0);
/// assert_eq!(r.maccs, 1);
/// # Ok(())
/// # }
/// ```
pub fn gustavson(a: &CsMatrix, b: &CsMatrix) -> SpmspmResult {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let a_rows = a.as_major(MajorAxis::Row);
    let b_rows = b.as_major(MajorAxis::Row);
    let mut maccs = 0u64;
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    // Dense accumulator per row (SPA), reset sparsely.
    let mut acc = vec![0.0f64; b_rows.ncols() as usize];
    let mut touched: Vec<u32> = Vec::new();
    for i in 0..a_rows.nrows() {
        let fa = a_rows.fiber(i);
        for (&k, &va) in fa.coords.iter().zip(fa.values) {
            let fb = b_rows.fiber(k);
            for (&j, &vb) in fb.coords.iter().zip(fb.values) {
                if acc[j as usize] == 0.0 {
                    touched.push(j);
                }
                acc[j as usize] += va * vb;
                maccs += 1;
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            let v = acc[j as usize];
            if v != 0.0 {
                entries.push((i, j, v));
            }
            acc[j as usize] = 0.0;
        }
        touched.clear();
    }
    let z = CsMatrix::from_entries(a_rows.nrows(), b_rows.ncols(), entries, MajorAxis::Row);
    SpmspmResult { z, maccs, partial_products: maccs }
}

/// Reusable sparse-accumulator (SPA) workspace for tile-local Gustavson
/// products.
///
/// Holds the dense accumulator and the touched-coordinate list that
/// [`gustavson_view_into`] needs per output row. The accumulator is reset
/// *sparsely* (only touched slots, or a row's output column span when
/// that span is within a constant factor of the row's MACCs, are
/// zeroed), so reuse across tasks is `O(MACCs)` per task regardless of
/// tile width, and after warm-up no call allocates:
/// [`SpaWorkspace::ensure_cols`] grows the accumulator monotonically to
/// the widest tile seen and the other vectors retain their capacity
/// between calls.
///
/// One workspace per engine shard/worker thread; workspaces carry no
/// numeric state between calls (the accumulator is all-zeros and the
/// touched list empty on entry and on exit), so reuse cannot change
/// results.
#[derive(Debug, Default)]
pub struct SpaWorkspace {
    /// Dense accumulator, indexed by tile-local output column. Invariant:
    /// all zeros between kernel calls.
    acc: Vec<f64>,
    /// Tile-local output columns with (possibly cancelled-back-to-zero)
    /// contributions this row. Invariant: empty between kernel calls.
    touched: Vec<u32>,
    /// Cached B-fiber windows for the current kernel call, indexed by
    /// tile-local inner coordinate. An entry is valid only when its epoch
    /// matches [`SpaWorkspace::epoch`], so stale windows from earlier
    /// calls are never read — a pure lookup cache holding no numeric
    /// state, letting rows of A that share an inner coordinate reuse one
    /// binary-search pair instead of re-searching B per visit.
    win: Vec<(usize, usize)>,
    win_epoch: Vec<u32>,
    epoch: u32,
    /// The current A row's non-empty B fiber windows, each with its A
    /// value, in the row's `k` order. Invariant: no meaning between rows.
    row: Vec<((usize, usize), f64)>,
    /// Identity of the B view whose windows the cache currently holds:
    /// `(parent_id, rows.start, rows.end, cols.start, cols.end)`. Windows
    /// are a pure function of this key plus the fiber index, so
    /// consecutive kernel calls against the *same* B rectangle — the
    /// engine's innermost output-row sweep revisits one B tile many times
    /// in a row — keep the cache warm across calls instead of re-searching
    /// per task. Any key change starts a fresh epoch.
    b_key: Option<(usize, u32, u32, u32, u32)>,
    /// A-side window cache, persisting across kernel calls for the life
    /// of one A parent. A fixed tile sweep revisits every `(row, inner
    /// range)` pair once per *output-column pass*, so each A window is
    /// searched once and then replayed: `a_slots[s]` names a distinct
    /// inner (minor) coordinate range and `a_win[s][parent_row]` holds
    /// that row's window into the parent arrays (`usize::MAX` marks an
    /// unfilled entry). Windows are pure functions of `(parent, row,
    /// range)`, so replay cannot change results. Total cached entries are
    /// bounded by [`A_WIN_BUDGET`]; ranges admitted after the budget is
    /// spent fall back to direct searches. `a_used` tracks allocated
    /// entries and `a_last` remembers the previous call's slot — tasks
    /// arrive grouped by inner range, so the common lookup is one
    /// comparison.
    a_key: Option<usize>,
    a_slots: Vec<(u32, u32)>,
    a_win: Vec<Vec<(usize, usize)>>,
    a_used: usize,
    a_last: usize,
    /// Whether the caller has promised (via
    /// [`SpaWorkspace::assume_stable_parents`]) that every view passed to
    /// this workspace borrows parents that stay alive — and therefore at
    /// stable addresses — for the workspace's whole lifetime. Cross-call
    /// window caches key on parent addresses, which is only sound under
    /// that promise (a dropped parent's address may be reused by a new
    /// matrix); without it, the caches reset on every call.
    stable_parents: bool,
}

/// Budget on total cached A-window entries across every slot (16 bytes
/// each, so 512 MiB worst case). A sweep needs one slot per distinct
/// inner chunk of A — full-scale runs of the Table 3 suite reach several
/// hundred chunks over parents with tens of thousands of rows — and the
/// budget bounds workspace memory without capping the slot count itself;
/// once spent, further ranges fall back to uncached binary searches.
const A_WIN_BUDGET: usize = 32 << 20;

/// A row of [`gustavson_view_into`] whose output column span is at most
/// `SPAN_FACTOR` times its MACC count takes the branch-free dense-window
/// loop (accumulate without a first-touch test, then sweep the span);
/// wider rows keep the touched list and sort it. A touched list holds at
/// most one entry per MACC, so at 16 it never fills a sixteenth of a
/// wider row's span and is always sorted, never swept. Tuned with the `span` group of the `spmspm_kernels`
/// bench: banded tiles run ~2x faster than the touched list at any
/// factor from 1 to 16, power-law tiles are flat over that range, and a
/// factor of 64 costs power-law tiles 8–35%. Public only so tests can
/// check their coverage of the threshold.
#[doc(hidden)]
pub const SPAN_FACTOR: usize = 16;

impl SpaWorkspace {
    /// A fresh, empty workspace. The accumulator grows on first use.
    pub fn new() -> SpaWorkspace {
        SpaWorkspace::default()
    }

    /// A workspace pre-sized for tiles up to `ncols` output columns wide.
    pub fn with_cols(ncols: usize) -> SpaWorkspace {
        SpaWorkspace { acc: vec![0.0; ncols], ..SpaWorkspace::default() }
    }

    /// Promise that every view passed to this workspace from now on
    /// borrows parent matrices that outlive the workspace (so their
    /// addresses are stable and never reused by other matrices). Enables
    /// the cross-call fiber-window caches, which key cached search
    /// results on parent addresses — the engine makes this promise for
    /// its per-run workspaces, whose operands outlive the run.
    pub fn assume_stable_parents(&mut self) {
        self.stable_parents = true;
    }

    /// Grow the accumulator to cover `ncols` output columns (no-op when
    /// already wide enough; never shrinks).
    pub fn ensure_cols(&mut self, ncols: usize) {
        if self.acc.len() < ncols {
            self.acc.resize(ncols, 0.0);
        }
    }

    /// Current accumulator width in columns.
    pub fn cols(&self) -> usize {
        self.acc.len()
    }

    /// Start a fresh fiber-window cache generation covering `rows` inner
    /// coordinates: grows the cache arrays monotonically (no steady-state
    /// allocation) and bumps the epoch so every prior entry is stale.
    fn begin_fiber_pass(&mut self, rows: usize) {
        if self.win.len() < rows {
            self.win.resize(rows, (0, 0));
            self.win_epoch.resize(rows, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrap: reset every marker so nothing aliases epoch 1.
            self.win_epoch.iter_mut().for_each(|e| *e = 0);
            self.epoch = 1;
        }
    }
}

/// Per-tile product accounting returned by [`gustavson_view_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileProduct {
    /// Effectual multiply-accumulates performed in the tile.
    pub maccs: u64,
    /// Output non-zeros emitted (after exact cancellations are dropped).
    pub out_nnz: u64,
}

/// Row-wise (Gustavson's) SpMSpM over borrowed tile views, accumulating
/// through a caller-owned [`SpaWorkspace`] and appending output triples
/// directly to `out` — the zero-copy, allocation-free counterpart of
/// extracting both rectangles with [`CsMatrix::extract_rect`] and calling
/// [`gustavson`] on the tiles.
///
/// Emitted coordinates are tile-local plus `(row_offset, col_offset)`, so
/// the engine passes its global tile base and gets globally-rebased
/// entries without a second pass. Entries are appended in row-major
/// order with ascending columns per row and exact cancellations skipped —
/// byte-for-byte the order and values the extract-then-multiply chain
/// produces (the tile `CsMatrix` round-trip is a stable no-op on
/// already-sorted, duplicate-free entries).
///
/// Each A row first visits its B fiber windows once to learn its MACC
/// count and its output column span. A row whose span is at most
/// `SPAN_FACTOR` (16) times its MACCs — a banded row — accumulates with no
/// touched list and emits by sweeping that span; any other row records
/// its touched columns and emits them sorted.
///
/// Steady-state heap traffic is zero: the workspace vectors and `out`
/// retain capacity across calls, and the views serve fibers as parent
/// sub-slices.
///
/// # Panics
///
/// Panics when either view's parent is not row-major or the inner
/// dimensions disagree.
pub fn gustavson_view_into(
    a: &CsView<'_>,
    b: &CsView<'_>,
    ws: &mut SpaWorkspace,
    row_offset: u32,
    col_offset: u32,
    out: &mut Vec<(u32, u32, f64)>,
) -> TileProduct {
    assert_eq!(a.major(), MajorAxis::Row, "A view must have a row-major parent");
    assert_eq!(b.major(), MajorAxis::Row, "B view must have a row-major parent");
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    ws.ensure_cols(b.ncols() as usize);
    // Cross-call window reuse needs the stable-parents promise: the cache
    // keys are parent addresses, and address reuse after a parent drop
    // could otherwise alias an unrelated matrix.
    let b_key = (
        b.parent_id(),
        b.row_range().start,
        b.row_range().end,
        b.col_range().start,
        b.col_range().end,
    );
    if !(ws.stable_parents && ws.b_key == Some(b_key)) {
        ws.begin_fiber_pass(b.nrows() as usize);
        ws.b_key = Some(b_key);
    }
    // A-side window cache: one slot per distinct inner (column) range of
    // the A parent. Sweeps revisit each `(row, inner range)` pair once per
    // output-column pass; the cached window replays the search result.
    let a_slot = if ws.stable_parents {
        if ws.a_key != Some(a.parent_id()) {
            ws.a_slots.clear();
            for v in &mut ws.a_win {
                v.clear();
            }
            ws.a_used = 0;
            ws.a_last = 0;
            ws.a_key = Some(a.parent_id());
        }
        let a_range = (a.col_range().start, a.col_range().end);
        // Tasks arrive grouped by A's inner range, so the last slot hits
        // almost always; the linear scan only runs on range changes.
        if ws.a_slots.get(ws.a_last) == Some(&a_range) {
            Some(ws.a_last)
        } else {
            match ws.a_slots.iter().position(|&s| s == a_range) {
                Some(s) => {
                    ws.a_last = s;
                    Some(s)
                }
                None if ws.a_used < A_WIN_BUDGET => {
                    ws.a_slots.push(a_range);
                    if ws.a_win.len() < ws.a_slots.len() {
                        ws.a_win.push(Vec::new());
                    }
                    ws.a_last = ws.a_slots.len() - 1;
                    Some(ws.a_last)
                }
                None => None,
            }
        }
    } else {
        None
    };
    let a_row_base = a.row_range().start as usize;
    debug_assert!(ws.acc.iter().all(|&v| v == 0.0), "workspace accumulator must enter clean");
    debug_assert!(ws.touched.is_empty(), "workspace touched list must enter empty");
    let a_minor_base = a.minor_start();
    let b_minor_base = b.minor_start();
    let mut maccs = 0u64;
    let mut out_nnz = 0u64;
    for i in 0..a.nrows() {
        let fa = match a_slot {
            Some(s) => {
                let pr = a_row_base + i as usize;
                let v = &mut ws.a_win[s];
                if v.len() <= pr {
                    ws.a_used += pr + 1 - v.len();
                    v.resize(pr + 1, (usize::MAX, usize::MAX));
                }
                if v[pr].0 == usize::MAX {
                    v[pr] = a.fiber_window(i);
                }
                a.fiber_at(v[pr])
            }
            None => a.fiber_raw(i),
        };
        // Pre-pass: resolve (and cache) every B fiber window this row
        // visits, keep the non-empty ones for the accumulate loop, and from
        // the sorted fibers' endpoints get the row's MACC count and its
        // output column span `lo..=hi`.
        let (mut row_maccs, mut lo, mut hi) = (0usize, u32::MAX, 0u32);
        ws.row.clear();
        for (&k_raw, &va) in fa.coords.iter().zip(fa.values) {
            let k = (k_raw - a_minor_base) as usize;
            if ws.win_epoch[k] != ws.epoch {
                ws.win[k] = b.fiber_window(k as u32);
                ws.win_epoch[k] = ws.epoch;
            }
            let w = ws.win[k];
            let fb = b.fiber_at(w);
            if let (Some(&first), Some(&last)) = (fb.coords.first(), fb.coords.last()) {
                row_maccs += fb.coords.len();
                lo = lo.min(first);
                hi = hi.max(last);
                ws.row.push((w, va));
            }
        }
        if row_maccs == 0 {
            continue;
        }
        maccs += row_maccs as u64;
        let (lo, hi) = ((lo - b_minor_base) as usize, (hi - b_minor_base) as usize);
        // Emit this row's values in ascending column order. Both loops
        // accumulate every product into its slot in the same (k, j) order,
        // so the values are identical whichever loop runs; an untouched
        // slot is zero by the workspace invariant, so a sweep emits exactly
        // the touched non-zeros. A cancelled slot a sweep leaves at -0.0
        // compares equal to 0.0 everywhere it is read, and x + ±0.0 = x
        // exactly for every nonzero x, so later rows and tasks accumulate
        // and emit the same bits.
        if hi - lo < SPAN_FACTOR * row_maccs {
            // Narrow span: the row fills a dense window, so accumulate
            // with no first-touch test and sweep the window.
            for &(w, va) in &ws.row {
                let fb = b.fiber_at(w);
                for (&j_raw, &vb) in fb.coords.iter().zip(fb.values) {
                    ws.acc[(j_raw - b_minor_base) as usize] += va * vb;
                }
            }
            out_nnz +=
                sweep_span(&mut ws.acc[lo..=hi], i + row_offset, lo as u32 + col_offset, out);
            continue;
        }
        for &(w, va) in &ws.row {
            let fb = b.fiber_at(w);
            for (&j_raw, &vb) in fb.coords.iter().zip(fb.values) {
                let j = j_raw - b_minor_base;
                if ws.acc[j as usize] == 0.0 {
                    ws.touched.push(j);
                }
                ws.acc[j as usize] += va * vb;
            }
        }
        ws.touched.sort_unstable();
        for &j in &ws.touched {
            let v = ws.acc[j as usize];
            if v != 0.0 {
                out.push((i + row_offset, j + col_offset, v));
                out_nnz += 1;
            }
            ws.acc[j as usize] = 0.0;
        }
        ws.touched.clear();
    }
    TileProduct { maccs, out_nnz }
}

/// Emit the non-zeros of one output row's accumulator window `span`
/// (whose first slot is output column `col`) in ascending order, zeroing
/// each; returns how many were emitted. A function of its own although it
/// has one caller: the same loop written out inline ran drt-scale4 ~2%
/// slower (rma10's cells, 10 alternating pairs).
#[inline(always)]
fn sweep_span(span: &mut [f64], row: u32, col: u32, out: &mut Vec<(u32, u32, f64)>) -> u64 {
    let mut n = 0;
    for (j, slot) in span.iter_mut().enumerate() {
        if *slot != 0.0 {
            out.push((row, col + j as u32, *slot));
            n += 1;
            *slot = 0.0;
        }
    }
    n
}

/// Inner-product SpMSpM: intersect row fibers of `A` with column fibers of
/// `B` for every candidate output point.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub fn inner_product(a: &CsMatrix, b: &CsMatrix) -> SpmspmResult {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let a_rows = a.as_major(MajorAxis::Row);
    let b_cols = b.as_major(MajorAxis::Col);
    let mut maccs = 0u64;
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..a_rows.nrows() {
        let fa = a_rows.fiber(i);
        if fa.is_empty() {
            continue;
        }
        for j in 0..b_cols.ncols() {
            let fb = b_cols.fiber(j);
            if fb.is_empty() {
                continue;
            }
            let (v, n) = sparse_dot(fa.coords, fa.values, fb.coords, fb.values);
            maccs += n as u64;
            if n > 0 && v != 0.0 {
                entries.push((i, j, v));
            }
        }
    }
    let z = CsMatrix::from_entries(a_rows.nrows(), b_cols.ncols(), entries, MajorAxis::Row);
    SpmspmResult { z, maccs, partial_products: maccs }
}

/// Outer-product SpMSpM: for each contracted coordinate `k`, multiply
/// `A`'s column `k` by `B`'s row `k` and merge the partial products.
///
/// # Panics
///
/// Panics when inner dimensions disagree.
pub fn outer_product(a: &CsMatrix, b: &CsMatrix) -> SpmspmResult {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    let a_cols = a.as_major(MajorAxis::Col);
    let b_rows = b.as_major(MajorAxis::Row);
    // Merge-on-the-fly: materializing every partial product explodes on
    // power-law inputs (a hub column times a hub row is quadratic), so
    // accumulate into a point-keyed map while *counting* the partials the
    // hardware would have generated.
    let mut acc: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    let mut n = 0u64;
    for k in 0..a_cols.ncols() {
        let fa = a_cols.fiber(k);
        let fb = b_rows.fiber(k);
        for (&i, &va) in fa.coords.iter().zip(fa.values) {
            for (&j, &vb) in fb.coords.iter().zip(fb.values) {
                *acc.entry((i, j)).or_insert(0.0) += va * vb;
                n += 1;
            }
        }
    }
    // Drop exact cancellations to keep outputs comparable across dataflows.
    let entries: Vec<(u32, u32, f64)> =
        acc.into_iter().filter(|&(_, v)| v != 0.0).map(|((i, j), v)| (i, j, v)).collect();
    let z = CsMatrix::from_entries(a_cols.nrows(), b_rows.ncols(), entries, MajorAxis::Row);
    SpmspmResult { z, maccs: n, partial_products: n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_tensor::DenseMatrix;
    use drt_workloads::patterns::{diamond_band, unstructured};

    fn check_against_dense(a: &CsMatrix, b: &CsMatrix) {
        let oracle = DenseMatrix::from_sparse(a).matmul(&DenseMatrix::from_sparse(b));
        for r in [gustavson(a, b), inner_product(a, b), outer_product(a, b)] {
            let got = DenseMatrix::from_sparse(&r.z);
            assert!(got.max_abs_diff(&oracle) < 1e-9, "dataflow output diverges from dense oracle");
        }
    }

    #[test]
    fn all_dataflows_match_dense_oracle() {
        let a = unstructured(24, 20, 80, 2.0, 1);
        let b = unstructured(20, 28, 90, 2.0, 2);
        check_against_dense(&a, &b);
    }

    #[test]
    fn all_dataflows_match_on_banded_square() {
        let a = diamond_band(24, 140, 3);
        check_against_dense(&a, &a);
    }

    #[test]
    fn macc_counts_agree_across_dataflows() {
        let a = unstructured(30, 30, 120, 2.0, 4);
        let b = unstructured(30, 30, 120, 2.0, 5);
        let g = gustavson(&a, &b);
        let i = inner_product(&a, &b);
        let o = outer_product(&a, &b);
        assert_eq!(g.maccs, i.maccs);
        assert_eq!(g.maccs, o.maccs);
        assert_eq!(g.maccs, effectual_maccs(&a, &b));
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a = CsMatrix::zero(8, 8, MajorAxis::Row);
        let r = gustavson(&a, &a);
        assert_eq!(r.z.nnz(), 0);
        assert_eq!(r.maccs, 0);
        assert_eq!(effectual_maccs(&a, &a), 0);
    }

    #[test]
    fn rectangular_shapes() {
        let a = unstructured(10, 40, 60, 2.0, 6);
        let b = unstructured(40, 6, 50, 2.0, 7);
        let r = gustavson(&a, &b);
        assert_eq!(r.z.nrows(), 10);
        assert_eq!(r.z.ncols(), 6);
        check_against_dense(&a, &b);
    }

    #[test]
    fn output_nnz_never_exceeds_partial_products() {
        let a = unstructured(32, 32, 100, 2.0, 8);
        let r = outer_product(&a, &a);
        assert!(r.z.nnz() as u64 <= r.partial_products);
    }

    #[test]
    fn view_kernel_matches_extract_then_gustavson() {
        let a = unstructured(24, 20, 90, 2.0, 11);
        let b = unstructured(20, 28, 100, 2.0, 12);
        let mut ws = SpaWorkspace::new();
        // Tile the product space and check each task against the copying
        // reference chain, bit for bit, reusing one workspace throughout.
        for (ir, kr, jr) in [
            (0..8u32, 0..10u32, 0..14u32),
            (8..24, 10..20, 14..28),
            (0..24, 0..20, 0..28),
            (16..24, 4..12, 20..28),
            (20..32, 16..24, 24..36), // overhang
        ] {
            let va = a.view(ir.clone(), kr.clone());
            let vb = b.view(kr.clone(), jr.clone());
            let mut got: Vec<(u32, u32, f64)> = Vec::new();
            let tp = gustavson_view_into(&va, &vb, &mut ws, ir.start, jr.start, &mut got);

            let ta = a.extract_rect(ir.clone(), kr.clone());
            let tb = b.extract_rect(kr.clone(), jr.clone());
            let reference = gustavson(&ta, &tb);
            let want: Vec<(u32, u32, f64)> =
                reference.z.iter().map(|(r, c, v)| (r + ir.start, c + jr.start, v)).collect();
            assert_eq!(tp.maccs, reference.maccs, "task {ir:?}/{kr:?}/{jr:?}");
            assert_eq!(tp.out_nnz, reference.z.nnz() as u64, "task {ir:?}/{kr:?}/{jr:?}");
            assert_eq!(got.len(), want.len(), "task {ir:?}/{kr:?}/{jr:?}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!((g.0, g.1), (w.0, w.1));
                assert_eq!(g.2.to_bits(), w.2.to_bits(), "value bits must match");
            }
        }
    }

    #[test]
    fn workspace_grows_and_stays_clean() {
        let a = unstructured(16, 16, 60, 2.0, 13);
        let mut ws = SpaWorkspace::with_cols(4);
        let mut out = Vec::new();
        let va = a.view(0..16, 0..16);
        let vb = a.view(0..16, 0..16);
        let tp = gustavson_view_into(&va, &vb, &mut ws, 0, 0, &mut out);
        assert_eq!(ws.cols(), 16, "accumulator grows to the widest tile");
        let full = gustavson(&a, &a);
        assert_eq!(tp.maccs, full.maccs);
        assert_eq!(tp.out_nnz, full.z.nnz() as u64);
        // Second use on a different tile must be unaffected by the first.
        out.clear();
        let va2 = a.view(4..12, 0..16);
        let vb2 = a.view(0..16, 4..12);
        let tp2 = gustavson_view_into(&va2, &vb2, &mut ws, 4, 4, &mut out);
        let t = gustavson(&a.extract_rect(4..12, 0..16), &a.extract_rect(0..16, 4..12));
        assert_eq!(tp2.maccs, t.maccs);
        assert_eq!(tp2.out_nnz, t.z.nnz() as u64);
    }
}

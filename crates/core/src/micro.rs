//! Micro-tile grids: S-U-C pre-tiling with footprint-augmented metadata.
//!
//! DRT coarsens its search to *micro tiles* (paper §3.2.1/§4.1): the tensor
//! is statically pre-tiled into uniform coordinate-space micro tiles, and
//! the `T-[uc]+` metadata is augmented with each micro tile's footprint
//! (Figure 5's "micro tile sizes" array). The tile extractor then counts a
//! candidate macro tile's footprint by scanning only this per-micro-tile
//! metadata — never the micro tiles' own contents.
//!
//! [`MicroGrid`] stores exactly that metadata: the occupied micro tiles in
//! lexicographic grid order, each with its occupancy and footprint (kept
//! as cumulative sums), indexed by the outermost grid dimension for fast
//! slab queries and, in 2-D, also by column.

use crate::CoreError;
use drt_tensor::format::SizeModel;
use drt_tensor::{CsMatrix, CsfTensor, MajorAxis};
use std::ops::Range;

/// How each micro tile's own contents are represented.
///
/// The paper's software study stores micro tiles as plain `T-UC` (CSR),
/// whose uncompressed segment array dominates nearly-empty tiles — the
/// Figure 11 red-circled outliers pay over 8× metadata overhead, and the
/// paper notes "we expect a T-CC representation will resolve this".
/// [`MicroFormat::Adaptive`] is that resolution: each micro tile uses
/// whichever of `T-UC` and `T-CC` is smaller for its occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MicroFormat {
    /// Plain CSR/CSF micro tiles: full segment array per tile.
    Uc,
    /// Doubly compressed micro tiles: coordinates per non-zero only.
    Cc,
    /// Per-tile minimum of the two (the hardware configurations).
    #[default]
    Adaptive,
}

/// Occupancy/footprint/cost summary of a grid region.
///
/// Returned by [`MicroGrid::region_stats`]; accumulates with `+`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Non-zeros inside the region.
    pub nnz: u64,
    /// Sum of micro-tile footprints (bytes of data + intra-micro-tile
    /// metadata) inside the region.
    pub data_bytes: u64,
    /// Number of occupied micro tiles inside the region.
    pub micro_tiles: u64,
    /// Metadata words the Aggregate unit reads to measure the region
    /// (segment + coordinate + footprint words).
    pub meta_words: u64,
}

impl std::ops::Add for RegionStats {
    type Output = RegionStats;

    fn add(self, rhs: RegionStats) -> RegionStats {
        RegionStats {
            nnz: self.nnz + rhs.nnz,
            data_bytes: self.data_bytes + rhs.data_bytes,
            micro_tiles: self.micro_tiles + rhs.micro_tiles,
            meta_words: self.meta_words + rhs.meta_words,
        }
    }
}

impl std::ops::AddAssign for RegionStats {
    fn add_assign(&mut self, rhs: RegionStats) {
        *self = *self + rhs;
    }
}

/// An N-dimensional micro-tile grid over one tensor.
///
/// Grid coordinates are *micro-tile units*: grid point `g` along dimension
/// `d` covers tensor coordinates `g * micro[d] .. (g + 1) * micro[d]`.
///
/// Beyond the raw footprint-augmented metadata (paper Figure 5), the grid
/// carries *cumulative prefix sums* of occupancy and footprint over the
/// lexicographically sorted tile array. Because every outer-dimension slab
/// and every inner-coordinate window is contiguous in that order, any box
/// query resolves to a handful of binary searches plus prefix
/// subtractions — see [`MicroGrid::region_stats`]. 2-D grids also keep the
/// same index in column-major order, so a box can be walked along
/// whichever of its two axes is shorter.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroGrid {
    dims: Vec<u32>,
    micro: Vec<u32>,
    grid_dims: Vec<u32>,
    /// Flattened grid points of occupied micro tiles (`ndim` entries per
    /// tile), sorted lexicographically.
    coords: Vec<u32>,
    /// Index over the outermost grid dimension: tiles whose first grid
    /// coordinate is `g` occupy positions `dim0_seg[g]..dim0_seg[g + 1]`.
    dim0_seg: Vec<usize>,
    /// `pfx_nnz[t]` = total occupancy of tiles `0..t`; length `ntiles + 1`
    /// (tile `t`'s own occupancy is `pfx_nnz[t + 1] - pfx_nnz[t]`).
    pfx_nnz: Vec<u64>,
    /// `pfx_bytes[t]` = total footprint of tiles `0..t`; length `ntiles + 1`.
    pfx_bytes: Vec<u64>,
    /// Column-major index of the occupied tiles (2-D grids only; see
    /// [`ColIndex`] for when it is absent).
    cols: Option<ColIndex>,
    /// Densest single tile's footprint (cached for O(1) preflight checks).
    max_footprint: u32,
    total_nnz: u64,
    size_model: SizeModel,
    format: MicroFormat,
}

/// The occupied tiles of a 2-D grid sorted by (dim 1, dim 0): the
/// host-side twin of the row-major index, so a box with fewer columns
/// than rows is answered one column at a time. It changes no modeled
/// cost (see [`MicroGrid::region_stats`]). Its prefix sums are `u32`, so
/// it costs 12 bytes a tile and exists only for grids whose total
/// occupancy and footprint fit that type; other grids use the row walk.
#[derive(Debug, Clone, PartialEq)]
struct ColIndex {
    /// Tiles whose dim-1 coordinate is `g` occupy positions
    /// `seg[g]..seg[g + 1]`.
    seg: Vec<usize>,
    /// Dim-0 coordinate of each tile, ascending within a column.
    rows: Vec<u32>,
    /// `pfx_nnz[t]` = total occupancy of column-major tiles `0..t`.
    pfx_nnz: Vec<u32>,
    /// `pfx_bytes[t]` = total footprint of column-major tiles `0..t`.
    pfx_bytes: Vec<u32>,
}

impl ColIndex {
    /// Counting-sort the row-major tile array by column. The sort is
    /// stable, so each column's tiles stay in ascending row order. The
    /// caller checks that the totals fit `u32`.
    fn build(grid_cols: u32, coords: &[u32], occupancy: &[u32], footprint: &[u32]) -> ColIndex {
        let ntiles = occupancy.len();
        let mut seg = vec![0usize; grid_cols as usize + 1];
        for t in 0..ntiles {
            seg[coords[2 * t + 1] as usize + 1] += 1;
        }
        for g in 0..grid_cols as usize {
            seg[g + 1] += seg[g];
        }
        let mut next = seg[..grid_cols as usize].to_vec();
        let mut rows = vec![0u32; ntiles];
        let mut pfx_nnz = vec![0u32; ntiles + 1];
        let mut pfx_bytes = vec![0u32; ntiles + 1];
        for t in 0..ntiles {
            let c = coords[2 * t + 1] as usize;
            let p = next[c];
            next[c] += 1;
            rows[p] = coords[2 * t];
            pfx_nnz[p + 1] = occupancy[t];
            pfx_bytes[p + 1] = footprint[t];
        }
        for p in 0..ntiles {
            pfx_nnz[p + 1] += pfx_nnz[p];
            pfx_bytes[p + 1] += pfx_bytes[p];
        }
        ColIndex { seg, rows, pfx_nnz, pfx_bytes }
    }

    /// Column-major tile window of column `c` whose rows fall in
    /// `rows.start..rows.end`.
    fn window(&self, c: u32, rows: &Range<u32>) -> (usize, usize) {
        let (a, b) = (self.seg[c as usize], self.seg[c as usize + 1]);
        let col = &self.rows[a..b];
        (a + col.partition_point(|&r| r < rows.start), a + col.partition_point(|&r| r < rows.end))
    }
}

/// `[0, x0, x0 + x1, ...]`: cumulative sums with a leading zero.
fn prefix_sums(xs: impl ExactSizeIterator<Item = u32>) -> Vec<u64> {
    let mut out = Vec::with_capacity(xs.len() + 1);
    let mut acc = 0u64;
    out.push(acc);
    for x in xs {
        acc += u64::from(x);
        out.push(acc);
    }
    out
}

impl MicroGrid {
    /// Pre-tile a matrix into `micro.0 × micro.1` micro tiles.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when either micro dimension is zero.
    pub fn from_matrix(m: &CsMatrix, micro: (u32, u32)) -> Result<MicroGrid, CoreError> {
        Self::from_matrix_fmt(m, micro, MicroFormat::default())
    }

    /// Pre-tile a matrix with an explicit micro-tile representation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when either micro dimension is zero.
    pub fn from_matrix_fmt(
        m: &CsMatrix,
        micro: (u32, u32),
        format: MicroFormat,
    ) -> Result<MicroGrid, CoreError> {
        if micro.0 == 0 || micro.1 == 0 {
            return Err(CoreError::BadConfig {
                detail: "micro tile dimensions must be positive".into(),
            });
        }
        // 2-D fast path over the generic `from_points` bucketing: a
        // row-major pass visits one band of `micro.0` rows at a time and
        // counts each row's column runs into a dense per-grid-column array,
        // so a band's tiles come out in column order after sorting only
        // its touched grid columns — O(nnz + tiles · log) rather than a
        // sort of every non-zero, with the same tile array.
        let rows = m.as_major(MajorAxis::Row);
        let dims = vec![m.nrows(), m.ncols()];
        let micro = vec![micro.0, micro.1];
        let size_model = SizeModel::default();
        let mut coords = Vec::new();
        let mut occupancy: Vec<u32> = Vec::new();
        let mut footprint: Vec<u32> = Vec::new();
        let mut count = vec![0u32; m.ncols().div_ceil(micro[1]) as usize];
        let mut touched: Vec<u32> = Vec::new();
        for band in 0..m.nrows().div_ceil(micro[0]) {
            let band_rows = band * micro[0]..(band + 1).saturating_mul(micro[0]).min(m.nrows());
            for r in band_rows {
                let cs = rows.fiber(r).coords;
                let mut p = 0;
                while p < cs.len() {
                    let g = cs[p] / micro[1];
                    let end = (g + 1).saturating_mul(micro[1]);
                    let q = p + cs[p..].iter().take_while(|&&c| c < end).count();
                    if count[g as usize] == 0 {
                        touched.push(g);
                    }
                    count[g as usize] += (q - p) as u32;
                    p = q;
                }
            }
            touched.sort_unstable();
            for &g in &touched {
                let occ = std::mem::take(&mut count[g as usize]);
                coords.extend([band, g]);
                occupancy.push(occ);
                footprint.push(Self::micro_footprint(&micro, occ, &size_model, format) as u32);
            }
            touched.clear();
        }
        Ok(Self::assemble(
            dims,
            micro,
            coords,
            occupancy,
            footprint,
            m.nnz() as u64,
            size_model,
            format,
        ))
    }

    /// Pre-tile an N-dimensional CSF tensor with the given micro shape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when `micro` has the wrong rank or a
    /// zero entry.
    pub fn from_csf(t: &CsfTensor, micro: &[u32]) -> Result<MicroGrid, CoreError> {
        Self::from_csf_fmt(t, micro, MicroFormat::default())
    }

    /// Pre-tile an N-dimensional tensor with an explicit micro-tile
    /// representation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when `micro` has the wrong rank or
    /// a zero entry.
    pub fn from_csf_fmt(
        t: &CsfTensor,
        micro: &[u32],
        format: MicroFormat,
    ) -> Result<MicroGrid, CoreError> {
        if micro.len() != t.ndim() {
            return Err(CoreError::BadConfig {
                detail: format!("micro shape has {} dims, tensor has {}", micro.len(), t.ndim()),
            });
        }
        Self::from_points(
            t.shape().to_vec(),
            micro.to_vec(),
            t.iter_points().map(|(p, _)| p),
            t.nnz() as u64,
            format,
        )
    }

    fn from_points<I>(
        dims: Vec<u32>,
        micro: Vec<u32>,
        points: I,
        total_nnz: u64,
        format: MicroFormat,
    ) -> Result<MicroGrid, CoreError>
    where
        I: Iterator<Item = Vec<u32>>,
    {
        if micro.contains(&0) {
            return Err(CoreError::BadConfig {
                detail: "micro tile dimensions must be positive".into(),
            });
        }
        // Bucket points into micro tiles.
        let mut keyed: Vec<Vec<u32>> =
            points.map(|p| p.iter().zip(&micro).map(|(&c, &m)| c / m).collect()).collect();
        keyed.sort_unstable();
        let size_model = SizeModel::default();
        let mut coords = Vec::new();
        let mut occupancy: Vec<u32> = Vec::new();
        let mut footprint: Vec<u32> = Vec::new();
        let mut i = 0usize;
        while i < keyed.len() {
            let mut j = i;
            while j < keyed.len() && keyed[j] == keyed[i] {
                j += 1;
            }
            coords.extend_from_slice(&keyed[i]);
            let occ = (j - i) as u32;
            occupancy.push(occ);
            footprint.push(Self::micro_footprint(&micro, occ, &size_model, format) as u32);
            i = j;
        }
        Ok(Self::assemble(dims, micro, coords, occupancy, footprint, total_nnz, size_model, format))
    }

    /// Build the grid from its sorted, bucketed tile arrays: derive the
    /// dim-0 segment index and the cumulative prefix sums shared by every
    /// construction path, plus the column-major index of a 2-D grid.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dims: Vec<u32>,
        micro: Vec<u32>,
        coords: Vec<u32>,
        occupancy: Vec<u32>,
        footprint: Vec<u32>,
        total_nnz: u64,
        size_model: SizeModel,
        format: MicroFormat,
    ) -> MicroGrid {
        let ndim = dims.len();
        let grid_dims: Vec<u32> =
            dims.iter().zip(&micro).map(|(&d, &m)| d.div_ceil(m).max(1)).collect();
        let ntiles = occupancy.len();
        let mut dim0_seg = vec![0usize; grid_dims[0] as usize + 1];
        for t in 0..ntiles {
            dim0_seg[coords[t * ndim] as usize + 1] += 1;
        }
        for g in 0..grid_dims[0] as usize {
            dim0_seg[g + 1] += dim0_seg[g];
        }
        // Cumulative occupancy/footprint prefix sums over the sorted tile
        // array: slab and window sums become prefix subtractions.
        let pfx_nnz = prefix_sums(occupancy.iter().copied());
        let pfx_bytes = prefix_sums(footprint.iter().copied());
        let fits_u32 = |p: &[u64]| p[ntiles] <= u64::from(u32::MAX);
        let cols = (ndim == 2 && fits_u32(&pfx_nnz) && fits_u32(&pfx_bytes))
            .then(|| ColIndex::build(grid_dims[1], &coords, &occupancy, &footprint));
        let max_footprint = footprint.iter().copied().max().unwrap_or(0);
        MicroGrid {
            dims,
            micro,
            grid_dims,
            coords,
            dim0_seg,
            pfx_nnz,
            pfx_bytes,
            cols,
            max_footprint,
            total_nnz,
            size_model,
            format,
        }
    }

    /// Footprint model of one micro tile holding `occ` non-zeros.
    ///
    /// 2-D micro tiles are stored as plain CSR (`T-UC`): a full segment
    /// array over the micro rows plus coordinate/value pairs — this is the
    /// metadata overhead Figure 11's outliers pay. Higher-order micro tiles
    /// use a CSF-like cost of one coordinate per non-zero per inner level.
    fn micro_footprint(micro: &[u32], occ: u32, sm: &SizeModel, format: MicroFormat) -> usize {
        if occ == 0 {
            return 0;
        }
        let occ = occ as usize;
        let inner = (micro.len() - 1).max(1);
        let uc = (micro[0] as usize + 1) * sm.seg_bytes
            + occ * (inner * sm.coord_bytes + sm.value_bytes);
        // T-CC: one coordinate per dimension per non-zero plus a tiny
        // per-tile header (root segment).
        let cc = 2 * sm.seg_bytes + occ * (micro.len() * sm.coord_bytes + sm.value_bytes);
        match format {
            MicroFormat::Uc => uc,
            MicroFormat::Cc => cc,
            MicroFormat::Adaptive => uc.min(cc),
        }
    }

    /// The micro-tile representation this grid was built with.
    pub fn format(&self) -> MicroFormat {
        self.format
    }

    /// Number of tensor dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Tensor coordinate extents.
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Micro-tile shape (coordinates per micro tile, per dimension).
    pub fn micro_shape(&self) -> &[u32] {
        &self.micro
    }

    /// Grid extents (micro tiles per dimension).
    pub fn grid_dims(&self) -> &[u32] {
        &self.grid_dims
    }

    /// Number of occupied micro tiles.
    pub fn occupied_tiles(&self) -> usize {
        self.pfx_nnz.len() - 1
    }

    /// Total non-zeros in the tensor.
    pub fn total_nnz(&self) -> u64 {
        self.total_nnz
    }

    /// Sum of all micro-tile footprints (the tensor's tiled footprint).
    pub fn total_data_bytes(&self) -> u64 {
        *self.pfx_bytes.last().unwrap_or(&0)
    }

    /// Footprint of the densest occupied micro tile — the minimum buffer
    /// partition that lets any tiling make progress.
    pub fn max_tile_footprint(&self) -> u32 {
        self.max_footprint
    }

    /// Occupancy and footprint of the micro tile at `point` (grid units),
    /// or `None` when that tile is empty.
    pub fn tile_at(&self, point: &[u32]) -> Option<(u32, u32)> {
        let ndim = self.ndim();
        let (a, b) = self.dim0_row(point[0])?;
        let row = &self.coords[a * ndim..b * ndim];
        // Binary search over the remaining coordinates within the row.
        let key = &point[1..];
        let mut lo = 0usize;
        let mut hi = b - a;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let t = &row[mid * ndim + 1..mid * ndim + ndim];
            if t < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < b - a && &row[lo * ndim + 1..lo * ndim + ndim] == key {
            Some(self.tile(a + lo))
        } else {
            None
        }
    }

    /// Occupancy and footprint of the `t`-th occupied tile.
    fn tile(&self, t: usize) -> (u32, u32) {
        let occ = self.pfx_nnz[t + 1] - self.pfx_nnz[t];
        let foot = self.pfx_bytes[t + 1] - self.pfx_bytes[t];
        (occ as u32, foot as u32)
    }

    fn dim0_row(&self, g: u32) -> Option<(usize, usize)> {
        if g >= self.grid_dims[0] {
            return None;
        }
        Some((self.dim0_seg[g as usize], self.dim0_seg[g as usize + 1]))
    }

    /// Measure the region spanned by `ranges` (grid units, one range per
    /// dimension) — the Aggregate unit's primitive.
    ///
    /// `meta_words` models what the extractor reads: two segment words per
    /// outer grid row touched, plus a coordinate word and a footprint word
    /// per occupied micro tile scanned in those rows (tiles outside the
    /// inner ranges still cost coordinate reads while scanning in raster
    /// order, bounded by a binary-search window per row). That *modeled
    /// cost* is unchanged from the original linear scan (see
    /// [`MicroGrid::region_stats_naive`]); only the *host* cost differs.
    /// Per outer row the inner window is located by binary search and its
    /// occupancy/footprint sums are read off cumulative prefix arrays, so
    /// a box query costs `O(outer_rows × log(tiles_per_slab))` instead of
    /// `O(occupied tiles in the slab)`.
    ///
    /// 2-D boxes with fewer columns than rows are walked column by column
    /// instead, over the column-major index: `O(cols × log(tiles_per_col))`.
    /// In 2-D each row's binary-searched window is exactly the tiles the
    /// box counts, so the charge is `2 × clipped rows + 2 × micro_tiles`
    /// on either walk and no modeled number depends on the walk taken.
    ///
    /// Clamping: the query box is intersected with the grid — any part of
    /// a range at or beyond a dimension's grid extent contributes nothing
    /// (but outer rows inside the grid are still charged their two segment
    /// words, exactly as the scan charged them).
    ///
    /// Degenerate ranges (`start >= end` on any rank) return
    /// [`RegionStats::default()`] immediately without touching the index —
    /// an empty box reads nothing.
    ///
    /// # Panics
    ///
    /// Panics when `ranges.len() != self.ndim()`.
    pub fn region_stats(&self, ranges: &[Range<u32>]) -> RegionStats {
        assert_eq!(ranges.len(), self.ndim(), "one grid range per dimension");
        if ranges.iter().any(|r| r.start >= r.end) {
            return RegionStats::default();
        }
        let ndim = self.ndim();
        let mut stats = RegionStats::default();
        let g_end = ranges[0].end.min(self.grid_dims[0]);
        if let Some((ci, cols)) = self.shorter_cols(ranges) {
            let rows = ranges[0].start..g_end;
            for c in cols {
                let (lo, hi) = ci.window(c, &rows);
                stats.nnz += u64::from(ci.pfx_nnz[hi] - ci.pfx_nnz[lo]);
                stats.data_bytes += u64::from(ci.pfx_bytes[hi] - ci.pfx_bytes[lo]);
                stats.micro_tiles += (hi - lo) as u64;
            }
            // The row scan's charge: segment words per clipped row plus a
            // coordinate and a footprint word per counted tile.
            stats.meta_words = 2 * rows.len() as u64 + 2 * stats.micro_tiles;
            debug_assert_eq!(stats, self.region_stats_naive(ranges), "column walk diverges");
            return stats;
        }
        for g in ranges[0].start..g_end {
            let (a, b) = match self.dim0_row(g) {
                Some(r) => r,
                None => continue,
            };
            stats.meta_words += 2; // outer segment reads
            if a == b {
                continue;
            }
            // Narrow by the second dimension via binary search (rows are
            // sorted lexicographically on the remaining coordinates).
            let (lo, hi) = if ndim >= 2 {
                (
                    self.lower_bound(a, b, 1, ranges[1].start),
                    self.lower_bound(a, b, 1, ranges[1].end),
                )
            } else {
                (a, b)
            };
            stats.meta_words += 2 * (hi - lo) as u64; // coordinate + footprint words
            if ndim <= 2 {
                self.add_window(lo, hi, &mut stats);
            } else {
                self.sum_groups(lo, hi, 2, ranges, &mut stats);
            }
        }
        debug_assert_eq!(stats, self.region_stats_naive(ranges), "prefix sums diverge from scan");
        stats
    }

    /// The original linear-scan measurement — kept as the test oracle for
    /// [`MicroGrid::region_stats`] (and as executable documentation of the
    /// modeled `meta_words` cost). Identical output for identical ranges;
    /// host cost is `O(occupied tiles in the outer slab)`.
    pub fn region_stats_naive(&self, ranges: &[Range<u32>]) -> RegionStats {
        assert_eq!(ranges.len(), self.ndim(), "one grid range per dimension");
        if ranges.iter().any(|r| r.start >= r.end) {
            return RegionStats::default();
        }
        let ndim = self.ndim();
        let mut stats = RegionStats::default();
        let g_end = ranges[0].end.min(self.grid_dims[0]);
        for g in ranges[0].start..g_end {
            let (a, b) = match self.dim0_row(g) {
                Some(r) => r,
                None => continue,
            };
            stats.meta_words += 2; // outer segment reads
            if a == b {
                continue;
            }
            let (lo, hi) = if ndim >= 2 {
                let row = &self.coords[a * ndim..b * ndim];
                let n = b - a;
                let lo = partition(n, |t| row[t * ndim + 1] < ranges[1].start);
                let hi = partition(n, |t| row[t * ndim + 1] < ranges[1].end);
                (a + lo, a + hi)
            } else {
                (a, b)
            };
            for t in lo..hi {
                stats.meta_words += 2; // coordinate + footprint words
                let tc = &self.coords[t * ndim..(t + 1) * ndim];
                let inside = (2..ndim).all(|d| tc[d] >= ranges[d].start && tc[d] < ranges[d].end);
                if inside {
                    let (occ, foot) = self.tile(t);
                    stats.nnz += u64::from(occ);
                    stats.data_bytes += u64::from(foot);
                    stats.micro_tiles += 1;
                }
            }
        }
        stats
    }

    /// Whether the region holds no non-zeros — a host-side predicate for
    /// cheap empty-box skipping (e.g. the S-U-C task stream's probe).
    ///
    /// Unlike [`MicroGrid::region_stats`] this models no Aggregate cost
    /// and short-circuits on the first occupied window, so sparse sweeps
    /// that enumerate many empty boxes pay near-nothing per box.
    pub fn region_is_empty(&self, ranges: &[Range<u32>]) -> bool {
        assert_eq!(ranges.len(), self.ndim(), "one grid range per dimension");
        if ranges.iter().any(|r| r.start >= r.end) {
            return true;
        }
        let ndim = self.ndim();
        let g_end = ranges[0].end.min(self.grid_dims[0]);
        for g in ranges[0].start..g_end {
            let (a, b) = match self.dim0_row(g) {
                Some(r) => r,
                None => continue,
            };
            if a == b {
                continue;
            }
            let (lo, hi) = if ndim >= 2 {
                (
                    self.lower_bound(a, b, 1, ranges[1].start),
                    self.lower_bound(a, b, 1, ranges[1].end),
                )
            } else {
                (a, b)
            };
            if lo >= hi {
                continue;
            }
            if ndim <= 2 {
                return false;
            }
            let mut probe = RegionStats::default();
            self.sum_groups(lo, hi, 2, ranges, &mut probe);
            if probe.micro_tiles > 0 {
                return false;
            }
        }
        true
    }

    /// The column-major index and the box's clipped column range, when
    /// the grid is 2-D and the clipped box has fewer columns than rows
    /// (ties take the row walk). Both ranges must be non-degenerate.
    fn shorter_cols(&self, ranges: &[Range<u32>]) -> Option<(&ColIndex, Range<u32>)> {
        let ci = self.cols.as_ref()?;
        let rows = ranges[0].end.min(self.grid_dims[0]).saturating_sub(ranges[0].start);
        let cols = ranges[1].start..ranges[1].end.min(self.grid_dims[1]).max(ranges[1].start);
        (cols.len() < rows as usize).then_some((ci, cols))
    }

    /// First tile index in `[a, b)` whose grid coordinate at dimension `d`
    /// is `>= key` (the tiles in `[a, b)` must agree on dims `0..d`, so
    /// they are sorted by dimension `d`).
    fn lower_bound(&self, a: usize, b: usize, d: usize, key: u32) -> usize {
        let ndim = self.ndim();
        a + partition(b - a, |t| self.coords[(a + t) * ndim + d] < key)
    }

    /// Prefix-subtract the contiguous tile window `[lo, hi)` into `stats`.
    fn add_window(&self, lo: usize, hi: usize, stats: &mut RegionStats) {
        stats.nnz += self.pfx_nnz[hi] - self.pfx_nnz[lo];
        stats.data_bytes += self.pfx_bytes[hi] - self.pfx_bytes[lo];
        stats.micro_tiles += (hi - lo) as u64;
    }

    /// Sum tiles of `[lo, hi)` (which agree on dims `0..d-1` and are
    /// sorted on dims `d-1..`) whose coordinates at dims `d..` fall inside
    /// `ranges[d..]`, by splitting into equal-coordinate groups at `d - 1`
    /// and binary-searching each group's window at `d`.
    fn sum_groups(
        &self,
        lo: usize,
        hi: usize,
        d: usize,
        ranges: &[Range<u32>],
        stats: &mut RegionStats,
    ) {
        let ndim = self.ndim();
        let mut t = lo;
        while t < hi {
            // The group of tiles sharing this tile's coordinate at d - 1.
            let v = self.coords[t * ndim + d - 1];
            let ge = t + partition(hi - t, |x| self.coords[(t + x) * ndim + d - 1] <= v);
            let glo = self.lower_bound(t, ge, d, ranges[d].start);
            let ghi = self.lower_bound(t, ge, d, ranges[d].end);
            if glo < ghi {
                if d + 1 == ndim {
                    self.add_window(glo, ghi, stats);
                } else {
                    self.sum_groups(glo, ghi, d + 1, ranges, stats);
                }
            }
            t = ge;
        }
    }

    /// Bytes of *macro-tile* metadata needed to describe `micro_tiles` micro
    /// tiles spanning `outer_rows` outer grid rows: per micro tile a
    /// coordinate, a footprint word, and a pointer, plus the outer segment
    /// array (Figure 5's macro-tile arrays).
    pub fn macro_meta_bytes(&self, micro_tiles: u64, outer_rows: u64) -> u64 {
        let sm = &self.size_model;
        micro_tiles * (sm.coord_bytes as u64 + sm.coord_bytes as u64 + 8)
            + (outer_rows + 1) * sm.seg_bytes as u64
    }

    /// Convert a coordinate range along dimension `d` into grid units
    /// (inclusive of partially covered micro tiles).
    pub fn grid_range(&self, d: usize, coords: Range<u32>) -> Range<u32> {
        let m = self.micro[d];
        (coords.start / m)..coords.end.div_ceil(m).min(self.grid_dims[d])
    }

    /// Convert a grid range along dimension `d` back into coordinates
    /// (clamped to the tensor extent).
    pub fn coord_range(&self, d: usize, grid: Range<u32>) -> Range<u32> {
        let m = self.micro[d];
        (grid.start * m)..(grid.end.saturating_mul(m)).min(self.dims[d])
    }
}

fn partition(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_tensor::{CooMatrix, CooTensor};
    use proptest::prelude::*;

    /// The sort-based 2-D build that [`MicroGrid::from_matrix_fmt`]
    /// replaced, kept as its oracle: pack each non-zero's grid cell into
    /// one u64 key, sort, and count runs.
    fn from_matrix_sorted(m: &CsMatrix, micro: (u32, u32), format: MicroFormat) -> MicroGrid {
        let mut keys: Vec<u64> = m
            .iter()
            .map(|(r, c, _)| (u64::from(r / micro.0) << 32) | u64::from(c / micro.1))
            .collect();
        keys.sort_unstable();
        let micro = vec![micro.0, micro.1];
        let size_model = SizeModel::default();
        let mut coords = Vec::new();
        let mut occupancy: Vec<u32> = Vec::new();
        let mut footprint: Vec<u32> = Vec::new();
        for run in keys.chunk_by(|a, b| a == b) {
            coords.extend([(run[0] >> 32) as u32, run[0] as u32]);
            let occ = run.len() as u32;
            occupancy.push(occ);
            footprint.push(MicroGrid::micro_footprint(&micro, occ, &size_model, format) as u32);
        }
        let dims = vec![m.nrows(), m.ncols()];
        let nnz = m.nnz() as u64;
        MicroGrid::assemble(dims, micro, coords, occupancy, footprint, nnz, size_model, format)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The banded counting build equals the sort oracle exactly —
        /// tile array, prefix sums, column index — for row- and col-major
        /// inputs, rectangular and empty matrices, and micro shapes that
        /// do not divide the extent.
        #[test]
        fn counting_build_matches_sort_oracle(
            nrows in 0u32..48,
            ncols in 0u32..48,
            cells in proptest::collection::vec((0u32..48, 0u32..48), 0..200),
            micro in (1u32..9, 1u32..9),
            col_major in 0u8..2,
            format in 0u8..3,
        ) {
            let entries: Vec<(u32, u32, f64)> = if nrows == 0 || ncols == 0 {
                Vec::new()
            } else {
                cells.iter().map(|&(r, c)| (r % nrows, c % ncols, 1.0)).collect()
            };
            let major = if col_major == 1 { MajorAxis::Col } else { MajorAxis::Row };
            let m = CsMatrix::from_entries(nrows, ncols, entries, major);
            let format = [MicroFormat::Uc, MicroFormat::Cc, MicroFormat::Adaptive][format as usize];
            let fast = MicroGrid::from_matrix_fmt(&m, micro, format).expect("positive micro");
            prop_assert_eq!(fast, from_matrix_sorted(&m, micro, format));
        }
    }

    fn grid4() -> MicroGrid {
        // Figure 3a's matrix A-like pattern on a 4x4 matrix, 2x2 micro tiles.
        let coo = CooMatrix::from_triplets(
            4,
            4,
            vec![(0, 1, 7.0), (0, 2, 1.0), (2, 0, 6.0), (2, 2, 12.0), (2, 3, 3.0), (3, 1, 10.0)],
        )
        .expect("ok");
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        MicroGrid::from_matrix(&m, (2, 2)).expect("valid micro shape")
    }

    #[test]
    fn grid_dimensions() {
        let g = grid4();
        assert_eq!(g.grid_dims(), &[2, 2]);
        assert_eq!(g.occupied_tiles(), 4);
        assert_eq!(g.total_nnz(), 6);
    }

    #[test]
    fn tile_at_reports_occupancy() {
        let g = grid4();
        assert_eq!(g.tile_at(&[0, 0]).expect("occupied").0, 1); // (0,1)
        assert_eq!(g.tile_at(&[1, 1]).expect("occupied").0, 2); // (2,2),(2,3)
        assert_eq!(g.tile_at(&[1, 0]).expect("occupied").0, 2); // (2,0),(3,1)
        assert!(g.tile_at(&[5, 0]).is_none());
    }

    #[test]
    fn region_stats_counts_nnz_exactly() {
        let g = grid4();
        let all = g.region_stats(&[0..2, 0..2]);
        assert_eq!(all.nnz, 6);
        assert_eq!(all.micro_tiles, 4);
        let left = g.region_stats(&[0..2, 0..1]);
        assert_eq!(left.nnz, 3);
        let bottom_right = g.region_stats(&[1..2, 1..2]);
        assert_eq!(bottom_right.nnz, 2);
        let empty = g.region_stats(&[0..2, 5..9]);
        assert_eq!(empty.nnz, 0);
        assert_eq!(empty.micro_tiles, 0);
    }

    #[test]
    fn region_stats_meta_cost_positive() {
        let g = grid4();
        let s = g.region_stats(&[0..2, 0..2]);
        // 2 rows * 2 seg words + 4 tiles * 2 words.
        assert_eq!(s.meta_words, 2 * 2 + 4 * 2);
    }

    #[test]
    fn footprint_includes_micro_metadata() {
        let g = grid4();
        let (occ, bytes) = g.tile_at(&[0, 0]).expect("occupied");
        assert_eq!(occ, 1);
        // CSR micro tile: (2+1)*4 seg + 1*(4+8) = 24 bytes.
        assert_eq!(bytes, 24);
    }

    #[test]
    fn grid_and_coord_range_roundtrip() {
        let g = grid4();
        assert_eq!(g.grid_range(0, 0..3), 0..2);
        assert_eq!(g.grid_range(1, 2..4), 1..2);
        assert_eq!(g.coord_range(0, 0..1), 0..2);
        assert_eq!(g.coord_range(1, 1..2), 2..4);
    }

    #[test]
    fn csf_grid_counts_boxes() {
        let mut coo = CooTensor::new(vec![8, 8, 8]);
        coo.push(&[0, 0, 0], 1.0).expect("ok");
        coo.push(&[0, 0, 1], 1.0).expect("ok");
        coo.push(&[7, 7, 7], 1.0).expect("ok");
        let t = CsfTensor::from_coo(coo);
        let g = MicroGrid::from_csf(&t, &[2, 2, 2]).expect("valid");
        assert_eq!(g.grid_dims(), &[4, 4, 4]);
        assert_eq!(g.occupied_tiles(), 2);
        assert_eq!(g.region_stats(&[0..1, 0..1, 0..1]).nnz, 2);
        assert_eq!(g.region_stats(&[3..4, 3..4, 3..4]).nnz, 1);
        assert_eq!(g.region_stats(&[0..4, 0..4, 0..4]).nnz, 3);
        assert_eq!(g.tile_at(&[0, 0, 0]).expect("occupied").0, 2);
    }

    #[test]
    fn rejects_zero_micro() {
        let m = CsMatrix::zero(4, 4, MajorAxis::Row);
        assert!(MicroGrid::from_matrix(&m, (0, 2)).is_err());
    }

    #[test]
    fn ragged_edge_tiles_counted() {
        // 5x5 matrix, 2x2 micro tiles → 3x3 grid with ragged edges.
        let coo = CooMatrix::from_triplets(5, 5, vec![(4, 4, 1.0)]).expect("ok");
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let g = MicroGrid::from_matrix(&m, (2, 2)).expect("valid");
        assert_eq!(g.grid_dims(), &[3, 3]);
        assert_eq!(g.region_stats(&[2..3, 2..3]).nnz, 1);
        assert_eq!(g.coord_range(0, 2..3), 4..5);
    }

    #[test]
    fn stats_accumulate_with_add() {
        let g = grid4();
        let a = g.region_stats(&[0..1, 0..2]);
        let b = g.region_stats(&[1..2, 0..2]);
        let sum = a + b;
        assert_eq!(sum.nnz, 6);
        assert_eq!(sum, g.region_stats(&[0..2, 0..2]));
    }
}

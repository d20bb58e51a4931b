//! Tall-skinny and short-long matrix workloads (paper §5.1.2).
//!
//! The `F·Fᵀ` / `Fᵀ·F` kernels (Figure 7) use a tall-skinny sparse matrix
//! `F` derived from each catalog matrix; MS-BFS (Figure 8) multiplies a
//! short-long frontier matrix by a square adjacency matrix. `F` is derived
//! by restricting a square matrix to its first `ncols / aspect` columns,
//! which preserves the source's row distribution.

use drt_tensor::{CsMatrix, MajorAxis};

/// Restrict `m` to its first `m.ncols() / aspect` columns, producing a
/// tall-skinny matrix (aspect ratio of rows to columns = `aspect`).
///
/// # Panics
///
/// Panics when `aspect == 0`.
pub fn tall_skinny(m: &CsMatrix, aspect: u32) -> CsMatrix {
    assert!(aspect > 0, "aspect ratio must be positive");
    let cols = (m.ncols() / aspect).max(1);
    m.extract_rect(0..m.nrows(), 0..cols)
}

/// The Figure 7 workload pair for one catalog matrix: `(F, Fᵀ)` at the given
/// aspect ratio. The paper evaluates both `Fᵀ·F` (short-long times
/// tall-skinny) and `F·Fᵀ` (tall-skinny times short-long).
pub fn figure7_pair(m: &CsMatrix, aspect: u32) -> (CsMatrix, CsMatrix) {
    let f = tall_skinny(m, aspect);
    let ft = f.to_transposed().to_major(MajorAxis::Row);
    (f, ft)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::unstructured;

    #[test]
    fn tall_skinny_shape() {
        let m = unstructured(256, 256, 2000, 2.0, 1);
        let f = tall_skinny(&m, 8);
        assert_eq!(f.nrows(), 256);
        assert_eq!(f.ncols(), 32);
        // Entries agree with the source.
        for (r, c, v) in f.iter() {
            assert_eq!(m.get(r, c), v);
        }
    }

    #[test]
    fn short_long_is_transpose() {
        let m = unstructured(128, 128, 800, 2.0, 2);
        let (f, s) = figure7_pair(&m, 4);
        assert_eq!(s.nrows(), f.ncols());
        assert_eq!(s.ncols(), f.nrows());
        for (r, c, v) in f.iter() {
            assert_eq!(s.get(c, r), v);
        }
    }

    #[test]
    fn pair_shapes_are_compatible_for_ftf() {
        let m = unstructured(100, 100, 600, 2.0, 3);
        let (f, ft) = figure7_pair(&m, 10);
        // Fᵀ·F : (10 × 100) · (100 × 10).
        assert_eq!(ft.ncols(), f.nrows());
        // F·Fᵀ : (100 × 10) · (10 × 100).
        assert_eq!(f.ncols(), ft.nrows());
    }

    #[test]
    fn degenerate_aspect_keeps_one_column() {
        let m = unstructured(64, 64, 100, 2.0, 4);
        let f = tall_skinny(&m, 1000);
        assert_eq!(f.ncols(), 1);
    }
}

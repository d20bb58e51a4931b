//! The Gram kernel: `G_il = χ_ijk · χ_ljk` (paper §5.1.2).
//!
//! A 3-tensor is contracted with itself over its last two modes — a core
//! sub-routine of Tucker decomposition. The reference implementation groups
//! non-zeros by their contracted `(j, k)` point and accumulates the outer
//! product of each group's mode-0 fiber with itself.

use drt_tensor::{CsMatrix, CsfTensor, MajorAxis};
use std::collections::{BTreeMap, HashMap};

/// Result of a reference Gram run.
#[derive(Debug, Clone, PartialEq)]
pub struct GramResult {
    /// The Gram matrix `G` (shape `I × I`), row-major.
    pub g: CsMatrix,
    /// Effectual multiply-accumulates performed.
    pub maccs: u64,
}

/// Reference Gram computation.
///
/// # Panics
///
/// Panics when `x` is not a 3-tensor.
pub fn gram(x: &CsfTensor) -> GramResult {
    assert_eq!(x.ndim(), 3, "gram expects a 3-tensor");
    let i_dim = x.shape()[0];
    // Group non-zeros by contracted point (j, k): each group is the sparse
    // fiber χ[:, j, k]. Ordered groups fix the summation order of every
    // output entry, so repeated runs are bit-identical.
    let mut groups: BTreeMap<(u32, u32), Vec<(u32, f64)>> = BTreeMap::new();
    for (p, v) in x.iter_points() {
        groups.entry((p[1], p[2])).or_default().push((p[0], v));
    }
    let mut maccs = 0u64;
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    for fiber in groups.values() {
        for &(i, vi) in fiber {
            for &(l, vl) in fiber {
                entries.push((i, l, vi * vl));
                maccs += 1;
            }
        }
    }
    let g = CsMatrix::from_entries(i_dim, i_dim, entries, MajorAxis::Row);
    GramResult { g, maccs }
}

/// Effectual MACCs of the Gram kernel without forming the output: the sum
/// of squared group sizes over contracted points.
pub fn gram_maccs(x: &CsfTensor) -> u64 {
    assert_eq!(x.ndim(), 3, "gram expects a 3-tensor");
    let mut sizes: HashMap<(u32, u32), u64> = HashMap::new();
    for (p, _) in x.iter_points() {
        *sizes.entry((p[1], p[2])).or_insert(0) += 1;
    }
    sizes.values().map(|&s| s * s).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_tensor::CooTensor;
    use drt_workloads::tensor3::skewed_tensor;

    #[test]
    fn gram_of_small_tensor_by_hand() {
        // χ has two non-zeros sharing (j,k) = (0,0): at i=0 (value 2) and
        // i=1 (value 3), plus one isolated at (2, 1, 1) value 5.
        let mut coo = CooTensor::new(vec![3, 2, 2]);
        coo.push(&[0, 0, 0], 2.0).expect("ok");
        coo.push(&[1, 0, 0], 3.0).expect("ok");
        coo.push(&[2, 1, 1], 5.0).expect("ok");
        let x = CsfTensor::from_coo(coo);
        let r = gram(&x);
        assert_eq!(r.g.get(0, 0), 4.0);
        assert_eq!(r.g.get(0, 1), 6.0);
        assert_eq!(r.g.get(1, 0), 6.0);
        assert_eq!(r.g.get(1, 1), 9.0);
        assert_eq!(r.g.get(2, 2), 25.0);
        assert_eq!(r.g.get(0, 2), 0.0);
        assert_eq!(r.maccs, 5); // 2² + 1²
        assert_eq!(gram_maccs(&x), 5);
    }

    #[test]
    fn gram_is_symmetric() {
        let x = skewed_tensor(12, 12, 12, 200, 1);
        let r = gram(&x);
        for (i, l, v) in r.g.iter() {
            assert!((r.g.get(l, i) - v).abs() < 1e-9, "G must be symmetric");
        }
    }

    #[test]
    fn gram_diagonal_is_nonnegative() {
        let x = skewed_tensor(10, 10, 10, 150, 2);
        let r = gram(&x);
        for i in 0..10 {
            assert!(r.g.get(i, i) >= 0.0);
        }
    }

    #[test]
    fn maccs_match_between_full_and_counting() {
        let x = skewed_tensor(16, 12, 8, 300, 3);
        assert_eq!(gram(&x).maccs, gram_maccs(&x));
    }

    #[test]
    fn empty_tensor_gives_empty_gram() {
        let x = CsfTensor::from_coo(CooTensor::new(vec![4, 4, 4]));
        let r = gram(&x);
        assert_eq!(r.g.nnz(), 0);
        assert_eq!(r.maccs, 0);
    }
}

//! Coordinate intersection — the core co-iteration primitive of sparse
//! tensor algebra (paper §2.1: effectual computation requires intersecting
//! the non-zero coordinates of co-iterated fibers).
//!
//! [`sparse_dot`] is the scalar kernel of inner-product SpMSpM: a
//! two-finger (merge) walk over two sorted coordinate slices that
//! multiplies and sums the matching values. The accelerator models never
//! walk coordinates to cost an intersection; `drt-sim`'s `IntersectUnit`
//! prices one from its fiber lengths and match count in closed form.

use crate::Coord;

/// Dot product of two sparse fibers (sum over the coordinate intersection),
/// plus the number of effectual multiplies. The scalar kernel of
/// inner-product SpMSpM.
///
/// Accumulates during one two-finger walk, with no intermediate match
/// list, summing the products in increasing coordinate order (`a`'s
/// order).
///
/// # Panics
///
/// Panics when either fiber's coordinate and value slices differ in length.
///
/// # Example
///
/// ```rust
/// use drt_tensor::intersect::sparse_dot;
///
/// let (dot, n) = sparse_dot(&[1, 3, 5, 7], &[1.0, 2.0, 3.0, 4.0], &[2, 3, 7], &[9.0, 10.0, 0.5]);
/// assert_eq!((dot, n), (22.0, 2));
/// ```
pub fn sparse_dot(
    a_coords: &[Coord],
    a_vals: &[f64],
    b_coords: &[Coord],
    b_vals: &[f64],
) -> (f64, usize) {
    assert_eq!(a_coords.len(), a_vals.len(), "fiber a: parallel arrays");
    assert_eq!(b_coords.len(), b_vals.len(), "fiber b: parallel arrays");
    let (mut i, mut j) = (0usize, 0usize);
    let (mut sum, mut matches) = (0.0, 0usize);
    while i < a_coords.len() && j < b_coords.len() {
        match a_coords[i].cmp(&b_coords[j]) {
            std::cmp::Ordering::Equal => {
                sum += a_vals[i] * b_vals[j];
                matches += 1;
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
        }
    }
    (sum, matches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_finger_basic() {
        let (v, n) = sparse_dot(&[0, 2, 4, 6], &[1.0; 4], &[1, 2, 3, 6], &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((v, n), (60.0, 2));
    }

    #[test]
    fn two_finger_disjoint_and_empty() {
        assert_eq!(sparse_dot(&[1, 3], &[1.0, 1.0], &[2, 4], &[1.0, 1.0]), (0.0, 0));
        assert_eq!(sparse_dot(&[], &[], &[1, 2], &[1.0, 1.0]), (0.0, 0));
        assert_eq!(sparse_dot(&[1, 2], &[1.0, 1.0], &[], &[]), (0.0, 0));
    }

    #[test]
    fn identical_fibers_fully_match() {
        let a: Vec<Coord> = (0..50).collect();
        let ones = vec![1.0; 50];
        assert_eq!(sparse_dot(&a, &ones, &a, &ones), (50.0, 50));
    }

    #[test]
    fn sparse_dot_counts_multiplies() {
        let (v, n) = sparse_dot(&[0, 1, 2], &[1.0, 1.0, 1.0], &[1, 2, 3], &[2.0, 3.0, 4.0]);
        assert_eq!(v, 5.0);
        assert_eq!(n, 2);
    }

    #[test]
    fn sparse_dot_matches_materializing_formulation() {
        let a_c: Vec<Coord> = (0..300).step_by(3).collect();
        let a_v: Vec<f64> = a_c.iter().map(|&c| c as f64 * 0.5 - 20.0).collect();
        let b_c: Vec<Coord> = (0..300).step_by(4).collect();
        let b_v: Vec<f64> = b_c.iter().map(|&c| 1.0 / (c as f64 + 1.0)).collect();
        let products: Vec<f64> = a_c
            .iter()
            .zip(&a_v)
            .filter_map(|(c, &x)| b_c.binary_search(c).ok().map(|pb| x * b_v[pb]))
            .collect();
        let reference: f64 = products.iter().sum();
        let (dot, n) = sparse_dot(&a_c, &a_v, &b_c, &b_v);
        assert_eq!(dot.to_bits(), reference.to_bits(), "same accumulation order, same bits");
        assert_eq!(n, products.len());
    }
}

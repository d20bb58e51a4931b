use crate::{CooTensor, Coord, CoordRange, TensorError, Value};

/// Compressed sparse fiber (CSF) tensor of arbitrary order — the `T-C…C`
/// representation traversed by TACO and ExTensor for higher-order kernels.
///
/// Level `l` stores one coordinate array plus a segment array pointing into
/// level `l + 1`; the deepest level's payloads are the data values. A path
/// from the root to a leaf spells out one non-zero's point.
///
/// # Example
///
/// ```rust
/// use drt_tensor::{CooTensor, CsfTensor};
///
/// # fn main() -> Result<(), drt_tensor::TensorError> {
/// let mut coo = CooTensor::new(vec![4, 4, 4]);
/// coo.push(&[0, 1, 2], 1.0)?;
/// coo.push(&[0, 1, 3], 2.0)?;
/// coo.push(&[2, 0, 0], 3.0)?;
/// let csf = CsfTensor::from_coo(coo);
/// assert_eq!(csf.nnz(), 3);
/// assert_eq!(csf.get(&[0, 1, 3]), 2.0);
/// assert_eq!(csf.nnz_in_box(&[0..1, 0..4, 0..4]), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsfTensor {
    shape: Vec<Coord>,
    /// `segs[l]` has one more entry than the number of fibers at level `l`;
    /// fiber `f` of level `l` occupies `coords[l][segs[l][f]..segs[l][f+1]]`.
    segs: Vec<Vec<usize>>,
    coords: Vec<Vec<Coord>>,
    vals: Vec<Value>,
}

impl CsfTensor {
    /// Builds a CSF tensor from a COO builder. The builder is canonicalized
    /// (sorted, duplicates summed) internally.
    pub fn from_coo(mut coo: CooTensor) -> CsfTensor {
        coo.canonicalize();
        let ndim = coo.ndim();
        let shape = coo.shape().to_vec();
        let (segs, coords) = Self::build_levels(coo.points(), ndim);
        CsfTensor { shape, segs, coords, vals: coo.values().to_vec() }
    }

    /// Deterministic level construction from sorted unique points.
    fn build_levels(points: &[Vec<Coord>], ndim: usize) -> (Vec<Vec<usize>>, Vec<Vec<Coord>>) {
        let mut segs: Vec<Vec<usize>> = Vec::with_capacity(ndim);
        let mut coords: Vec<Vec<Coord>> = Vec::with_capacity(ndim);
        // At each level, fibers are maximal runs of points sharing the same
        // prefix of length `l`; the fiber's coordinates are the distinct
        // values of point[l] within the run.
        for l in 0..ndim {
            let mut seg = vec![0usize];
            let mut cs: Vec<Coord> = Vec::new();
            let mut i = 0;
            while i < points.len() {
                // Run of points sharing prefix points[i][..l].
                let mut j = i;
                while j < points.len() && points[j][..l] == points[i][..l] {
                    j += 1;
                }
                let mut k = i;
                while k < j {
                    let c = points[k][l];
                    cs.push(c);
                    while k < j && points[k][l] == c {
                        k += 1;
                    }
                }
                seg.push(cs.len());
                i = j;
            }
            if l == 0 && seg.len() == 1 {
                // Empty tensor: the root fiber still exists, it is just empty.
                seg.push(0);
            }
            segs.push(seg);
            coords.push(cs);
        }
        (segs, coords)
    }

    /// Builds from a point/value list, validating bounds.
    ///
    /// # Errors
    ///
    /// Propagates [`TensorError`] from [`CooTensor::push`].
    pub fn from_points(
        shape: Vec<Coord>,
        points: &[(&[Coord], Value)],
    ) -> Result<CsfTensor, TensorError> {
        let mut coo = CooTensor::new(shape);
        for (p, v) in points {
            coo.push(p, *v)?;
        }
        Ok(CsfTensor::from_coo(coo))
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[Coord] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of coordinates stored at level `l` (metadata volume per level,
    /// used for footprint accounting).
    pub fn level_len(&self, l: usize) -> usize {
        self.coords[l].len()
    }

    /// The data values in leaf order.
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Look up one element (zero when absent).
    ///
    /// # Panics
    ///
    /// Panics when `point.len() != self.ndim()`.
    pub fn get(&self, point: &[Coord]) -> Value {
        assert_eq!(point.len(), self.ndim(), "point rank must match tensor rank");
        let mut fiber = 0usize;
        let mut pos = 0usize;
        for (l, &c) in point.iter().enumerate() {
            let (a, b) = (self.segs[l][fiber], self.segs[l][fiber + 1]);
            match self.coords[l][a..b].binary_search(&c) {
                Ok(off) => {
                    pos = a + off;
                    fiber = pos;
                }
                Err(_) => return 0.0,
            }
        }
        self.vals[pos]
    }

    /// Iterate all `(point, value)` pairs in lexicographic order.
    pub fn iter_points(&self) -> impl Iterator<Item = (Vec<Coord>, Value)> + '_ {
        let mut out = Vec::with_capacity(self.nnz());
        let mut stack: Vec<Coord> = Vec::with_capacity(self.ndim());
        self.walk(0, 0, &mut stack, &mut out);
        out.into_iter()
    }

    fn walk(
        &self,
        level: usize,
        fiber: usize,
        stack: &mut Vec<Coord>,
        out: &mut Vec<(Vec<Coord>, Value)>,
    ) {
        let (a, b) = (self.segs[level][fiber], self.segs[level][fiber + 1]);
        for pos in a..b {
            stack.push(self.coords[level][pos]);
            if level + 1 == self.ndim() {
                out.push((stack.clone(), self.vals[pos]));
            } else {
                self.walk(level + 1, pos, stack, out);
            }
            stack.pop();
        }
    }

    /// Count non-zeros inside the hyper-rectangle given by one coordinate
    /// range per dimension — the N-dimensional analogue of
    /// [`crate::CsMatrix::nnz_in_rect`], used by DRT's Aggregate step when
    /// growing tiles of higher-order tensors (paper §6.1.3).
    ///
    /// # Panics
    ///
    /// Panics when `box_ranges.len() != self.ndim()`.
    pub fn nnz_in_box(&self, box_ranges: &[CoordRange]) -> usize {
        assert_eq!(box_ranges.len(), self.ndim(), "one range per dimension");
        self.count_box(0, 0, box_ranges)
    }

    fn count_box(&self, level: usize, fiber: usize, ranges: &[CoordRange]) -> usize {
        let (a, b) = (self.segs[level][fiber], self.segs[level][fiber + 1]);
        let slice = &self.coords[level][a..b];
        let lo = a + slice.partition_point(|&c| c < ranges[level].start);
        let hi = a + slice.partition_point(|&c| c < ranges[level].end);
        if level + 1 == self.ndim() {
            return hi - lo;
        }
        (lo..hi).map(|pos| self.count_box(level + 1, pos, ranges)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsfTensor {
        let mut coo = CooTensor::new(vec![3, 4, 5]);
        for &(p, v) in &[
            ([0, 0, 1], 1.0),
            ([0, 0, 3], 2.0),
            ([0, 2, 0], 3.0),
            ([1, 3, 4], 4.0),
            ([2, 1, 1], 5.0),
            ([2, 1, 2], 6.0),
        ] {
            coo.push(&p, v).expect("in bounds");
        }
        CsfTensor::from_coo(coo)
    }

    #[test]
    fn levels_have_expected_sizes() {
        let t = sample();
        assert_eq!(t.level_len(0), 3); // i = 0,1,2
        assert_eq!(t.level_len(1), 4); // (0,0),(0,2),(1,3),(2,1)
        assert_eq!(t.level_len(2), 6); // leaves
        assert_eq!(t.nnz(), 6);
    }

    #[test]
    fn get_finds_stored_and_absent() {
        let t = sample();
        assert_eq!(t.get(&[0, 0, 3]), 2.0);
        assert_eq!(t.get(&[2, 1, 2]), 6.0);
        assert_eq!(t.get(&[2, 1, 3]), 0.0);
        assert_eq!(t.get(&[1, 0, 0]), 0.0);
    }

    #[test]
    fn iter_points_lexicographic() {
        let t = sample();
        let pts: Vec<_> = t.iter_points().map(|(p, _)| p).collect();
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
        assert_eq!(pts.len(), 6);
    }

    #[test]
    fn nnz_in_box_counts_subvolumes() {
        let t = sample();
        assert_eq!(t.nnz_in_box(&[0..3, 0..4, 0..5]), 6);
        assert_eq!(t.nnz_in_box(&[0..1, 0..4, 0..5]), 3);
        assert_eq!(t.nnz_in_box(&[0..1, 0..1, 0..5]), 2);
        assert_eq!(t.nnz_in_box(&[0..1, 0..1, 2..5]), 1);
        assert_eq!(t.nnz_in_box(&[2..3, 1..2, 1..3]), 2);
        assert_eq!(t.nnz_in_box(&[1..2, 0..3, 0..5]), 0);
    }

    #[test]
    fn duplicate_points_sum_through_from_coo() {
        let mut coo = CooTensor::new(vec![2, 2]);
        coo.push(&[1, 1], 1.0).expect("ok");
        coo.push(&[1, 1], 4.0).expect("ok");
        let t = CsfTensor::from_coo(coo);
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.get(&[1, 1]), 5.0);
    }

    #[test]
    fn matrix_as_2d_csf_matches_csr_fibers() {
        // CSF of a matrix is CSR with a compressed row dimension.
        let mut coo = CooTensor::new(vec![4, 4]);
        for &(p, v) in &[
            ([0, 1], 7.0),
            ([0, 2], 1.0),
            ([2, 0], 6.0),
            ([2, 2], 12.0),
            ([2, 3], 3.0),
            ([3, 1], 10.0),
        ] {
            coo.push(&p, v).expect("ok");
        }
        let t = CsfTensor::from_coo(coo);
        assert_eq!(t.level_len(0), 3); // rows 0, 2, 3 are occupied
        assert_eq!(t.level_len(1), 6);
        assert_eq!(t.nnz_in_box(&[0..2, 0..2]), 1);
        assert_eq!(t.nnz_in_box(&[2..4, 0..2]), 2);
    }
}

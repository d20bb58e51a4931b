use crate::{Coord, TensorError, Value};

/// Coordinate-list (triplet) matrix builder.
///
/// The canonical entry point for constructing sparse matrices: push
/// `(row, col, value)` triplets in any order, then convert to a compressed
/// representation with [`crate::CsMatrix::from_coo`]. Duplicate points are
/// legal at push time; conversion sums them (the usual COO semantics).
///
/// # Example
///
/// ```rust
/// use drt_tensor::CooMatrix;
///
/// # fn main() -> Result<(), drt_tensor::TensorError> {
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 0, 1.0)?;
/// coo.push(0, 0, 2.0)?; // duplicates accumulate on conversion
/// assert_eq!(coo.nnz(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    nrows: Coord,
    ncols: Coord,
    entries: Vec<(Coord, Coord, Value)>,
}

impl CooMatrix {
    /// Creates an empty builder for an `nrows × ncols` matrix.
    pub fn new(nrows: Coord, ncols: Coord) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::new() }
    }

    /// Creates a builder with capacity pre-reserved for `cap` triplets.
    pub fn with_capacity(nrows: Coord, ncols: Coord, cap: usize) -> Self {
        CooMatrix { nrows, ncols, entries: Vec::with_capacity(cap) }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Coord {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Coord {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a triplet.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] when `(row, col)` lies outside
    /// the matrix shape.
    pub fn push(&mut self, row: Coord, col: Coord, value: Value) -> Result<(), TensorError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(TensorError::OutOfBounds {
                point: vec![row, col],
                shape: vec![self.nrows, self.ncols],
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Borrow the raw triplets in push order.
    pub fn entries(&self) -> &[(Coord, Coord, Value)] {
        &self.entries
    }

    /// Builds a COO matrix from an iterator of triplets, validating bounds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] on the first out-of-shape triplet.
    pub fn from_triplets<I>(nrows: Coord, ncols: Coord, triplets: I) -> Result<Self, TensorError>
    where
        I: IntoIterator<Item = (Coord, Coord, Value)>,
    {
        let mut coo = CooMatrix::new(nrows, ncols);
        for (r, c, v) in triplets {
            coo.push(r, c, v)?;
        }
        Ok(coo)
    }

    /// Returns the transpose as a new COO matrix (swaps rows and columns).
    pub fn to_transposed(&self) -> CooMatrix {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }
}

impl Extend<(Coord, Coord, Value)> for CooMatrix {
    /// Extends with triplets, **panicking** on out-of-bounds points.
    ///
    /// Use [`CooMatrix::push`] when the input is untrusted.
    fn extend<I: IntoIterator<Item = (Coord, Coord, Value)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("triplet within matrix shape");
        }
    }
}

/// Coordinate-list builder for tensors of arbitrary order.
///
/// Used by the higher-order (Gram) workloads; the matrix-specialized
/// [`CooMatrix`] is preferred for 2-D data.
///
/// # Example
///
/// ```rust
/// use drt_tensor::CooTensor;
///
/// # fn main() -> Result<(), drt_tensor::TensorError> {
/// let mut coo = CooTensor::new(vec![4, 5, 6]);
/// coo.push(&[0, 1, 2], 3.0)?;
/// coo.push(&[3, 4, 5], -1.0)?;
/// assert_eq!(coo.nnz(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooTensor {
    shape: Vec<Coord>,
    points: Vec<Vec<Coord>>,
    vals: Vec<Value>,
}

impl CooTensor {
    /// Creates an empty builder for a tensor of the given shape.
    ///
    /// # Panics
    ///
    /// Panics when `shape` is empty (0-tensors hold a single scalar and do
    /// not need a sparse builder).
    pub fn new(shape: Vec<Coord>) -> Self {
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        CooTensor { shape, points: Vec::new(), vals: Vec::new() }
    }

    /// The tensor's shape (one size per dimension).
    pub fn shape(&self) -> &[Coord] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored points (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Returns `true` when no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends a point.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] when `point` has the wrong
    /// number of coordinates and [`TensorError::OutOfBounds`] when it lies
    /// outside the shape.
    pub fn push(&mut self, point: &[Coord], value: Value) -> Result<(), TensorError> {
        if point.len() != self.shape.len() {
            return Err(TensorError::RankMismatch { got: point.len(), expected: self.shape.len() });
        }
        if point.iter().zip(&self.shape).any(|(&p, &s)| p >= s) {
            return Err(TensorError::OutOfBounds {
                point: point.to_vec(),
                shape: self.shape.clone(),
            });
        }
        self.points.push(point.to_vec());
        self.vals.push(value);
        Ok(())
    }

    /// Borrow the stored points (parallel to [`CooTensor::values`]).
    pub fn points(&self) -> &[Vec<Coord>] {
        &self.points
    }

    /// Borrow the stored values (parallel to [`CooTensor::points`]).
    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Sorts points lexicographically and sums duplicates in place.
    ///
    /// After calling this, points are unique and ordered, which is the
    /// precondition for [`crate::CsfTensor::from_coo`].
    pub fn canonicalize(&mut self) {
        let mut idx: Vec<usize> = (0..self.points.len()).collect();
        idx.sort_by(|&a, &b| self.points[a].cmp(&self.points[b]));
        let mut points = Vec::with_capacity(self.points.len());
        let mut vals = Vec::with_capacity(self.vals.len());
        for i in idx {
            if points.last() == Some(&self.points[i]) {
                *vals.last_mut().expect("parallel arrays") += self.vals[i];
            } else {
                points.push(self.points[i].clone());
                vals.push(self.vals[i]);
            }
        }
        self.points = points;
        self.vals = vals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn from_triplets_roundtrip() {
        let coo =
            CooMatrix::from_triplets(3, 4, vec![(0, 0, 1.0), (2, 3, 2.0)]).expect("in bounds");
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.nrows(), 3);
        assert_eq!(coo.ncols(), 4);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let coo = CooMatrix::from_triplets(2, 3, vec![(0, 2, 5.0)]).expect("in bounds");
        let t = coo.to_transposed();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.entries()[0], (2, 0, 5.0));
    }

    #[test]
    fn tensor_rank_mismatch() {
        let mut coo = CooTensor::new(vec![2, 2]);
        assert_eq!(coo.push(&[1], 1.0), Err(TensorError::RankMismatch { got: 1, expected: 2 }));
    }

    #[test]
    fn tensor_canonicalize_sums_duplicates() {
        let mut coo = CooTensor::new(vec![4, 4, 4]);
        coo.push(&[1, 2, 3], 1.0).expect("in bounds");
        coo.push(&[0, 0, 0], 5.0).expect("in bounds");
        coo.push(&[1, 2, 3], 2.0).expect("in bounds");
        coo.canonicalize();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.points()[0], vec![0, 0, 0]);
        assert_eq!(coo.values(), &[5.0, 3.0]);
    }

    #[test]
    fn extend_accepts_valid_triplets() {
        let mut coo = CooMatrix::new(4, 4);
        coo.extend(vec![(0, 0, 1.0), (3, 3, 2.0)]);
        assert_eq!(coo.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "triplet within matrix shape")]
    fn extend_panics_out_of_bounds() {
        let mut coo = CooMatrix::new(2, 2);
        coo.extend(vec![(5, 5, 1.0)]);
    }
}

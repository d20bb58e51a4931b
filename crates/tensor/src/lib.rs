//! # drt-tensor — sparse tensor substrate
//!
//! Foundation crate for the Dynamic Reflexive Tiling (DRT) reproduction. It
//! provides every data-representation primitive the paper builds on
//! (Section 2 of the paper):
//!
//! * [`CooMatrix`] / [`CooTensor`] — triplet builders for matrices and
//!   arbitrary-order tensors.
//! * [`CsMatrix`] — compressed-sparse matrices in either row-major (CSR,
//!   `T-UC` with row major) or column-major (CSC) layout, the `T-[uc]+`
//!   family's two-dimensional workhorse.
//! * [`CsfTensor`] — compressed sparse fiber for N-dimensional tensors
//!   (the representation TACO and ExTensor traverse).
//! * [`dcsr`] — doubly compressed (`T-CC`) matrices whose empty rows cost
//!   nothing, the fix the paper prescribes for hypersparse metadata
//!   overhead (§6.3).
//! * [`fibertree`] — the format-agnostic fibertree view used throughout the
//!   paper's exposition (Figure 2c): a tensor is a tree of coordinate/payload
//!   lists, and each list is a *fiber*.
//! * [`mod@format`] — `T-[uc]+` format descriptors and footprint accounting
//!   (bytes of metadata + data), used for all DRAM-traffic bookkeeping.
//! * [`CsView`] — borrowed, origin-rebased rectangle views over a
//!   [`CsMatrix`] (the zero-copy counterpart of
//!   [`CsMatrix::extract_rect`]), which the engine's per-task compute
//!   path co-iterates without materializing tiles.
//! * [`intersect`] — coordinate-intersection algorithms (two-finger and
//!   galloping/skip-based) with exact work counters, which the accelerator
//!   models turn into intersection-unit cycle counts. Count-only variants
//!   ([`intersect::two_finger_counts`], [`intersect::gallop_counts`],
//!   [`intersect::match_count`]) serve paths that never consume the match
//!   list.
//! * [`ops`] — elementwise/structural operations (union add, Hadamard,
//!   pattern masks, triangular filters) that sparse pipelines compose
//!   around contractions.
//! * [`stats`] — sparsity statistics (density, row-variation coefficient)
//!   used to order workloads in the paper's figures.
//!
//! ## Example
//!
//! ```rust
//! use drt_tensor::{CooMatrix, CsMatrix, MajorAxis};
//!
//! # fn main() -> Result<(), drt_tensor::TensorError> {
//! let mut coo = CooMatrix::new(4, 4);
//! coo.push(0, 1, 7.0)?;
//! coo.push(2, 3, 1.5)?;
//! coo.push(3, 0, -2.0)?;
//! let csr = CsMatrix::from_coo(&coo, MajorAxis::Row);
//! assert_eq!(csr.nnz(), 3);
//! // Count non-zeros inside a coordinate-space rectangle — the primitive
//! // DRT's Aggregate step performs while growing tiles.
//! assert_eq!(csr.nnz_in_rect(0..3, 0..4), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coo;
mod csf;
mod csmat;
mod delta;
mod dense;
mod error;
mod view;

pub mod dcsr;
pub mod fibertree;
pub mod format;
pub mod intersect;
pub mod mtx;
pub mod ops;
pub mod stats;

pub use coo::{CooMatrix, CooTensor};
pub use csf::CsfTensor;
pub use csmat::{CsMatrix, FiberView, MajorAxis, NnzIter};
pub use delta::{DeltaBatch, DeltaOp};
pub use dense::DenseMatrix;
pub use error::TensorError;
pub use view::CsView;

/// A coordinate along one tensor dimension.
///
/// Coordinates identify *logical* locations; they are distinct from
/// *positions*, which identify physical storage offsets (paper Table 1).
/// `u32` comfortably covers the largest evaluated matrix (526k × 526k).
pub type Coord = u32;

/// A stored scalar value.
pub type Value = f64;

/// Half-open coordinate interval `[start, end)` along one dimension.
pub type CoordRange = std::ops::Range<Coord>;

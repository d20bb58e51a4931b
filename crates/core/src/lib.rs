//! # drt-core — Dynamic Reflexive Tiling
//!
//! The paper's primary contribution: an online, sparsity-aware tiling
//! algorithm that builds **D**ynamic **N**onuniform **C**oordinate-space
//! tiles (D-N-C) from statically built, uniform micro tiles, plus the
//! *tile extractor* hardware cost model that implements it.
//!
//! ## Concepts (paper Section 3)
//!
//! * [`micro::MicroGrid`] — an S-U-C pre-tiling of a tensor into uniform
//!   *micro tiles*, with footprint-augmented `T-[uc]+` metadata (Figure 5):
//!   the extractor can count a region's occupancy without introspecting any
//!   micro tile.
//! * [`kernel::Kernel`] — an Einsum over bound tensors (e.g.
//!   `Z_ij = A_ik · B_kj`), with rank extents and contracted/uncontracted
//!   classification.
//! * [`drt::plan_tile`] — one invocation of Algorithms 1 & 2: grow each
//!   tensor's tile dimension-by-dimension, most-stationary tensor first,
//!   maximizing buffer-partition occupancy subject to *co-tiling*
//!   constraints (shared ranks must span identical coordinate ranges).
//! * [`suc`] — the prior-art Static-Uniform-Coordinate baseline
//!   (ExTensor-style), including the worst-case-dense capacity rule that
//!   DRT's buffer decoupling removes.
//! * [`taskgen::TaskStream`] — drives repeated DRT (or S-U-C) calls across
//!   the full iteration space of a dataflow (loop order), handling tile
//!   pinning for stationary tensors, fallback subdivision, and empty-task
//!   skipping.
//! * [`extractor`] — Aggregate / Metadata-build / Distribute latency model
//!   with the two-level pipelining of §4.2.3.
//! * [`hier`] — hierarchical application: compose task streams so the
//!   DRAM-level extractor feeds the LLB and the LLB-level extractor feeds
//!   the PEs (§3.2.1, Figure 4).
//!
//! ## Example: tiling SpMSpM
//!
//! ```rust
//! use drt_core::kernel::Kernel;
//! use drt_core::config::{DrtConfig, Partitions};
//! use drt_core::taskgen::{TaskGenOptions, TaskStream};
//! use drt_workloads::patterns::unstructured;
//!
//! # fn main() -> Result<(), drt_core::CoreError> {
//! let a = unstructured(128, 128, 1000, 2.0, 1);
//! let b = unstructured(128, 128, 1000, 2.0, 2);
//! // Z_ij = A_ik B_kj, micro tiles 8x8, B-stationary dataflow J->K->I.
//! let kernel = Kernel::spmspm(&a, &b, (8, 8))?;
//! let config =
//!     DrtConfig::new(Partitions::split(16 * 1024, &[("A", 0.25), ("B", 0.5), ("Z", 0.25)]));
//! let tasks: Vec<_> =
//!     TaskStream::build(&kernel, TaskGenOptions::drt(&['j', 'k', 'i'], config))?.collect();
//! assert!(!tasks.is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod budget;
pub mod cancel;
pub mod chaos;
pub mod config;
pub mod drt;
/// Error types for tiling configuration and planning.
pub mod error;
pub mod extractor;
pub mod hier;
pub mod kernel;
pub mod micro;
pub mod occupancy;
pub mod par;
pub mod probe;
pub mod suc;
pub mod taskgen;

pub use error::CoreError;

/// A rank (dimension name) of an Einsum, e.g. `'i'`, `'j'`, `'k'`.
pub type RankId = char;

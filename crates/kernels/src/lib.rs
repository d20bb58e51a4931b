//! # drt-kernels — reference sparse kernels
//!
//! Bit-exact functional implementations of every kernel the paper
//! evaluates, used the way the paper uses Intel MKL: to validate that each
//! simulated accelerator produces the correct output sparsity and values
//! (§5.2.1 "we validate the output sparsity produced by the simulation
//! against the results from Intel MKL").
//!
//! * [`spmspm`] — sparse-sparse matrix multiply in all three dataflows the
//!   paper's accelerators use (row-wise Gustavson, inner-product,
//!   outer-product), with effectual-MACC accounting.
//! * [`gram`] — the higher-order Gram kernel `G_il = χ_ijk · χ_ljk`
//!   (§5.1.2).
//! * [`bfs`] — multi-source BFS frontier expansion via Boolean SpMSpM.
//! * [`spmm`] — the mixed sparse/dense kernels from ExTensor's menu
//!   (SpMM and SDDMM, paper Table 2).
//! * [`ttv`] — tensor-times-vector (from Table 2's TTM/V).
//! * [`mttkrp`] — matricized tensor times Khatri-Rao product (the §7
//!   tensor-decomposition target).
//! * [`sddmm`] — the fused SDDMM→SpMM "GNN attention" chain, with the
//!   intermediate kept row-resident.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfs;
pub mod gram;
pub mod mttkrp;
pub mod sddmm;
pub mod spmm;
pub mod spmspm;
pub mod ttv;

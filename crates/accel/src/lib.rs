//! # drt-accel — accelerator and baseline models
//!
//! Every machine the paper evaluates (§5.2), modelled at the paper's own
//! fidelity (bandwidth/queuing, §5.2.1) on top of `drt-sim`:
//!
//! Every SpMSpM machine is a registered [`spec::AccelSpec`] — data, not a
//! function family — and runs through one door,
//! [`session::Session::run_ref`]. The per-machine modules hold the
//! models behind those specs:
//!
//! * [`extensor`] — ExTensor (S-U-C tiling, skip-based intersection), the
//!   improved ExTensor-OP, and ExTensor-OP-DRT (a.k.a. TACTile), all
//!   cycle-accounted and functionally validated.
//! * [`outerspace`] — OuterSPACE (outer-product dataflow): the untiled
//!   original's closed-form model; its S-U-C- and DRT-tiled variants are
//!   engine specs (Study 2, DRAM-bound).
//! * [`matraptor`] — MatRaptor (row-wise Gustavson): the untiled model;
//!   S-U-C and DRT variants are engine specs.
//! * [`gamma`] — extension: a GAMMA-like row-granular design with a
//!   FiberCache (the §7 related work the paper calls nascent D-N-C).
//! * [`hier2`] — two-level (DRAM → LLB → PE) traffic analysis composing
//!   hierarchical DRT streams with the NoC model (§4.3).
//! * [`sparch`] — extension: a SpArch-like outer-product design with a
//!   multi-way merge tree (Table 2's S-N-P entry).
//! * [`cpu`] — the Intel-MKL-like CPU roofline baseline (30 MB LLC,
//!   68.25 GB/s) every speedup figure normalizes to.
//! * [`sw`] — Study 3's software S-U-C/DRT memory-traffic oracle (the
//!   `sw-suc` / `sw-dnc` specs).
//! * [`spec`] — declarative accelerator specs ([`spec::AccelSpec`]), the
//!   §5.2.4 partition presets, and the name → variant [`spec::Registry`]
//!   every bench driver selects machines through.
//! * [`engine`] — the shared SpMSpM simulation engine: task streams from
//!   `drt-core`, stationarity-aware input reuse, an LRU output-tile cache
//!   for partial-sum spilling, intersection/PE cycle models, and functional
//!   output collection for validation. Supports sharded parallel execution
//!   with a deterministic reduction — reports and traces are bit-identical
//!   across thread counts.
//! * [`incremental`] — incremental re-execution across operand deltas:
//!   content-addressed per-task result splicing, bit-identical to
//!   from-scratch runs.
//! * [`session`] — the unified run API ([`session::Session`]): the one
//!   execution door fronting the engine, every registered variant, and
//!   every staged pipeline.
//! * [`pipeline`] — staged pipelines over one co-tiling
//!   ([`pipeline::PipelineSpec`]): MTTKRP, TTV and Gram over CSF, fused
//!   SDDMM→SpMM, and A·B·C chains, all run by one stage loop with
//!   tile-resident inter-stage intermediates and per-stage phase
//!   breakdowns. Gram on a static-tiling spec or `cpu-mkl` uses the
//!   closed-form S-U-C sweep or the TACO-like CPU model (Figure 9).
//! * [`workload`] — the unified typed request API: one
//!   [`workload::Workload`] enum covering every session entry point,
//!   wrapped in [`workload::Request`] / [`workload::Response`] pairs that
//!   standalone sessions and the `drt-serve` pool execute identically.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod engine;
pub mod error;
pub mod extensor;
pub mod gamma;
mod gram;
pub mod hier2;
pub mod incremental;
pub mod matraptor;
pub mod outerspace;
pub mod pipeline;
pub mod report;
pub mod session;
pub mod sparch;
pub mod spec;
pub mod sw;
mod taco;
pub mod workload;
pub mod zcache;

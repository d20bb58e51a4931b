//! # drt-verify — differential verification harness
//!
//! The paper's central claim is that DRT changes *data orchestration*,
//! never the computation: every accelerator variant must produce the same
//! numbers. This crate checks that end-to-end, the way the sparse-compiler
//! literature validates format-agnostic lowering:
//!
//! * [`oracle`] — dense/naive reference implementations of SpMSpM, SpMM,
//!   Gram, MTTKRP, TTV, fused SDDMM→SpMM, and the A·B·C chain, plus
//!   ULP-tolerance comparison. The oracles share no code or iteration
//!   order with the simulated machines.
//! * [`invariants`] — model-invariant checks over every
//!   [`drt_accel::report::RunReport`]: phase bytes partition total
//!   traffic, measured traffic ≥ the compulsory lower bound, tile
//!   footprints fit their buffer partitions, and task streams cover the
//!   iteration space exactly once.
//! * [`driver`] — the randomized sweep: all registry variants × thread
//!   counts {1, 4}, over the seeded [`drt_workloads::corpus`].
//! * [`pipelines`] — the staged-pipeline differentials (MTTKRP, TTV,
//!   A·B·C, fused SDDMM→SpMM) against the dense oracles, with
//!   thread-count bit-identity, stage-partition invariants, the
//!   fused-beats-unfused traffic property, and [`drt_workloads::tensor3`]
//!   generator-parameter shrinking. Folded into [`driver::verify_all`].
//! * [`shrink`] — a greedy workload shrinker that minimizes any failing
//!   pair (drop rows / columns / non-zeros while the failure reproduces)
//!   and emits a small MatrixMarket reproducer.
//! * [`fault`] — deliberate fault injection (a flipped MACC) proving the
//!   harness catches and minimizes real numeric bugs.
//! * [`deltas`] — the delta-path differential: random [`drt_tensor::DeltaBatch`]
//!   sequences interleaved with incremental runs
//!   ([`drt_accel::incremental`]), each report pinned bit-identical to a
//!   from-scratch run of the patched operands at every thread count.
//!   Folded into [`driver::verify_all`].
//! * [`chaos`] — execution-layer chaos injection (worker panics, slow
//!   shards, cancellation) proving the recovery machinery holds: a
//!   panic surfaces as a typed error with a consistent partial report,
//!   degraded reports are internally consistent, and traces stay
//!   parseable to the last record.
//! * [`chaos_serve`] — serve-layer chaos injection against a live
//!   [`drt_serve::Server`] (crashing, poison, and slow requests)
//!   proving the survivability invariants: every admitted ticket
//!   resolves, survivors stay bit-identical to standalone, quarantine
//!   trips at exactly its threshold, and a transient crash resolves
//!   `WorkerCrashed` on its one execution while a resubmission of the
//!   same workload completes bit-identical.
//!
//! The `verify` binary in `drt-bench` fronts [`driver::verify_all`] with
//! `--seed/--iters/--quick` flags and is wired into CI as a gate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod chaos_serve;
pub mod deltas;
pub mod driver;
pub mod fault;
pub mod invariants;
pub mod oracle;
pub mod pipelines;
pub mod shrink;

//! The delta-path differential mode: interleave random [`DeltaBatch`]es
//! with incremental runs and pin every report against a from-scratch
//! oracle run of the patched operands.
//!
//! This is the end-to-end check behind the incremental contract
//! ([`drt_accel::incremental`]): in-place patching
//! ([`CsMatrix::apply_delta`]) and spliced task results must be
//! *bit-identical* — not merely ULP-close — to planning and executing
//! the patched operands from scratch, for DRT and S-U-C tiling, at every
//! verified thread count.
//! Unlike the oracle sweep, no tolerance is involved: both sides run the
//! same engine, so `RunReport::bit_diff` must be `None`.

use crate::driver::{Failure, VerifyOptions, VerifySummary};
use drt_accel::engine::{run_spmspm_exec, EngineConfig, ExecPolicy, Tiling};
use drt_accel::incremental::IncrementalSpmspm;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::probe::Probe;
use drt_tensor::{CsMatrix, DeltaBatch};
use drt_workloads::corpus::differential_pairs;
use std::collections::BTreeMap;

/// Deterministic splitmix64 step — the delta generator's only source of
/// randomness (the crate deliberately has no RNG dependency).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random batch of upserts and deletes inside `nrows × ncols`. Deletes
/// target arbitrary coordinates (deleting an absent entry is a no-op by
/// contract, so this also exercises that path).
fn random_batch(state: &mut u64, nrows: u32, ncols: u32, ops: usize) -> DeltaBatch {
    let mut d = DeltaBatch::new();
    for _ in 0..ops {
        let r = (splitmix(state) % u64::from(nrows)) as u32;
        let c = (splitmix(state) % u64::from(ncols)) as u32;
        if splitmix(state).is_multiple_of(4) {
            d.delete(r, c);
        } else {
            let v = (splitmix(state) % 2_000) as f64 / 100.0 - 10.0;
            d.upsert(r, c, v);
        }
    }
    d
}

/// The tiling configurations the delta mode sweeps: a DRT config and an
/// S-U-C config (fixed tile shapes), both splicing task results.
fn delta_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::new((
            "delta-drt",
            Tiling::Drt,
            DrtConfig::new(Partitions::from_bytes(&[("A", 4096), ("B", 4096), ("Z", 1024)])),
        )),
        EngineConfig::new((
            "delta-suc",
            Tiling::Suc(BTreeMap::from([('i', 16), ('k', 16), ('j', 16)])),
            DrtConfig::new(Partitions::from_bytes(&[("A", 8192), ("B", 8192), ("Z", 4096)])),
        )),
    ]
}

/// Interleave `steps` random delta batches with incremental runs on one
/// workload pair, checking each report against from-scratch runs at
/// every thread count. `None` = clean; `Some(msg)` = first divergence.
pub fn check_delta_sequence(
    cfg: &EngineConfig,
    a0: &CsMatrix,
    b0: &CsMatrix,
    seed: u64,
    steps: usize,
    threads: &[usize],
) -> Option<String> {
    let mut state = seed ^ 0xDE17_A5EE_D000_0001;
    let mut a = a0.clone();
    let mut eng = IncrementalSpmspm::new(cfg.clone());
    for step in 0..=steps {
        if step > 0 {
            let ops = 1 + (splitmix(&mut state) % 6) as usize;
            let d = random_batch(&mut state, a.nrows(), a.ncols(), ops);
            a.apply_delta(&d);
        }
        let incr = match eng.run(&a, b0) {
            Ok(r) => r,
            Err(e) => return Some(format!("step {step}: incremental run failed: {e}")),
        };
        for &t in threads {
            let scratch =
                match run_spmspm_exec(&a, b0, cfg, &Probe::disabled(), &ExecPolicy::threads(t)) {
                    Ok(r) => r,
                    Err(e) => return Some(format!("step {step}: from-scratch t{t} failed: {e}")),
                };
            if let Some(diff) = scratch.bit_diff(&incr) {
                return Some(format!(
                    "step {step}: incremental report diverged from from-scratch (t{t}): {diff}"
                ));
            }
        }
    }
    None
}

/// The delta-mode sweep: each tiling configuration × a slice of the
/// seeded corpus, with a seeded delta sequence per pair. Workload pairs
/// whose operands don't fit the fixed test partitions are skipped — this
/// mode verifies the delta path, not partition sizing.
pub fn verify_deltas(opts: &VerifyOptions) -> VerifySummary {
    let mut summary = VerifySummary::default();
    let steps = if opts.quick { 2 } else { 4 };
    for iter in 0..opts.iters.max(1) {
        let seed = opts.seed.wrapping_add(1000 * iter as u64);
        for pair in differential_pairs(seed, opts.quick) {
            for cfg in delta_configs() {
                // Feasibility probe: a pair the config cannot tile at all
                // is out of scope for this mode.
                if run_spmspm_exec(
                    &pair.a,
                    &pair.b,
                    &cfg,
                    &Probe::disabled(),
                    &ExecPolicy::serial(),
                )
                .is_err()
                {
                    continue;
                }
                summary.runs += 1;
                if let Some(detail) =
                    check_delta_sequence(&cfg, &pair.a, &pair.b, seed, steps, &opts.threads)
                {
                    summary.failures.push(Failure {
                        variant: cfg.name.clone(),
                        workload: pair.label.clone(),
                        exec: "incremental".into(),
                        detail,
                        shrunk_shape: (
                            pair.a.nrows(),
                            pair.a.ncols(),
                            pair.b.ncols(),
                            pair.a.nnz(),
                            pair.b.nnz(),
                        ),
                        reproducer: None,
                    });
                }
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The in-tree delta-mode gate: the quick corpus must pass for both
    /// tiling configurations with zero bit divergence.
    #[test]
    fn delta_mode_passes_quick_sweep() {
        let opts = VerifyOptions { quick: true, iters: 1, ..VerifyOptions::default() };
        let summary = verify_deltas(&opts);
        assert!(summary.runs > 0, "every pair was skipped — partitions too small for the corpus");
        assert!(
            summary.passed(),
            "{} failures, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }
}

//! The delta-path differential mode: interleave random [`DeltaBatch`]es
//! with incremental runs and pin every report against a from-scratch
//! oracle run of the patched operands.
//!
//! This is the end-to-end check behind the incremental contract
//! ([`drt_accel::incremental`]): in-place patching
//! ([`CsMatrix::apply_delta`]) and spliced task results must be
//! *bit-identical* — not merely ULP-close — to planning and executing
//! the patched operands from scratch, for DRT and S-U-C tiling, at every
//! verified thread count, under plain, budgeted and probed sessions
//! (traces included).
//! Unlike the oracle sweep, no tolerance is involved: both sides run the
//! same engine, so `RunReport::bit_diff` must be `None`.

use crate::chaos::LineSink;
use crate::driver::{Failure, VerifyOptions, VerifySummary};
use drt_accel::engine::{EngineConfig, Tiling};
use drt_accel::incremental::IncrementalSpmspm;
use drt_accel::session::Session;
use drt_core::budget::ExecBudget;
use drt_core::config::{DrtConfig, Partitions};
use drt_core::probe::Probe;
use drt_tensor::{CsMatrix, DeltaBatch};
use drt_workloads::corpus::differential_pairs;
use std::collections::BTreeMap;
use std::sync::Arc;

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
/// workload pair, under three sessions around `cfg`: a plain one, one
/// budgeted tightly enough that a DRT config falls back to S-U-C tiles,
/// and a probed one. Each incremental report is bit-diffed against the
/// same session's from-scratch runs at every thread count, and a probed
/// run's trace must match theirs line for line. `None` = clean;
/// `Some(msg)` = first divergence.
pub fn check_delta_sequence(
    cfg: &EngineConfig,
    a0: &CsMatrix,
    b0: &CsMatrix,
    seed: u64,
    steps: usize,
    threads: &[usize],
) -> Option<String> {
    let trace = Arc::new(LineSink::default());
    let plain = Session::from_engine_config(cfg.clone());
    let budget = ExecBudget::unlimited().with_max_tasks(1).with_max_plan_candidates(1);
    let sessions = [
        ("plain", plain.clone()),
        ("budgeted", plain.clone().budget(budget)),
        ("probed", plain.probe(Probe::new(trace.clone()))),
    ];
    let check = |label: &str, session: &Session| -> Result<(), String> {
        let mut state = seed ^ 0xDE17_A5EE_D000_0001;
        let mut a = a0.clone();
        let mut eng = IncrementalSpmspm::new(session.clone());
        for step in 0..=steps {
            if step > 0 {
                let ops = 1 + (splitmix(&mut state) % 6) as usize;
                a.apply_delta(&random_batch(&mut state, a.nrows(), a.ncols(), ops));
            }
            let at = format!("{label} session, step {step}");
            let incr = eng.run(&a, b0).map_err(|e| format!("{at}: incremental run failed: {e}"))?;
            let incr_trace = trace.lines();
            let drt = matches!(cfg.tiling, Tiling::Drt);
            if label == "budgeted" && drt && incr.degradation.is_none() {
                return Err(format!("{at}: the budget never switched to S-U-C tiles"));
            }
            for &t in threads {
                let scratch = session.clone().threads(t).run_spmspm(&a, b0);
                let scratch =
                    scratch.map_err(|e| format!("{at}: from-scratch t{t} failed: {e}"))?;
                let diff = scratch.bit_diff(&incr);
                if let Some(diff) =
                    diff.or_else(|| (trace.lines() != incr_trace).then(|| "trace".into()))
                {
                    return Err(format!(
                        "{at}: incremental run diverged from from-scratch (t{t}): {diff}"
                    ));
                }
            }
        }
        Ok(())
    };
    sessions.iter().find_map(|(label, session)| check(label, session).err())
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
                if Session::from_engine_config(cfg.clone()).run_spmspm(&pair.a, &pair.b).is_err() {
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

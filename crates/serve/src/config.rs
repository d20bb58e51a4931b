//! Server tuning knobs.

use drt_core::chaos::FaultInjector;
use drt_core::par::default_pool_size;
use std::sync::Arc;

/// What admission control does when the queue is under pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Admit until the queue is full, then reject. Every admitted
    /// request runs with its own budget untouched.
    Reject,
    /// Hysteresis load shedding between two watermarks: once the queue
    /// depth (at admission) exceeds `degrade_above`, shedding *latches
    /// on* — every admitted request tightens its budget to
    /// [`drt_core::budget::ExecBudget::suc_only`] (DRT planning skipped,
    /// S-U-C fallback tiles only — cheaper, still correct) — and it
    /// releases only once the depth falls back to `restore_below` or
    /// less. `restore_below == degrade_above` collapses the band to the
    /// old single-watermark behaviour; a gap between them stops shed
    /// decisions from flapping on every admission at the boundary. At
    /// full capacity, requests are rejected regardless.
    DegradeThenReject {
        /// Queue depth above which shedding engages (latches on).
        degrade_above: usize,
        /// Queue depth at or below which shedding releases. Clamped to
        /// `degrade_above` at evaluation time (a release watermark above
        /// the engage watermark would mean "never latched").
        restore_below: usize,
    },
}

/// Server configuration. `Default` is a sensible production shape:
/// one worker per core, a bounded queue, reject-on-full admission,
/// small-kernel batching, report caching for recurring workloads,
/// and poison-workload quarantine after 3 crashes.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool (each executes requests on its own
    /// clone of the template session).
    pub workers: usize,
    /// Maximum queued (admitted, not yet executing) requests. Submits
    /// beyond this are rejected, never queued.
    pub queue_capacity: usize,
    /// What to do under queue pressure.
    pub admission: AdmissionPolicy,
    /// Maximum requests one worker dequeues in a single trip to the
    /// queue lock, when they are all small. `1` disables batching.
    pub batch_max: usize,
    /// Workloads with `nnz_hint() <= small_nnz` count as small for
    /// batching, and one `small_nnz` of operand data is one cost unit
    /// for deficit round-robin fair-share scheduling.
    pub small_nnz: u64,
    /// Cache reports of recurring identical workloads (matched by
    /// content fingerprint). Only memoizable requests — no deadline,
    /// unlimited budget — and only complete runs are eligible, and the
    /// cache is disabled entirely when the template session carries a
    /// probe (cached hits would skip trace events).
    pub memoize: bool,
    /// Maximum reports the recurring-workload cache retains. When full,
    /// inserting a new report evicts the least-recently-used entry (a
    /// hit refreshes recency) and bumps
    /// [`crate::stats::StatsSnapshot::cache_evictions`]. An evicted
    /// workload is simply recomputed on its next submit — eviction never
    /// changes a response, only where it came from.
    pub memo_capacity: usize,
    /// Crashed requests per workload fingerprint before the fingerprint
    /// is quarantined: further submissions are rejected at admission
    /// with [`crate::error::ServeError::Quarantined`] instead of crashing
    /// another worker, until
    /// [`crate::server::Server::clear_quarantine`] lifts it. `u32::MAX`
    /// disables quarantine.
    pub quarantine_after: u32,
    /// Fault injector called before every request execution
    /// (chaos tests only; `None` in production). See
    /// [`drt_core::chaos::FaultInjector::before_request`].
    pub chaos: Option<Arc<dyn FaultInjector>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: default_pool_size(),
            queue_capacity: 1024,
            admission: AdmissionPolicy::Reject,
            batch_max: 8,
            small_nnz: 4096,
            memoize: true,
            memo_capacity: 256,
            quarantine_after: 3,
            chaos: None,
        }
    }
}

impl ServeConfig {
    /// Builder-style: set the worker count.
    #[must_use]
    pub fn with_workers(mut self, n: usize) -> ServeConfig {
        self.workers = n.max(1);
        self
    }

    /// Builder-style: set the queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, n: usize) -> ServeConfig {
        self.queue_capacity = n.max(1);
        self
    }

    /// Builder-style: set the admission policy.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> ServeConfig {
        self.admission = policy;
        self
    }

    /// Builder-style: set the batch size cap (`1` disables batching).
    #[must_use]
    pub fn with_batch_max(mut self, n: usize) -> ServeConfig {
        self.batch_max = n.max(1);
        self
    }

    /// Builder-style: set the small-workload threshold for batching.
    #[must_use]
    pub fn with_small_nnz(mut self, nnz: u64) -> ServeConfig {
        self.small_nnz = nnz;
        self
    }

    /// Builder-style: enable or disable the recurring-workload cache.
    #[must_use]
    pub fn with_memoize(mut self, on: bool) -> ServeConfig {
        self.memoize = on;
        self
    }

    /// Builder-style: bound the recurring-workload cache (clamped to
    /// ≥ 1 entry; use [`ServeConfig::with_memoize`] to disable caching).
    #[must_use]
    pub fn with_memo_capacity(mut self, n: usize) -> ServeConfig {
        self.memo_capacity = n.max(1);
        self
    }

    /// Builder-style: set the quarantine crash threshold (`u32::MAX`
    /// disables quarantine).
    #[must_use]
    pub fn with_quarantine_after(mut self, crashes: u32) -> ServeConfig {
        self.quarantine_after = crashes.max(1);
        self
    }

    /// Builder-style: install a chaos fault injector (tests only).
    #[must_use]
    pub fn with_chaos(mut self, chaos: Arc<dyn FaultInjector>) -> ServeConfig {
        self.chaos = Some(chaos);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_clamp_to_valid_ranges() {
        let cfg = ServeConfig::default()
            .with_workers(0)
            .with_queue_capacity(0)
            .with_batch_max(0)
            .with_memo_capacity(0)
            .with_quarantine_after(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.batch_max, 1);
        assert_eq!(cfg.memo_capacity, 1);
        assert_eq!(cfg.quarantine_after, 1);
    }

    #[test]
    fn default_is_no_retry_with_quarantine_armed() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.quarantine_after, 3);
        assert!(cfg.chaos.is_none());
    }
}

//! Server-side counters: admission, load shedding, batching, cache
//! reuse, survivability (crashes, quarantine), and per-tenant rows. Global counters are atomics — readable at any time without
//! stopping the pool; per-tenant rows live behind one small mutex.

use drt_accel::workload::TenantId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live counters maintained by the server (all monotonic except
/// `max_queue_depth`, which is a high-water mark).
#[derive(Debug, Default)]
pub struct ServeStats {
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_evictions: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    pub(crate) max_queue_depth: AtomicUsize,
    pub(crate) crashed: AtomicU64,
    pub(crate) quarantined: AtomicU64,
    pub(crate) quarantine_rejected: AtomicU64,
    pub(crate) per_tenant: Mutex<HashMap<TenantId, TenantCounters>>,
}

/// One tenant's share of the serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantCounters {
    /// Requests this tenant got admitted.
    pub submitted: u64,
    /// Requests rejected at admission (capacity or quarantine).
    pub rejected: u64,
    /// Requests admitted above the load-shed watermark.
    pub shed: u64,
    /// Requests answered with a complete run (cache hits included).
    pub completed: u64,
    /// Requests answered with a degraded run.
    pub degraded: u64,
    /// Requests answered with a typed error ([`crate::ServeError::Run`]).
    pub failed: u64,
    /// Requests answered [`crate::ServeError::WorkerCrashed`].
    pub crashed: u64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests refused by admission control (queue full, shutdown,
    /// quarantine).
    pub rejected: u64,
    /// Requests admitted above the load-shed watermark (executed with
    /// the S-U-C-only budget).
    pub shed: u64,
    /// Requests answered with a complete run.
    pub completed: u64,
    /// Requests answered with a degraded run (deadline, budget,
    /// load-shed fallback).
    pub degraded: u64,
    /// Requests answered with a typed error.
    pub failed: u64,
    /// Responses served from the recurring-workload report cache.
    pub cache_hits: u64,
    /// Reports evicted from the (LRU-bounded) recurring-workload cache
    /// to make room for new ones — see
    /// [`crate::config::ServeConfig::memo_capacity`].
    pub cache_evictions: u64,
    /// Dequeue batches executed (each is one trip to the queue lock).
    pub batches: u64,
    /// Requests that rode in a batch of size ≥ 2.
    pub batched_requests: u64,
    /// Deepest the queue ever got.
    pub max_queue_depth: usize,
    /// Requests whose execution panicked and resolved
    /// [`crate::ServeError::WorkerCrashed`]. The worker survived each
    /// one.
    pub crashed: u64,
    /// Workload fingerprints whose crash count tripped the quarantine
    /// threshold (each trip counts once; a re-trip after
    /// [`crate::Server::clear_quarantine`] counts again).
    pub quarantined: u64,
    /// Submissions rejected at admission because their fingerprint was
    /// quarantined.
    pub quarantine_rejected: u64,
    /// Per-tenant counter rows, sorted by tenant id (deterministic for
    /// a deterministic admission sequence).
    pub per_tenant: Vec<(TenantId, TenantCounters)>,
}

impl ServeStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut per_tenant: Vec<(TenantId, TenantCounters)> = self
            .per_tenant
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(t, c)| (*t, *c))
            .collect();
        per_tenant.sort_by_key(|(t, _)| *t);
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            quarantine_rejected: self.quarantine_rejected.load(Ordering::Relaxed),
            per_tenant,
        }
    }

    pub(crate) fn note_queue_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Update one tenant's counter row in place.
    pub(crate) fn tenant(&self, tenant: TenantId, update: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.per_tenant.lock().unwrap_or_else(|p| p.into_inner());
        update(map.entry(tenant).or_default());
    }
}

impl StatsSnapshot {
    /// One tenant's row, if the tenant was ever seen.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantCounters> {
        self.per_tenant.iter().find(|(t, _)| *t == tenant).map(|(_, c)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_rows_sort_by_id_and_look_up() {
        let stats = ServeStats::default();
        stats.tenant(TenantId(9), |c| c.submitted += 2);
        stats.tenant(TenantId(1), |c| c.completed += 1);
        let snap = stats.snapshot();
        let ids: Vec<u64> = snap.per_tenant.iter().map(|(t, _)| t.0).collect();
        assert_eq!(ids, vec![1, 9], "rows sort by tenant id");
        assert_eq!(snap.tenant(TenantId(9)).expect("row").submitted, 2);
        assert!(snap.tenant(TenantId(5)).is_none());
    }
}

//! Fault-injection hook for chaos testing.
//!
//! The engine's shard workers call [`FaultInjector`] at two sites — once
//! per shard before any task runs, and once per task before its phases
//! execute — and the serving layer calls it once per request execution,
//! before the request touches the session. A production run
//! passes no injector (the call sites are a branch on `None`);
//! `drt-verify`'s chaos harnesses install seeded injectors that panic,
//! sleep, or cancel at chosen indices to prove the recovery machinery
//! (panic isolation into a typed error, deadline degradation, worker
//! supervision, poison-workload quarantine) actually recovers.
//!
//! Injectors must be deterministic for a given construction (seeded, no
//! wall-clock reads) so chaos failures replay.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

/// Hook invoked by the engine at shard and task boundaries and by the
/// serving layer at request boundaries. Default methods are no-ops;
/// implementations may panic (to simulate worker crashes) or block (to
/// simulate slow shards/requests).
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// Called once per shard, before the shard's first task.
    fn before_shard(&self, _shard: usize) {}

    /// Called before each task's phases execute. `task` is the global
    /// task index (stable across thread counts).
    fn before_task(&self, _task: u64) {}

    /// Called by a serving worker before each request execution (each
    /// request runs once; a resubmission gets a fresh `seq`). `seq` is
    /// the server's global execution counter — deterministic at pool size 1
    /// — and `fingerprint` is the workload's content fingerprint, so an
    /// injector can poison one specific workload regardless of arrival
    /// order.
    fn before_request(&self, _seq: u64, _fingerprint: u64) {}
}

/// The trivial injector: never injects anything. Useful as an explicit
/// placeholder in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {}

/// Serve scenario: panic inside the worker when the `nth` request
/// execution starts, for the first `times` executions at or past it.
/// With `times = 1` the crash is transient (a resubmission succeeds);
/// with `u32::MAX` every execution from `nth` on crashes.
#[derive(Debug)]
pub struct PanicInWorker {
    nth: u64,
    remaining: AtomicU32,
}

impl PanicInWorker {
    /// Crash the `nth` request execution (0-based), `times` times.
    pub fn new(nth: u64, times: u32) -> PanicInWorker {
        PanicInWorker { nth, remaining: AtomicU32::new(times) }
    }
}

impl FaultInjector for PanicInWorker {
    fn before_request(&self, seq: u64, _fingerprint: u64) {
        if seq >= self.nth
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            panic!("chaos: injected worker panic at request {seq}");
        }
    }
}

/// Serve scenario: a poison workload. Every execution of the workload
/// with this content fingerprint panics, forever — the shape quarantine
/// exists to contain.
#[derive(Debug)]
pub struct PoisonFingerprint {
    fingerprint: u64,
    hits: AtomicU64,
}

impl PoisonFingerprint {
    /// Poison the workload with content fingerprint `fingerprint`.
    pub fn new(fingerprint: u64) -> PoisonFingerprint {
        PoisonFingerprint { fingerprint, hits: AtomicU64::new(0) }
    }

    /// How many times the poison fired (crashed request executions).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }
}

impl FaultInjector for PoisonFingerprint {
    fn before_request(&self, _seq: u64, fingerprint: u64) {
        if fingerprint == self.fingerprint {
            self.hits.fetch_add(1, Ordering::SeqCst);
            panic!("chaos: poison workload {fingerprint:#x}");
        }
    }
}

/// Serve scenario: the `nth` request execution blocks for
/// `sleep` before running — a head-of-line-blocking slow request.
#[derive(Debug)]
pub struct SlowRequest {
    nth: u64,
    sleep: Duration,
}

impl SlowRequest {
    /// Sleep for `sleep` before executing request `nth`.
    pub fn new(nth: u64, sleep: Duration) -> SlowRequest {
        SlowRequest { nth, sleep }
    }
}

impl FaultInjector for SlowRequest {
    fn before_request(&self, seq: u64, _fingerprint: u64) {
        if seq == self.nth {
            std::thread::sleep(self.sleep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_is_inert() {
        let n = NoFaults;
        n.before_shard(0);
        n.before_task(42);
        n.before_request(0, 0xdead);
    }

    #[test]
    fn panic_in_worker_fires_exactly_times() {
        let inj = PanicInWorker::new(2, 1);
        inj.before_request(0, 0);
        inj.before_request(1, 0);
        let caught = std::panic::catch_unwind(|| inj.before_request(2, 0));
        assert!(caught.is_err(), "nth execution must panic");
        // The budget is spent: later executions pass.
        inj.before_request(3, 0);
    }

    #[test]
    fn poison_fingerprint_is_persistent_and_selective() {
        let inj = PoisonFingerprint::new(0xabc);
        inj.before_request(0, 0xdef); // other workloads pass
        for seq in 0..3 {
            assert!(std::panic::catch_unwind(|| inj.before_request(seq, 0xabc)).is_err());
        }
        assert_eq!(inj.hits(), 3, "every poisoned execution counts");
    }

    #[test]
    fn slow_request_targets_one_seq() {
        let inj = SlowRequest::new(1, Duration::ZERO);
        inj.before_request(0, 0);
        inj.before_request(1, 0);
    }
}

//! The serving layer's error taxonomy.
//!
//! Admission failures ([`ServeError::Rejected`], [`ServeError::ShuttingDown`],
//! [`ServeError::Quarantined`]) happen at submit time and mean the
//! request never entered the queue. Execution failures wrap the session
//! layer's typed [`DrtError`], or — when a panic escapes the session
//! entirely — surface as [`ServeError::WorkerCrashed`] on the request's
//! one execution, the supervision layer's proof that a crashed
//! request resolves its ticket instead of hanging it. Note that
//! degraded runs (deadline, budget, load-shed) are *not* errors: they
//! come back as normal responses whose reports carry a `degradation`
//! record, exactly as standalone sessions behave.

use drt_accel::error::DrtError;

/// Why a request could not be served.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control rejected the request: the queue was at capacity.
    /// Back off and resubmit; the server never queues unboundedly.
    Rejected {
        /// Queue depth at rejection time.
        queue_len: usize,
        /// Configured capacity.
        capacity: usize,
    },
    /// Admission control rejected the request: its workload fingerprint
    /// crashed workers [`crate::config::ServeConfig::quarantine_after`]
    /// times and is quarantined. Resubmit after
    /// [`crate::server::Server::clear_quarantine`].
    Quarantined {
        /// The poisoned workload's content fingerprint.
        fingerprint: u64,
        /// Crashed requests recorded against it.
        crashes: u32,
    },
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
    /// The worker executing the request disappeared before responding
    /// (its response channel closed) — only possible after an abort.
    WorkerLost,
    /// The request's execution panicked. The worker survived (panic
    /// isolation), the ticket resolved (this error), and the crash was
    /// counted toward the workload's quarantine threshold. Execution is a
    /// pure function of the request, so the request is not re-run.
    WorkerCrashed {
        /// The stringified panic payload.
        message: String,
    },
    /// A worker thread could not be spawned at server start; workers
    /// spawned before the failure were cleanly shut down.
    Spawn {
        /// Index of the worker that failed to spawn.
        worker: usize,
        /// The OS error.
        message: String,
    },
    /// The run itself failed with a typed session error.
    Run(DrtError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected { queue_len, capacity } => {
                write!(f, "admission rejected: queue at {queue_len}/{capacity}")
            }
            ServeError::Quarantined { fingerprint, crashes } => {
                write!(
                    f,
                    "admission rejected: workload {fingerprint:#x} quarantined after {crashes} crash(es)"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::WorkerLost => write!(f, "worker lost before responding"),
            ServeError::WorkerCrashed { message } => {
                write!(f, "request crashed its worker: {message}")
            }
            ServeError::Spawn { worker, message } => {
                write!(f, "cannot spawn serve worker {worker}: {message}")
            }
            ServeError::Run(e) => write!(f, "run failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DrtError> for ServeError {
    fn from(e: DrtError) -> Self {
        ServeError::Run(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_condition() {
        let s = ServeError::Rejected { queue_len: 7, capacity: 8 }.to_string();
        assert!(s.contains("7/8"), "{s}");
        assert!(ServeError::ShuttingDown.to_string().contains("shutting down"));
        let s = ServeError::WorkerCrashed { message: "boom".into() }.to_string();
        assert!(s.contains("boom") && s.contains("crashed"), "{s}");
        let s = ServeError::Quarantined { fingerprint: 0xab, crashes: 3 }.to_string();
        assert!(s.contains("0xab") && s.contains("3 crash"), "{s}");
        let s = ServeError::Spawn { worker: 3, message: "EAGAIN".into() }.to_string();
        assert!(s.contains("worker 3") && s.contains("EAGAIN"), "{s}");
    }
}

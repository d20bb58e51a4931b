//! The accelerator layer's unified error type.
//!
//! [`DrtError`] is what the execution door,
//! [`crate::session::Session::run_ref`], and every session entry point
//! that lowers to it return.
//! It wraps configuration/planning failures from `drt-core` and adds the
//! execution-layer failures that only exist once runs are sharded,
//! retried, budgeted, and cancellable.
//!
//! Degradation is *not* an error: budget exhaustion, cancellation, and
//! deadlines produce `Ok(RunOutcome::Degraded(..))` with a well-formed
//! partial report. `DrtError` is reserved for runs that cannot produce a
//! trustworthy report at all (exhausted retries, poisoned state, bad
//! configuration).

use std::ops::Range;

use drt_core::CoreError;

use crate::report::RunReport;

/// Errors from the fault-tolerant execution layer.
#[derive(Debug)]
pub enum DrtError {
    /// A configuration, planning, or validation failure from `drt-core`.
    Core(CoreError),
    /// A shard worker panicked and every retry (up to
    /// `ExecPolicy::max_retries`) panicked again. Carries the partial
    /// report built from the contiguous prefix of committed shards —
    /// its phase bytes still partition its traffic — plus the global
    /// task range of the failing shard and the recovered panic message.
    ShardPanicked {
        /// Report over the committed prefix (functional output dropped).
        partial: Box<RunReport>,
        /// Global task indices `[start, end)` of the shard that failed.
        task_range: Range<u64>,
        /// Panic payload recovered from the worker (`&str`/`String`
        /// payloads verbatim, otherwise a placeholder).
        message: String,
        /// Total attempts made on the failing shard (1 + retries).
        attempts: u32,
    },
    /// A deadline expired where no partial result could be assembled.
    /// (Deadline expiry during a run yields `RunOutcome::Degraded`
    /// instead; this variant exists for entry points with nothing to
    /// degrade to.)
    DeadlineExceeded,
    /// A resource budget was exhausted where no degraded continuation
    /// exists. (Budget exhaustion during task generation degrades to
    /// S-U-C tiling and yields `RunOutcome::Degraded` instead.)
    BudgetExhausted {
        /// Which budget tripped and where.
        detail: String,
    },
    /// Shared state (a lock) was poisoned by a panic elsewhere and the
    /// value could not be safely recovered.
    PoisonedState {
        /// What was poisoned.
        detail: String,
    },
    /// A name did not resolve against the accelerator registry
    /// ([`crate::spec::Registry::standard`]).
    UnknownVariant {
        /// The name that failed to resolve.
        name: String,
    },
}

impl std::fmt::Display for DrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrtError::Core(e) => write!(f, "{e}"),
            DrtError::ShardPanicked { partial, task_range, message, attempts } => write!(
                f,
                "shard covering tasks {}..{} panicked after {} attempt(s): {} \
                 ({} task(s) committed before the failure)",
                task_range.start, task_range.end, attempts, message, partial.tasks
            ),
            DrtError::DeadlineExceeded => write!(f, "deadline exceeded before any work ran"),
            DrtError::BudgetExhausted { detail } => write!(f, "budget exhausted: {detail}"),
            DrtError::PoisonedState { detail } => write!(f, "poisoned state: {detail}"),
            DrtError::UnknownVariant { name } => {
                write!(f, "no accelerator variant named {name:?} in the registry")
            }
        }
    }
}

impl std::error::Error for DrtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DrtError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for DrtError {
    fn from(e: CoreError) -> Self {
        DrtError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_task_range() {
        let err = DrtError::ShardPanicked {
            partial: Box::new(RunReport::empty("t")),
            task_range: 8..12,
            message: "boom".into(),
            attempts: 3,
        };
        let s = err.to_string();
        assert!(s.contains("8..12"), "{s}");
        assert!(s.contains("3 attempt"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn core_errors_convert_and_chain() {
        let err: DrtError = CoreError::BadConfig { detail: "x".into() }.into();
        assert!(matches!(err, DrtError::Core(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}

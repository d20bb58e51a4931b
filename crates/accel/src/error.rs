//! The accelerator layer's unified error type.
//!
//! [`DrtError`] is what the execution door,
//! [`crate::session::Session::run_ref`], and every session entry point
//! that lowers to it return.
//! It wraps configuration/planning failures from `drt-core` and adds the
//! two failures of the execution layer: a panicked shard and an
//! unregistered variant name.
//!
//! Degradation is *not* an error: budget exhaustion, cancellation, and
//! deadlines produce `Ok(RunOutcome::Degraded(..))` with a well-formed
//! partial report. `DrtError` is reserved for runs that cannot produce a
//! trustworthy report at all (a panicked shard, bad configuration).

use std::ops::Range;

use drt_core::CoreError;

use crate::report::RunReport;

/// Errors from the fault-tolerant execution layer.
#[derive(Debug)]
pub enum DrtError {
    /// A configuration, planning, or validation failure from `drt-core`.
    Core(CoreError),
    /// A shard worker panicked. Workers are pure functions of the task
    /// list, so the panic would recur on any re-run. Carries the partial
    /// report built from the contiguous prefix of shards below the
    /// lowest failing one — its phase bytes still partition its traffic —
    /// plus the global task range of that shard and the recovered panic
    /// message.
    ShardPanicked {
        /// Report over the committed prefix (functional output dropped).
        partial: Box<RunReport>,
        /// Global task indices `[start, end)` of the shard that failed.
        task_range: Range<u64>,
        /// Panic payload recovered from the worker (`&str`/`String`
        /// payloads verbatim, otherwise a placeholder).
        message: String,
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
            DrtError::ShardPanicked { partial, task_range, message } => write!(
                f,
                "shard covering tasks {}..{} panicked: {} \
                 ({} task(s) committed before the failure)",
                task_range.start, task_range.end, message, partial.tasks
            ),
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
        };
        let s = err.to_string();
        assert!(s.contains("8..12"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }

    #[test]
    fn core_errors_convert_and_chain() {
        let err: DrtError = CoreError::BadConfig { detail: "x".into() }.into();
        assert!(matches!(err, DrtError::Core(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}

//! Resource budgets for bounded execution.
//!
//! An [`ExecBudget`] caps how much work a single run may perform. The
//! caps are *soft* in the paper's own sense: exhausting one degrades the
//! run rather than aborting it, the same way DRT's Algorithm 2 falls back
//! to subdivision when optimistic tile growth fails. Concretely:
//!
//! * `max_tasks` / `max_plan_candidates` exhaustion mid-stream switches
//!   the task generator from DRT planning to the S-U-C baseline grid for
//!   the remaining region (see `taskgen`), so the run still covers the
//!   full iteration space — just with cheaper, statically-sized tiles.

/// Per-run resource caps. `None` = unlimited (the default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecBudget {
    /// Maximum number of tasks the generator may *plan with DRT*; beyond
    /// this the remaining region is tiled with the S-U-C fallback.
    pub max_tasks: Option<u64>,
    /// Cap on DRT planner invocations (`plan_tile` calls); beyond this
    /// the remaining region is tiled with the S-U-C fallback.
    pub max_plan_candidates: Option<u64>,
}

impl ExecBudget {
    /// An unlimited budget (same as `Default`).
    pub fn unlimited() -> ExecBudget {
        ExecBudget::default()
    }

    /// Whether any cap is configured.
    pub fn is_limited(&self) -> bool {
        self.max_tasks.is_some() || self.max_plan_candidates.is_some()
    }

    /// Builder: cap the DRT-planned task count.
    pub fn with_max_tasks(mut self, n: u64) -> ExecBudget {
        self.max_tasks = Some(n);
        self
    }

    /// Builder: cap DRT planner invocations.
    pub fn with_max_plan_candidates(mut self, n: u64) -> ExecBudget {
        self.max_plan_candidates = Some(n);
        self
    }

    /// The load-shedding budget: zero DRT planner invocations, so an
    /// engine run covers its whole iteration space with S-U-C fallback
    /// tiles and skips dynamic planning entirely. A serving layer applies
    /// this to admitted-but-over-watermark requests — the run still
    /// completes (degraded, and recorded as such in the report) instead
    /// of queueing unboundedly behind full-cost DRT planning.
    pub fn suc_only() -> ExecBudget {
        ExecBudget::unlimited().with_max_plan_candidates(0)
    }

    /// Pointwise minimum of two budgets: each cap is the tighter of the
    /// two (a missing cap is unlimited). This is how a request-level
    /// budget composes with a server-level one — neither can *loosen*
    /// the other.
    #[must_use]
    pub fn min_with(&self, other: &ExecBudget) -> ExecBudget {
        fn tighter(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) | (None, x) => x,
            }
        }
        ExecBudget {
            max_tasks: tighter(self.max_tasks, other.max_tasks),
            max_plan_candidates: tighter(self.max_plan_candidates, other.max_plan_candidates),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = ExecBudget::default();
        assert!(!b.is_limited());
        assert_eq!(b, ExecBudget::unlimited());
    }

    #[test]
    fn builders_set_caps() {
        let b = ExecBudget::unlimited().with_max_tasks(10).with_max_plan_candidates(100);
        assert!(b.is_limited());
        assert_eq!(b.max_tasks, Some(10));
        assert_eq!(b.max_plan_candidates, Some(100));
    }

    #[test]
    fn suc_only_blocks_planning_but_not_tasks() {
        let b = ExecBudget::suc_only();
        assert!(b.is_limited());
        assert_eq!(b.max_plan_candidates, Some(0));
        assert_eq!(b.max_tasks, None);
    }

    #[test]
    fn min_with_takes_the_tighter_cap_per_axis() {
        let a = ExecBudget::unlimited().with_max_tasks(10);
        let b = ExecBudget::unlimited().with_max_tasks(20).with_max_plan_candidates(5);
        let m = a.min_with(&b);
        assert_eq!(m.max_tasks, Some(10));
        assert_eq!(m.max_plan_candidates, Some(5));
        assert_eq!(a.min_with(&ExecBudget::unlimited()), a, "unlimited is the identity");
    }
}

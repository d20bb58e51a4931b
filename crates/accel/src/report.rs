//! Run reports: the common result type every accelerator model produces.

use drt_sim::energy::ActionCounts;
use drt_sim::memory::HierarchySpec;
use drt_sim::traffic::TrafficCounter;
use drt_tensor::CsMatrix;

/// Byte and cycle totals attributed to one pipeline phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// DRAM bytes moved by the phase.
    pub bytes: u64,
    /// Cycles attributed to the phase (pre-overlap; phases overlap on
    /// real hardware, so these sum to more than the critical path).
    pub cycles: u64,
}

impl PhaseStats {
    /// Accumulate another phase's totals (used when merging sub-runs).
    pub fn add(&mut self, other: PhaseStats) {
        self.bytes += other.bytes;
        self.cycles += other.cycles;
    }
}

/// Per-phase breakdown of a run through the shared accelerator pipeline:
/// load → extract → intersect/compute → merge → writeback.
///
/// Analytic (untiled) models fill these coarsely — e.g. all input traffic
/// under `load`, all partial-product traffic under `merge` — so the same
/// report fields are comparable across every registered variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Input-tile fetches from the level above.
    pub load: PhaseStats,
    /// Tile-extraction work (DRT's Aggregate/Build/Distribute; zero for
    /// static tilings).
    pub extract: PhaseStats,
    /// Intersection + multiply work on the PEs.
    pub compute: PhaseStats,
    /// Partial-output merging, including output-cache spills and refills.
    pub merge: PhaseStats,
    /// Final compressed-output writeback.
    pub writeback: PhaseStats,
}

impl PhaseBreakdown {
    /// Sum of bytes across all phases.
    pub fn total_bytes(&self) -> u64 {
        self.load.bytes
            + self.extract.bytes
            + self.compute.bytes
            + self.merge.bytes
            + self.writeback.bytes
    }

    /// Accumulate another breakdown phase-by-phase.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.load.add(other.load);
        self.extract.add(other.extract);
        self.compute.add(other.compute);
        self.merge.add(other.merge);
        self.writeback.add(other.writeback);
    }

    /// The phases as `(name, stats)` rows, pipeline order.
    pub fn named(&self) -> [(&'static str, PhaseStats); 5] {
        [
            ("load", self.load),
            ("extract", self.extract),
            ("compute", self.compute),
            ("merge", self.merge),
            ("writeback", self.writeback),
        ]
    }
}

/// One pipeline stage's contribution to a multi-stage run: the stage's
/// own load→…→writeback breakdown, labelled by stage name.
///
/// Single-stage runs leave [`RunReport::stages`] empty (the top-level
/// `phases` *is* the single stage); multi-stage pipeline runs push one
/// entry per stage, and the per-stage breakdowns must sum to the
/// top-level `phases` ([`RunReport::stage_partition_violation`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagePhases {
    /// Stage label ("mttkrp", "sddmm", "spmm", "spmspm#0", …).
    pub stage: String,
    /// This stage's share of the pipeline breakdown.
    pub phases: PhaseBreakdown,
}

/// Why a run degraded instead of completing normally (the fault-tolerant
/// execution layer's outcome taxonomy). Degradation is never an error:
/// the run either kept covering the space with cheaper tiles (budget
/// exhaustion, mirroring Algorithm 2's fallback subdivision) or stopped
/// cleanly at a task boundary (cancellation / deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// `CancelToken::cancel()` stopped the run at a task boundary.
    Cancelled,
    /// The armed deadline passed; the run stopped at a task boundary.
    DeadlineExceeded,
    /// `ExecBudget::max_tasks` exhausted; the remaining region fell back
    /// to S-U-C tiling.
    TaskBudgetExhausted,
    /// `ExecBudget::max_plan_candidates` exhausted; the remaining region
    /// fell back to S-U-C tiling.
    PlanBudgetExhausted,
}

impl DegradeReason {
    /// Stable tag used in trace `aborted` records and JSON rows.
    pub fn tag(&self) -> &'static str {
        match self {
            DegradeReason::Cancelled => "cancelled",
            DegradeReason::DeadlineExceeded => "deadline",
            DegradeReason::TaskBudgetExhausted => "task_budget",
            DegradeReason::PlanBudgetExhausted => "plan_budget",
        }
    }
}

/// How (and how far) a degraded run got. Attached to [`RunReport`] so the
/// numbers always say whether they describe a complete simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// What tripped.
    pub reason: DegradeReason,
    /// Tasks whose phases fully committed before the run stopped (equals
    /// `tasks` for budget degradations, which still complete the run).
    pub completed_tasks: u64,
    /// Human-readable detail (which cap, which fallback shape, …).
    pub detail: String,
}

/// A fault-tolerant run's result: the same [`RunReport`] either way, with
/// the `Degraded` arm guaranteeing `report.degradation` is populated.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The full simulation ran; numbers describe the whole workload.
    Complete(RunReport),
    /// The run degraded (budget fallback or clean early stop); the
    /// report's `degradation` field says why and how far it got.
    Degraded(RunReport),
}

impl RunOutcome {
    /// The report, complete or degraded.
    pub fn report(&self) -> &RunReport {
        match self {
            RunOutcome::Complete(r) | RunOutcome::Degraded(r) => r,
        }
    }

    /// Consume into the report, complete or degraded.
    pub fn into_report(self) -> RunReport {
        match self {
            RunOutcome::Complete(r) | RunOutcome::Degraded(r) => r,
        }
    }

    /// Rebuild the outcome taxonomy from a report: a populated
    /// `degradation` field marks the `Degraded` arm (the engine's
    /// invariant is that degraded runs — and only degraded runs — carry
    /// one). Inverse of [`RunOutcome::into_report`].
    pub fn from_report(r: RunReport) -> RunOutcome {
        if r.degradation.is_some() {
            RunOutcome::Degraded(r)
        } else {
            RunOutcome::Complete(r)
        }
    }

    /// Whether this is the `Degraded` arm.
    pub fn is_degraded(&self) -> bool {
        matches!(self, RunOutcome::Degraded(_))
    }
}

/// The outcome of simulating one workload on one accelerator
/// configuration.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Configuration label ("ExTensor", "ExTensor-OP-DRT", …).
    pub name: String,
    /// DRAM traffic per tensor.
    pub traffic: TrafficCounter,
    /// Effectual multiply-accumulates.
    pub maccs: u64,
    /// On-chip compute critical path in cycles (PE makespan, including
    /// intersection and merge work).
    pub compute_cycles: u64,
    /// Tile-extraction cycles exposed after pipelining (0 when hidden).
    pub exposed_extract_cycles: u64,
    /// End-to-end runtime in seconds.
    pub seconds: f64,
    /// Functional output for validation (`None` for traffic-only models).
    pub output: Option<CsMatrix>,
    /// Emitted (non-empty) tasks.
    pub tasks: u64,
    /// Tasks skipped because an input tile was empty.
    pub skipped_tasks: u64,
    /// Action counts for energy estimation.
    pub actions: ActionCounts,
    /// Per-phase byte/cycle breakdown of the pipeline.
    pub phases: PhaseBreakdown,
    /// Per-stage breakdowns for multi-stage pipeline runs; empty for
    /// single-stage runs (where `phases` is the whole story). When
    /// non-empty, entries sum to `phases`.
    pub stages: Vec<StagePhases>,
    /// `Some` when the run degraded (budget fallback, cancellation,
    /// deadline); `None` for a complete fault-free run.
    pub degradation: Option<Degradation>,
}

impl RunReport {
    /// An all-zero report for runs that stopped before any work committed
    /// (expired deadline at entry, zero task budget). Well-formed: phase
    /// bytes (0) partition traffic (0).
    pub fn empty(name: &str) -> RunReport {
        RunReport {
            name: name.to_string(),
            traffic: TrafficCounter::new(),
            maccs: 0,
            compute_cycles: 0,
            exposed_extract_cycles: 0,
            seconds: 0.0,
            output: None,
            tasks: 0,
            skipped_tasks: 0,
            actions: ActionCounts::default(),
            phases: PhaseBreakdown::default(),
            stages: Vec::new(),
            degradation: None,
        }
    }
    /// Arithmetic intensity: MACCs per DRAM byte (§5.1.1).
    pub fn arithmetic_intensity(&self) -> f64 {
        drt_sim::traffic::arithmetic_intensity(self.maccs, self.traffic.total())
    }

    /// DRAM-bound runtime (the red-dot oracle): total traffic at peak
    /// bandwidth, ignoring on-chip limits.
    pub fn dram_bound_seconds(&self, hier: &HierarchySpec) -> f64 {
        drt_sim::traffic::dram_bound_seconds(
            self.traffic.total(),
            hier.dram.bandwidth_bytes_per_sec,
        )
    }

    /// Speedup of this run over a baseline run (baseline time / this time).
    pub fn speedup_over(&self, baseline: &RunReport) -> f64 {
        baseline.seconds / self.seconds
    }

    /// The phase-partition invariant: per-phase bytes must partition the
    /// total DRAM traffic — every counted byte attributed to exactly one
    /// pipeline phase. `None` when it holds; otherwise a description of
    /// the imbalance.
    pub fn phase_partition_violation(&self) -> Option<String> {
        let phase_bytes = self.phases.total_bytes();
        let traffic_bytes = self.traffic.total();
        (phase_bytes != traffic_bytes).then(|| {
            format!(
                "{}: phase bytes {} != traffic total {} (breakdown {:?})",
                self.name, phase_bytes, traffic_bytes, self.phases
            )
        })
    }

    /// The stage-partition invariant for multi-stage runs: when `stages`
    /// is non-empty, the per-stage breakdowns must sum phase-by-phase to
    /// the top-level `phases` — every phase byte and cycle attributed to
    /// exactly one stage. `None` when it holds (or `stages` is empty).
    pub fn stage_partition_violation(&self) -> Option<String> {
        if self.stages.is_empty() {
            return None;
        }
        let mut sum = PhaseBreakdown::default();
        for s in &self.stages {
            sum.add(&s.phases);
        }
        (sum != self.phases).then(|| {
            format!(
                "{}: stage breakdowns sum to {:?} but report phases are {:?}",
                self.name, sum, self.phases
            )
        })
    }

    /// First field (if any) on which two reports differ at the bit level;
    /// `None` means bit-identical (floats compared via `to_bits`, outputs
    /// entry-for-entry). This is the parallel determinism contract: a
    /// sharded run must satisfy `serial.bit_diff(&sharded).is_none()` for
    /// every thread count.
    pub fn bit_diff(&self, other: &RunReport) -> Option<String> {
        if self.name != other.name {
            return Some(format!("name: {:?} vs {:?}", self.name, other.name));
        }
        if self.traffic != other.traffic {
            return Some(format!("traffic: {:?} vs {:?}", self.traffic, other.traffic));
        }
        if self.maccs != other.maccs {
            return Some(format!("maccs: {} vs {}", self.maccs, other.maccs));
        }
        if self.compute_cycles != other.compute_cycles {
            return Some(format!(
                "compute_cycles: {} vs {}",
                self.compute_cycles, other.compute_cycles
            ));
        }
        if self.exposed_extract_cycles != other.exposed_extract_cycles {
            return Some(format!(
                "exposed_extract_cycles: {} vs {}",
                self.exposed_extract_cycles, other.exposed_extract_cycles
            ));
        }
        if self.seconds.to_bits() != other.seconds.to_bits() {
            return Some(format!("seconds: {:e} vs {:e}", self.seconds, other.seconds));
        }
        if self.tasks != other.tasks {
            return Some(format!("tasks: {} vs {}", self.tasks, other.tasks));
        }
        if self.skipped_tasks != other.skipped_tasks {
            return Some(format!(
                "skipped_tasks: {} vs {}",
                self.skipped_tasks, other.skipped_tasks
            ));
        }
        if self.actions != other.actions {
            return Some(format!("actions: {:?} vs {:?}", self.actions, other.actions));
        }
        if self.phases != other.phases {
            return Some(format!("phases: {:?} vs {:?}", self.phases, other.phases));
        }
        if self.stages != other.stages {
            return Some(format!("stages: {:?} vs {:?}", self.stages, other.stages));
        }
        if self.degradation != other.degradation {
            return Some(format!("degradation: {:?} vs {:?}", self.degradation, other.degradation));
        }
        if self.output != other.output {
            return Some("output: functional results differ".into());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seconds: f64, traffic: u64, maccs: u64) -> RunReport {
        let mut t = TrafficCounter::new();
        t.read("A", traffic);
        RunReport {
            name: "test".into(),
            traffic: t,
            maccs,
            compute_cycles: 0,
            exposed_extract_cycles: 0,
            seconds,
            output: None,
            tasks: 1,
            skipped_tasks: 0,
            actions: ActionCounts::default(),
            phases: PhaseBreakdown::default(),
            stages: Vec::new(),
            degradation: None,
        }
    }

    #[test]
    fn intensity_and_speedup() {
        let fast = report(1.0, 100, 400);
        let slow = report(4.0, 400, 400);
        assert_eq!(fast.arithmetic_intensity(), 4.0);
        assert_eq!(slow.arithmetic_intensity(), 1.0);
        assert_eq!(fast.speedup_over(&slow), 4.0);
    }

    #[test]
    fn bit_diff_detects_single_ulp_and_counter_changes() {
        let a = report(1.0, 100, 400);
        assert!(a.bit_diff(&a.clone()).is_none());
        let mut ulp = a.clone();
        ulp.seconds = f64::from_bits(ulp.seconds.to_bits() + 1);
        assert!(a.bit_diff(&ulp).unwrap().contains("seconds"));
        let mut cnt = a.clone();
        cnt.maccs += 1;
        assert!(a.bit_diff(&cnt).unwrap().contains("maccs"));
    }

    #[test]
    fn stage_partition_checks_sum_and_bit_diff_sees_stages() {
        let mut r = report(1.0, 100, 400);
        assert!(r.stage_partition_violation().is_none(), "empty stages always partition");
        let mut half = PhaseBreakdown::default();
        half.load.bytes = 50;
        r.phases.load.bytes = 100;
        r.stages.push(StagePhases { stage: "s0".into(), phases: half });
        assert!(r.stage_partition_violation().is_some(), "one half does not partition");
        r.stages.push(StagePhases { stage: "s1".into(), phases: half });
        assert!(r.stage_partition_violation().is_none(), "two halves partition");
        let mut other = r.clone();
        other.stages[1].stage = "renamed".into();
        assert!(r.bit_diff(&other).unwrap().contains("stages"));
    }

    #[test]
    fn dram_bound_uses_hierarchy_bandwidth() {
        let r = report(9.9, 68_250_000_000, 1);
        let h = HierarchySpec::default();
        assert!((r.dram_bound_seconds(&h) - 1.0).abs() < 0.01);
    }
}

//! Intersection-unit cycle models (paper §6.4, Figure 12).
//!
//! Inner-product-style dataflows spend their on-chip time intersecting
//! coordinate fibers. The paper evaluates three units:
//!
//! * **Skip-based serial** — ExTensor's unit: one pointer advance per
//!   cycle, with skipping (galloping) past mismatched runs.
//! * **Parallel** — a `P`-lane variant that advances up to `P` candidate
//!   comparisons per cycle.
//! * **Serial-optimal** — an oracle that sustains one effectual MACC per
//!   cycle per PE regardless of sparsity (visualizes potential).

/// Which intersection unit a PE uses.
///
/// # Example
///
/// ```rust
/// use drt_sim::intersect_unit::IntersectUnit;
///
/// // 1000 scan steps producing 80 matches:
/// let skip = IntersectUnit::SkipBased.cycles_from_counts(1000, 80);
/// let par = IntersectUnit::Parallel(32).cycles_from_counts(1000, 80);
/// let opt = IntersectUnit::SerialOptimal.cycles_from_counts(1000, 80);
/// assert!(skip >= par && par >= opt);
/// assert_eq!(opt, 80); // one effectual MACC per cycle
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntersectUnit {
    /// ExTensor's serial skip-based unit.
    SkipBased,
    /// Parallelized skip-based unit with the given lane count.
    Parallel(u32),
    /// Oracle: one effectual MACC per cycle (Figure 12's upper bound).
    SerialOptimal,
}

impl IntersectUnit {
    /// Cycles from aggregated work counters: `scan_steps` pointer advances
    /// and comparisons, summed over any number of fiber pairs, producing
    /// `matches` effectual MACCs. Lanes divide the scanning work, but every
    /// match still issues a MACC.
    pub fn cycles_from_counts(&self, scan_steps: u64, matches: u64) -> u64 {
        let serial = scan_steps.max(matches);
        match *self {
            IntersectUnit::SkipBased => serial,
            IntersectUnit::Parallel(p) => (serial.div_ceil(p.max(1) as u64)).max(matches),
            IntersectUnit::SerialOptimal => matches,
        }
    }

    /// Display name used in figures.
    pub fn label(&self) -> String {
        match *self {
            IntersectUnit::SkipBased => "Skip-Based".to_string(),
            IntersectUnit::Parallel(p) => format!("Parallel-{p}"),
            IntersectUnit::SerialOptimal => "Serial-Optimal".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_skip_ge_parallel_ge_optimal() {
        for (scan, matches) in [(0, 0), (1, 1), (1000, 80), (5000, 4999), (37, 100)] {
            let skip = IntersectUnit::SkipBased.cycles_from_counts(scan, matches);
            let par = IntersectUnit::Parallel(8).cycles_from_counts(scan, matches);
            let opt = IntersectUnit::SerialOptimal.cycles_from_counts(scan, matches);
            assert!(skip >= par, "skip {skip} >= parallel {par}");
            assert!(par >= opt, "parallel {par} >= optimal {opt}");
            assert_eq!(opt, matches);
        }
    }

    #[test]
    fn parallel_never_beats_match_count() {
        // Fully matching 64-long fibers: 64 MACCs minimum even with many lanes.
        assert_eq!(IntersectUnit::Parallel(1024).cycles_from_counts(128, 64), 64);
        for lanes in [1, 2, 8, 1024] {
            assert!(IntersectUnit::Parallel(lanes).cycles_from_counts(300, 90) >= 90);
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(IntersectUnit::SkipBased.label(), "Skip-Based");
        assert_eq!(IntersectUnit::Parallel(32).label(), "Parallel-32");
        assert_eq!(IntersectUnit::SerialOptimal.label(), "Serial-Optimal");
    }
}

//! PE-array model with round-robin task distribution.
//!
//! The paper's designs distribute tasks to PEs round-robin (§6.2: "we use
//! a round-robin distributor to choose which PEs evaluate each task. This
//! is not fundamental, but can lead to poor load balancing"). The array's
//! makespan is the busiest PE's cycle count.

/// A PE array executing a stream of per-task compute costs.
#[derive(Debug, Clone)]
pub struct PeArray {
    loads: Vec<u64>,
    next: usize,
    tasks: u64,
}

impl PeArray {
    /// An array of `num_pes` idle PEs.
    ///
    /// # Panics
    ///
    /// Panics when `num_pes == 0`.
    pub fn new(num_pes: u32) -> PeArray {
        assert!(num_pes > 0, "PE array needs at least one PE");
        PeArray { loads: vec![0; num_pes as usize], next: 0, tasks: 0 }
    }

    /// Assign a task costing `cycles` to the next PE round-robin.
    pub fn assign_round_robin(&mut self, cycles: u64) {
        self.loads[self.next] += cycles;
        self.next = (self.next + 1) % self.loads.len();
        self.tasks += 1;
    }

    /// Assign a task whose work can be split into `parallelism` equal
    /// sub-units (e.g. micro-tile pairs distributed by the LLB-level
    /// distributor): the work spreads over `min(parallelism, num_pes)`
    /// PEs, continuing round-robin from the current position.
    pub fn assign_parallel(&mut self, total_cycles: u64, parallelism: u64) {
        let lanes = (parallelism.max(1)).min(self.loads.len() as u64) as usize;
        let share = total_cycles / lanes as u64;
        let mut rem = total_cycles - share * lanes as u64;
        for _ in 0..lanes {
            let extra = if rem > 0 {
                rem -= 1;
                1
            } else {
                0
            };
            self.loads[self.next] += share + extra;
            self.next = (self.next + 1) % self.loads.len();
        }
        self.tasks += 1;
    }

    /// Makespan: the busiest PE's total cycles.
    pub fn makespan(&self) -> u64 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Total cycles across all PEs (the work volume).
    pub fn total_cycles(&self) -> u64 {
        self.loads.iter().sum()
    }

    /// Perfectly balanced makespan: `ceil(total / num_pes)` — the ideal
    /// distributor's lower bound.
    pub fn ideal_makespan(&self) -> u64 {
        self.total_cycles().div_ceil(self.loads.len() as u64)
    }

    /// Load imbalance: makespan over ideal makespan (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let ideal = self.ideal_makespan();
        if ideal == 0 {
            return 1.0;
        }
        self.makespan() as f64 / ideal as f64
    }

    /// Number of tasks assigned so far.
    pub fn tasks_assigned(&self) -> u64 {
        self.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_uniform_tasks_evenly() {
        let mut a = PeArray::new(4);
        for _ in 0..8 {
            a.assign_round_robin(10);
        }
        assert_eq!(a.makespan(), 20);
        assert_eq!(a.total_cycles(), 80);
        assert!((a.imbalance() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn round_robin_suffers_on_skewed_tasks() {
        let mut rr = PeArray::new(4);
        // One giant task followed by small ones landing on the same PE.
        let costs = [100, 1, 1, 1, 100, 1, 1, 1];
        for &c in &costs {
            rr.assign_round_robin(c);
        }
        assert_eq!(rr.makespan(), 200); // both 100s hit PE 0
    }

    #[test]
    fn ideal_makespan_is_total_over_pes() {
        let mut a = PeArray::new(3);
        a.assign_round_robin(10);
        a.assign_round_robin(20);
        assert_eq!(a.ideal_makespan(), 10);
        assert_eq!(a.tasks_assigned(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = PeArray::new(0);
    }
}

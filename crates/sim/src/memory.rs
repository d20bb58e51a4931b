//! Memory-system models: DRAM bandwidth/queuing and buffer specifications.
//!
//! The paper's accelerator configuration (§5.2.1): 1 GHz on-chip clock,
//! DRAM bandwidth matched to the CPU baseline (68.25 GB/s), a 30 MB global
//! buffer (LLB) and 32 KB PE-local buffers. Data transfers never exceed
//! peak bandwidth; phase times combine by overlap.

/// DRAM channel model: peak bandwidth plus burst granularity.
///
/// Requests are rounded up to whole bursts (the queuing model's only
/// microarchitectural effect — the paper notes ExTensor's access patterns
/// have high spatial locality, making a bandwidth model sufficient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Peak bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Burst (minimum transfer) size in bytes.
    pub burst_bytes: u32,
}

impl Default for DramModel {
    /// The paper's configuration: 68.25 GB/s, 64-byte bursts.
    fn default() -> Self {
        DramModel { bandwidth_bytes_per_sec: 68.25e9, burst_bytes: 64 }
    }
}

impl DramModel {
    /// Scale bandwidth by `factor` (Figure 12's 1×/2×/4×/8× sweep).
    pub fn scaled(&self, factor: f64) -> DramModel {
        DramModel { bandwidth_bytes_per_sec: self.bandwidth_bytes_per_sec * factor, ..*self }
    }

    /// Effective bytes transferred for a logical transfer of `bytes`
    /// (rounded up to bursts). A zero-byte transfer costs nothing.
    pub fn effective_bytes(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(self.burst_bytes as u64) * self.burst_bytes as u64
    }

    /// Seconds to move `bytes` at peak bandwidth.
    pub fn seconds_for(&self, bytes: u64) -> f64 {
        self.effective_bytes(bytes) as f64 / self.bandwidth_bytes_per_sec
    }
}

/// One on-chip buffer level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferSpec {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Read/write ports (2 enables the extractor's distribute overlap).
    pub ports: u8,
}

/// The paper's accelerator memory hierarchy (§5.2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchySpec {
    /// Global buffer (LLB).
    pub llb: BufferSpec,
    /// One PE's local buffer.
    pub pe_buffer: BufferSpec,
    /// Number of PEs.
    pub num_pes: u32,
    /// On-chip clock in Hz.
    pub clock_hz: f64,
    /// DRAM channel.
    pub dram: DramModel,
}

impl Default for HierarchySpec {
    /// 30 MB LLB, 32 KB PE buffers, 128 PEs, 1 GHz, 68.25 GB/s.
    fn default() -> Self {
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: 30 * 1024 * 1024, ports: 2 },
            pe_buffer: BufferSpec { capacity_bytes: 32 * 1024, ports: 2 },
            num_pes: 128,
            clock_hz: 1.0e9,
            dram: DramModel::default(),
        }
    }
}

impl HierarchySpec {
    /// A proportionally shrunken hierarchy for scaled-down workloads:
    /// buffer capacities divided by `scale` (clock, PEs, and bandwidth
    /// unchanged, so time ratios are preserved).
    pub fn scaled_down(&self, scale: u64) -> HierarchySpec {
        let s = scale.max(1);
        HierarchySpec {
            llb: BufferSpec { capacity_bytes: (self.llb.capacity_bytes / s).max(4096), ..self.llb },
            pe_buffer: BufferSpec {
                capacity_bytes: (self.pe_buffer.capacity_bytes / s).max(512),
                ..self.pe_buffer
            },
            ..*self
        }
    }

    /// Runtime in seconds of a phase that moves `bytes` from DRAM while
    /// computing for `compute_cycles`: bandwidth-bound or compute-bound,
    /// whichever dominates (full overlap, the paper's queuing abstraction).
    pub fn phase_seconds(&self, bytes: u64, compute_cycles: u64) -> f64 {
        let mem = self.dram.seconds_for(bytes);
        let cmp = compute_cycles as f64 / self.clock_hz;
        mem.max(cmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_round_up() {
        let d = DramModel::default();
        assert_eq!(d.effective_bytes(0), 0);
        assert_eq!(d.effective_bytes(1), 64);
        assert_eq!(d.effective_bytes(64), 64);
        assert_eq!(d.effective_bytes(65), 128);
    }

    #[test]
    fn bandwidth_scaling_halves_time() {
        let d = DramModel::default();
        let d2 = d.scaled(2.0);
        assert!((d.seconds_for(1 << 20) / d2.seconds_for(1 << 20) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phase_takes_max_of_memory_and_compute() {
        let h = HierarchySpec::default();
        // Memory-bound: 68.25 GB at 68.25 GB/s ≈ 1 s vs tiny compute.
        let t = h.phase_seconds(68_250_000_000, 1000);
        assert!((t - 1.0).abs() < 0.01);
        // Compute-bound: 2e9 cycles at 1 GHz = 2 s vs tiny transfer.
        let t = h.phase_seconds(64, 2_000_000_000);
        assert!((t - 2.0).abs() < 1e-6);
    }

    #[test]
    fn scaled_down_keeps_floors() {
        let h = HierarchySpec::default().scaled_down(1 << 30);
        assert_eq!(h.llb.capacity_bytes, 4096);
        assert_eq!(h.pe_buffer.capacity_bytes, 512);
    }

    #[test]
    fn default_matches_paper_config() {
        let h = HierarchySpec::default();
        assert_eq!(h.num_pes, 128);
        assert_eq!(h.llb.capacity_bytes, 30 * 1024 * 1024);
        assert_eq!(h.pe_buffer.capacity_bytes, 32 * 1024);
        assert!((h.dram.bandwidth_bytes_per_sec - 68.25e9).abs() < 1.0);
    }
}

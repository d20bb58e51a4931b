//! Tiling configuration: buffer partitions, growth strategy, initial sizes.

use crate::RankId;
use drt_tensor::format::SizeModel;
use std::collections::BTreeMap;

/// Order in which `growDims` visits a tensor's dimensions (Algorithm 2's
/// `selectDimToGrow`, paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GrowthOrder {
    /// Default: grow each tensor's *contracted* ranks to exhaustion first,
    /// then its uncontracted ranks. Produces tiles long in the contracted
    /// dimension, maximizing output locality (Figure 15 shows this wins).
    #[default]
    ContractedFirst,
    /// Ablation: alternate one step per dimension, keeping tiles roughly
    /// square to balance input/output locality (used by the software DRT in
    /// Study 3 and by Figure 15).
    Alternating,
}

/// Static buffer partitioning across tensors (paper §5.2.4: all on-chip
/// buffers are statically split, e.g. A 5% / B 45% / Z 50%).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Partitions {
    bytes: BTreeMap<String, u64>,
}

impl Partitions {
    /// Build from explicit per-tensor byte budgets.
    pub fn from_bytes(entries: &[(&str, u64)]) -> Partitions {
        Partitions { bytes: entries.iter().map(|&(n, b)| (n.to_string(), b)).collect() }
    }

    /// Split a total capacity by fractional shares, e.g.
    /// `split(llb, &[("A", 0.05), ("B", 0.45), ("Z", 0.5)])`.
    ///
    /// # Panics
    ///
    /// Panics when a share is negative or the shares sum to more than 1.001.
    pub fn split(total_bytes: u64, shares: &[(&str, f64)]) -> Partitions {
        let sum: f64 = shares.iter().map(|&(_, s)| s).sum();
        assert!(shares.iter().all(|&(_, s)| s >= 0.0), "shares must be non-negative");
        assert!(sum <= 1.001, "shares sum to {sum}, over capacity");
        Partitions {
            bytes: shares
                .iter()
                .map(|&(n, s)| (n.to_string(), (total_bytes as f64 * s) as u64))
                .collect(),
        }
    }

    /// The byte budget for a tensor (0 when absent).
    pub fn get(&self, name: &str) -> u64 {
        self.bytes.get(name).copied().unwrap_or(0)
    }

    /// Total bytes across all partitions.
    pub fn total(&self) -> u64 {
        self.bytes.values().sum()
    }
}

/// Full configuration of one DRT invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DrtConfig {
    /// Buffer partition per tensor (inputs and output), in bytes.
    pub partitions: Partitions,
    /// Dimension-growth strategy.
    pub growth: GrowthOrder,
    /// Starting tile size per rank in *coordinates* (Algorithm 1 line 5;
    /// Figure 16 sweeps this). Ranks not listed start at one micro tile.
    pub initial_sizes: BTreeMap<RankId, u32>,
    /// Micro tiles added per grow attempt (Algorithm 2's `n`; default 1).
    pub grow_step: u32,
    /// Byte-accounting parameters (coordinate / segment / value widths)
    /// used for every footprint measurement under this configuration.
    pub size_model: SizeModel,
}

impl DrtConfig {
    /// Default configuration with the given partitions: contracted-first
    /// growth, one-micro-tile initial sizes, grow step 1.
    pub fn new(partitions: Partitions) -> DrtConfig {
        DrtConfig {
            partitions,
            growth: GrowthOrder::default(),
            initial_sizes: BTreeMap::new(),
            grow_step: 1,
            size_model: SizeModel::default(),
        }
    }

    /// Builder-style: set the growth order.
    pub fn with_growth(mut self, growth: GrowthOrder) -> DrtConfig {
        self.growth = growth;
        self
    }

    /// Builder-style: set a rank's starting tile size (in coordinates).
    pub fn with_initial_size(mut self, rank: RankId, coords: u32) -> DrtConfig {
        self.initial_sizes.insert(rank, coords);
        self
    }

    /// Builder-style: set the grow step (micro tiles per attempt).
    ///
    /// # Panics
    ///
    /// Panics when `step == 0`.
    pub fn with_grow_step(mut self, step: u32) -> DrtConfig {
        assert!(step > 0, "grow step must be positive");
        self.grow_step = step;
        self
    }

    /// Builder-style: set the byte-accounting size model.
    pub fn with_size_model(mut self, sm: SizeModel) -> DrtConfig {
        self.size_model = sm;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_allocates_fractions() {
        let p = Partitions::split(1000, &[("A", 0.25), ("B", 0.5), ("Z", 0.25)]);
        assert_eq!(p.get("A"), 250);
        assert_eq!(p.get("B"), 500);
        assert_eq!(p.get("Z"), 250);
        assert_eq!(p.get("missing"), 0);
        assert_eq!(p.total(), 1000);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn split_rejects_over_allocation() {
        let _ = Partitions::split(100, &[("A", 0.7), ("B", 0.7)]);
    }

    #[test]
    fn builder_chains() {
        let c = DrtConfig::new(Partitions::from_bytes(&[("A", 10)]))
            .with_growth(GrowthOrder::Alternating)
            .with_initial_size('j', 64)
            .with_grow_step(2);
        assert_eq!(c.growth, GrowthOrder::Alternating);
        assert_eq!(c.initial_sizes[&'j'], 64);
        assert_eq!(c.grow_step, 2);
    }
}

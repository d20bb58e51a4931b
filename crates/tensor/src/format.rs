//! Footprint accounting for `T-[uc]+` formats.
//!
//! The paper (Section 2.2) classifies compressed representations by whether
//! each dimension is **U**ncompressed or **C**ompressed: CSR is `T-UC`, CSF
//! is all-compressed, and so on. All DRAM-traffic accounting in the simulators is expressed in
//! bytes of *footprint* — metadata plus data for a tensor in a given
//! representation — so this module is the single source of truth for byte
//! counts.

use crate::{CsMatrix, CsfTensor};

/// Word sizes used to convert element counts into bytes.
///
/// Defaults match the accelerator literature: 4-byte coordinates and segment
/// pointers, 8-byte double-precision values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeModel {
    /// Bytes per coordinate entry.
    pub coord_bytes: usize,
    /// Bytes per segment-array entry.
    pub seg_bytes: usize,
    /// Bytes per data value.
    pub value_bytes: usize,
}

impl Default for SizeModel {
    fn default() -> Self {
        SizeModel { coord_bytes: 4, seg_bytes: 4, value_bytes: 8 }
    }
}

impl SizeModel {
    /// Footprint in bytes of a compressed matrix stored as `T-UC`
    /// (CSR/CSC): segment array + coordinate array + values.
    pub fn cs_matrix_bytes(&self, m: &CsMatrix) -> usize {
        (m.major_dim() as usize + 1) * self.seg_bytes
            + m.nnz() * self.coord_bytes
            + m.nnz() * self.value_bytes
    }

    /// Footprint in bytes of a CSF tensor (all-compressed levels).
    pub fn csf_bytes(&self, t: &CsfTensor) -> usize {
        let mut bytes = 0;
        for l in 0..t.ndim() {
            bytes += t.level_len(l) * self.coord_bytes;
            // One segment entry per fiber plus a terminator; #fibers at
            // level l equals #coords at level l-1 (1 at the root).
            let fibers = if l == 0 { 1 } else { t.level_len(l - 1) };
            bytes += (fibers + 1) * self.seg_bytes;
        }
        bytes + t.nnz() * self.value_bytes
    }

    /// Footprint in bytes of `nnz` values plus their per-value coordinates
    /// only (COO-like payload, used for partial-product traffic in
    /// outer-product dataflows). `ndim` coordinates per value.
    pub fn coo_bytes(&self, nnz: usize, ndim: usize) -> usize {
        nnz * (self.value_bytes + ndim * self.coord_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooMatrix, MajorAxis};

    #[test]
    fn cs_matrix_footprint_counts_all_arrays() {
        let coo = CooMatrix::from_triplets(4, 4, vec![(0, 1, 1.0), (2, 3, 2.0)]).expect("ok");
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let sm = SizeModel::default();
        // seg: 5 * 4 = 20; coords: 2 * 4 = 8; vals: 2 * 8 = 16.
        assert_eq!(sm.cs_matrix_bytes(&m), 20 + 8 + 16);
    }

    #[test]
    fn csf_footprint_matches_levels() {
        let mut coo = crate::CooTensor::new(vec![4, 4, 4]);
        coo.push(&[0, 1, 2], 1.0).expect("ok");
        coo.push(&[0, 1, 3], 1.0).expect("ok");
        let t = crate::CsfTensor::from_coo(coo);
        let sm = SizeModel::default();
        // coords: level0=1, level1=1, level2=2 → 4*4=16 bytes
        // segs: (1+1) + (1+1) + (1+1) = 6 entries → 24 bytes
        // vals: 2*8 = 16 bytes
        assert_eq!(sm.csf_bytes(&t), 16 + 24 + 16);
    }

    #[test]
    fn coo_bytes_scale_with_rank() {
        let sm = SizeModel::default();
        assert_eq!(sm.coo_bytes(3, 2), 3 * (8 + 8));
        assert_eq!(sm.coo_bytes(3, 3), 3 * (8 + 12));
    }
}

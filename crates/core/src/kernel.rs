//! Einsum kernels: tensors bound to micro grids, with rank bookkeeping.
//!
//! A [`Kernel`] describes one Einsum task space — e.g. SpMSpM
//! (`Z_ij = A_ik · B_kj`) or Gram (`G_il = χ_ijk · χ_ljk`) — by binding each
//! input tensor's micro grid to named ranks. Ranks appearing in inputs but
//! not the output are *contracted* (reduced over); the rest are
//! uncontracted (paper §2.1). The tiling algorithms consume kernels
//! directly: co-tiling constraints propagate through shared rank names.

use crate::micro::{MicroFormat, MicroGrid};
use crate::{CoreError, RankId};
use drt_tensor::{CsMatrix, CsfTensor};
use std::collections::BTreeMap;
use std::ops::Range;

/// One input tensor bound to ranks.
#[derive(Debug, Clone)]
pub struct TensorBinding {
    /// Display name ("A", "B", …) — also the buffer-partition key.
    pub name: String,
    /// Rank bound to each grid dimension, in grid-dimension order.
    pub ranks: Vec<RankId>,
    /// The tensor's micro-tile grid.
    pub grid: MicroGrid,
}

/// `BadConfig` unless `A`'s column count equals `B`'s row count, so that
/// `Z = A · B` chains.
pub fn check_inner_dims(a: &CsMatrix, b: &CsMatrix) -> Result<(), CoreError> {
    if a.ncols() == b.nrows() {
        return Ok(());
    }
    let (ar, ac, br, bc) = (a.nrows(), a.ncols(), b.nrows(), b.ncols());
    let detail = format!("inner dims disagree: A is {ar}x{ac}, B is {br}x{bc}");
    Err(CoreError::BadConfig { detail })
}

/// An Einsum kernel over bound input tensors.
#[derive(Debug, Clone)]
pub struct Kernel {
    inputs: Vec<TensorBinding>,
    output_name: String,
    output_ranks: Vec<RankId>,
    extents: BTreeMap<RankId, u32>,
    micro_steps: BTreeMap<RankId, u32>,
}

impl Kernel {
    /// Builds a kernel from explicit bindings and the output's rank list.
    ///
    /// # Errors
    ///
    /// Returns an error when bindings disagree on a shared rank's extent or
    /// micro step, when a binding's rank count mismatches its grid, or when
    /// an output rank never appears in any input.
    pub fn new(
        inputs: Vec<TensorBinding>,
        output_name: impl Into<String>,
        output_ranks: Vec<RankId>,
    ) -> Result<Kernel, CoreError> {
        let mut extents: BTreeMap<RankId, u32> = BTreeMap::new();
        let mut micro_steps: BTreeMap<RankId, u32> = BTreeMap::new();
        for b in &inputs {
            if b.ranks.len() != b.grid.ndim() {
                return Err(CoreError::BadConfig {
                    detail: format!(
                        "tensor {} binds {} ranks but its grid has {} dims",
                        b.name,
                        b.ranks.len(),
                        b.grid.ndim()
                    ),
                });
            }
            for (d, &r) in b.ranks.iter().enumerate() {
                let extent = b.grid.dims()[d];
                let step = b.grid.micro_shape()[d];
                if let Some(&e) = extents.get(&r) {
                    if e != extent {
                        return Err(CoreError::InconsistentExtent {
                            rank: r,
                            extents: (e, extent),
                        });
                    }
                } else {
                    extents.insert(r, extent);
                }
                if let Some(&s) = micro_steps.get(&r) {
                    if s != step {
                        return Err(CoreError::InconsistentMicroStep { rank: r, steps: (s, step) });
                    }
                } else {
                    micro_steps.insert(r, step);
                }
            }
        }
        for &r in &output_ranks {
            if !extents.contains_key(&r) {
                return Err(CoreError::BadConfig {
                    detail: format!("output rank {r} does not appear in any input"),
                });
            }
        }
        Ok(Kernel { inputs, output_name: output_name.into(), output_ranks, extents, micro_steps })
    }

    /// SpMSpM: `Z_ij = A_ik · B_kj` with ranks `i`, `k`, `j` and the given
    /// 2-D micro-tile shape (applied to both operands; `A` is gridded
    /// `(i, k)`, `B` is gridded `(k, j)` — `k`'s micro step is
    /// `micro.1` for `A` and `micro.0` for `B`, so pass a square shape for
    /// co-tiling unless the operands have been pre-gridded externally).
    ///
    /// # Errors
    ///
    /// Propagates grid-construction and consistency errors; in particular a
    /// non-square micro shape fails co-tiling on `k`.
    pub fn spmspm(a: &CsMatrix, b: &CsMatrix, micro: (u32, u32)) -> Result<Kernel, CoreError> {
        Self::spmspm_fmt(a, b, micro, MicroFormat::default())
    }

    /// [`Kernel::spmspm`] with an explicit micro-tile representation
    /// (the software study uses plain `T-UC` micro tiles).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::spmspm`].
    pub fn spmspm_fmt(
        a: &CsMatrix,
        b: &CsMatrix,
        micro: (u32, u32),
        format: MicroFormat,
    ) -> Result<Kernel, CoreError> {
        check_inner_dims(a, b)?;
        let ga = MicroGrid::from_matrix_fmt(a, micro, format)?;
        let gb = MicroGrid::from_matrix_fmt(b, micro, format)?;
        Kernel::new(
            vec![
                TensorBinding { name: "A".into(), ranks: vec!['i', 'k'], grid: ga },
                TensorBinding { name: "B".into(), ranks: vec!['k', 'j'], grid: gb },
            ],
            "Z",
            vec!['i', 'j'],
        )
    }

    /// Gram: `G_il = χ_ijk · χ_ljk` — contract a 3-tensor with itself over
    /// ranks `j` and `k` (paper §5.1.2). Both operands share the same
    /// underlying tensor; the second is bound with `i` renamed to `l`.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction errors.
    pub fn gram(x: &CsfTensor, micro: &[u32; 3]) -> Result<Kernel, CoreError> {
        let g = MicroGrid::from_csf(x, micro)?;
        Kernel::new(
            vec![
                TensorBinding { name: "X".into(), ranks: vec!['i', 'j', 'k'], grid: g.clone() },
                TensorBinding { name: "Y".into(), ranks: vec!['l', 'j', 'k'], grid: g },
            ],
            "G",
            vec!['i', 'l'],
        )
    }

    /// MTTKRP: `M_ir = Σ_jk χ_ijk · B_jr · C_kr` — the tensor-decomposition
    /// workhorse (Table 2's MTTKRP). Only the sparse 3-tensor participates
    /// in tiling: the dense factor matrices have trivially uniform
    /// occupancy, so the kernel binds `X` alone over ranks `i`, `j`, `k`
    /// and contracts `j` and `k` (the dense rank `r` is swept outside the
    /// co-tiled space). The pipeline layer charges factor-row traffic per
    /// task from the tile's `j`/`k` ranges.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction errors.
    pub fn mttkrp(x: &CsfTensor, micro: &[u32; 3]) -> Result<Kernel, CoreError> {
        let g = MicroGrid::from_csf(x, micro)?;
        Kernel::new(
            vec![TensorBinding { name: "X".into(), ranks: vec!['i', 'j', 'k'], grid: g }],
            "M",
            vec!['i'],
        )
    }

    /// TTV: `Y_ij = Σ_k χ_ijk · v_k` — tensor-times-vector (Table 2's
    /// TTM/V). Like [`Kernel::mttkrp`], only the sparse tensor is tiled;
    /// the dense vector's `k`-window traffic is charged per task.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction errors.
    pub fn ttv(x: &CsfTensor, micro: &[u32; 3]) -> Result<Kernel, CoreError> {
        let g = MicroGrid::from_csf(x, micro)?;
        Kernel::new(
            vec![TensorBinding { name: "X".into(), ranks: vec!['i', 'j', 'k'], grid: g }],
            "Y",
            vec!['i', 'j'],
        )
    }

    /// SDDMM sampling stage: `S_ij = A_ij · (U · Vᵀ)_ij`, computed only on
    /// `A`'s non-zero positions. The sampling matrix alone drives tiling
    /// (the dense factors are uniform); no rank is contracted — the output
    /// inherits both ranks — so DRT grows `(i, j)` boxes over `A`'s
    /// occupancy exactly as it would over an operand of a contraction.
    ///
    /// # Errors
    ///
    /// Propagates grid-construction errors.
    pub fn sddmm(a: &CsMatrix, micro: (u32, u32)) -> Result<Kernel, CoreError> {
        Self::sddmm_fmt(a, micro, MicroFormat::default())
    }

    /// [`Kernel::sddmm`] with an explicit micro-tile representation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Kernel::sddmm`].
    pub fn sddmm_fmt(
        a: &CsMatrix,
        micro: (u32, u32),
        format: MicroFormat,
    ) -> Result<Kernel, CoreError> {
        let g = MicroGrid::from_matrix_fmt(a, micro, format)?;
        Kernel::new(
            vec![TensorBinding { name: "A".into(), ranks: vec!['i', 'j'], grid: g }],
            "S",
            vec!['i', 'j'],
        )
    }

    /// The input bindings, in declaration order.
    pub fn inputs(&self) -> &[TensorBinding] {
        &self.inputs
    }

    /// Look up an input binding by name.
    pub fn input(&self, name: &str) -> Option<&TensorBinding> {
        self.inputs.iter().find(|b| b.name == name)
    }

    /// The output tensor's name.
    pub fn output_name(&self) -> &str {
        &self.output_name
    }

    /// The output tensor's ranks.
    pub fn output_ranks(&self) -> &[RankId] {
        &self.output_ranks
    }

    /// All ranks of the kernel, in sorted order.
    pub fn ranks(&self) -> Vec<RankId> {
        self.extents.keys().copied().collect()
    }

    /// Coordinate extent of a rank.
    ///
    /// # Panics
    ///
    /// Panics when the rank is not part of this kernel.
    pub fn extent(&self, r: RankId) -> u32 {
        self.extents[&r]
    }

    /// Micro-tile step of a rank (coordinates per micro tile along it).
    ///
    /// # Panics
    ///
    /// Panics when the rank is not part of this kernel.
    pub fn micro_step(&self, r: RankId) -> u32 {
        self.micro_steps[&r]
    }

    /// Grid extent of a rank: how many micro-tile units span it (at least
    /// one, even for zero-extent ranks, so degenerate shapes still form a
    /// non-empty iteration space).
    ///
    /// # Panics
    ///
    /// Panics when the rank is not part of this kernel.
    pub fn grid_extent(&self, r: RankId) -> u32 {
        self.extent(r).div_ceil(self.micro_step(r)).max(1)
    }

    /// The kernel's full iteration space in grid units: each rank mapped
    /// to `0..grid_extent`. Task streams tile exactly this space, so
    /// external invariant checkers (`drt-verify`) compare task coverage
    /// against it.
    pub fn full_grid_region(&self) -> BTreeMap<RankId, Range<u32>> {
        self.ranks().into_iter().map(|r| (r, 0..self.grid_extent(r))).collect()
    }

    /// Whether a rank is contracted (appears in inputs but not the output).
    pub fn is_contracted(&self, r: RankId) -> bool {
        self.extents.contains_key(&r) && !self.output_ranks.contains(&r)
    }

    /// Validate a loop order: every kernel rank exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadLoopOrder`] on duplicates or missing ranks.
    pub fn validate_loop_order(&self, order: &[RankId]) -> Result<(), CoreError> {
        let mut seen = std::collections::BTreeSet::new();
        for &r in order {
            if !self.extents.contains_key(&r) {
                return Err(CoreError::BadLoopOrder { detail: format!("rank {r} not in kernel") });
            }
            if !seen.insert(r) {
                return Err(CoreError::BadLoopOrder { detail: format!("rank {r} repeated") });
            }
        }
        if seen.len() != self.extents.len() {
            return Err(CoreError::BadLoopOrder {
                detail: format!("order covers {} of {} ranks", seen.len(), self.extents.len()),
            });
        }
        Ok(())
    }

    /// Indices of `self.inputs()` ordered most-stationary first under the
    /// given loop order (Algorithm 1's `sortByStationarity`).
    ///
    /// A tensor's stationarity is governed by the innermost loop rank that
    /// indexes it: tensors untouched by fast-changing loops stay resident
    /// longer and are tiled first.
    pub fn stationarity_order(&self, loop_order: &[RankId]) -> Vec<usize> {
        let pos = |r: RankId| loop_order.iter().position(|&x| x == r).unwrap_or(usize::MAX);
        let mut idx: Vec<usize> = (0..self.inputs.len()).collect();
        idx.sort_by_key(|&i| {
            let deepest = self.inputs[i].ranks.iter().map(|&r| pos(r)).max().unwrap_or(0);
            (deepest, i)
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_workloads::patterns::unstructured;

    fn kernel() -> Kernel {
        let a = unstructured(64, 48, 300, 2.0, 1);
        let b = unstructured(48, 64, 300, 2.0, 2);
        Kernel::spmspm(&a, &b, (4, 4)).expect("valid kernel")
    }

    #[test]
    fn spmspm_ranks_and_extents() {
        let k = kernel();
        assert_eq!(k.ranks(), vec!['i', 'j', 'k']);
        assert_eq!(k.extent('i'), 64);
        assert_eq!(k.extent('k'), 48);
        assert_eq!(k.extent('j'), 64);
        assert!(k.is_contracted('k'));
        assert!(!k.is_contracted('i'));
        assert_eq!(k.micro_step('k'), 4);
    }

    #[test]
    fn spmspm_rejects_mismatched_inner_dims() {
        let a = unstructured(8, 8, 10, 2.0, 1);
        let b = unstructured(16, 8, 10, 2.0, 2);
        assert!(Kernel::spmspm(&a, &b, (4, 4)).is_err());
    }

    #[test]
    fn loop_order_validation() {
        let k = kernel();
        assert!(k.validate_loop_order(&['j', 'k', 'i']).is_ok());
        assert!(k.validate_loop_order(&['j', 'k']).is_err());
        assert!(k.validate_loop_order(&['j', 'k', 'k']).is_err());
        assert!(k.validate_loop_order(&['j', 'k', 'x']).is_err());
    }

    #[test]
    fn stationarity_prefers_tensor_with_shallow_deepest_rank() {
        let k = kernel();
        // J → K → I: B(k,j) has deepest rank K (pos 1); A(i,k) has I (pos 2).
        // B is more stationary.
        let order = k.stationarity_order(&['j', 'k', 'i']);
        assert_eq!(k.inputs()[order[0]].name, "B");
        assert_eq!(k.inputs()[order[1]].name, "A");
        // I → J → K: both have deepest rank K; declaration order breaks the tie.
        let order = k.stationarity_order(&['i', 'j', 'k']);
        assert_eq!(k.inputs()[order[0]].name, "A");
    }

    #[test]
    fn gram_contracts_j_and_k() {
        let t = drt_workloads::tensor3::skewed_tensor(16, 16, 16, 200, 1);
        let k = Kernel::gram(&t, &[4, 4, 4]).expect("valid");
        assert_eq!(k.ranks(), vec!['i', 'j', 'k', 'l']);
        assert!(k.is_contracted('j'));
        assert!(k.is_contracted('k'));
        assert!(!k.is_contracted('i'));
        assert!(!k.is_contracted('l'));
        assert_eq!(k.extent('i'), k.extent('l'));
    }

    #[test]
    fn mttkrp_contracts_j_and_k_only() {
        let t = drt_workloads::tensor3::skewed_tensor(12, 10, 8, 100, 2);
        let k = Kernel::mttkrp(&t, &[4, 4, 4]).expect("valid");
        assert_eq!(k.ranks(), vec!['i', 'j', 'k']);
        assert_eq!(k.output_ranks(), &['i']);
        assert!(k.is_contracted('j') && k.is_contracted('k'));
        assert!(!k.is_contracted('i'));
        assert_eq!(k.extent('i'), 12);
        assert_eq!(k.extent('j'), 10);
        assert_eq!(k.extent('k'), 8);
    }

    #[test]
    fn ttv_contracts_k_only() {
        let t = drt_workloads::tensor3::skewed_tensor(12, 10, 8, 100, 3);
        let k = Kernel::ttv(&t, &[4, 4, 4]).expect("valid");
        assert_eq!(k.output_ranks(), &['i', 'j']);
        assert!(k.is_contracted('k'));
        assert!(!k.is_contracted('i') && !k.is_contracted('j'));
    }

    #[test]
    fn sddmm_contracts_nothing() {
        let a = unstructured(24, 16, 60, 2.0, 4);
        let k = Kernel::sddmm(&a, (4, 4)).expect("valid");
        assert_eq!(k.ranks(), vec!['i', 'j']);
        assert_eq!(k.output_ranks(), &['i', 'j']);
        assert!(!k.is_contracted('i') && !k.is_contracted('j'));
        assert!(k.validate_loop_order(&['i', 'j']).is_ok());
    }

    #[test]
    fn inconsistent_micro_step_rejected() {
        let a = unstructured(32, 32, 50, 2.0, 1);
        let b = unstructured(32, 32, 50, 2.0, 2);
        let ga = MicroGrid::from_matrix(&a, (4, 8)).expect("valid");
        let gb = MicroGrid::from_matrix(&b, (4, 8)).expect("valid");
        // A's k step is 8 (dim 1), B's k step is 4 (dim 0) → co-tiling impossible.
        let err = Kernel::new(
            vec![
                TensorBinding { name: "A".into(), ranks: vec!['i', 'k'], grid: ga },
                TensorBinding { name: "B".into(), ranks: vec!['k', 'j'], grid: gb },
            ],
            "Z",
            vec!['i', 'j'],
        );
        assert!(matches!(err, Err(CoreError::InconsistentMicroStep { rank: 'k', .. })));
    }

    #[test]
    fn output_rank_must_exist() {
        let a = unstructured(16, 16, 20, 2.0, 1);
        let g = MicroGrid::from_matrix(&a, (4, 4)).expect("valid");
        let err = Kernel::new(
            vec![TensorBinding { name: "A".into(), ranks: vec!['i', 'k'], grid: g }],
            "Z",
            vec!['i', 'q'],
        );
        assert!(err.is_err());
    }
}

//! Dense/naive reference oracles and ULP-tolerance comparison.
//!
//! The paper's core claim is that DRT changes *data orchestration only*:
//! every variant must compute the same `Z = A · B` (or Gram) a
//! naive dense evaluation produces. The oracles here are deliberately the
//! dumbest possible implementations — dense triple loops — so they share
//! no code, formats, or iteration order with the simulated machines.

use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix};

/// Units in the last place between two doubles: 0 for identical values
/// (including `+0.0` vs `-0.0`), `u64::MAX` when either is non-finite and
/// they differ. Uses the standard monotonic reinterpretation of the IEEE
/// bit pattern, so the distance is well-defined across zero.
pub fn ulp_diff(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if !a.is_finite() || !b.is_finite() {
        return u64::MAX;
    }
    let d = monotonic(a) - monotonic(b);
    u64::try_from(d.unsigned_abs()).unwrap_or(u64::MAX)
}

/// Map a finite double to an integer that is monotonic in the real it
/// represents: non-negative floats keep their bit pattern, negative
/// floats mirror below zero.
fn monotonic(x: f64) -> i128 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        -((bits & 0x7fff_ffff_ffff_ffff) as i128)
    } else {
        bits as i128
    }
}

/// Dense reference SpMSpM: densify both operands and multiply with the
/// classic `i`/`j`/`k` triple loop.
pub fn dense_spmspm(a: &CsMatrix, b: &CsMatrix) -> DenseMatrix {
    DenseMatrix::from_sparse(a).matmul(&DenseMatrix::from_sparse(b))
}

/// Dense reference Gram: `G[i][l] = Σ_{j,k} X[i][j][k] · X[l][j][k]`,
/// evaluated by brute force over the full dense box.
pub fn dense_gram(x: &CsfTensor) -> DenseMatrix {
    let shape = x.shape();
    let (ni, nj, nk) = (shape[0], shape[1], shape[2]);
    let mut dense = vec![0.0f64; (ni as usize) * (nj as usize) * (nk as usize)];
    for (pt, v) in x.iter_points() {
        let idx = (pt[0] as usize * nj as usize + pt[1] as usize) * nk as usize + pt[2] as usize;
        dense[idx] += v;
    }
    let mut g = DenseMatrix::zeros(ni, ni);
    let plane = (nj as usize) * (nk as usize);
    for i in 0..ni as usize {
        for l in 0..ni as usize {
            let (xi, xl) = (&dense[i * plane..(i + 1) * plane], &dense[l * plane..(l + 1) * plane]);
            let dot: f64 = xi.iter().zip(xl).map(|(p, q)| p * q).sum();
            g.set(i as u32, l as u32, dot);
        }
    }
    g
}

/// Dense reference MTTKRP: `M[i][r] = Σ_{j,k} X[i][j][k] · B[j][r] ·
/// C[k][r]`, evaluated by brute force over the full dense box.
pub fn dense_mttkrp(x: &CsfTensor, b: &DenseMatrix, c: &DenseMatrix) -> DenseMatrix {
    let shape = x.shape();
    let (ni, nj, nk) = (shape[0], shape[1], shape[2]);
    let rank = b.ncols();
    let mut dense = vec![0.0f64; ni as usize * nj as usize * nk as usize];
    for (pt, v) in x.iter_points() {
        let idx = (pt[0] as usize * nj as usize + pt[1] as usize) * nk as usize + pt[2] as usize;
        dense[idx] += v;
    }
    let mut m = DenseMatrix::zeros(ni, rank);
    for i in 0..ni {
        for r in 0..rank {
            let mut acc = 0.0f64;
            for j in 0..nj {
                for k in 0..nk {
                    let idx = (i as usize * nj as usize + j as usize) * nk as usize + k as usize;
                    acc += dense[idx] * b.get(j, r) * c.get(k, r);
                }
            }
            m.set(i, r, acc);
        }
    }
    m
}

/// Dense reference TTV: `Y[i][j] = Σ_k X[i][j][k] · v[k]` over the full
/// dense box.
pub fn dense_ttv(x: &CsfTensor, v: &[f64]) -> DenseMatrix {
    let shape = x.shape();
    let (ni, nj, nk) = (shape[0], shape[1], shape[2]);
    let mut dense = vec![0.0f64; ni as usize * nj as usize * nk as usize];
    for (pt, val) in x.iter_points() {
        let idx = (pt[0] as usize * nj as usize + pt[1] as usize) * nk as usize + pt[2] as usize;
        dense[idx] += val;
    }
    let mut y = DenseMatrix::zeros(ni, nj);
    for i in 0..ni {
        for j in 0..nj {
            let mut acc = 0.0f64;
            for k in 0..nk {
                let idx = (i as usize * nj as usize + j as usize) * nk as usize + k as usize;
                acc += dense[idx] * v[k as usize];
            }
            y.set(i, j, acc);
        }
    }
    y
}

/// Dense reference fused SDDMM→SpMM:
/// `Z = (dense(A) ⊙ (U · Vᵀ)) · H`, everything densified — the sampled
/// intermediate is a full dense matrix here, so the reference shares no
/// residency discipline with the fused pipeline.
pub fn dense_sddmm_spmm(
    a: &CsMatrix,
    u: &DenseMatrix,
    v: &DenseMatrix,
    h: &DenseMatrix,
) -> DenseMatrix {
    let ad = DenseMatrix::from_sparse(a);
    let rank = u.ncols();
    let mut s = DenseMatrix::zeros(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            let dot: f64 = (0..rank).map(|r| u.get(i, r) * v.get(j, r)).sum();
            s.set(i, j, ad.get(i, j) * dot);
        }
    }
    s.matmul(h)
}

/// Dense reference A·B·C chain: two dense matmuls, left to right.
pub fn dense_abc(a: &CsMatrix, b: &CsMatrix, c: &CsMatrix) -> DenseMatrix {
    dense_spmspm(a, b).matmul(&DenseMatrix::from_sparse(c))
}

/// Per-cell absolute tolerance for `Z = A · B` under *any* accumulation
/// order: the classic forward error bound for recursive summation,
/// `|computed − exact| ≤ γ_k · (|A|·|B|)[i][j]` with `γ_k ≈ k·ε`. A fixed
/// ULP budget alone is brittle under catastrophic cancellation (a result
/// near zero built from O(1) partials can legitimately be thousands of
/// ULP from the reference), while this bound holds for every reassociation
/// a parallel reduction can produce — and still dwarfs any flipped or
/// dropped MACC, which perturbs the result by `2|a·b|`, not `ε|a·b|`.
pub fn accumulation_tolerance(a: &CsMatrix, b: &CsMatrix) -> DenseMatrix {
    let abs = |m: &CsMatrix| {
        let entries: Vec<_> = m.iter().map(|(r, c, v)| (r, c, v.abs())).collect();
        CsMatrix::from_entries(m.nrows(), m.ncols(), entries, drt_tensor::MajorAxis::Row)
    };
    let mut bound = dense_spmspm(&abs(a), &abs(b));
    let gamma = 4.0 * a.ncols().max(2) as f64 * f64::EPSILON;
    for r in 0..bound.nrows() {
        for c in 0..bound.ncols() {
            let v = bound.get(r, c);
            bound.set(r, c, gamma * v);
        }
    }
    bound
}

/// [`compare_to_dense`] with a per-cell absolute tolerance (see
/// [`accumulation_tolerance`]): a cell passes when it is within `max_ulp`
/// ULP *or* within `tol[r][c]` absolutely. `None` when everything
/// matches; otherwise the first mismatch, described.
pub fn compare_to_dense_tol(
    got: &CsMatrix,
    want: &DenseMatrix,
    tol: &DenseMatrix,
    max_ulp: u64,
) -> Option<String> {
    if got.nrows() != want.nrows() || got.ncols() != want.ncols() {
        return Some(format!(
            "shape {}x{} != reference {}x{}",
            got.nrows(),
            got.ncols(),
            want.nrows(),
            want.ncols()
        ));
    }
    for r in 0..want.nrows() {
        for c in 0..want.ncols() {
            let (g, w) = (got.get(r, c), want.get(r, c));
            let d = ulp_diff(g, w);
            // NaN-safe: a NaN difference is *not* within the bound.
            let within_bound = (g - w).abs() <= tol.get(r, c);
            if d > max_ulp && !within_bound {
                return Some(format!(
                    "z[{r}][{c}] = {g:e}, reference {w:e} ({d} ulp apart, |diff| {:e} over accumulation bound {:e})",
                    (g - w).abs(),
                    tol.get(r, c)
                ));
            }
        }
    }
    None
}

/// Compare a sparse output against a dense reference cell-by-cell within
/// `max_ulp` units in the last place. `None` when everything matches;
/// otherwise the first mismatch, described.
pub fn compare_to_dense(got: &CsMatrix, want: &DenseMatrix, max_ulp: u64) -> Option<String> {
    if got.nrows() != want.nrows() || got.ncols() != want.ncols() {
        return Some(format!(
            "shape {}x{} != reference {}x{}",
            got.nrows(),
            got.ncols(),
            want.nrows(),
            want.ncols()
        ));
    }
    for r in 0..want.nrows() {
        for c in 0..want.ncols() {
            let (g, w) = (got.get(r, c), want.get(r, c));
            let d = ulp_diff(g, w);
            if d > max_ulp {
                return Some(format!("z[{r}][{c}] = {g:e}, reference {w:e} ({d} ulp apart)"));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_kernels::spmspm::gustavson;
    use drt_tensor::MajorAxis;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(0.0, -0.0), 0);
        assert_eq!(ulp_diff(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(f64::MIN_POSITIVE, -f64::MIN_POSITIVE), 2 * (1u64 << 52));
        assert_eq!(ulp_diff(1.0, f64::NAN), u64::MAX);
    }

    #[test]
    fn reference_kernels_agree_with_dense_oracle() {
        let a = unstructured(40, 56, 300, 2.0, 1);
        let b = unstructured(56, 48, 300, 2.0, 2);
        let z = gustavson(&a, &b).z;
        assert!(compare_to_dense(&z, &dense_spmspm(&a, &b), 8).is_none());
    }

    #[test]
    fn accumulation_bound_forgives_cancellation_but_not_faults() {
        // z[0][0] = 1e8 − 1e8 + 1e-8: catastrophic cancellation, so any
        // reassociation error is enormous in ULP of the tiny true result.
        let a = CsMatrix::from_entries(
            1,
            3,
            vec![(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
            MajorAxis::Row,
        );
        let b = CsMatrix::from_entries(
            3,
            1,
            vec![(0, 0, 1e8), (1, 0, -1e8), (2, 0, 1e-8)],
            MajorAxis::Row,
        );
        let want = dense_spmspm(&a, &b);
        let tol = accumulation_tolerance(&a, &b);
        // A value perturbed by a few rounding errors of the partials.
        let noisy =
            CsMatrix::from_entries(1, 1, vec![(0, 0, want.get(0, 0) + 1e-9)], MajorAxis::Row);
        assert!(compare_to_dense(&noisy, &want, 8).is_some(), "ULP alone must reject");
        assert!(
            compare_to_dense_tol(&noisy, &want, &tol, 8).is_none(),
            "accumulation bound must forgive reassociation noise"
        );
        // But an O(term)-sized fault (flipping a MACC perturbs the cell
        // by 2|a·b|, not by ε·Σ|a·b|) is far outside the bound.
        let faulty =
            CsMatrix::from_entries(1, 1, vec![(0, 0, want.get(0, 0) - 1e-3)], MajorAxis::Row);
        assert!(compare_to_dense_tol(&faulty, &want, &tol, 8).is_some());
    }

    #[test]
    fn compare_flags_a_flipped_value() {
        let a = unstructured(24, 24, 120, 2.0, 3);
        let z = gustavson(&a, &a).z;
        // Flip the sign of one stored value.
        let (r, c, v) = z.iter().next().expect("nonempty");
        let entries: Vec<_> = z
            .iter()
            .map(|(rr, cc, vv)| if (rr, cc) == (r, c) { (rr, cc, -v) } else { (rr, cc, vv) })
            .collect();
        let flipped = CsMatrix::from_entries(z.nrows(), z.ncols(), entries, MajorAxis::Row);
        assert!(compare_to_dense(&flipped, &dense_spmspm(&a, &a), 8).is_some());
    }
}

//! Tensor-times-vector (paper Table 2 lists TTM/V among ExTensor's
//! kernels): [`ttv`] contracts a 3-tensor's last mode with a dense vector,
//! `Y_ij = Σ_k χ_ijk · v_k`.

use drt_tensor::{CsMatrix, CsfTensor, MajorAxis};

/// Tensor-times-vector over the last mode: `Y_ij = Σ_k χ_ijk v_k`.
///
/// # Panics
///
/// Panics when `x` is not a 3-tensor or `v.len() != x.shape()[2]`.
pub fn ttv(x: &CsfTensor, v: &[f64]) -> CsMatrix {
    assert_eq!(x.ndim(), 3, "ttv expects a 3-tensor");
    assert_eq!(v.len(), x.shape()[2] as usize, "vector length must match mode 2");
    let mut entries: Vec<(u32, u32, f64)> = Vec::new();
    for (p, val) in x.iter_points() {
        let w = v[p[2] as usize];
        if w != 0.0 {
            entries.push((p[0], p[1], val * w));
        }
    }
    let out = CsMatrix::from_entries(x.shape()[0], x.shape()[1], entries, MajorAxis::Row);
    // Contributions along k summed by construction; drop cancellations.
    let nz: Vec<(u32, u32, f64)> = out.iter().filter(|&(_, _, v)| v != 0.0).collect();
    CsMatrix::from_entries(out.nrows(), out.ncols(), nz, MajorAxis::Row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_tensor::CooTensor;

    fn tensor() -> CsfTensor {
        let mut coo = CooTensor::new(vec![2, 3, 4]);
        coo.push(&[0, 1, 2], 2.0).expect("ok");
        coo.push(&[0, 1, 3], 3.0).expect("ok");
        coo.push(&[1, 0, 0], 4.0).expect("ok");
        CsfTensor::from_coo(coo)
    }

    #[test]
    fn ttv_contracts_mode_two() {
        let x = tensor();
        let v = [1.0, 0.0, 10.0, 100.0];
        let y = ttv(&x, &v);
        // Y[0,1] = 2*10 + 3*100 = 320; Y[1,0] = 4*1 = 4.
        assert_eq!(y.get(0, 1), 320.0);
        assert_eq!(y.get(1, 0), 4.0);
        assert_eq!(y.nnz(), 2);
    }

    #[test]
    fn ttv_zero_vector_gives_empty() {
        let x = tensor();
        let y = ttv(&x, &[0.0; 4]);
        assert_eq!(y.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn ttv_rejects_bad_vector() {
        let _ = ttv(&tensor(), &[1.0; 3]);
    }
}

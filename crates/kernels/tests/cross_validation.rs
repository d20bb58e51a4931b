//! Cross-validation property tests: the reference kernels must agree with
//! each other and with dense oracles on arbitrary inputs — they are the
//! ground truth every simulator is checked against.

use drt_kernels::spmspm::{effectual_maccs, gustavson, inner_product, outer_product};
use drt_tensor::{CsMatrix, DenseMatrix, MajorAxis};
use proptest::prelude::*;

fn arb_matrix(r: u32, c: u32, max_nnz: usize) -> impl Strategy<Value = CsMatrix> {
    proptest::collection::vec((0..r, 0..c, -4.0..4.0f64), 0..max_nnz)
        .prop_map(move |e| CsMatrix::from_entries(r, c, e, MajorAxis::Row))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn three_dataflows_agree(a in arb_matrix(24, 20, 90), b in arb_matrix(20, 28, 90)) {
        let g = gustavson(&a, &b);
        let i = inner_product(&a, &b);
        let o = outer_product(&a, &b);
        prop_assert!(g.z.approx_eq(&i.z, 1e-9), "gustavson vs inner");
        prop_assert!(g.z.approx_eq(&o.z, 1e-9), "gustavson vs outer");
        prop_assert_eq!(g.maccs, i.maccs);
        prop_assert_eq!(g.maccs, o.maccs);
        prop_assert_eq!(g.maccs, effectual_maccs(&a, &b));
    }

    #[test]
    fn product_matches_dense_oracle(a in arb_matrix(16, 16, 64)) {
        let sparse = gustavson(&a, &a).z;
        let dense = DenseMatrix::from_sparse(&a).matmul(&DenseMatrix::from_sparse(&a));
        prop_assert!(DenseMatrix::from_sparse(&sparse).max_abs_diff(&dense) < 1e-9);
    }

    #[test]
    fn spmm_consistent_with_spmspm(a in arb_matrix(18, 14, 60), b in arb_matrix(14, 10, 60)) {
        // SpMM with a densified right operand equals SpMSpM.
        let d = DenseMatrix::from_sparse(&b);
        let spmm = drt_kernels::spmm::spmm(&a, &d);
        let spmspm = DenseMatrix::from_sparse(&gustavson(&a, &b).z);
        prop_assert!(spmm.max_abs_diff(&spmspm) < 1e-9);
    }

    #[test]
    fn gram_matches_explicit_contraction(
        points in proptest::collection::vec((0u32..8, 0u32..8, 0u32..8, 0.2..2.0f64), 1..60)
    ) {
        let mut coo = drt_tensor::CooTensor::new(vec![8, 8, 8]);
        for (i, j, k, v) in &points {
            coo.push(&[*i, *j, *k], *v).unwrap();
        }
        let x = drt_tensor::CsfTensor::from_coo(coo);
        let g = drt_kernels::gram::gram(&x).g;
        // Oracle: G = M · Mᵀ where M is the mode-0 unfolding of χ.
        let mut unfold = drt_tensor::CooMatrix::new(8, 64);
        for (p, v) in x.iter_points() {
            unfold.push(p[0], p[1] * 8 + p[2], v).unwrap();
        }
        let m = CsMatrix::from_coo(&unfold, MajorAxis::Row);
        let oracle = gustavson(&m, &m.to_transposed().to_major(MajorAxis::Row)).z;
        prop_assert!(g.approx_eq(&oracle, 1e-9), "gram must equal M·M^T of the unfolding");
    }
}

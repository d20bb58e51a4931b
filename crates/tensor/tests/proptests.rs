//! Property-based tests for the sparse tensor substrate.

use drt_tensor::format::SizeModel;
use drt_tensor::intersect::sparse_dot;
use drt_tensor::{CooMatrix, CooTensor, CsMatrix, CsfTensor, MajorAxis};
use proptest::prelude::*;

/// Strategy: a random sparse matrix up to `max_dim` square with up to
/// `max_nnz` entries (duplicates allowed — they must sum).
fn arb_matrix(
    max_dim: u32,
    max_nnz: usize,
) -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, f64)>)> {
    (2..=max_dim, 2..=max_dim).prop_flat_map(move |(r, c)| {
        let entry = (0..r, 0..c, -10.0..10.0f64);
        (Just(r), Just(c), proptest::collection::vec(entry, 0..max_nnz))
    })
}

fn arb_sorted_coords(max: u32, len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..max, 0..len).prop_map(|s| s.into_iter().collect())
}

/// Strategy: one sparse fiber, sorted unique coordinates below `max` with a
/// value per coordinate.
fn arb_fiber(max: u32, len: usize) -> impl Strategy<Value = (Vec<u32>, Vec<f64>)> {
    arb_sorted_coords(max, len).prop_flat_map(|coords| {
        let n = coords.len();
        (Just(coords), proptest::collection::vec(-10.0..10.0f64, n..n + 1))
    })
}

proptest! {
    #[test]
    fn csr_csc_roundtrip_preserves_matrix((r, c, entries) in arb_matrix(40, 120)) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let csr = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let csc = CsMatrix::from_coo(&coo, MajorAxis::Col);
        prop_assert!(csr.approx_eq(&csc, 1e-9));
        prop_assert!(csc.to_major(MajorAxis::Row).approx_eq(&csr, 1e-9));
    }

    #[test]
    fn nnz_in_rect_agrees_with_brute_force(
        (r, c, entries) in arb_matrix(30, 80),
        r0 in 0u32..30, r1 in 0u32..34, c0 in 0u32..30, c1 in 0u32..34,
    ) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let (rlo, rhi) = (r0.min(r1), r0.max(r1));
        let (clo, chi) = (c0.min(c1), c0.max(c1));
        let expected = m
            .iter()
            .filter(|&(rr, cc, _)| rr >= rlo && rr < rhi && cc >= clo && cc < chi)
            .count();
        prop_assert_eq!(m.nnz_in_rect(rlo..rhi, clo..chi), expected);
        // Layout independence.
        let csc = m.to_major(MajorAxis::Col);
        prop_assert_eq!(csc.nnz_in_rect(rlo..rhi, clo..chi), expected);
    }

    #[test]
    fn extract_rect_tiles_partition_the_matrix(
        (r, c, entries) in arb_matrix(32, 100),
        tr in 1u32..9, tc in 1u32..9,
    ) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        // Extracting every (tr x tc) tile and summing nnz covers the matrix
        // exactly once.
        let mut total = 0;
        let mut value_sum = 0.0;
        let mut row0 = 0;
        while row0 < r {
            let mut col0 = 0;
            while col0 < c {
                let tile = m.extract_rect(row0..(row0 + tr).min(r), col0..(col0 + tc).min(c));
                total += tile.nnz();
                value_sum += tile.values().iter().sum::<f64>();
                col0 += tc;
            }
            row0 += tr;
        }
        prop_assert_eq!(total, m.nnz());
        let direct: f64 = m.values().iter().sum();
        prop_assert!((value_sum - direct).abs() < 1e-6);
    }

    #[test]
    fn transpose_involution((r, c, entries) in arb_matrix(25, 60)) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let tt = m.to_transposed().to_transposed();
        prop_assert!(m.approx_eq(&tt, 0.0));
    }

    // The dot product against a brute-force definition: every coordinate
    // of `a` found in `b` by binary search, products summed from +0.0 in
    // `a`'s order.
    #[test]
    fn sparse_dot_matches_brute_force(
        (ac, av) in arb_fiber(250, 60),
        (bc, bv) in arb_fiber(250, 60),
    ) {
        let products: Vec<f64> = ac
            .iter()
            .zip(&av)
            .filter_map(|(c, &x)| bc.binary_search(c).ok().map(|ib| x * bv[ib]))
            .collect();
        let brute = products.iter().fold(0.0, |sum, p| sum + p);
        let (dot, matches) = sparse_dot(&ac, &av, &bc, &bv);
        prop_assert_eq!(dot.to_bits(), brute.to_bits());
        prop_assert_eq!(matches, products.len());
    }

    #[test]
    fn csf_count_box_matches_iteration(points in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12), 0..80)) {
        let mut coo = CooTensor::new(vec![12, 12, 12]);
        for (i, j, k) in &points {
            coo.push(&[*i, *j, *k], 1.0).unwrap();
        }
        let t = CsfTensor::from_coo(coo);
        let expected = t
            .iter_points()
            .filter(|(p, _)| p[0] < 6 && (3..9).contains(&p[1]) && p[2] >= 4)
            .count();
        prop_assert_eq!(t.nnz_in_box(&[0..6, 3..9, 4..12]), expected);
        prop_assert_eq!(t.nnz_in_box(&[0..12, 0..12, 0..12]), t.nnz());
    }

    #[test]
    fn footprint_monotone_in_nnz((r, c, entries) in arb_matrix(30, 80)) {
        let coo = CooMatrix::from_triplets(r, c, entries.clone()).unwrap();
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let sm = SizeModel::default();
        let full = sm.cs_matrix_bytes(&m);
        // A sub-rectangle never has a larger footprint than the whole
        // matrix under the same representation and major dimension.
        let sub = m.extract_rect(0..r, 0..c / 2 + 1);
        prop_assert!(sm.cs_matrix_bytes(&sub) <= full);
    }

    #[test]
    fn mtx_roundtrip((r, c, entries) in arb_matrix(20, 40)) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let text = drt_tensor::mtx::to_string(&m);
        let back = drt_tensor::mtx::from_str(&text).unwrap();
        prop_assert!(back.approx_eq(&m, 1e-9));
    }
}

/// Strategy: one delta batch — a list of upserts (`Some(v)`) and deletes
/// (`None`) at arbitrary coordinates (taken modulo the matrix shape).
fn arb_ops(max_dim: u32, len: usize) -> impl Strategy<Value = Vec<(u32, u32, f64, bool)>> {
    proptest::collection::vec((0..max_dim, 0..max_dim, -10.0..10.0f64, any::<bool>()), 0..len)
}

proptest! {
    /// The delta layer's core contract: any sequence of `DeltaBatch`es
    /// applied in place leaves the matrix *exactly* equal (segments,
    /// coordinates, value bits) to a from-scratch rebuild of the same
    /// logical content.
    #[test]
    fn delta_sequences_match_from_scratch_rebuild(
        (r, c, entries) in arb_matrix(32, 80),
        batches in proptest::collection::vec(arb_ops(32, 12), 1..5),
    ) {
        let coo = CooMatrix::from_triplets(r, c, entries).unwrap();
        let mut m = CsMatrix::from_coo(&coo, MajorAxis::Row);
        let mut model: std::collections::BTreeMap<(u32, u32), f64> =
            m.iter().map(|(i, j, v)| ((i, j), v)).collect();
        for ops in &batches {
            let mut d = drt_tensor::DeltaBatch::new();
            for &(i, j, v, is_upsert) in ops {
                let (i, j) = (i % r, j % c);
                if is_upsert {
                    d.upsert(i, j, v);
                    model.insert((i, j), v);
                } else {
                    d.delete(i, j);
                    model.remove(&(i, j));
                }
            }
            m.apply_delta(&d);
            let rebuilt = CsMatrix::from_entries(
                r,
                c,
                model.iter().map(|(&(i, j), &v)| (i, j, v)).collect(),
                MajorAxis::Row,
            );
            prop_assert_eq!(&m, &rebuilt);
        }
    }

    /// `diff` is `apply_delta`'s inverse construction: patching `old`
    /// with `diff(old, new)` reproduces `new` exactly.
    #[test]
    fn diff_then_apply_reproduces_target(
        (r, c, e1) in arb_matrix(24, 60),
        e2 in proptest::collection::vec((0u32..24, 0u32..24, -10.0..10.0f64), 0..60),
    ) {
        let coo1 = CooMatrix::from_triplets(r, c, e1).unwrap();
        let mut old = CsMatrix::from_coo(&coo1, MajorAxis::Row);
        let e2: Vec<_> = e2.into_iter().map(|(i, j, v)| (i % r, j % c, v)).collect();
        let new = CsMatrix::from_entries(r, c, e2, MajorAxis::Row);
        let d = drt_tensor::DeltaBatch::diff(&old, &new);
        old.apply_delta(&d);
        prop_assert_eq!(&old, &new);
    }
}

//! Property-based tests for dense and sparse kernels.
//!
//! These pin down the algebraic identities the autograd layer and the motif
//! pipeline rely on: agreement between sparse and dense code paths,
//! transpose involution, distributivity, and softmax/normalisation
//! invariants.

use ahntp_tensor::{CsrMatrix, Tensor};
use proptest::prelude::*;

const DIM: usize = 6;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v).expect("length matches by construction"))
}

/// Sparse matrices via a dense sample with ~60% zeros.
fn arb_sparse(rows: usize, cols: usize) -> impl Strategy<Value = CsrMatrix<f64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(0.0f32),
            2 => -5.0f32..5.0f32,
        ],
        rows * cols,
    )
    .prop_map(move |v| {
        let t = Tensor::from_vec(rows, cols, v).expect("length matches");
        CsrMatrix::<f64>::from_dense(&t)
    })
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shapes differ");
    for (i, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_associative(a in arb_matrix(4, 3), b in arb_matrix(3, 5), c in arb_matrix(5, 2)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert_close(&left, &right, 1e-3, "associativity");
    }

    #[test]
    fn matmul_distributes_over_add(a in arb_matrix(3, 4), b in arb_matrix(4, 3), c in arb_matrix(4, 3)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        assert_close(&left, &right, 1e-3, "distributivity");
    }

    #[test]
    fn transpose_reverses_product(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        assert_close(&left, &right, 1e-4, "(AB)^T = B^T A^T");
    }

    #[test]
    fn fused_transpose_kernels_agree(a in arb_matrix(4, 3), b in arb_matrix(4, 2), c in arb_matrix(5, 3)) {
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-4, "t_matmul");
        assert_close(&a.matmul_t(&c), &a.matmul(&c.transpose()), 1e-4, "matmul_t");
    }

    #[test]
    fn softmax_rows_are_distributions(a in arb_matrix(4, 5)) {
        let s = a.softmax_rows();
        prop_assert!(s.all_finite());
        for r in 0..4 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(a in arb_matrix(3, 4), shift in -5.0f32..5.0) {
        let s1 = a.softmax_rows();
        let s2 = a.add_scalar(shift).softmax_rows();
        assert_close(&s1, &s2, 1e-4, "softmax shift invariance");
    }

    #[test]
    fn normalize_rows_is_idempotent(a in arb_matrix(4, 3)) {
        let n1 = a.normalize_rows();
        let n2 = n1.normalize_rows();
        assert_close(&n1, &n2, 1e-5, "normalize idempotence");
    }

    #[test]
    fn concat_split_roundtrip(a in arb_matrix(3, 2), b in arb_matrix(3, 4)) {
        let c = Tensor::concat_cols(&[&a, &b]);
        let parts = c.split_cols(&[2, 4]);
        assert_close(&parts[0], &a, 0.0, "split lhs");
        assert_close(&parts[1], &b, 0.0, "split rhs");
    }

    #[test]
    fn sparse_roundtrip_preserves_dense(m in arb_sparse(DIM, DIM)) {
        let d = m.to_dense();
        let back = CsrMatrix::<f64>::from_dense(&d);
        prop_assert_eq!(back.to_dense(), d);
        prop_assert!(back.validate().is_ok());
    }

    #[test]
    fn sparse_transpose_involution(m in arb_sparse(DIM, DIM)) {
        prop_assert_eq!(m.transpose().transpose().to_dense(), m.to_dense());
        prop_assert!(m.transpose().validate().is_ok());
    }

    #[test]
    fn spmm_agrees_with_dense(a in arb_sparse(5, 6), b in arb_sparse(6, 4)) {
        let sparse = a.spmm(&b).to_dense();
        let dense = a.to_dense().matmul(&b.to_dense());
        assert_close(&sparse, &dense, 1e-4, "spmm vs dense");
        prop_assert!(a.spmm(&b).validate().is_ok());
    }

    #[test]
    fn spmm_masked_agrees_with_unfused(
        a in arb_sparse(5, 5), b in arb_sparse(5, 5), mask in arb_sparse(5, 5)
    ) {
        let pattern = mask.map_values(|_| 1.0);
        let fused = a.spmm_masked(&b, &mask).to_dense();
        let unfused = a.spmm(&b).hadamard(&pattern).to_dense();
        assert_close(&fused, &unfused, 1e-4, "masked spmm");
    }

    #[test]
    fn sparse_add_sub_match_dense(a in arb_sparse(DIM, DIM), b in arb_sparse(DIM, DIM)) {
        assert_close(&a.add(&b).to_dense(), &a.to_dense().add(&b.to_dense()), 1e-5, "add");
        assert_close(&a.sub(&b).to_dense(), &a.to_dense().sub(&b.to_dense()), 1e-5, "sub");
        prop_assert!(a.add(&b).validate().is_ok());
        prop_assert!(a.sub(&b).validate().is_ok());
    }

    #[test]
    fn sparse_hadamard_matches_dense(a in arb_sparse(DIM, DIM), b in arb_sparse(DIM, DIM)) {
        assert_close(&a.hadamard(&b).to_dense(), &a.to_dense().mul(&b.to_dense()), 1e-5, "hadamard");
    }

    #[test]
    fn mul_dense_matches_dense_matmul(m in arb_sparse(5, 6), x in arb_matrix(6, 3)) {
        let mf = m.cast::<f32>();
        assert_close(&mf.mul_dense(&x), &mf.to_dense().matmul(&x), 1e-4, "mul_dense");
        let y = arb_matrix(5, 3);
        let _ = y; // t_mul_dense covered below with x-compatible shape
    }

    #[test]
    fn t_mul_dense_matches_dense(m in arb_sparse(5, 6), x in arb_matrix(5, 3)) {
        let mf = m.cast::<f32>();
        assert_close(
            &mf.t_mul_dense(&x),
            &mf.to_dense().transpose().matmul(&x),
            1e-4,
            "t_mul_dense",
        );
    }

    #[test]
    fn row_normalized_rows_are_stochastic(m in arb_sparse(DIM, DIM)) {
        let positive = m.map_values(f64::abs).prune();
        let n = positive.row_normalized();
        for (r, s) in n.row_sums().iter().enumerate() {
            if positive.row_nnz(r) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
            } else {
                prop_assert_eq!(*s, 0.0);
            }
        }
    }

    #[test]
    fn gather_rows_picks_expected(a in arb_matrix(5, 3), idx in proptest::collection::vec(0usize..5, 1..8)) {
        let g = a.gather_rows(&idx);
        for (out_row, &src) in idx.iter().enumerate() {
            prop_assert_eq!(g.row(out_row), a.row(src));
        }
    }
}

//! Finite-difference validation of every adjoint on the tape.
//!
//! Each test builds a small scalar loss through one (or a few) ops and
//! checks the analytic gradients of *all* inputs against central
//! differences. f32 + central differences supports roughly 1e-2 relative
//! tolerance at eps = 1e-2; inputs are chosen away from kinks (ReLU at 0)
//! so the comparison is well-posed.

use ahntp_autograd::{check_gradients, Graph, Var};
use ahntp_tensor::{CsrMatrix, Shape, Tensor};
use std::rc::Rc;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

fn t(rows: usize, cols: usize, seed: u64) -> Tensor {
    // Deterministic, kink-free values in [0.3, 1.8] with alternating sign.
    let mut v = Vec::with_capacity(rows * cols);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    for i in 0..rows * cols {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = ((state >> 40) as f32) / ((1u64 << 24) as f32); // [0,1)
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        v.push(sign * (0.3 + 1.5 * u));
    }
    Tensor::from_vec(rows, cols, v).expect("sized correctly")
}

#[test]
fn grad_add_sub_mul() {
    let a = t(2, 3, 1);
    let b = t(2, 3, 2);
    check_gradients(
        &[a.clone(), b.clone()],
        |_, v| v[0].add(&v[1]).sum(),
        EPS,
        TOL,
    );
    check_gradients(
        &[a.clone(), b.clone()],
        |_, v| v[0].sub(&v[1]).mean(),
        EPS,
        TOL,
    );
    check_gradients(&[a, b], |_, v| v[0].mul(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_scale_and_add_scalar() {
    let a = t(2, 2, 3);
    check_gradients(
        &[a],
        |_, v| v[0].scale(3.5).add_scalar(-1.0).sum(),
        EPS,
        TOL,
    );
}

#[test]
fn grad_matmul() {
    let a = t(3, 4, 4);
    let b = t(4, 2, 5);
    check_gradients(&[a, b], |_, v| v[0].matmul(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_matmul_t_and_transpose() {
    let a = t(3, 4, 6);
    let b = t(2, 4, 7);
    check_gradients(&[a.clone(), b], |_, v| v[0].matmul_t(&v[1]).sum(), EPS, TOL);
    let c = t(4, 3, 8);
    check_gradients(&[a, c], |_, v| v[0].transpose().mul(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_matmul_vector_promotions() {
    let a = t(3, 4, 40);
    let x = {
        let m = t(1, 4, 41);
        Tensor::vector(m.as_slice().to_vec())
    };
    // matrix @ vector
    check_gradients(
        &[a.clone(), x.clone()],
        |_, v| v[0].matmul(&v[1]).sum(),
        EPS,
        TOL,
    );
    // vector @ matrix
    let y = {
        let m = t(1, 3, 42);
        Tensor::vector(m.as_slice().to_vec())
    };
    check_gradients(&[y, a], |_, v| v[0].matmul(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_pointwise_nonlinearities() {
    let a = t(2, 3, 9);
    check_gradients(std::slice::from_ref(&a), |_, v| v[0].relu().sum(), EPS, TOL);
    check_gradients(
        std::slice::from_ref(&a),
        |_, v| v[0].leaky_relu(0.2).sum(),
        EPS,
        TOL,
    );
    check_gradients(
        std::slice::from_ref(&a),
        |_, v| v[0].sigmoid().sum(),
        EPS,
        TOL,
    );
    check_gradients(std::slice::from_ref(&a), |_, v| v[0].tanh().sum(), EPS, TOL);
    check_gradients(
        std::slice::from_ref(&a),
        |_, v| v[0].scale(0.5).exp().sum(),
        EPS,
        TOL,
    );
    // ln over strictly-positive inputs (sigmoid maps into (0,1))
    check_gradients(&[a], |_, v| v[0].sigmoid().ln_eps(1e-6).sum(), EPS, TOL);
}

#[test]
fn grad_add_bias() {
    let a = t(3, 2, 10);
    let bias = Tensor::vector(vec![0.7, -0.4]);
    check_gradients(&[a, bias], |_, v| v[0].add_bias(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_spmm() {
    let h: Rc<CsrMatrix<f32>> = Rc::new(
        CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 0.5),
                (1, 1, 2.0),
                (2, 3, -1.0),
                (2, 0, 0.25),
            ],
        )
        .expect("valid triplets"),
    );
    let x = t(4, 2, 11);
    check_gradients(&[x], move |g, v| g.spmm(&h, &v[0]).sum(), EPS, TOL);
}

#[test]
fn grad_concat_cols() {
    let a = t(2, 2, 12);
    let b = t(2, 3, 13);
    check_gradients(
        &[a, b],
        |g, v| {
            g.concat_cols(&[&v[0], &v[1]])
                .mul(&g.concat_cols(&[&v[0], &v[1]]))
                .sum()
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_gather_rows_with_repeats() {
    let a = t(4, 3, 14);
    let idx = Rc::new(vec![0usize, 2, 2, 3]);
    check_gradients(
        &[a],
        move |_, v| {
            let gathered = v[0].gather_rows(&idx);
            gathered.mul(&gathered).sum()
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_pair_cosine_with_repeats_and_a_zero_row() {
    // Rows 2 of `a` and 3 of `b` serve several pairs; row 1 of `b` is
    // masked to zero, so its pairs read 0 and pass no gradient to either
    // side — which central differences agree with, since perturbing the
    // masked row moves nothing.
    let a = t(5, 3, 16);
    let b = t(4, 3, 17);
    let mut mask = Tensor::full(4, 3, 1.0);
    mask.row_mut(1).fill(0.0);
    let ia = Rc::new(vec![0usize, 2, 2, 4, 1, 2]);
    let ib = Rc::new(vec![3usize, 1, 0, 3, 1, 2]);
    let weights = Tensor::vector(vec![1.0, -0.5, 2.0, 0.75, 1.5, -1.25]);
    check_gradients(
        &[a, b],
        move |g, v| {
            let b = v[1].mul(&g.constant(mask.clone()));
            g.pair_cosine(&v[0], &b, &ia, &ib)
                .mul(&g.constant(weights.clone()))
                .sum()
        },
        EPS,
        TOL,
    );
}

/// A `rows × cols` pattern holding `entries`, the structure the attention
/// nodes read (values unused).
fn pattern(rows: usize, cols: usize, entries: &[(usize, usize)]) -> Rc<CsrMatrix<f32>> {
    let trips: Vec<_> = entries.iter().map(|&(r, c)| (r, c, 1.0)).collect();
    Rc::new(CsrMatrix::from_triplets(rows, cols, &trips).expect("entries in range"))
}

#[test]
fn grad_segment_softmax() {
    let a = Tensor::vector(vec![0.5, -0.3, 1.2, 0.8, -0.9]);
    let segments = pattern(2, 3, &[(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)]);
    check_gradients(
        &[a],
        move |_, v| {
            // weight the softmax so the gradient is not trivially zero
            let sm = v[0].segment_softmax(&segments);
            sm.mul(&sm).sum()
        },
        1e-3,
        TOL,
    );
}

#[test]
fn grad_segment_sum() {
    let a = Tensor::vector(vec![0.5, -0.3, 1.2, 0.8]);
    let segments = Rc::new(vec![1usize, 0, 1, 0]);
    check_gradients(
        &[a],
        move |_, v| {
            let s = v[0].segment_sum(&segments, 2);
            s.mul(&s).sum()
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_weighted_gather() {
    let pairs = pattern(3, 3, &[(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]);
    let w = Tensor::vector(vec![0.5, -0.2, 1.0, 0.7, 0.3]);
    let h = t(3, 2, 18);
    check_gradients(
        &[w, h],
        move |g, v| {
            let y = g.weighted_gather(&pairs, &v[0], &v[1]);
            y.mul(&y).sum()
        },
        EPS,
        TOL,
    );
}

/// Five incidence pairs over 3 vertices and 2 hyperedges, with repeats on
/// both sides.
fn incidence() -> Rc<CsrMatrix<f32>> {
    pattern(3, 2, &[(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)])
}

#[test]
fn grad_mul_rows() {
    let a = t(3, 4, 36);
    check_gradients(
        &[a.clone(), t(3, 1, 37)],
        |_, v| {
            let y = v[0].mul_rows(&v[1]);
            y.mul(&y).sum()
        },
        EPS,
        TOL,
    );
    let f = Tensor::vector(t(1, 3, 38).as_slice().to_vec());
    check_gradients(&[a, f], |_, v| v[0].mul_rows(&v[1]).sum(), EPS, TOL);
}

#[test]
fn grad_pair_scores_with_repeats() {
    let p = incidence();
    check_gradients(
        &[t(3, 4, 30), t(2, 4, 31), t(8, 1, 32)],
        move |g, v| {
            let s = g.pair_scores(&v[0], &v[1], &v[2], &p);
            s.mul(&s).sum()
        },
        EPS,
        TOL,
    );
}

/// Eq. 14's scores as the five general ops `pair_scores` replaced: the
/// composition it reassociates, gathering by each entry's row and column.
fn composed_pair_scores(g: &Graph, x: &Var, h: &Var, beta: &Var, p: &Rc<CsrMatrix<f32>>) -> Var {
    let rows = (0..p.rows()).flat_map(|r| std::iter::repeat_n(r, p.row_nnz(r)));
    let (rows, cols) = (Rc::new(rows.collect()), Rc::new(p.col_indices().to_vec()));
    g.concat_cols(&[&x.gather_rows(&rows), &h.gather_rows(&cols)])
        .matmul(beta)
        .reshape(Shape::Vector(p.nnz()))
}

/// How far `pair_scores` may sit from the composed ops, relative to each
/// compared tensor's max-norm: a per-vertex and a per-edge dot added,
/// against one chain per pair, and per-row gradient sums scaling `β` once.
const PAIR_SCORES_TOL: f32 = 1e-6;

#[test]
fn pair_scores_matches_the_composed_ops_within_rounding() {
    // Two inputs, width 6. Incidence: 37 pairs (not a multiple of the
    // kernel's eight chains) over 9 vertices and 5 hyperedges. Graph
    // attention: `x` and `h` one leaf over a square 9 × 9 pattern that
    // holds its diagonal, so every gradient reaches that leaf twice. The
    // leaves each feed a second consumer recorded after the scores, as in
    // the layer (Eq. 16).
    let (n, m, d) = (9, 5, 6);
    let incidence: Vec<_> = (0..n)
        .flat_map(|v| (0..m).map(move |e| (v, e)))
        .filter(|&(v, e)| (v + 2 * e) % 6 != 0)
        .collect();
    let square: Vec<_> = (0..n)
        .flat_map(|i| [i, (i * 4 + 1) % n, (i * 7 + 3) % n].map(|j| (i, j)))
        .collect();
    let inputs = [
        (
            pattern(n, m, &incidence),
            vec![t(n, d, 33), t(m, d, 34), t(2 * d, 1, 35)],
        ),
        (pattern(n, n, &square), vec![t(n, d, 36), t(2 * d, 1, 37)]),
    ];
    assert_eq!((inputs[0].0.nnz(), inputs[1].0.nnz()), (37, 24));
    type Scores = fn(&Graph, &Var, &Var, &Var, &Rc<CsrMatrix<f32>>) -> Var;
    let fused: Scores = |g, x, h, beta, p| g.pair_scores(x, h, beta, p);
    let max_abs = |t: &Tensor| t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    for (p, leaves) in &inputs {
        let run = |scores: Scores| -> Vec<Tensor> {
            let g = Graph::new();
            let v: Vec<Var> = leaves.iter().map(|t| g.leaf(t.clone())).collect();
            let (x, h, beta) = match &v[..] {
                [x, h, beta] => (x, h, beta),
                [x, beta] => (x, x, beta),
                _ => unreachable!("two or three leaves"),
            };
            let s = scores(&g, x, h, beta, p).leaky_relu(0.2);
            let loss = s.mul(&s).sum().add(&x.tanh().sum()).add(&h.mul(h).sum());
            loss.backward();
            let mut out = vec![s.value()];
            out.extend(
                v.iter()
                    .map(|v| v.grad().expect("every input reaches the loss")),
            );
            out
        };
        let (a, b) = (run(fused), run(composed_pair_scores));
        for (k, (a, b)) in a.iter().zip(&b).enumerate() {
            let what = if k == 0 { "scores" } else { "a leaf gradient" };
            assert_eq!(a.shape(), b.shape(), "{what} {k}: shape");
            let worst = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
            assert!(
                worst <= PAIR_SCORES_TOL * max_abs(b),
                "{what} {k} of a {}×{} pattern is {worst} off the composed ops (max-norm {})",
                p.rows(),
                p.cols(),
                max_abs(b)
            );
        }
    }
}

#[test]
#[should_panic(expected = "x and h must be matrices of one width")]
fn pair_scores_rejects_mismatched_widths() {
    let g = Graph::new();
    let (x, h, beta) = (g.leaf(t(3, 4, 1)), g.leaf(t(2, 3, 2)), g.leaf(t(8, 1, 3)));
    g.pair_scores(&x, &h, &beta, &incidence());
}

#[test]
#[should_panic(expected = "beta must hold 8 weights")]
fn pair_scores_rejects_a_short_beta() {
    let g = Graph::new();
    let (x, h, beta) = (g.leaf(t(3, 4, 1)), g.leaf(t(2, 4, 2)), g.leaf(t(4, 1, 3)));
    g.pair_scores(&x, &h, &beta, &incidence());
}

#[test]
#[should_panic(expected = "pair_scores: a 3x3 pattern needs 3 rows of h, got [2x4]")]
fn pair_scores_rejects_an_out_of_range_pair() {
    // Pair (2, 2) names a third hyperedge; `h` has two. The pattern's
    // column count says so before any pair is read.
    let g = Graph::new();
    let p = pattern(3, 3, &[(0, 0), (1, 1), (2, 2)]);
    let (x, h, beta) = (g.leaf(t(3, 4, 1)), g.leaf(t(2, 4, 2)), g.leaf(t(8, 1, 3)));
    g.pair_scores(&x, &h, &beta, &p);
}

#[test]
#[should_panic(expected = "pair_scores: variables belong to different graphs")]
fn pair_scores_rejects_a_foreign_operand() {
    let (g, other) = (Graph::new(), Graph::new());
    let (x, h, beta) = (
        g.leaf(t(3, 4, 1)),
        g.leaf(t(2, 4, 2)),
        other.leaf(t(8, 1, 3)),
    );
    g.pair_scores(&x, &h, &beta, &incidence());
}

#[test]
fn grad_composite_mlp_like_pipeline() {
    // A realistic slice of the model: linear → ReLU → linear → sigmoid →
    // BCE-style loss, checking gradients of weights and biases jointly.
    let x = t(4, 3, 19);
    let w1 = t(3, 5, 20);
    let b1 = Tensor::vector(vec![0.1, -0.2, 0.3, 0.0, 0.05]);
    let w2 = t(5, 1, 21);
    check_gradients(
        &[x, w1, b1, w2],
        |_, v| {
            let h = v[0].matmul(&v[1]).add_bias(&v[2]).relu();
            let p = h.matmul(&v[3]).sigmoid();
            // -mean(log p) over pseudo-positive labels
            p.ln_eps(1e-7).mean().neg()
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_contrastive_like_pipeline() {
    // exp(cos/t) pooled by segments and log-ratioed — the shape of Eq. 20.
    let a = t(6, 4, 22);
    let b = t(6, 4, 23);
    let seg = Rc::new(vec![0usize, 0, 1, 1, 2, 2]);
    let rows = Rc::new((0..6).collect::<Vec<usize>>());
    check_gradients(
        &[a, b],
        move |g, v| {
            let cs = g
                .pair_cosine(&v[0], &v[1], &rows, &rows)
                .scale(1.0 / 0.3)
                .exp();
            let pooled = cs.segment_sum(&seg, 3);
            pooled.ln_eps(1e-7).mean().neg()
        },
        EPS,
        TOL,
    );
}

#[test]
fn grad_reshape_passthrough() {
    let a = t(2, 3, 24);
    check_gradients(
        &[a],
        |_, v| {
            let r = v[0].reshape(ahntp_tensor::Shape::Vector(6));
            r.mul(&r).sum()
        },
        EPS,
        TOL,
    );
}

#[test]
fn gradcheck_report_is_informative() {
    let a = t(2, 2, 25);
    let report = check_gradients(&[a], |_, v| v[0].tanh().sum(), EPS, TOL);
    assert_eq!(report.checked, 4);
    assert!(report.max_rel_err <= TOL);
}

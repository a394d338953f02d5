//! Forward-pass constructors: every differentiable operation on [`Var`].

use crate::tape::{Op, Var};
use ahntp_telemetry::{KernelKind, KernelSpan};
use ahntp_tensor::{CsrMatrix, Shape, Tensor};
use std::rc::Rc;

impl Var {
    /// Records `f(self, other)`: both operands are read where they lie on
    /// the tape, under one borrow, once the two are known to share it.
    fn binary(
        &self,
        other: &Var,
        op_name: &str,
        op: Op,
        f: impl FnOnce(&Tensor, &Tensor) -> Tensor,
    ) -> Var {
        other.assert_same_graph(&self.graph, op_name);
        let (value, rg) = {
            let nodes = self.graph.nodes.borrow();
            let (a, b) = (&nodes[self.id], &nodes[other.id]);
            (f(&a.value, &b.value), a.requires_grad || b.requires_grad)
        };
        self.graph.push(value, op, rg)
    }

    /// Records `f(self)`, reading the operand where it lies on the tape.
    fn unary(&self, op: Op, f: impl FnOnce(&Tensor) -> Tensor) -> Var {
        let (value, rg) = {
            let nodes = self.graph.nodes.borrow();
            let a = &nodes[self.id];
            (f(&a.value), a.requires_grad)
        };
        self.graph.push(value, op, rg)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Var) -> Var {
        self.binary(other, "add", Op::Add(self.id, other.id), Tensor::add)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Var) -> Var {
        self.binary(other, "sub", Op::Sub(self.id, other.id), Tensor::sub)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Var) -> Var {
        self.binary(other, "mul", Op::Mul(self.id, other.id), Tensor::mul)
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&self, c: f32) -> Var {
        self.unary(Op::Scale(self.id, c), |a| a.scale(c))
    }

    /// Addition of a constant scalar (gradient passes through unchanged).
    pub fn add_scalar(&self, c: f32) -> Var {
        self.unary(Op::AddScalar(self.id), |a| a.add_scalar(c))
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Dense matrix product `self @ other`.
    pub fn matmul(&self, other: &Var) -> Var {
        self.binary(
            other,
            "matmul",
            Op::Matmul(self.id, other.id),
            Tensor::matmul,
        )
    }

    /// Dense product with transposed right operand, `self @ other^T`.
    pub fn matmul_t(&self, other: &Var) -> Var {
        self.binary(
            other,
            "matmul_t",
            Op::MatmulT(self.id, other.id),
            Tensor::matmul_t,
        )
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Var {
        self.unary(Op::Transpose(self.id), Tensor::transpose)
    }

    /// Rectified linear unit (the `f` of Eqs. 13 and 16–18).
    pub fn relu(&self) -> Var {
        self.unary(Op::Relu(self.id), |a| a.map(|x| x.max(0.0)))
    }

    /// Leaky ReLU with the given negative slope (the `σ` of Eq. 14).
    pub fn leaky_relu(&self, slope: f32) -> Var {
        self.unary(Op::LeakyRelu(self.id, slope), |a| {
            a.map(|x| if x > 0.0 { x } else { slope * x })
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        self.unary(Op::Sigmoid(self.id), |a| {
            a.map(|x| 1.0 / (1.0 + (-x).exp()))
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        self.unary(Op::Tanh(self.id), |a| a.map(f32::tanh))
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        self.unary(Op::Exp(self.id), |a| a.map(f32::exp))
    }

    /// Element-wise `ln(max(x, eps))` — the clamped logarithm used by the
    /// loss terms so that `log(0)` cannot poison training.
    pub fn ln_eps(&self, eps: f32) -> Var {
        assert!(eps > 0.0, "ln_eps: eps must be positive, got {eps}");
        self.unary(Op::LnEps(self.id, eps), |a| a.map(|x| x.max(eps).ln()))
    }

    /// Adds a broadcast row-vector bias to every row of a matrix.
    pub fn add_bias(&self, bias: &Var) -> Var {
        self.binary(
            bias,
            "add_bias",
            Op::AddBias(self.id, bias.id),
            Tensor::add_row_broadcast,
        )
    }

    /// Selects rows by index (rows may repeat); gradient scatter-adds back.
    pub fn gather_rows(&self, indices: &Rc<Vec<usize>>) -> Var {
        self.unary(Op::GatherRows(self.id, Rc::clone(indices)), |a| {
            a.gather_rows(indices)
        })
    }

    /// Scales each row `r` of a matrix by entry `r` of `factors` (an
    /// `[rows]` vector or a `rows × 1` column); gradients flow to both.
    ///
    /// # Panics
    ///
    /// Panics unless `factors` holds one entry per row.
    pub fn mul_rows(&self, factors: &Var) -> Var {
        self.binary(
            factors,
            "mul_rows",
            Op::MulRows(self.id, factors.id),
            |a, f| {
                assert!(
                    f.len() == a.rows() && (f.shape().is_vector() || f.cols() == 1),
                    "mul_rows: need {} factors as a vector or a column, got {}",
                    a.rows(),
                    f.shape()
                );
                a.scale_rows(&Tensor::vector(f.as_slice().to_vec()))
            },
        )
    }

    /// Sum of all elements → scalar.
    pub fn sum(&self) -> Var {
        self.unary(Op::Sum(self.id), |a| Tensor::full(1, 1, a.sum()))
    }

    /// Mean of all elements → scalar.
    pub fn mean(&self) -> Var {
        self.unary(Op::Mean(self.id), |a| Tensor::full(1, 1, a.mean()))
    }

    /// Softmax within each row of `pattern` over this `[nnz]` vector, one
    /// element per entry in CSR order (Eq. 15: attention normalisation
    /// over each vertex's incident hyperedges). Only the pattern's row
    /// pointers are read: row `r` is the segment of entries
    /// `row_ptr[r]..row_ptr[r + 1]`.
    ///
    /// # Panics
    ///
    /// Panics unless this is a vector of `pattern.nnz()` elements.
    pub fn segment_softmax(&self, pattern: &Rc<CsrMatrix<f32>>) -> Var {
        self.unary(Op::SegmentSoftmax(self.id, Rc::clone(pattern)), |v| {
            let _k = KernelSpan::enter("autograd.segment_softmax", KernelKind::Reduction);
            assert!(
                v.shape().is_vector() && v.len() == pattern.nnz(),
                "segment_softmax: need a [{}] vector, got {}",
                pattern.nnz(),
                v.shape()
            );
            let mut out = v.clone();
            for seg in pattern.row_ptr().windows(2) {
                let y = &mut out.as_mut_slice()[seg[0]..seg[1]];
                // Max-shift per segment for numerical stability.
                let max = y.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
                let mut sum = 0.0f32;
                for x in y.iter_mut() {
                    *x = (*x - max).exp();
                    sum += *x;
                }
                for x in y.iter_mut() {
                    *x /= sum;
                }
            }
            out
        })
    }

    /// Sums vector elements within segments → `[n_segments]` (the Σ of
    /// Eq. 20's positive/denominator pools, grouped by anchor).
    pub fn segment_sum(&self, segments: &Rc<Vec<usize>>, n_segments: usize) -> Var {
        self.unary(Op::SegmentSum(self.id, Rc::clone(segments)), |v| {
            assert!(
                v.shape().is_vector() && v.len() == segments.len(),
                "segment_sum: need a [{}] vector, got {}",
                segments.len(),
                v.shape()
            );
            let mut out = vec![0.0f32; n_segments];
            for (&x, &s) in v.as_slice().iter().zip(segments.iter()) {
                assert!(
                    s < n_segments,
                    "segment_sum: segment id {s} >= n_segments {n_segments}"
                );
                out[s] += x;
            }
            Tensor::vector(out)
        })
    }

    /// Reinterprets the value with a new same-volume shape. Gradients are
    /// reshaped back automatically because buffers are row-major on both
    /// sides — implemented as a transpose-free unary view.
    pub fn reshape(&self, shape: Shape) -> Var {
        self.unary(Op::Reshape(self.id), |a| a.clone().reshape(shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    #[test]
    fn forward_values_match_tensor_ops() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, -2.0]]));
        assert_eq!(a.relu().value().as_slice(), &[1.0, 0.0]);
        assert_eq!(a.leaky_relu(0.1).value().as_slice(), &[1.0, -0.2]);
        assert_eq!(a.neg().value().as_slice(), &[-1.0, 2.0]);
        assert_eq!(a.add_scalar(1.0).value().as_slice(), &[2.0, -1.0]);
        let s = a.sigmoid().value();
        assert!((s.as_slice()[0] - 0.73106).abs() < 1e-4);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let g = Graph::new();
        let x = g.leaf(Tensor::vector(vec![1.0, 2.0, 3.0, -1.0, 500.0]));
        let pattern = Rc::new(CsrMatrix::from_csr(
            2,
            3,
            vec![0, 2, 5],
            vec![0, 1, 0, 1, 2],
            vec![1.0; 5],
        ));
        let y = x.segment_softmax(&pattern).value();
        let s0 = y.as_slice()[0] + y.as_slice()[1];
        let s1 = y.as_slice()[2] + y.as_slice()[3] + y.as_slice()[4];
        assert!((s0 - 1.0).abs() < 1e-6);
        assert!((s1 - 1.0).abs() < 1e-6);
        assert!(y.all_finite(), "huge logits must not overflow");
    }

    #[test]
    fn segment_sum_pools_by_segment() {
        let g = Graph::new();
        let x = g.leaf(Tensor::vector(vec![1.0, 2.0, 3.0, 4.0]));
        let segments = Rc::new(vec![1usize, 0, 1, 0]);
        let y = x.segment_sum(&segments, 2).value();
        assert_eq!(y.as_slice(), &[6.0, 4.0]);
    }
}

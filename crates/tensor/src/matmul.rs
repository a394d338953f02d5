//! Dense matrix multiplication and transpose.
//!
//! # Threads
//!
//! Each product is one band function handed to `ahntp_par::par_rows` with
//! its FLOP estimate: the pool splits the output rows into bands or runs
//! the function once over the whole output, so serial and parallel are the
//! same loop. Every output row is owned by exactly one band and accumulated
//! in `k`-ascending order with the same zero-skip tests, which makes results
//! bitwise identical at any thread count. `t_matmul` alone keeps two
//! algorithms (serial k-outer scatter, banded gather); the comment there
//! gives the measurement that keeps both.

use ahntp_telemetry::{counter_add, KernelKind, KernelSpan};

use crate::{Shape, Tensor};

/// Records one dense-product invocation in the global metrics registry.
/// `counter_add` is a no-op (one relaxed load) while telemetry is off.
/// The per-kernel counter name is interned at compile time so hot kernels
/// never allocate for metrics.
#[inline]
fn record_matmul(kernel_calls: &'static str, m: usize, n: usize, k: usize) {
    if !ahntp_telemetry::enabled() {
        return;
    }
    counter_add("tensor.matmul.calls", 1);
    counter_add(kernel_calls, 1);
    // Upper bound: zero-skip makes the realised count data-dependent.
    counter_add("tensor.matmul.flops", 2 * (m * n * k) as u64);
    counter_add(
        "tensor.alloc.bytes",
        (m * n * std::mem::size_of::<f32>()) as u64,
    );
}

/// `matmul` band kernel: fills output rows `row0..row0 + out_band/n` with
/// the cache-friendly `i-k-j` loop. Like every band kernel here it is only
/// reached through `par_rows`, so `out_band` is whole rows and never empty.
fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out_band: &mut [f32]) {
    for (bi, out_row) in out_band.chunks_mut(n).enumerate() {
        let i = row0 + bi;
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue; // feature matrices after ReLU are often sparse
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aik * bkj;
            }
        }
    }
}

/// `t_matmul` band kernel: output row `i` gathers `sum_k A[k][i] * B[k]`
/// with `k` ascending and the same `a[k][i] == 0` skip as the serial
/// scatter loop, so per-element accumulation order is identical.
fn t_matmul_rows(
    a: &[f32],
    b: &[f32],
    m: usize,
    n: usize,
    kdim: usize,
    row0: usize,
    out_band: &mut [f32],
) {
    for (bi, out_row) in out_band.chunks_mut(n).enumerate() {
        let i = row0 + bi;
        for kk in 0..kdim {
            let aki = a[kk * m + i];
            if aki == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                *o += aki * bkj;
            }
        }
    }
}

/// `matmul_t` band kernel: plain row-dot-row products.
fn matmul_t_rows(a: &[f32], b: &[f32], k: usize, n: usize, row0: usize, out_band: &mut [f32]) {
    for (bi, out_row) in out_band.chunks_mut(n).enumerate() {
        let i = row0 + bi;
        let a_row = &a[i * k..(i + 1) * k];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

impl Tensor {
    /// Dense matrix product `self @ other`.
    ///
    /// Vectors are promoted to matrices in the only way that makes the
    /// product well-formed (`[n]` on the left acts as `1 x n`; on the right
    /// as `n x 1`), and the result is demoted back to a vector when one side
    /// was a vector. Uses the cache-friendly `i-k-j` loop order, which is
    /// within a small factor of BLAS for the ≤512-wide matrices this model
    /// uses; large products are row-partitioned across the worker pool with
    /// bitwise-identical results.
    ///
    /// # Panics
    ///
    /// Panics when the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k1) = (self.rows(), self.cols());
        let (k2, n) = match other.shape() {
            Shape::Matrix(r, c) => (r, c),
            Shape::Vector(len) => (len, 1),
        };
        assert_eq!(
            k1, k2,
            "Tensor::matmul: inner dimensions disagree: {} @ {}",
            self.shape(),
            other.shape()
        );
        let k = k1;
        record_matmul("tensor.matmul.calls", m, n, k);
        let _k = KernelSpan::enter("tensor.matmul", KernelKind::Matmul);
        let mut out = vec![0.0f32; m * n];
        let a = &self.data;
        // When `other` is a vector we can index it directly as a column.
        let b = &other.data;
        ahntp_par::par_rows(
            &mut out,
            n,
            2 * m * n * k,
            "tensor.matmul.par_calls",
            |row0, band| matmul_rows(a, b, k, n, row0, band),
        );
        let shape = match (self.shape(), other.shape()) {
            (Shape::Vector(_), Shape::Matrix(_, c)) => Shape::Vector(c),
            (Shape::Matrix(r, _), Shape::Vector(_)) => Shape::Vector(r),
            (Shape::Vector(_), Shape::Vector(_)) => Shape::Vector(1),
            _ => Shape::Matrix(m, n),
        };
        Tensor { data: out, shape }
    }

    /// `self^T @ other` without materialising the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        // (A^T B)_{ij} = sum_k A_{ki} B_{kj}
        let (k1, m) = (self.rows(), self.cols());
        let (k2, n) = (other.rows(), other.cols());
        assert_eq!(
            k1, k2,
            "Tensor::t_matmul: row counts disagree: {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul("tensor.t_matmul.calls", m, n, k1);
        let _k = KernelSpan::enter("tensor.t_matmul", KernelKind::Matmul);
        let mut out = vec![0.0f32; m * n];
        // Two algorithms on purpose, chosen from what the pool observes
        // (thread count and work). A scatter cannot be banded by output
        // row, and running the gather as one whole-range band instead of
        // the scatter cost +11.8 % `op_us` on `ahntp-perf train_full`
        // (median 79 457 → 88 818 µs, slower in 9 of 10 alternating pairs
        // on a 2-vCPU host): the gather strides `a` by `m` per step.
        let work = 2 * m * n * k1;
        if ahntp_par::par_enabled(work) {
            // Gather form: each band owns output rows and walks k
            // ascending, matching the scatter's per-element accumulation
            // order exactly.
            let (a, b) = (&self.data, &other.data);
            ahntp_par::par_rows(
                &mut out,
                n,
                work,
                "tensor.t_matmul.par_calls",
                |row0, band| t_matmul_rows(a, b, m, n, k1, row0, band),
            );
        } else {
            // Serial scatter: k-outer keeps both operands streaming.
            for kk in 0..k1 {
                let a_row = &self.data[kk * m..(kk + 1) * m];
                let b_row = &other.data[kk * n..(kk + 1) * n];
                for (i, &aki) in a_row.iter().enumerate() {
                    if aki == 0.0 {
                        continue;
                    }
                    let out_row = &mut out[i * n..(i + 1) * n];
                    for (o, &bkj) in out_row.iter_mut().zip(b_row) {
                        *o += aki * bkj;
                    }
                }
            }
        }
        Tensor {
            data: out,
            shape: Shape::Matrix(m, n),
        }
    }

    /// `self @ other^T` without materialising the transpose.
    pub fn matmul_t(&self, other: &Tensor) -> Tensor {
        // (A B^T)_{ij} = dot(A_i, B_j) — both operands walk rows, so this is
        // the friendliest kernel of the three.
        let (m, k1) = (self.rows(), self.cols());
        let (n, k2) = (other.rows(), other.cols());
        assert_eq!(
            k1, k2,
            "Tensor::matmul_t: column counts disagree: {} vs {}",
            self.shape(),
            other.shape()
        );
        record_matmul("tensor.matmul_t.calls", m, n, k1);
        let _k = KernelSpan::enter("tensor.matmul_t", KernelKind::Matmul);
        let mut out = vec![0.0f32; m * n];
        let (a, b) = (&self.data, &other.data);
        ahntp_par::par_rows(
            &mut out,
            n,
            2 * m * n * k1,
            "tensor.matmul_t.par_calls",
            |row0, band| matmul_t_rows(a, b, k1, n, row0, band),
        );
        Tensor {
            data: out,
            shape: Shape::Matrix(m, n),
        }
    }

    /// Materialised transpose.
    pub fn transpose(&self) -> Tensor {
        match self.shape() {
            Shape::Vector(_) => self.clone(),
            Shape::Matrix(r, c) => {
                let mut out = vec![0.0f32; r * c];
                for i in 0..r {
                    for j in 0..c {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
                Tensor {
                    data: out,
                    shape: Shape::Matrix(c, r),
                }
            }
        }
    }

    /// Dot product of two equal-length vectors (or flattened tensors of the
    /// same shape).
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "Tensor::dot: shape mismatch {} vs {}",
            self.shape(),
            other.shape()
        );
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Tensor::eye(3)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn vector_promotions() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = Tensor::vector(vec![1.0, 1.0]);
        // A @ v = row sums
        let av = a.matmul(&v);
        assert_eq!(av.shape(), Shape::Vector(2));
        assert_eq!(av.as_slice(), &[3.0, 7.0]);
        // v @ A = column sums
        let va = v.matmul(&a);
        assert_eq!(va.shape(), Shape::Vector(2));
        assert_eq!(va.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn fused_transpose_products_match_explicit() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]); // 2x3
        let b = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]); // 2x2
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
        let c = Tensor::from_rows(&[&[1.0, 1.0, 1.0], &[2.0, 2.0, 2.0]]); // 2x3
        assert_eq!(a.matmul_t(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn dot_product() {
        let a = Tensor::vector(vec![1.0, 2.0, 3.0]);
        let b = Tensor::vector(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_bad_inner_dim() {
        Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }
}

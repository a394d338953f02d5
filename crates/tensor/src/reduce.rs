//! Reductions, norms, and row-wise softmax.
//!
//! Row-wise reductions (`row_sums`, `row_norms`, `softmax_rows`,
//! `normalize_rows`) reduce each row in element order; whole-tensor
//! reductions (`sum`, `mean`, `frobenius_norm`, `col_sums`, …) accumulate
//! in storage order. Every kernel is one loop on the calling thread.

use crate::{Shape, Tensor};
use ahntp_telemetry::{KernelKind, KernelSpan};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for empty tensors).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for empty tensors).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Reduces every row to one value with `f`, as a vector of length
    /// `rows`: the loop behind [`Tensor::row_sums`] and
    /// [`Tensor::row_norms`].
    fn reduce_rows(&self, span: &'static str, f: impl Fn(&[f32]) -> f32) -> Tensor {
        let _k = KernelSpan::enter(span, KernelKind::Reduction);
        let cols = self.cols();
        let out = (0..self.rows())
            .map(|r| f(&self.data[r * cols..(r + 1) * cols]))
            .collect();
        Tensor {
            data: out,
            shape: Shape::Vector(self.rows()),
        }
    }

    /// Rewrites every row of a copy in place with `f`: the loop behind
    /// [`Tensor::softmax_rows`] and [`Tensor::normalize_rows`].
    fn map_rows(&self, span: &'static str, f: impl Fn(&mut [f32])) -> Tensor {
        let _k = KernelSpan::enter(span, KernelKind::Reduction);
        let mut out = self.clone();
        // A zero-column tensor has no data, so any chunk length walks no rows.
        out.data.chunks_mut(self.cols().max(1)).for_each(f);
        out
    }

    /// Per-row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Tensor {
        self.reduce_rows("tensor.row_sums", |row| row.iter().sum())
    }

    /// Per-column sums as a vector of length `cols`.
    pub fn col_sums(&self) -> Tensor {
        let _k = KernelSpan::enter("tensor.col_sums", KernelKind::Reduction);
        let cols = self.cols();
        let mut out = vec![0.0f32; cols];
        for r in 0..self.rows() {
            for (o, &v) in out.iter_mut().zip(&self.data[r * cols..(r + 1) * cols]) {
                *o += v;
            }
        }
        Tensor {
            data: out,
            shape: Shape::Vector(cols),
        }
    }

    /// Per-row Euclidean norms as a vector of length `rows`.
    pub fn row_norms(&self) -> Tensor {
        self.reduce_rows("tensor.row_norms", |row| {
            row.iter().map(|&v| v * v).sum::<f32>().sqrt()
        })
    }

    /// Frobenius norm of the whole tensor.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum::<f32>().sqrt()
    }

    /// Numerically-stable row-wise softmax (max-shifted).
    pub fn softmax_rows(&self) -> Tensor {
        let cols = self.cols();
        let softmax_row = |row: &mut [f32]| {
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut z = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - m).exp();
                z += *v;
            }
            // All-(-inf) rows would give z = 0; treat them as uniform so
            // attention over an empty neighbourhood stays well-defined.
            if z > 0.0 {
                for v in row.iter_mut() {
                    *v /= z;
                }
            } else {
                let u = 1.0 / cols as f32;
                for v in row.iter_mut() {
                    *v = u;
                }
            }
        };
        self.map_rows("tensor.softmax_rows", softmax_row)
    }

    /// Rows rescaled to unit L2 norm; zero rows are left untouched.
    pub fn normalize_rows(&self) -> Tensor {
        let normalize_row = |row: &mut [f32]| {
            let n: f32 = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
            if n > 0.0 {
                for v in row.iter_mut() {
                    *v /= n;
                }
            }
        };
        self.map_rows("tensor.normalize_rows", normalize_row)
    }

    /// Cosine similarity between row `i` of `self` and row `j` of `other`.
    /// Returns 0.0 when either row is all-zero.
    pub fn cosine_rows(&self, i: usize, other: &Tensor, j: usize) -> f32 {
        let a = self.row(i);
        let b = other.row(j);
        assert_eq!(
            a.len(),
            b.len(),
            "Tensor::cosine_rows: width mismatch {} vs {}",
            a.len(),
            b.len()
        );
        let mut dot = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na.sqrt() * nb.sqrt())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t23() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    #[test]
    fn scalar_reductions() {
        let t = t23();
        assert_eq!(t.sum(), 21.0);
        assert_eq!(t.mean(), 3.5);
        assert_eq!(t.max(), 6.0);
        assert_eq!(t.min(), 1.0);
    }

    #[test]
    fn axis_reductions() {
        let t = t23();
        assert_eq!(t.row_sums().as_slice(), &[6.0, 15.0]);
        assert_eq!(t.col_sums().as_slice(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let t = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        assert_eq!(t.row_norms().as_slice(), &[5.0, 0.0]);
        assert_eq!(t.frobenius_norm(), 5.0);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-1000.0, 0.0, 1000.0]]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6, "row {r} sums to {sum}");
        }
        assert!(s.get(0, 2) > s.get(0, 1) && s.get(0, 1) > s.get(0, 0));
        // extreme logits stay finite
        assert!(s.all_finite());
        assert!((s.get(1, 2) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_handles_uniform_row() {
        let t = Tensor::from_rows(&[&[5.0, 5.0]]);
        let s = t.softmax_rows();
        assert!((s.get(0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_rows_unit_norm_and_zero_row_safe() {
        let t = Tensor::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        let n = t.normalize_rows();
        assert!((n.row_norms().as_slice()[0] - 1.0).abs() < 1e-6);
        assert_eq!(n.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn cosine_rows_basic_identities() {
        let t = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 2.0], &[-1.0, 0.0], &[0.0, 0.0]]);
        assert!((t.cosine_rows(0, &t, 0) - 1.0).abs() < 1e-6);
        assert!(t.cosine_rows(0, &t, 1).abs() < 1e-6);
        assert!((t.cosine_rows(0, &t, 2) + 1.0).abs() < 1e-6);
        assert_eq!(t.cosine_rows(0, &t, 3), 0.0);
    }
}

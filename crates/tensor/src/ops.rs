//! Element-wise arithmetic and broadcasting. Each kernel is one loop over
//! the output on the calling thread.

use crate::{Shape, Tensor};
use ahntp_telemetry::{KernelKind, KernelSpan};

#[inline]
fn assert_same_shape(op: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "Tensor::{op}: shape mismatch {} vs {}",
        a.shape(),
        b.shape()
    );
}

impl Tensor {
    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        let _k = KernelSpan::enter("tensor.map", KernelKind::Elementwise);
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination of two same-shape tensors.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_same_shape("zip", self, other);
        let _k = KernelSpan::enter("tensor.zip", KernelKind::Elementwise);
        let mut out = self.clone();
        for (v, &bv) in out.data.iter_mut().zip(&other.data) {
            *v = f(*v, bv);
        }
        out
    }

    /// `self + other` (same shape).
    pub fn add(&self, other: &Tensor) -> Tensor {
        assert_same_shape("add", self, other);
        self.zip(other, |a, b| a + b)
    }

    /// `self - other` (same shape).
    pub fn sub(&self, other: &Tensor) -> Tensor {
        assert_same_shape("sub", self, other);
        self.zip(other, |a, b| a - b)
    }

    /// Hadamard (element-wise) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        assert_same_shape("mul", self, other);
        self.zip(other, |a, b| a * b)
    }

    /// Element-wise division.
    pub fn div(&self, other: &Tensor) -> Tensor {
        assert_same_shape("div", self, other);
        self.zip(other, |a, b| a / b)
    }

    /// `self + scalar`.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// `self * scalar`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// `self += other * alpha` (axpy), in place. The optimizer hot path.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Tensor) {
        assert_same_shape("axpy_inplace", self, other);
        let _k = KernelSpan::enter("tensor.axpy", KernelKind::Elementwise);
        for (a, &bv) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * bv;
        }
    }

    /// Adds `row` (a vector of length `cols`) to every row of `self`.
    /// This is the bias broadcast of a linear layer.
    pub fn add_row_broadcast(&self, row: &Tensor) -> Tensor {
        assert!(
            row.shape().is_vector() && row.len() == self.cols(),
            "Tensor::add_row_broadcast: need a [{}] vector, got {}",
            self.cols(),
            row.shape()
        );
        let _k = KernelSpan::enter("tensor.add_row_broadcast", KernelKind::Elementwise);
        let mut out = self.clone();
        // A zero-column tensor has no data, so any chunk length walks no rows.
        for out_row in out.data.chunks_mut(self.cols().max(1)) {
            for (v, &b) in out_row.iter_mut().zip(&row.data) {
                *v += b;
            }
        }
        out
    }

    /// Multiplies each row `r` of `self` by `col[r]` — a per-row scaling,
    /// used e.g. to weight node features by PageRank scores.
    pub fn scale_rows(&self, col: &Tensor) -> Tensor {
        assert!(
            col.shape().is_vector() && col.len() == self.rows(),
            "Tensor::scale_rows: need a [{}] vector, got {}",
            self.rows(),
            col.shape()
        );
        let _k = KernelSpan::enter("tensor.scale_rows", KernelKind::Elementwise);
        let mut out = self.clone();
        // As in `add_row_broadcast`: no columns, no data, no rows walked.
        for (out_row, &s) in out.data.chunks_mut(self.cols().max(1)).zip(&col.data) {
            for v in out_row {
                *v *= s;
            }
        }
        out
    }

    /// Concatenates matrices horizontally (same row count). The `||`
    /// operator of Eqs. (6)–(9) and (14) in the paper.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "Tensor::concat_cols: no tensors given");
        let rows = parts[0].rows();
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(
                p.rows(),
                rows,
                "Tensor::concat_cols: part {i} has {} rows, expected {rows}",
                p.rows()
            );
        }
        let total_cols: usize = parts.iter().map(|p| p.cols()).sum();
        let mut data = Vec::with_capacity(rows * total_cols);
        for r in 0..rows {
            for p in parts {
                data.extend_from_slice(p.row(r));
            }
        }
        Tensor {
            data,
            shape: Shape::Matrix(rows, total_cols),
        }
    }

    /// Concatenates matrices vertically (same column count).
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "Tensor::concat_rows: no tensors given");
        let cols = parts[0].cols();
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(
                p.cols(),
                cols,
                "Tensor::concat_rows: part {i} has {} cols, expected {cols}",
                p.cols()
            );
        }
        let total_rows: usize = parts.iter().map(|p| p.rows()).sum();
        let mut data = Vec::with_capacity(total_rows * cols);
        for p in parts {
            data.extend_from_slice(p.as_slice());
        }
        Tensor {
            data,
            shape: Shape::Matrix(total_rows, cols),
        }
    }

    /// Splits a matrix into column blocks of the given widths (inverse of
    /// [`Tensor::concat_cols`]).
    pub fn split_cols(&self, widths: &[usize]) -> Vec<Tensor> {
        let total: usize = widths.iter().sum();
        assert_eq!(
            total,
            self.cols(),
            "Tensor::split_cols: widths sum to {total}, tensor has {} cols",
            self.cols()
        );
        let rows = self.rows();
        let mut out: Vec<Tensor> = widths.iter().map(|&w| Tensor::zeros(rows, w)).collect();
        for r in 0..rows {
            let mut offset = 0;
            let src = self.row(r);
            for (part, &w) in out.iter_mut().zip(widths) {
                part.row_mut(r).copy_from_slice(&src[offset..offset + w]);
                offset += w;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t22() -> Tensor {
        Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = t22();
        let b = Tensor::full(2, 2, 2.0);
        assert_eq!(a.add(&b).as_slice(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.sub(&b).as_slice(), &[-1.0, 0.0, 1.0, 2.0]);
        assert_eq!(a.mul(&b).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.div(&b).as_slice(), &[0.5, 1.0, 1.5, 2.0]);
        assert_eq!(a.scale(10.0).as_slice(), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.add_scalar(1.0).as_slice(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_rejects_mismatched_shapes() {
        t22().add(&Tensor::zeros(2, 3));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t22();
        let g = Tensor::full(2, 2, 1.0);
        a.axpy_inplace(-0.5, &g);
        assert_eq!(a.as_slice(), &[0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn row_broadcast_adds_bias() {
        let a = t22();
        let bias = Tensor::vector(vec![10.0, 20.0]);
        assert_eq!(
            a.add_row_broadcast(&bias).as_slice(),
            &[11.0, 22.0, 13.0, 24.0]
        );
    }

    #[test]
    fn scale_rows_applies_per_row_factor() {
        let a = t22();
        let s = Tensor::vector(vec![2.0, 0.5]);
        assert_eq!(a.scale_rows(&s).as_slice(), &[2.0, 4.0, 1.5, 2.0]);
    }

    #[test]
    fn concat_and_split_cols_roundtrip() {
        let a = t22();
        let b = Tensor::from_rows(&[&[5.0], &[6.0]]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), Shape::Matrix(2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        let parts = c.split_cols(&[2, 1]);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_rows_stacks() {
        let a = t22();
        let b = Tensor::from_rows(&[&[9.0, 9.0]]);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.shape(), Shape::Matrix(3, 2));
        assert_eq!(c.row(2), &[9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "part 1 has 3 rows")]
    fn concat_cols_rejects_row_mismatch() {
        let a = t22();
        let b = Tensor::zeros(3, 1);
        Tensor::concat_cols(&[&a, &b]);
    }
}

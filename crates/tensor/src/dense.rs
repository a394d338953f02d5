//! The dense tensor type and its constructors/accessors.

use crate::{Shape, TensorError};

/// A dense, row-major, `f32` tensor of rank 1 or 2.
///
/// `Tensor` is a value type: arithmetic produces new tensors. In-place
/// variants (`*_inplace`, [`Tensor::map_inplace`]) exist for the optimizer
/// hot path. The backing storage is a plain `Vec<f32>` so cloning is an
/// honest O(n) copy — the autograd tape above this crate is responsible for
/// avoiding gratuitous clones, and does: its ops take `&Tensor` operands
/// straight from the tape and its backward pass moves gradients, so the
/// copies left in a training step are the ones a caller asks for.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    pub(crate) data: Vec<f32>,
    pub(crate) shape: Shape,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Avoid dumping megabytes of floats on assertion failures.
        const PREVIEW: usize = 8;
        let head: Vec<f32> = self.data.iter().take(PREVIEW).copied().collect();
        let ellipsis = if self.data.len() > PREVIEW {
            ", …"
        } else {
            ""
        };
        write!(f, "Tensor{} {:?}{}", self.shape, head, ellipsis)
    }
}

impl Tensor {
    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            data: vec![0.0; rows * cols],
            shape: Shape::Matrix(rows, cols),
        }
    }

    /// A length-`n` vector filled with zeros.
    pub fn zeros_vec(n: usize) -> Tensor {
        Tensor {
            data: vec![0.0; n],
            shape: Shape::Vector(n),
        }
    }

    /// A `rows x cols` matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Tensor {
        Tensor {
            data: vec![value; rows * cols],
            shape: Shape::Matrix(rows, cols),
        }
    }

    /// A length-`n` vector filled with `value`.
    pub fn full_vec(n: usize, value: f32) -> Tensor {
        Tensor {
            data: vec![value; n],
            shape: Shape::Vector(n),
        }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Tensor, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data,
            shape: Shape::Matrix(rows, cols),
        })
    }

    /// Builds a matrix from a row-major buffer, panicking on length mismatch.
    /// Convenience for tests and literals.
    pub fn matrix(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(rows, cols, data).expect("Tensor::matrix: length mismatch")
    }

    /// Builds a vector from a buffer.
    pub fn vector(data: Vec<f32>) -> Tensor {
        let n = data.len();
        Tensor {
            data,
            shape: Shape::Vector(n),
        }
    }

    /// Builds a matrix row by row from nested slices (test convenience).
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Tensor {
        assert!(!rows.is_empty(), "Tensor::from_rows: no rows given");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "Tensor::from_rows: row {i} has length {} but row 0 has {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Tensor {
            data,
            shape: Shape::Matrix(rows.len(), cols),
        }
    }

    /// The shape of this tensor.
    #[inline]
    pub fn shape(&self) -> Shape {
        self.shape
    }

    /// Number of rows (1 for vectors).
    #[inline]
    pub fn rows(&self) -> usize {
        self.shape.rows()
    }

    /// Number of columns (length for vectors).
    #[inline]
    pub fn cols(&self) -> usize {
        self.shape.cols()
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the backing row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    #[inline]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element access by `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        let cols = self.cols();
        assert!(
            row < self.rows() && col < cols,
            "Tensor::get: index ({row}, {col}) out of bounds for {}",
            self.shape
        );
        self.data[row * cols + col]
    }

    /// Mutable element access by `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        let cols = self.cols();
        assert!(
            row < self.rows() && col < cols,
            "Tensor::set: index ({row}, {col}) out of bounds for {}",
            self.shape
        );
        self.data[row * cols + col] = value;
    }

    /// A read-only view of row `r` (vectors are a single row).
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        let cols = self.cols();
        assert!(
            r < self.rows(),
            "Tensor::row: row {r} out of bounds for {}",
            self.shape
        );
        &self.data[r * cols..(r + 1) * cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols();
        assert!(
            r < self.rows(),
            "Tensor::row_mut: row {r} out of bounds for {}",
            self.shape
        );
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// Reinterprets the tensor with a new shape of identical volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    pub fn reshape(mut self, shape: Shape) -> Tensor {
        assert_eq!(
            self.shape.volume(),
            shape.volume(),
            "Tensor::reshape: cannot reshape {} into {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// A new matrix built from the rows of `self` selected by `indices`
    /// (rows may repeat). This is the `gather` used to pull user embeddings
    /// for a batch of trust pairs.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let cols = self.cols();
        let mut data = Vec::with_capacity(indices.len() * cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Tensor {
            data,
            shape: Shape::Matrix(indices.len(), cols),
        }
    }

    /// True when every element is finite (no NaN/inf). Used by training
    /// loops to fail fast on divergence.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_shapes() {
        assert_eq!(Tensor::zeros(2, 3).shape(), Shape::Matrix(2, 3));
        assert_eq!(Tensor::zeros_vec(4).shape(), Shape::Vector(4));
        assert_eq!(Tensor::full(2, 2, 3.0).as_slice(), &[3.0; 4]);
        let i = Tensor::eye(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert_eq!(
            Tensor::from_vec(2, 2, vec![1.0; 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn from_rows_builds_row_major() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "row 1 has length 3")]
    fn from_rows_rejects_ragged() {
        Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0, 5.0]]);
    }

    #[test]
    fn gather_rows_selects_and_repeats() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), Shape::Matrix(3, 2));
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::matrix(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let v = t.reshape(Shape::Vector(6));
        assert_eq!(v.shape(), Shape::Vector(6));
        assert_eq!(v.as_slice()[5], 6.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_volume_change() {
        Tensor::zeros(2, 3).reshape(Shape::Vector(5));
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut t = Tensor::zeros(1, 3);
        assert!(t.all_finite());
        t.set(0, 1, f32::NAN);
        assert!(!t.all_finite());
    }

    #[test]
    fn debug_output_is_truncated() {
        let t = Tensor::zeros(100, 100);
        let s = format!("{t:?}");
        assert!(s.len() < 200, "debug output too long: {s}");
        assert!(s.contains("[100x100]"));
    }

    #[test]
    fn row_views() {
        let mut t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        t.row_mut(0)[1] = 9.0;
        assert_eq!(t.get(0, 1), 9.0);
    }
}

//! Dense f32 tensor algebra and CSR sparse kernels.
//!
//! This crate is the numerical substrate for the AHNTP reproduction. It
//! provides exactly the operations the model's computation graph needs:
//!
//! * [`Tensor`] — a row-major, dense, `f32`, rank-1/rank-2 tensor with
//!   element-wise arithmetic, matrix multiplication, broadcasting against
//!   rows/columns, reductions, and row-wise softmax.
//! * [`CsrMatrix`] — a compressed-sparse-row matrix (generic over `f32` /
//!   `f64`) with sparse·sparse and sparse·dense products, masked (Hadamard)
//!   products, transpose, and degree/normalization helpers. These are the
//!   kernels behind the motif-induced adjacency computation (Table II of the
//!   paper) and hypergraph incidence aggregation.
//!
//! # Shape errors
//!
//! Like `ndarray` and friends, dimension mismatches are programming errors,
//! not recoverable conditions: all operations validate shapes and panic with
//! a message naming the operation and both shapes. Fallible constructors
//! ([`Tensor::from_vec`], [`CsrMatrix::from_triplets`]) return
//! [`TensorError`] for data-dependent failures instead.

// One exception, allowed where it stands: the call into the dense kernel's
// AVX-512F instantiation, made only after runtime detection (`matmul.rs`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod matmul;
mod ops;
mod random;
mod reduce;
mod shape;
mod sparse;

pub use dense::Tensor;
pub use random::{he_normal, xavier_uniform, SplitMix64};
pub use shape::Shape;
pub use sparse::{CooTriplet, CsrMatrix};

/// Errors produced by fallible tensor constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided buffer length does not match the requested shape.
    LengthMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A triplet coordinate lies outside the declared matrix dimensions.
    IndexOutOfBounds {
        /// Offending row index.
        row: usize,
        /// Offending column index.
        col: usize,
        /// Declared number of rows.
        rows: usize,
        /// Declared number of columns.
        cols: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::LengthMismatch { expected, actual } => write!(
                f,
                "buffer length {actual} does not match shape volume {expected}"
            ),
            TensorError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "triplet ({row}, {col}) out of bounds for a {rows}x{cols} matrix"
            ),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_mentions_both_sides() {
        let e = TensorError::LengthMismatch {
            expected: 6,
            actual: 5,
        };
        let s = e.to_string();
        assert!(s.contains('6') && s.contains('5'));
        let e = TensorError::IndexOutOfBounds {
            row: 9,
            col: 1,
            rows: 3,
            cols: 3,
        };
        assert!(e.to_string().contains("9"));
    }
}

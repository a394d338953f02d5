//! Tape-based reverse-mode automatic differentiation.
//!
//! The AHNTP model — like every GNN in the paper's evaluation — is a fixed
//! pipeline of matrix products, sparse aggregations, pointwise
//! nonlinearities, attention softmaxes, and reduction losses. This crate
//! provides exactly that operation set as a define-by-run tape, in the style
//! of PyTorch's autograd (which the paper's reference implementation uses):
//!
//! ```
//! use ahntp_autograd::Graph;
//! use ahntp_tensor::{Tensor, xavier_uniform};
//!
//! let g = Graph::new();
//! let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let w = g.leaf(xavier_uniform(2, 3, 42)); // requires grad
//! let loss = x.matmul(&w).relu().sum();
//! loss.backward();
//! let dw = w.grad().expect("leaf participated in the loss");
//! assert_eq!(dw.shape(), w.value().shape());
//! ```
//!
//! # Design
//!
//! * **One [`Graph`] per training step.** Parameters live outside the graph
//!   (see `ahntp-nn`'s optimizers); each step leafs them in, runs forward,
//!   calls [`Var::backward`], and reads gradients back. The tape is then
//!   dropped wholesale — no reference-counted graph surgery.
//! * **Fused domain ops.** Hyperedge attention needs a softmax over
//!   *variable-size* neighbourhoods and a gradient through the attention
//!   weights of a sparse aggregation. Instead of composing these from dozens
//!   of scalar ops (slow, and numerically delicate), the tape provides
//!   [`Graph::pair_scores`], [`Var::segment_softmax`], [`Var::segment_sum`],
//!   [`Graph::weighted_gather`] and [`Graph::pair_cosine`] as single nodes
//!   with hand-derived adjoints. The three attention nodes (Eqs. 14–16)
//!   read one CSR pattern — a row is one output vertex and one softmax
//!   segment, a column one row of the aggregated features — so every
//!   attention layer runs `pair_scores → leaky_relu → segment_softmax →
//!   weighted_gather` over the pattern it already holds. The indexed
//!   nodes do per-row work once per row: `pair_scores` one dot per vertex
//!   and per hyperedge, `pair_cosine` one norm per row of each operand,
//!   and neither gathers a per-pair matrix. Every adjoint is validated
//!   against central finite differences in `tests/gradcheck.rs`.
//! * **Values are read where they lie.** A forward op computes from its
//!   operands' tensors on the tape, under one borrow, and copies nothing;
//!   [`Var::value`] is for reading a result out. The backward pass moves
//!   each node's gradient out of the node for that node's step and frees it
//!   there — only leaves keep theirs ([`Var::grad`]) — and computes no
//!   gradient for an operand that takes none (features, labels, masks).
//! * **Sparse structure is constant.** Incidence and adjacency matrices
//!   enter via [`Graph::spmm`] (values and pattern) or the three attention
//!   nodes (pattern only, as `spmm_masked` reads its mask) as
//!   non-differentiable structure, shared by `Rc` and checked in O(1)
//!   against the operands' shapes; gradients flow only through dense
//!   operands and attention weights, which is exactly the differentiability
//!   boundary of the paper's model.
//!
//! The tape is intentionally `!Send`: training is single-threaded per model,
//! and experiment-level parallelism happens across models (see
//! `ahntp-bench`), which keeps the hot path free of locks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gradcheck;
mod tape;
mod var;

pub use gradcheck::{check_gradients, numerical_gradient, GradCheckReport};
pub use tape::{Graph, Var};

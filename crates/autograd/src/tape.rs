//! The tape: graph storage, node ops, and the backward pass.

use ahntp_telemetry::{KernelKind, KernelSpan};
use ahntp_tensor::{CsrMatrix, Shape, Tensor};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

/// An operation recorded on the tape. Parents are node ids; constant
/// structure (sparse matrices, index lists) is shared via `Rc`, never
/// copied.
pub(crate) enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Scale(usize, f32),
    AddScalar(usize),
    Matmul(usize, usize),
    /// `A @ B^T`.
    MatmulT(usize, usize),
    Transpose(usize),
    /// Constant sparse `H @ x`; gradient flows to `x` only.
    Spmm(Rc<CsrMatrix<f32>>, usize),
    Relu(usize),
    LeakyRelu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    Exp(usize),
    /// `ln(max(a, eps))`.
    LnEps(usize, f32),
    /// Matrix plus a broadcast row-vector bias.
    AddBias(usize, usize),
    ConcatCols(Rc<Vec<usize>>),
    GatherRows(usize, Rc<Vec<usize>>),
    /// Per-row scaling of a matrix by a variable column.
    MulRows(usize, usize),
    Sum(usize),
    Mean(usize),
    /// Indexed cosine similarity (Eq. 19): `y_p = cos(a[ia[p]], b[ib[p]])`.
    PairCosine {
        a: usize,
        b: usize,
        ia: Rc<Vec<usize>>,
        ib: Rc<Vec<usize>>,
    },
    /// Softmax within each row of a pattern's entries.
    SegmentSoftmax(usize, Rc<CsrMatrix<f32>>),
    /// Sum within segments of a vector → `[n_segments]`.
    SegmentSum(usize, Rc<Vec<usize>>),
    /// Same-volume shape reinterpretation.
    Reshape(usize),
    /// Attention-weighted sparse aggregation over a pattern's entries:
    /// `y_r = Σ_{k ∈ row r} w_k · h_{col(k)}`.
    WeightedGather {
        weights: usize,
        h: usize,
        pattern: Rc<CsrMatrix<f32>>,
    },
    /// Per-entry attention scores (Eq. 14 before the LeakyReLU):
    /// `s_k = [x_{row(k)} ‖ h_{col(k)}] · β`.
    PairScores {
        x: usize,
        h: usize,
        beta: usize,
        pattern: Rc<CsrMatrix<f32>>,
    },
}

/// Stable human-readable name for an op, used by telemetry counters and
/// divergence provenance ("first non-finite output from op `matmul`").
pub(crate) fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "leaf",
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::Scale(..) => "scale",
        Op::AddScalar(..) => "add_scalar",
        Op::Matmul(..) => "matmul",
        Op::MatmulT(..) => "matmul_t",
        Op::Transpose(..) => "transpose",
        Op::Spmm(..) => "spmm",
        Op::Relu(..) => "relu",
        Op::LeakyRelu(..) => "leaky_relu",
        Op::Sigmoid(..) => "sigmoid",
        Op::Tanh(..) => "tanh",
        Op::Exp(..) => "exp",
        Op::LnEps(..) => "ln_eps",
        Op::AddBias(..) => "add_bias",
        Op::ConcatCols(..) => "concat_cols",
        Op::GatherRows(..) => "gather_rows",
        Op::MulRows(..) => "mul_rows",
        Op::Sum(..) => "sum",
        Op::Mean(..) => "mean",
        Op::PairCosine { .. } => "pair_cosine",
        Op::SegmentSoftmax(..) => "segment_softmax",
        Op::SegmentSum(..) => "segment_sum",
        Op::Reshape(..) => "reshape",
        Op::WeightedGather { .. } => "weighted_gather",
        Op::PairScores { .. } => "pair_scores",
    }
}

pub(crate) struct Node {
    pub value: Tensor,
    pub grad: Option<Tensor>,
    pub op: Op,
    pub requires_grad: bool,
}

/// A define-by-run computation tape. Cheap to clone (shared handle); create
/// one per forward/backward pass.
#[derive(Clone)]
pub struct Graph {
    pub(crate) nodes: Rc<RefCell<Vec<Node>>>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Graph {
        Graph {
            nodes: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Number of nodes currently recorded.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    pub(crate) fn push(&self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        // Divergence provenance: under AHNTP_CHECK_FINITE (or
        // set_finite_checks), remember the *first* op whose output went
        // non-finite so the trainer's "diverged" panic can name it. The
        // scan is opt-in because it touches every output element.
        if ahntp_telemetry::finite_checks_enabled()
            && !matches!(op, Op::Leaf)
            && value.as_slice().iter().any(|v| !v.is_finite())
        {
            ahntp_telemetry::record_nonfinite(op_name(&op), self.nodes.borrow().len());
        }
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var {
            graph: self.clone(),
            id: nodes.len() - 1,
        }
    }

    /// Records a differentiable leaf (a model parameter).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Records a non-differentiable input (features, labels, masks).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Constant-sparse × dense product `h @ x` (graph/hypergraph
    /// aggregation). Gradients flow to `x`; the sparse structure is fixed.
    pub fn spmm(&self, h: &Rc<CsrMatrix<f32>>, x: &Var) -> Var {
        x.assert_same_graph(self, "spmm");
        let (value, rg) = {
            let nodes = self.nodes.borrow();
            let x = &nodes[x.id];
            (h.mul_dense(&x.value), x.requires_grad)
        };
        self.push(value, Op::Spmm(Rc::clone(h), x.id), rg)
    }

    /// Attention-weighted aggregation over `pattern`'s entries: output row
    /// `r` is `Σ_k w[k] · h[c_k]` over the entries `k = (r, c_k)` of
    /// pattern row `r`, `k` counting entries in CSR order.
    ///
    /// This is Eq. (16) of the paper as a single differentiable node:
    /// gradients flow to both the attention weights `w` (one per entry) and
    /// the hyperedge features `h`. Only the pattern is read, never its
    /// values: a row is one output vertex, a column one row of `h`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a vector of `pattern.nnz()` weights or `h` does
    /// not have `pattern.cols()` rows.
    pub fn weighted_gather(&self, pattern: &Rc<CsrMatrix<f32>>, w: &Var, h: &Var) -> Var {
        w.assert_same_graph(self, "weighted_gather");
        h.assert_same_graph(self, "weighted_gather");
        let _k = KernelSpan::enter("autograd.weighted_gather", KernelKind::Csr);
        let (out, rg) = {
            let nodes = self.nodes.borrow();
            let (wn, hn) = (&nodes[w.id], &nodes[h.id]);
            let (wv, hv) = (&wn.value, &hn.value);
            assert!(
                wv.shape().is_vector() && wv.len() == pattern.nnz(),
                "weighted_gather: weights must be a [{}] vector, got {}",
                pattern.nnz(),
                wv.shape()
            );
            assert_columns_index(pattern, hv, "weighted_gather", "h");
            let mut out = Tensor::zeros(pattern.rows(), hv.cols());
            for ((r, e), &wk) in entries(pattern).zip(wv.as_slice()) {
                for (o, s) in out.row_mut(r).iter_mut().zip(hv.row(e)) {
                    *o += wk * s;
                }
            }
            (out, wn.requires_grad || hn.requires_grad)
        };
        self.push(
            out,
            Op::WeightedGather {
                weights: w.id,
                h: h.id,
                pattern: Rc::clone(pattern),
            },
            rg,
        )
    }

    /// Per-entry attention scores, Eq. (14) before its LeakyReLU:
    /// `s_k = [x_r ‖ h_c] · β` for each entry `k = (r, c)` of `pattern`, in
    /// CSR order, as one node that never builds the `nnz × 2d` gathered
    /// matrix. `x` is `pattern.rows() × d`, `h` is `pattern.cols() × d`,
    /// `beta` holds `2d` weights (a `[2d]` vector or a `2d × 1` column);
    /// the result is the `[nnz]` vector of scores. `x` and `h` may be one
    /// node (graph attention over a square pattern).
    ///
    /// The score splits as `x_r · β[..d] + h_c · β[d..]`, so each half is
    /// one dot per vertex and one per hyperedge the pattern names (a row of
    /// `h` no column names is never read), and an entry adds two of them.
    /// The adjoints split the same way: `dx` is each vertex's summed
    /// incoming gradient times `β[..d]`, `dh` each hyperedge's times
    /// `β[d..]`; `dβ` is `[Σ_v s_v x_v ‖ Σ_e s_e h_e]` over those per-row
    /// sums `s`, taken in f64 and rounded once, so it costs one axpy per
    /// row rather than two per entry. That is the composition
    /// `concat_cols(x.gather_rows(rows), h.gather_rows(cols)).matmul(beta)`
    /// reassociated, so value and gradients equal it up to f32 rounding
    /// (`tests/gradcheck.rs` holds them within `1e-6` of each tensor's
    /// max-norm, and checks the gradients against central differences),
    /// and `dβ` is within `1e-6` relative of its f64 value even where the
    /// per-entry terms cancel.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `h` are not matrices of one width `d`, `beta` does
    /// not hold `2d` weights, or `pattern` is not `x.rows() × h.rows()`.
    pub fn pair_scores(&self, x: &Var, h: &Var, beta: &Var, pattern: &Rc<CsrMatrix<f32>>) -> Var {
        for v in [x, h, beta] {
            v.assert_same_graph(self, "pair_scores");
        }
        let (value, rg) = {
            let nodes = self.nodes.borrow();
            let (xn, hn, bn) = (&nodes[x.id], &nodes[h.id], &nodes[beta.id]);
            let value = pair_scores_forward(&xn.value, &hn.value, &bn.value, pattern);
            (
                value,
                xn.requires_grad || hn.requires_grad || bn.requires_grad,
            )
        };
        self.push(
            value,
            Op::PairScores {
                x: x.id,
                h: h.id,
                beta: beta.id,
                pattern: Rc::clone(pattern),
            },
            rg,
        )
    }

    /// Indexed cosine similarity, Eq. (19): `y_p = cos(a[ia[p]], b[ib[p]])`
    /// for each pair `p`, as one node that never gathers the paired rows.
    /// `a` and `b` are matrices of one width; the result is the `[pairs]`
    /// vector. A pair with a zero-norm row has similarity 0 and passes no
    /// gradient.
    ///
    /// Each row's norm is computed once per call, not once per pair, from
    /// the same `k`-ascending chain as [`Tensor::cosine_rows`], so the value
    /// is bitwise `cosine_rows` on the gathered rows. The adjoint
    /// scatter-adds each pair's row gradients straight into `a` and `b`,
    /// pairs ascending, which is the order a `gather_rows` adjoint adds
    /// them in: the gradients are bitwise those of the gathered
    /// composition too.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not matrices of one width, the index lists
    /// differ in length, or an index is out of range.
    pub fn pair_cosine(&self, a: &Var, b: &Var, ia: &Rc<Vec<usize>>, ib: &Rc<Vec<usize>>) -> Var {
        a.assert_same_graph(self, "pair_cosine");
        b.assert_same_graph(self, "pair_cosine");
        let (value, rg) = {
            let nodes = self.nodes.borrow();
            let (an, bn) = (&nodes[a.id], &nodes[b.id]);
            let value = pair_cosine_forward(&an.value, &bn.value, ia, ib);
            (value, an.requires_grad || bn.requires_grad)
        };
        self.push(
            value,
            Op::PairCosine {
                a: a.id,
                b: b.id,
                ia: Rc::clone(ia),
                ib: Rc::clone(ib),
            },
            rg,
        )
    }

    /// Column-wise concatenation of several variables (the `||` operator).
    pub fn concat_cols(&self, parts: &[&Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: no parts");
        for p in parts {
            p.assert_same_graph(self, "concat_cols");
        }
        let (value, rg) = {
            let nodes = self.nodes.borrow();
            let tensors: Vec<&Tensor> = parts.iter().map(|p| &nodes[p.id].value).collect();
            let rg = parts.iter().any(|p| nodes[p.id].requires_grad);
            (Tensor::concat_cols(&tensors), rg)
        };
        let ids = Rc::new(parts.iter().map(|p| p.id).collect::<Vec<_>>());
        self.push(value, Op::ConcatCols(ids), rg)
    }

    /// The shape of every recorded node's value, in tape order: read-only
    /// inspection for tests that pin what a forward pass materialises.
    #[doc(hidden)]
    pub fn shapes(&self) -> Vec<Shape> {
        self.ops().into_iter().map(|(_, shape)| shape).collect()
    }

    /// Every recorded node's op name and value shape, in tape order (see
    /// [`Graph::shapes`]).
    #[doc(hidden)]
    pub fn ops(&self) -> Vec<(&'static str, Shape)> {
        self.nodes
            .borrow()
            .iter()
            .map(|n| (op_name(&n.op), n.value.shape()))
            .collect()
    }
}

/// A handle to a tape node. Clone freely; all clones refer to the same node.
#[derive(Clone)]
pub struct Var {
    pub(crate) graph: Graph,
    pub(crate) id: usize,
}

impl Var {
    pub(crate) fn assert_same_graph(&self, g: &Graph, op: &str) {
        assert!(
            Rc::ptr_eq(&self.graph.nodes, &g.nodes),
            "{op}: variables belong to different graphs"
        );
    }

    /// A copy of the node's current value.
    pub fn value(&self) -> Tensor {
        self.graph.nodes.borrow()[self.id].value.clone()
    }

    /// Moves the node's value out, leaving an empty `0 × 0` matrix: how a
    /// forward-only caller gets back a large constant it lent the tape,
    /// without a copy. Whatever reads the node afterwards sees the empty
    /// matrix, so take it only once nothing else will.
    pub fn take_value(&self) -> Tensor {
        std::mem::replace(
            &mut self.graph.nodes.borrow_mut()[self.id].value,
            Tensor::zeros(0, 0),
        )
    }

    /// The node's shape without copying the data.
    pub fn shape(&self) -> Shape {
        self.graph.nodes.borrow()[self.id].value.shape()
    }

    /// Whether gradients will be accumulated for this node.
    pub fn requires_grad(&self) -> bool {
        self.graph.nodes.borrow()[self.id].requires_grad
    }

    /// A copy of the accumulated gradient: `Some` for a leaf that influenced
    /// the output of a [`Var::backward`] run, `None` otherwise. Interior
    /// gradients are consumed by the backward pass, so an interior node
    /// always reads `None`.
    pub fn grad(&self) -> Option<Tensor> {
        self.graph.nodes.borrow()[self.id].grad.clone()
    }

    /// Moves the accumulated gradient out of the node (see [`Var::grad`]),
    /// leaving `None`: what a caller that hands the gradient on — to a
    /// parameter, say — uses instead of copying it.
    pub fn take_grad(&self) -> Option<Tensor> {
        self.graph.nodes.borrow_mut()[self.id].grad.take()
    }

    /// Runs reverse-mode accumulation from this scalar output.
    ///
    /// Each interior node's gradient is complete when the pass reaches it,
    /// is consumed by that node's own step and freed there; only leaves
    /// keep theirs. A second call on the same tape therefore recomputes
    /// every interior gradient and *adds* into the leaves: after two calls
    /// a leaf's gradient is exactly twice what one call leaves.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a single-element tensor.
    pub fn backward(&self) {
        let _span = KernelSpan::enter("backward", KernelKind::Other);
        ahntp_telemetry::counter_add("autograd.backward.calls", 1);
        let mut nodes = self.graph.nodes.borrow_mut();
        ahntp_telemetry::counter_add("autograd.backward.nodes", nodes.len() as u64);
        let out = &nodes[self.id].value;
        assert_eq!(
            out.len(),
            1,
            "backward: output must be scalar, got {}",
            out.shape()
        );
        let mut seed = zeros_like(out);
        seed.as_mut_slice()[0] = 1.0;
        accum(&mut nodes, self.id, seed);
        for i in (0..=self.id).rev() {
            if matches!(nodes[i].op, Op::Leaf) {
                continue; // nothing to propagate; a leaf keeps its gradient
            }
            let Some(grad_out) = nodes[i].grad.take() else {
                continue;
            };
            // Lend the op out for the step so `nodes` is free to be updated.
            let op = std::mem::replace(&mut nodes[i].op, Op::Leaf);
            backward_step(&mut nodes, i, &op, grad_out);
            nodes[i].op = op;
        }
    }
}

/// Adds `delta` into the gradient slot of `id` if it requires grad.
fn accum(nodes: &mut [Node], id: usize, delta: Tensor) {
    let node = &mut nodes[id];
    if !node.requires_grad {
        return;
    }
    debug_assert_eq!(
        node.value.shape(),
        delta.shape(),
        "gradient shape mismatch for node {id}"
    );
    match &mut node.grad {
        Some(g) => g.axpy_inplace(1.0, &delta),
        slot @ None => *slot = Some(delta),
    }
}

fn zeros_like(t: &Tensor) -> Tensor {
    match t.shape() {
        Shape::Vector(n) => Tensor::zeros_vec(n),
        Shape::Matrix(r, c) => Tensor::zeros(r, c),
    }
}

/// One node's adjoint: reads operand values where they lie, owns
/// `grad_out` (so a pass-through hands it on instead of copying it), and
/// computes nothing for an operand that takes no gradient.
#[allow(clippy::too_many_lines)] // one arm per op; splitting would obscure the adjoint table
fn backward_step(nodes: &mut [Node], i: usize, op: &Op, grad_out: Tensor) {
    match op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            accum(nodes, *a, grad_out.clone());
            accum(nodes, *b, grad_out);
        }
        Op::Sub(a, b) => {
            let db = grad_out.scale(-1.0);
            accum(nodes, *a, grad_out);
            accum(nodes, *b, db);
        }
        Op::Mul(a, b) => {
            let da = nodes[*a]
                .requires_grad
                .then(|| grad_out.mul(&nodes[*b].value));
            let db = nodes[*b]
                .requires_grad
                .then(|| grad_out.mul(&nodes[*a].value));
            accum_some(nodes, *a, da);
            accum_some(nodes, *b, db);
        }
        Op::Scale(a, c) => accum(nodes, *a, grad_out.scale(*c)),
        Op::AddScalar(a) => accum(nodes, *a, grad_out),
        Op::Matmul(a, b) => {
            // y = A @ B : dA = g @ B^T ; dB = A^T @ g
            let (an, bn) = (&nodes[*a], &nodes[*b]);
            let (da, db) = matmul_backward(
                &an.value,
                &bn.value,
                &grad_out,
                (an.requires_grad, bn.requires_grad),
            );
            accum_some(nodes, *a, da);
            accum_some(nodes, *b, db);
        }
        Op::MatmulT(a, b) => {
            // y = A @ B^T : dA = g @ B ; dB = g^T @ A
            let da = nodes[*a]
                .requires_grad
                .then(|| grad_out.matmul(&nodes[*b].value));
            let db = nodes[*b]
                .requires_grad
                .then(|| grad_out.t_matmul(&nodes[*a].value));
            accum_some(nodes, *a, da);
            accum_some(nodes, *b, db);
        }
        Op::Transpose(a) => accum(nodes, *a, grad_out.transpose()),
        Op::Spmm(h, x) => {
            let dx = h.t_mul_dense(&grad_out);
            accum(nodes, *x, dx);
        }
        // The pointwise adjoints keep the multiply even where the factor is
        // 0 or 1: `g · 0.0` is `-0.0` for a negative `g`, and that bit
        // reaches the trajectory goldens.
        Op::Relu(a) => {
            let da = grad_out.zip(&nodes[*a].value, |g, v| g * if v > 0.0 { 1.0 } else { 0.0 });
            accum(nodes, *a, da);
        }
        Op::LeakyRelu(a, slope) => {
            let s = *slope;
            let da = grad_out.zip(&nodes[*a].value, |g, v| g * if v > 0.0 { 1.0 } else { s });
            accum(nodes, *a, da);
        }
        Op::Sigmoid(a) => {
            let da = grad_out.zip(&nodes[i].value, |g, y| g * (y * (1.0 - y)));
            accum(nodes, *a, da);
        }
        Op::Tanh(a) => {
            let da = grad_out.zip(&nodes[i].value, |g, y| g * (1.0 - y * y));
            accum(nodes, *a, da);
        }
        Op::Exp(a) => {
            let da = grad_out.mul(&nodes[i].value);
            accum(nodes, *a, da);
        }
        Op::LnEps(a, eps) => {
            // ln(max(a, eps)) is flat below the clamp: the true subgradient
            // there is 0 (returning 1/eps would inject enormous spurious
            // gradients exactly when the input has collapsed).
            let e = *eps;
            let da = grad_out.zip(&nodes[*a].value, |g, v| {
                g * if v > e { 1.0 / v } else { 0.0 }
            });
            accum(nodes, *a, da);
        }
        Op::AddBias(a, bias) => {
            let dbias = grad_out.col_sums();
            accum(nodes, *a, grad_out);
            accum(nodes, *bias, dbias);
        }
        Op::ConcatCols(ids) => {
            let widths: Vec<usize> = ids.iter().map(|&p| nodes[p].value.cols()).collect();
            let parts = grad_out.split_cols(&widths);
            for (&p, part) in ids.iter().zip(parts) {
                // Vector parents come back as 1 x n matrices from split_cols.
                let part = if nodes[p].value.shape().is_vector() {
                    part.reshape(Shape::Vector(nodes[p].value.len()))
                } else {
                    part
                };
                accum(nodes, p, part);
            }
        }
        Op::GatherRows(a, idx) => {
            let mut da = zeros_like(&nodes[*a].value);
            let cols = da.cols();
            for (out_row, &src) in idx.iter().enumerate() {
                let dst = &mut da.as_mut_slice()[src * cols..(src + 1) * cols];
                for (d, g) in dst.iter_mut().zip(grad_out.row(out_row)) {
                    *d += g;
                }
            }
            accum(nodes, *a, da);
        }
        Op::MulRows(a, factors) => {
            let (av, fv) = (&nodes[*a].value, &nodes[*factors].value);
            let df = nodes[*factors].requires_grad.then(|| {
                let _k = KernelSpan::enter("autograd.mul_rows.adjoint", KernelKind::Reduction);
                let mut df = zeros_like(fv);
                for (r, d) in df.as_mut_slice().iter_mut().enumerate() {
                    for (&g, &x) in grad_out.row(r).iter().zip(av.row(r)) {
                        *d += g * x;
                    }
                }
                df
            });
            let da = nodes[*a]
                .requires_grad
                .then(|| grad_out.scale_rows(&Tensor::vector(fv.as_slice().to_vec())));
            accum_some(nodes, *factors, df);
            accum_some(nodes, *a, da);
        }
        Op::Sum(a) => {
            let g = grad_out.as_slice()[0];
            let mut da = zeros_like(&nodes[*a].value);
            da.map_inplace(|_| g);
            accum(nodes, *a, da);
        }
        Op::Mean(a) => {
            let n = nodes[*a].value.len() as f32;
            let g = grad_out.as_slice()[0] / n;
            let mut da = zeros_like(&nodes[*a].value);
            da.map_inplace(|_| g);
            accum(nodes, *a, da);
        }
        Op::PairCosine { a, b, ia, ib } => {
            let (da, db) = pair_cosine_backward(
                &nodes[*a].value,
                &nodes[*b].value,
                ia,
                ib,
                &nodes[i].value,
                &grad_out,
            );
            // `b` first: the gathered composition reached `b` through the
            // later of its two gathers, so this keeps the order in which a
            // node that is both operands receives its two gradients.
            accum(nodes, *b, db);
            accum(nodes, *a, da);
        }
        Op::SegmentSoftmax(a, pattern) => {
            let _k = KernelSpan::enter("autograd.segment_softmax.adjoint", KernelKind::Reduction);
            let (y, g) = (nodes[i].value.as_slice(), grad_out.as_slice());
            let mut da = zeros_like(&nodes[*a].value);
            // Per row, dot = Σ_j y_j g_j, then da_k = y_k (g_k − dot). Each
            // product is exact in f64 and the sum cancels by construction
            // (Σ_j y_j = 1), so it is accumulated there and rounded once.
            for seg in pattern.row_ptr().windows(2).map(|w| w[0]..w[1]) {
                let (y, g) = (&y[seg.clone()], &g[seg.clone()]);
                let dot: f64 = y
                    .iter()
                    .zip(g)
                    .fold(0.0, |s, (&y, &g)| s + f64::from(y) * f64::from(g));
                for ((d, &y), &g) in da.as_mut_slice()[seg].iter_mut().zip(y).zip(g) {
                    *d = y * (g - dot as f32);
                }
            }
            accum(nodes, *a, da);
        }
        Op::SegmentSum(a, segments) => {
            let mut da = zeros_like(&nodes[*a].value);
            for (k, &s) in segments.iter().enumerate() {
                da.as_mut_slice()[k] = grad_out.as_slice()[s];
            }
            accum(nodes, *a, da);
        }
        Op::Reshape(a) => {
            let parent_shape = nodes[*a].value.shape();
            accum(nodes, *a, grad_out.reshape(parent_shape));
        }
        Op::WeightedGather {
            weights,
            h,
            pattern,
        } => {
            let _k = KernelSpan::enter("autograd.weighted_gather.adjoint", KernelKind::Csr);
            let (wv, hv) = (&nodes[*weights].value, &nodes[*h].value);
            let mut dw = zeros_like(wv);
            let mut dh = zeros_like(hv);
            for (k, (r, e)) in entries(pattern).enumerate() {
                let g_row = grad_out.row(r);
                let mut dot = 0.0f32;
                for (&g, &hh) in g_row.iter().zip(hv.row(e)) {
                    dot += g * hh;
                }
                dw.as_mut_slice()[k] = dot;
                let wk = wv.as_slice()[k];
                for (o, g) in dh.row_mut(e).iter_mut().zip(g_row) {
                    *o += wk * g;
                }
            }
            accum(nodes, *weights, dw);
            accum(nodes, *h, dh);
        }
        Op::PairScores {
            x,
            h,
            beta,
            pattern,
        } => {
            let (dx, dh, dbeta) = pair_scores_backward(
                &nodes[*x].value,
                &nodes[*h].value,
                &nodes[*beta].value,
                pattern,
                &grad_out,
            );
            accum(nodes, *beta, dbeta);
            accum(nodes, *h, dh);
            accum(nodes, *x, dx);
        }
    }
}

fn accum_some(nodes: &mut [Node], id: usize, delta: Option<Tensor>) {
    if let Some(delta) = delta {
        accum(nodes, id, delta);
    }
}

/// Gradient of a dense matmul with the vector-promotion rules of
/// [`Tensor::matmul`] respected (so `[n]`-shaped operands receive
/// `[n]`-shaped gradients). `needs` says which operands take a gradient;
/// the product for one that does not (the feature matrix, a row of ones)
/// is not computed.
fn matmul_backward(
    a: &Tensor,
    b: &Tensor,
    g: &Tensor,
    needs: (bool, bool),
) -> (Option<Tensor>, Option<Tensor>) {
    // Lift everything to matrices, compute, then demote. A matrix is used
    // where it is; only a vector is copied, into its `rows x cols` shape.
    fn lift(t: &Tensor, rows: usize, cols: usize) -> Cow<'_, Tensor> {
        match t.shape() {
            Shape::Matrix(_, _) => Cow::Borrowed(t),
            Shape::Vector(_) => Cow::Owned(t.clone().reshape(Shape::Matrix(rows, cols))),
        }
    }
    let am = lift(a, 1, a.len()); // [n] on the left acts as 1 x n
    let bm = lift(b, b.len(), 1); // [n] on the right acts as n x 1
    let gm = lift(g, am.rows(), bm.cols());
    let demote = |t: Tensor, like: &Tensor| -> Tensor {
        match like.shape() {
            Shape::Vector(n) => t.reshape(Shape::Vector(n)),
            Shape::Matrix(_, _) => t,
        }
    };
    (
        needs.0.then(|| demote(gm.matmul_t(&bm), a)),
        needs.1.then(|| demote(am.t_matmul(&gm), b)),
    )
}

/// Dot-product chains run side by side. Each is `k`-sequential, so its
/// value does not depend on the pool or the tiling, and throughput comes
/// from keeping several in flight.
const CHAINS: usize = 8;

/// `acc[r] += rows[r] · b`: `k` ascending, one rounded multiply and one
/// rounded add per step, continuing from whatever `acc` holds.
#[inline(always)]
fn extend_chains<const R: usize>(acc: &mut [f32; R], rows: [&[f32]; R], b: &[f32]) {
    let rows = rows.map(|r| &r[..b.len()]);
    let mut sums = *acc;
    for (k, &bk) in b.iter().enumerate() {
        for (s, row) in sums.iter_mut().zip(rows) {
            *s += row[k] * bk;
        }
    }
    *acc = sums;
}

/// Continues every `out[i]` through `row(i) · b`, `CHAINS` at a time.
fn extend_all<'a>(out: &mut [f32], row: impl Fn(usize) -> &'a [f32], b: &[f32]) {
    for (block, chunk) in out.chunks_mut(CHAINS).enumerate() {
        let i = block * CHAINS;
        if let Ok(acc) = <&mut [f32; CHAINS]>::try_from(&mut *chunk) {
            extend_chains(acc, std::array::from_fn(|r| row(i + r)), b);
        } else {
            for (r, s) in chunk.iter_mut().enumerate() {
                extend_chains(std::array::from_mut(s), [row(i + r)], b);
            }
        }
    }
}

/// Every entry of `pattern` as `(row, column)`: rows ascending, each row's
/// entries in stored order. All three attention nodes run in this order,
/// which is what makes each output row its own accumulation chain.
fn entries(pattern: &CsrMatrix<f32>) -> impl Iterator<Item = (usize, usize)> + '_ {
    let cols = pattern.col_indices();
    pattern
        .row_ptr()
        .windows(2)
        .enumerate()
        .flat_map(move |(r, w)| cols[w[0]..w[1]].iter().map(move |&c| (r, c)))
}

/// Asserts that `pattern`'s columns index the rows of `t`, operand `what`
/// of `op`. No entry is range-checked: a `CsrMatrix` keeps every column
/// below `cols()`.
fn assert_columns_index(pattern: &CsrMatrix<f32>, t: &Tensor, op: &str, what: &str) {
    assert!(
        pattern.cols() == t.rows(),
        "{op}: a {}x{} pattern needs {} rows of {what}, got {}",
        pattern.rows(),
        pattern.cols(),
        pattern.cols(),
        t.shape()
    );
}

/// Forward of [`Graph::pair_scores`]: one dot `x_r · β[..d]` per vertex
/// and one `h_c · β[d..]` per hyperedge a column names, then their sum
/// per entry.
fn pair_scores_forward(x: &Tensor, h: &Tensor, beta: &Tensor, pattern: &CsrMatrix<f32>) -> Tensor {
    let _k = KernelSpan::enter("autograd.pair_scores", KernelKind::Csr);
    let d = x.cols();
    assert!(
        !x.shape().is_vector() && !h.shape().is_vector() && h.cols() == d,
        "pair_scores: x and h must be matrices of one width, got {} and {}",
        x.shape(),
        h.shape()
    );
    assert!(
        beta.len() == 2 * d && (beta.shape().is_vector() || beta.cols() == 1),
        "pair_scores: beta must hold {} weights as a vector or a column, got {}",
        2 * d,
        beta.shape()
    );
    assert!(
        pattern.rows() == x.rows(),
        "pair_scores: a {}x{} pattern needs {} rows of x, got {}",
        pattern.rows(),
        pattern.cols(),
        pattern.rows(),
        x.shape()
    );
    assert_columns_index(pattern, h, "pair_scores", "h");
    let (beta_x, beta_h) = beta.as_slice().split_at(d);
    let mut per_vertex = vec![0.0f32; x.rows()];
    extend_all(&mut per_vertex, |v| x.row(v), beta_x);
    // Only the rows of `h` the pattern names are dotted (a live refresh
    // reads a few of a whole feature matrix), each by the same chain. A
    // training pattern names every row and takes them in place, with no
    // gather through the list.
    let mut read = vec![false; h.rows()];
    for &e in pattern.col_indices() {
        read[e] = true;
    }
    let cols: Vec<usize> = (0..h.rows()).filter(|&e| read[e]).collect();
    let mut per_edge = vec![0.0f32; h.rows()];
    if cols.len() == h.rows() {
        extend_all(&mut per_edge, |e| h.row(e), beta_h);
    } else {
        let mut dots = vec![0.0f32; cols.len()];
        extend_all(&mut dots, |i| h.row(cols[i]), beta_h);
        for (&e, dot) in cols.iter().zip(dots) {
            per_edge[e] = dot;
        }
    }
    let scores = entries(pattern)
        .map(|(v, e)| per_vertex[v] + per_edge[e])
        .collect();
    Tensor::vector(scores)
}

/// Adjoint of [`Graph::pair_scores`], `(dx, dh, dβ)`: the incoming
/// gradient summed per vertex and per hyperedge (entries in CSR order)
/// scales `β[..d]` and `β[d..]` once per row; `dβ` is
/// `[Σ_v s_v x_v ‖ Σ_e s_e h_e]` over the same sums taken in f64.
fn pair_scores_backward(
    x: &Tensor,
    h: &Tensor,
    beta: &Tensor,
    pattern: &CsrMatrix<f32>,
    grad_out: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let _k = KernelSpan::enter("autograd.pair_scores.adjoint", KernelKind::Csr);
    let d = x.cols();
    let (mut per_vertex, mut per_edge) = (vec![0.0f32; x.rows()], vec![0.0f32; h.rows()]);
    let (mut vertex_f64, mut edge_f64) = (vec![0.0f64; x.rows()], vec![0.0f64; h.rows()]);
    for ((v, e), &g) in entries(pattern).zip(grad_out.as_slice()) {
        per_vertex[v] += g;
        per_edge[e] += g;
        vertex_f64[v] += f64::from(g);
        edge_f64[e] += f64::from(g);
    }
    // `Σ_p g_p x_{v_p} = Σ_v s_v x_v`: one axpy per row, not one per pair.
    // Behind a segment softmax each vertex's `s_v` cancels by construction
    // (its attention gradients sum to zero but for the LeakyReLU's slope),
    // so the sums and the products are kept in f64 and rounded once.
    let mut dbeta = zeros_like(beta);
    let (dbeta_x, dbeta_h) = dbeta.as_mut_slice().split_at_mut(d);
    let row_weighted = |out: &mut [f32], sums: &[f64], t: &Tensor| {
        let mut acc = vec![0.0f64; d];
        for (r, &s) in sums.iter().enumerate() {
            for (a, &v) in acc.iter_mut().zip(t.row(r)) {
                *a += s * f64::from(v);
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a as f32;
        }
    };
    row_weighted(dbeta_x, &vertex_f64, x);
    row_weighted(dbeta_h, &edge_f64, h);
    let (beta_x, beta_h) = beta.as_slice().split_at(d);
    let outer = |sums: &[f32], b: &[f32]| {
        let mut out = Tensor::zeros(sums.len(), d);
        for (r, &g) in sums.iter().enumerate() {
            for (o, &bk) in out.row_mut(r).iter_mut().zip(b) {
                *o = g * bk;
            }
        }
        out
    };
    (outer(&per_vertex, beta_x), outer(&per_edge, beta_h), dbeta)
}

/// Each row's L2 norm, `√Σ x²` with `k` ascending: the chain
/// [`Tensor::cosine_rows`] runs for either operand.
fn row_norms(t: &Tensor) -> Vec<f32> {
    (0..t.rows())
        .map(|r| t.row(r).iter().fold(0.0f32, |s, &x| s + x * x).sqrt())
        .collect()
}

/// Forward of [`Graph::pair_cosine`]: one norm per row of each operand,
/// then one dot per pair.
fn pair_cosine_forward(a: &Tensor, b: &Tensor, ia: &[usize], ib: &[usize]) -> Tensor {
    let _k = KernelSpan::enter("autograd.pair_cosine", KernelKind::Reduction);
    assert!(
        !a.shape().is_vector() && !b.shape().is_vector() && a.cols() == b.cols(),
        "pair_cosine: a and b must be matrices of one width, got {} and {}",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        ia.len(),
        ib.len(),
        "pair_cosine: {} left indices for {} right indices",
        ia.len(),
        ib.len()
    );
    for (p, (&i, &j)) in ia.iter().zip(ib).enumerate() {
        assert!(
            i < a.rows() && j < b.rows(),
            "pair_cosine: pair {p} = ({i}, {j}) out of range ({} and {} rows)",
            a.rows(),
            b.rows()
        );
    }
    let (na, nb) = (row_norms(a), row_norms(b));
    let cosines = ia
        .iter()
        .zip(ib)
        .map(|(&i, &j)| {
            if na[i] == 0.0 || nb[j] == 0.0 {
                return 0.0;
            }
            let dot = a
                .row(i)
                .iter()
                .zip(b.row(j))
                .fold(0.0f32, |s, (&x, &y)| s + x * y);
            dot / (na[i] * nb[j])
        })
        .collect();
    Tensor::vector(cosines)
}

/// Adjoint of [`Graph::pair_cosine`], `(da, db)`: pair `p` adds
/// `g_p (b_j / (‖a_i‖‖b_j‖) − y_p a_i / ‖a_i‖²)` to row `i = ia[p]` of `da`
/// and the mirror image to row `j = ib[p]` of `db`, pairs ascending.
fn pair_cosine_backward(
    a: &Tensor,
    b: &Tensor,
    ia: &[usize],
    ib: &[usize],
    y: &Tensor,
    grad_out: &Tensor,
) -> (Tensor, Tensor) {
    let _k = KernelSpan::enter("autograd.pair_cosine.adjoint", KernelKind::Reduction);
    let (na, nb) = (row_norms(a), row_norms(b));
    let (mut da, mut db) = (zeros_like(a), zeros_like(b));
    let pairs = ia
        .iter()
        .zip(ib)
        .zip(y.as_slice().iter().zip(grad_out.as_slice()));
    for ((&i, &j), (&cs, &g)) in pairs {
        let (ni, nj) = (na[i], nb[j]);
        // Cosine is defined as 0 there, subgradient 0. Skipping the pair
        // is bitwise adding the zero rows a gathered adjoint added: an
        // entry that starts at +0.0 never becomes −0.0 under `+=`, and
        // `x + 0.0 == x` for every other `x`.
        if ni == 0.0 || nj == 0.0 {
            continue;
        }
        let (ar, br) = (a.row(i), b.row(j));
        for ((d, &x), &z) in da.row_mut(i).iter_mut().zip(ar).zip(br) {
            *d += g * (z / (ni * nj) - cs * x / (ni * ni));
        }
        for ((d, &x), &z) in db.row_mut(j).iter_mut().zip(ar).zip(br) {
            *d += g * (x / (ni * nj) - cs * z / (nj * nj));
        }
    }
    (da, db)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `rows × cols` pattern holding `entries` (row-major, no repeats).
    fn pattern(rows: usize, cols: usize, entries: &[(usize, usize)]) -> Rc<CsrMatrix<f32>> {
        let trips: Vec<_> = entries.iter().map(|&(r, c)| (r, c, 1.0)).collect();
        Rc::new(CsrMatrix::from_triplets(rows, cols, &trips).expect("entries in range"))
    }

    #[test]
    fn leaf_and_constant_flags() {
        let g = Graph::new();
        let a = g.leaf(Tensor::zeros(1, 1));
        let b = g.constant(Tensor::zeros(1, 1));
        assert!(a.requires_grad());
        assert!(!b.requires_grad());
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn backward_on_simple_chain() {
        // loss = sum(relu(x * 2)) with x = [[1, -1]]
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, -1.0]]));
        let loss = x.scale(2.0).relu().sum();
        loss.backward();
        let dx = x.grad().expect("leaf gradient");
        assert_eq!(dx.as_slice(), &[2.0, 0.0]);
    }

    #[test]
    fn gradients_accumulate_over_shared_subexpressions() {
        // loss = sum(x + x) → dx = 2
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[3.0]]));
        let loss = x.add(&x).sum();
        loss.backward();
        assert_eq!(x.grad().expect("grad").as_slice(), &[2.0]);
    }

    #[test]
    fn constants_get_no_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0]]));
        let c = g.constant(Tensor::from_rows(&[&[5.0]]));
        let loss = x.mul(&c).sum();
        loss.backward();
        assert_eq!(x.grad().expect("grad").as_slice(), &[5.0]);
        assert!(c.grad().is_none());
    }

    #[test]
    fn a_constant_operand_costs_no_product_in_backward() {
        use ahntp_telemetry::counter_get;
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            let g = Graph::new();
            let features = g.constant(Tensor::full(3, 2, 1.0));
            let w = g.leaf(Tensor::full(2, 4, 0.5));
            features.matmul(&w).sum().backward();
            // Forward, and `featuresᵀ @ g` for `w`; no `g @ wᵀ`.
            assert_eq!(counter_get("tensor.matmul.calls"), 2);
            assert_eq!(counter_get("tensor.t_matmul.calls"), 1);
            assert_eq!(counter_get("tensor.matmul_t.calls"), 0);
            assert!(features.grad().is_none());
            assert_eq!(w.grad().expect("grad").as_slice(), &[3.0; 8]);
        });
    }

    #[test]
    fn sparse_kernels_are_profiled_as_kernels_not_as_tape_bookkeeping() {
        use ahntp_telemetry::json::Json;
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_trace_collect(true);
            let g = Graph::new();
            let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
            let h = g.leaf(Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
            let beta = g.leaf(Tensor::vector(vec![0.1, 0.2, 0.3, 0.4]));
            let p = pattern(2, 2, &[(0, 0), (0, 1), (1, 1)]);
            let (pv, pe) = (Rc::new(vec![0, 0, 1]), Rc::new(vec![0, 1, 1]));
            let att = g.pair_scores(&x, &h, &beta, &p).segment_softmax(&p);
            let y = g.weighted_gather(&p, &att, &h);
            g.pair_cosine(&y, &x, &pv, &pe).sum().backward();
            let trace = ahntp_telemetry::chrome_trace_json();
            let Some(Json::Arr(events)) = trace.get("traceEvents") else {
                panic!("a Chrome trace document has a traceEvents array");
            };
            let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_owned);
            let spans: Vec<(String, String)> = events
                .iter()
                .filter_map(|e| Some((field(e, "name")?, field(e, "cat")?)))
                .filter(|(name, _)| name.starts_with("autograd."))
                .collect();
            let expected = [
                ("autograd.pair_scores", "csr"),
                ("autograd.segment_softmax", "reduction"),
                ("autograd.weighted_gather", "csr"),
                ("autograd.pair_cosine", "reduction"),
                ("autograd.pair_cosine.adjoint", "reduction"),
                ("autograd.weighted_gather.adjoint", "csr"),
                ("autograd.segment_softmax.adjoint", "reduction"),
                ("autograd.pair_scores.adjoint", "csr"),
            ]
            .map(|(name, cat)| (name.to_owned(), cat.to_owned()));
            assert_eq!(spans, expected);
        });
    }

    #[test]
    fn pair_scores_dbeta_survives_a_cancelling_pair_list() {
        // 600 pairs over 40 vertices and 70 hyperedges (15 per vertex)
        // under gradients of a few hundred; the last two gradients are
        // solved for so that the first entry of each half of
        // `dβ = Σ_p g_p [x_{v_p} ‖ h_{e_p}]` cancels to ≈ 1e-8 of
        // `Σ_p |g_p| |[x ‖ h]|`. Every entry must be within 1e-6 relative
        // of the f64 sum on the tape's own gradients.
        let (n, m, d, nnz) = (40, 70, 3, 600);
        let fill = |rows: usize, seed: usize| {
            let v = (0..rows * d)
                .map(|k| ((k * 7919 + seed) % 997) as f32 / 83.0 - 5.99)
                .collect();
            Tensor::from_vec(rows, d, v).expect("sized correctly")
        };
        let (x, h) = (fill(n, 5), fill(m, 17));
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|v| (0..nnz / n).map(move |k| (v, (v * 29 + k * 37 + 3) % m)))
            .collect();
        let p = pattern(n, m, &pairs);
        assert_eq!(p.nnz(), nnz, "no pair repeats");
        let rows: Vec<usize> = entries(&p).map(|(v, _)| v).collect();
        let (pv, pe): (&[usize], &[usize]) = (&rows, p.col_indices());
        let mut grads: Vec<f32> = (0..nnz - 2)
            .map(|p| {
                let magnitude = ((p * 7919) % 1000) as f32 + 0.375;
                if p % 2 == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            })
            .collect();
        let at = |t: &Tensor, r: usize, k: usize| f64::from(t.row(r)[k]);
        let sum = |grads: &[f32], t: &Tensor, rows: &[usize], k: usize| -> (f64, f64) {
            let terms = grads
                .iter()
                .zip(rows)
                .map(|(&g, &r)| f64::from(g) * at(t, r, k));
            terms.fold((0.0, 0.0), |(s, a), v| (s + v, a + v.abs()))
        };
        // [x_a x_b; h_a h_b] [g_a; g_b] = −[Σ x; Σ h] on the first entries.
        let ((px, _), (ph, _)) = (sum(&grads, &x, pv, 0), sum(&grads, &h, pe, 0));
        let (a, b) = (nnz - 2, nnz - 1);
        let (xa, xb) = (at(&x, pv[a], 0), at(&x, pv[b], 0));
        let (ha, hb) = (at(&h, pe[a], 0), at(&h, pe[b], 0));
        let det = xa * hb - xb * ha;
        grads.push(((xb * ph - hb * px) / det) as f32);
        grads.push(((ha * px - xa * ph) / det) as f32);
        for (t, rows) in [(&x, &pv), (&h, &pe)] {
            let (residual, magnitude) = sum(&grads, t, rows, 0);
            assert!(
                residual != 0.0 && residual.abs() < 1e-7 * magnitude,
                "{residual} of {magnitude}"
            );
        }

        let g = Graph::new();
        let (xv, hv) = (g.leaf(x.clone()), g.leaf(h.clone()));
        let beta = g.leaf(Tensor::vector(vec![0.5, -0.25, 1.0, 0.75, -1.5, 0.125]));
        g.pair_scores(&xv, &hv, &beta, &p)
            .mul(&g.constant(Tensor::vector(grads.clone())))
            .sum()
            .backward();
        let dbeta = beta.grad().expect("leaf gradient");
        for (j, &got) in dbeta.as_slice().iter().enumerate() {
            let (t, rows) = if j < d { (&x, &pv) } else { (&h, &pe) };
            let (want, _) = sum(&grads, t, rows, j % d);
            assert!(
                (f64::from(got) - want).abs() <= 1e-6 * want.abs(),
                "dβ[{j}]: {got} against the f64 {want}"
            );
        }
    }

    #[test]
    fn a_pattern_that_disagrees_with_its_operands_is_rejected_by_the_op() {
        // 3 rows, 2 columns, 4 entries. Each case gets one count wrong —
        // the rows against `x`, the columns against `h`, the entries
        // against `w` or the scores — and must panic naming its op.
        let p = pattern(3, 2, &[(0, 0), (0, 1), (1, 1), (2, 0)]);
        let g = Graph::new();
        let (x, h) = (
            g.leaf(Tensor::full(3, 2, 0.5)),
            g.leaf(Tensor::full(2, 2, 1.5)),
        );
        let beta = g.leaf(Tensor::vector(vec![0.25; 4]));
        let (short_x, long_h) = (
            g.leaf(Tensor::full(2, 2, 0.5)),
            g.leaf(Tensor::full(3, 2, 1.5)),
        );
        let (w, short_w) = (
            g.leaf(Tensor::vector(vec![0.5; 4])),
            g.leaf(Tensor::vector(vec![0.5; 3])),
        );
        let cases: [(&str, &dyn Fn() -> Var); 5] = [
            ("pair_scores", &|| g.pair_scores(&short_x, &h, &beta, &p)),
            ("pair_scores", &|| g.pair_scores(&x, &long_h, &beta, &p)),
            ("weighted_gather", &|| g.weighted_gather(&p, &short_w, &h)),
            ("weighted_gather", &|| g.weighted_gather(&p, &w, &long_h)),
            ("segment_softmax", &|| short_w.segment_softmax(&p)),
        ];
        for (k, (op, case)) in cases.iter().enumerate() {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case))
                .err()
                .unwrap_or_else(|| panic!("case {k} was accepted"));
            let msg = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(msg.starts_with(&format!("{op}: ")), "case {k}: {msg}");
        }
        // The same operands with the counts right are accepted.
        let att = g.pair_scores(&x, &h, &beta, &p).segment_softmax(&p);
        assert_eq!(g.weighted_gather(&p, &att, &h).shape(), Shape::Matrix(3, 2));
    }

    #[test]
    fn pair_cosine_is_bitwise_cosine_rows_on_the_gathered_rows() {
        // Repeated rows on both sides, and a zero row in each operand.
        let (n, m, d) = (7, 5, 13);
        let fill = |rows: usize, seed: usize, zero: usize| {
            let v = (0..rows * d)
                .map(|k| {
                    let x = ((k * 7919 + seed) % 1013) as f32 / 97.0 - 5.0;
                    if k / d == zero {
                        0.0
                    } else {
                        x
                    }
                })
                .collect();
            Tensor::from_vec(rows, d, v).expect("sized correctly")
        };
        let (a, b) = (fill(n, 3, 4), fill(m, 11, 1));
        let ia = Rc::new(vec![0, 2, 2, 4, 6, 1, 2, 5, 0, 3]);
        let ib = Rc::new(vec![3, 1, 0, 2, 4, 4, 1, 0, 3, 2]);
        let (ga, gb) = (a.gather_rows(&ia), b.gather_rows(&ib));
        let want: Vec<u32> = (0..ia.len())
            .map(|p| ga.cosine_rows(p, &gb, p).to_bits())
            .collect();
        assert!(want.contains(&0), "a pair meets a zero row");
        let g = Graph::new();
        let (av, bv) = (g.leaf(a.clone()), g.leaf(b.clone()));
        let got = g.pair_cosine(&av, &bv, &ia, &ib).value();
        let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pair_scores_read_only_the_rows_of_h_the_pattern_names() {
        // Twelve rows of `h`, a block of eight and a tail; the pattern
        // names seven of them and skips 1, 4, 5, 9 and 11.
        let (n, m, d) = (5, 12, 13);
        let fill = |rows: usize, seed: usize| {
            let v = (0..rows * d)
                .map(|k| ((k * 7919 + seed) % 1013) as f32 / 97.0 - 5.0)
                .collect();
            Tensor::from_vec(rows, d, v).expect("sized correctly")
        };
        let (x, h) = (fill(n, 3), fill(m, 11));
        let beta = fill(2, 29).reshape(Shape::Vector(2 * d));
        let pairs = [
            (0, 7),
            (0, 0),
            (1, 2),
            (2, 10),
            (2, 3),
            (2, 6),
            (4, 8),
            (4, 7),
        ];
        let p = pattern(n, m, &pairs);
        let skipped = [1, 4, 5, 9, 11];
        assert!(p.col_indices().iter().all(|c| !skipped.contains(c)));
        // The parent's arithmetic: one chain for every row of each operand.
        let (beta_x, beta_h) = beta.as_slice().split_at(d);
        let (mut per_vertex, mut per_edge) = (vec![0.0f32; n], vec![0.0f32; m]);
        extend_all(&mut per_vertex, |v| x.row(v), beta_x);
        extend_all(&mut per_edge, |e| h.row(e), beta_h);
        let want: Vec<u32> = entries(&p)
            .map(|(v, e)| (per_vertex[v] + per_edge[e]).to_bits())
            .collect();
        let mut other = h.clone();
        for &e in &skipped {
            other
                .row_mut(e)
                .iter_mut()
                .for_each(|v| *v = -3.0e7 * *v + 1.0);
        }
        for h in [&h, &other] {
            let g = Graph::new();
            let leaves = [&x, h, &beta].map(|t| g.leaf(t.clone()));
            let got = g
                .pair_scores(&leaves[0], &leaves[1], &leaves[2], &p)
                .value();
            let got: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_second_backward_adds_into_the_leaves() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.5, -0.5]]));
        let y = x.mul(&x);
        let loss = y.tanh().sum();
        loss.backward();
        let once = x.grad().expect("leaf gradient");
        assert!(y.grad().is_none(), "interior gradients are consumed");
        assert!(loss.grad().is_none(), "the root's included");
        loss.backward();
        assert_eq!(x.grad().expect("leaf gradient"), once.scale(2.0));
        assert!(y.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "output must be scalar")]
    fn backward_rejects_non_scalar() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(2, 2));
        x.backward();
    }

    #[test]
    #[should_panic(expected = "different graphs")]
    fn cross_graph_ops_are_rejected() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.leaf(Tensor::zeros(1, 1));
        let b = g2.leaf(Tensor::zeros(1, 1));
        let _ = a.add(&b);
    }

    #[test]
    fn finite_checks_name_the_offending_op() {
        // Thread-local state: each #[test] runs on its own thread, so this
        // cannot race with other tests.
        ahntp_telemetry::set_finite_checks(true);
        ahntp_telemetry::clear_nonfinite();
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[100.0]]));
        let _y = x.exp(); // e^100 overflows f32 → inf
        let ev = ahntp_telemetry::first_nonfinite().expect("overflow recorded");
        assert_eq!(ev.op, "exp");
        assert_eq!(ev.step, 1); // node 0 is the leaf
        ahntp_telemetry::set_finite_checks(false);
        ahntp_telemetry::clear_nonfinite();
    }

    #[test]
    fn finite_checks_name_pair_scores() {
        ahntp_telemetry::set_finite_checks(true);
        ahntp_telemetry::clear_nonfinite();
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[f32::MAX]]));
        let h = g.leaf(Tensor::from_rows(&[&[f32::MAX]]));
        let beta = g.leaf(Tensor::vector(vec![1.0, 1.0]));
        let _s = g.pair_scores(&x, &h, &beta, &pattern(1, 1, &[(0, 0)]));
        let ev = ahntp_telemetry::first_nonfinite().expect("overflow recorded");
        assert_eq!(ev.op, "pair_scores");
        assert_eq!(ev.step, 3); // after the three leaves
        ahntp_telemetry::set_finite_checks(false);
        ahntp_telemetry::clear_nonfinite();
    }

    #[test]
    fn finite_checks_off_record_nothing() {
        ahntp_telemetry::set_finite_checks(false);
        ahntp_telemetry::clear_nonfinite();
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[100.0]]));
        let _y = x.exp();
        assert!(ahntp_telemetry::first_nonfinite().is_none());
    }

    #[test]
    fn weighted_gather_forward_matches_manual() {
        let g = Graph::new();
        // 2 vertices, 2 hyperedges, 3 incidence pairs.
        let p = pattern(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        let w = g.leaf(Tensor::vector(vec![0.5, 0.5, 2.0]));
        let h = g.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let y = g.weighted_gather(&p, &w, &h);
        let v = y.value();
        assert_eq!(v.row(0), &[0.5, 0.5]);
        assert_eq!(v.row(1), &[0.0, 2.0]);
    }

    #[test]
    fn the_segment_softmax_adjoint_survives_a_cancelling_segment() {
        // Segment 0: 48 softmax entries under gradients of a few hundred,
        // the last chosen so that Σ y·g cancels to ≈ 1e-9 of Σ |y·g|, and
        // two zero gradients whose adjoint `−y·Σ y·g` is that residual
        // alone. Segment 1 is ordinary. Every entry must be within 1e-6 of
        // the f64 evaluation of `y (g − Σ y·g)` on the tape's own `y`.
        let (k0, k1) = (48, 5);
        let segments = [vec![0; k0], vec![1; k1]].concat();
        let by_row: Vec<_> = segments.iter().enumerate().map(|(k, &s)| (s, k)).collect();
        let p = pattern(2, k0 + k1, &by_row);
        let logits: Vec<f32> = (0..k0 + k1)
            .map(|k| ((k * 37) % 11) as f32 * 0.3 - 1.5)
            .collect();
        let g = Graph::new();
        let a = g.leaf(Tensor::vector(logits));
        let y = a.segment_softmax(&p);
        let yv: Vec<f64> = y.value().as_slice().iter().map(|&v| f64::from(v)).collect();
        let mut grads: Vec<f32> = (0..k0 - 3)
            .map(|k| {
                let magnitude = ((k * 7919) % 1000) as f32 + 0.375;
                if k % 2 == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            })
            .collect();
        grads.extend([0.0, 0.0]);
        let partial: f64 = grads.iter().zip(&yv).map(|(&g, y)| f64::from(g) * y).sum();
        grads.push((-partial / yv[k0 - 1]) as f32);
        grads.extend([3.0, -2.0, 0.5, 7.0, -4.0]);
        let dot = |s: usize| -> f64 {
            let terms = grads.iter().zip(&yv).zip(segments.iter());
            terms
                .filter(|&(_, &t)| t == s)
                .map(|((&g, y), _)| f64::from(g) * y)
                .sum()
        };
        let magnitude: f64 = grads[..k0]
            .iter()
            .zip(&yv)
            .map(|(&g, y)| (f64::from(g) * y).abs())
            .sum();
        let residual = dot(0);
        assert!(
            residual != 0.0 && residual.abs() < 1e-6 * magnitude,
            "{residual} of {magnitude}"
        );
        y.mul(&g.constant(Tensor::vector(grads.clone())))
            .sum()
            .backward();
        let da = a.grad().expect("leaf gradient");
        for (k, (&got, &s)) in da.as_slice().iter().zip(segments.iter()).enumerate() {
            let want = yv[k] * (f64::from(grads[k]) - dot(s));
            assert!(
                (f64::from(got) - want).abs() <= 1e-6 * want.abs(),
                "entry {k} of segment {s}: {got} against the f64 {want}"
            );
        }
    }
}

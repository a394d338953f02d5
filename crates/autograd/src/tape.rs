//! The tape: graph storage, node ops, and the backward pass.

use ahntp_telemetry::{KernelKind, KernelSpan};
use ahntp_tensor::{CsrMatrix, Shape, Tensor};
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;

/// Vertex–hyperedge incidence pairs for [`Graph::weighted_gather`]:
/// `pairs[k] = (vertex, hyperedge)` with an attention weight per pair.
pub(crate) type IncidencePairs = Rc<Vec<(usize, usize)>>;

/// An operation recorded on the tape. Parents are node ids; constant
/// structure (sparse matrices, index lists) is shared via `Rc` so cloning an
/// `Op` during backward is cheap.
#[derive(Clone)]
pub(crate) enum Op {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
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
    /// Per-row scaling by a constant vector.
    ScaleRowsConst(usize, Rc<Vec<f32>>),
    Sum(usize),
    Mean(usize),
    /// Row-paired cosine similarity of two `n x d` matrices → `[n]`.
    PairwiseCosine(usize, usize),
    /// Softmax within segments of a vector.
    SegmentSoftmax(usize, Rc<Vec<usize>>),
    /// Sum within segments of a vector → `[n_segments]`.
    SegmentSum(usize, Rc<Vec<usize>>),
    /// Same-volume shape reinterpretation.
    Reshape(usize),
    /// Attention-weighted sparse aggregation:
    /// `y_v = Σ_{k: pairs[k].0 = v} w_k · h_{pairs[k].1}`.
    WeightedGather {
        weights: usize,
        h: usize,
        pairs: IncidencePairs,
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
        Op::Div(..) => "div",
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
        Op::ScaleRowsConst(..) => "scale_rows_const",
        Op::Sum(..) => "sum",
        Op::Mean(..) => "mean",
        Op::PairwiseCosine(..) => "pairwise_cosine",
        Op::SegmentSoftmax(..) => "segment_softmax",
        Op::SegmentSum(..) => "segment_sum",
        Op::Reshape(..) => "reshape",
        Op::WeightedGather { .. } => "weighted_gather",
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
        let value = h.mul_dense(&x.value());
        let rg = x.requires_grad();
        self.push(value, Op::Spmm(Rc::clone(h), x.id), rg)
    }

    /// Attention-weighted aggregation: output row `v` is
    /// `Σ_k w[k] · h[e_k]` over all incidence pairs `(v, e_k)`.
    ///
    /// This is Eq. (16) of the paper as a single differentiable node:
    /// gradients flow to both the attention weights `w` (one per pair) and
    /// the hyperedge features `h`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a vector of length `pairs.len()` or any pair
    /// index is out of range.
    pub fn weighted_gather(
        &self,
        pairs: &IncidencePairs,
        n_out: usize,
        w: &Var,
        h: &Var,
    ) -> Var {
        w.assert_same_graph(self, "weighted_gather");
        h.assert_same_graph(self, "weighted_gather");
        let wv = w.value();
        let hv = h.value();
        assert!(
            wv.shape().is_vector() && wv.len() == pairs.len(),
            "weighted_gather: weights must be a [{}] vector, got {}",
            pairs.len(),
            wv.shape()
        );
        let d = hv.cols();
        let mut out = Tensor::zeros(n_out, d);
        for (k, &(v, e)) in pairs.iter().enumerate() {
            assert!(
                v < n_out && e < hv.rows(),
                "weighted_gather: pair {k} = ({v}, {e}) out of range ({n_out} vertices, {} edges)",
                hv.rows()
            );
            let wk = wv.as_slice()[k];
            let src: Vec<f32> = hv.row(e).to_vec();
            let dst = out.row_mut(v);
            for (o, s) in dst.iter_mut().zip(&src) {
                *o += wk * s;
            }
        }
        let rg = w.requires_grad() || h.requires_grad();
        self.push(
            out,
            Op::WeightedGather {
                weights: w.id,
                h: h.id,
                pairs: Rc::clone(pairs),
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
        let tensors: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let value = Tensor::concat_cols(&refs);
        let rg = parts.iter().any(|p| p.requires_grad());
        let ids = Rc::new(parts.iter().map(|p| p.id).collect::<Vec<_>>());
        self.push(value, Op::ConcatCols(ids), rg)
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

    /// The node's shape without copying the data.
    pub fn shape(&self) -> Shape {
        self.graph.nodes.borrow()[self.id].value.shape()
    }

    /// Whether gradients will be accumulated for this node.
    pub fn requires_grad(&self) -> bool {
        self.graph.nodes.borrow()[self.id].requires_grad
    }

    /// The accumulated gradient, if [`Var::backward`] has been run and this
    /// node participated in the output.
    pub fn grad(&self) -> Option<Tensor> {
        self.graph.nodes.borrow()[self.id].grad.clone()
    }

    /// Runs reverse-mode accumulation from this scalar output.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a single-element tensor.
    pub fn backward(&self) {
        let _span = KernelSpan::enter("backward", KernelKind::Other);
        ahntp_telemetry::counter_add("autograd.backward.calls", 1);
        let mut nodes = self.graph.nodes.borrow_mut();
        ahntp_telemetry::counter_add("autograd.backward.nodes", nodes.len() as u64);
        {
            let out = &mut nodes[self.id];
            assert_eq!(
                out.value.len(),
                1,
                "backward: output must be scalar, got {}",
                out.value.shape()
            );
            out.grad = Some(match out.value.shape() {
                Shape::Vector(_) => Tensor::full_vec(1, 1.0),
                Shape::Matrix(_, _) => Tensor::full(1, 1, 1.0),
            });
        }
        for i in (0..=self.id).rev() {
            let Some(grad_out) = nodes[i].grad.clone() else {
                continue;
            };
            let op = nodes[i].op.clone();
            backward_step(&mut nodes, i, &op, &grad_out);
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

#[allow(clippy::too_many_lines)] // one arm per op; splitting would obscure the adjoint table
fn backward_step(nodes: &mut [Node], i: usize, op: &Op, grad_out: &Tensor) {
    match op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            accum(nodes, *a, grad_out.clone());
            accum(nodes, *b, grad_out.clone());
        }
        Op::Sub(a, b) => {
            accum(nodes, *a, grad_out.clone());
            accum(nodes, *b, grad_out.scale(-1.0));
        }
        Op::Mul(a, b) => {
            let da = grad_out.mul(&nodes[*b].value);
            let db = grad_out.mul(&nodes[*a].value);
            accum(nodes, *a, da);
            accum(nodes, *b, db);
        }
        Op::Div(a, b) => {
            // y = a / b : da = g / b ; db = -g * a / b^2
            let bv = nodes[*b].value.clone();
            let av = nodes[*a].value.clone();
            let da = grad_out.div(&bv);
            let db = grad_out.mul(&av).div(&bv).div(&bv).scale(-1.0);
            accum(nodes, *a, da);
            accum(nodes, *b, db);
        }
        Op::Scale(a, c) => accum(nodes, *a, grad_out.scale(*c)),
        Op::AddScalar(a) => accum(nodes, *a, grad_out.clone()),
        Op::Matmul(a, b) => {
            // y = A @ B : dA = g @ B^T ; dB = A^T @ g
            let (ga, gb) = matmul_backward(&nodes[*a].value, &nodes[*b].value, grad_out);
            accum(nodes, *a, ga);
            accum(nodes, *b, gb);
        }
        Op::MatmulT(a, b) => {
            // y = A @ B^T : dA = g @ B ; dB = g^T @ A
            let da = grad_out.matmul(&nodes[*b].value);
            let db = grad_out.t_matmul(&nodes[*a].value);
            accum(nodes, *a, da);
            accum(nodes, *b, db);
        }
        Op::Transpose(a) => accum(nodes, *a, grad_out.transpose()),
        Op::Spmm(h, x) => {
            let dx = h.t_mul_dense(grad_out);
            accum(nodes, *x, dx);
        }
        Op::Relu(a) => {
            let mask = nodes[*a].value.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
            accum(nodes, *a, grad_out.mul(&mask));
        }
        Op::LeakyRelu(a, slope) => {
            let s = *slope;
            let mask = nodes[*a].value.map(|v| if v > 0.0 { 1.0 } else { s });
            accum(nodes, *a, grad_out.mul(&mask));
        }
        Op::Sigmoid(a) => {
            let y = nodes[i].value.clone();
            let dy = y.map(|v| v * (1.0 - v));
            accum(nodes, *a, grad_out.mul(&dy));
        }
        Op::Tanh(a) => {
            let y = nodes[i].value.clone();
            let dy = y.map(|v| 1.0 - v * v);
            accum(nodes, *a, grad_out.mul(&dy));
        }
        Op::Exp(a) => {
            let y = nodes[i].value.clone();
            accum(nodes, *a, grad_out.mul(&y));
        }
        Op::LnEps(a, eps) => {
            // ln(max(a, eps)) is flat below the clamp: the true subgradient
            // there is 0 (returning 1/eps would inject enormous spurious
            // gradients exactly when the input has collapsed).
            let e = *eps;
            let da = nodes[*a].value.map(|v| if v > e { 1.0 / v } else { 0.0 });
            accum(nodes, *a, grad_out.mul(&da));
        }
        Op::AddBias(a, bias) => {
            accum(nodes, *a, grad_out.clone());
            accum(nodes, *bias, grad_out.col_sums());
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
                let g_row: Vec<f32> = grad_out.row(out_row).to_vec();
                let dst = &mut da.as_mut_slice()[src * cols..(src + 1) * cols];
                for (d, g) in dst.iter_mut().zip(&g_row) {
                    *d += g;
                }
            }
            accum(nodes, *a, da);
        }
        Op::ScaleRowsConst(a, factors) => {
            let mut da = grad_out.clone();
            let cols = da.cols();
            for (r, &f) in factors.iter().enumerate() {
                for v in &mut da.as_mut_slice()[r * cols..(r + 1) * cols] {
                    *v *= f;
                }
            }
            accum(nodes, *a, da);
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
        Op::PairwiseCosine(a, b) => {
            let av = nodes[*a].value.clone();
            let bv = nodes[*b].value.clone();
            let y = nodes[i].value.clone();
            let mut da = zeros_like(&av);
            let mut db = zeros_like(&bv);
            let d = av.cols();
            for r in 0..av.rows() {
                let ar = av.row(r);
                let br = bv.row(r);
                let na: f32 = ar.iter().map(|&v| v * v).sum::<f32>().sqrt();
                let nb: f32 = br.iter().map(|&v| v * v).sum::<f32>().sqrt();
                if na == 0.0 || nb == 0.0 {
                    continue; // cosine defined as 0 there; subgradient 0
                }
                let g = grad_out.as_slice()[r];
                let cs = y.as_slice()[r];
                let da_r = &mut da.as_mut_slice()[r * d..(r + 1) * d];
                let db_r = &mut db.as_mut_slice()[r * d..(r + 1) * d];
                for k in 0..d {
                    da_r[k] = g * (br[k] / (na * nb) - cs * ar[k] / (na * na));
                    db_r[k] = g * (ar[k] / (na * nb) - cs * br[k] / (nb * nb));
                }
            }
            accum(nodes, *a, da);
            accum(nodes, *b, db);
        }
        Op::SegmentSoftmax(a, segments) => {
            let y = nodes[i].value.clone();
            let n_seg = segments.iter().copied().max().map_or(0, |m| m + 1);
            // dot_s = Σ_{j∈s} y_j g_j, then da_i = y_i (g_i − dot_{seg(i)})
            let mut dot = vec![0.0f32; n_seg];
            for (k, &s) in segments.iter().enumerate() {
                dot[s] += y.as_slice()[k] * grad_out.as_slice()[k];
            }
            let mut da = zeros_like(&nodes[*a].value);
            for (k, &s) in segments.iter().enumerate() {
                da.as_mut_slice()[k] =
                    y.as_slice()[k] * (grad_out.as_slice()[k] - dot[s]);
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
            accum(nodes, *a, grad_out.clone().reshape(parent_shape));
        }
        Op::WeightedGather { weights, h, pairs } => {
            let wv = nodes[*weights].value.clone();
            let hv = nodes[*h].value.clone();
            let d = hv.cols();
            let mut dw = zeros_like(&wv);
            let mut dh = zeros_like(&hv);
            for (k, &(v, e)) in pairs.iter().enumerate() {
                let g_row = grad_out.row(v);
                let h_row = hv.row(e);
                let mut dot = 0.0f32;
                for (&g, &hh) in g_row.iter().zip(h_row) {
                    dot += g * hh;
                }
                dw.as_mut_slice()[k] = dot;
                let wk = wv.as_slice()[k];
                let g_copy: Vec<f32> = g_row.to_vec();
                let dst = &mut dh.as_mut_slice()[e * d..(e + 1) * d];
                for (o, g) in dst.iter_mut().zip(&g_copy) {
                    *o += wk * g;
                }
            }
            accum(nodes, *weights, dw);
            accum(nodes, *h, dh);
        }
    }
}

/// Gradient of a dense matmul with the vector-promotion rules of
/// [`Tensor::matmul`] respected (so `[n]`-shaped operands receive
/// `[n]`-shaped gradients).
fn matmul_backward(a: &Tensor, b: &Tensor, g: &Tensor) -> (Tensor, Tensor) {
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
    let ga = gm.matmul_t(&bm);
    let gb = am.t_matmul(&gm);
    let demote = |t: Tensor, like: &Tensor| -> Tensor {
        match like.shape() {
            Shape::Vector(n) => t.reshape(Shape::Vector(n)),
            Shape::Matrix(_, _) => t,
        }
    };
    (demote(ga, a), demote(gb, b))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pairs: IncidencePairs = Rc::new(vec![(0, 0), (0, 1), (1, 1)]);
        let w = g.leaf(Tensor::vector(vec![0.5, 0.5, 2.0]));
        let h = g.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let y = g.weighted_gather(&pairs, 2, &w, &h);
        let v = y.value();
        assert_eq!(v.row(0), &[0.5, 0.5]);
        assert_eq!(v.row(1), &[0.0, 2.0]);
    }
}

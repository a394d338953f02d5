//! Hypergraph convolution layers: the plain two-step spatial convolution of
//! Eqs. 10–13 and the adaptive attention layer of Eqs. 14–16.
//!
//! Eqs. 10–13 are linear up to the ReLU, so θ is applied on the vertex
//! side first: `h̃_e = w_e · mean_{u ∈ e} (x_u θ)` and Eq. 12's message is
//! `mean_{e ∋ u} h̃_e`, which is `Mess_u θ` reassociated. Eqs. 14 and 16
//! use the adaptive layer's `W h̃_e` only linearly — dotted with `β_h`,
//! summed per vertex — so `W` moves to the vertex side too: the scores dot
//! `h̃_e` with `W β_h`, and Eq. 16 applies `W` once to each vertex's sum.
//! No dense product with a row per hyperedge and no `in`-wide hyperedge
//! matrix is ever built.
//!
//! Each layer runs in three steps split at those intermediates. The
//! *projection* is `x θ` (`n × out`); the *edge half* computes `h̃_e`
//! (Eqs. 10–11) for the rows of a vertex→edge operator from the
//! projection; the *vertex half* computes the output rows of a
//! [`VertexRows`] (Eqs. 12–16) from the whole hyperedge-feature matrix.
//! A forward pass is the three over one operator set. A live
//! refresh runs each over the few rows that changed: every output row is
//! its own accumulation chain over the same entries in the same order, so
//! those rows are bitwise the forward pass's.

use crate::{Module, Param, Session};
use ahntp_autograd::Var;
use ahntp_hypergraph::{AggregationOps, Hypergraph, VertexRows};
use ahntp_tensor::{xavier_uniform, CsrMatrix, Shape, SplitMix64, Tensor};
use std::rc::Rc;

/// Negative slope of the LeakyReLU in the attention score (Eq. 14); 0.2 is
/// the GAT convention the paper follows.
const ATTENTION_SLOPE: f32 = 0.2;

/// One layer's forward pass over an operator set: its output, the
/// projection `x θ` its edge half read, and the hyperedge features.
pub struct LayerForward {
    /// The layer's output rows.
    pub out: Var,
    /// `x θ` over every input row (see [`HypergraphLayer::project`]).
    pub x_theta: Var,
    /// What the edge half computed: the hyperedge features `h̃_e` of
    /// Eq. 11, taken after θ (`m × out`).
    pub edges: Var,
}

/// What a stack of hypergraph convolutions needs from a layer, whichever
/// kind it is: [`HypergraphConv`] and [`AdaptiveHypergraphConv`] both
/// implement it, so a stack is one `Vec<Box<dyn HypergraphLayer>>`.
pub trait HypergraphLayer: Module {
    /// The projection `x θ` of input rows `x` — Eq. 13's θ, applied before
    /// Eq. 10's mean. Each output row depends on its input row alone.
    fn project(&self, s: &Session, x: &Var) -> Var;

    /// The edge half: the hyperedge features
    /// `h̃_e = w_e · mean_{u ∈ e} x_u θ` (Eqs. 10–11 with θ applied first,
    /// for either layer kind) for the rows of `v2e` (a
    /// vertex→edge operator over every vertex of `x_theta`, the
    /// [`HypergraphLayer::project`]ion of every input row). `edge_ids` names
    /// the hyperedge of each row when they are not `0..m` (a slice, or the
    /// rows a live refresh recomputes), so the per-edge weights are
    /// gathered through it.
    fn edge_half(
        &self,
        s: &Session,
        v2e: &Rc<CsrMatrix<f32>>,
        edge_ids: Option<&Rc<Vec<usize>>>,
        x_theta: &Var,
    ) -> Var;

    /// The vertex half: the output rows of `rows`, from `x`'s rows for the
    /// same vertices and the whole hyperedge-feature matrix `h_e` that
    /// `rows` index.
    fn vertex_half(&self, s: &Session, rows: &VertexRows, x: &Var, h_e: &Var) -> Var;

    /// Forward pass against an explicit operator set — the full extraction
    /// or a sampled hyperedge slice from the same hypergraph — keeping the
    /// intermediates a live refresh reads.
    fn forward_with_edges(&self, s: &Session, ops: &AggregationOps, x: &Var) -> LayerForward;

    /// [`HypergraphLayer::forward_with_edges`]'s output alone.
    fn forward_on(&self, s: &Session, ops: &AggregationOps, x: &Var) -> Var {
        self.forward_with_edges(s, ops, x).out
    }

    /// The per-edge weight parameter `w_e` of Eq. 11 (`m × 1`).
    fn edge_weights(&self) -> &Param;
}

/// The three steps of a forward pass over `ops`.
fn forward_steps(
    layer: &dyn HypergraphLayer,
    s: &Session,
    ops: &AggregationOps,
    x: &Var,
) -> LayerForward {
    let x_theta = layer.project(s, x);
    let edges = layer.edge_half(s, &ops.v2e, ops.edge_ids.as_ref(), &x_theta);
    LayerForward {
        out: layer.vertex_half(s, &ops.rows, x, &edges),
        x_theta,
        edges,
    }
}

/// The plain two-step spatial hypergraph convolution (Eqs. 10–13):
///
/// 1. `Mess_e = mean_{u ∈ N_e} x_u` (Eq. 10),
/// 2. `h_e = w_e · Mess_e` with a trainable per-hyperedge scalar (Eq. 11),
/// 3. `Mess_u = mean_{e ∈ N_u} h_e` (Eq. 12),
/// 4. `x' = ReLU(Mess · θ)` (Eq. 13),
///
/// evaluated as `h̃_e = w_e · mean_{u ∈ N_e} x_u θ` and
/// `x' = ReLU(mean_{e ∈ N_u} h̃_e + x θ_self)` (see the module docs).
///
/// This is also the `AHNTP_noatt` ablation layer and the core of the HGNN+
/// baseline.
#[derive(Clone)]
pub struct HypergraphConv {
    ops: Rc<AggregationOps>,
    /// `w_e` of Eq. 11: one trainable scalar per hyperedge, initialised 1.
    edge_weights: Param,
    /// `θ` of Eq. 13 applied to the aggregated message.
    theta: Param,
    /// Self-term projection: Eq. 13 defines the update as `F(x_u^t, Mess)`,
    /// i.e. the new state depends on the previous vertex feature as well;
    /// this carries that dependence (`x' = ReLU(Mess θ + x θ_self)`).
    theta_self: Param,
    in_dim: usize,
    out_dim: usize,
}

impl HypergraphConv {
    /// Creates a layer over the given hypergraph.
    pub fn new(
        name: &str,
        h: &Hypergraph,
        in_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> HypergraphConv {
        Self::with_ops(
            name,
            Rc::new(AggregationOps::full(h)),
            in_dim,
            out_dim,
            seed,
        )
    }

    /// Creates a layer over an already-extracted full operator set, so a
    /// stack of layers (or several models) can share one extraction.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is a slice rather than a full extraction — the
    /// per-edge weights must cover every hyperedge.
    pub fn with_ops(
        name: &str,
        ops: Rc<AggregationOps>,
        in_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> HypergraphConv {
        assert!(
            ops.edge_ids.is_none(),
            "HypergraphConv::with_ops: layers bind to the full operator set; \
             pass slices to forward_on instead"
        );
        let theta_seed = SplitMix64::derive(seed, &format!("{name}.theta"));
        let self_seed = SplitMix64::derive(seed, &format!("{name}.theta_self"));
        HypergraphConv {
            edge_weights: Param::new(
                format!("{name}.edge_w"),
                Tensor::full(ops.n_edges(), 1, 1.0),
            ),
            theta: Param::new(
                format!("{name}.theta"),
                xavier_uniform(in_dim, out_dim, theta_seed),
            ),
            theta_self: Param::new(
                format!("{name}.theta_self"),
                xavier_uniform(in_dim, out_dim, self_seed),
            ),
            ops,
            in_dim,
            out_dim,
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The per-edge weight parameter `w_e` of Eq. 11 (`m × 1`). Live
    /// hypergraph mutation resizes this in place via [`Param::set_value`]
    /// so the column keeps covering every hyperedge.
    pub fn edge_weights(&self) -> &Param {
        &self.edge_weights
    }

    /// Forward pass over vertex features `x` (`n × in_dim`).
    pub fn forward(&self, s: &Session, x: &Var) -> Var {
        self.forward_on(s, &self.ops, x)
    }

    /// Forward pass against an explicit operator set — the full extraction
    /// or a sampled hyperedge slice from the same hypergraph (mini-batch
    /// training). With the full set this is exactly [`Self::forward`].
    pub fn forward_on(&self, s: &Session, ops: &AggregationOps, x: &Var) -> Var {
        HypergraphLayer::forward_on(self, s, ops, x)
    }

    /// Eqs. 12–13, the vertex update `x'` of the rows of `e2v` — final for
    /// the plain layer, provisional for the adaptive one, whose attention
    /// (Eq. 14) reads it.
    fn update(&self, s: &Session, e2v: &Rc<CsrMatrix<f32>>, x: &Var, h_e: &Var) -> Var {
        // Eq. 12 on θ-projected features: Mess θ, reassociated.
        let msg = s.graph().spmm(e2v, h_e);
        // Eq. 13: F(x_u^t, Mess) — message plus the self-term.
        let own = x.matmul(&s.var(&self.theta_self));
        msg.add(&own).relu()
    }
}

impl HypergraphLayer for HypergraphConv {
    fn project(&self, s: &Session, x: &Var) -> Var {
        x.matmul(&s.var(&self.theta))
    }

    /// Eqs. 10–11, the edge half of both layer kinds.
    fn edge_half(
        &self,
        s: &Session,
        v2e: &Rc<CsrMatrix<f32>>,
        edge_ids: Option<&Rc<Vec<usize>>>,
        x_theta: &Var,
    ) -> Var {
        // Eq. 10: hyperedge messages by mean aggregation, after θ.
        let mess_e = s.graph().spmm(v2e, x_theta);
        // Eq. 11: trainable per-edge scaling, gathered down to the rows'
        // edges.
        let w_col = s.var(&self.edge_weights);
        let w_col = match edge_ids {
            Some(ids) => w_col.gather_rows(ids),
            None => w_col,
        };
        mess_e.mul_rows(&w_col)
    }

    fn vertex_half(&self, s: &Session, rows: &VertexRows, x: &Var, h_e: &Var) -> Var {
        self.update(s, &rows.e2v, x, h_e)
    }

    fn forward_with_edges(&self, s: &Session, ops: &AggregationOps, x: &Var) -> LayerForward {
        let _span = ahntp_telemetry::KernelSpan::enter(
            "nn.hconv.forward",
            ahntp_telemetry::KernelKind::Other,
        );
        forward_steps(self, s, ops, x)
    }

    fn edge_weights(&self) -> &Param {
        &self.edge_weights
    }
}

impl Module for HypergraphConv {
    fn params(&self) -> Vec<Param> {
        vec![
            self.edge_weights.clone(),
            self.theta.clone(),
            self.theta_self.clone(),
        ]
    }
}

/// The adaptive hypergraph convolution (Eqs. 14–16).
///
/// On top of [`HypergraphConv`]'s two-step aggregation, the layer computes a
/// per-incidence attention coefficient
/// `a_ie = LeakyReLU(βᵀ [W x'_i ‖ W h̃_e])` (Eq. 14), normalises it over
/// each vertex's incident hyperedges (Eq. 15), and re-aggregates the
/// projected hyperedge features with those weights (Eq. 16):
/// `x''_i = ReLU(Σ_{e ∈ N_i} w_ie · W h̃_e + W x'_i)`.
///
/// `W` is a shared `out_dim × out_dim` projection applied to both the
/// updated vertex feature `x'_i` (already `out_dim` wide after Eq. 13) and
/// the θ-projected hyperedge feature `h̃_e = h_e θ` (which the edge half
/// computes directly as `w_e · mean_{u ∈ e} x_u θ`). This resolves the
/// dimension mismatch left implicit in the paper (Eq. 14 concatenates a
/// layer-`t+1` vertex with a layer-`t` hyperedge).
///
/// Both equations are linear in `W h̃_e`, so the layer never forms it:
/// with `β = [β_x ‖ β_h]`, Eq. 14's score is `x'_i · W β_x + h̃_e · W β_h`
/// (one `2 × out` product makes `[W β_x ‖ W β_h]`), and Eq. 16 is
/// `ReLU(W (Σ_e w_ie h̃_e + x'_i))`, `W` applied once per vertex.
#[derive(Clone)]
pub struct AdaptiveHypergraphConv {
    base: HypergraphConv,
    /// Shared projection `W` of Eq. 14.
    w_att: Param,
    /// Attention vector `β` of Eq. 14 (length `2 · out_dim`).
    beta: Param,
}

impl AdaptiveHypergraphConv {
    /// Creates an adaptive layer over the given hypergraph.
    pub fn new(
        name: &str,
        h: &Hypergraph,
        in_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> AdaptiveHypergraphConv {
        Self::with_ops(
            name,
            Rc::new(AggregationOps::full(h)),
            in_dim,
            out_dim,
            seed,
        )
    }

    /// Creates an adaptive layer over an already-extracted full operator
    /// set (see [`HypergraphConv::with_ops`]).
    ///
    /// # Panics
    ///
    /// Panics if `ops` is a slice rather than a full extraction.
    pub fn with_ops(
        name: &str,
        ops: Rc<AggregationOps>,
        in_dim: usize,
        out_dim: usize,
        seed: u64,
    ) -> AdaptiveHypergraphConv {
        let base = HypergraphConv::with_ops(name, ops, in_dim, out_dim, seed);
        let w_seed = SplitMix64::derive(seed, &format!("{name}.w_att"));
        let b_seed = SplitMix64::derive(seed, &format!("{name}.beta"));
        AdaptiveHypergraphConv {
            base,
            w_att: Param::new(
                format!("{name}.w_att"),
                xavier_uniform(out_dim, out_dim, w_seed),
            ),
            beta: Param::new(
                format!("{name}.beta"),
                xavier_uniform(2 * out_dim, 1, b_seed),
            ),
        }
    }

    /// Input feature width.
    pub fn in_dim(&self) -> usize {
        self.base.in_dim
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.base.out_dim
    }

    /// The per-edge weight parameter `w_e` (see
    /// [`HypergraphConv::edge_weights`]).
    pub fn edge_weights(&self) -> &Param {
        self.base.edge_weights()
    }

    /// Forward pass over vertex features `x` (`n × in_dim`).
    pub fn forward(&self, s: &Session, x: &Var) -> Var {
        self.forward_on(s, &self.base.ops, x)
    }

    /// Forward pass against an explicit operator set — the full extraction
    /// or a sampled hyperedge slice from the same hypergraph (mini-batch
    /// training). With the full set this is exactly [`Self::forward`].
    pub fn forward_on(&self, s: &Session, ops: &AggregationOps, x: &Var) -> Var {
        HypergraphLayer::forward_on(self, s, ops, x)
    }

    /// Eqs. 14–15 on top of the base layer's Eqs. 12–13: the attention
    /// coefficients `w_ie` (one per entry of `rows.e2v`) together with the
    /// vertex update `x'` Eq. 16 adds.
    fn attention(&self, s: &Session, rows: &VertexRows, x: &Var, h_e: &Var) -> (Var, Var) {
        let x_next = self.base.update(s, &rows.e2v, x, h_e);
        // Eq. 14 with W moved onto β: the rows of `β_r Wᵀ` are W β_x and
        // W β_h, and the scores are x'_i · W β_x + h̃_e · W β_h as one
        // node — neither W h̃_e nor the nnz × 2·out concatenation is built.
        let out = self.base.out_dim;
        let beta_w = s
            .var(&self.beta)
            .reshape(Shape::Matrix(2, out))
            .matmul_t(&s.var(&self.w_att))
            .reshape(Shape::Vector(2 * out));
        let scores = s
            .graph()
            .pair_scores(&x_next, h_e, &beta_w, &rows.e2v)
            .leaky_relu(ATTENTION_SLOPE);
        // Eq. 15: softmax per central vertex.
        (scores.segment_softmax(&rows.e2v), x_next)
    }

    /// The attention coefficients `w_ie` (Eq. 15) for inspection: a vector
    /// aligned with [`Hypergraph::incidence_pairs`]. Runs a fresh forward
    /// pass on its own session.
    pub fn attention_coefficients(&self, x: &Tensor) -> Vec<f32> {
        let s = Session::new();
        let (ops, x) = (&self.base.ops, s.constant(x.clone()));
        let h_e = self.edge_half(&s, &ops.v2e, None, &self.project(&s, &x));
        let (att, _) = self.attention(&s, &ops.rows, &x, &h_e);
        att.value().into_vec()
    }
}

impl HypergraphLayer for AdaptiveHypergraphConv {
    fn project(&self, s: &Session, x: &Var) -> Var {
        self.base.project(s, x)
    }

    fn edge_half(
        &self,
        s: &Session,
        v2e: &Rc<CsrMatrix<f32>>,
        edge_ids: Option<&Rc<Vec<usize>>>,
        x_theta: &Var,
    ) -> Var {
        self.base.edge_half(s, v2e, edge_ids, x_theta)
    }

    fn vertex_half(&self, s: &Session, rows: &VertexRows, x: &Var, h_e: &Var) -> Var {
        let (att, x_next) = self.attention(s, rows, x, h_e);
        // Eq. 16 with W after the sum: attention-weighted aggregation of
        // the hyperedges plus the x' self-term carried over from Eq. 13's
        // F(x^t, ·), then W once per vertex.
        s.graph()
            .weighted_gather(&rows.e2v, &att, h_e)
            .add(&x_next)
            .matmul(&s.var(&self.w_att))
            .relu()
    }

    fn forward_with_edges(&self, s: &Session, ops: &AggregationOps, x: &Var) -> LayerForward {
        let _span = ahntp_telemetry::KernelSpan::enter(
            "nn.adaptive_hconv.forward",
            ahntp_telemetry::KernelKind::Other,
        );
        forward_steps(self, s, ops, x)
    }

    fn edge_weights(&self) -> &Param {
        &self.base.edge_weights
    }
}

impl Module for AdaptiveHypergraphConv {
    fn params(&self) -> Vec<Param> {
        let mut p = self.base.params();
        p.push(self.w_att.clone());
        p.push(self.beta.clone());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_hypergraph() -> Hypergraph {
        let mut h = Hypergraph::new(4);
        h.add_edge(&[0, 1, 2]).expect("valid");
        h.add_edge(&[2, 3]).expect("valid");
        h.add_edge(&[0, 3]).expect("valid");
        h
    }

    #[test]
    fn plain_conv_shapes_and_nonnegativity() {
        let h = toy_hypergraph();
        let conv = HypergraphConv::new("c", &h, 3, 2, 7);
        let s = Session::new();
        let x = s.constant(xavier_uniform(4, 3, 1));
        let y = conv.forward(&s, &x);
        assert_eq!(y.value().shape(), Shape::Matrix(4, 2));
        assert!(y.value().as_slice().iter().all(|&v| v >= 0.0));
        assert_eq!(conv.params().len(), 3);
        assert_eq!(conv.numel(), 3 + 3 * 2 + 3 * 2);
    }

    #[test]
    fn plain_conv_propagates_through_hyperedges() {
        // One hyperedge {0, 1}; vertex 2 isolated with zero features.
        let mut h = Hypergraph::new(3);
        h.add_edge(&[0, 1]).expect("valid");
        let conv = HypergraphConv::new("c", &h, 1, 1, 3);
        let s = Session::new();
        // Identical features for the co-members → identical outputs by
        // symmetry (shared message and shared self-term).
        let x = s.constant(Tensor::from_rows(&[&[1.0], &[1.0], &[0.0]]));
        let y = conv.forward(&s, &x).value();
        // Vertex 2 has no incident hyperedge and zero features → zero.
        assert_eq!(y.get(2, 0), 0.0);
        assert_eq!(y.get(0, 0), y.get(1, 0));
        // The self-term distinguishes members with different features.
        let x2 = s.constant(Tensor::from_rows(&[&[1.0], &[-1.0], &[0.0]]));
        let y2 = conv.forward(&s, &x2).value();
        assert_ne!(y2.get(0, 0), y2.get(1, 0));
    }

    #[test]
    fn adaptive_conv_shapes() {
        let h = toy_hypergraph();
        let conv = AdaptiveHypergraphConv::new("a", &h, 3, 2, 11);
        let s = Session::new();
        let x = s.constant(xavier_uniform(4, 3, 2));
        let y = conv.forward(&s, &x);
        assert_eq!(y.value().shape(), Shape::Matrix(4, 2));
        assert_eq!(conv.params().len(), 5);
    }

    #[test]
    fn adaptive_conv_attention_is_a_distribution_per_vertex() {
        let h = toy_hypergraph();
        let conv = AdaptiveHypergraphConv::new("a", &h, 3, 2, 13);
        let x = xavier_uniform(4, 3, 5);
        let att = conv.attention_coefficients(&x);
        let pairs = h.incidence_pairs();
        assert_eq!(att.len(), pairs.len());
        let mut per_vertex = [0.0f32; 4];
        for (k, &(v, _)) in pairs.iter().enumerate() {
            assert!(att[k] >= 0.0);
            per_vertex[v] += att[k];
        }
        for (v, &sum) in per_vertex.iter().enumerate() {
            assert!(
                (sum - 1.0).abs() < 1e-5,
                "vertex {v}: attention sums to {sum}"
            );
        }
    }

    #[test]
    fn adaptive_conv_records_no_per_pair_matrix() {
        // Eq. 14 composed from general ops gathers `nnz × out` rows twice
        // and concatenates them; as one node it records the `[nnz]` scores
        // alone. 6 vertices in 4 hyperedges of 4: nnz = 16 > n + m, so no
        // per-vertex or per-edge tensor can be mistaken for a per-pair one.
        let mut h = Hypergraph::new(6);
        for e in [[0, 1, 2, 3], [2, 3, 4, 5], [0, 1, 4, 5], [0, 2, 3, 5]] {
            h.add_edge(&e).expect("valid");
        }
        let conv = AdaptiveHypergraphConv::new("a", &h, 3, 2, 19);
        let nnz = h.incidence_pairs().len();
        assert_eq!(nnz, 16);
        let s = Session::new();
        conv.forward(&s, &s.constant(xavier_uniform(6, 3, 4)));
        let shapes = s.graph().shapes();
        assert!(
            shapes.contains(&Shape::Vector(nnz)),
            "the scores themselves"
        );
        for shape in shapes {
            assert!(
                !(shape.rows() == nnz && shape.cols() > 1),
                "a {shape} node: Eq. 14 was composed from per-pair gathers again"
            );
        }
    }

    #[test]
    fn a_conv_forward_projects_before_it_aggregates() {
        // 7 vertices in 5 hyperedges, widths 3 → 2: θ applied on the
        // vertex side leaves no `m × in` node, and with Eq. 14's `W` moved
        // onto β and Eq. 16's after the sum, neither layer records a dense
        // product with a row per hyperedge.
        let mut h = Hypergraph::new(7);
        for e in [&[0, 1, 2][..], &[2, 3], &[3, 4, 5, 6], &[0, 6], &[1, 5]] {
            h.add_edge(e).expect("valid");
        }
        let (n, m, in_dim, out_dim) = (7, 5, 3, 2);
        let layers: [Box<dyn HypergraphLayer>; 2] = [
            Box::new(HypergraphConv::new("c", &h, in_dim, out_dim, 23)),
            Box::new(AdaptiveHypergraphConv::new("a", &h, in_dim, out_dim, 23)),
        ];
        let ops = AggregationOps::full(&h);
        for layer in &layers {
            let s = Session::new();
            let pass =
                layer.forward_with_edges(&s, &ops, &s.constant(xavier_uniform(n, in_dim, 4)));
            assert_eq!(pass.x_theta.value().shape(), Shape::Matrix(n, out_dim));
            assert_eq!(pass.edges.value().shape(), Shape::Matrix(m, out_dim));
            let recorded = s.graph().ops();
            assert!(
                !recorded
                    .iter()
                    .any(|&(_, shape)| shape == Shape::Matrix(m, in_dim)),
                "an m × in node: θ went back after the mean"
            );
            let products: Vec<_> = recorded
                .iter()
                .filter(|&&(op, shape)| op.starts_with("matmul") && shape.rows() == m)
                .collect();
            assert!(
                products.is_empty(),
                "dense products with m rows: {products:?}"
            );
        }
    }

    /// The adaptive layer in the paper's order, with no reassociation:
    /// explicit `x' W` and `W h̃_e`, `β` dotted with their per-pair
    /// concatenation (Eq. 14), and Eq. 16 summing `W h̃_e`.
    fn composed_adaptive_forward(conv: &AdaptiveHypergraphConv, s: &Session, x: &Var) -> Var {
        let (ops, w) = (&conv.base.ops, s.var(&conv.w_att));
        let e2v = &ops.rows.e2v;
        let h_e = conv.edge_half(s, &ops.v2e, None, &conv.project(s, x));
        let w_h = h_e.matmul(&w);
        let x_proj = conv.base.update(s, e2v, x, &h_e).matmul(&w);
        // Pair k of Eq. 14 is entry k of `e2v`: its row and its column.
        let entry_rows = (0..e2v.rows()).flat_map(|v| std::iter::repeat_n(v, e2v.row_nnz(v)));
        let per_pair = [
            &x_proj.gather_rows(&Rc::new(entry_rows.collect())),
            &w_h.gather_rows(&Rc::new(e2v.col_indices().to_vec())),
        ];
        let scores = s
            .graph()
            .concat_cols(&per_pair)
            .matmul(&s.var(&conv.beta))
            .reshape(Shape::Vector(e2v.nnz()))
            .leaky_relu(ATTENTION_SLOPE);
        let att = scores.segment_softmax(e2v);
        s.graph()
            .weighted_gather(e2v, &att, &w_h)
            .add(&x_proj)
            .relu()
    }

    #[test]
    fn the_reassociated_adaptive_layer_matches_the_composed_equations() {
        // 8 vertices in 6 hyperedges, widths 3 → 4, off the unit edge
        // weights. `W` moved onto `β` and after Eq. 16's sum reorders f32
        // sums only: output and every parameter gradient within 1e-6 of
        // the tensor's max-norm.
        let mut h = Hypergraph::new(8);
        for e in [
            &[0, 1, 2][..],
            &[2, 3, 4],
            &[4, 5],
            &[5, 6, 7, 0],
            &[1, 6],
            &[3, 7],
        ] {
            h.add_edge(e).expect("valid");
        }
        let conv = AdaptiveHypergraphConv::new("a", &h, 3, 4, 29);
        let w_e = (0..6).map(|e| 0.6 + 0.15 * e as f32).collect();
        conv.edge_weights().set_value(Tensor::matrix(6, 1, w_e));
        let x = xavier_uniform(8, 3, 6);
        type Forward = fn(&AdaptiveHypergraphConv, &Session, &Var) -> Var;
        let run = |forward: Forward| -> Vec<Tensor> {
            let s = Session::new();
            let y = forward(&conv, &s, &s.constant(x.clone()));
            y.mul(&y).sum().add(&y.tanh().sum()).backward();
            s.harvest();
            let grads = conv
                .params()
                .into_iter()
                .map(|p| p.grad().expect("every parameter reaches the loss"));
            std::iter::once(y.value()).chain(grads).collect()
        };
        let fused: Forward = |conv, s, x| conv.forward(s, x);
        let max_abs = |t: &Tensor| t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let names = ["output", "edge_w", "theta", "theta_self", "w_att", "beta"];
        let (a, b) = (run(fused), run(composed_adaptive_forward));
        assert!(
            max_abs(&b[0]) > 0.0,
            "the layer's output is not all ReLU-clipped"
        );
        for (what, (a, b)) in names.iter().zip(a.iter().zip(&b)) {
            assert_eq!(a.shape(), b.shape(), "{what}: shape");
            let worst = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()));
            assert!(
                worst <= 1e-6 * max_abs(b),
                "{what} is {worst} off the composed equations (max-norm {})",
                max_abs(b)
            );
        }
    }

    #[test]
    fn adaptive_conv_trains_end_to_end() {
        let h = toy_hypergraph();
        let conv = AdaptiveHypergraphConv::new("a", &h, 3, 2, 17);
        let x = xavier_uniform(4, 3, 9);
        let loss_value = |conv: &AdaptiveHypergraphConv| -> f32 {
            let s = Session::new();
            let xv = s.constant(x.clone());
            let y = conv.forward(&s, &xv);
            y.mul(&y).sum().value().as_slice()[0]
        };
        let before = loss_value(&conv);
        // One descent step on sum of squares must reduce it.
        let s = Session::new();
        let xv = s.constant(x.clone());
        let y = conv.forward(&s, &xv);
        let loss = y.mul(&y).sum();
        loss.backward();
        s.harvest();
        let mut updated = 0;
        for p in conv.params() {
            if let Some(g) = p.grad() {
                p.axpy(-0.05, &g);
                updated += 1;
            }
        }
        assert!(updated >= 3, "most parameters receive gradients");
        assert!(loss_value(&conv) < before);
    }
}

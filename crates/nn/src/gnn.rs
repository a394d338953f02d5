//! Plain-graph layers for the baseline zoo: GCN, GAT and SGC propagation.

use crate::{Module, Param, Session};
use ahntp_autograd::Var;
use ahntp_graph::DiGraph;
use ahntp_tensor::{xavier_uniform, CsrMatrix, SplitMix64, Tensor};
use std::rc::Rc;

/// Negative slope of the LeakyReLU in GAT attention (Velickovic et al.).
const ATTENTION_SLOPE: f32 = 0.2;

/// `A + Aᵀ + I` with unit entries: the *undirected* view of the social
/// graph with a self-loop on every vertex — each vertex's neighbourhood as
/// GCN normalises it and GAT attends over it. Trust propagation flows both
/// ways along a tie for embedding purposes.
fn undirected_with_self_loops(g: &DiGraph) -> CsrMatrix<f64> {
    g.adjacency()
        .add(g.adjacency_t())
        .map_values(|_| 1.0)
        .add(&CsrMatrix::identity(g.n()))
}

/// The symmetric-normalised GCN operator `Â = D̃^{-1/2} (A + Aᵀ + I) D̃^{-1/2}`
/// (Kipf & Welling), built over `undirected_with_self_loops`.
pub fn gcn_norm_adjacency(g: &DiGraph) -> CsrMatrix<f32> {
    let und = undirected_with_self_loops(g);
    let deg = und.row_sums();
    let inv_sqrt: Vec<f64> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    let mut trips = Vec::with_capacity(und.nnz());
    for r in 0..und.rows() {
        for (c, v) in und.row_entries(r) {
            trips.push((r, c, (v * inv_sqrt[r] * inv_sqrt[c]) as f32));
        }
    }
    CsrMatrix::from_triplets(g.n(), g.n(), &trips).expect("indices from a valid matrix")
}

/// A graph convolution layer `x' = act(Â x W)`.
#[derive(Clone)]
pub struct GcnConv {
    norm_adj: Rc<CsrMatrix<f32>>,
    w: Param,
    relu: bool,
}

impl GcnConv {
    /// Creates a layer with a precomputed normalised adjacency.
    pub fn new(
        name: &str,
        norm_adj: Rc<CsrMatrix<f32>>,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        seed: u64,
    ) -> GcnConv {
        let w_seed = SplitMix64::derive(seed, &format!("{name}.w"));
        GcnConv {
            norm_adj,
            w: Param::new(format!("{name}.w"), xavier_uniform(in_dim, out_dim, w_seed)),
            relu,
        }
    }

    /// Forward pass.
    pub fn forward(&self, s: &Session, x: &Var) -> Var {
        let _span = ahntp_telemetry::KernelSpan::enter(
            "nn.gcn.forward",
            ahntp_telemetry::KernelKind::Other,
        );
        let y = s.graph().spmm(&self.norm_adj, x).matmul(&s.var(&self.w));
        if self.relu {
            y.relu()
        } else {
            y
        }
    }
}

impl Module for GcnConv {
    fn params(&self) -> Vec<Param> {
        vec![self.w.clone()]
    }
}

/// A single-head graph attention layer (Velickovic et al., the paper's GAT
/// baseline): `x'_i = act(Σ_{j ∈ N(i) ∪ {i}} α_ij W x_j)` with
/// `α_ij = softmax_j(LeakyReLU(aᵀ [W x_i ‖ W x_j]))`.
#[derive(Clone)]
pub struct GatConv {
    /// The `n × n` attention pattern, row `i` holding `j` for every
    /// undirected neighbour of `i` and `i` itself (values unused).
    pattern: Rc<CsrMatrix<f32>>,
    w: Param,
    attn: Param,
    relu: bool,
}

impl GatConv {
    /// Creates a GAT layer over the (undirected view of the) social graph.
    pub fn new(
        name: &str,
        g: &DiGraph,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        seed: u64,
    ) -> GatConv {
        let w_seed = SplitMix64::derive(seed, &format!("{name}.w"));
        let a_seed = SplitMix64::derive(seed, &format!("{name}.attn"));
        GatConv {
            pattern: Rc::new(undirected_with_self_loops(g).cast()),
            w: Param::new(format!("{name}.w"), xavier_uniform(in_dim, out_dim, w_seed)),
            attn: Param::new(
                format!("{name}.attn"),
                xavier_uniform(2 * out_dim, 1, a_seed),
            ),
            relu,
        }
    }

    /// Forward pass.
    pub fn forward(&self, s: &Session, x: &Var) -> Var {
        let _span = ahntp_telemetry::KernelSpan::enter(
            "nn.gat.forward",
            ahntp_telemetry::KernelKind::Other,
        );
        let g = s.graph();
        let h = x.matmul(&s.var(&self.w)); // n × out
        let scores = g
            .pair_scores(&h, &h, &s.var(&self.attn), &self.pattern)
            .leaky_relu(ATTENTION_SLOPE);
        let alpha = scores.segment_softmax(&self.pattern);
        let y = g.weighted_gather(&self.pattern, &alpha, &h);
        if self.relu {
            y.relu()
        } else {
            y
        }
    }
}

impl Module for GatConv {
    fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.attn.clone()]
    }
}

/// Precomputes SGC features `Â^k X` (Wu et al.: Simplifying Graph
/// Convolutional Networks collapses `k` propagation steps into one constant
/// feature transform; the trainable part is a single linear head on top).
pub fn sgc_features(g: &DiGraph, x: &Tensor, k: usize) -> Tensor {
    let norm = gcn_norm_adjacency(g);
    let mut h = x.clone();
    for _ in 0..k {
        h = norm.mul_dense(&h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_tensor::Shape;

    fn toy_graph() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).expect("valid")
    }

    #[test]
    fn gcn_norm_rows_reflect_degrees() {
        let g = toy_graph();
        let a = gcn_norm_adjacency(&g);
        // Symmetric with self-loops.
        let d = a.to_dense();
        for i in 0..4 {
            assert!(d.get(i, i) > 0.0, "self-loop at {i}");
            for j in 0..4 {
                assert!((d.get(i, j) - d.get(j, i)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gcn_layer_shapes() {
        let g = toy_graph();
        let adj = Rc::new(gcn_norm_adjacency(&g));
        let conv = GcnConv::new("g", adj, 3, 2, true, 5);
        let s = Session::new();
        let x = s.constant(xavier_uniform(4, 3, 1));
        let y = conv.forward(&s, &x);
        assert_eq!(y.value().shape(), Shape::Matrix(4, 2));
        assert_eq!(conv.params().len(), 1);
    }

    #[test]
    fn gat_attention_normalises_per_vertex() {
        let g = toy_graph();
        let conv = GatConv::new("gat", &g, 3, 2, true, 7);
        let s = Session::new();
        let x = s.constant(xavier_uniform(4, 3, 2));
        let y = conv.forward(&s, &x);
        assert_eq!(y.value().shape(), Shape::Matrix(4, 2));
        assert!(y.value().all_finite());
    }

    #[test]
    fn gat_isolated_node_attends_to_itself() {
        let g = DiGraph::from_edges(3, &[(0, 1)]).expect("valid");
        let conv = GatConv::new("gat", &g, 2, 2, false, 9);
        let s = Session::new();
        let x = s.constant(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let y = conv.forward(&s, &x);
        // Node 2 has only the self pair, so its output is W x_2 exactly.
        let w = conv.params()[0].value();
        let expected = Tensor::from_rows(&[&[1.0, 1.0]]).matmul(&w);
        for c in 0..2 {
            assert!((y.value().get(2, c) - expected.get(0, c)).abs() < 1e-5);
        }
    }

    #[test]
    fn sgc_features_smooth_towards_neighbors() {
        let g = toy_graph();
        let x = Tensor::from_rows(&[&[1.0], &[0.0], &[0.0], &[0.0]]);
        let h1 = sgc_features(&g, &x, 1);
        let h3 = sgc_features(&g, &x, 3);
        // Mass spreads: after propagation node 1 sees some of node 0's signal.
        assert!(h1.get(1, 0) > 0.0);
        // Deeper propagation reaches node 3 (distance 2 via node 2).
        assert_eq!(sgc_features(&g, &x, 0), x);
        assert!(h3.get(3, 0) > 0.0);
    }

    #[test]
    fn gcn_gradients_flow() {
        let g = toy_graph();
        let adj = Rc::new(gcn_norm_adjacency(&g));
        let conv = GcnConv::new("g", adj, 2, 2, true, 3);
        let s = Session::new();
        let x = s.constant(xavier_uniform(4, 2, 8));
        let y = conv.forward(&s, &x);
        y.mul(&y).sum().backward();
        s.harvest();
        assert!(conv.params()[0].grad().is_some());
    }
}

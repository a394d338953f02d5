//! The hypergraph-based baselines: UniGCN, UniGAT (Huang & Yang,
//! IJCAI'21) and HGNN+ (Gao et al., TPAMI'23).
//!
//! All three consume the *generic* hypergroups — attributes (Eq. 7),
//! pairwise ties (Eq. 8) and 1..N-hop neighbourhoods (Eq. 9) — built from
//! the training graph. The Motif-based-PageRank influence hypergroup is
//! AHNTP's contribution and is not granted to the baselines.

use crate::common::{center_features, Baseline, BaselineConfig, Encoder};
use ahntp_autograd::Var;
use ahntp_data::LabeledPair;
use ahntp_eval::TrustModel;
use ahntp_graph::DiGraph;
use ahntp_hypergraph::{
    attribute_hypergroup, multi_hop_hypergroup_capped, pairwise_hypergroup, Hypergraph,
};
use ahntp_nn::{HypergraphConv, Linear, Module, Param, Session};
use ahntp_tensor::{xavier_uniform, CsrMatrix, SplitMix64, Tensor};
use std::rc::Rc;

/// LeakyReLU slope in UniGAT attention.
const ATTENTION_SLOPE: f32 = 0.2;
/// Cap on multi-hop hyperedge cardinality (same as AHNTP's, for fairness).
const MAX_HOP_EDGE_SIZE: usize = 32;

/// The generic (method-agnostic) trust hypergraph shared by the hypergraph
/// baselines.
pub(crate) fn generic_hypergraph(
    graph: &DiGraph,
    attributes: &[Vec<usize>],
    hops: usize,
) -> Hypergraph {
    let attr = attribute_hypergroup(graph.n(), attributes);
    let pair = pairwise_hypergroup(graph);
    let hop = multi_hop_hypergroup_capped(graph, hops, MAX_HOP_EDGE_SIZE);
    Hypergraph::concat(&[&attr, &pair, &hop])
}

/// One UniGCN layer: `x̃_i = act( (1/√d_i) Σ_{e ∋ i} (1/√ĉ_e) · W h_e )`
/// with `h_e` the mean of `e`'s members and `ĉ_e` the average vertex degree
/// inside `e`.
struct UniGcnLayer {
    v2e: Rc<CsrMatrix<f32>>,
    e2v_norm: Rc<CsrMatrix<f32>>,
    w: Param,
    relu: bool,
}

impl UniGcnLayer {
    fn new(
        name: &str,
        h: &Hypergraph,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        seed: u64,
    ) -> Self {
        let degrees = h.vertex_edge_counts();
        // ĉ_e: mean vertex degree of e's members.
        let mut trips = Vec::new();
        for (e, members) in h.edges().iter().enumerate() {
            let avg_deg: f32 =
                members.iter().map(|&v| degrees[v] as f32).sum::<f32>() / members.len() as f32;
            let edge_norm = 1.0 / avg_deg.max(1.0).sqrt();
            for &v in members {
                let vert_norm = 1.0 / (degrees[v] as f32).max(1.0).sqrt();
                trips.push((v, e, vert_norm * edge_norm));
            }
        }
        let e2v_norm = CsrMatrix::from_triplets(h.n_vertices(), h.n_edges(), &trips)
            .expect("hypergraph members are validated");
        let w_seed = SplitMix64::derive(seed, &format!("{name}.w"));
        UniGcnLayer {
            v2e: Rc::new(h.vertex_to_edge_mean()),
            e2v_norm: Rc::new(e2v_norm),
            w: Param::new(format!("{name}.w"), xavier_uniform(in_dim, out_dim, w_seed)),
            relu,
        }
    }

    fn forward(&self, s: &Session, x: &Var) -> Var {
        let g = s.graph();
        let h_e = g.spmm(&self.v2e, x);
        let agg = g.spmm(&self.e2v_norm, &h_e);
        let y = agg.matmul(&s.var(&self.w));
        if self.relu {
            y.relu()
        } else {
            y
        }
    }
}

/// One UniGAT layer: attention between each vertex and its incident
/// hyperedges, `x̃_i = act(Σ_{e ∋ i} α_ie · W h_e)`.
struct UniGatLayer {
    v2e: Rc<CsrMatrix<f32>>,
    /// The `n × m` incidence pattern the attention runs over (`e2v`'s;
    /// its values are unused).
    pattern: Rc<CsrMatrix<f32>>,
    w: Param,
    attn: Param,
    relu: bool,
}

impl UniGatLayer {
    fn new(
        name: &str,
        h: &Hypergraph,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
        seed: u64,
    ) -> Self {
        let w_seed = SplitMix64::derive(seed, &format!("{name}.w"));
        let a_seed = SplitMix64::derive(seed, &format!("{name}.attn"));
        UniGatLayer {
            v2e: Rc::new(h.vertex_to_edge_mean()),
            pattern: Rc::new(h.edge_to_vertex_mean()),
            w: Param::new(format!("{name}.w"), xavier_uniform(in_dim, out_dim, w_seed)),
            attn: Param::new(
                format!("{name}.attn"),
                xavier_uniform(2 * out_dim, 1, a_seed),
            ),
            relu,
        }
    }

    fn forward(&self, s: &Session, x: &Var) -> Var {
        let g = s.graph();
        let w = s.var(&self.w);
        let h_e = g.spmm(&self.v2e, x).matmul(&w); // m × out
        let x_proj = x.matmul(&w); // n × out
        let scores = g
            .pair_scores(&x_proj, &h_e, &s.var(&self.attn), &self.pattern)
            .leaky_relu(ATTENTION_SLOPE);
        let alpha = scores.segment_softmax(&self.pattern);
        let y = g.weighted_gather(&self.pattern, &alpha, &h_e);
        if self.relu {
            y.relu()
        } else {
            y
        }
    }
}

// ---------------------------------------------------------------------------

struct UniGcnEncoder {
    features: Tensor,
    l1: UniGcnLayer,
    l2: UniGcnLayer,
}

impl Encoder for UniGcnEncoder {
    fn encode(&self, s: &Session) -> Var {
        let x = s.constant(self.features.clone());
        let h = self.l1.forward(s, &x);
        self.l2.forward(s, &h)
    }
    fn params(&self) -> Vec<Param> {
        vec![self.l1.w.clone(), self.l2.w.clone()]
    }
}

/// The UniGCN baseline model.
pub struct UniGcn {
    inner: Baseline<UniGcnEncoder>,
}

impl UniGcn {
    /// Builds the model over the generic trust hypergraph (1-hop).
    pub fn new(
        features: &Tensor,
        attributes: &[Vec<usize>],
        graph: &DiGraph,
        cfg: &BaselineConfig,
    ) -> UniGcn {
        let h = generic_hypergraph(graph, attributes, 1);
        let encoder = UniGcnEncoder {
            features: center_features(features),
            l1: UniGcnLayer::new("unigcn.l1", &h, features.cols(), cfg.hidden, true, cfg.seed),
            l2: UniGcnLayer::new("unigcn.l2", &h, cfg.hidden, cfg.out, false, cfg.seed ^ 1),
        };
        UniGcn {
            inner: Baseline::new("UniGCN", encoder, cfg.out, cfg),
        }
    }
}

impl TrustModel for UniGcn {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32 {
        self.inner.train_epoch(pairs)
    }
    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        self.inner.predict(pairs)
    }
    fn n_parameters(&self) -> usize {
        self.inner.n_parameters()
    }
}

struct UniGatEncoder {
    features: Tensor,
    l1: UniGatLayer,
    l2: UniGatLayer,
}

impl Encoder for UniGatEncoder {
    fn encode(&self, s: &Session) -> Var {
        let x = s.constant(self.features.clone());
        let h = self.l1.forward(s, &x);
        self.l2.forward(s, &h)
    }
    fn params(&self) -> Vec<Param> {
        vec![
            self.l1.w.clone(),
            self.l1.attn.clone(),
            self.l2.w.clone(),
            self.l2.attn.clone(),
        ]
    }
}

/// The UniGAT baseline model.
pub struct UniGat {
    inner: Baseline<UniGatEncoder>,
}

impl UniGat {
    /// Builds the model over the generic trust hypergraph (1-hop).
    pub fn new(
        features: &Tensor,
        attributes: &[Vec<usize>],
        graph: &DiGraph,
        cfg: &BaselineConfig,
    ) -> UniGat {
        let h = generic_hypergraph(graph, attributes, 1);
        let encoder = UniGatEncoder {
            features: center_features(features),
            l1: UniGatLayer::new("unigat.l1", &h, features.cols(), cfg.hidden, true, cfg.seed),
            l2: UniGatLayer::new("unigat.l2", &h, cfg.hidden, cfg.out, false, cfg.seed ^ 1),
        };
        UniGat {
            inner: Baseline::new("UniGAT", encoder, cfg.out, cfg),
        }
    }
}

impl TrustModel for UniGat {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32 {
        self.inner.train_epoch(pairs)
    }
    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        self.inner.predict(pairs)
    }
    fn n_parameters(&self) -> usize {
        self.inner.n_parameters()
    }
}

struct HgnnPlusEncoder {
    features: Tensor,
    proj: Linear,
    convs: Vec<HypergraphConv>,
}

impl Encoder for HgnnPlusEncoder {
    fn encode(&self, s: &Session) -> Var {
        let x = s.constant(self.features.clone());
        let mut h = self.proj.forward(s, &x).relu();
        for conv in &self.convs {
            h = conv.forward(s, &h);
        }
        h
    }
    fn params(&self) -> Vec<Param> {
        let mut p = self.proj.params();
        for c in &self.convs {
            p.extend(c.params());
        }
        p
    }
}

/// The HGNN+ baseline model: hyperedge-group convolution with a trainable
/// per-hyperedge weight, over the generic trust hypergraph.
pub struct HgnnPlus {
    inner: Baseline<HgnnPlusEncoder>,
}

impl HgnnPlus {
    /// Builds the default two-layer model (1-hop hypergroups).
    pub fn new(
        features: &Tensor,
        attributes: &[Vec<usize>],
        graph: &DiGraph,
        cfg: &BaselineConfig,
    ) -> HgnnPlus {
        Self::with_architecture(features, attributes, graph, &[cfg.hidden, cfg.out], 1, cfg)
    }

    /// Builds the model with explicit convolution widths and multi-hop
    /// depth — the axes of the Table VI experiment.
    ///
    /// # Panics
    ///
    /// Panics if `conv_dims` is empty or `hops == 0`.
    pub fn with_architecture(
        features: &Tensor,
        attributes: &[Vec<usize>],
        graph: &DiGraph,
        conv_dims: &[usize],
        hops: usize,
        cfg: &BaselineConfig,
    ) -> HgnnPlus {
        assert!(
            !conv_dims.is_empty(),
            "HgnnPlus::with_architecture: conv_dims must not be empty"
        );
        let h = generic_hypergraph(graph, attributes, hops);
        let proj = Linear::new("hgnnp.proj", features.cols(), conv_dims[0], cfg.seed);
        let mut convs = Vec::with_capacity(conv_dims.len());
        let mut prev = conv_dims[0];
        for (i, &d) in conv_dims.iter().enumerate() {
            convs.push(HypergraphConv::new(
                &format!("hgnnp.conv{i}"),
                &h,
                prev,
                d,
                cfg.seed ^ (i as u64 + 2),
            ));
            prev = d;
        }
        let out_dim = prev;
        let encoder = HgnnPlusEncoder {
            features: center_features(features),
            proj,
            convs,
        };
        HgnnPlus {
            inner: Baseline::new("HGNN+", encoder, out_dim, cfg),
        }
    }
}

impl TrustModel for HgnnPlus {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32 {
        self.inner.train_epoch(pairs)
    }
    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        self.inner.predict(pairs)
    }
    fn n_parameters(&self) -> usize {
        self.inner.n_parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_data::{DatasetConfig, TrustDataset};

    fn setup() -> (TrustDataset, ahntp_data::Split) {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(60, 12));
        let split = ds.split(0.8, 0.2, 2, 13);
        (ds, split)
    }

    #[test]
    fn generic_hypergraph_covers_all_hypergroup_kinds() {
        let (ds, split) = setup();
        let h = generic_hypergraph(&split.train_graph, &ds.attributes, 2);
        // attr edges + pairwise edges + 2 levels of hop edges.
        assert!(h.n_edges() > split.train_graph.n_edges() / 2 + 2 * 60);
        assert_eq!(h.n_vertices(), 60);
    }

    #[test]
    fn unigcn_trains() {
        let (ds, split) = setup();
        let mut m = UniGcn::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &BaselineConfig::default(),
        );
        assert_eq!(m.name(), "UniGCN");
        assert!(m.train_epoch(&split.train).is_finite());
        assert_eq!(m.predict(&split.test).len(), split.test.len());
    }

    #[test]
    fn unigat_trains() {
        let (ds, split) = setup();
        let mut m = UniGat::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &BaselineConfig::default(),
        );
        assert_eq!(m.name(), "UniGAT");
        assert!(m.train_epoch(&split.train).is_finite());
    }

    #[test]
    fn hgnnp_architecture_is_configurable() {
        let (ds, split) = setup();
        let cfg = BaselineConfig::default();
        let deep = HgnnPlus::with_architecture(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &[32, 16, 8],
            2,
            &cfg,
        );
        let shallow = HgnnPlus::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        assert!(deep.n_parameters() != shallow.n_parameters());
        assert_eq!(deep.name(), "HGNN+");
    }

    #[test]
    fn hgnnp_loss_falls() {
        let (ds, split) = setup();
        let mut m = HgnnPlus::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &BaselineConfig::default(),
        );
        let first = m.train_epoch(&split.train);
        let mut last = first;
        for _ in 0..15 {
            last = m.train_epoch(&split.train);
        }
        assert!(last < first, "{first} → {last}");
    }
}

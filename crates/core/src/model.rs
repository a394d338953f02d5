//! The AHNTP model: hypergraph construction, embedding pipeline, training
//! objective, and the [`TrustModel`] implementation.

use crate::{AhntpConfig, AhntpVariant};
use ahntp_autograd::Var;
use ahntp_data::{sample_edges, LabeledPair};
use ahntp_eval::{BatchPlan, BatchTrustModel, ResumableModel, TrainProgress, TrustModel};
use ahntp_graph::{motif_pagerank, pagerank, DiGraph, MotifPageRankConfig, PageRankConfig};
use ahntp_hypergraph::{
    attribute_hypergroup, multi_hop_hypergroup_capped, pairwise_hypergroup,
    social_influence_hypergroup, AggregationCache, AggregationOps, Hypergraph, SmoothnessFactor,
};
use ahntp_nn::loss::{
    bce_from_similarity, combined_loss, similarity_to_probability, smoothness_penalty,
    supervised_contrastive, ContrastiveBatch, COSINE_CALIBRATION,
};
use ahntp_nn::{
    Adam, AdaptiveHypergraphConv, HypergraphConv, HypergraphLayer, Mlp, Module, Optimizer, Param,
    Session, TrainState, TrustArtifact,
};
use ahntp_stream::{AppliedEvent, HeadPatch, HyperGroup, LiveTrustModel, StreamError, TrustEvent};
use ahntp_tensor::{SplitMix64, Tensor};
use std::cell::RefCell;
use std::rc::Rc;

/// Cap on multi-hop hyperedge cardinality (closest-first, see
/// [`multi_hop_hypergroup_capped`]). Keeps attention over incidence pairs
/// linear in the graph size at high hop counts.
const MAX_HOP_EDGE_SIZE: usize = 32;

/// FNV-1a over bytes; `| 1` keeps 0 reserved for "untagged".
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | 1
}

/// The precomputed scoring head: comprehensive embeddings and both tower
/// outputs under the *current* parameters. Cached between parameter
/// updates so single-pair queries and artifact export don't re-run the
/// full hypergraph forward.
///
/// Per tier (indexed by `HyperGroup as usize`) it also keeps what a live
/// refresh walks from: every activation, every layer's projection `x θ`
/// and hyperedge features of the forward, the seeds, and the hyperedges
/// added since.
#[derive(Clone)]
struct HeadCache {
    emb: Tensor,
    trustor: Tensor,
    trustee: Tensor,
    /// Per tier: the tier MLP's output `x^0`, then `x^1 … x^L`.
    layers: [Vec<Tensor>; 2],
    /// Per tier and layer `l`: `x^l θ`, the projection its edge half reads,
    /// one row per user.
    projections: [Vec<Tensor>; 2],
    /// Per tier and layer: the hyperedge features `h̃_e`, one row per
    /// hyperedge id, kept in step with the ids as the edge-weight columns
    /// are.
    edges: [Vec<Tensor>; 2],
    /// Per tier: the members of every hyperedge added, removed or renamed
    /// since the last refresh.
    seeds: [Vec<usize>; 2],
    /// Per tier: the ids of the hyperedges added since the last refresh,
    /// whose rows in `edges` are placeholders until it runs.
    added: [Vec<usize>; 2],
}

/// Runs `f` on `t` recorded as a constant of `s`: the buffer moves onto
/// the tape and back instead of being copied.
fn lend<R>(s: &Session, t: &mut Tensor, f: impl FnOnce(&Var) -> R) -> R {
    let v = s.constant(std::mem::replace(t, Tensor::zeros(0, 0)));
    let out = f(&v);
    *t = v.take_value();
    out
}

/// Row `k` of `src` into row `rows[k]` of `dst`, for every `k`.
fn scatter_rows(dst: &mut Tensor, rows: &[usize], src: &Tensor) {
    for (k, &r) in rows.iter().enumerate() {
        dst.row_mut(r).copy_from_slice(src.row(k));
    }
}

/// Appends a row filled with `value`, moving the buffer.
fn push_row(t: &mut Tensor, value: f32) {
    let (rows, cols) = (t.rows(), t.cols());
    let mut data = std::mem::replace(t, Tensor::zeros(0, 0)).into_vec();
    data.resize((rows + 1) * cols, value);
    *t = Tensor::matrix(rows + 1, cols, data);
}

/// Moves the last row into row `r` and drops the last: the swap-remove
/// rename of hyperedge ids.
fn swap_remove_row(t: &mut Tensor, r: usize) {
    let (last, cols) = (t.rows() - 1, t.cols());
    let mut data = std::mem::replace(t, Tensor::zeros(0, 0)).into_vec();
    data.copy_within(last * cols.., r * cols);
    data.truncate(last * cols);
    *t = Tensor::matrix(last, cols, data);
}

/// One tier's forward: every activation (`x^0`, then each layer's output),
/// and each layer's projection `x θ` and hyperedge features.
struct TierForward {
    acts: Vec<Var>,
    projections: Vec<Var>,
    edges: Vec<Var>,
}

/// One stack of hypergraph convolutions over a fixed hypergraph — adaptive
/// (Eqs. 14–16) for the full model, plain (Eqs. 10–13) for `AHNTP_noatt`.
struct ConvStack(Vec<Box<dyn HypergraphLayer>>);

impl ConvStack {
    /// Builds the stack over a shared full operator set, so all layers of
    /// the stack reuse one extraction (and mini-batch slices of it).
    fn new(
        name: &str,
        ops: &Rc<AggregationOps>,
        in_dim: usize,
        dims: &[usize],
        adaptive: bool,
        seed: u64,
    ) -> ConvStack {
        let mut prev = in_dim;
        let layers = dims.iter().enumerate().map(|(i, &d)| {
            let (name, ops) = (format!("{name}.conv{i}"), Rc::clone(ops));
            let layer: Box<dyn HypergraphLayer> = if adaptive {
                Box::new(AdaptiveHypergraphConv::with_ops(&name, ops, prev, d, seed))
            } else {
                Box::new(HypergraphConv::with_ops(&name, ops, prev, d, seed))
            };
            prev = d;
            layer
        });
        ConvStack(layers.collect())
    }

    /// Forward pass against an explicit operator set — the full extraction
    /// or a sampled hyperedge slice — keeping every activation (`x`, then
    /// each layer's output in turn), and each layer's projection and
    /// hyperedge features.
    fn forward(&self, s: &Session, ops: &AggregationOps, x: Var) -> TierForward {
        let mut acts = vec![x];
        let mut projections = Vec::with_capacity(self.0.len());
        let mut edges = Vec::with_capacity(self.0.len());
        for layer in &self.0 {
            let pass = layer.forward_with_edges(s, ops, &acts[acts.len() - 1]);
            acts.push(pass.out);
            projections.push(pass.x_theta);
            edges.push(pass.edges);
        }
        TierForward {
            acts,
            projections,
            edges,
        }
    }

    fn params(&self) -> Vec<Param> {
        self.0.iter().flat_map(|layer| layer.params()).collect()
    }

    /// The per-layer hyperedge-weight columns (`m × 1` each). Live
    /// structural mutation resizes these in step with the hypergraph.
    fn edge_weight_params(&self) -> Vec<Param> {
        self.0
            .iter()
            .map(|layer| layer.edge_weights().clone())
            .collect()
    }
}

/// The Adaptive Hypergraph Network for Trust Prediction.
///
/// Construction precomputes everything structural — Motif-based PageRank,
/// the four hypergroups and their aggregation operators, and on first use
/// the factor of the hypergraph Laplacian — from the *training* graph
/// only (test edges never shape the structure). Training is Adam over the combined objective of Eqs. 20–24,
/// full-batch through [`TrustModel::train_epoch`] or planned mini-batches
/// through [`BatchTrustModel::train_epoch_planned`]. Two invariants hold:
/// the full-batch epoch *is* the identity plan of the mini-batch path, so
/// the two agree bitwise at compute threads {1, 4}; and every objective is
/// one function of one embedding — one embedding forward, one pass per
/// tower, one Eq. 23 term and one backward per accumulation group, shared
/// by every micro-batch's trust head.
pub struct Ahntp {
    cfg: AhntpConfig,
    features: Tensor,
    node_mlp: Mlp,
    struct_mlp: Mlp,
    node_stack: ConvStack,
    struct_stack: ConvStack,
    tower_a: Mlp,
    tower_b: Mlp,
    /// Cached operators of the node-level hypergroups (Eqs. 6–7).
    node_cache: AggregationCache,
    /// Cached operators of the structure-level hypergroups (Eqs. 8–9).
    struct_cache: AggregationCache,
    /// The factor `B` of the Laplacian `Δ = I − B Bᵀ` of the two tiers'
    /// hyperedges together (Eq. 24), built on first use and dropped by any
    /// event that changes an edge or a weight.
    smooth_factor: RefCell<Option<Rc<SmoothnessFactor>>>,
    optimizer: Adam,
    influence: Vec<f64>,
    /// Architecture fingerprint: hash of the config and hypergraph shapes,
    /// stamped into checkpoints and serving artifacts.
    fingerprint: u64,
    /// Lazily computed scoring head; invalidated whenever parameters
    /// change through [`Ahntp::train_epoch`] or [`Ahntp::load`].
    head_cache: RefCell<Option<Rc<HeadCache>>>,
    /// Set once a live event adds or removes a hyperedge. Training is
    /// refused afterwards: the Adam moment buffers are bound to the
    /// construction-time edge set.
    structure_mutated: bool,
}

impl Ahntp {
    /// Builds the model over the training graph.
    ///
    /// * `features` — the `n × C` user feature matrix `X`,
    /// * `attributes` — observable attribute ids per user (Eq. 7 input),
    /// * `graph` — the social graph visible at training time.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or dimensions disagree.
    pub fn new(
        features: &Tensor,
        attributes: &[Vec<usize>],
        graph: &DiGraph,
        cfg: &AhntpConfig,
    ) -> Ahntp {
        cfg.validate().expect("invalid AhntpConfig");
        assert_eq!(
            features.rows(),
            graph.n(),
            "Ahntp::new: {} feature rows for {} users",
            features.rows(),
            graph.n()
        );
        assert_eq!(
            attributes.len(),
            graph.n(),
            "Ahntp::new: {} attribute lists for {} users",
            attributes.len(),
            graph.n()
        );

        // §IV-B-1: social influence ranking. The nompr ablation swaps
        // Motif-based PageRank for plain PageRank.
        let influence = if cfg.variant == AhntpVariant::NoMpr {
            pagerank(graph, &PageRankConfig::default())
        } else {
            motif_pagerank(
                graph,
                cfg.motif,
                &MotifPageRankConfig {
                    alpha: cfg.alpha,
                    pagerank: PageRankConfig::default(),
                },
            )
        };

        // §IV-B: the two-tier hypergroups.
        let hss = social_influence_hypergroup(graph, &influence, cfg.top_k_influence);
        let attr = attribute_hypergroup(graph.n(), attributes);
        let node_hg = Hypergraph::concat(&[&hss, &attr]);
        let pair = pairwise_hypergroup(graph);
        let hop = multi_hop_hypergroup_capped(graph, cfg.multi_hops, MAX_HOP_EDGE_SIZE);
        let struct_hg = Hypergraph::concat(&[&pair, &hop]);

        // Architecture fingerprint: everything that determines parameter
        // names and shapes (config widths, variant, input width) plus the
        // hypergraph shapes the convolutions are bound to. Seeds and
        // optimizer settings are deliberately excluded — checkpoints move
        // freely between differently-seeded builds of the same shape.
        let fingerprint = fnv1a(
            format!(
                "ahntp-arch-v1|variant={}|conv={:?}|tower={:?}|k={}|hops={}|motif={:?}|\
                 users={}|feats={}|node_hg={}x{}|struct_hg={}x{}",
                cfg.variant,
                cfg.conv_dims,
                cfg.tower_dims,
                cfg.top_k_influence,
                cfg.multi_hops,
                cfg.motif,
                graph.n(),
                features.cols(),
                node_hg.n_vertices(),
                node_hg.n_edges(),
                struct_hg.n_vertices(),
                struct_hg.n_edges(),
            )
            .bytes(),
        );

        let adaptive = cfg.variant != AhntpVariant::NoAttention;
        let c = features.cols();
        let d0 = cfg.conv_dims[0];
        let node_mlp = Mlp::new("node_mlp", &[c, d0], true, cfg.seed);
        let struct_mlp = Mlp::new("struct_mlp", &[c, d0], true, cfg.seed ^ 0x5f5f);
        let node_cache = AggregationCache::new(node_hg);
        let struct_cache = AggregationCache::new(struct_hg);
        let node_stack = ConvStack::new(
            "node",
            &node_cache.full_ops(),
            d0,
            &cfg.conv_dims,
            adaptive,
            cfg.seed,
        );
        let struct_stack = ConvStack::new(
            "struct",
            &struct_cache.full_ops(),
            d0,
            &cfg.conv_dims,
            adaptive,
            cfg.seed ^ 0xa5a5,
        );

        // Eqs. 17–18: pairwise towers. The final layer is linear (no ReLU)
        // so tower outputs span both signs and the cosine head (Eq. 19)
        // covers the full [-1, 1] range — with a ReLU output every cosine
        // would be non-negative and "distrust" unrepresentable.
        let emb_dim = 2 * *cfg.conv_dims.last().expect("validated non-empty");
        let mut tower_dims = vec![emb_dim];
        tower_dims.extend_from_slice(&cfg.tower_dims);
        let tower_a = Mlp::new("tower_a", &tower_dims, false, cfg.seed ^ 0x1111);
        let tower_b = Mlp::new("tower_b", &tower_dims, false, cfg.seed ^ 0x2222);

        let mut params = Vec::new();
        params.extend(node_mlp.params());
        params.extend(struct_mlp.params());
        params.extend(node_stack.params());
        params.extend(struct_stack.params());
        params.extend(tower_a.params());
        params.extend(tower_b.params());
        let optimizer = Adam::new(params, cfg.adam);

        // Centre the input features column-wise. Raw behavioural features
        // are non-negative; through stacked mean aggregations they collapse
        // into a narrow positive cone where cosine similarity saturates.
        // Centring restores a signed space in which the cosine head can
        // discriminate (a standard preprocessing step; the paper's inputs
        // go through the same normalisation inside PyTorch pipelines).
        let col_means = features.col_sums().scale(1.0 / features.rows() as f32);
        let mut centered = features.clone();
        for r in 0..centered.rows() {
            let row = centered.row_mut(r);
            for (v, &m) in row.iter_mut().zip(col_means.as_slice()) {
                *v -= m;
            }
        }
        Ahntp {
            cfg: cfg.clone(),
            features: centered,
            node_mlp,
            struct_mlp,
            node_stack,
            struct_stack,
            tower_a,
            tower_b,
            node_cache,
            struct_cache,
            smooth_factor: RefCell::new(None),
            optimizer,
            influence,
            fingerprint,
            head_cache: RefCell::new(None),
            structure_mutated: false,
        }
    }

    /// The social-influence scores used to build the influence hypergroup
    /// (Motif-based PageRank, or plain PageRank under `AHNTP_nompr`).
    pub fn influence_scores(&self) -> &[f64] {
        &self.influence
    }

    /// The active configuration.
    pub fn config(&self) -> &AhntpConfig {
        &self.cfg
    }

    /// Forward pass to the comprehensive user embedding (node-level and
    /// structure-level paths concatenated). Runs against the caches'
    /// *current* operators, so live mutations are picked up immediately
    /// (an unmutated cache hands back the very operators the layers were
    /// constructed over).
    fn embed(&self, s: &Session) -> Var {
        self.embed_on(
            s,
            &self.node_cache.full_ops(),
            &self.struct_cache.full_ops(),
        )
    }

    /// [`Ahntp::embed`] against explicit operator sets (sampled hyperedge
    /// slices during mini-batch training). With the full sets this is
    /// exactly `embed` — the cache hands back the very same operators.
    fn embed_on(&self, s: &Session, node_ops: &AggregationOps, struct_ops: &AggregationOps) -> Var {
        Self::embedding(s, &self.tier_activations(s, node_ops, struct_ops))
    }

    /// Per tier — node-level, then structure-level — the embedding
    /// forward: the tier MLP's output `x^0`, then each convolution layer's
    /// output `x^1 … x^L` and hyperedge features.
    fn tier_activations(
        &self,
        s: &Session,
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
    ) -> [TierForward; 2] {
        let x = s.constant(self.features.clone());
        [
            self.node_stack
                .forward(s, node_ops, self.node_mlp.forward(s, &x)),
            self.struct_stack
                .forward(s, struct_ops, self.struct_mlp.forward(s, &x)),
        ]
    }

    /// The comprehensive embedding: the two tiers' last activations side
    /// by side.
    fn embedding(s: &Session, [node, stru]: &[TierForward; 2]) -> Var {
        let (node, stru) = (&node.acts, &stru.acts);
        s.graph()
            .concat_cols(&[&node[node.len() - 1], &stru[stru.len() - 1]])
    }

    /// Cosine similarity per pair (Eq. 19) on a given session.
    fn pair_similarities(&self, s: &Session, pairs: &[LabeledPair]) -> Var {
        let emb = self.embed(s);
        let trustor = self.tower_a.forward(s, &emb);
        let trustee = self.tower_b.forward(s, &emb);
        Self::similarities_from(s, &trustor, &trustee, pairs)
    }

    /// Pair similarities (Eq. 19) from the two towers' outputs over every
    /// user (Eqs. 17–18).
    fn similarities_from(s: &Session, trustor: &Var, trustee: &Var, pairs: &[LabeledPair]) -> Var {
        let trustors = Rc::new(pairs.iter().map(|p| p.trustor).collect::<Vec<_>>());
        let trustees = Rc::new(pairs.iter().map(|p| p.trustee).collect::<Vec<_>>());
        s.graph()
            .pair_cosine(trustor, trustee, &trustors, &trustees)
    }

    /// All trainable parameters in a stable order (for optimizers,
    /// checkpoints, and inspection).
    pub fn parameters(&self) -> Vec<Param> {
        self.optimizer.params().to_vec()
    }

    /// Architecture fingerprint: a hash of the configuration and
    /// hypergraph shapes, written into checkpoint and artifact headers so
    /// wrong-architecture loads fail up front with a clear error.
    pub fn architecture_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Serialises the trained parameters into a checkpoint
    /// (state-dict-style; see `ahntp_nn::save_params_tagged`). The frame
    /// carries this model's [architecture fingerprint](Self::architecture_fingerprint).
    pub fn save(&self) -> Vec<u8> {
        ahntp_nn::save_params_tagged(self.optimizer.params(), self.fingerprint)
    }

    /// Loads a checkpoint produced by [`Ahntp::save`] into this model.
    /// The model must have been built with the same architecture (config
    /// and hypergraph shapes).
    ///
    /// # Errors
    ///
    /// Returns [`ahntp_nn::CheckpointError::WrongArchitecture`] when the
    /// checkpoint's fingerprint disagrees with this model's — before any
    /// parameter is touched — and otherwise the usual format, name, or
    /// shape errors.
    pub fn load(&self, checkpoint: &[u8]) -> Result<(), ahntp_nn::CheckpointError> {
        ahntp_nn::load_params_tagged(self.optimizer.params(), checkpoint, self.fingerprint)?;
        self.head_cache.borrow_mut().take();
        Ok(())
    }

    /// The scoring head under the current parameters, computed on first
    /// use and cached until the next parameter update.
    fn head(&self) -> Rc<HeadCache> {
        if let Some(head) = self.head_cache.borrow().as_ref() {
            return Rc::clone(head);
        }
        let head = Rc::new(self.forward_head());
        *self.head_cache.borrow_mut() = Some(Rc::clone(&head));
        head
    }

    /// The scoring head by a full forward. It is current with the
    /// structure, so it starts with no seeds pending.
    fn forward_head(&self) -> HeadCache {
        let s = Session::new();
        let tiers = self.tier_activations(
            &s,
            &self.node_cache.full_ops(),
            &self.struct_cache.full_ops(),
        );
        let emb = Self::embedding(&s, &tiers);
        let trustor = self.tower_a.forward(&s, &emb).value();
        let trustee = self.tower_b.forward(&s, &emb).value();
        HeadCache {
            emb: emb.value(),
            trustor,
            trustee,
            layers: tiers
                .each_ref()
                .map(|tier| tier.acts.iter().map(Var::value).collect()),
            projections: tiers
                .each_ref()
                .map(|tier| tier.projections.iter().map(Var::value).collect()),
            edges: tiers
                .each_ref()
                .map(|tier| tier.edges.iter().map(Var::value).collect()),
            seeds: Default::default(),
            added: Default::default(),
        }
    }

    /// The comprehensive user embedding matrix (`n × 2·conv_dims.last()`),
    /// computed with the current parameters. Exposed for downstream use
    /// (clustering, visualisation, the examples).
    pub fn embeddings(&self) -> Tensor {
        let s = Session::new();
        self.embed(&s).value()
    }

    /// Trust probability for a single user pair.
    ///
    /// Reuses the cached scoring head instead of re-running the full
    /// hypergraph forward per call, so repeated point queries between
    /// parameter updates cost `O(d)` each. The result is identical to the
    /// batched [`Ahntp::predict`] on the same pair (same kernels, same
    /// order of operations).
    ///
    /// # Panics
    ///
    /// Panics if either user id is out of range.
    pub fn predict_pair(&self, trustor: usize, trustee: usize) -> f32 {
        let head = self.head();
        let n = head.trustor.rows();
        assert!(
            trustor < n && trustee < n,
            "predict_pair: pair ({trustor}, {trustee}) out of range for {n} users"
        );
        let cs = head.trustor.cosine_rows(trustor, &head.trustee, trustee);
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![cs]));
        similarity_to_probability(&cs).value().as_slice()[0]
    }

    /// Exports the serveable artifact: the comprehensive embedding matrix
    /// plus the pair-scoring head, baked down for the online half of the
    /// stack (`ahntp-serve`). Head rows are L2-normalised so a server
    /// scores a pair with one dot product; see
    /// [`ahntp_nn::artifact::TrustArtifact`] for the `AHNTPSRV1` frame.
    pub fn export_artifact(&self) -> TrustArtifact {
        let head = self.head();
        self.artifact_from(head.emb.clone(), &head.trustor, &head.trustee)
    }

    /// The artifact of an embedding matrix and its two *unnormalised*
    /// tower outputs.
    fn artifact_from(&self, emb: Tensor, trustor: &Tensor, trustee: &Tensor) -> TrustArtifact {
        TrustArtifact {
            model: self.name(),
            fingerprint: self.fingerprint,
            calibration: COSINE_CALIBRATION,
            n_users: emb.rows(),
            emb_dim: emb.cols(),
            head_dim: trustor.cols(),
            embeddings: emb.into_vec().into(),
            trustor_head: trustor.normalize_rows().into_vec().into(),
            trustee_head: trustee.normalize_rows().into_vec().into(),
        }
    }

    /// Hyperedge counts of the two convolution hypergraphs,
    /// `(node_level, structure_level)` — the sampling universes of the
    /// mini-batch path (used by benchmarks to report resident rows).
    pub fn hyperedge_counts(&self) -> (usize, usize) {
        (self.node_cache.n_edges(), self.struct_cache.n_edges())
    }

    /// The forward an accumulation group shares, on session `s` against
    /// the given (possibly sliced) operators: the embedding once, then
    /// each tower once over every user — `(trustor, trustee)`.
    fn group_forward(
        &self,
        s: &Session,
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
    ) -> (Var, Var) {
        let emb = self.embed_on(s, node_ops, struct_ops);
        (self.tower_a.forward(s, &emb), self.tower_b.forward(s, &emb))
    }

    /// The trust objective (Eqs. 20–22) of one micro-batch, read off the
    /// group's tower outputs ([`Ahntp::group_forward`]): similarities,
    /// BCE and, unless ablated, the supervised contrastive term. The
    /// Eq. 23 term is not a function of the batch's pairs; the
    /// accumulation group adds it once ([`Ahntp::group_gradient`]).
    fn pair_loss(&self, s: &Session, pairs: &[LabeledPair], trustor: &Var, trustee: &Var) -> Var {
        let cs = Self::similarities_from(s, trustor, trustee, pairs);
        let labels = Tensor::vector(pairs.iter().map(|p| f32::from(p.label)).collect());
        let l2 = bce_from_similarity(s, &cs, &labels);
        if self.cfg.variant == AhntpVariant::NoContrastive {
            l2
        } else {
            // Eq. 20: anchors are trustors; positives are their trusted
            // partners, negatives the sampled non-partners.
            let anchors: Vec<usize> = pairs.iter().map(|p| p.trustor).collect();
            let is_pos: Vec<bool> = pairs.iter().map(|p| p.label).collect();
            let batch = ContrastiveBatch::new(&anchors, &is_pos);
            let l1 = supervised_contrastive(s, &cs, &batch, self.cfg.temperature);
            combined_loss(&l1, &l2, self.cfg.lambda1, self.cfg.lambda2)
        }
    }

    /// One accumulation group's gradient, harvested into the parameters
    /// (which the caller has cleared): one session, one
    /// [`Ahntp::group_forward`], then one objective
    /// `Σᵢ (nᵢ / N_g)·Lᵢ + R` over the group's micro-batches — `Lᵢ` each
    /// batch's [`Ahntp::pair_loss`], `R` the Eq. 23 term on `trustor`,
    /// added once — and one `backward()`. The group's pair-weighted mean
    /// of `Lᵢ + R` is that objective, since the weights sum to 1. A lone
    /// batch is `L.add(R)` unscaled, so the full-batch epoch records no
    /// extra tape op.
    ///
    /// Returns each micro-batch's `(pairs, Lᵢ + R)`, added from the
    /// forward values: the per-batch loss a tape of its own would report.
    fn group_gradient(
        &self,
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
        smooth: Option<&Rc<SmoothnessFactor>>,
        group: &[Vec<LabeledPair>],
    ) -> Vec<(usize, f32)> {
        let group_pairs: usize = group.iter().map(Vec::len).sum();
        let s = Session::new();
        let (trustor, trustee) = self.group_forward(&s, node_ops, struct_ops);
        let mut losses = Vec::with_capacity(group.len());
        let mut objective: Option<Var> = None;
        for batch in group {
            let loss = self.pair_loss(&s, batch, &trustor, &trustee);
            losses.push((batch.len(), loss.value().as_slice()[0]));
            let term = if group.len() == 1 {
                loss
            } else {
                loss.scale(batch.len() as f32 / group_pairs as f32)
            };
            objective = Some(match objective {
                Some(sum) => sum.add(&term),
                None => term,
            });
        }
        let mut objective = objective.expect("an accumulation group holds a batch");
        if let Some(factor) = smooth {
            let smooth = self.smoothness_term(&s, factor, &trustor);
            let r = smooth.value().as_slice()[0];
            losses.iter_mut().for_each(|(_, l)| *l += r);
            objective = objective.add(&smooth);
        }
        objective.backward();
        s.harvest();
        losses
    }

    /// The epoch's sampled operators: one hyperedge sample per tier,
    /// seeded from the plan, and the Laplacian's factor over the same
    /// hyperedges (`None` without the Eq. 23 term). Ratio 1.0 never touches
    /// the RNG and hands back the full operators and the cached full
    /// factor.
    fn sampled_operators(
        &self,
        plan: &BatchPlan,
    ) -> (
        Rc<AggregationOps>,
        Rc<AggregationOps>,
        Option<Rc<SmoothnessFactor>>,
    ) {
        // One sample per hypergraph so node-level and structure-level
        // draws are independent.
        let node_ids = sample_edges(
            self.node_cache.n_edges(),
            plan.edge_ratio,
            SplitMix64::derive(plan.seed, "minibatch.node"),
            plan.epoch,
        );
        let struct_ids = sample_edges(
            self.struct_cache.n_edges(),
            plan.edge_ratio,
            SplitMix64::derive(plan.seed, "minibatch.struct"),
            plan.epoch,
        );
        ahntp_telemetry::counter_add(
            "batch.sampled_edges",
            (node_ids.len() + struct_ids.len()) as u64,
        );
        let node_ops = self.node_cache.slice_ops(&node_ids);
        let struct_ops = self.struct_cache.slice_ops(&struct_ids);
        let smooth = (self.cfg.smoothness_weight > 0.0).then(|| {
            // Eq. 23 smooths over both tiers' sampled hyperedges together;
            // a slice that keeps every hyperedge of both is the full set.
            let (node, stru) = (node_ops.edge_ids.as_deref(), struct_ops.edge_ids.as_deref());
            match (node.map(Vec::as_slice), stru.map(Vec::as_slice)) {
                (None, None) => self.full_smoothness_factor(),
                (node, stru) => Rc::new(SmoothnessFactor::build(&[
                    (&self.node_cache, node),
                    (&self.struct_cache, stru),
                ])),
            }
        });
        (node_ops, struct_ops, smooth)
    }

    /// The factor of the Laplacian over every hyperedge of both tiers,
    /// built once (until an event drops it).
    fn full_smoothness_factor(&self) -> Rc<SmoothnessFactor> {
        let mut cached = self.smooth_factor.borrow_mut();
        let factor = cached.get_or_insert_with(|| {
            Rc::new(SmoothnessFactor::build(&[
                (&self.node_cache, None),
                (&self.struct_cache, None),
            ]))
        });
        Rc::clone(factor)
    }

    /// Eq. 23: label smoothing over the (sampled) trust hypergraph, applied
    /// to the similarity-space embeddings `f` (the classification function
    /// of Eq. 24 — the trustor tower's output).
    fn smoothness_term(&self, s: &Session, factor: &SmoothnessFactor, f: &Var) -> Var {
        let weight = self.cfg.smoothness_weight / self.features.rows() as f32;
        smoothness_penalty(s, factor, f).scale(weight)
    }

    /// A tier's hypergraph cache and convolution stack.
    fn tier(&self, group: HyperGroup) -> (&AggregationCache, &ConvStack) {
        match group {
            HyperGroup::Node => (&self.node_cache, &self.node_stack),
            HyperGroup::Structure => (&self.struct_cache, &self.struct_stack),
        }
    }

    fn tier_mut(&mut self, group: HyperGroup) -> (&mut AggregationCache, &ConvStack) {
        match group {
            HyperGroup::Node => (&mut self.node_cache, &self.node_stack),
            HyperGroup::Structure => (&mut self.struct_cache, &self.struct_stack),
        }
    }

    /// Brings `head` up to date with the structure by walking each tier's
    /// seeds forward one layer at a time. Layer `l` rewrites rows `T_l` of
    /// `x^{l+1}`, where `T_0` is the seeds and `T_l = closure(T_{l−1}, 1)`.
    /// It first re-projects the rows `T_{l−1}` of `x^l θ` whose input it
    /// rewrote (none at `l = 0`), then recomputes the hyperedges `E_l`
    /// whose features changed — those with a member in `T_{l−1}`, whose
    /// `x^l` row was rewritten; at `l = 0` only the hyperedges added since
    /// the last refresh, since `x^0` is the tier MLP of fixed features —
    /// and patches their rows in the cached features. It then runs the vertex half on `T_l` over the
    /// whole cached feature matrices: a vertex's output depends only on its
    /// own input, its incident hyperedges and their features, and `T_l`
    /// holds every vertex where one of those changed. The operator rows
    /// come straight off the lists ([`AggregationCache::edge_rows`],
    /// [`AggregationCache::vertex_rows`]) and keep the full operators'
    /// entries and order, and every product row is its own accumulation
    /// chain, so each rewritten row is bitwise the full forward's and no
    /// other row changed. A tier without seeds does nothing; the towers run
    /// on the embedding rows that changed. Counts the recomputed hyperedge
    /// rows in `core.refresh.edge_rows`.
    fn catch_up(&self, head: &mut HeadCache) {
        let d = *self.cfg.conv_dims.last().expect("validated non-empty");
        let s = Session::new();
        let mut changed = Vec::new();
        for group in [HyperGroup::Node, HyperGroup::Structure] {
            let t = group as usize;
            let seeds = std::mem::take(&mut head.seeds[t]);
            let mut edges = std::mem::take(&mut head.added[t]);
            if seeds.is_empty() {
                continue;
            }
            let (cache, stack) = self.tier(group);
            edges.sort_unstable();
            let mut rows = cache.closure(&seeds, 0);
            for (l, layer) in stack.0.iter().enumerate() {
                let (inputs, outputs) = head.layers[t].split_at_mut(l + 1);
                let (x, cached) = (&mut inputs[l], &mut head.edges[t][l]);
                let projection = &mut head.projections[t][l];
                if l > 0 {
                    let changed = s.constant(x.gather_rows(&rows));
                    let projected = layer.project(&s, &changed).take_value();
                    scatter_rows(projection, &rows, &projected);
                    (edges, rows) = cache.hop(&rows);
                }
                ahntp_telemetry::counter_add("core.refresh.edge_rows", edges.len() as u64);
                if !edges.is_empty() {
                    let v2e = Rc::new(cache.edge_rows(&edges));
                    let ids = Rc::new(std::mem::take(&mut edges));
                    let fresh = lend(&s, projection, |xt| {
                        layer.edge_half(&s, &v2e, Some(&ids), xt).take_value()
                    });
                    scatter_rows(cached, &ids, &fresh);
                }
                let targets = cache.vertex_rows(&rows);
                let x_rows = s.constant(x.gather_rows(&rows));
                let y = lend(&s, cached, |h_e| {
                    layer.vertex_half(&s, &targets, &x_rows, h_e).take_value()
                });
                scatter_rows(&mut outputs[0], &rows, &y);
            }
            for &u in &rows {
                let out = head.layers[t][stack.0.len()].row(u);
                head.emb.row_mut(u)[t * d..(t + 1) * d].copy_from_slice(out);
            }
            changed.extend(rows);
        }
        if changed.is_empty() {
            return;
        }
        changed.sort_unstable();
        changed.dedup();
        let emb = s.constant(head.emb.gather_rows(&changed));
        scatter_rows(
            &mut head.trustor,
            &changed,
            &self.tower_a.forward(&s, &emb).take_value(),
        );
        scatter_rows(
            &mut head.trustee,
            &changed,
            &self.tower_b.forward(&s, &emb).take_value(),
        );
    }
}

impl LiveTrustModel for Ahntp {
    fn n_users(&self) -> usize {
        self.features.rows()
    }

    /// Folds one live event into the tier caches: their member and
    /// incident-edge lists are updated, the matrices derived from them
    /// dropped (see [`AggregationCache`]).
    ///
    /// Structural events (add/remove) resize the per-layer hyperedge
    /// weight columns in step with the hypergraph — a new edge starts at
    /// the initialisation weight `1.0`, a removed edge's slot is taken by
    /// the renamed last edge, mirroring the swap-remove id rename — and
    /// the cached head's hyperedge-feature rows the same way (an added
    /// edge's rows are placeholders, recorded for the next refresh to
    /// compute), and mark the model as structurally mutated (training is
    /// refused afterwards). Their seeds are the members of the added hyperedge, or
    /// of the removed one and of the one renamed into its slot: the only
    /// users whose incident-edge lists changed. The seeds are kept for the
    /// next refresh, and the affected users are `closure(seeds, L − 1)`:
    /// layer 1 changes the seeds' rows alone and each later layer reaches
    /// one hop further. Weight-only events (reweight/decay) touch degrees
    /// and the Laplacian's factor but no operator, so they leave every head
    /// row exact and report no affected users; the factor is rebuilt from
    /// the reweighted tiers on next use, so weight-only streams remain
    /// trainable.
    ///
    /// Until [`LiveTrustModel::refresh_heads`] runs, the *cached* head
    /// rows of affected users (used by [`Ahntp::predict_pair`] and
    /// [`Ahntp::export_artifact`]) are stale; the batched
    /// [`TrustModel::predict`] recomputes the forward and is always live.
    fn apply_event(&mut self, event: &TrustEvent) -> Result<AppliedEvent, StreamError> {
        // Every valid event changes an edge or a weight. An invalid one
        // leaves the tiers untouched, so dropping the factor costs a
        // rebuild at most.
        self.smooth_factor.get_mut().take();
        let (group, seeds) = match event {
            TrustEvent::AddEdge {
                group,
                members,
                weight,
            } => {
                let (cache, stack) = self.tier_mut(*group);
                let e = cache.apply_add(members, *weight)?;
                for p in stack.edge_weight_params() {
                    let mut w = p.value();
                    push_row(&mut w, 1.0);
                    p.set_value(w);
                }
                if let Some(head) = self.head_cache.get_mut() {
                    let head = Rc::make_mut(head);
                    let t = *group as usize;
                    head.edges[t].iter_mut().for_each(|h_e| push_row(h_e, 0.0));
                    head.added[t].push(e);
                }
                (*group, members.clone())
            }
            TrustEvent::RemoveEdge { group, edge } => {
                let (cache, stack) = self.tier_mut(*group);
                let removed = cache.apply_remove(*edge)?;
                for p in stack.edge_weight_params() {
                    let mut w = p.value();
                    swap_remove_row(&mut w, *edge);
                    p.set_value(w);
                }
                if let Some(head) = self.head_cache.get_mut() {
                    let head = Rc::make_mut(head);
                    let t = *group as usize;
                    head.edges[t]
                        .iter_mut()
                        .for_each(|h_e| swap_remove_row(h_e, *edge));
                    let added = &mut head.added[t];
                    added.retain(|&e| e != *edge);
                    if let Some(moved) = &removed.moved {
                        for e in added.iter_mut().filter(|e| **e == moved.old_id) {
                            *e = *edge;
                        }
                    }
                }
                // The renamed edge changes its members' incident-edge
                // summation order, so they seed the refresh alongside the
                // removed edge's members.
                let mut seeds = removed.members;
                if let Some(moved) = removed.moved {
                    seeds.extend(moved.members);
                }
                (*group, seeds)
            }
            TrustEvent::ReweightEdge {
                group,
                edge,
                weight,
            } => {
                self.tier_mut(*group).0.apply_reweight(*edge, *weight)?;
                return Ok(AppliedEvent::default());
            }
            TrustEvent::Decay { factor } => {
                self.node_cache.apply_decay(*factor)?;
                self.struct_cache.apply_decay(*factor)?;
                return Ok(AppliedEvent::default());
            }
        };
        self.structure_mutated = true;
        // Without a cached head there is nothing to catch up: the next
        // `head()` runs the full forward over the mutated structure.
        if let Some(head) = self.head_cache.get_mut() {
            Rc::make_mut(head).seeds[group as usize].extend_from_slice(&seeds);
        }
        let hops = self.cfg.conv_dims.len();
        let affected_users = self.tier(group).0.closure(&seeds, hops - 1);
        Ok(AppliedEvent { affected_users })
    }

    /// Catches the model's own cached head up with every event applied
    /// since the last refresh (see `Ahntp::catch_up`), then reads the
    /// rows of `users` from it, so `predict_pair`/`export_artifact` and
    /// the returned patch agree. A dropped head (after a parameter load)
    /// is rebuilt by a full forward instead. Rows in the patch are
    /// L2-normalised exactly as artifact export normalises them.
    fn refresh_heads(&self, users: &[usize]) -> HeadPatch {
        let emb_dim = 2 * *self.cfg.conv_dims.last().expect("validated non-empty");
        let head_dim = *self.cfg.tower_dims.last().expect("validated non-empty");
        if users.is_empty() {
            return HeadPatch::empty(emb_dim, head_dim);
        }
        // `head()`'s handle is released before the walk, so `make_mut`
        // finds the cache unshared and never clones it.
        drop(self.head());
        if let Some(head) = self.head_cache.borrow_mut().as_mut() {
            self.catch_up(Rc::make_mut(head));
        }
        let head = self.head();
        HeadPatch {
            users: users.to_vec(),
            emb_dim,
            head_dim,
            emb_rows: head.emb.gather_rows(users).into_vec(),
            trustor_rows: head.trustor.gather_rows(users).normalize_rows().into_vec(),
            trustee_rows: head.trustee.gather_rows(users).normalize_rows().into_vec(),
        }
    }

    fn export_artifact(&self) -> TrustArtifact {
        Ahntp::export_artifact(self)
    }

    /// From-scratch oracle: fresh operator extractions over the *current*
    /// (mutated) hypergraphs, bypassing every cache — what a cold rebuild
    /// of the serving artifact would produce.
    fn rebuild_artifact(&self) -> TrustArtifact {
        let s = Session::new();
        let node_ops = AggregationOps::full(self.node_cache.hypergraph());
        let struct_ops = AggregationOps::full(self.struct_cache.hypergraph());
        let emb = self.embed_on(&s, &node_ops, &struct_ops);
        let trustor = self.tower_a.forward(&s, &emb).value();
        let trustee = self.tower_b.forward(&s, &emb).value();
        self.artifact_from(emb.value(), &trustor, &trustee)
    }
}

impl TrustModel for Ahntp {
    fn name(&self) -> String {
        self.cfg.variant.to_string()
    }

    fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32 {
        assert!(!pairs.is_empty(), "train_epoch: no pairs");
        // The full-batch epoch *is* the identity plan: every hyperedge,
        // one in-order batch, one optimizer step. The caches recognise the
        // identity selection and hand back the full operators.
        self.train_epoch_planned(&BatchPlan::full(pairs))
    }

    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let s = Session::new();
        let cs = self.pair_similarities(&s, pairs);
        similarity_to_probability(&cs).value().into_vec()
    }

    fn n_parameters(&self) -> usize {
        self.optimizer.params().iter().map(Param::numel).sum()
    }
}

impl ResumableModel for Ahntp {
    /// Captures the full training state — parameters, Adam moments and
    /// step clock, the sampler seed, and the loop ledger — as a CRC-sealed
    /// `AHNTP002` frame (see [`ahntp_nn::TrainState`]).
    fn encode_train_state(&self, progress: &TrainProgress) -> Vec<u8> {
        TrainState::capture(
            &self.optimizer,
            self.fingerprint,
            self.cfg.seed,
            progress.epochs_done as u32,
            progress.best_loss,
            progress.stale as u32,
            &progress.epoch_losses,
        )
        .encode()
    }

    /// Restores an `AHNTP002` frame into this model: the architecture
    /// fingerprint and the sampler seed must both match — resuming with
    /// either changed would silently produce a different trajectory than
    /// the uninterrupted run the checkpoint belongs to.
    fn decode_train_state(&mut self, bytes: &[u8]) -> Result<TrainProgress, String> {
        let state = TrainState::decode(bytes).map_err(|e| e.to_string())?;
        if state.rng_state != self.cfg.seed {
            return Err(format!(
                "checkpoint was written with sampler seed {} but this model is \
                 configured with {}; resuming would change the mini-batch \
                 trajectory",
                state.rng_state, self.cfg.seed
            ));
        }
        state
            .apply(&mut self.optimizer, self.fingerprint)
            .map_err(|e| e.to_string())?;
        // Parameters changed under the cached scoring head.
        self.head_cache.borrow_mut().take();
        Ok(TrainProgress {
            epochs_done: state.epochs_done as usize,
            best_loss: state.best_loss,
            stale: state.stale as usize,
            epoch_losses: state.epoch_losses,
        })
    }
}

impl BatchTrustModel for Ahntp {
    /// One planned epoch: sample hyperedges once (per hypergraph, seeded
    /// from the plan), build their operators once, then run the plan's
    /// micro-batches with gradient accumulation — `plan.accumulation`
    /// batches per optimizer step, each batch's trust objective weighted
    /// by its share of the step's pairs.
    ///
    /// The identity plan (ratio `1.0`, one batch, accumulation `1`) *is*
    /// the full-batch epoch: the caches return the full operators and the
    /// one batch's `L + R` is backpropagated unscaled.
    /// `minibatch_exactness` holds the two entry points to bitwise-equal
    /// trajectories at compute threads {1, 4}. Each accumulation group
    /// builds its embedding and runs each tower once, on one tape, then
    /// one objective — every micro-batch's trust objective, weighted,
    /// plus the Eq. 23 term once — and one backward
    /// (`Ahntp::group_gradient`), then one optimizer step. For groups of
    /// two or more batches that gradient is the per-micro-batch sum up to
    /// f32 reordering: the test
    /// `a_group_objective_matches_a_tape_per_micro_batch` holds it within
    /// `1e-5` of each parameter's max-norm against a tape per batch.
    fn train_epoch_planned(&mut self, plan: &BatchPlan) -> f32 {
        assert!(plan.n_pairs() > 0, "train_epoch_planned: no pairs");
        assert!(
            !self.structure_mutated,
            "train_epoch: the hypergraph structure was mutated by live \
             events; the Adam moment buffers are bound to the \
             construction-time edge set — rebuild the model to continue \
             training"
        );
        let (node_ops, struct_ops, smooth) = self.sampled_operators(plan);
        let mut batch_losses: Vec<(usize, f32)> = Vec::with_capacity(plan.n_batches());
        for group in plan.batches.chunks(plan.accumulation.max(1)) {
            self.optimizer.zero_grad();
            let losses = self.group_gradient(&node_ops, &struct_ops, smooth.as_ref(), group);
            ahntp_telemetry::counter_add("batch.micro_batches.run", group.len() as u64);
            batch_losses.extend(losses);
            self.optimizer.step();
            ahntp_telemetry::counter_add("batch.optimizer_steps", 1);
        }
        // Parameters moved: the cached scoring head is stale.
        self.head_cache.borrow_mut().take();
        epoch_loss(&batch_losses)
    }
}

/// An epoch's loss from its `(pairs, loss)` per micro-batch: the batch
/// loss itself for a single batch (bitwise the full-batch loss), else the
/// pair-weighted mean.
fn epoch_loss(batch_losses: &[(usize, f32)]) -> f32 {
    if let [(_, loss)] = batch_losses {
        return *loss;
    }
    let total: usize = batch_losses.iter().map(|&(n, _)| n).sum();
    batch_losses
        .iter()
        .map(|&(n, l)| l * (n as f32 / total as f32))
        .sum()
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ahntp_data::{DatasetConfig, TrustDataset};
    use ahntp_eval::{train_and_evaluate, TrainConfig};

    fn tiny_setup() -> (TrustDataset, ahntp_data::Split) {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        (ds, split)
    }

    fn tiny_config() -> AhntpConfig {
        AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            ..AhntpConfig::default()
        }
    }

    #[test]
    fn model_builds_and_reports_parameters() {
        let (ds, split) = tiny_setup();
        let model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        assert!(model.n_parameters() > 500);
        assert_eq!(model.name(), "AHNTP");
        assert_eq!(model.influence_scores().len(), 80);
    }

    #[test]
    fn predictions_are_probabilities() {
        let (ds, split) = tiny_setup();
        let model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let scores = model.predict(&split.test);
        assert_eq!(scores.len(), split.test.len());
        assert!(scores.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert!(model.predict(&[]).is_empty());
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let first = model.train_epoch(&split.train);
        let mut last = first;
        for _ in 0..8 {
            last = model.train_epoch(&split.train);
        }
        assert!(last < first, "loss should fall: first {first}, last {last}");
        assert!(last.is_finite());
    }

    #[test]
    fn training_beats_chance_on_tiny_data() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let report = train_and_evaluate(
            &mut model,
            &split.train,
            &split.test,
            &TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        );
        // 1/3 positives, 2/3 negatives → majority-class accuracy is 2/3.
        // Even the tiny model must rank better than random.
        assert!(
            report.test.auc > 0.6,
            "AUC {:.3} should beat chance",
            report.test.auc
        );
    }

    #[test]
    fn ablation_variants_train() {
        let (ds, split) = tiny_setup();
        for cfg in [
            tiny_config().no_mpr(),
            tiny_config().no_attention(),
            tiny_config().no_contrastive(),
        ] {
            let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
            let loss = model.train_epoch(&split.train);
            assert!(loss.is_finite(), "{} diverged", model.name());
            assert_eq!(model.name(), cfg.variant.to_string());
        }
    }

    #[test]
    fn embeddings_have_expected_shape() {
        let (ds, split) = tiny_setup();
        let model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let emb = model.embeddings();
        assert_eq!(emb.rows(), 80);
        assert_eq!(emb.cols(), 16); // 2 × last conv dim (8)
        assert!(emb.all_finite());
    }

    #[test]
    fn predict_pair_is_symmetric_api() {
        let (ds, split) = tiny_setup();
        let model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let p = model.predict_pair(0, 1);
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn predict_pair_matches_batched_predict() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        model.train_epoch(&split.train);
        let pairs: Vec<LabeledPair> = split.test.iter().take(12).copied().collect();
        let batched = model.predict(&pairs);
        for (pair, &expected) in pairs.iter().zip(&batched) {
            let single = model.predict_pair(pair.trustor, pair.trustee);
            assert_eq!(
                single, expected,
                "predict_pair({}, {}) disagrees with batched predict",
                pair.trustor, pair.trustee
            );
        }
    }

    #[test]
    fn predict_pair_cache_invalidates_on_training() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let before = model.predict_pair(0, 1);
        for _ in 0..3 {
            model.train_epoch(&split.train);
        }
        let after = model.predict_pair(0, 1);
        assert_ne!(before, after, "training must refresh the cached head");
        // And the refreshed cache still agrees with the batched path.
        let pair = LabeledPair {
            trustor: 0,
            trustee: 1,
            label: false,
        };
        assert_eq!(after, model.predict(&[pair])[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn predict_pair_rejects_out_of_range_users() {
        let (ds, split) = tiny_setup();
        let model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        model.predict_pair(0, 10_000);
    }

    #[test]
    fn exported_artifact_matches_predict_within_tolerance() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        for _ in 0..2 {
            model.train_epoch(&split.train);
        }
        let artifact = model.export_artifact();
        artifact
            .validate()
            .expect("exported artifact is consistent");
        assert_eq!(artifact.n_users, 80);
        assert_eq!(artifact.emb_dim, 16);
        assert_eq!(artifact.fingerprint, model.architecture_fingerprint());
        // Round-trips through the AHNTPSRV1 frame.
        let decoded = ahntp_nn::TrustArtifact::decode(&artifact.encode_v2()).unwrap();
        assert_eq!(decoded, artifact);
        // Scoring from the frozen head reproduces the model's predictions.
        let d = artifact.head_dim;
        for pair in split.test.iter().take(10) {
            let (u, v) = (pair.trustor, pair.trustee);
            let dot: f32 = artifact.trustor_head[u * d..(u + 1) * d]
                .iter()
                .zip(&artifact.trustee_head[v * d..(v + 1) * d])
                .map(|(a, b)| a * b)
                .sum();
            let score = 1.0 / (1.0 + (-dot / artifact.calibration).exp());
            let expected = model.predict_pair(u, v);
            assert!(
                (score - expected).abs() < 1e-6,
                "artifact score {score} vs model {expected} for ({u}, {v})"
            );
        }
    }

    #[test]
    fn exact_plan_epoch_is_bitwise_full_batch() {
        let (ds, split) = tiny_setup();
        let mut full = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let mut mini = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        use ahntp_data::MiniBatchConfig;
        for epoch in 0..3 {
            let l_full = full.train_epoch(&split.train);
            let plan = BatchPlan::for_epoch(&split.train, &MiniBatchConfig::exact(7), epoch);
            let l_mini = mini.train_epoch_planned(&plan);
            assert_eq!(
                l_full.to_bits(),
                l_mini.to_bits(),
                "epoch {epoch}: exact plan must reproduce full-batch loss bitwise"
            );
        }
        let pf = full.predict(&split.test);
        let pm = mini.predict(&split.test);
        assert_eq!(pf, pm, "parameters must end up identical");
    }

    #[test]
    fn sampled_plan_trains_and_covers_all_pairs() {
        let (ds, split) = tiny_setup();
        let mut model = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        use ahntp_data::MiniBatchConfig;
        let cfg = MiniBatchConfig::sampled(0.5, 16, 2, 11);
        let mut last = f32::INFINITY;
        for epoch in 0..4 {
            let plan = BatchPlan::for_epoch(&split.train, &cfg, epoch);
            assert!(plan.n_batches() > 1, "tiny split still multi-batch");
            last = model.train_epoch_planned(&plan);
            assert!(last.is_finite(), "sampled epoch {epoch} diverged");
        }
        // Deterministic: a twin model on the same plans lands on the same
        // parameters.
        let mut twin = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &tiny_config(),
        );
        let mut twin_last = f32::NAN;
        for epoch in 0..4 {
            let plan = BatchPlan::for_epoch(&split.train, &cfg, epoch);
            twin_last = twin.train_epoch_planned(&plan);
        }
        assert_eq!(last.to_bits(), twin_last.to_bits());
        assert_eq!(model.predict(&split.test), twin.predict(&split.test));
    }

    /// The objective as it stood before the embedding was shared — the
    /// supervised part, then Eq. 23 on an embedding forward and a
    /// trustor-tower pass of its own — kept as the reference
    /// [`Ahntp::group_gradient`] is checked against.
    fn two_forward_loss(
        m: &Ahntp,
        s: &Session,
        pairs: &[LabeledPair],
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
        factor: &SmoothnessFactor,
    ) -> Var {
        let (trustor, trustee) = m.group_forward(s, node_ops, struct_ops);
        let loss = m.pair_loss(s, pairs, &trustor, &trustee);
        let emb = m.embed_on(s, node_ops, struct_ops);
        loss.add(&m.smoothness_term(s, factor, &m.tower_a.forward(s, &emb)))
    }

    /// Every parameter's current gradient.
    fn grads(m: &Ahntp) -> Vec<Option<Tensor>> {
        m.parameters().iter().map(Param::grad).collect()
    }

    fn max_abs(t: &Tensor) -> f32 {
        t.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Asserts each gradient in `got` is within `1e-5 × max|r|` of its
    /// reference `r`, in max-norm, and returns the parameter whose
    /// `max|g − r| / max|r|` is largest, with that ratio.
    fn assert_grads_close(
        m: &Ahntp,
        got: &[Option<Tensor>],
        reference: &[Option<Tensor>],
        tag: &str,
    ) -> (String, f32) {
        let mut worst = (String::new(), 0.0f32);
        for ((p, g), r) in m.parameters().iter().zip(got).zip(reference) {
            let (Some(g), Some(r)) = (g, r) else {
                panic!("{tag}: {} received no gradient", p.name());
            };
            let mut diff = g.clone();
            diff.axpy_inplace(-1.0, r);
            assert!(
                max_abs(&diff) <= 1e-5 * max_abs(r),
                "{tag}: {} gradient off by {} against max-norm {}",
                p.name(),
                max_abs(&diff),
                max_abs(r)
            );
            let ratio = max_abs(&diff) / max_abs(r);
            if ratio > worst.1 {
                worst = (p.name(), ratio);
            }
        }
        worst
    }

    #[test]
    fn shared_embedding_objective_matches_the_two_forward_reference() {
        let (ds, split) = tiny_setup();
        for cfg in [
            tiny_config(),
            tiny_config().no_attention(),
            tiny_config().no_contrastive(),
        ] {
            assert!(
                cfg.smoothness_weight > 0.0,
                "Eq. 23 must be in the objective"
            );
            let mut m = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
            // Off the initialisation point (unit edge weights, zero biases).
            m.train_epoch(&split.train);
            let (m_node, m_struct) = m.hyperedge_counts();
            for ratio in [1.0, 0.5] {
                let node_ids = sample_edges(m_node, ratio, 11, 0);
                let struct_ids = sample_edges(m_struct, ratio, 12, 0);
                let node_ops = m.node_cache.slice_ops(&node_ids);
                let struct_ops = m.struct_cache.slice_ops(&struct_ids);
                let factor = Rc::new(SmoothnessFactor::build(&[
                    (&m.node_cache, Some(&node_ids)),
                    (&m.struct_cache, Some(&struct_ids)),
                ]));

                m.optimizer.zero_grad();
                let group = [split.train.clone()];
                let [(_, loss)] =
                    m.group_gradient(&node_ops, &struct_ops, Some(&factor), &group)[..]
                else {
                    panic!("one loss per batch");
                };
                let got = grads(&m);
                m.optimizer.zero_grad();
                let s = Session::new();
                let reference =
                    two_forward_loss(&m, &s, &split.train, &node_ops, &struct_ops, &factor);
                reference.backward();
                s.harvest();

                let tag = format!("{} at edge ratio {ratio}", m.name());
                let ref_loss = reference.value().as_slice()[0];
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{tag}: loss value");
                assert_grads_close(&m, &got, &grads(&m), &tag);
            }
        }
    }

    /// One accumulation group as the epoch loop ran it before the group
    /// shared one objective — a session, an embedding, both towers and
    /// the Eq. 23 term per micro-batch, each batch's `L + R`
    /// backpropagated alone at its share of the group's pairs — kept as
    /// the reference [`Ahntp::group_gradient`] is checked against. Returns
    /// the gradients summed over the batches in plan order, and each
    /// batch's `(pairs, loss)`. A one-batch group leaves its gradient on
    /// the parameters, as the production path does.
    fn per_batch_forward_group(
        m: &mut Ahntp,
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
        smooth: Option<&Rc<SmoothnessFactor>>,
        group: &[Vec<LabeledPair>],
    ) -> (Vec<Option<Tensor>>, Vec<(usize, f32)>) {
        let group_pairs: usize = group.iter().map(Vec::len).sum();
        let mut sum: Vec<Option<Tensor>> = vec![None; m.parameters().len()];
        let mut losses = Vec::new();
        for batch in group {
            m.optimizer.zero_grad();
            let s = Session::new();
            let (trustor, trustee) = m.group_forward(&s, node_ops, struct_ops);
            let mut loss = m.pair_loss(&s, batch, &trustor, &trustee);
            if let Some(factor) = smooth {
                loss = loss.add(&m.smoothness_term(&s, factor, &trustor));
            }
            losses.push((batch.len(), loss.value().as_slice()[0]));
            let objective = if group.len() == 1 {
                loss
            } else {
                loss.scale(batch.len() as f32 / group_pairs as f32)
            };
            objective.backward();
            s.harvest();
            for (acc, g) in sum.iter_mut().zip(grads(m)) {
                match (acc.as_mut(), g) {
                    (Some(acc), Some(g)) => acc.axpy_inplace(1.0, &g),
                    (None, g) => *acc = g,
                    (Some(_), None) => {}
                }
            }
        }
        (sum, losses)
    }

    /// A batch size that leaves the last batch short, and the last
    /// accumulation group short of 2 and of 3 batches.
    fn ragged_batch_size(n: usize) -> usize {
        (48..)
            .find(|&b| !n.is_multiple_of(b) && matches!(n.div_ceil(b) % 6, 1 | 5))
            .expect("some batch size leaves ragged groups")
    }

    fn four_variants() -> [AhntpConfig; 4] {
        [
            tiny_config(),
            tiny_config().no_mpr(),
            tiny_config().no_attention(),
            tiny_config().no_contrastive(),
        ]
    }

    /// At accumulation 1 every group is one batch, and its shared forward
    /// and objective are the batch's own tape: three sampled epochs land
    /// on the reference's losses and parameters bit for bit.
    #[test]
    fn a_group_shared_forward_trains_bitwise_like_a_forward_per_batch() {
        use ahntp_data::MiniBatchConfig;
        let (ds, split) = tiny_setup();
        let mb = MiniBatchConfig::sampled(0.5, ragged_batch_size(split.train.len()), 1, 11);
        for cfg in four_variants() {
            let mut shared = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
            let mut reference = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
            for epoch in 0..3 {
                let plan = BatchPlan::for_epoch(&split.train, &mb, epoch);
                let tag = format!("{} at epoch {epoch}", cfg.variant);
                assert!(plan.n_batches() > 3, "{tag}: several groups");
                let l_shared = shared.train_epoch_planned(&plan);
                let (node_ops, struct_ops, smooth) = reference.sampled_operators(&plan);
                let mut batch_losses = Vec::new();
                for batch in &plan.batches {
                    let group = std::slice::from_ref(batch);
                    let (_, losses) = per_batch_forward_group(
                        &mut reference,
                        &node_ops,
                        &struct_ops,
                        smooth.as_ref(),
                        group,
                    );
                    batch_losses.extend(losses);
                    reference.optimizer.step();
                }
                let l_ref = epoch_loss(&batch_losses);
                assert_eq!(l_shared.to_bits(), l_ref.to_bits(), "{tag}: epoch loss");
                for (p, q) in shared.parameters().iter().zip(reference.parameters()) {
                    let (a, b) = (p.value(), q.value());
                    assert!(
                        a.as_slice()
                            .iter()
                            .zip(b.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "{tag}: {} moved off the reference",
                        p.name()
                    );
                }
            }
        }
    }

    /// At accumulation 2 and 3 a group's one objective reorders the f32
    /// sums a tape per micro-batch makes (the batches' weighted gradients,
    /// and Eq. 23's once against once per batch at weights summing to 1),
    /// so every group's gradient — the ragged last one too — must be
    /// within `1e-5` of each parameter's max-norm of the reference's. The
    /// per-batch losses are forward values, added the same way on both
    /// sides: they, and the group's pair-weighted loss, must agree to
    /// relative tolerance 0. The worst gradient ratio goes to stderr, so
    /// `--nocapture` reads the margin to the bound.
    #[test]
    fn a_group_objective_matches_a_tape_per_micro_batch() {
        use ahntp_data::MiniBatchConfig;
        let (ds, split) = tiny_setup();
        let batch_size = ragged_batch_size(split.train.len());
        let mut worst = (String::new(), 0.0f32);
        for cfg in four_variants() {
            assert!(
                cfg.smoothness_weight > 0.0,
                "Eq. 23 must be in the objective"
            );
            let mut m = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
            // Off the initialisation point (unit edge weights, zero biases).
            m.train_epoch(&split.train);
            for accumulation in 2..=3 {
                let mb = MiniBatchConfig::sampled(0.5, batch_size, accumulation, 11);
                let plan = BatchPlan::for_epoch(&split.train, &mb, 1);
                let (node_ops, struct_ops, smooth) = m.sampled_operators(&plan);
                let groups: Vec<_> = plan.batches.chunks(accumulation).collect();
                let last = groups.last().expect("a plan has a group");
                assert!(groups.len() > 2, "several groups");
                assert!(last.len() < accumulation, "a ragged last group");
                assert_ne!(
                    last[last.len() - 1].len(),
                    batch_size,
                    "a ragged last batch"
                );
                for (g, group) in groups.into_iter().enumerate() {
                    let tag = format!("{} at accumulation {accumulation}, group {g}", cfg.variant);
                    m.optimizer.zero_grad();
                    let losses = m.group_gradient(&node_ops, &struct_ops, smooth.as_ref(), group);
                    let got = grads(&m);
                    let (reference, ref_losses) = per_batch_forward_group(
                        &mut m,
                        &node_ops,
                        &struct_ops,
                        smooth.as_ref(),
                        group,
                    );
                    let (param, ratio) = assert_grads_close(&m, &got, &reference, &tag);
                    if ratio > worst.1 {
                        worst = (format!("{tag}, {param}"), ratio);
                    }
                    let bits = |l: &[(usize, f32)]| {
                        l.iter().map(|&(n, v)| (n, v.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(bits(&losses), bits(&ref_losses), "{tag}: batch losses");
                    assert_eq!(
                        epoch_loss(&losses).to_bits(),
                        epoch_loss(&ref_losses).to_bits(),
                        "{tag}: group loss"
                    );
                }
            }
        }
        eprintln!(
            "worst group gradient: {}, ratio {:e} (bound 1e-5)",
            worst.0, worst.1
        );
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_features_rejected() {
        let (ds, split) = tiny_setup();
        let bad = Tensor::zeros(10, ds.features.cols());
        Ahntp::new(&bad, &ds.attributes, &split.train_graph, &tiny_config());
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use ahntp_data::{DatasetConfig, TrustDataset};

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let cfg = AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            ..AhntpConfig::default()
        };
        let mut trained = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        for _ in 0..3 {
            trained.train_epoch(&split.train);
        }
        let blob = trained.save();
        // A fresh model with a different seed predicts differently…
        let mut fresh_cfg = cfg.clone();
        fresh_cfg.seed ^= 0xffff;
        let fresh = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &fresh_cfg);
        assert_ne!(fresh.predict(&split.test), trained.predict(&split.test));
        // …until the checkpoint is loaded.
        fresh.load(&blob).expect("same architecture");
        assert_eq!(fresh.predict(&split.test), trained.predict(&split.test));
        assert!(!trained.parameters().is_empty());
    }

    #[test]
    fn train_state_roundtrip_restores_trajectory_and_gates_the_seed() {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let cfg = AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            ..AhntpConfig::default()
        };
        let mut a = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        let mut b = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        let mut losses = Vec::new();
        for _ in 0..2 {
            losses.push(a.train_epoch(&split.train));
            b.train_epoch(&split.train);
        }
        // Checkpoint `a` after epoch 2, restore into an *untrained* twin,
        // run one more epoch on both: bitwise-identical losses and
        // predictions (Adam moments travelled with the state).
        let progress = TrainProgress {
            epochs_done: 2,
            best_loss: losses[1],
            stale: 0,
            epoch_losses: losses.clone(),
        };
        let blob = a.encode_train_state(&progress);
        let mut fresh = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        let restored = fresh.decode_train_state(&blob).expect("same config");
        assert_eq!(restored, progress);
        let la = a.train_epoch(&split.train);
        let lb = b.train_epoch(&split.train);
        let lf = fresh.train_epoch(&split.train);
        assert_eq!(la.to_bits(), lb.to_bits(), "twin runs agree");
        assert_eq!(
            la.to_bits(),
            lf.to_bits(),
            "resumed epoch must be bitwise identical"
        );
        assert_eq!(a.predict(&split.test), fresh.predict(&split.test));

        // A different sampler seed refuses the state.
        let mut other_cfg = cfg.clone();
        other_cfg.seed ^= 0x77;
        let mut other = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &other_cfg);
        let err = other.decode_train_state(&blob).unwrap_err();
        assert!(err.contains("seed"), "{err}");

        // Corruption is caught by the CRC seal.
        let mut bad = blob.clone();
        bad[20] ^= 0x10;
        let mut victim = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        let err = victim.decode_train_state(&bad).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn load_rejects_different_architecture() {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let small = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &AhntpConfig {
                conv_dims: vec![16, 8],
                tower_dims: vec![8],
                ..AhntpConfig::default()
            },
        );
        let wide = Ahntp::new(
            &ds.features,
            &ds.attributes,
            &split.train_graph,
            &AhntpConfig {
                conv_dims: vec![32, 8],
                tower_dims: vec![8],
                ..AhntpConfig::default()
            },
        );
        assert_ne!(
            small.architecture_fingerprint(),
            wide.architecture_fingerprint()
        );
        match wide.load(&small.save()) {
            Err(ahntp_nn::CheckpointError::WrongArchitecture { expected, found }) => {
                assert_eq!(expected, wide.architecture_fingerprint());
                assert_eq!(found, small.architecture_fingerprint());
            }
            other => panic!("expected WrongArchitecture, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod live_tests {
    use super::*;
    use ahntp_data::{DatasetConfig, TrustDataset};

    fn tiny_config() -> AhntpConfig {
        AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            ..AhntpConfig::default()
        }
    }

    fn trained(cfg: &AhntpConfig) -> Ahntp {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, cfg);
        for _ in 0..2 {
            model.train_epoch(&split.train);
        }
        model
    }

    fn trained_model() -> Ahntp {
        trained(&tiny_config())
    }

    /// Folds `patch` into the flat head matrices of `artifact`.
    fn apply_patch(artifact: &mut TrustArtifact, patch: &HeadPatch) {
        patch.check().expect("well-formed patch");
        for (k, &u) in patch.users.iter().enumerate() {
            let (ed, hd) = (patch.emb_dim, patch.head_dim);
            artifact.embeddings.to_mut()[u * ed..(u + 1) * ed]
                .copy_from_slice(&patch.emb_rows[k * ed..(k + 1) * ed]);
            artifact.trustor_head.to_mut()[u * hd..(u + 1) * hd]
                .copy_from_slice(&patch.trustor_rows[k * hd..(k + 1) * hd]);
            artifact.trustee_head.to_mut()[u * hd..(u + 1) * hd]
                .copy_from_slice(&patch.trustee_rows[k * hd..(k + 1) * hd]);
        }
    }

    fn assert_artifacts_bitwise(live: &TrustArtifact, oracle: &TrustArtifact, what: &str) {
        for (name, a, b) in [
            ("embeddings", &live.embeddings, &oracle.embeddings),
            ("trustor_head", &live.trustor_head, &oracle.trustor_head),
            ("trustee_head", &live.trustee_head, &oracle.trustee_head),
        ] {
            assert_eq!(a.len(), b.len(), "{what}: {name} length");
            for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: {name}[{i}] live {x} vs rebuilt {y}"
                );
            }
        }
    }

    #[test]
    fn live_mutations_patch_to_the_rebuilt_artifact() {
        let events = [
            TrustEvent::AddEdge {
                group: HyperGroup::Node,
                members: vec![3, 9, 21],
                weight: 1.4,
            },
            TrustEvent::RemoveEdge {
                group: HyperGroup::Structure,
                edge: 0,
            },
            TrustEvent::ReweightEdge {
                group: HyperGroup::Node,
                edge: 2,
                weight: 0.6,
            },
            TrustEvent::AddEdge {
                group: HyperGroup::Structure,
                members: vec![0, 44],
                weight: 0.8,
            },
            TrustEvent::Decay { factor: 0.93 },
            TrustEvent::RemoveEdge {
                group: HyperGroup::Node,
                edge: 5,
            },
        ];
        // `noatt` runs the plain layer, the other three the adaptive one.
        for cfg in [
            tiny_config(),
            tiny_config().no_mpr(),
            tiny_config().no_attention(),
            tiny_config().no_contrastive(),
        ] {
            let mut model = trained(&cfg);
            let mut artifact = Ahntp::export_artifact(&model);
            for (i, event) in events.iter().enumerate() {
                let what = format!("{} event {i} ({})", model.name(), event.op());
                let applied = model.apply_event(event).expect("valid event");
                let patch = model.refresh_heads(&applied.affected_users);
                apply_patch(&mut artifact, &patch);
                let oracle = model.rebuild_artifact();
                assert_artifacts_bitwise(&artifact, &oracle, &what);
                // The in-place patched head cache agrees with the oracle too.
                assert_artifacts_bitwise(&Ahntp::export_artifact(&model), &oracle, &what);
            }
        }
    }

    /// Asserts two matrices equal in shape and in every bit.
    fn assert_bits(live: &Tensor, fresh: &Tensor, what: &str) {
        assert_eq!(live.shape(), fresh.shape(), "{what}: shape");
        for (i, (x, y)) in live.as_slice().iter().zip(fresh.as_slice()).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}[{i}]: live {x} vs fresh {y}"
            );
        }
    }

    /// Asserts every matrix the cached head keeps — each tier's
    /// activations, projections and hyperedge features, the embedding and
    /// both towers —
    /// equals a fresh full forward's bit for bit, with nothing pending.
    fn assert_head_is_a_fresh_forward(model: &Ahntp, what: &str) {
        let cache = model.head_cache.borrow();
        let live = cache.as_ref().expect("the head is cached");
        let fresh = model.forward_head();
        for t in 0..2 {
            assert!(
                live.seeds[t].is_empty() && live.added[t].is_empty(),
                "{what}: pending"
            );
            assert_eq!(live.layers[t].len(), fresh.layers[t].len());
            for (l, (a, b)) in live.layers[t].iter().zip(&fresh.layers[t]).enumerate() {
                assert_bits(a, b, &format!("{what}: tier {t} x^{l}"));
            }
            assert_eq!(live.projections[t].len(), fresh.projections[t].len());
            for (l, (a, b)) in live.projections[t]
                .iter()
                .zip(&fresh.projections[t])
                .enumerate()
            {
                assert_bits(a, b, &format!("{what}: tier {t} x^{l} θ"));
            }
            assert_eq!(live.edges[t].len(), fresh.edges[t].len());
            for (l, (a, b)) in live.edges[t].iter().zip(&fresh.edges[t]).enumerate() {
                assert_bits(a, b, &format!("{what}: tier {t} layer {l} h_e"));
            }
        }
        assert_bits(&live.emb, &fresh.emb, &format!("{what}: emb"));
        assert_bits(&live.trustor, &fresh.trustor, &format!("{what}: trustor"));
        assert_bits(&live.trustee, &fresh.trustee, &format!("{what}: trustee"));
    }

    #[test]
    fn the_cached_activations_and_hyperedge_features_stay_a_fresh_forward() {
        let (m_node, m_struct) = trained_model().hyperedge_counts();
        let add = |group, members: &[usize]| TrustEvent::AddEdge {
            group,
            members: members.to_vec(),
            weight: 1.1,
        };
        let remove = |group, edge| TrustEvent::RemoveEdge { group, edge };
        let events = [
            add(HyperGroup::Node, &[3, 9, 21]),
            // Renames the edge just added into slot 0.
            remove(HyperGroup::Node, 0),
            TrustEvent::ReweightEdge {
                group: HyperGroup::Structure,
                edge: 2,
                weight: 0.6,
            },
            add(HyperGroup::Structure, &[0, 44]),
            add(HyperGroup::Structure, &[5, 17, 60]),
            // Removes the first of the two, renaming the second into it.
            remove(HyperGroup::Structure, m_struct),
            TrustEvent::Decay { factor: 0.93 },
            remove(HyperGroup::Node, 5),
            add(HyperGroup::Node, &[1, 2]),
            // Removes the last edge, the one just added: nothing renamed.
            remove(HyperGroup::Node, m_node - 1),
        ];
        for cfg in [
            tiny_config(),
            tiny_config().no_mpr(),
            tiny_config().no_attention(),
            tiny_config().no_contrastive(),
        ] {
            // One refresh per event, then per three: a batch leaves added
            // edges pending across the removals that rename them.
            for batch in [1, 3] {
                let mut model = trained(&cfg);
                Ahntp::export_artifact(&model);
                for (k, chunk) in events.chunks(batch).enumerate() {
                    let mut users = Vec::new();
                    for event in chunk {
                        users.extend(
                            model
                                .apply_event(event)
                                .expect("valid event")
                                .affected_users,
                        );
                    }
                    users.sort_unstable();
                    users.dedup();
                    model.refresh_heads(&users);
                    let what = format!("{} batch {batch} refresh {k}", model.name());
                    assert_head_is_a_fresh_forward(&model, &what);
                }
            }
        }
    }

    /// The value of counter `name` after `f`, counted in a context of its
    /// own.
    fn counted(name: &str, f: impl FnOnce()) -> u64 {
        ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_enabled(true);
            f();
            ahntp_telemetry::counter_get(name)
        })
    }

    #[test]
    fn a_pair_add_recomputes_its_own_row_then_the_rows_around_its_seeds() {
        let one_layer = AhntpConfig {
            conv_dims: vec![8],
            ..tiny_config()
        };
        for group in [HyperGroup::Node, HyperGroup::Structure] {
            for cfg in [&one_layer, &tiny_config()] {
                let mut model = trained(cfg);
                Ahntp::export_artifact(&model);
                let event = TrustEvent::AddEdge {
                    group,
                    members: vec![3, 9],
                    weight: 1.0,
                };
                let applied = model.apply_event(&event).expect("valid event");
                let rows = counted("core.refresh.edge_rows", || {
                    model.refresh_heads(&applied.affected_users);
                });
                // Layer 0 recomputes the added hyperedge alone; layer 1 the
                // hyperedges incident to its two members, itself included.
                let expected = match cfg.conv_dims.len() {
                    1 => 1,
                    _ => 1 + model.tier(group).0.incident_edges(&[3, 9]).len() as u64,
                };
                assert_eq!(rows, expected, "{} over {:?}", group.name(), cfg.conv_dims);
            }
        }
    }

    #[test]
    fn a_traced_refresh_shows_its_walks_and_row_builds() {
        use ahntp_telemetry::json::Json;
        let mut model = trained_model();
        Ahntp::export_artifact(&model);
        let event = TrustEvent::AddEdge {
            group: HyperGroup::Structure,
            members: vec![3, 9],
            weight: 1.0,
        };
        let applied = model.apply_event(&event).expect("valid event");
        let spans = ahntp_par::Context::fresh().run(|| {
            ahntp_telemetry::set_trace_collect(true);
            model.refresh_heads(&applied.affected_users);
            let trace = ahntp_telemetry::chrome_trace_json();
            let Some(Json::Arr(events)) = trace.get("traceEvents") else {
                panic!("a Chrome trace document has a traceEvents array");
            };
            let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).map(str::to_owned);
            let mut spans: Vec<(String, String)> = events
                .iter()
                .filter_map(|e| Some((field(e, "name")?, field(e, "cat")?)))
                .filter(|(name, _)| name.starts_with("hypergraph."))
                .collect();
            spans.dedup();
            spans
        });
        // Layer 0 reads the added edge's rows and the seeds' vertex rows;
        // layer 1 walks one hop, then reads both kinds of rows again.
        let [cone, rows] = [
            ("hypergraph.cone", "other"),
            ("hypergraph.rows", "cache_build"),
        ]
        .map(|(name, cat)| (name.to_owned(), cat.to_owned()));
        assert_eq!(
            spans,
            [cone.clone(), rows.clone(), cone, rows],
            "the refresh's bookkeeping spans, in order"
        );
    }

    #[test]
    fn a_refresh_after_one_pair_add_costs_under_half_a_rebuild() {
        for group in [HyperGroup::Node, HyperGroup::Structure] {
            let mut model = trained_model();
            Ahntp::export_artifact(&model);
            let event = TrustEvent::AddEdge {
                group,
                members: vec![3, 9],
                weight: 1.0,
            };
            let applied = model.apply_event(&event).expect("valid event");
            let refresh = counted("tensor.matmul.flops", || {
                model.refresh_heads(&applied.affected_users);
            });
            let rebuild = counted("tensor.matmul.flops", || {
                model.rebuild_artifact();
            });
            assert!(
                refresh > 0 && 2 * refresh < rebuild,
                "{}: a refresh did {refresh} FLOPs against a rebuild's {rebuild}",
                group.name()
            );
        }
    }

    #[test]
    fn a_refresh_after_the_head_was_dropped_lands_on_the_rebuild() {
        let mut model = trained_model();
        Ahntp::export_artifact(&model);
        let applied = model
            .apply_event(&TrustEvent::AddEdge {
                group: HyperGroup::Structure,
                members: vec![5, 17, 60],
                weight: 1.2,
            })
            .expect("valid event");
        // Reloading the model's own parameters drops the head cache with
        // the event's seeds still pending in it.
        model.load(&model.save()).expect("same architecture");
        model.refresh_heads(&applied.affected_users);
        let oracle = model.rebuild_artifact();
        assert_artifacts_bitwise(&Ahntp::export_artifact(&model), &oracle, "after load");
        let buffer = |m: &Ahntp| {
            let cache = m.head_cache.borrow();
            let head = cache.as_ref().expect("refresh built the head");
            assert!(head.seeds.iter().all(Vec::is_empty), "seeds left pending");
            head.layers[1][0].as_slice().as_ptr()
        };
        let before = buffer(&model);
        let applied = model
            .apply_event(&TrustEvent::RemoveEdge {
                group: HyperGroup::Node,
                edge: 1,
            })
            .expect("valid event");
        model.refresh_heads(&applied.affected_users);
        // The walk patched the cache where it lies: a clone would have
        // moved every buffer.
        assert_eq!(buffer(&model), before, "the refresh cloned the head cache");
        let oracle = model.rebuild_artifact();
        assert_artifacts_bitwise(&Ahntp::export_artifact(&model), &oracle, "after a remove");
    }

    #[test]
    fn weight_only_events_affect_no_heads_and_keep_training_alive() {
        let mut model = trained_model();
        let before = Ahntp::export_artifact(&model);
        for event in [
            TrustEvent::ReweightEdge {
                group: HyperGroup::Structure,
                edge: 1,
                weight: 2.5,
            },
            TrustEvent::Decay { factor: 0.9 },
        ] {
            let applied = model.apply_event(&event).expect("valid event");
            assert!(applied.affected_users.is_empty(), "{}", event.op());
        }
        // Heads are untouched bitwise.
        let after = Ahntp::export_artifact(&model);
        assert_eq!(before.trustor_head, after.trustor_head);
        assert_eq!(before.trustee_head, after.trustee_head);
        // Weight-only streams keep the model trainable (the smoothness
        // cache was mirrored).
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let loss = model.train_epoch(&split.train);
        assert!(loss.is_finite());
    }

    #[test]
    fn invalid_events_leave_the_model_untouched() {
        let mut model = trained_model();
        let before = Ahntp::export_artifact(&model);
        let (m_node, m_struct) = model.hyperedge_counts();
        for event in [
            TrustEvent::RemoveEdge {
                group: HyperGroup::Node,
                edge: m_node + 7,
            },
            TrustEvent::ReweightEdge {
                group: HyperGroup::Structure,
                edge: m_struct,
                weight: 1.0,
            },
            TrustEvent::AddEdge {
                group: HyperGroup::Node,
                members: vec![0, 1],
                weight: f32::NAN,
            },
            TrustEvent::Decay { factor: -1.0 },
        ] {
            let err = model.apply_event(&event).unwrap_err();
            assert!(matches!(err, StreamError::Hypergraph(_)), "{err}");
        }
        assert_eq!(model.hyperedge_counts(), (m_node, m_struct));
        let after = model.rebuild_artifact();
        assert_eq!(before.trustor_head, after.trustor_head);
        // Failed events never forbid training.
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        assert!(model.train_epoch(&split.train).is_finite());
    }

    #[test]
    #[should_panic(expected = "structure was mutated")]
    fn training_after_structural_mutation_is_refused() {
        let ds = TrustDataset::generate(&DatasetConfig::ciao_like(80, 5));
        let split = ds.split(0.8, 0.2, 2, 42);
        let cfg = AhntpConfig {
            conv_dims: vec![16, 8],
            tower_dims: vec![8],
            ..AhntpConfig::default()
        };
        let mut model = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        model
            .apply_event(&TrustEvent::AddEdge {
                group: HyperGroup::Node,
                members: vec![1, 2],
                weight: 1.0,
            })
            .expect("valid event");
        model.train_epoch(&split.train);
    }
}

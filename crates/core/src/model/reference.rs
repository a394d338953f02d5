//! An independent `f64` reference of the training objective: the arbiter
//! for any change that moves f32 rounding on purpose.
//!
//! [`Reference::objective`] evaluates one accumulation group's objective
//! `Σᵢ (nᵢ / N)·Lᵢ + R` from the paper's equations in plain `f64` loops
//! over `Vec<f64>`:
//!
//! * per tier, the hypergroup MLP and the convolution stack — Eqs. 10–13,
//!   plus the attention of Eqs. 14–16 unless `AHNTP_noatt` — over the
//!   kept hyperedges, each vertex averaging over the kept edges it sees;
//! * the two towers (Eqs. 17–18) on the concatenated embedding and the
//!   cosine head (Eq. 19);
//! * the class-balanced BCE (Eq. 21) and, unless `AHNTP_nocon`, the
//!   supervised contrastive term (Eqs. 20, 22);
//! * Eq. 23 on the trustor tower, `f · Δf` with the Laplacian of Eq. 24
//!   assembled from triplets over the kept hyperedges of both tiers.
//!
//! The model's own crates are only read from: parameter values by name,
//! the centred features, and the tier hypergraphs' member lists and
//! weights. The gradient is central differences of that function. The
//! tests check the f32 loss and the f32 gradient of
//! [`Ahntp::group_gradient`] against it, for all four variants, at full
//! batch and on a sampled two-batch group.

use super::*;
use ahntp_data::{DatasetConfig, MiniBatchConfig, TrustDataset};
use ahntp_tensor::Shape;
use std::collections::HashMap;

/// Largest `|L32 − L64| / |L64|` the f32 group loss may show. Fixed
/// against the arithmetic the reference was written for, whose worst case
/// over the test's eight cases read 3.9e-7.
const LOSS_TOL: f64 = 1e-5;

/// Largest `|g32 − g64|` per sampled coordinate, relative to the max-norm
/// of that parameter's f32 gradient. The same arithmetic's worst case read
/// 3.2e-6.
const GRAD_TOL: f64 = 5e-5;

/// Central-difference step.
const STEP: f64 = 1e-5;

/// Largest disagreement, relative to the max-norm, between the slopes at
/// `STEP` and `STEP / 10` of a coordinate that is checked; a larger one
/// means a kink lies within the step. The slope at `STEP / 10` is the one
/// compared.
const KINK: f64 = 2e-6;

/// Eq. 14's LeakyReLU slope (the GAT convention the paper follows).
const ATTENTION_SLOPE: f64 = 0.2;

/// A dense row-major `f64` matrix.
#[derive(Clone)]
struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A tensor's values; a vector reads as one column.
    fn of(t: &Tensor) -> Mat {
        let (rows, cols) = match t.shape() {
            Shape::Vector(n) => (n, 1),
            Shape::Matrix(r, c) => (r, c),
        };
        Mat {
            rows,
            cols,
            data: t.as_slice().iter().map(|&v| f64::from(v)).collect(),
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "reference matmul: inner widths");
        let mut out = Mat::zeros(self.rows, b.cols);
        for i in 0..self.rows {
            for (k, &a) in self.row(i).iter().enumerate() {
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += a * bv;
                }
            }
        }
        out
    }

    fn add(mut self, b: &Mat) -> Mat {
        for (a, &bv) in self.data.iter_mut().zip(&b.data) {
            *a += bv;
        }
        self
    }

    fn add_bias(mut self, bias: &Mat) -> Mat {
        for i in 0..self.rows {
            for (a, &bv) in self.row_mut(i).iter_mut().zip(&bias.data) {
                *a += bv;
            }
        }
        self
    }

    fn relu(mut self) -> Mat {
        self.data.iter_mut().for_each(|v| *v = v.max(0.0));
        self
    }

    fn concat_cols(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows, a.cols + b.cols);
        for i in 0..a.rows {
            out.row_mut(i)[..a.cols].copy_from_slice(a.row(i));
            out.row_mut(i)[a.cols..].copy_from_slice(b.row(i));
        }
        out
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `ln(max(x, ε))` with the loss crate's floor.
fn ln_eps(x: f64) -> f64 {
    x.max(f64::from(1e-7f32)).ln()
}

/// One tier's kept hyperedges and, per vertex, the kept edges it sees.
struct Tier {
    prefix: &'static str,
    mlp: &'static str,
    /// `(global id, members, weight)` per kept hyperedge, ascending ids.
    edges: Vec<(usize, Vec<usize>, f64)>,
    /// Per vertex, the local index of every kept edge containing it.
    incident: Vec<Vec<usize>>,
}

impl Tier {
    fn new(prefix: &'static str, mlp: &'static str, h: &Hypergraph, kept: &[usize]) -> Tier {
        let edges: Vec<_> = kept
            .iter()
            .map(|&e| (e, h.edge(e).to_vec(), f64::from(h.weights()[e])))
            .collect();
        let mut incident = vec![Vec::new(); h.n_vertices()];
        for (j, (_, members, _)) in edges.iter().enumerate() {
            for &v in members {
                incident[v].push(j);
            }
        }
        Tier {
            prefix,
            mlp,
            edges,
            incident,
        }
    }
}

/// The objective of one accumulation group, in `f64`.
struct Reference {
    variant: AhntpVariant,
    depth: usize,
    temperature: f64,
    lambdas: (f64, f64),
    /// `smoothness_weight / n`.
    smooth_weight: f64,
    features: Mat,
    tiers: [Tier; 2],
    /// `Δ` of Eq. 24 over the kept hyperedges of both tiers, dense.
    laplacian: Mat,
    group: Vec<Vec<LabeledPair>>,
}

impl Reference {
    /// The reference for `group` over the hyperedges `ops` keep per tier
    /// (`edge_ids`, or every edge).
    fn new(
        m: &Ahntp,
        node_ops: &AggregationOps,
        struct_ops: &AggregationOps,
        group: &[Vec<LabeledPair>],
    ) -> Reference {
        let kept = |ops: &AggregationOps, cache: &AggregationCache| match &ops.edge_ids {
            Some(ids) => ids.to_vec(),
            None => (0..cache.n_edges()).collect::<Vec<_>>(),
        };
        let tiers = [
            Tier::new(
                "node",
                "node_mlp",
                m.node_cache.hypergraph(),
                &kept(node_ops, &m.node_cache),
            ),
            Tier::new(
                "struct",
                "struct_mlp",
                m.struct_cache.hypergraph(),
                &kept(struct_ops, &m.struct_cache),
            ),
        ];
        let n = m.features.rows();
        Reference {
            variant: m.cfg.variant,
            depth: m.cfg.conv_dims.len(),
            temperature: f64::from(m.cfg.temperature),
            lambdas: (f64::from(m.cfg.lambda1), f64::from(m.cfg.lambda2)),
            smooth_weight: f64::from(m.cfg.smoothness_weight) / n as f64,
            features: Mat::of(&m.features),
            laplacian: Self::laplacian(n, &tiers),
            tiers,
            group: group.to_vec(),
        }
    }

    /// `Δ = I − D_v^{-1/2} H W D_e^{-1} Hᵀ D_v^{-1/2}` (Eq. 24) from the
    /// triplets `(u, v, w_e / (|e| √(d_u d_v)))` of every kept hyperedge
    /// `e ∋ u, v`; a vertex no kept edge reaches keeps its identity row.
    fn laplacian(n: usize, tiers: &[Tier; 2]) -> Mat {
        let edges = || tiers.iter().flat_map(|t| &t.edges);
        let mut degree = vec![0.0f64; n];
        for (_, members, w) in edges() {
            members.iter().for_each(|&v| degree[v] += w);
        }
        let mut triplets = Vec::new();
        for (_, members, w) in edges() {
            let scale = w / members.len() as f64;
            for &u in members {
                for &v in members {
                    triplets.push((u, v, scale / (degree[u] * degree[v]).sqrt()));
                }
            }
        }
        let mut lap = Mat::zeros(n, n);
        (0..n).for_each(|v| lap.data[v * n + v] = 1.0);
        for (u, v, x) in triplets {
            lap.data[u * n + v] -= x;
        }
        lap
    }

    fn mlp(p: &HashMap<String, Mat>, name: &str, x: &Mat, relu_output: bool) -> Mat {
        let layers = (0..)
            .take_while(|i| p.contains_key(&format!("{name}.{i}.w")))
            .count();
        let mut h = x.clone();
        for i in 0..layers {
            h = h
                .matmul(&p[&format!("{name}.{i}.w")])
                .add_bias(&p[&format!("{name}.{i}.b")]);
            if i + 1 < layers || relu_output {
                h = h.relu();
            }
        }
        h
    }

    /// One convolution layer (Eqs. 10–13, and 14–16 when adaptive).
    fn conv(&self, p: &HashMap<String, Mat>, tier: &Tier, l: usize, x: &Mat) -> Mat {
        let name = format!("{}.conv{l}", tier.prefix);
        let (edge_w, theta) = (&p[&format!("{name}.edge_w")], &p[&format!("{name}.theta")]);
        // Eqs. 10–11: h_e = w_e · mean of the members.
        let mut h_e = Mat::zeros(tier.edges.len(), x.cols);
        for (j, (e, members, _)) in tier.edges.iter().enumerate() {
            let scale = edge_w.data[*e] / members.len() as f64;
            for &u in members {
                for (o, &xv) in h_e.row_mut(j).iter_mut().zip(x.row(u)) {
                    *o += scale * xv;
                }
            }
        }
        // Eq. 12: the mean over the kept incident edges.
        let mut mess = Mat::zeros(x.rows, x.cols);
        for (u, edges) in tier.incident.iter().enumerate() {
            for &j in edges {
                for (o, &hv) in mess.row_mut(u).iter_mut().zip(h_e.row(j)) {
                    *o += hv / edges.len() as f64;
                }
            }
        }
        // Eq. 13 with the self-term.
        let x_next = mess
            .matmul(theta)
            .add(&x.matmul(&p[&format!("{name}.theta_self")]))
            .relu();
        if self.variant == AhntpVariant::NoAttention {
            return x_next;
        }
        // Eq. 14: a_ie = LeakyReLU(β · [W x'_i ‖ W h_e θ]).
        let w = &p[&format!("{name}.w_att")];
        let (x_proj, e_proj) = (x_next.matmul(w), h_e.matmul(theta).matmul(w));
        let beta = &p[&format!("{name}.beta")].data;
        let (beta_x, beta_h) = beta.split_at(x_proj.cols);
        let mut out = x_proj.clone();
        for (u, edges) in tier.incident.iter().enumerate() {
            let scores: Vec<f64> = edges
                .iter()
                .map(|&j| {
                    let s = dot(x_proj.row(u), beta_x) + dot(e_proj.row(j), beta_h);
                    if s > 0.0 {
                        s
                    } else {
                        ATTENTION_SLOPE * s
                    }
                })
                .collect();
            // Eq. 15: softmax over the vertex's edges; Eq. 16: the
            // weighted sum plus the W x' self-term.
            let top = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = scores.iter().map(|s| (s - top).exp()).collect();
            let total: f64 = exps.iter().sum();
            for (&j, e) in edges.iter().zip(&exps) {
                for (o, &pv) in out.row_mut(u).iter_mut().zip(e_proj.row(j)) {
                    *o += e / total * pv;
                }
            }
        }
        out.relu()
    }

    /// `(trustor, trustee)` tower outputs for every user.
    fn towers(&self, p: &HashMap<String, Mat>) -> (Mat, Mat) {
        let [node, stru] = [&self.tiers[0], &self.tiers[1]].map(|tier| {
            let mut x = Self::mlp(p, tier.mlp, &self.features, true);
            for l in 0..self.depth {
                x = self.conv(p, tier, l, &x);
            }
            x
        });
        let emb = Mat::concat_cols(&node, &stru);
        (
            Self::mlp(p, "tower_a", &emb, false),
            Self::mlp(p, "tower_b", &emb, false),
        )
    }

    /// One micro-batch's trust objective (Eqs. 19–22).
    fn pair_loss(&self, trustor: &Mat, trustee: &Mat, pairs: &[LabeledPair]) -> f64 {
        let cs: Vec<f64> = pairs
            .iter()
            .map(|q| {
                let (a, b) = (trustor.row(q.trustor), trustee.row(q.trustee));
                let (na, nb) = (dot(a, a), dot(b, b));
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot(a, b) / (na.sqrt() * nb.sqrt())
                }
            })
            .collect();
        let n = pairs.len() as f64;
        let n_pos = pairs.iter().filter(|q| q.label).count() as f64;
        let (w_pos, w_neg) = if n_pos > 0.0 && n_pos < n {
            (n / (2.0 * n_pos), n / (2.0 * (n - n_pos)))
        } else {
            (1.0, 1.0)
        };
        let bce = -pairs
            .iter()
            .zip(&cs)
            .map(|(q, &c)| {
                let p = 1.0 / (1.0 + (-c / f64::from(COSINE_CALIBRATION)).exp());
                if q.label {
                    w_pos * ln_eps(p)
                } else {
                    w_neg * ln_eps(1.0 - p)
                }
            })
            .sum::<f64>()
            / n;
        if self.variant == AhntpVariant::NoContrastive {
            return bce;
        }
        let anchors = pairs.iter().map(|q| q.trustor).max().map_or(0, |a| a + 1);
        let (mut pos, mut all) = (vec![0.0f64; anchors], vec![0.0f64; anchors]);
        let (mut n_pos_of, mut n_neg_of) = (vec![0usize; anchors], vec![0usize; anchors]);
        for (q, &c) in pairs.iter().zip(&cs) {
            let e = (c / self.temperature).exp();
            all[q.trustor] += e;
            if q.label {
                pos[q.trustor] += e;
                n_pos_of[q.trustor] += 1;
            } else {
                n_neg_of[q.trustor] += 1;
            }
        }
        let valid: Vec<bool> = (0..anchors)
            .map(|a| n_pos_of[a] > 0 && n_neg_of[a] > 0)
            .collect();
        let n_valid = valid.iter().filter(|&&v| v).count().max(1) as f64;
        let contrastive = -(0..anchors)
            .filter(|&a| valid[a])
            .map(|a| (ln_eps(pos[a]) - ln_eps(all[a])) / n_valid)
            .sum::<f64>();
        self.lambdas.0 * contrastive + self.lambdas.1 * bce
    }

    /// Eq. 23's term on `f`: `weight · Σ f ⊙ Δf`.
    fn smoothness(&self, f: &Mat) -> f64 {
        let lf = self.laplacian.matmul(f);
        self.smooth_weight * dot(&f.data, &lf.data)
    }

    /// `Σᵢ (nᵢ / N)·Lᵢ + R` under the parameters `p`.
    fn objective(&self, p: &HashMap<String, Mat>) -> f64 {
        let (trustor, trustee) = self.towers(p);
        let total: usize = self.group.iter().map(Vec::len).sum();
        let trust: f64 = self
            .group
            .iter()
            .map(|b| b.len() as f64 / total as f64 * self.pair_loss(&trustor, &trustee, b))
            .sum();
        trust + self.smoothness(&trustor)
    }
}

fn params_f64(m: &Ahntp) -> HashMap<String, Mat> {
    m.parameters()
        .iter()
        .map(|p| (p.name().to_string(), Mat::of(&p.value())))
        .collect()
}

/// A few coordinates of a parameter with `len` entries: the first, the
/// last and two spread between.
fn sampled_coordinates(len: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = [0, len / 3, (2 * len) / 3 + 1, len - 1]
        .into_iter()
        .map(|i| i.min(len - 1))
        .collect();
    idx.sort_unstable();
    idx.dedup();
    idx
}

/// Checks the f32 group objective against the reference, for `group` over
/// `plan`'s operators: returns the loss's relative error, the worst
/// gradient coordinate's, and how many coordinates sat at a kink.
fn check_group(
    m: &mut Ahntp,
    plan: &BatchPlan,
    group: &[Vec<LabeledPair>],
    tag: &str,
) -> (f64, f64, usize) {
    let (node_ops, struct_ops, smooth) = m.sampled_operators(plan);
    m.optimizer.zero_grad();
    let losses = m.group_gradient(&node_ops, &struct_ops, smooth.as_ref(), group);
    let loss32 = f64::from(epoch_loss(&losses));
    let reference = Reference::new(m, &node_ops, &struct_ops, group);
    let mut p = params_f64(m);
    let loss64 = reference.objective(&p);
    let loss_err = (loss32 - loss64).abs() / loss64.abs();
    assert!(
        loss_err <= LOSS_TOL,
        "{tag}: f32 loss {loss32} against the f64 reference {loss64} (relative {loss_err:e})"
    );
    let (mut worst, mut checked, mut near_kinks) = (0.0f64, 0usize, Vec::new());
    for param in m.parameters() {
        let name = param.name().to_string();
        let g32 = param
            .grad()
            .unwrap_or_else(|| panic!("{tag}: {name} received no gradient"));
        let scale = g32
            .as_slice()
            .iter()
            .fold(0.0f64, |s, &g| s.max(f64::from(g).abs()));
        for i in sampled_coordinates(g32.len()) {
            let x = p[&name].data[i];
            let mut at = |v: f64| {
                p.get_mut(&name).expect("named").data[i] = v;
                reference.objective(&p)
            };
            let [coarse, g64] = [STEP, STEP / 10.0].map(|h| (at(x + h) - at(x - h)) / (2.0 * h));
            at(x);
            checked += 1;
            if (coarse - g64).abs() > KINK * scale.max(g64.abs()) {
                // A ReLU corner within a step: the two slopes are not one
                // derivative, so there is nothing to compare.
                near_kinks.push(format!("{name}[{i}]"));
                continue;
            }
            let err = (f64::from(g32.as_slice()[i]) - g64).abs();
            if scale == 0.0 {
                assert!(g64.abs() < 1e-9, "{tag}: {name}[{i}] is {g64}, f32 says 0");
                continue;
            }
            let rel = err / scale;
            assert!(
                rel <= GRAD_TOL,
                "{tag}: {name}[{i}] f32 {} against f64 {g64} (relative to max-norm {scale:e}: {rel:e})",
                g32.as_slice()[i]
            );
            worst = worst.max(rel);
        }
    }
    assert!(
        near_kinks.len() * 10 <= checked,
        "{tag}: {} of {checked} coordinates sit next to a kink: {near_kinks:?}",
        near_kinks.len()
    );
    (loss_err, worst, near_kinks.len())
}

/// Replaces the unit edge weights and zero biases of the initialisation
/// with fixed values in `[0.5, 1.5)` and `[-0.25, 0.25)`, so that no
/// weight is special and no tower row sits near zero (where the cosine
/// head bends sharply). Nothing here depends on f32 training arithmetic.
fn move_off_the_initialisation(m: &Ahntp) {
    for (k, p) in m.parameters().iter().enumerate() {
        let (base, spread) = if p.name().ends_with(".edge_w") {
            (0.5, 1.0)
        } else if p.name().ends_with(".b") {
            (-0.25, 0.5)
        } else {
            continue;
        };
        let mut v = p.value();
        for (i, x) in v.as_mut_slice().iter_mut().enumerate() {
            let u = ((i * 7919 + k * 104_729) % 1000) as f32 / 1000.0;
            *x = base + spread * u;
        }
        p.set_value(v);
    }
}

fn setup() -> (TrustDataset, ahntp_data::Split) {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(60, 5));
    let split = ds.split(0.8, 0.2, 2, 42);
    (ds, split)
}

/// The small architecture, with Eq. 23 weighted up so that the term is a
/// visible share of the objective.
fn config() -> AhntpConfig {
    AhntpConfig {
        conv_dims: vec![12, 6],
        tower_dims: vec![6],
        smoothness_weight: 1.0,
        ..AhntpConfig::default()
    }
}

#[test]
fn the_f32_objective_and_its_gradient_match_the_f64_reference() {
    let (ds, split) = setup();
    let base = config();
    for cfg in [
        base.clone(),
        base.clone().no_mpr(),
        base.clone().no_attention(),
        base.no_contrastive(),
    ] {
        let mut m = Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg);
        move_off_the_initialisation(&m);
        let full = BatchPlan::full(&split.train);
        let sampled = BatchPlan::for_epoch(
            &split.train,
            &MiniBatchConfig::sampled(0.5, split.train.len() / 3, 2, 11),
            1,
        );
        assert!(sampled.batches.len() >= 2, "a group of two batches");
        for (what, plan, group) in [
            ("full batch", &full, &full.batches[..]),
            ("sampled group", &sampled, &sampled.batches[..2]),
        ] {
            let tag = format!("{} at {what}", cfg.variant);
            let (loss, grad, kinks) = check_group(&mut m, plan, group, &tag);
            eprintln!("{tag}: loss {loss:.1e}, gradient {grad:.1e}, {kinks} coordinates at a kink");
        }
    }
}

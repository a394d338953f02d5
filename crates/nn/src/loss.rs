//! Training losses: binary cross-entropy on the cosine head (Eq. 21), the
//! supervised contrastive loss (Eq. 20), their linear combination (Eq. 22),
//! and the hypergraph smoothness regulariser (Eqs. 23–24).

use crate::Session;
use ahntp_autograd::Var;
use ahntp_hypergraph::SmoothnessFactor;
use ahntp_tensor::Tensor;
use std::rc::Rc;

/// Numerical floor inside logarithms.
const LN_EPS: f32 = 1e-7;

/// Calibration temperature of [`similarity_to_probability`]. Public so
/// the serving artifact (`ahntp_nn::artifact`) can record the exact
/// constant the trained head used.
pub const COSINE_CALIBRATION: f32 = 0.5;

/// Maps a cosine similarity in `[-1, 1]` to a probability in `(0, 1)` via
/// `σ(cs / 0.5)`.
///
/// The paper treats `CS` directly as the trust probability (Eq. 21 takes
/// `log(CS)`); the affine map `(cs + 1) / 2` realises that literally but
/// has vanishing loss gradients as embeddings align (`∂cos/∂x → 0` at
/// `cos → ±1` *and* `log`'s argument hits its clamp), which lets the
/// cosine head stall in an all-aligned state. The sigmoid calibration
/// keeps the same decision boundary (`p > 0.5 ⇔ cs > 0`), is monotone (so
/// ranking metrics are unchanged), and keeps gradients healthy over the
/// whole `[-1, 1]` range.
pub fn similarity_to_probability(cs: &Var) -> Var {
    cs.scale(1.0 / COSINE_CALIBRATION).sigmoid()
}

/// Binary cross-entropy on cosine similarities (Eq. 21), class-balanced.
///
/// * `cs` — a `[n]` vector of cosine similarities for `n` user pairs,
/// * `labels` — a `[n]` 0/1 vector (`ȳ_ij`, 1 = trust).
///
/// The paper samples two negatives per positive (§V-A-4); unweighted BCE
/// on that 1:2 imbalance lets the trivial all-negative predictor dominate
/// early training, so each class's terms are reweighted to contribute
/// equally (the standard balanced-BCE correction).
///
/// # Panics
///
/// Panics if shapes disagree or labels are not 0/1.
pub fn bce_from_similarity(s: &Session, cs: &Var, labels: &Tensor) -> Var {
    assert_eq!(
        cs.shape(),
        labels.shape(),
        "bce_from_similarity: {} similarities vs {} labels",
        cs.shape(),
        labels.shape()
    );
    assert!(
        labels.as_slice().iter().all(|&y| y == 0.0 || y == 1.0),
        "bce_from_similarity: labels must be 0 or 1"
    );
    let n = labels.len() as f32;
    let n_pos: f32 = labels.as_slice().iter().sum();
    let n_neg = n - n_pos;
    // Per-class weights normalised so a balanced batch reduces to the
    // plain mean; degenerate single-class batches fall back to uniform.
    let (w_pos, w_neg) = if n_pos > 0.0 && n_neg > 0.0 {
        (n / (2.0 * n_pos), n / (2.0 * n_neg))
    } else {
        (1.0, 1.0)
    };
    let p = similarity_to_probability(cs);
    let y = s.constant(labels.map(|v| v * w_pos));
    let one_minus_y = s.constant(labels.map(|v| (1.0 - v) * w_neg));
    let pos_term = y.mul(&p.ln_eps(LN_EPS));
    let neg_term = one_minus_y.mul(&p.neg().add_scalar(1.0).ln_eps(LN_EPS));
    pos_term.add(&neg_term).mean().neg()
}

/// Index structure for the supervised contrastive loss: every anchor's
/// candidate pairs (positives = trusted partners, negatives = distrusted /
/// sampled non-partners) laid out flat, grouped by anchor.
#[derive(Debug, Clone)]
pub struct ContrastiveBatch {
    /// Anchor segment id per candidate pair (values in `0..n_anchors`,
    /// need not be contiguous in the vector).
    pub segments: Rc<Vec<usize>>,
    /// Number of anchors.
    pub n_anchors: usize,
    /// 1.0 where the candidate is a positive for its anchor, else 0.0.
    pub positive_mask: Tensor,
}

impl ContrastiveBatch {
    /// Builds the batch from per-pair anchor ids and positivity flags.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn new(anchors: &[usize], is_positive: &[bool]) -> ContrastiveBatch {
        assert_eq!(
            anchors.len(),
            is_positive.len(),
            "ContrastiveBatch: {} anchors vs {} flags",
            anchors.len(),
            is_positive.len()
        );
        let n_anchors = anchors.iter().copied().max().map_or(0, |m| m + 1);
        ContrastiveBatch {
            segments: Rc::new(anchors.to_vec()),
            n_anchors,
            positive_mask: Tensor::vector(is_positive.iter().map(|&b| f32::from(b)).collect()),
        }
    }

    /// Per-anchor averaging weights: `1 / n_valid` for anchors that have at
    /// least one positive *and* one negative candidate, 0 otherwise
    /// (anchors without contrast carry no signal).
    fn anchor_weights(&self) -> Tensor {
        let mut pos = vec![0u32; self.n_anchors];
        let mut neg = vec![0u32; self.n_anchors];
        for (k, &a) in self.segments.iter().enumerate() {
            if self.positive_mask.as_slice()[k] > 0.0 {
                pos[a] += 1;
            } else {
                neg[a] += 1;
            }
        }
        let valid: Vec<bool> = pos
            .iter()
            .zip(&neg)
            .map(|(&p, &n)| p > 0 && n > 0)
            .collect();
        let n_valid = valid.iter().filter(|&&v| v).count().max(1) as f32;
        Tensor::vector(
            valid
                .iter()
                .map(|&v| if v { 1.0 / n_valid } else { 0.0 })
                .collect(),
        )
    }
}

/// The supervised contrastive loss of Eq. 20:
///
/// `L₁ = −1/|U| Σ_i log( Σ_{j ∈ P(i)} exp(cs_ij / t) / Σ_{k ∈ P(i) ∪ N(i)} exp(cs_ik / t) )`
///
/// * `cs` — `[n_pairs]` cosine similarities aligned with `batch`,
/// * `temperature` — the `t` of Eq. 20 (paper default 0.3).
///
/// Anchors with no positive or no negative candidates are excluded from the
/// average (they would contribute a constant or undefined term).
///
/// # Panics
///
/// Panics on shape mismatch or non-positive temperature.
pub fn supervised_contrastive(
    s: &Session,
    cs: &Var,
    batch: &ContrastiveBatch,
    temperature: f32,
) -> Var {
    assert!(
        temperature > 0.0,
        "supervised_contrastive: temperature must be positive, got {temperature}"
    );
    assert_eq!(
        cs.shape(),
        batch.positive_mask.shape(),
        "supervised_contrastive: {} similarities for {} candidates",
        cs.shape(),
        batch.positive_mask.shape()
    );
    let e = cs.scale(1.0 / temperature).exp();
    let mask = s.constant(batch.positive_mask.clone());
    let pos_sum = e.mul(&mask).segment_sum(&batch.segments, batch.n_anchors);
    let all_sum = e.segment_sum(&batch.segments, batch.n_anchors);
    let log_ratio = pos_sum.ln_eps(LN_EPS).sub(&all_sum.ln_eps(LN_EPS));
    let weights = s.constant(batch.anchor_weights());
    log_ratio.mul(&weights).sum().neg()
}

/// The combined training loss of Eq. 22: `L = λ₁ L₁ + λ₂ L₂`.
pub fn combined_loss(l1: &Var, l2: &Var, lambda1: f32, lambda2: f32) -> Var {
    l1.scale(lambda1).add(&l2.scale(lambda2))
}

/// The hypergraph smoothness regulariser `R(f) = Σ f ⊙ Δf` of Eqs. 23–24,
/// with the normalised Laplacian taken in factored form
/// `Δ = I − B Bᵀ` ([`SmoothnessFactor`]): `Δf = f − B (Bᵀ f)`, two sparse
/// products over the incidence entries instead of one over the Laplacian's
/// Σ|e|². The sum stays per element — `‖f‖² − ‖Bᵀf‖²` would cancel
/// catastrophically in f32.
pub fn smoothness_penalty(s: &Session, factor: &SmoothnessFactor, f: &Var) -> Var {
    let bt_f = s.graph().spmm(&factor.bt, f);
    let lf = f.sub(&s.graph().spmm(&factor.b, &bt_f));
    f.mul(&lf).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bce_is_low_for_correct_confident_predictions() {
        let s = Session::new();
        // cs = +1 for a positive pair and −1 for a negative pair → p = 1, 0.
        let cs = s.constant(Tensor::vector(vec![0.99, -0.99]));
        let labels = Tensor::vector(vec![1.0, 0.0]);
        let good = bce_from_similarity(&s, &cs, &labels).value().as_slice()[0];
        let cs_bad = s.constant(Tensor::vector(vec![-0.99, 0.99]));
        let bad = bce_from_similarity(&s, &cs_bad, &labels).value().as_slice()[0];
        assert!(good < 0.2, "confident correct BCE {good}");
        assert!(bad > 1.5, "confident wrong BCE {bad}");
    }

    #[test]
    fn bce_handles_extreme_similarities_without_nan() {
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![1.0, -1.0]));
        let labels = Tensor::vector(vec![0.0, 1.0]);
        let l = bce_from_similarity(&s, &cs, &labels).value();
        assert!(l.all_finite(), "log(0) must be clamped");
    }

    #[test]
    #[should_panic(expected = "labels must be 0 or 1")]
    fn bce_rejects_soft_labels() {
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![0.0]));
        bce_from_similarity(&s, &cs, &Tensor::vector(vec![0.5]));
    }

    #[test]
    fn contrastive_prefers_similar_positives() {
        // One anchor, one positive, one negative.
        let batch = ContrastiveBatch::new(&[0, 0], &[true, false]);
        let s = Session::new();
        // Positive close (cs = 0.9), negative far (cs = −0.9): low loss.
        let good_cs = s.constant(Tensor::vector(vec![0.9, -0.9]));
        let good = supervised_contrastive(&s, &good_cs, &batch, 0.3)
            .value()
            .as_slice()[0];
        // Reversed: high loss.
        let bad_cs = s.constant(Tensor::vector(vec![-0.9, 0.9]));
        let bad = supervised_contrastive(&s, &bad_cs, &batch, 0.3)
            .value()
            .as_slice()[0];
        assert!(good < bad, "contrastive loss must reward correct ordering");
        assert!(good >= 0.0, "−log of a ratio ≤ 1 is non-negative");
    }

    #[test]
    fn contrastive_ignores_anchors_without_contrast() {
        // Anchor 0 has both classes; anchor 1 has only positives.
        let batch = ContrastiveBatch::new(&[0, 0, 1, 1], &[true, false, true, true]);
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![0.5, -0.5, 0.1, 0.2]));
        let full = supervised_contrastive(&s, &cs, &batch, 0.3)
            .value()
            .as_slice()[0];
        // The same loss computed on anchor 0 alone must agree.
        let solo_batch = ContrastiveBatch::new(&[0, 0], &[true, false]);
        let solo_cs = s.constant(Tensor::vector(vec![0.5, -0.5]));
        let solo = supervised_contrastive(&s, &solo_cs, &solo_batch, 0.3)
            .value()
            .as_slice()[0];
        assert!((full - solo).abs() < 1e-5, "{full} vs {solo}");
    }

    #[test]
    fn temperature_sharpens_the_loss() {
        let batch = ContrastiveBatch::new(&[0, 0], &[true, false]);
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![0.2, -0.2]));
        let sharp = supervised_contrastive(&s, &cs, &batch, 0.1)
            .value()
            .as_slice()[0];
        let soft = supervised_contrastive(&s, &cs, &batch, 0.5)
            .value()
            .as_slice()[0];
        // Lower temperature amplifies the similarity gap → lower loss here.
        assert!(sharp < soft, "sharp {sharp} vs soft {soft}");
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn contrastive_rejects_bad_temperature() {
        let batch = ContrastiveBatch::new(&[0], &[true]);
        let s = Session::new();
        let cs = s.constant(Tensor::vector(vec![0.1]));
        supervised_contrastive(&s, &cs, &batch, 0.0);
    }

    #[test]
    fn combined_loss_weights_components() {
        let s = Session::new();
        let l1 = s.constant(Tensor::full(1, 1, 2.0));
        let l2 = s.constant(Tensor::full(1, 1, 3.0));
        let l = combined_loss(&l1, &l2, 0.5, 2.0);
        assert!((l.value().as_slice()[0] - 7.0).abs() < 1e-6);
    }

    /// Two tiers over six vertices: vertex 5 in no hyperedge, a
    /// singleton edge, weights other than 1.
    fn smoothness_tiers() -> [ahntp_hypergraph::AggregationCache; 2] {
        use ahntp_hypergraph::{AggregationCache, Hypergraph};
        let mut a = Hypergraph::new(6);
        a.add_edge(&[0, 1, 2]).expect("valid");
        a.add_weighted_edge(&[3], 1.5).expect("valid");
        a.add_edge(&[1, 4]).expect("valid");
        let mut b = Hypergraph::new(6);
        b.add_weighted_edge(&[0, 3, 4], 0.7).expect("valid");
        b.add_edge(&[2, 3]).expect("valid");
        [AggregationCache::new(a), AggregationCache::new(b)]
    }

    /// `Δ` of Eq. 24 in f64 from the triplets of the kept hyperedges.
    fn laplacian_f64(edges: &[(Vec<usize>, f64)], n: usize) -> Vec<Vec<f64>> {
        let mut degree = vec![0.0f64; n];
        for (members, w) in edges {
            members.iter().for_each(|&v| degree[v] += w);
        }
        let mut lap: Vec<Vec<f64>> = (0..n)
            .map(|r| (0..n).map(|c| if r == c { 1.0 } else { 0.0 }).collect())
            .collect();
        for (members, w) in edges {
            for &u in members {
                for &v in members {
                    lap[u][v] -= w / members.len() as f64 / (degree[u] * degree[v]).sqrt();
                }
            }
        }
        lap
    }

    /// The factored Eq. 23 term — value and `∂R/∂f` — against `f · Δf` and
    /// `2 Δf` from the f64 Laplacian, to `1e-6` of the largest magnitude,
    /// over every hyperedge and over a sample of them.
    #[test]
    fn smoothness_penalty_matches_hypergraph_method() {
        let tiers = smoothness_tiers();
        let f = Tensor::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, -1.0],
            &[0.5, 2.0],
            &[-1.5, 0.25],
            &[0.75, -0.5],
        ]);
        let (n, d) = (f.rows(), f.cols());
        let keep: [[Option<&[usize]>; 2]; 3] = [
            [None, None],
            [Some(&[0, 1]), Some(&[1])],
            [Some(&[2]), Some(&[])],
        ];
        for sel in keep {
            let mut edges = Vec::new();
            for (cache, ids) in tiers.iter().zip(sel) {
                let h = cache.hypergraph();
                let ids: Vec<usize> = ids.map_or_else(|| (0..h.n_edges()).collect(), <[_]>::to_vec);
                edges.extend(
                    ids.iter()
                        .map(|&e| (h.edge(e).to_vec(), f64::from(h.weights()[e]))),
                );
            }
            let lap = laplacian_f64(&edges, n);
            let lf: Vec<f64> = (0..n * d)
                .map(|k| {
                    let (r, c) = (k / d, k % d);
                    (0..n).map(|u| lap[r][u] * f64::from(f.get(u, c))).sum()
                })
                .collect();
            let expected: f64 = lf
                .iter()
                .zip(f.as_slice())
                .map(|(l, &x)| l * f64::from(x))
                .sum();

            let factor = SmoothnessFactor::build(&[(&tiers[0], sel[0]), (&tiers[1], sel[1])]);
            let s = Session::new();
            let fv = s.graph().leaf(f.clone());
            let r = smoothness_penalty(&s, &factor, &fv);
            r.backward();
            let got = f64::from(r.value().as_slice()[0]);
            let grad = fv.grad().expect("f reaches R");
            let scale = lf.iter().fold(expected.abs(), |m, v| m.max(2.0 * v.abs()));
            assert!(
                (got - expected).abs() <= 1e-6 * scale,
                "{sel:?}: R {got} vs {expected}"
            );
            for (k, (&g, l)) in grad.as_slice().iter().zip(&lf).enumerate() {
                assert!(
                    (f64::from(g) - 2.0 * l).abs() <= 1e-6 * scale,
                    "{sel:?}: dR/df[{k}] {g} vs {}",
                    2.0 * l
                );
            }
            // The isolated vertex's row of Δ is the identity's.
            assert_eq!(lf[5 * d], f64::from(f.get(5, 0)));
        }
    }
}

//! Adversarial evaluation: Sybil score inflation and PPR-defended scoring.
//!
//! The harness measures what a Sybil injection (`ahntp_data::inject_sybil`)
//! does to a trained trust model, and how much of the damage a
//! personalized-PageRank prior (`ahntp_graph::trust_prior`) claws back:
//!
//! * **Score inflation** — mean predicted trust on honest → Sybil probe
//!   pairs vs. matched honest → honest non-edges from the same trustors
//!   ([`score_inflation`]). A robust model scores both the same; a fooled
//!   one inflates the Sybil side.
//! * **Defended scoring** — [`DefendedScore`] alpha-blends the learned
//!   probability with the per-trustee PPR prior. Because the prior's mass
//!   in the Sybil region is bounded by the attack-edge cut (Snippet 1 /
//!   SybilGuard-style guarantee), blending strictly reduces inflation
//!   whenever the prior separates the regions at all.
//! * **Degradation** — [`evaluate_under_attack`] trains the same
//!   architecture on the clean and the injected dataset and reports both
//!   [`EvalReport`]s plus the inflation sweep over alphas.
//!
//! The harness depends only on the [`TrustModel`] trait and probe pairs,
//! so it stays generic over AHNTP and every baseline (the 9-model table
//! lives in `ahntp-bench`, which owns the model zoo).

use crate::{train_and_evaluate, EvalReport, TrainConfig, TrustModel};
use ahntp_data::{LabeledPair, SybilProbes};

/// Alpha-blended defended scoring: `(1 − α) · learned + α · prior[trustee]`.
///
/// `alpha = 0` is the undefended learned score, `alpha = 1` trusts the PPR
/// prior alone. The prior is indexed by trustee — trust is a property the
/// *target* has to have earned from the honest seed set, regardless of who
/// asks.
#[derive(Debug, Clone, Copy)]
pub struct DefendedScore<'a> {
    /// Blend weight on the prior, in `[0, 1]`.
    pub alpha: f32,
    /// Per-node trust prior in `[0, 1]` (`ahntp_graph::trust_prior`).
    pub prior: &'a [f32],
}

impl<'a> DefendedScore<'a> {
    /// Builds a defended scorer.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not a finite value in `[0, 1]`.
    pub fn new(alpha: f32, prior: &'a [f32]) -> DefendedScore<'a> {
        assert!(
            alpha.is_finite() && (0.0..=1.0).contains(&alpha),
            "defense alpha must be in [0, 1], got {alpha}"
        );
        DefendedScore { alpha, prior }
    }

    /// Blends one learned probability with the trustee's prior.
    ///
    /// # Panics
    ///
    /// Panics when `trustee` is outside the prior.
    pub fn blend(&self, trustee: usize, learned: f32) -> f32 {
        (1.0 - self.alpha) * learned + self.alpha * self.prior[trustee]
    }

    /// Blends a batch of learned scores, pair-aligned.
    ///
    /// # Panics
    ///
    /// Panics when the slices disagree in length or a trustee is outside
    /// the prior.
    pub fn blend_pairs(&self, pairs: &[LabeledPair], learned: &[f32]) -> Vec<f32> {
        assert_eq!(pairs.len(), learned.len(), "pairs/scores length mismatch");
        pairs
            .iter()
            .zip(learned)
            .map(|(p, &s)| self.blend(p.trustee, s))
            .collect()
    }
}

/// Mean predicted trust on Sybil probes vs. the matched honest controls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InflationMetrics {
    /// Mean score over honest → Sybil probe pairs.
    pub sybil_mean: f32,
    /// Mean score over honest → honest control pairs.
    pub honest_mean: f32,
}

impl InflationMetrics {
    /// Sybil-to-honest inflation ratio (1.0 = no inflation; the honest
    /// mean is floored at `1e-12` so an all-zero control set cannot
    /// divide by zero).
    pub fn ratio(&self) -> f32 {
        self.sybil_mean / self.honest_mean.max(1e-12)
    }
}

/// Computes [`InflationMetrics`] from probe scores.
///
/// # Panics
///
/// Panics when either side is empty or contains a non-finite score.
pub fn score_inflation(sybil_scores: &[f32], honest_scores: &[f32]) -> InflationMetrics {
    let mean = |s: &[f32], what: &str| -> f32 {
        assert!(!s.is_empty(), "no {what} probe scores");
        assert!(
            s.iter().all(|v| v.is_finite()),
            "non-finite {what} probe score"
        );
        s.iter().sum::<f32>() / s.len() as f32
    };
    InflationMetrics {
        sybil_mean: mean(sybil_scores, "sybil"),
        honest_mean: mean(honest_scores, "honest"),
    }
}

/// Inflation after defending at one alpha.
#[derive(Debug, Clone, Copy)]
pub struct DefendedInflation {
    /// The blend weight used.
    pub alpha: f32,
    /// Inflation of the blended scores.
    pub inflation: InflationMetrics,
}

/// Full degradation report for one architecture.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Model name (from [`TrustModel::name`] of the attacked instance).
    pub model: String,
    /// Train/test result on the clean host dataset.
    pub clean: EvalReport,
    /// Train/test result on the Sybil-injected dataset.
    pub attacked: EvalReport,
    /// Inflation of the raw learned scores.
    pub undefended: InflationMetrics,
    /// Inflation after blending with the PPR prior, one entry per alpha.
    pub defended: Vec<DefendedInflation>,
}

impl AttackReport {
    /// Test-AUC lost to the injection (positive = the attack hurt).
    pub fn auc_drop(&self) -> f64 {
        self.clean.test.auc - self.attacked.test.auc
    }
}

/// Trains `clean_model` on the host split and `attacked_model` on the
/// injected split, then sweeps the defense over `alphas` on the probe
/// pairs. `prior` must cover every node of the *injected* graph (honest
/// nodes carry mass, Sybils carry whatever escaped the attack cut).
///
/// # Panics
///
/// Panics when `probes` has an empty side, an alpha is outside `[0, 1]`,
/// or a probe trustee falls outside `prior`.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_under_attack(
    clean_model: &mut dyn TrustModel,
    clean_train: &[LabeledPair],
    clean_test: &[LabeledPair],
    attacked_model: &mut dyn TrustModel,
    attacked_train: &[LabeledPair],
    attacked_test: &[LabeledPair],
    probes: &SybilProbes,
    prior: &[f32],
    alphas: &[f32],
    cfg: &TrainConfig,
) -> AttackReport {
    let clean = train_and_evaluate(clean_model, clean_train, clean_test, cfg);
    let attacked = train_and_evaluate(attacked_model, attacked_train, attacked_test, cfg);
    let sybil_raw = attacked_model.predict(&probes.sybil);
    let honest_raw = attacked_model.predict(&probes.honest);
    let undefended = score_inflation(&sybil_raw, &honest_raw);
    let defended = alphas
        .iter()
        .map(|&alpha| {
            let d = DefendedScore::new(alpha, prior);
            DefendedInflation {
                alpha,
                inflation: score_inflation(
                    &d.blend_pairs(&probes.sybil, &sybil_raw),
                    &d.blend_pairs(&probes.honest, &honest_raw),
                ),
            }
        })
        .collect();
    AttackReport {
        model: attacked_model.name(),
        clean,
        attacked,
        undefended,
        defended,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(trustees: &[usize]) -> Vec<LabeledPair> {
        trustees
            .iter()
            .map(|&t| LabeledPair {
                trustor: 0,
                trustee: t,
                label: false,
            })
            .collect()
    }

    #[test]
    fn blend_endpoints_recover_learned_and_prior() {
        let prior = [1.0, 0.0, 0.5];
        let learned = 0.8;
        assert_eq!(DefendedScore::new(0.0, &prior).blend(1, learned), learned);
        assert_eq!(DefendedScore::new(1.0, &prior).blend(1, learned), 0.0);
        let mid = DefendedScore::new(0.5, &prior).blend(2, learned);
        assert!((mid - 0.65).abs() < 1e-6);
    }

    #[test]
    fn blend_pairs_uses_each_trustee() {
        let prior = [0.0, 1.0];
        let d = DefendedScore::new(0.5, &prior);
        let out = d.blend_pairs(&pairs(&[0, 1]), &[0.6, 0.6]);
        assert!((out[0] - 0.3).abs() < 1e-6);
        assert!((out[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn inflation_ratio_and_means() {
        let m = score_inflation(&[0.9, 0.7], &[0.4, 0.4]);
        assert!((m.sybil_mean - 0.8).abs() < 1e-6);
        assert!((m.honest_mean - 0.4).abs() < 1e-6);
        assert!((m.ratio() - 2.0).abs() < 1e-5);
        // All-zero controls do not divide by zero.
        assert!(score_inflation(&[0.5], &[0.0]).ratio().is_finite());
    }

    #[test]
    fn defense_strictly_reduces_inflation_when_the_prior_separates() {
        // Learned scores are fooled (Sybils outscore honest targets); the
        // prior is 0 on Sybil trustees and positive on honest ones.
        let prior = [0.9f32, 0.9, 0.0, 0.0]; // nodes 0-1 honest, 2-3 Sybil
        let sybil_pairs = pairs(&[2, 3]);
        let honest_pairs = pairs(&[0, 1]);
        let sybil_raw = [0.85f32, 0.75];
        let honest_raw = [0.55f32, 0.45];
        let undefended = score_inflation(&sybil_raw, &honest_raw);
        for alpha in [0.1f32, 0.3, 0.5, 0.9] {
            let d = DefendedScore::new(alpha, &prior);
            let defended = score_inflation(
                &d.blend_pairs(&sybil_pairs, &sybil_raw),
                &d.blend_pairs(&honest_pairs, &honest_raw),
            );
            assert!(
                defended.ratio() < undefended.ratio(),
                "alpha={alpha}: defended {} !< undefended {}",
                defended.ratio(),
                undefended.ratio()
            );
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn alpha_out_of_range_rejected() {
        DefendedScore::new(1.5, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn misaligned_blend_rejected() {
        DefendedScore::new(0.5, &[0.0]).blend_pairs(&pairs(&[0]), &[0.1, 0.2]);
    }

    struct FixedModel {
        table: std::collections::HashMap<usize, f32>,
    }

    impl TrustModel for FixedModel {
        fn name(&self) -> String {
            "Fixed".into()
        }
        fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
            0.1
        }
        fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
            pairs
                .iter()
                .map(|p| self.table.get(&p.trustee).copied().unwrap_or(0.5))
                .collect()
        }
    }

    #[test]
    fn evaluate_under_attack_reports_sweep() {
        let table: std::collections::HashMap<usize, f32> =
            [(0, 0.4), (1, 0.4), (2, 0.9), (3, 0.9)].into();
        let mut clean = FixedModel {
            table: table.clone(),
        };
        let mut attacked = FixedModel { table };
        let train = [LabeledPair {
            trustor: 0,
            trustee: 1,
            label: true,
        }];
        let probes = SybilProbes {
            sybil: pairs(&[2, 3]),
            honest: pairs(&[0, 1]),
        };
        let prior = [0.8f32, 0.8, 0.0, 0.0];
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        };
        let report = evaluate_under_attack(
            &mut clean,
            &train,
            &train,
            &mut attacked,
            &train,
            &train,
            &probes,
            &prior,
            &[0.0, 0.5],
            &cfg,
        );
        assert_eq!(report.model, "Fixed");
        assert_eq!(report.defended.len(), 2);
        // alpha = 0 is exactly the undefended measurement.
        assert_eq!(report.defended[0].inflation, report.undefended);
        assert!(report.defended[1].inflation.ratio() < report.undefended.ratio());
        assert!(report.undefended.ratio() > 2.0);
    }
}

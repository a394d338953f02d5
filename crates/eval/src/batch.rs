//! Mini-batch training: per-epoch [`BatchPlan`]s and the batched model
//! interface, sharing the full-batch loop skeleton.
//!
//! A plan is built once per epoch from a [`MiniBatchConfig`] and carries
//! everything the model needs to run the epoch: which fraction of
//! hyperedges to sample (the model does the sampling, seeded from the
//! plan), the labelled pairs grouped into micro-batches, and how many
//! micro-batches accumulate into one optimizer step.
//!
//! The defining invariant: a plan built from [`MiniBatchConfig::exact`]
//! (ratio `1.0`, one in-order batch, accumulation `1`) makes
//! [`train_and_evaluate_minibatch`] reproduce [`crate::train_and_evaluate`]
//! **bitwise** — same loss trajectory, same parameters, at any thread
//! count. The exactness test suite pins this down.

use crate::trainer::{env_observer, training_loop};
use crate::{EvalReport, TrainConfig, TrustModel};
use ahntp_data::{plan_micro_batches, LabeledPair, MiniBatchConfig};

/// One epoch's worth of mini-batch work, handed to
/// [`BatchTrustModel::train_epoch_planned`].
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Zero-based epoch this plan was built for.
    pub epoch: u64,
    /// Base seed hyperedge sampling must derive from (combined with
    /// `epoch`, so every epoch resamples deterministically).
    pub seed: u64,
    /// Fraction of hyperedges the model should sample, in `(0, 1]`.
    pub edge_ratio: f64,
    /// Micro-batches per optimizer step (≥ 1).
    pub accumulation: usize,
    /// Labelled pairs grouped into micro-batches; together they cover the
    /// epoch's training pairs exactly once.
    pub batches: Vec<Vec<LabeledPair>>,
}

impl BatchPlan {
    /// The identity plan: every hyperedge, every pair in one in-order
    /// batch, one optimizer step. Training through this plan is bitwise
    /// identical to full-batch training.
    pub fn full(pairs: &[LabeledPair]) -> BatchPlan {
        BatchPlan {
            epoch: 0,
            seed: 0,
            edge_ratio: 1.0,
            accumulation: 1,
            batches: vec![pairs.to_vec()],
        }
    }

    /// Builds the plan for one epoch from the mini-batch knobs: pairs are
    /// shuffled and chunked per `(cfg.seed, epoch)` (see
    /// [`plan_micro_batches`]); hyperedge sampling is deferred to the
    /// model, which derives it from `seed`/`epoch`/`edge_ratio`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MiniBatchConfig::validate`].
    pub fn for_epoch(pairs: &[LabeledPair], cfg: &MiniBatchConfig, epoch: u64) -> BatchPlan {
        cfg.validate().expect("invalid mini-batch config");
        let batches = plan_micro_batches(pairs.len(), cfg.batch_size, cfg.seed, epoch)
            .into_iter()
            .map(|idx| idx.into_iter().map(|i| pairs[i]).collect())
            .collect();
        BatchPlan {
            epoch,
            seed: cfg.seed,
            edge_ratio: cfg.edge_ratio,
            accumulation: cfg.accumulation,
            batches,
        }
    }

    /// Number of micro-batches.
    pub fn n_batches(&self) -> usize {
        self.batches.len()
    }

    /// Total labelled pairs across all micro-batches.
    pub fn n_pairs(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Whether this plan is on the bitwise-exact path: every hyperedge,
    /// a single micro-batch, no accumulation.
    pub fn is_exact(&self) -> bool {
        self.edge_ratio >= 1.0 && self.batches.len() <= 1 && self.accumulation == 1
    }
}

/// A [`TrustModel`] that can train through a [`BatchPlan`] — sampling
/// hyperedges, iterating micro-batches, and accumulating gradients as the
/// plan dictates. Returns the epoch loss (for a single-batch plan this is
/// the batch loss itself; otherwise the pair-weighted mean over batches).
pub trait BatchTrustModel: TrustModel {
    /// Runs one planned epoch, returning the epoch's training loss.
    fn train_epoch_planned(&mut self, plan: &BatchPlan) -> f32;
}

/// Mini-batch counterpart of [`crate::train_and_evaluate`]: same loop
/// skeleton (divergence checks, early stopping, telemetry, ledger), but
/// each epoch builds a fresh [`BatchPlan`] from `mb` and trains through
/// [`BatchTrustModel::train_epoch_planned`].
///
/// # Panics
///
/// As [`crate::train_and_evaluate`], plus if `mb` is invalid.
pub fn train_and_evaluate_minibatch(
    model: &mut dyn BatchTrustModel,
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
    mb: &MiniBatchConfig,
) -> EvalReport {
    mb.validate().expect("invalid mini-batch config");
    training_loop(
        model,
        |m, epoch| {
            ahntp_faultz::enforce("train.plan");
            let plan = BatchPlan::for_epoch(train, mb, epoch as u64);
            m.train_epoch_planned(&plan)
        },
        crate::TrainProgress::fresh(),
        |_, _| {},
        train,
        test,
        cfg,
        env_observer().as_mut(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_and_evaluate;

    fn pairs(n: usize) -> Vec<LabeledPair> {
        (0..n)
            .map(|i| LabeledPair {
                trustor: i,
                trustee: i + 1,
                label: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn full_plan_is_the_identity() {
        let ps = pairs(5);
        let plan = BatchPlan::full(&ps);
        assert!(plan.is_exact());
        assert_eq!(plan.n_batches(), 1);
        assert_eq!(plan.batches[0], ps, "single batch, original order");
    }

    #[test]
    fn exact_config_plans_match_full() {
        let ps = pairs(7);
        let plan = BatchPlan::for_epoch(&ps, &MiniBatchConfig::exact(9), 3);
        assert!(plan.is_exact());
        assert_eq!(plan.batches, BatchPlan::full(&ps).batches);
        assert_eq!(plan.epoch, 3);
        assert_eq!(plan.seed, 9);
    }

    #[test]
    fn sampled_plans_partition_pairs_and_vary_by_epoch() {
        let ps = pairs(23);
        let cfg = MiniBatchConfig::sampled(0.5, 5, 2, 11);
        let plan = BatchPlan::for_epoch(&ps, &cfg, 0);
        assert!(!plan.is_exact());
        assert_eq!(plan.n_batches(), 5);
        assert_eq!(plan.n_pairs(), 23);
        let mut seen: Vec<usize> = plan.batches.iter().flatten().map(|p| p.trustor).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>(), "every pair exactly once");
        let other = BatchPlan::for_epoch(&ps, &cfg, 1);
        assert_ne!(plan.batches, other.batches, "epochs reshuffle");
        let again = BatchPlan::for_epoch(&ps, &cfg, 0);
        assert_eq!(plan.batches, again.batches, "same epoch → same plan");
    }

    #[test]
    #[should_panic(expected = "invalid mini-batch config")]
    fn invalid_config_rejected() {
        BatchPlan::for_epoch(&pairs(3), &MiniBatchConfig::sampled(0.0, 4, 1, 1), 0);
    }

    /// A fake batched model: the "loss" encodes the plan it received, so
    /// the test can check the loop built the right plans in the right
    /// order — and that the exact path feeds identical epochs.
    struct PlanProbe {
        losses: Vec<f32>,
        plans_seen: Vec<(u64, usize, usize)>, // (epoch, n_batches, n_pairs)
    }

    impl TrustModel for PlanProbe {
        fn name(&self) -> String {
            "plan-probe".into()
        }
        fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
            self.losses.remove(0)
        }
        fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
            vec![0.5; pairs.len()]
        }
    }

    impl BatchTrustModel for PlanProbe {
        fn train_epoch_planned(&mut self, plan: &BatchPlan) -> f32 {
            self.plans_seen
                .push((plan.epoch, plan.n_batches(), plan.n_pairs()));
            self.losses.remove(0)
        }
    }

    #[test]
    fn minibatch_loop_feeds_one_plan_per_epoch() {
        let tr = pairs(10);
        let te = pairs(4);
        let mut m = PlanProbe {
            losses: (0..4).map(|i| 1.0 / (i + 1) as f32).collect(),
            plans_seen: Vec::new(),
        };
        let cfg = TrainConfig {
            epochs: 4,
            patience: 0,
            ..TrainConfig::default()
        };
        let report = train_and_evaluate_minibatch(
            &mut m,
            &tr,
            &te,
            &cfg,
            &MiniBatchConfig::sampled(0.5, 3, 2, 7),
        );
        assert_eq!(report.epochs_run, 4);
        assert_eq!(
            m.plans_seen,
            vec![(0, 4, 10), (1, 4, 10), (2, 4, 10), (3, 4, 10)],
            "one plan per epoch, epochs in order, pairs always covered"
        );
    }

    #[test]
    fn exact_minibatch_report_matches_full_batch() {
        // Same deterministic fake loss sequence through both entry points:
        // the shared loop must produce byte-identical reports.
        let tr = pairs(6);
        let te = pairs(4);
        let cfg = TrainConfig {
            epochs: 5,
            patience: 0,
            ..TrainConfig::default()
        };
        let losses: Vec<f32> = (0..5).map(|i| 1.0 / (i + 2) as f32).collect();
        let mut full = PlanProbe {
            losses: losses.clone(),
            plans_seen: Vec::new(),
        };
        let full_report = train_and_evaluate(&mut full, &tr, &te, &cfg);
        let mut mini = PlanProbe {
            losses,
            plans_seen: Vec::new(),
        };
        let mini_report =
            train_and_evaluate_minibatch(&mut mini, &tr, &te, &cfg, &MiniBatchConfig::exact(0));
        assert_eq!(full_report.epoch_losses, mini_report.epoch_losses);
        assert_eq!(full_report.final_loss, mini_report.final_loss);
        assert!(mini.plans_seen.iter().all(|&(_, b, n)| b == 1 && n == 6));
    }
}

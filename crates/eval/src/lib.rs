//! Evaluation substrate: binary-classification metrics (§V-A-3 uses
//! accuracy and F1), the [`TrustModel`] interface every method in the
//! evaluation implements, and the training/evaluation loop shared by all
//! experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod batch;
mod checkpoint;
mod metrics;
mod trainer;

pub use attack::{
    evaluate_under_attack, score_inflation, AttackReport, DefendedInflation, DefendedScore,
    InflationMetrics,
};
pub use batch::{train_and_evaluate_minibatch, BatchPlan, BatchTrustModel};
pub use checkpoint::{
    read_checkpoint, train_and_evaluate_minibatch_resumable, train_and_evaluate_resumable,
    write_checkpoint_atomic, CheckpointConfig, ResumableBatchModel, ResumableModel, TrainProgress,
};
pub use metrics::{auc, binary_metrics, Metrics};
pub use trainer::{
    train_and_evaluate, train_and_evaluate_observed, EpochStats, EvalReport, LedgerObserver,
    NoopObserver, TrainConfig, TrainObserver, TrustModel,
};

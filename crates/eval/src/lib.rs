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

/// Failpoints are process-global (`ahntp-faultz`): a unit test that arms
/// `train.epoch` or `ckpt.io.*`, and every test whose training loop or
/// checkpoint write passes those sites, holds this for its duration.
#[cfg(test)]
pub(crate) fn failpoint_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use attack::{
    evaluate_under_attack, score_inflation, AttackReport, DefendedInflation, DefendedScore,
    InflationMetrics,
};
pub use batch::{train_and_evaluate_minibatch, BatchPlan, BatchTrustModel};
pub use checkpoint::{
    read_checkpoint, train_and_evaluate_minibatch_resumable, train_and_evaluate_resumable,
    write_checkpoint_atomic, CheckpointConfig, ResumableBatchModel, ResumableModel,
    TrainProgress,
};
pub use metrics::{auc, binary_metrics, Metrics};
pub use trainer::{
    train_and_evaluate, train_and_evaluate_observed, EpochStats, EvalReport, LedgerObserver,
    NoopObserver, TrainConfig, TrainObserver, TrustModel,
};

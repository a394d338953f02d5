//! The model interface and the shared training/evaluation loop.

use std::time::Instant;

use crate::checkpoint::TrainProgress;
use crate::{binary_metrics, Metrics};
use ahntp_data::LabeledPair;
use ahntp_telemetry::json::Json;
use ahntp_telemetry::RunLedger;

/// A trust-prediction model: anything that can fit labelled user pairs and
/// score new ones. AHNTP, its ablation variants and all eight baselines
/// implement this, so every experiment runs through one code path.
pub trait TrustModel {
    /// Model name as it appears in result tables.
    fn name(&self) -> String;

    /// Runs one optimization epoch over the training pairs, returning the
    /// epoch's training loss.
    fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32;

    /// Scores pairs with trust probabilities in `[0, 1]`.
    fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32>;

    /// Number of trainable scalars (for reporting).
    fn n_parameters(&self) -> usize {
        0
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum epochs.
    pub epochs: usize,
    /// Stop early when the training loss fails to improve by at least
    /// `min_improvement` for `patience` consecutive epochs (0 disables).
    pub patience: usize,
    /// Minimum relative loss improvement that resets patience.
    pub min_improvement: f32,
    /// Decision threshold applied to predicted probabilities.
    pub threshold: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 60,
            patience: 10,
            min_improvement: 1e-4,
            threshold: 0.5,
        }
    }
}

/// Result of one train-and-evaluate run.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// Test-set metrics.
    pub test: Metrics,
    /// Training-set metrics (overfitting diagnostic).
    pub train: Metrics,
    /// Final epoch training loss.
    pub final_loss: f32,
    /// Lowest training loss seen across all epochs.
    pub best_loss: f32,
    /// Training loss of every epoch actually run, in order.
    pub epoch_losses: Vec<f32>,
    /// Epochs actually run (≤ `TrainConfig::epochs` with early stopping).
    pub epochs_run: usize,
}

/// Per-epoch measurements handed to [`TrainObserver::on_epoch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Training loss of this epoch.
    pub loss: f32,
    /// Wall time the epoch took, in microseconds.
    pub wall_us: u64,
    /// Global gradient L2 norm of the epoch's last optimizer step, when the
    /// model's optimizer published one (`train.grad_norm` gauge). `None`
    /// for models that don't run a gradient optimizer.
    pub grad_norm: Option<f64>,
    /// Per-kernel *self*-time attribution of this epoch's wall-clock,
    /// present when profiling is on (`AHNTP_PROFILE=1` or
    /// `ahntp_telemetry::set_profiling`). Self times telescope, so
    /// `profile.total_us() <= wall_us` (up to µs truncation).
    pub profile: Option<ahntp_telemetry::KernelProfile>,
}

/// Observer hooks for the training loop. All methods default to no-ops, so
/// implementors override only what they need and existing call sites are
/// unaffected.
pub trait TrainObserver {
    /// Called once before the first epoch.
    fn on_start(&mut self, _model: &str, _cfg: &TrainConfig) {}
    /// Called after every completed epoch, in epoch order.
    fn on_epoch(&mut self, _stats: &EpochStats) {}
    /// Called once after evaluation, with the final report.
    fn on_finish(&mut self, _report: &EvalReport) {}
}

/// The default observer: does nothing.
pub struct NoopObserver;

impl TrainObserver for NoopObserver {}

/// An observer that serializes the run to a JSONL [`RunLedger`].
///
/// Records `run_start` (model + config), one `epoch` record per epoch, and
/// `run_end` with the final metrics plus a metrics-registry snapshot. Used
/// automatically by [`train_and_evaluate`] when `AHNTP_TELEMETRY=1`.
pub struct LedgerObserver {
    dir: Option<std::path::PathBuf>,
    ledger: Option<RunLedger>,
}

impl LedgerObserver {
    /// Writes to the default ledger directory (`target/telemetry` or
    /// `AHNTP_TELEMETRY_DIR`).
    pub fn new() -> LedgerObserver {
        LedgerObserver {
            dir: None,
            ledger: None,
        }
    }

    /// Writes to an explicit directory — the env-independent entry point
    /// tests should use.
    pub fn in_dir(dir: impl Into<std::path::PathBuf>) -> LedgerObserver {
        LedgerObserver {
            dir: Some(dir.into()),
            ledger: None,
        }
    }

    /// Path of the ledger file, once `on_start` has opened it.
    pub fn path(&self) -> Option<&std::path::Path> {
        self.ledger.as_ref().map(RunLedger::path)
    }

    fn run_name(model: &str) -> String {
        // Distinct per run within and across processes without needing a
        // clock: process id + a process-wide counter.
        use std::sync::atomic::{AtomicU64, Ordering};
        static RUN_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let slug: String = model
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
            .collect();
        format!("{slug}-p{}-r{seq}", std::process::id())
    }
}

impl Default for LedgerObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl TrainObserver for LedgerObserver {
    fn on_start(&mut self, model: &str, cfg: &TrainConfig) {
        let config = Json::obj([
            ("model", Json::from(model)),
            ("epochs", Json::from(cfg.epochs)),
            ("patience", Json::from(cfg.patience)),
            ("min_improvement", Json::from(f64::from(cfg.min_improvement))),
            ("threshold", Json::from(f64::from(cfg.threshold))),
        ]);
        let run = Self::run_name(model);
        self.ledger = match &self.dir {
            Some(dir) => RunLedger::create_in(dir, &run, config),
            None => RunLedger::create(&run, config),
        };
    }

    fn on_epoch(&mut self, stats: &EpochStats) {
        if let Some(ledger) = &mut self.ledger {
            ledger.epoch_profiled(
                stats.epoch,
                f64::from(stats.loss),
                stats.wall_us,
                stats.grad_norm.unwrap_or(f64::NAN), // serialized as null
                stats.profile.as_ref().map(ahntp_telemetry::KernelProfile::to_json),
            );
        }
    }

    fn on_finish(&mut self, report: &EvalReport) {
        if let Some(ledger) = self.ledger.take() {
            ledger.finish([
                ("final_loss", Json::from(f64::from(report.final_loss))),
                ("best_loss", Json::from(f64::from(report.best_loss))),
                ("epochs_run", Json::from(report.epochs_run)),
                ("test_auc", Json::from(report.test.auc)),
                ("test_f1", Json::from(report.test.f1)),
                ("train_auc", Json::from(report.train.auc)),
            ]);
        }
    }
}

/// Trains `model` on `train` and evaluates on both sets.
///
/// With `AHNTP_TELEMETRY=1` in the environment, the run is automatically
/// serialized to a JSONL ledger (see [`LedgerObserver`]); otherwise this is
/// [`train_and_evaluate_observed`] with a no-op observer.
///
/// # Panics
///
/// Panics if the model produces NaN losses (divergence is a bug, not a
/// result) or an empty prediction vector. When finite checks are active
/// (`AHNTP_CHECK_FINITE=1` or `ahntp_telemetry::set_finite_checks`), the
/// divergence panic names the op whose output first went non-finite.
pub fn train_and_evaluate(
    model: &mut dyn TrustModel,
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
) -> EvalReport {
    train_and_evaluate_observed(model, train, test, cfg, env_observer().as_mut())
}

/// The observer the environment asks for — a [`LedgerObserver`] under
/// `AHNTP_TELEMETRY=1`, otherwise [`NoopObserver`]. Every entry point
/// without an explicit observer parameter gets its observer here.
pub(crate) fn env_observer() -> Box<dyn TrainObserver> {
    if ahntp_telemetry::env_flag("AHNTP_TELEMETRY") {
        Box::new(LedgerObserver::new())
    } else {
        Box::new(NoopObserver)
    }
}

/// [`train_and_evaluate`] with explicit observer hooks: `on_start`, one
/// `on_epoch` per completed epoch (in order), then `on_finish` with the
/// final report. This is the one entry point that takes an observer; the
/// mini-batch and resumable loops pick theirs from the environment.
///
/// # Panics
///
/// As [`train_and_evaluate`].
pub fn train_and_evaluate_observed(
    model: &mut dyn TrustModel,
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> EvalReport {
    training_loop(
        model,
        |m, _epoch| m.train_epoch(train),
        TrainProgress::fresh(),
        |_, _| {},
        train,
        test,
        cfg,
        observer,
    )
}

/// The epoch loop shared by full-batch and mini-batch training: runs
/// `run_epoch` once per epoch with divergence checks, early stopping,
/// telemetry, and observer callbacks, then evaluates on both splits.
///
/// `run_epoch` decides what an "epoch" means — the full-batch path calls
/// `TrustModel::train_epoch`, the mini-batch path builds a per-epoch
/// `BatchPlan` and calls `BatchTrustModel::train_epoch_planned`. Everything
/// around that call (the loop skeleton) is byte-for-byte shared, which is
/// what keeps the two trajectories comparable.
///
/// Crash-safe resume rides on the same skeleton: `init` seeds the ledger
/// (a fresh [`TrainProgress`] for normal runs, a restored one when
/// resuming — the loop then starts at `init.epochs_done`), and
/// `after_epoch` observes every completed epoch's ledger *after* the
/// early-stopping decision, which is where the resumable entry points
/// write checkpoints. Each epoch also passes the `train.epoch` failpoint,
/// so chaos tests can kill training at an exact epoch.
#[allow(clippy::too_many_arguments)] // one internal call-site per entry point
pub(crate) fn training_loop<M: TrustModel + ?Sized>(
    model: &mut M,
    mut run_epoch: impl FnMut(&mut M, usize) -> f32,
    init: TrainProgress,
    mut after_epoch: impl FnMut(&M, &TrainProgress),
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
    observer: &mut dyn TrainObserver,
) -> EvalReport {
    assert!(!train.is_empty() && !test.is_empty(), "empty split");
    assert_eq!(
        init.epochs_done,
        init.epoch_losses.len(),
        "inconsistent resume ledger"
    );
    let name = model.name();
    ahntp_telemetry::clear_nonfinite();
    observer.on_start(&name, cfg);
    let mut best_loss = init.best_loss;
    let mut stale = init.stale;
    let mut final_loss = init.epoch_losses.last().copied().unwrap_or(f32::NAN);
    let mut epoch_losses = init.epoch_losses;
    let mut epochs_run = init.epochs_done;
    for epoch in init.epochs_done..cfg.epochs {
        // A checkpoint taken at the early-stopping epoch restores to a run
        // that has already stopped; don't train further.
        if cfg.patience > 0 && stale >= cfg.patience {
            break;
        }
        ahntp_faultz::enforce("train.epoch");
        // Snapshot the kernel accumulators around the epoch so its
        // wall-clock can be attributed per kernel (see `EpochStats`).
        let profile_before = ahntp_telemetry::profiling_enabled()
            .then(ahntp_telemetry::profile_snapshot);
        let started = Instant::now();
        let loss = run_epoch(model, epoch);
        let wall_us = started.elapsed().as_micros() as u64;
        let profile = profile_before
            .map(|before| ahntp_telemetry::profile_snapshot().delta_since(&before));
        if !loss.is_finite() {
            let provenance = ahntp_telemetry::first_nonfinite()
                .map(|e| {
                    format!(
                        "; first non-finite output from op `{}` at tape step {}",
                        e.op, e.step
                    )
                })
                .unwrap_or_default();
            panic!(
                "{name}: training diverged (loss = {loss}) at epoch {epoch}{provenance}"
            );
        }
        epochs_run += 1;
        final_loss = loss;
        epoch_losses.push(loss);
        ahntp_telemetry::counter_add("train.epochs", 1);
        let stats = EpochStats {
            epoch,
            loss,
            wall_us,
            grad_norm: ahntp_telemetry::gauge_get("train.grad_norm"),
            profile,
        };
        ahntp_telemetry::debug!(
            "train",
            "{name} epoch {epoch}: loss {loss:.6}, {wall_us}us"
        );
        observer.on_epoch(&stats);
        let mut stop = false;
        if loss < best_loss * (1.0 - cfg.min_improvement) {
            best_loss = loss;
            stale = 0;
        } else {
            stale += 1;
            if cfg.patience > 0 && stale >= cfg.patience {
                ahntp_telemetry::debug!(
                    "train",
                    "{name}: early stop after epoch {epoch} (patience {})",
                    cfg.patience
                );
                stop = true;
            }
        }
        // The checkpoint hook sees the ledger *after* the stopping
        // decision, so a resume from this epoch replays the same decision.
        after_epoch(
            model,
            &TrainProgress {
                epochs_done: epoch + 1,
                best_loss,
                stale,
                epoch_losses: epoch_losses.clone(),
            },
        );
        if stop {
            break;
        }
    }
    let eval = |pairs: &[LabeledPair]| -> Metrics {
        let scores = model.predict(pairs);
        assert_eq!(
            scores.len(),
            pairs.len(),
            "{name}: prediction count mismatch"
        );
        let labels: Vec<bool> = pairs.iter().map(|p| p.label).collect();
        binary_metrics(&scores, &labels, cfg.threshold)
    };
    let test = eval(test);
    let train = eval(train);
    let report = EvalReport {
        model: name,
        test,
        train,
        final_loss,
        best_loss: best_loss.min(final_loss),
        epoch_losses,
        epochs_run,
    };
    observer.on_finish(&report);
    // With AHNTP_TRACE_OUT set, a finished training run leaves a readable
    // Chrome trace even if the process keeps going (no-op otherwise).
    ahntp_telemetry::flush_trace_to_env();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake model that memorises label frequencies per trustor — enough
    /// to exercise the loop mechanics deterministically.
    struct Majority {
        bias: f32,
        losses: Vec<f32>,
    }

    impl TrustModel for Majority {
        fn name(&self) -> String {
            "majority".into()
        }
        fn train_epoch(&mut self, pairs: &[LabeledPair]) -> f32 {
            let pos = pairs.iter().filter(|p| p.label).count() as f32;
            self.bias = pos / pairs.len() as f32;
            self.losses.remove(0)
        }
        fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
            pairs.iter().map(|_| self.bias).collect()
        }
    }

    fn pairs(labels: &[bool]) -> Vec<LabeledPair> {
        labels
            .iter()
            .enumerate()
            .map(|(i, &l)| LabeledPair {
                trustor: i,
                trustee: i + 1,
                label: l,
            })
            .collect()
    }

    #[test]
    fn early_stopping_kicks_in() {
        let mut m = Majority {
            bias: 0.0,
            losses: vec![1.0; 50],
        };
        let tr = pairs(&[true, false, false]);
        let te = pairs(&[true, false]);
        let report = train_and_evaluate(
            &mut m,
            &tr,
            &te,
            &TrainConfig {
                epochs: 50,
                patience: 3,
                ..TrainConfig::default()
            },
        );
        assert!(report.epochs_run <= 5, "flat loss must stop early");
    }

    #[test]
    fn improving_loss_runs_to_completion() {
        let mut m = Majority {
            bias: 0.0,
            losses: (0..20).map(|i| 1.0 / (i + 1) as f32).collect(),
        };
        let tr = pairs(&[true, false, false]);
        let te = pairs(&[true, false]);
        let report = train_and_evaluate(
            &mut m,
            &tr,
            &te,
            &TrainConfig {
                epochs: 20,
                patience: 3,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.epochs_run, 20);
        assert!((report.final_loss - 1.0 / 20.0).abs() < 1e-6);
        assert_eq!(report.best_loss, report.final_loss);
        assert_eq!(report.epoch_losses.len(), 20);
        assert_eq!(report.epoch_losses[0], 1.0);
    }

    #[test]
    fn best_loss_survives_a_late_regression() {
        // Loss dips to 0.2 then regresses; best_loss must keep the dip.
        let mut m = Majority {
            bias: 0.0,
            losses: vec![1.0, 0.2, 0.9, 0.8],
        };
        let tr = pairs(&[true, false]);
        let te = pairs(&[true, false]);
        let report = train_and_evaluate(
            &mut m,
            &tr,
            &te,
            &TrainConfig {
                epochs: 4,
                patience: 0,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.best_loss, 0.2);
        assert_eq!(report.final_loss, 0.8);
        assert_eq!(report.epoch_losses, vec![1.0, 0.2, 0.9, 0.8]);
    }

    #[test]
    #[should_panic(expected = "training diverged")]
    fn nan_loss_is_a_bug() {
        let mut m = Majority {
            bias: 0.0,
            losses: vec![f32::NAN],
        };
        let tr = pairs(&[true, false]);
        let te = pairs(&[true, false]);
        train_and_evaluate(&mut m, &tr, &te, &TrainConfig::default());
    }

    #[test]
    fn divergence_panic_names_epoch_and_recorded_op() {
        // Simulate what the autograd tape does under AHNTP_CHECK_FINITE:
        // record the first non-finite op, then diverge two epochs later.
        ahntp_telemetry::clear_nonfinite();
        struct Diverging {
            epoch: usize,
        }
        impl TrustModel for Diverging {
            fn name(&self) -> String {
                "diverging".into()
            }
            fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
                self.epoch += 1;
                if self.epoch == 3 {
                    ahntp_telemetry::record_nonfinite("exp", 42);
                    f32::NAN
                } else {
                    1.0 / self.epoch as f32
                }
            }
            fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
                vec![0.5; pairs.len()]
            }
        }
        let tr = pairs(&[true, false]);
        let te = pairs(&[true, false]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_and_evaluate(&mut Diverging { epoch: 0 }, &tr, &te, &TrainConfig::default());
        }));
        let err = result.expect_err("NaN loss must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic payload is a String");
        assert!(msg.contains("training diverged"), "got: {msg}");
        assert!(msg.contains("at epoch 2"), "got: {msg}");
        assert!(msg.contains("op `exp` at tape step 42"), "got: {msg}");
        ahntp_telemetry::clear_nonfinite();
    }

    #[test]
    fn observer_sees_every_epoch_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<String>,
            epochs: Vec<usize>,
            losses: Vec<f32>,
            finished: usize,
        }
        impl TrainObserver for Recorder {
            fn on_start(&mut self, model: &str, _cfg: &TrainConfig) {
                self.started.push(model.to_string());
            }
            fn on_epoch(&mut self, stats: &EpochStats) {
                assert_eq!(self.started.len(), 1, "on_start precedes epochs");
                assert_eq!(self.finished, 0, "on_finish comes last");
                self.epochs.push(stats.epoch);
                self.losses.push(stats.loss);
            }
            fn on_finish(&mut self, report: &EvalReport) {
                self.finished += 1;
                assert_eq!(self.epochs.len(), report.epochs_run);
            }
        }
        let mut m = Majority {
            bias: 0.0,
            losses: (0..10).map(|i| 1.0 / (i + 1) as f32).collect(),
        };
        let tr = pairs(&[true, false, false]);
        let te = pairs(&[true, false]);
        let mut rec = Recorder::default();
        let report = train_and_evaluate_observed(
            &mut m,
            &tr,
            &te,
            &TrainConfig {
                epochs: 10,
                patience: 0,
                ..TrainConfig::default()
            },
            &mut rec,
        );
        assert_eq!(rec.started, vec!["majority".to_string()]);
        assert_eq!(rec.epochs, (0..10).collect::<Vec<_>>());
        assert_eq!(rec.losses, report.epoch_losses);
        assert_eq!(rec.finished, 1);
        assert_eq!(report.epochs_run, 10);
    }

    #[test]
    fn ledger_observer_writes_one_record_per_epoch() {
        // A context of its own: `run_end` embeds this run's counters only.
        ahntp_telemetry::Scope::fresh().run(ledger_one_record_per_epoch);
    }

    fn ledger_one_record_per_epoch() {
        ahntp_telemetry::set_enabled(true);
        let dir = std::env::temp_dir().join(format!(
            "ahntp-eval-ledger-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Majority {
            bias: 0.0,
            losses: (0..5).map(|i| 1.0 / (i + 1) as f32).collect(),
        };
        let tr = pairs(&[true, false, false]);
        let te = pairs(&[true, false]);
        let mut obs = LedgerObserver::in_dir(&dir);
        let report = train_and_evaluate_observed(
            &mut m,
            &tr,
            &te,
            &TrainConfig {
                epochs: 5,
                patience: 0,
                ..TrainConfig::default()
            },
            &mut obs,
        );
        assert_eq!(report.epochs_run, 5);
        // on_finish consumed the ledger; find the file in the directory.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .expect("ledger dir exists")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert_eq!(entries.len(), 1, "one run → one ledger file");
        let text = std::fs::read_to_string(&entries[0]).expect("readable ledger");
        let records: Vec<Json> = text
            .lines()
            .map(|l| ahntp_telemetry::json::parse(l).expect("valid JSONL"))
            .collect();
        assert_eq!(records.len(), 7, "run_start + 5 epochs + run_end");
        let epoch_records: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("kind").and_then(Json::as_str) == Some("epoch"))
            .collect();
        assert_eq!(epoch_records.len(), 5);
        for (i, r) in epoch_records.iter().enumerate() {
            assert_eq!(r.get("epoch").and_then(Json::as_f64), Some(i as f64));
            assert!(r.get("loss").and_then(Json::as_f64).is_some());
            assert!(r.get("wall_us").and_then(Json::as_f64).is_some());
        }
        let end = records.last().expect("non-empty");
        assert_eq!(end.get("kind").and_then(Json::as_str), Some("run_end"));
        assert!(end.get("test_auc").and_then(Json::as_f64).is_some());
        let metrics = end.get("metrics").expect("run_end carries the metrics snapshot");
        let epochs = Some(report.epochs_run as f64);
        assert_eq!(metrics.get("train.epochs").and_then(Json::as_f64), epochs);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "empty split")]
    fn empty_split_rejected() {
        let mut m = Majority {
            bias: 0.0,
            losses: vec![1.0],
        };
        train_and_evaluate(&mut m, &[], &[], &TrainConfig::default());
    }
}

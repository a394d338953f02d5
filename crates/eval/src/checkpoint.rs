//! Crash-safe training: atomic checkpoint I/O and resumable entry points.
//!
//! The training loop is deterministic given the model's parameters, the
//! optimizer's state, and the epoch index (mini-batch plans are derived
//! statelessly from `(seed, epoch)`), so checkpointing *after each epoch*
//! and replaying from the last checkpoint reproduces an uninterrupted run
//! **bitwise** — same loss trajectory, same final parameters. This module
//! supplies the pieces the loop itself cannot know about:
//!
//! * [`TrainProgress`] — the loop-ledger slice of a checkpoint (epochs
//!   completed, best loss, patience clock, per-epoch losses).
//! * [`ResumableModel`] — a [`TrustModel`] that can serialise and restore
//!   its full training state (parameters + optimizer moments + sampler
//!   seed) as opaque bytes. `ahntp::Ahntp` implements this with the
//!   `AHNTP002` frame from `ahntp-nn`; the eval crate never sees the
//!   format.
//! * [`write_checkpoint_atomic`] / [`read_checkpoint`] — write-temp,
//!   fsync, rename. A crash at any instant leaves either the old
//!   checkpoint or the new one on disk, never a torn file (torn *temp*
//!   files are ignored on resume, and the CRC seal inside the frame
//!   catches anything that still slips through).
//! * [`train_and_evaluate_resumable`] /
//!   [`train_and_evaluate_minibatch_resumable`] — the resumable
//!   counterparts of the standard entry points, driven by a
//!   [`CheckpointConfig`].
//!
//! Fault injection: the I/O helpers carry `ckpt.io.write`,
//! `ckpt.io.fsync`, `ckpt.io.rename`, and `ckpt.io.read` failpoints
//! (crate `ahntp-faultz`), and the epoch loop itself carries
//! `train.epoch` — arming it with `nth(k)` kills training at epoch `k`,
//! which is how the crash-resume exactness suite simulates crashes.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::trainer::{env_observer, training_loop};
use crate::{BatchPlan, BatchTrustModel, EvalReport, TrainConfig, TrustModel};
use ahntp_data::{LabeledPair, MiniBatchConfig};
use ahntp_faultz::failpoint;

/// The training-loop ledger at a checkpoint boundary: everything the loop
/// needs to continue *besides* the model/optimizer state (which travels as
/// opaque bytes through [`ResumableModel`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainProgress {
    /// Epochs fully completed.
    pub epochs_done: usize,
    /// Best epoch loss seen so far (`f32::INFINITY` before epoch 1).
    pub best_loss: f32,
    /// Consecutive epochs without sufficient improvement (patience clock).
    pub stale: usize,
    /// Training loss of every completed epoch, in order.
    pub epoch_losses: Vec<f32>,
}

impl TrainProgress {
    /// Progress of a run that has not started: zero epochs, infinite best
    /// loss, empty trajectory.
    pub fn fresh() -> TrainProgress {
        TrainProgress {
            epochs_done: 0,
            best_loss: f32::INFINITY,
            stale: 0,
            epoch_losses: Vec::new(),
        }
    }
}

impl Default for TrainProgress {
    fn default() -> Self {
        Self::fresh()
    }
}

/// A [`TrustModel`] whose complete training state — parameters, optimizer
/// moments, sampler seed — can round-trip through bytes, making training
/// crash-safe and resumable.
///
/// The encoding is the model's business (AHNTP uses the CRC-sealed
/// `AHNTP002` frame from `ahntp-nn`); the contract is behavioural:
/// restoring the bytes into an identically-configured model and re-running
/// epochs `progress.epochs_done..` must reproduce an uninterrupted run
/// bitwise.
pub trait ResumableModel: TrustModel {
    /// Serialises the full training state, embedding the loop ledger
    /// `progress` so a resumed run continues the same trajectory.
    fn encode_train_state(&self, progress: &TrainProgress) -> Vec<u8>;

    /// Restores a state produced by [`ResumableModel::encode_train_state`]
    /// into this model, returning the embedded loop ledger.
    ///
    /// # Errors
    ///
    /// Returns a description when the bytes are corrupt, were written by a
    /// differently-configured model, or carry a different sampler seed —
    /// resuming from any of those would silently change the trajectory.
    fn decode_train_state(&mut self, bytes: &[u8]) -> Result<TrainProgress, String>;
}

/// A model that is both mini-batch-capable and resumable. Blanket-implemented;
/// exists so `dyn` call sites can name the combination.
pub trait ResumableBatchModel: BatchTrustModel + ResumableModel {}

impl<T: BatchTrustModel + ResumableModel + ?Sized> ResumableBatchModel for T {}

/// Where and how often to checkpoint, and whether to resume.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path. Written atomically (temp + fsync + rename),
    /// so the file is always either absent, the previous checkpoint, or
    /// the new one — never torn.
    pub path: PathBuf,
    /// Checkpoint after every `every`-th completed epoch (and always after
    /// the epoch that triggers early stopping). `1` = every epoch, the
    /// crash-safe default; larger values trade redone epochs on resume for
    /// less I/O. Values of 0 are treated as 1.
    pub every: usize,
    /// When set, restore this file before training and continue from its
    /// embedded progress. A missing file starts fresh (the normal state of
    /// a first run under a crash-restart supervisor); an unreadable or
    /// corrupt file panics rather than silently retraining from scratch.
    pub resume_from: Option<PathBuf>,
}

impl CheckpointConfig {
    /// Checkpoints every epoch to `path`, never resuming.
    pub fn new(path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            path: path.into(),
            every: 1,
            resume_from: None,
        }
    }

    /// Checkpoints every epoch to `path` and resumes from that same path
    /// when it exists — the crash-restart-supervisor configuration.
    pub fn resuming(path: impl Into<PathBuf>) -> CheckpointConfig {
        let path = path.into();
        CheckpointConfig {
            resume_from: Some(path.clone()),
            path,
            every: 1,
        }
    }
}

/// Writes `bytes` to `path` atomically: write a sibling temp file, fsync
/// it, then rename over the target. A crash at any point leaves the target
/// either untouched or fully written.
///
/// # Errors
///
/// Any I/O error from create/write/fsync/rename, or an injected fault from
/// the `ckpt.io.write` / `ckpt.io.fsync` / `ckpt.io.rename` failpoints.
pub fn write_checkpoint_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    failpoint!("ckpt.io.write");
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        failpoint!("ckpt.io.fsync");
        file.sync_all()?;
    }
    failpoint!("ckpt.io.rename");
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a checkpoint file written by [`write_checkpoint_atomic`].
///
/// # Errors
///
/// Any I/O error, or an injected fault from the `ckpt.io.read` failpoint.
pub fn read_checkpoint(path: &Path) -> std::io::Result<Vec<u8>> {
    failpoint!("ckpt.io.read");
    let bytes = std::fs::read(path)?;
    Ok(bytes)
}

/// Restores `ckpt.resume_from` into the model, or starts fresh.
///
/// # Panics
///
/// Panics when the checkpoint exists but cannot be read or decoded:
/// silently restarting from scratch would masquerade as a resume.
fn load_progress<M: ResumableModel + ?Sized>(
    model: &mut M,
    ckpt: &CheckpointConfig,
) -> TrainProgress {
    let Some(src) = &ckpt.resume_from else {
        return TrainProgress::fresh();
    };
    if !src.exists() {
        ahntp_telemetry::debug!("ckpt", "no checkpoint at {}: starting fresh", src.display());
        return TrainProgress::fresh();
    }
    let bytes = read_checkpoint(src)
        .unwrap_or_else(|e| panic!("cannot read checkpoint {}: {e}", src.display()));
    let progress = model
        .decode_train_state(&bytes)
        .unwrap_or_else(|e| panic!("refusing to resume from {}: {e}", src.display()));
    ahntp_telemetry::info!(
        "ckpt",
        "resumed from {} at epoch {} (best loss {})",
        src.display(),
        progress.epochs_done,
        progress.best_loss
    );
    progress
}

/// The per-epoch checkpoint hook shared by the resumable entry points.
///
/// # Panics
///
/// A failed checkpoint write panics: continuing would silently strip the
/// run of its crash safety, and the atomic-write protocol guarantees the
/// previous checkpoint is still intact for the supervisor to resume from.
fn checkpoint_hook<'a, M: ResumableModel + ?Sized>(
    ckpt: &'a CheckpointConfig,
) -> impl FnMut(&M, &TrainProgress) + 'a {
    let every = ckpt.every.max(1);
    move |model: &M, progress: &TrainProgress| {
        if !progress.epochs_done.is_multiple_of(every) {
            return;
        }
        let bytes = model.encode_train_state(progress);
        write_checkpoint_atomic(&ckpt.path, &bytes).unwrap_or_else(|e| {
            panic!(
                "checkpoint write failed at epoch {} ({}): {e}",
                progress.epochs_done,
                ckpt.path.display()
            )
        });
    }
}

/// [`crate::train_and_evaluate`] with crash safety: restores
/// `ckpt.resume_from` when present, then checkpoints the full training
/// state after every `ckpt.every`-th epoch. A run killed at any point and
/// resumed from its last checkpoint produces the same loss trajectory and
/// final parameters, bit for bit, as one that was never interrupted. The
/// run ledger (`AHNTP_TELEMETRY=1`) sees only the epochs this process
/// actually runs — a resumed run starts its epoch records at the resume
/// point.
///
/// # Panics
///
/// As [`crate::train_and_evaluate`], plus on unreadable/corrupt resume
/// checkpoints and failed checkpoint writes (see [`CheckpointConfig`]).
pub fn train_and_evaluate_resumable(
    model: &mut dyn ResumableModel,
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
    ckpt: &CheckpointConfig,
) -> EvalReport {
    let init = load_progress(model, ckpt);
    training_loop(
        model,
        |m, _epoch| m.train_epoch(train),
        init,
        checkpoint_hook(ckpt),
        train,
        test,
        cfg,
        env_observer().as_mut(),
    )
}

/// [`crate::train_and_evaluate_minibatch`] with crash safety — see
/// [`train_and_evaluate_resumable`]. Mini-batch plans are derived
/// statelessly from `(seed, epoch)`, so resumed epochs rebuild exactly the
/// plans the uninterrupted run would have used.
///
/// # Panics
///
/// As [`crate::train_and_evaluate_minibatch`] and
/// [`train_and_evaluate_resumable`].
pub fn train_and_evaluate_minibatch_resumable(
    model: &mut dyn ResumableBatchModel,
    train: &[LabeledPair],
    test: &[LabeledPair],
    cfg: &TrainConfig,
    mb: &MiniBatchConfig,
    ckpt: &CheckpointConfig,
) -> EvalReport {
    mb.validate().expect("invalid mini-batch config");
    let init = load_progress(model, ckpt);
    training_loop(
        model,
        |m, epoch| {
            ahntp_faultz::enforce("train.plan");
            let plan = BatchPlan::for_epoch(train, mb, epoch as u64);
            m.train_epoch_planned(&plan)
        },
        init,
        checkpoint_hook(ckpt),
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
    use ahntp_faultz::{scoped, Action, FaultSpec};

    /// A deterministic fake model: epoch `k` (1-based internal step) yields
    /// loss `1/step`, and the full state is just the step counter — enough
    /// to prove the resume plumbing replays trajectories exactly.
    struct Counter {
        step: u32,
    }

    impl TrustModel for Counter {
        fn name(&self) -> String {
            "counter".into()
        }
        fn train_epoch(&mut self, _pairs: &[LabeledPair]) -> f32 {
            self.step += 1;
            1.0 / self.step as f32
        }
        fn predict(&self, pairs: &[LabeledPair]) -> Vec<f32> {
            vec![0.5 + 0.001 * self.step as f32; pairs.len()]
        }
    }

    impl ResumableModel for Counter {
        fn encode_train_state(&self, progress: &TrainProgress) -> Vec<u8> {
            let mut out = self.step.to_le_bytes().to_vec();
            out.extend((progress.epochs_done as u32).to_le_bytes());
            out.extend(progress.best_loss.to_le_bytes());
            out.extend((progress.stale as u32).to_le_bytes());
            out.extend((progress.epoch_losses.len() as u32).to_le_bytes());
            for &l in &progress.epoch_losses {
                out.extend(l.to_le_bytes());
            }
            out
        }
        fn decode_train_state(&mut self, bytes: &[u8]) -> Result<TrainProgress, String> {
            let word = |i: usize| -> Result<[u8; 4], String> {
                bytes
                    .get(4 * i..4 * i + 4)
                    .map(|s| [s[0], s[1], s[2], s[3]])
                    .ok_or_else(|| "truncated fake state".to_string())
            };
            self.step = u32::from_le_bytes(word(0)?);
            let epochs_done = u32::from_le_bytes(word(1)?) as usize;
            let best_loss = f32::from_le_bytes(word(2)?);
            let stale = u32::from_le_bytes(word(3)?) as usize;
            let n = u32::from_le_bytes(word(4)?) as usize;
            let mut epoch_losses = Vec::with_capacity(n);
            for i in 0..n {
                epoch_losses.push(f32::from_le_bytes(word(5 + i)?));
            }
            Ok(TrainProgress {
                epochs_done,
                best_loss,
                stale,
                epoch_losses,
            })
        }
    }

    fn pairs(n: usize) -> Vec<LabeledPair> {
        (0..n)
            .map(|i| LabeledPair {
                trustor: i,
                trustee: i + 1,
                label: i % 2 == 0,
            })
            .collect()
    }

    fn tmp_path(tag: &str) -> PathBuf {
        // Pid and thread id: two tests sharing a tag never share a file.
        std::env::temp_dir().join(format!(
            "ahntp-ckpt-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let path = tmp_path("atomic");
        write_checkpoint_atomic(&path, b"first").expect("write");
        assert_eq!(read_checkpoint(&path).expect("read"), b"first");
        write_checkpoint_atomic(&path, b"second").expect("overwrite");
        assert_eq!(read_checkpoint(&path).expect("read"), b"second");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_io_faults_surface_and_preserve_the_old_checkpoint() {
        let path = tmp_path("faulty");
        write_checkpoint_atomic(&path, b"good").expect("write");
        for site in ["ckpt.io.write", "ckpt.io.fsync", "ckpt.io.rename"] {
            let _fp = scoped(site, FaultSpec::new(Action::Err));
            let err = write_checkpoint_atomic(&path, b"bad").expect_err(site);
            assert!(err.to_string().contains(site), "{err}");
            assert_eq!(
                read_checkpoint(&path).expect("old checkpoint intact"),
                b"good",
                "fault at {site} must not damage the previous checkpoint"
            );
        }
        let _fp = scoped("ckpt.io.read", FaultSpec::new(Action::Err));
        assert!(read_checkpoint(&path).is_err());
        drop(_fp);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("tmp"));
    }

    #[test]
    fn resumed_run_reproduces_the_uninterrupted_report() {
        let tr = pairs(6);
        let te = pairs(4);
        let cfg = TrainConfig {
            epochs: 6,
            patience: 0,
            ..TrainConfig::default()
        };
        // Golden: uninterrupted.
        let golden = train_and_evaluate(&mut Counter { step: 0 }, &tr, &te, &cfg);

        // Interrupted: run only 3 epochs, checkpointing each one.
        let path = tmp_path("resume");
        let _ = std::fs::remove_file(&path);
        let half_cfg = TrainConfig { epochs: 3, ..cfg };
        let ckpt = CheckpointConfig::resuming(&path);
        train_and_evaluate_resumable(&mut Counter { step: 0 }, &tr, &te, &half_cfg, &ckpt);

        // Resume in a *fresh* model and finish.
        let mut resumed_model = Counter { step: 0 };
        let resumed = train_and_evaluate_resumable(&mut resumed_model, &tr, &te, &cfg, &ckpt);
        assert_eq!(resumed.epoch_losses, golden.epoch_losses);
        assert_eq!(resumed.final_loss, golden.final_loss);
        assert_eq!(resumed.best_loss, golden.best_loss);
        assert_eq!(resumed.epochs_run, golden.epochs_run);
        assert_eq!(resumed_model.step, 6, "model state restored, not re-run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_from_a_finished_run_runs_zero_epochs() {
        let tr = pairs(4);
        let te = pairs(4);
        let cfg = TrainConfig {
            epochs: 4,
            patience: 0,
            ..TrainConfig::default()
        };
        let path = tmp_path("finished");
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointConfig::resuming(&path);
        let first = train_and_evaluate_resumable(&mut Counter { step: 0 }, &tr, &te, &cfg, &ckpt);
        let mut again_model = Counter { step: 0 };
        let again = train_and_evaluate_resumable(&mut again_model, &tr, &te, &cfg, &ckpt);
        assert_eq!(again.epoch_losses, first.epoch_losses);
        assert_eq!(again.epochs_run, first.epochs_run);
        assert_eq!(again_model.step, 4, "no epochs re-run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_resume_file_starts_fresh_and_corrupt_one_panics() {
        let tr = pairs(4);
        let te = pairs(4);
        let cfg = TrainConfig {
            epochs: 2,
            patience: 0,
            ..TrainConfig::default()
        };
        let path = tmp_path("corrupt");
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointConfig::resuming(&path);
        let report = train_and_evaluate_resumable(&mut Counter { step: 0 }, &tr, &te, &cfg, &ckpt);
        assert_eq!(report.epochs_run, 2, "missing file → fresh run");

        std::fs::write(&path, b"xy").expect("plant corrupt checkpoint");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            train_and_evaluate_resumable(&mut Counter { step: 0 }, &tr, &te, &cfg, &ckpt);
        }));
        let err = result.expect_err("corrupt checkpoint must not silently retrain");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("refusing to resume"), "{msg}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn train_epoch_failpoint_kills_training_mid_run() {
        let tr = pairs(4);
        let te = pairs(4);
        let cfg = TrainConfig {
            epochs: 5,
            patience: 0,
            ..TrainConfig::default()
        };
        let path = tmp_path("killed");
        let _ = std::fs::remove_file(&path);
        let ckpt = CheckpointConfig::resuming(&path);
        {
            let _fp = scoped("train.epoch", FaultSpec::new(Action::Panic).on_nth(3));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                train_and_evaluate_resumable(&mut Counter { step: 0 }, &tr, &te, &cfg, &ckpt);
            }));
            assert!(result.is_err(), "third epoch must crash");
        }
        // Two epochs were checkpointed before the crash; resume finishes.
        let mut resumed = Counter { step: 0 };
        let report = train_and_evaluate_resumable(&mut resumed, &tr, &te, &cfg, &ckpt);
        assert_eq!(report.epochs_run, 5);
        assert_eq!(resumed.step, 5);
        let golden = train_and_evaluate(&mut Counter { step: 0 }, &tr, &te, &cfg);
        assert_eq!(report.epoch_losses, golden.epoch_losses);
        let _ = std::fs::remove_file(&path);
    }
}

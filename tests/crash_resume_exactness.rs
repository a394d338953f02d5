//! Crash-safe resume exactness: killing training at any epoch via a
//! failpoint and resuming from the checkpoint must reproduce the
//! uninterrupted run **bitwise** — the same loss trajectory and the same
//! final parameters.
//!
//! Three kill points are exercised (before the first epoch, mid-run, and
//! before the final epoch), plus a checkpoint-write crash whose atomic
//! temp-fsync-rename protocol must leave the previous checkpoint intact.
//! The fixed-seed resumed trajectory is pinned in a checked-in golden
//! file; regenerate after an *intentional* numeric change with
//! `AHNTP_REGEN_GOLDEN=1 cargo test --test crash_resume_exactness`.

use ahntp::{Ahntp, AhntpConfig};
use ahntp_data::{DatasetConfig, MiniBatchConfig, Split, TrustDataset};
use ahntp_eval::{
    train_and_evaluate_minibatch_resumable, CheckpointConfig, EvalReport, TrainConfig, TrustModel,
};
use ahntp_faultz::{self as faultz, Action, FaultSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const EPOCHS: usize = 5;

fn setup() -> (TrustDataset, Split) {
    let ds = TrustDataset::generate(&DatasetConfig::ciao_like(60, 5));
    let split = ds.split(0.8, 0.2, 2, 42);
    (ds, split)
}

fn model(ds: &TrustDataset, split: &Split) -> Ahntp {
    let cfg = AhntpConfig {
        conv_dims: vec![8, 4],
        tower_dims: vec![4],
        seed: 7,
        ..AhntpConfig::default()
    };
    Ahntp::new(&ds.features, &ds.attributes, &split.train_graph, &cfg)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        epochs: EPOCHS,
        patience: 0,
        ..TrainConfig::default()
    }
}

fn mb_cfg() -> MiniBatchConfig {
    MiniBatchConfig::sampled(0.5, 64, 2, 11)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ahntp-crash-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The reference: a checkpointing run that is never interrupted.
fn uninterrupted(dir: &Path) -> (EvalReport, Vec<f32>) {
    let (ds, split) = setup();
    let mut m = model(&ds, &split);
    let ckpt = CheckpointConfig::new(dir.join("uninterrupted.ckpt"));
    let report = train_and_evaluate_minibatch_resumable(
        &mut m,
        &split.train,
        &split.test,
        &train_cfg(),
        &mb_cfg(),
        &ckpt,
    );
    (report, m.predict(&split.test))
}

/// Runs the `body` expecting it to panic. The panic hook is process-wide,
/// so it is left alone: the report lands in the test's captured output.
fn expect_panic(body: impl FnOnce()) {
    let outcome = catch_unwind(AssertUnwindSafe(body));
    assert!(outcome.is_err(), "the armed failpoint should have fired");
}

/// Kills training at `site`'s `nth`-th hit, then resumes a *fresh* model
/// from the checkpoint the victim left behind and runs it to completion —
/// exactly what a crash-restart supervisor does.
fn crashed_then_resumed(dir: &Path, site: &str, nth: u64) -> (EvalReport, Vec<f32>) {
    let (ds, split) = setup();
    let path = dir.join(format!("kill-{site}-{nth}.ckpt"));
    {
        let _fault = faultz::scoped(site, FaultSpec::new(Action::Panic).on_nth(nth));
        let mut victim = model(&ds, &split);
        let ckpt = CheckpointConfig::new(path.clone());
        expect_panic(|| {
            train_and_evaluate_minibatch_resumable(
                &mut victim,
                &split.train,
                &split.test,
                &train_cfg(),
                &mb_cfg(),
                &ckpt,
            );
        });
    } // scope drop disarms the failpoint
    let mut survivor = model(&ds, &split);
    let ckpt = CheckpointConfig::resuming(path);
    let report = train_and_evaluate_minibatch_resumable(
        &mut survivor,
        &split.train,
        &split.test,
        &train_cfg(),
        &mb_cfg(),
        &ckpt,
    );
    (report, survivor.predict(&split.test))
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|l| l.to_bits()).collect()
}

fn assert_bitwise_equal(base: &(EvalReport, Vec<f32>), got: &(EvalReport, Vec<f32>), tag: &str) {
    assert_eq!(
        got.0.epochs_run, base.0.epochs_run,
        "{tag}: resumed run reports a different epoch count"
    );
    assert_eq!(
        bits(&got.0.epoch_losses),
        bits(&base.0.epoch_losses),
        "{tag}: loss trajectory diverged after resume"
    );
    assert_eq!(
        got.0.final_loss.to_bits(),
        base.0.final_loss.to_bits(),
        "{tag}: final loss diverged"
    );
    assert_eq!(
        bits(&got.1),
        bits(&base.1),
        "{tag}: post-training predictions (i.e. parameters) diverged"
    );
}

/// The tentpole property: crash at the first epoch (no checkpoint yet —
/// resume degrades to a fresh start), mid-run, and just before the final
/// epoch; every resumed trajectory equals the uninterrupted one bitwise.
#[test]
fn killed_and_resumed_runs_match_the_uninterrupted_run_bitwise() {
    // A dir of its own: a leftover checkpoint would turn the "no
    // checkpoint yet" kill into a full resume and test nothing.
    let dir = scratch_dir("kills");
    let base = uninterrupted(&dir);
    assert_eq!(base.0.epochs_run, EPOCHS);
    // `train.epoch` is hit once per epoch, 1-based: nth(1) dies before
    // anything is checkpointed, nth(3) mid-run, nth(5) before the
    // final epoch.
    for kill_at in [1u64, 3, EPOCHS as u64] {
        let resumed = crashed_then_resumed(&dir, "train.epoch", kill_at);
        assert_bitwise_equal(&base, &resumed, &format!("killed at epoch hit {kill_at}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash *inside* the checkpoint protocol (the rename step of the
/// second write) must leave the first checkpoint intact — resume picks it
/// up and still lands bitwise on the uninterrupted run.
#[test]
fn checkpoint_write_crash_leaves_a_usable_previous_checkpoint() {
    let dir = scratch_dir("torn-write");
    let base = uninterrupted(&dir);
    // `ckpt.io.rename` injects an Err; the checkpoint hook escalates a
    // failed write to a panic, so the run dies after epoch 2 with only
    // epoch 1's checkpoint on disk.
    let resumed = crashed_then_resumed(&dir, "ckpt.io.rename", 2);
    assert_bitwise_equal(&base, &resumed, "crash in checkpoint rename");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renders the resumed fixed-seed trajectory as hex f32 bits — the format
/// of the checked-in golden file.
fn render_trajectory(report: &EvalReport) -> String {
    let mut out = String::from(
        "# fixed-seed crash-resume loss trajectory, f32 bits in hex\n\
         # regenerate: AHNTP_REGEN_GOLDEN=1 cargo test --test crash_resume_exactness\n",
    );
    for l in &report.epoch_losses {
        out.push_str(&format!("resumed {:08x}\n", l.to_bits()));
    }
    out
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/crash_resume_trajectory.txt")
}

/// Pins the resumed trajectory against the checked-in golden file,
/// byte-for-byte.
#[test]
fn golden_resumed_trajectory_bytes_exact() {
    let dir = scratch_dir("golden");
    let (report, _) = crashed_then_resumed(&dir, "train.epoch", 3);
    let rendered = render_trajectory(&report);
    let _ = std::fs::remove_dir_all(&dir);
    let path = golden_path();
    if std::env::var("AHNTP_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    assert_eq!(
        rendered,
        golden,
        "resumed trajectory drifted from {}; if the numeric change is \
         intentional, regenerate with AHNTP_REGEN_GOLDEN=1",
        path.display()
    );
}

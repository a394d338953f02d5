//! Full-training-state checkpoints for crash-safe, bitwise-exact resume.
//!
//! An `AHNTP001` frame ([`crate::save_params`]) captures *parameters only* —
//! enough to serve a model, not enough to continue training it: Adam's
//! moment estimates and bias-correction clock, the early-stopping ledger,
//! and the epoch counter all live outside the parameter list. [`TrainState`]
//! captures everything, so a run killed at epoch *k* and resumed from its
//! last checkpoint replays epochs *k+1..n* **bitwise identically** to a run
//! that was never interrupted (AHNTP's per-epoch mini-batch plans are
//! derived statelessly from `(seed, epoch)`, so the RNG "state" is the seed
//! itself).
//!
//! Frame layout (`AHNTP002`, little-endian throughout):
//!
//! ```text
//! magic "AHNTP002" (8 bytes)
//! u64 architecture fingerprint (0 = untagged)
//! u64 rng state (the config seed for counter-based samplers)
//! u32 epochs completed
//! f32 best loss so far (early-stopping ledger)
//! u32 epochs since best loss ("stale" counter)
//! u32 loss count, f32 per-epoch losses
//! u32 Adam step clock (t)
//! u32 param count
//! per parameter:
//!   u32 name length, name bytes (UTF-8)
//!   tensor value   (u8 rank, u32 rows, u32 cols, f32 data)
//!   tensor Adam m  (same layout, same shape)
//!   tensor Adam v  (same layout, same shape)
//! u32 CRC-32 of everything above (see `frame::seal`)
//! ```
//!
//! Like `AHNTP001`, loading is by name into an existing model/optimizer
//! pair, gated by the architecture fingerprint, and the trailing CRC is
//! verified before any field is trusted — a checkpoint torn by a crash
//! mid-write fails with a "checksum" error instead of half-loading.

use crate::frame::{
    check_seal, get_string, get_tensor, need, put_f32s, put_string, put_tensor, seal, take,
};
use crate::optim::{Adam, Optimizer};
use crate::serialize::CheckpointError;
use ahntp_faultz::failpoint;
use ahntp_tensor::Tensor;

const MAGIC: &[u8; 8] = b"AHNTP002";

/// One parameter's slice of the training state: its value and the Adam
/// moment estimates that were driving it.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamState {
    /// Parameter name (matched by name on [`TrainState::apply`]).
    pub name: String,
    /// Parameter value at checkpoint time.
    pub value: Tensor,
    /// Adam first-moment estimate.
    pub m: Tensor,
    /// Adam second-moment estimate.
    pub v: Tensor,
}

/// A complete training checkpoint: parameters, optimizer moments, and the
/// training-loop ledger. See the module docs for the `AHNTP002` layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainState {
    /// Architecture fingerprint of the model that wrote the state
    /// (0 = untagged, never verified).
    pub fingerprint: u64,
    /// Sampler RNG state. AHNTP's mini-batch plans are counter-based
    /// (derived from `(seed, epoch)`), so this is the config seed; resume
    /// verifies it matches the resuming config.
    pub rng_state: u64,
    /// Number of epochs fully completed before the checkpoint.
    pub epochs_done: u32,
    /// Best epoch loss seen so far (`f32::INFINITY` before epoch 1).
    pub best_loss: f32,
    /// Epochs since `best_loss` improved (early-stopping patience clock).
    pub stale: u32,
    /// Mean loss of every completed epoch, in order.
    pub epoch_losses: Vec<f32>,
    /// Adam's bias-correction step clock.
    pub adam_t: u32,
    /// Per-parameter values and moments, in optimizer order.
    pub params: Vec<ParamState>,
}

impl TrainState {
    /// Captures the optimizer's full state (parameter values, moment
    /// estimates, and step clock) together with the training-loop ledger.
    pub fn capture(
        optimizer: &Adam,
        fingerprint: u64,
        rng_state: u64,
        epochs_done: u32,
        best_loss: f32,
        stale: u32,
        epoch_losses: &[f32],
    ) -> TrainState {
        let (m, v) = optimizer.moments();
        let params = optimizer
            .params()
            .iter()
            .zip(m.iter().zip(v))
            .map(|(p, (m, v))| ParamState {
                name: p.name(),
                value: p.value(),
                m: m.clone(),
                v: v.clone(),
            })
            .collect();
        TrainState {
            fingerprint,
            rng_state,
            epochs_done,
            best_loss,
            stale,
            epoch_losses: epoch_losses.to_vec(),
            adam_t: optimizer.step_count(),
            params,
        }
    }

    /// Serialises the state into a CRC-sealed `AHNTP002` frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.rng_state.to_le_bytes());
        buf.extend_from_slice(&self.epochs_done.to_le_bytes());
        buf.extend_from_slice(&self.best_loss.to_le_bytes());
        buf.extend_from_slice(&self.stale.to_le_bytes());
        buf.extend_from_slice(&(self.epoch_losses.len() as u32).to_le_bytes());
        put_f32s(&mut buf, &self.epoch_losses);
        buf.extend_from_slice(&self.adam_t.to_le_bytes());
        buf.extend_from_slice(&(self.params.len() as u32).to_le_bytes());
        for p in &self.params {
            put_string(&mut buf, &p.name);
            put_tensor(&mut buf, &p.value);
            put_tensor(&mut buf, &p.m);
            put_tensor(&mut buf, &p.v);
        }
        seal(&mut buf);
        buf
    }

    /// Decodes an `AHNTP002` frame, verifying the trailing CRC first.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Malformed`] on checksum failures, bad
    /// magic, truncation, or shape/moment inconsistencies inside an entry.
    pub fn decode(data: &[u8]) -> Result<TrainState, CheckpointError> {
        failpoint!("ckpt.state.decode");
        let malformed = |m: String| CheckpointError::Malformed(m);
        let mut data = check_seal(data).map_err(malformed)?;
        need(data, 8, "magic").map_err(malformed)?;
        if &data[..8] != MAGIC {
            return Err(CheckpointError::Malformed(
                "bad magic (not an AHNTP002 training state)".into(),
            ));
        }
        data = &data[8..];
        need(data, 8 + 8 + 4 + 4 + 4 + 4, "header").map_err(malformed)?;
        let fingerprint = u64::from_le_bytes(take(&mut data));
        let rng_state = u64::from_le_bytes(take(&mut data));
        let epochs_done = u32::from_le_bytes(take(&mut data));
        let best_loss = f32::from_le_bytes(take(&mut data));
        let stale = u32::from_le_bytes(take(&mut data));
        let n_losses = u32::from_le_bytes(take(&mut data)) as usize;
        let mut epoch_losses = Vec::with_capacity(n_losses.min(1 << 16));
        for i in 0..n_losses {
            need(data, 4, &format!("epoch loss {i}")).map_err(malformed)?;
            epoch_losses.push(f32::from_le_bytes(take(&mut data)));
        }
        need(data, 8, "optimizer header").map_err(malformed)?;
        let adam_t = u32::from_le_bytes(take(&mut data));
        let count = u32::from_le_bytes(take(&mut data)) as usize;
        let mut params = Vec::with_capacity(count.min(1 << 16));
        for i in 0..count {
            let name = get_string(&mut data, &format!("param {i} name")).map_err(malformed)?;
            let value = get_tensor(&mut data, &format!("param {name}")).map_err(malformed)?;
            let m = get_tensor(&mut data, &format!("param {name} moment m")).map_err(malformed)?;
            let v = get_tensor(&mut data, &format!("param {name} moment v")).map_err(malformed)?;
            if m.shape() != value.shape() || v.shape() != value.shape() {
                return Err(CheckpointError::Malformed(format!(
                    "param {name}: moment shapes {} / {} disagree with value shape {}",
                    m.shape(),
                    v.shape(),
                    value.shape()
                )));
            }
            params.push(ParamState { name, value, m, v });
        }
        if !data.is_empty() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after training state",
                data.len()
            )));
        }
        Ok(TrainState {
            fingerprint,
            rng_state,
            epochs_done,
            best_loss,
            stale,
            epoch_losses,
            adam_t,
            params,
        })
    }

    /// Restores the captured state into an existing optimizer (and, through
    /// it, the model's parameters), matching entries by name.
    ///
    /// When both `expected_fingerprint` and the stored fingerprint are
    /// non-zero they must agree — the check runs before any parameter is
    /// touched. Every optimizer parameter must be present with the right
    /// shape; extra entries in the state are ignored.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::WrongArchitecture`], [`CheckpointError::Missing`],
    /// or [`CheckpointError::ShapeMismatch`], in which case the optimizer's
    /// moments are untouched (parameter values may be partially updated on
    /// a shape error discovered mid-list — rebuild on error).
    pub fn apply(
        &self,
        optimizer: &mut Adam,
        expected_fingerprint: u64,
    ) -> Result<(), CheckpointError> {
        if expected_fingerprint != 0
            && self.fingerprint != 0
            && expected_fingerprint != self.fingerprint
        {
            return Err(CheckpointError::WrongArchitecture {
                expected: expected_fingerprint,
                found: self.fingerprint,
            });
        }
        let mut m = Vec::with_capacity(optimizer.params().len());
        let mut v = Vec::with_capacity(optimizer.params().len());
        // Resolve every entry before mutating anything.
        let mut resolved = Vec::with_capacity(optimizer.params().len());
        for p in optimizer.params() {
            let name = p.name();
            let entry = self
                .params
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| CheckpointError::Missing(name.clone()))?;
            if p.value().shape() != entry.value.shape() {
                return Err(CheckpointError::ShapeMismatch {
                    name,
                    expected: p.value().shape().to_string(),
                    found: entry.value.shape().to_string(),
                });
            }
            resolved.push(entry);
        }
        for (p, entry) in optimizer.params().iter().zip(&resolved) {
            p.set_value(entry.value.clone());
            m.push(entry.m.clone());
            v.push(entry.v.clone());
        }
        optimizer
            .restore_state(self.adam_t, m, v)
            .map_err(CheckpointError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdamConfig, Linear, Module, Param, Session};

    fn trained_optimizer() -> (Linear, Adam) {
        let layer = Linear::new("l", 3, 2, 7);
        let mut opt = Adam::new(layer.params(), AdamConfig::default());
        for _ in 0..3 {
            opt.zero_grad();
            let s = Session::new();
            let x = s.constant(ahntp_tensor::xavier_uniform(4, 3, 5));
            layer.forward(&s, &x).sum().backward();
            s.harvest();
            opt.step();
        }
        (layer, opt)
    }

    #[test]
    fn train_state_round_trips_bitwise() {
        let (_layer, opt) = trained_optimizer();
        let state = TrainState::capture(&opt, 0xabc, 42, 3, 0.5, 1, &[0.9, 0.7, 0.5]);
        let blob = state.encode();
        let back = TrainState::decode(&blob).expect("intact frame decodes");
        assert_eq!(back, state);
        assert_eq!(back.adam_t, 3);
        assert_eq!(back.rng_state, 42);
    }

    #[test]
    fn apply_restores_params_and_moments() {
        let (layer, opt) = trained_optimizer();
        let state = TrainState::capture(&opt, 0, 0, 3, 0.5, 0, &[]);
        let values: Vec<_> = layer.params().iter().map(Param::value).collect();

        // A fresh model/optimizer pair with a different seed.
        let fresh = Linear::new("l", 3, 2, 99);
        let mut fresh_opt = Adam::new(fresh.params(), AdamConfig::default());
        state.apply(&mut fresh_opt, 0).expect("same architecture");
        let restored: Vec<_> = fresh.params().iter().map(Param::value).collect();
        assert_eq!(restored, values);
        assert_eq!(fresh_opt.step_count(), 3);
        let (m, v) = fresh_opt.moments();
        let (m0, v0) = opt.moments();
        assert_eq!(m, m0);
        assert_eq!(v, v0);
    }

    #[test]
    fn fingerprints_gate_apply() {
        let (_layer, mut opt) = trained_optimizer();
        let state = TrainState::capture(&opt, 0xaaa, 0, 1, 0.5, 0, &[0.5]);
        let err = state.apply(&mut opt, 0xbbb).unwrap_err();
        assert!(matches!(err, CheckpointError::WrongArchitecture { .. }));
        state.apply(&mut opt, 0xaaa).expect("matching fingerprint");
        state
            .apply(&mut opt, 0)
            .expect("untagged caller skips the check");
    }

    #[test]
    fn corruption_and_truncation_are_rejected() {
        let (_layer, opt) = trained_optimizer();
        let blob = TrainState::capture(&opt, 1, 2, 3, 0.5, 0, &[0.5]).encode();
        for len in 0..blob.len() {
            assert!(TrainState::decode(&blob[..len]).is_err(), "len {len}");
        }
        let mut bad = blob.to_vec();
        bad[10] ^= 0x01;
        let err = TrainState::decode(&bad).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn missing_and_misshapen_params_are_reported() {
        let (_layer, opt) = trained_optimizer();
        let state = TrainState::capture(&opt, 0, 0, 1, 0.5, 0, &[]);

        let other = Linear::new("other", 3, 2, 1);
        let mut other_opt = Adam::new(other.params(), AdamConfig::default());
        assert!(matches!(
            state.apply(&mut other_opt, 0).unwrap_err(),
            CheckpointError::Missing(_)
        ));

        let wide = Linear::new("l", 3, 4, 1);
        let mut wide_opt = Adam::new(wide.params(), AdamConfig::default());
        assert!(matches!(
            state.apply(&mut wide_opt, 0).unwrap_err(),
            CheckpointError::ShapeMismatch { .. }
        ));
    }
}

//! Decoder fuzzing for every persisted binary format in the stack:
//! `AHNTP001` parameter checkpoints, `AHNTP002` training states, and
//! `AHNTPSRV1` serving artifacts. Random truncations, byte flips, and
//! outright garbage must come back as typed errors — never a panic, and
//! (thanks to the trailing CRC seal on every frame) never a silently
//! wrong decode.
//!
//! Uses the vendored proptest stub: strategies are hand-rolled against
//! its `Strategy` trait, and the deterministic `TestRng` keeps every case
//! reproducible.

use ahntp_nn::{load_params, Param, ParamState, TrainState, TrustArtifact};
use ahntp_tensor::Tensor;
use proptest::prelude::*;
use proptest::TestRng;

fn params() -> Vec<Param> {
    vec![
        Param::new(
            "layer.weight",
            Tensor::from_vec(2, 3, vec![0.5, -1.25, 3.0, 0.0, 42.5, -0.015625]).unwrap(),
        ),
        Param::new("layer.bias", Tensor::vector(vec![1.0, -2.0, 0.25])),
    ]
}

fn train_state() -> TrainState {
    TrainState {
        fingerprint: 0xdead_beef_cafe_f00d,
        rng_state: 7,
        epochs_done: 3,
        best_loss: 0.125,
        stale: 1,
        epoch_losses: vec![0.5, 0.125, 0.25],
        adam_t: 3,
        params: params()
            .iter()
            .map(|p| ParamState {
                name: p.name(),
                value: p.value(),
                m: p.value(),
                v: p.value(),
            })
            .collect(),
    }
}

fn artifact() -> TrustArtifact {
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0xfeed_beef_0000_0001,
        calibration: 0.5,
        n_users: 3,
        emb_dim: 2,
        head_dim: 2,
        embeddings: vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0].into(),
        trustor_head: vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.5].into(),
        trustee_head: vec![0.0, 1.0, 1.0, 0.0, 0.5, -0.5].into(),
    }
}

/// The three well-formed frames the corruptions start from.
fn frames() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "AHNTP001",
            ahntp_nn::save_params_tagged(&params(), 0xabcd).to_vec(),
        ),
        ("AHNTP002", train_state().encode().to_vec()),
        ("AHNTPSRV1", artifact().encode_v2()),
    ]
}

/// Decodes `bytes` as format `kind`; `Ok` is the decoded-successfully
/// signal, `Err` carries the typed error's message. A panic anywhere in
/// here fails the calling property.
fn try_decode(kind: &str, bytes: &[u8]) -> Result<(), String> {
    match kind {
        "AHNTP001" => load_params(&params(), bytes).map_err(|e| e.to_string()),
        "AHNTP002" => TrainState::decode(bytes)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        "AHNTPSRV1" => TrustArtifact::decode(bytes)
            .map(|_| ())
            .map_err(|e| e.to_string()),
        other => panic!("unknown frame kind {other}"),
    }
}

/// Sanity: the pristine frames all decode, so the rejections below are
/// caused by the corruption and nothing else.
#[test]
fn pristine_frames_decode() {
    for (kind, bytes) in frames() {
        try_decode(kind, &bytes).unwrap_or_else(|e| panic!("{kind}: pristine frame failed: {e}"));
    }
}

/// Random raw bytes, CRC-sealed or not, valid magic or not.
struct ArbBytes {
    max_len: usize,
}

impl Strategy for ArbBytes {
    type Value = Vec<u8>;
    fn generate(&self, rng: &mut TestRng) -> Vec<u8> {
        let len = rng.below(self.max_len);
        (0..len).map(|_| rng.below(256) as u8).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncations_are_rejected_with_typed_errors(cut in 0usize..1_000_000) {
        for (kind, bytes) in frames() {
            let keep = cut % bytes.len(); // strictly shorter than the frame
            let err = try_decode(kind, &bytes[..keep]);
            prop_assert!(
                err.is_err(),
                "{} decoded a frame truncated to {} of {} bytes",
                kind, keep, bytes.len()
            );
            prop_assert!(!err.unwrap_err().is_empty(), "{} error has no message", kind);
        }
    }

    #[test]
    fn single_byte_flips_are_rejected(pos in 0usize..1_000_000, xor in 0usize..1_000_000) {
        // CRC-32 detects every burst error of ≤ 32 bits, so any one-byte
        // flip — header, payload, or the seal itself — must be caught.
        let flip = (xor % 255 + 1) as u8; // never 0: always a real change
        for (kind, bytes) in frames() {
            let mut bad = bytes.clone();
            let i = pos % bad.len();
            bad[i] ^= flip;
            prop_assert!(
                try_decode(kind, &bad).is_err(),
                "{} decoded a frame with byte {} xor {:#04x}",
                kind, i, flip
            );
        }
    }

    #[test]
    fn random_garbage_is_rejected(garbage in ArbBytes { max_len: 512 }) {
        for (kind, _) in frames() {
            prop_assert!(
                try_decode(kind, &garbage).is_err(),
                "{} decoded {} bytes of garbage",
                kind, garbage.len()
            );
        }
    }

    #[test]
    fn appended_trailing_bytes_are_rejected(extra in ArbBytes { max_len: 16 }) {
        for (kind, bytes) in frames() {
            let mut bad = bytes.clone();
            bad.extend_from_slice(&extra);
            if extra.is_empty() {
                prop_assert!(try_decode(kind, &bad).is_ok());
            } else {
                prop_assert!(
                    try_decode(kind, &bad).is_err(),
                    "{} decoded a frame with {} trailing bytes",
                    kind, extra.len()
                );
            }
        }
    }
}

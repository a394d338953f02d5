//! Saving and loading trained parameters.
//!
//! A checkpoint is a flat, self-describing binary frame:
//!
//! ```text
//! magic "AHNTP001" (8 bytes)
//! u64 architecture fingerprint (0 = untagged)
//! u32 param count
//! per parameter:
//!   u32 name length, name bytes (UTF-8)
//!   u8  rank (1 or 2), u32 rows, u32 cols
//!   f32 data (little-endian, row-major)
//! u32 CRC-32 of everything above (see `frame::seal`)
//! ```
//!
//! Loading is *by name into an existing module*: build the model with the
//! same architecture, then [`load_params`] copies matching tensors in.
//! This mirrors PyTorch's `state_dict` flow and keeps the checkpoint
//! format independent of any model structure.
//!
//! The architecture fingerprint lets a model reject a checkpoint from a
//! differently-shaped build *up front* with a clear error instead of a
//! name/shape lottery deep in the parameter list: callers that know their
//! architecture hash (e.g. `ahntp::Ahntp`, which hashes its config and
//! hypergraph shapes) write it with [`save_params_tagged`] and verify it
//! with [`load_params_tagged`]. A fingerprint of `0` means "untagged" and
//! is never checked, so generic state-dict users keep the old behaviour.

use crate::frame::{check_seal, get_string, get_tensor, need, put_string, put_tensor, seal, take};
use crate::Param;
use ahntp_faultz::failpoint;
use ahntp_tensor::Tensor;

const MAGIC: &[u8; 8] = b"AHNTP001";

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not an AHNTP checkpoint (bad magic) or truncated frame.
    Malformed(String),
    /// The checkpoint was written by a model with a different architecture
    /// fingerprint (config hash + hypergraph shape) than the target.
    WrongArchitecture {
        /// Fingerprint of the target model.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint holds a tensor whose shape disagrees with the
    /// same-named parameter in the target module.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape in the module.
        expected: String,
        /// Shape in the checkpoint.
        found: String,
    },
    /// A parameter of the target module is missing from the checkpoint.
    Missing(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::WrongArchitecture { expected, found } => write!(
                f,
                "checkpoint was written by a different architecture: fingerprint \
                 {found:#018x} in the checkpoint vs {expected:#018x} in the target \
                 model (fingerprints hash the config and hypergraph shapes)"
            ),
            CheckpointError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "shape mismatch for {name}: module has {expected}, checkpoint has {found}"
            ),
            CheckpointError::Missing(name) => {
                write!(f, "checkpoint is missing parameter {name}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<ahntp_faultz::Injected> for CheckpointError {
    fn from(inj: ahntp_faultz::Injected) -> CheckpointError {
        CheckpointError::Malformed(inj.to_string())
    }
}

/// Serialises parameters into an untagged checkpoint frame (architecture
/// fingerprint 0, never verified on load).
pub fn save_params(params: &[Param]) -> Vec<u8> {
    save_params_tagged(params, 0)
}

/// Serialises parameters into a checkpoint frame carrying the caller's
/// architecture `fingerprint` (see [`load_params_tagged`]).
pub fn save_params_tagged(params: &[Param], fingerprint: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        put_string(&mut buf, &p.name());
        put_tensor(&mut buf, &p.value());
    }
    seal(&mut buf);
    buf
}

fn malformed(m: String) -> CheckpointError {
    CheckpointError::Malformed(m)
}

fn decode(data: &[u8]) -> Result<(u64, Vec<(String, Tensor)>), CheckpointError> {
    failpoint!("ckpt.decode");
    // Verify the trailing CRC before trusting any field: a partially
    // written or corrupted checkpoint must fail here, not half-decode.
    let mut data = check_seal(data).map_err(malformed)?;
    need(data, 8, "magic").map_err(malformed)?;
    if &data[..8] != MAGIC {
        return Err(CheckpointError::Malformed("bad magic".into()));
    }
    data = &data[8..];
    need(data, 8, "fingerprint").map_err(malformed)?;
    let fingerprint = u64::from_le_bytes(take(&mut data));
    need(data, 4, "count").map_err(malformed)?;
    let count = u32::from_le_bytes(take(&mut data)) as usize;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let name = get_string(&mut data, &format!("param {i} name")).map_err(malformed)?;
        let tensor = get_tensor(&mut data, &format!("param {name}")).map_err(malformed)?;
        out.push((name, tensor));
    }
    Ok((fingerprint, out))
}

/// Loads a checkpoint into an existing parameter set, matching by name and
/// skipping the architecture-fingerprint check. Extra tensors in the
/// checkpoint are ignored; every module parameter must be present with the
/// right shape.
///
/// # Errors
///
/// Returns [`CheckpointError`] on malformed frames, missing parameters or
/// shape mismatches (in which case some parameters may already have been
/// updated — reload or rebuild on error).
pub fn load_params(params: &[Param], checkpoint: &[u8]) -> Result<(), CheckpointError> {
    load_params_tagged(params, checkpoint, 0)
}

/// As [`load_params`], but first verifies the checkpoint's architecture
/// fingerprint against `expected`. The check applies only when both sides
/// are tagged (non-zero): untagged checkpoints and untagged callers keep
/// the by-name/by-shape behaviour.
///
/// # Errors
///
/// Returns [`CheckpointError::WrongArchitecture`] on a fingerprint
/// mismatch — before any parameter is touched — and otherwise the same
/// errors as [`load_params`].
pub fn load_params_tagged(
    params: &[Param],
    checkpoint: &[u8],
    expected: u64,
) -> Result<(), CheckpointError> {
    let (found, entries) = decode(checkpoint)?;
    if expected != 0 && found != 0 && expected != found {
        return Err(CheckpointError::WrongArchitecture { expected, found });
    }
    for p in params {
        let name = p.name();
        let entry = entries
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| CheckpointError::Missing(name.clone()))?;
        let current = p.value();
        if current.shape() != entry.1.shape() {
            return Err(CheckpointError::ShapeMismatch {
                name,
                expected: current.shape().to_string(),
                found: entry.1.shape().to_string(),
            });
        }
        p.set_value(entry.1.clone());
    }
    Ok(())
}

/// The architecture fingerprint stored in a checkpoint frame (0 when the
/// checkpoint is untagged). Useful for diagnostics without a full decode.
pub fn checkpoint_fingerprint(checkpoint: &[u8]) -> Result<u64, CheckpointError> {
    let mut data = checkpoint;
    need(data, 8, "magic").map_err(malformed)?;
    if &data[..8] != MAGIC {
        return Err(CheckpointError::Malformed("bad magic".into()));
    }
    data = &data[8..];
    need(data, 8, "fingerprint").map_err(malformed)?;
    Ok(u64::from_le_bytes(take(&mut data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Mlp, Module, Session};
    use ahntp_tensor::xavier_uniform;

    #[test]
    fn roundtrip_preserves_values_and_names() {
        let mlp = Mlp::new("tower", &[4, 3, 2], true, 7);
        let blob = save_params(&mlp.params());
        // A freshly initialised clone with a different seed differs…
        let other = Mlp::new("tower", &[4, 3, 2], true, 8);
        let before: Vec<_> = other.params().iter().map(Param::value).collect();
        load_params(&other.params(), &blob).expect("matching architecture");
        let after: Vec<_> = other.params().iter().map(Param::value).collect();
        assert_ne!(before, after, "load must change the weights");
        let expected: Vec<_> = mlp.params().iter().map(Param::value).collect();
        assert_eq!(after, expected, "…and match the saved model exactly");
    }

    #[test]
    fn loaded_model_predicts_identically() {
        let a = Linear::new("l", 3, 2, 1);
        let b = Linear::new("l", 3, 2, 99);
        load_params(&b.params(), &save_params(&a.params())).expect("same shape");
        let x = xavier_uniform(4, 3, 5);
        let s1 = Session::new();
        let y1 = a.forward(&s1, &s1.constant(x.clone())).value();
        let s2 = Session::new();
        let y2 = b.forward(&s2, &s2.constant(x)).value();
        assert_eq!(y1, y2);
    }

    #[test]
    fn fingerprints_gate_tagged_loads() {
        let a = Linear::new("l", 3, 2, 1);
        let blob = save_params_tagged(&a.params(), 0xdead_beef);
        assert_eq!(checkpoint_fingerprint(&blob).unwrap(), 0xdead_beef);
        // Matching tag loads.
        load_params_tagged(&a.params(), &blob, 0xdead_beef).expect("same fingerprint");
        // Mismatched tag is rejected before any parameter is touched.
        let err = load_params_tagged(&a.params(), &blob, 0xfeed_f00d).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::WrongArchitecture {
                expected: 0xfeed_f00d,
                found: 0xdead_beef,
            }
        );
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // Untagged on either side skips the check.
        load_params_tagged(&a.params(), &blob, 0).expect("untagged caller");
        let untagged = save_params(&a.params());
        assert_eq!(checkpoint_fingerprint(&untagged).unwrap(), 0);
        load_params_tagged(&a.params(), &untagged, 0xfeed_f00d).expect("untagged blob");
    }

    #[test]
    fn shape_mismatch_is_reported_by_name() {
        let a = Linear::new("l", 3, 2, 1);
        let b = Linear::new("l", 3, 4, 1);
        let err = load_params(&b.params(), &save_params(&a.params())).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
        assert!(err.to_string().contains("l.w"));
    }

    #[test]
    fn missing_parameter_is_reported() {
        let a = Linear::new("alpha", 2, 2, 1);
        let b = Linear::new("beta", 2, 2, 1);
        let err = load_params(&b.params(), &save_params(&a.params())).unwrap_err();
        assert!(matches!(err, CheckpointError::Missing(_)));
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let a = Linear::new("l", 2, 2, 1);
        assert!(matches!(
            load_params(&a.params(), b"not a checkpoint"),
            Err(CheckpointError::Malformed(_))
        ));
        let mut blob = save_params(&a.params());
        blob.truncate(blob.len() - 3);
        assert!(matches!(
            load_params(&a.params(), &blob),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(checkpoint_fingerprint(b"AHNTP001").is_err());
    }

    #[test]
    fn vector_parameters_roundtrip() {
        let p = Param::new("bias", ahntp_tensor::Tensor::vector(vec![1.0, -2.5, 3.25]));
        let blob = save_params(std::slice::from_ref(&p));
        let q = Param::new("bias", ahntp_tensor::Tensor::zeros_vec(3));
        load_params(std::slice::from_ref(&q), &blob).expect("same shape");
        assert_eq!(q.value().as_slice(), &[1.0, -2.5, 3.25]);
    }
}

//! The `AHNTPSRV1` frame contract (version 2, the only version), pinned
//! three ways:
//!
//! * a checked-in **golden hex dump** of a fixed artifact's v2 bytes —
//!   the layout (offsets table, 64-byte section alignment, CRC seal) can
//!   never drift silently;
//! * a **property sweep**: for random artifacts, the zero-copy mapped
//!   view of the frame, the copying decode of it, and the source artifact
//!   are bitwise identical — every matrix element, every metadata field;
//! * a **fuzz pass** over truncations and byte flips (the offsets table
//!   included): every corruption is rejected with a typed error, never a
//!   panic, and never a silently-wrong artifact.
//!
//! The retired packed version-1 layout is refused by number, like any
//! other unknown version.
//!
//! Regenerate the golden file with
//! `AHNTP_REGEN_GOLDEN=1 cargo test --test artifact_v2_roundtrip`.

use ahntp_nn::{ArtifactError, MappedBytes, TrustArtifact};
use proptest::prelude::*;
use proptest::TestRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The fixed artifact behind the golden dump. Never change it — a new
/// fixture means a new golden file *and* a version bump story.
fn fixture() -> TrustArtifact {
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: 0x0123_4567_89ab_cdef,
        calibration: 0.75,
        n_users: 3,
        emb_dim: 2,
        head_dim: 2,
        embeddings: vec![0.5, -0.25, 1.0, 0.125, -1.5, 2.0].into(),
        trustor_head: vec![1.0, 0.0, 0.6, 0.8, 0.0, -1.0].into(),
        trustee_head: vec![0.0, 1.0, 0.8, -0.6, -1.0, 0.0].into(),
    }
}

fn random_artifact(seed: u64) -> TrustArtifact {
    let mut rng = TestRng::from_label(&format!("artifact-v2-{seed}"));
    let n_users = 1 + rng.below(17);
    let emb_dim = 1 + rng.below(9);
    let head_dim = 1 + rng.below(9);
    let mut row = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| (rng.next_f64() * 4.0 - 2.0) as f32)
            .collect()
    };
    TrustArtifact {
        model: "AHNTP".to_string(),
        fingerprint: seed,
        calibration: 0.5,
        n_users,
        emb_dim,
        head_dim,
        embeddings: row(n_users * emb_dim).into(),
        trustor_head: row(n_users * head_dim).into(),
        trustee_head: row(n_users * head_dim).into(),
    }
}

/// Maps `bytes` as a zero-copy view (no file round-trip needed).
fn map(bytes: &[u8]) -> Result<TrustArtifact, ArtifactError> {
    TrustArtifact::map(Arc::new(MappedBytes::from_bytes(bytes)))
}

fn bits(rows: &[f32]) -> Vec<u32> {
    rows.iter().map(|x| x.to_bits()).collect()
}

/// Field-by-field bitwise equality (f32 equality would hide NaN and
/// signed-zero drift).
fn assert_bitwise_equal(a: &TrustArtifact, b: &TrustArtifact, what: &str) {
    assert_eq!(a.model, b.model, "{what}: model");
    assert_eq!(a.fingerprint, b.fingerprint, "{what}: fingerprint");
    assert_eq!(
        a.calibration.to_bits(),
        b.calibration.to_bits(),
        "{what}: calibration"
    );
    assert_eq!(
        (a.n_users, a.emb_dim, a.head_dim),
        (b.n_users, b.emb_dim, b.head_dim),
        "{what}: shape"
    );
    assert_eq!(
        bits(&a.embeddings),
        bits(&b.embeddings),
        "{what}: embeddings"
    );
    assert_eq!(
        bits(&a.trustor_head),
        bits(&b.trustor_head),
        "{what}: trustor head"
    );
    assert_eq!(
        bits(&a.trustee_head),
        bits(&b.trustee_head),
        "{what}: trustee head"
    );
}

/// Renders a frame as the golden hex-dump format: 32 bytes per line.
fn render_hex(bytes: &[u8]) -> String {
    let mut out = String::from(
        "# AHNTPSRV1 v2 frame of the fixture artifact, hex, 32 bytes/line\n\
         # regenerate: AHNTP_REGEN_GOLDEN=1 cargo test --test artifact_v2_roundtrip\n",
    );
    for chunk in bytes.chunks(32) {
        for b in chunk {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/artifact_v2_frame.txt")
}

/// The fixture's v2 bytes are pinned to the checked-in golden dump. Any
/// layout change — a moved offset, different padding, a new field — must
/// show up here as a deliberate golden-file diff.
#[test]
fn golden_v2_frame_bytes_are_pinned() {
    let rendered = render_hex(&fixture().encode_v2());
    let path = golden_path();
    if std::env::var("AHNTP_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden file {} unreadable: {e}", path.display()));
    assert_eq!(
        golden, rendered,
        "v2 frame layout drifted from the golden dump (regenerate only if intentional)"
    );
}

/// The fixture's frame decodes to a bitwise-identical artifact through
/// both the copying parser and the zero-copy map.
#[test]
fn fixture_round_trips_through_every_path() {
    let a = fixture();
    let v2 = a.encode_v2();
    let decoded = TrustArtifact::decode(&v2).unwrap();
    assert_bitwise_equal(&a, &decoded, "decode(v2)");
    assert!(!decoded.is_mapped(), "decode copies");
    let mapped = map(&v2).unwrap();
    assert_bitwise_equal(&a, &mapped, "map(v2)");
    // The map genuinely aliased the frame bytes instead of copying.
    assert!(
        mapped.is_mapped(),
        "v2 map must be zero-copy on this platform"
    );
}

/// CRC-32 (IEEE), bitwise — `ahntp_nn` keeps its own private.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// A hand-built, correctly sealed frame of the retired packed version-1
/// layout (same header, matrices back to back, no offsets table) is
/// refused by its version number — by the parser and by the map alike, so
/// neither path keeps a silent fallback.
#[test]
fn version_1_frames_are_refused_by_number() {
    let a = fixture();
    let mut v1 = Vec::new();
    v1.extend_from_slice(b"AHNTPSRV1");
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&a.fingerprint.to_le_bytes());
    v1.extend_from_slice(&a.calibration.to_le_bytes());
    v1.extend_from_slice(&(a.model.len() as u32).to_le_bytes());
    v1.extend_from_slice(a.model.as_bytes());
    for dim in [a.n_users, a.emb_dim, a.head_dim] {
        v1.extend_from_slice(&(dim as u32).to_le_bytes());
    }
    for matrix in [&a.embeddings, &a.trustor_head, &a.trustee_head] {
        for v in matrix.iter() {
            v1.extend_from_slice(&v.to_le_bytes());
        }
    }
    let seal = crc32(&v1);
    v1.extend_from_slice(&seal.to_le_bytes());
    // A wrong seal would surface as `Malformed("checksum …")` instead, so
    // these refusals are about the version.
    assert_eq!(
        TrustArtifact::decode(&v1),
        Err(ArtifactError::UnsupportedVersion(1))
    );
    assert_eq!(map(&v1), Err(ArtifactError::UnsupportedVersion(1)));
}

/// The v2 offsets table puts every matrix on a 64-byte boundary — the
/// alignment contract the zero-copy f32 views rely on.
#[test]
fn v2_sections_are_64_byte_aligned() {
    for seed in [0u64, 1, 2, 3] {
        let bytes = random_artifact(seed).encode_v2();
        let frame = Arc::new(MappedBytes::from_bytes(&bytes));
        let base = frame.bytes().as_ptr() as usize;
        let mapped = TrustArtifact::map(Arc::clone(&frame)).unwrap();
        assert!(mapped.is_mapped(), "seed {seed}");
        // Alignment is observable without private offsets: each matrix
        // view aliases the frame, so its pointer distance from the frame
        // base is exactly the section's byte offset in the file.
        for (name, rows) in [
            ("embeddings", &mapped.embeddings),
            ("trustor_head", &mapped.trustor_head),
            ("trustee_head", &mapped.trustee_head),
        ] {
            let offset = rows.as_ptr() as usize - base;
            assert_eq!(offset % 64, 0, "seed {seed}: {name} at offset {offset}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mapped v2 ≡ decoded v2 ≡ source, bitwise, across random shapes
    /// (ragged against the 64-byte alignment in every dimension).
    #[test]
    fn mapped_v2_is_bitwise_equal_to_decoded_v2_and_source(seed in 0u64..1_000_000) {
        let a = random_artifact(seed);
        let frame = a.encode_v2();
        let decoded = TrustArtifact::decode(&frame).unwrap();
        let mapped = map(&frame).unwrap();
        prop_assert_eq!(mapped.is_mapped(), true, "v2 must map zero-copy");
        assert_bitwise_equal(&a, &decoded, "decoded v2 vs source");
        assert_bitwise_equal(&decoded, &mapped, "mapped v2 vs decoded v2");
    }

    /// Every truncation of a v2 frame is rejected with a typed error —
    /// the CRC seal and length checks close over the whole frame,
    /// offsets table included.
    #[test]
    fn v2_truncations_are_rejected(seed in 0u64..1_000_000, cut in 0usize..1_000_000) {
        let bytes = random_artifact(seed).encode_v2();
        let keep = cut % bytes.len(); // strictly shorter
        let err = map(&bytes[..keep]);
        prop_assert!(err.is_err(), "mapped a frame truncated to {}/{} bytes", keep, bytes.len());
        prop_assert!(
            !err.unwrap_err().to_string().is_empty(),
            "typed error carries a message"
        );
    }

    /// Every single-byte flip of a v2 frame — header, offsets table,
    /// matrix payload, or the seal itself — is rejected with a typed
    /// error. CRC-32 catches all burst errors of ≤ 32 bits, so nothing
    /// corrupted can map or decode successfully.
    #[test]
    fn v2_byte_flips_are_rejected(seed in 0u64..1_000_000, pos in 0usize..1_000_000, xor in 0usize..1_000_000) {
        let mut bytes = random_artifact(seed).encode_v2();
        let pos = pos % bytes.len();
        let flip = (xor % 255 + 1) as u8; // never 0: always a real change
        bytes[pos] ^= flip;
        let err = map(&bytes);
        prop_assert!(err.is_err(), "mapped a frame with byte {} flipped by {:#04x}", pos, flip);
        prop_assert!(
            !err.unwrap_err().to_string().is_empty(),
            "typed error carries a message"
        );
    }
}

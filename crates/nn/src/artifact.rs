//! The serveable trust artifact: the `AHNTPSRV1` binary frame.
//!
//! A checkpoint (`AHNTP001`, [`crate::save_params`]) captures *trainable
//! state* — it needs the full model, its hypergraphs, and a forward pass to
//! answer a query. An artifact captures the *online* half instead: the
//! comprehensive user embeddings and the pair-scoring head, baked down so a
//! server can answer `score(u, v)` with a single `O(d)` dot product and no
//! graph machinery at all.
//!
//! Concretely the scoring head of the AHNTP model (Eqs. 17–19) is
//! `σ(cos(tower_a(e_u), tower_b(e_v)) / c)` for comprehensive embeddings
//! `e`. The exporter precomputes both tower outputs for every user and
//! L2-normalises the rows, so the cosine collapses to a dot product:
//!
//! `score(u, v) = σ( ⟨trustor_head[u], trustee_head[v]⟩ / c )`
//!
//! # Frame layout (version 2, the only version)
//!
//! Each matrix sits at a 64-byte aligned offset recorded in an explicit
//! offsets table, so a server can map the file ([`TrustArtifact::map`]) and
//! score straight out of the page cache instead of parsing — a shard
//! (re)start allocates nothing proportional to the index.
//!
//! ```text
//! magic "AHNTPSRV1" (9 bytes)
//! u16 version (2)
//! u64 architecture fingerprint (same hash as the AHNTP001 header; 0 = untagged)
//! f32 calibration c (σ(cos/c); the trainer's COSINE_CALIBRATION)
//! u32 model-name length, name bytes (UTF-8)
//! u32 n_users, u32 emb_dim, u32 head_dim
//! u64 emb_off, u64 trustor_off, u64 trustee_off, u64 data_end
//!   (byte offsets from the frame start; each matrix offset is 64-byte
//!    aligned, data_end is the end of the trustee matrix)
//! zero padding to emb_off
//! f32 embeddings    (at emb_off; n_users × emb_dim, row-major; raw comprehensive embeddings)
//! zero padding, f32 trustor_head (at trustor_off; n_users × head_dim; L2-normalised tower-A rows)
//! zero padding, f32 trustee_head (at trustee_off, ending at data_end; L2-normalised tower-B rows)
//! u32 CRC-32 of everything above (at data_end; see `frame::seal`)
//! ```
//!
//! Version 1 (the same fields packed back to back, no offsets table) was
//! only ever written by this repository's own tests and is refused like any
//! other unknown version: [`ArtifactError::UnsupportedVersion`]`(1)`.
//!
//! All integers and floats are little-endian. The trailing CRC is verified
//! before any field is parsed — by [`TrustArtifact::decode`] *and* by
//! [`TrustArtifact::map`] — so truncated or corrupted artifacts fail with
//! a "checksum" error instead of being half-decoded (or half-mapped).

use std::sync::Arc;

use crate::frame::{check_seal, get_f32s, get_string, need, put_f32s, put_string, seal, take};
use crate::rows::Rows;
use ahntp_faultz::failpoint;
use ahntp_mapped::MappedBytes;

const MAGIC: &[u8; 9] = b"AHNTPSRV1";

/// The artifact format version ([`TrustArtifact::encode_v2`]).
pub const ARTIFACT_VERSION_V2: u16 = 2;

/// Alignment of every matrix section in a v2 frame. 64 bytes covers a
/// cache line and any realistic f32 SIMD lane width.
const V2_ALIGN: usize = 64;

/// Errors from artifact decoding and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// Not an AHNTPSRV1 artifact (bad magic) or truncated frame.
    Malformed(String),
    /// The frame declares a version this build does not understand.
    UnsupportedVersion(u16),
    /// Decoded fields are mutually inconsistent (e.g. matrix lengths that
    /// disagree with the declared dimensions, or a non-positive
    /// calibration).
    Inconsistent(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::UnsupportedVersion(v) => write!(
                f,
                "unsupported artifact version {v} (this build understands \
                 {ARTIFACT_VERSION_V2})"
            ),
            ArtifactError::Inconsistent(m) => write!(f, "inconsistent artifact: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<ahntp_faultz::Injected> for ArtifactError {
    fn from(inj: ahntp_faultz::Injected) -> ArtifactError {
        ArtifactError::Malformed(inj.to_string())
    }
}

/// A decoded (or about-to-be-encoded) serveable trust artifact.
///
/// Produced by `ahntp::Ahntp::export_artifact`, consumed by
/// `ahntp_serve::TrustIndex`. All matrices are dense row-major `f32`,
/// stored as [`Rows`]: owned buffers after a parse, zero-copy views after
/// a [`TrustArtifact::map`]. Mutators (live head patches) go through
/// [`Rows::to_mut`], which copies a mapped matrix on first write.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustArtifact {
    /// Display name of the exporting model (e.g. `"AHNTP"`).
    pub model: String,
    /// Architecture fingerprint of the exporting model (config hash +
    /// hypergraph shape; 0 = untagged).
    pub fingerprint: u64,
    /// Cosine calibration `c` of the scoring head: `p = σ(cos / c)`.
    pub calibration: f32,
    /// Number of users (rows in every matrix).
    pub n_users: usize,
    /// Width of the comprehensive embedding rows.
    pub emb_dim: usize,
    /// Width of the scoring-head rows.
    pub head_dim: usize,
    /// Raw comprehensive embeddings, `n_users × emb_dim` row-major.
    pub embeddings: Rows,
    /// L2-normalised trustor-side head rows, `n_users × head_dim`.
    pub trustor_head: Rows,
    /// L2-normalised trustee-side head rows, `n_users × head_dim`.
    pub trustee_head: Rows,
}

/// Parsed v2 header: field values plus the byte ranges of each matrix
/// section, fully bounds- and alignment-checked against the frame.
struct V2Layout {
    model: String,
    fingerprint: u64,
    calibration: f32,
    n_users: usize,
    emb_dim: usize,
    head_dim: usize,
    emb_off: usize,
    trustor_off: usize,
    trustee_off: usize,
}

impl V2Layout {
    /// Parses and validates a v2 frame (CRC first, then the offsets
    /// table). On success every section range is in bounds, 64-byte
    /// aligned, non-overlapping, and `data_end` equals the payload end.
    fn parse(frame: &[u8]) -> Result<V2Layout, ArtifactError> {
        let malformed = ArtifactError::Malformed;
        let payload = check_seal(frame).map_err(malformed)?;
        let mut data = payload;
        need(data, MAGIC.len(), "magic").map_err(malformed)?;
        if &data[..MAGIC.len()] != MAGIC {
            return Err(ArtifactError::Malformed("bad magic".into()));
        }
        data = &data[MAGIC.len()..];
        need(data, 2, "version").map_err(malformed)?;
        let version = u16::from_le_bytes(take(&mut data));
        if version != ARTIFACT_VERSION_V2 {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        need(data, 8 + 4, "header").map_err(malformed)?;
        let fingerprint = u64::from_le_bytes(take(&mut data));
        let calibration = f32::from_le_bytes(take(&mut data));
        let model = get_string(&mut data, "model name").map_err(malformed)?;
        need(data, 12 + 32, "dimensions and offsets table").map_err(malformed)?;
        let n_users = u32::from_le_bytes(take(&mut data)) as usize;
        let emb_dim = u32::from_le_bytes(take(&mut data)) as usize;
        let head_dim = u32::from_le_bytes(take(&mut data)) as usize;
        let mut offsets = [0usize; 4];
        for slot in &mut offsets {
            let v = u64::from_le_bytes(take(&mut data));
            *slot = usize::try_from(v).map_err(|_| {
                ArtifactError::Malformed(format!("offsets table entry {v} overflows"))
            })?;
        }
        let [emb_off, trustor_off, trustee_off, data_end] = offsets;
        let header_len = payload.len() - data.len();

        // The offsets table is attacker-facing (it aims raw views): every
        // section must be aligned, in order, in bounds, and sized exactly
        // for the declared dimensions.
        let section = |name: &str, off: usize, dim: usize| -> Result<usize, ArtifactError> {
            if !off.is_multiple_of(V2_ALIGN) {
                return Err(ArtifactError::Malformed(format!(
                    "offsets table: {name} offset {off} is not {V2_ALIGN}-byte aligned"
                )));
            }
            let values = n_users.checked_mul(dim).ok_or_else(|| {
                ArtifactError::Malformed(format!("implausible {name} dimensions"))
            })?;
            let bytes = values.checked_mul(4).ok_or_else(|| {
                ArtifactError::Malformed(format!("implausible {name} dimensions"))
            })?;
            off.checked_add(bytes).ok_or_else(|| {
                ArtifactError::Malformed(format!("offsets table: {name} section overflows"))
            })
        };
        let emb_end = section("embeddings", emb_off, emb_dim)?;
        let trustor_end = section("trustor head", trustor_off, head_dim)?;
        let trustee_end = section("trustee head", trustee_off, head_dim)?;
        if emb_off < header_len
            || trustor_off < emb_end
            || trustee_off < trustor_end
            || data_end != trustee_end
        {
            return Err(ArtifactError::Malformed(
                "offsets table: sections overlap or are out of order".into(),
            ));
        }
        if data_end != payload.len() {
            return Err(ArtifactError::Malformed(format!(
                "offsets table: data_end {data_end} disagrees with payload length {}",
                payload.len()
            )));
        }
        Ok(V2Layout {
            model,
            fingerprint,
            calibration,
            n_users,
            emb_dim,
            head_dim,
            emb_off,
            trustor_off,
            trustee_off,
        })
    }

    fn assemble(
        self,
        embeddings: Rows,
        trustor_head: Rows,
        trustee_head: Rows,
    ) -> Result<TrustArtifact, ArtifactError> {
        let artifact = TrustArtifact {
            model: self.model,
            fingerprint: self.fingerprint,
            calibration: self.calibration,
            n_users: self.n_users,
            emb_dim: self.emb_dim,
            head_dim: self.head_dim,
            embeddings,
            trustor_head,
            trustee_head,
        };
        artifact.validate()?;
        Ok(artifact)
    }
}

impl TrustArtifact {
    /// Checks internal consistency: matrix lengths match the declared
    /// dimensions, the calibration is positive and finite, and every
    /// stored value is finite.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Inconsistent`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), ArtifactError> {
        let check = |name: &str, data: &[f32], dim: usize| -> Result<(), ArtifactError> {
            if data.len() != self.n_users * dim {
                return Err(ArtifactError::Inconsistent(format!(
                    "{name}: {} values for {} users × {dim} dims",
                    data.len(),
                    self.n_users
                )));
            }
            if !data.iter().all(|v| v.is_finite()) {
                return Err(ArtifactError::Inconsistent(format!(
                    "{name}: non-finite values"
                )));
            }
            Ok(())
        };
        if !(self.calibration.is_finite() && self.calibration > 0.0) {
            return Err(ArtifactError::Inconsistent(format!(
                "calibration must be positive and finite, got {}",
                self.calibration
            )));
        }
        check("embeddings", &self.embeddings, self.emb_dim)?;
        check("trustor_head", &self.trustor_head, self.head_dim)?;
        check("trustee_head", &self.trustee_head, self.head_dim)?;
        Ok(())
    }

    /// Whether every matrix is a zero-copy mapped view (a
    /// [`TrustArtifact::map`] product that has not been patched).
    pub fn is_mapped(&self) -> bool {
        self.embeddings.is_mapped()
            && self.trustor_head.is_mapped()
            && self.trustee_head.is_mapped()
    }

    /// Encodes the artifact as an `AHNTPSRV1` version-2 frame: each matrix
    /// zero-padded out to a 64-byte aligned offset recorded in the offsets
    /// table, so the frame can be served zero-copy through
    /// [`TrustArtifact::map`]. Lossless: `decode(encode_v2(a)) == a`.
    pub fn encode_v2(&self) -> Vec<u8> {
        let header_len = MAGIC.len() + 2 + 8 + 4 + (4 + self.model.len()) + 12 + 32;
        let align = |off: usize| off.div_ceil(V2_ALIGN) * V2_ALIGN;
        let emb_off = align(header_len);
        let trustor_off = align(emb_off + 4 * self.embeddings.len());
        let trustee_off = align(trustor_off + 4 * self.trustor_head.len());
        let data_end = trustee_off + 4 * self.trustee_head.len();
        let mut buf = Vec::with_capacity(data_end + 4);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&ARTIFACT_VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&self.calibration.to_le_bytes());
        put_string(&mut buf, &self.model);
        for dim in [self.n_users, self.emb_dim, self.head_dim] {
            buf.extend_from_slice(&(dim as u32).to_le_bytes());
        }
        for off in [emb_off, trustor_off, trustee_off, data_end] {
            buf.extend_from_slice(&(off as u64).to_le_bytes());
        }
        // Each offset is `align(..)` of the bytes written so far, so these
        // only ever grow the buffer.
        buf.resize(emb_off, 0);
        put_f32s(&mut buf, &self.embeddings);
        buf.resize(trustor_off, 0);
        put_f32s(&mut buf, &self.trustor_head);
        buf.resize(trustee_off, 0);
        put_f32s(&mut buf, &self.trustee_head);
        seal(&mut buf);
        buf
    }

    /// Decodes and validates an `AHNTPSRV1` frame into owned matrices (the
    /// copying path; see [`TrustArtifact::map`] for the zero-copy one).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Malformed`] on a failed checksum, bad
    /// magic, truncation, or a corrupt offsets table,
    /// [`ArtifactError::UnsupportedVersion`] on any version but 2, and
    /// [`ArtifactError::Inconsistent`] when the decoded fields disagree
    /// with each other.
    pub fn decode(data: &[u8]) -> Result<TrustArtifact, ArtifactError> {
        failpoint!("artifact.decode");
        // Verifies the trailing CRC before trusting any field, then bounds
        // every section inside the sealed payload.
        let layout = V2Layout::parse(data)?;
        let copy = |off: usize, n: usize, what: &str| -> Result<Vec<f32>, ArtifactError> {
            let mut section = &data[off..];
            get_f32s(&mut section, n, what).map_err(ArtifactError::Malformed)
        };
        let emb = copy(
            layout.emb_off,
            layout.n_users * layout.emb_dim,
            "embeddings",
        )?;
        let tor = copy(
            layout.trustor_off,
            layout.n_users * layout.head_dim,
            "trustor head",
        )?;
        let tee = copy(
            layout.trustee_off,
            layout.n_users * layout.head_dim,
            "trustee head",
        )?;
        layout.assemble(emb.into(), tor.into(), tee.into())
    }

    /// Builds an artifact whose matrices are zero-copy views into
    /// `bytes` — the O(1)-allocation load path. The CRC
    /// seal and the whole offsets table are verified up front (the CRC
    /// pass streams the file through the page cache but allocates
    /// nothing), and validation runs as for a decode, so a torn or
    /// tampered frame fails with the same typed errors.
    ///
    /// On a platform where zero-copy views are unavailable (big-endian)
    /// this falls back to the copying [`TrustArtifact::decode`]; either way
    /// the caller gets a valid artifact.
    ///
    /// # Errors
    ///
    /// As [`TrustArtifact::decode`].
    pub fn map(bytes: Arc<MappedBytes>) -> Result<TrustArtifact, ArtifactError> {
        failpoint!("artifact.map");
        let layout = V2Layout::parse(&bytes)?;
        let view = |off: usize, n: usize| Rows::mapped(Arc::clone(&bytes), off, n);
        let views = (
            view(layout.emb_off, layout.n_users * layout.emb_dim),
            view(layout.trustor_off, layout.n_users * layout.head_dim),
            view(layout.trustee_off, layout.n_users * layout.head_dim),
        );
        match views {
            (Some(emb), Some(tor), Some(tee)) => layout.assemble(emb, tor, tee),
            // Views refused (big-endian target): decode the same bytes.
            _ => TrustArtifact::decode(&bytes),
        }
    }

    /// Opens an artifact file zero-copy: `mmap` + [`TrustArtifact::map`];
    /// scoring reads straight out of the mapping.
    ///
    /// # Errors
    ///
    /// I/O errors from opening or mapping the file; decode errors are
    /// wrapped as [`std::io::ErrorKind::InvalidData`].
    pub fn open<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<TrustArtifact> {
        let bytes = Arc::new(MappedBytes::open(path)?);
        TrustArtifact::map(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rewrites the trailing CRC after the test has poked the payload, so
    /// the frame reaches the field-level checks under test instead of
    /// failing at the seal.
    fn reseal(bytes: &mut [u8]) {
        let split = bytes.len() - 4;
        let crc = crate::frame::crc32(&bytes[..split]);
        bytes[split..].copy_from_slice(&crc.to_le_bytes());
    }

    fn tiny() -> TrustArtifact {
        TrustArtifact {
            model: "AHNTP".to_string(),
            fingerprint: 0x1234_5678_9abc_def0,
            calibration: 0.5,
            n_users: 2,
            emb_dim: 3,
            head_dim: 2,
            embeddings: vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.6].into(),
            trustor_head: vec![1.0, 0.0, 0.6, 0.8].into(),
            trustee_head: vec![0.0, 1.0, 0.8, -0.6].into(),
        }
    }

    #[test]
    fn encode_v2_decode_round_trips_and_sections_are_aligned() {
        let a = tiny();
        let bytes = a.encode_v2();
        assert_eq!(&bytes[..9], b"AHNTPSRV1");
        assert_eq!(u16::from_le_bytes([bytes[9], bytes[10]]), 2);
        let b = TrustArtifact::decode(&bytes).expect("well-formed v2 frame");
        assert_eq!(a, b);
    }

    #[test]
    fn mapped_artifacts_score_the_same_bits_as_decoded_ones() {
        let a = tiny();
        let bytes = a.encode_v2();
        let mapped =
            TrustArtifact::map(Arc::new(MappedBytes::from_bytes(&bytes))).expect("mappable");
        assert!(mapped.is_mapped());
        assert_eq!(mapped, a);
        for (x, y) in mapped.trustor_head.iter().zip(a.trustor_head.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn mapped_artifacts_copy_on_write() {
        let bytes = tiny().encode_v2();
        let mut mapped = TrustArtifact::map(Arc::new(MappedBytes::from_bytes(&bytes))).unwrap();
        mapped.trustor_head.to_mut()[0] = 0.0;
        assert!(!mapped.trustor_head.is_mapped());
        assert!(
            mapped.trustee_head.is_mapped(),
            "untouched matrices stay mapped"
        );
        assert_eq!(mapped.trustor_head[0], 0.0);
    }

    #[test]
    fn corrupt_v2_offsets_tables_are_typed_errors() {
        let good = tiny().encode_v2();
        // The offsets table sits right after the dimensions. Find it by
        // construction: magic(9) + ver(2) + fp(8) + cal(4) + name(4+5) +
        // dims(12) = 44.
        let table = 44;
        for (tweak, what) in [(1u8, "misalign"), (0xff, "out of range")] {
            let mut bad = good.clone();
            bad[table] ^= tweak;
            reseal(&mut bad);
            match TrustArtifact::decode(&bad) {
                Err(ArtifactError::Malformed(m)) => {
                    assert!(
                        m.contains("offsets") || m.contains("truncated"),
                        "{what}: {m}"
                    )
                }
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
            assert!(
                TrustArtifact::map(Arc::new(MappedBytes::from_bytes(&bad))).is_err(),
                "{what}: map must refuse what decode refuses"
            );
        }
        // Without a reseal the CRC catches the flip first.
        let mut torn = good;
        torn[table] ^= 1;
        assert!(matches!(
            TrustArtifact::decode(&torn),
            Err(ArtifactError::Malformed(m)) if m.contains("checksum")
        ));
    }

    #[test]
    fn truncated_v2_frames_fail_the_seal_at_map_time() {
        let bytes = tiny().encode_v2();
        for cut in [1usize, 4, 64, bytes.len() / 2] {
            let torn = &bytes[..bytes.len() - cut];
            let err = TrustArtifact::map(Arc::new(MappedBytes::from_bytes(torn)))
                .expect_err("torn frame refused");
            assert!(
                matches!(err, ArtifactError::Malformed(_)),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_truncation_are_malformed() {
        assert!(matches!(
            TrustArtifact::decode(b"NOTAFRAME"),
            Err(ArtifactError::Malformed(_))
        ));
        let mut bytes = tiny().encode_v2();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            TrustArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
        bytes.clear();
        assert!(TrustArtifact::decode(&bytes).is_err());
    }

    #[test]
    fn unknown_versions_are_rejected_with_the_version() {
        // 1 is the retired packed layout; it gets no special treatment.
        for version in [1u8, 9] {
            let mut bytes = tiny().encode_v2();
            bytes[9] = version; // little-endian u16 version right after the magic
            reseal(&mut bytes);
            let want = Err(ArtifactError::UnsupportedVersion(u16::from(version)));
            assert_eq!(TrustArtifact::decode(&bytes), want);
            assert_eq!(
                TrustArtifact::map(Arc::new(MappedBytes::from_bytes(&bytes))),
                want
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Appended garbage breaks the seal…
        let mut bytes = tiny().encode_v2();
        bytes.push(0);
        assert!(matches!(
            TrustArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(m)) if m.contains("checksum")
        ));
        // …and garbage smuggled *inside* a correctly sealed frame is still
        // caught: data_end stops matching the payload length.
        let mut v2 = tiny().encode_v2();
        let split = v2.len() - 4;
        v2.insert(split, 0);
        reseal(&mut v2);
        assert!(matches!(
            TrustArtifact::decode(&v2),
            Err(ArtifactError::Malformed(m)) if m.contains("data_end")
        ));
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let mut a = tiny();
        a.trustor_head.to_mut().pop();
        assert!(matches!(
            a.validate(),
            Err(ArtifactError::Inconsistent(m)) if m.contains("trustor_head")
        ));
        let mut b = tiny();
        b.calibration = 0.0;
        assert!(b.validate().is_err());
        let mut c = tiny();
        c.embeddings.to_mut()[0] = f32::NAN;
        assert!(matches!(
            c.validate(),
            Err(ArtifactError::Inconsistent(m)) if m.contains("non-finite")
        ));
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(ArtifactError::UnsupportedVersion(7)
            .to_string()
            .contains("version 7"));
        assert!(ArtifactError::Malformed("x".into())
            .to_string()
            .contains("x"));
    }
}

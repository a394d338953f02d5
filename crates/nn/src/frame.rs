//! Shared helpers for the crate's self-describing binary frames.
//!
//! All three frame formats this crate defines — `AHNTP001` parameter
//! checkpoints ([`crate::save_params`]), `AHNTP002` training-state
//! checkpoints ([`crate::TrainState`]), and `AHNTPSRV1` serveable
//! artifacts ([`crate::artifact::TrustArtifact`]) — are flat
//! little-endian layouts built from the same primitives: length-prefixed
//! UTF-8 strings, contiguous `f32` runs decoded with truncation-aware
//! reads, and a trailing CRC-32 seal. This module holds those primitives
//! so the formats cannot drift apart.
//!
//! # The CRC seal
//!
//! Encoders finish a frame with [`seal`], which appends a little-endian
//! CRC-32 (IEEE/zlib polynomial) of everything before it. Decoders start
//! with [`check_seal`], which verifies the checksum and hands back the
//! payload. A partially-written file (a crash between `write` and
//! `fsync`), a truncation, or a flipped byte therefore fails up front
//! with a typed "checksum" error instead of being silently decoded into
//! garbage parameters.

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), bitwise implementation.
/// Frames are megabytes at most and written once per epoch; simplicity
/// beats a table here.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Appends the CRC-32 of the buffer's current contents, sealing the frame.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Verifies the trailing CRC-32 written by [`seal`] and returns the
/// payload in front of it. The error message always contains the word
/// "checksum" so callers and tests can tell corruption from format drift.
pub(crate) fn check_seal(data: &[u8]) -> Result<&[u8], String> {
    if data.len() < 4 {
        return Err("frame too short to carry its checksum".to_string());
    }
    let (payload, tail) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let computed = crc32(payload);
    if stored != computed {
        return Err(format!(
            "checksum mismatch: frame carries {stored:#010x}, contents hash to \
             {computed:#010x} (truncated, partially written, or corrupted)"
        ));
    }
    Ok(payload)
}

/// Fails with a "truncated while reading …" message unless `data` still
/// holds at least `n` bytes.
pub(crate) fn need(data: &[u8], n: usize, what: &str) -> Result<(), String> {
    if data.len() < n {
        Err(format!("truncated while reading {what}"))
    } else {
        Ok(())
    }
}

/// Splits the next `N` bytes off the front of `data`, for
/// `u32::from_le_bytes(take(data))` and friends.
///
/// # Panics
///
/// Panics when fewer than `N` bytes remain: every caller runs [`need`]
/// first, which is where a truncated frame becomes a typed error.
pub(crate) fn take<const N: usize>(data: &mut &[u8]) -> [u8; N] {
    let (head, rest) = data.split_at(N);
    *data = rest;
    head.try_into().expect("split_at(N) yields N bytes")
}

/// Writes a `u32` length prefix followed by the UTF-8 bytes.
pub(crate) fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a string written by [`put_string`], advancing `data` past it.
pub(crate) fn get_string(data: &mut &[u8], what: &str) -> Result<String, String> {
    need(data, 4, &format!("{what} length"))?;
    let len = u32::from_le_bytes(take(data)) as usize;
    need(data, len, what)?;
    let s = String::from_utf8(data[..len].to_vec()).map_err(|_| format!("non-UTF-8 {what}"))?;
    *data = &data[len..];
    Ok(s)
}

/// Writes one tensor as `u8 rank, u32 rows, u32 cols, f32 data` — the
/// shape-plus-payload layout shared by `AHNTP001` and `AHNTP002` frames.
pub(crate) fn put_tensor(buf: &mut Vec<u8>, t: &ahntp_tensor::Tensor) {
    let (rank, rows, cols) = match t.shape() {
        ahntp_tensor::Shape::Vector(n) => (1u8, n, 0),
        ahntp_tensor::Shape::Matrix(r, c) => (2u8, r, c),
    };
    buf.push(rank);
    buf.extend_from_slice(&(rows as u32).to_le_bytes());
    buf.extend_from_slice(&(cols as u32).to_le_bytes());
    put_f32s(buf, t.as_slice());
}

/// Reads a tensor written by [`put_tensor`], advancing `data` past it.
pub(crate) fn get_tensor(data: &mut &[u8], what: &str) -> Result<ahntp_tensor::Tensor, String> {
    need(data, 9, &format!("{what} shape"))?;
    let [rank] = take(data);
    let rows = u32::from_le_bytes(take(data)) as usize;
    let cols = u32::from_le_bytes(take(data)) as usize;
    match rank {
        1 => Ok(ahntp_tensor::Tensor::vector(get_f32s(data, rows, what)?)),
        2 => {
            let volume = rows
                .checked_mul(cols)
                .ok_or_else(|| format!("implausible shape while reading {what}"))?;
            ahntp_tensor::Tensor::from_vec(rows, cols, get_f32s(data, volume, what)?)
                .map_err(|e| format!("{what}: {e}"))
        }
        r => Err(format!("{what}: unsupported rank {r}")),
    }
}

/// Writes `values` as little-endian `f32`s.
pub(crate) fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    for &v in values {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Reads `n` little-endian `f32`s written by [`put_f32s`], advancing
/// `data` past them.
pub(crate) fn get_f32s(data: &mut &[u8], n: usize, what: &str) -> Result<Vec<f32>, String> {
    let bytes = n
        .checked_mul(4)
        .ok_or_else(|| format!("implausible length while reading {what}"))?;
    need(data, bytes, what)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f32::from_le_bytes(take(data)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_floats_round_trip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "tower.0.w");
        put_f32s(&mut buf, &[1.0, -2.5, f32::MIN_POSITIVE]);
        let mut data: &[u8] = &buf;
        assert_eq!(get_string(&mut data, "name").unwrap(), "tower.0.w");
        assert_eq!(
            get_f32s(&mut data, 3, "values").unwrap(),
            vec![1.0, -2.5, f32::MIN_POSITIVE]
        );
        assert!(data.is_empty());
    }

    #[test]
    fn truncation_is_reported_with_context() {
        let mut data: &[u8] = &[3, 0, 0, 0, b'a'];
        let err = get_string(&mut data, "model name").unwrap_err();
        assert!(err.contains("model name"), "{err}");
        let mut data: &[u8] = &[0, 0];
        assert!(get_f32s(&mut data, 1, "row").is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the zlib/PNG CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn sealed_frames_verify_and_corruption_is_caught() {
        let mut bytes = Vec::new();
        put_string(&mut bytes, "payload");
        seal(&mut bytes);
        let payload = check_seal(&bytes).expect("intact frame verifies");
        let mut data = payload;
        assert_eq!(get_string(&mut data, "s").unwrap(), "payload");

        // Any flipped byte — payload or checksum — is caught.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = check_seal(&bad).expect_err("corruption detected");
            assert!(err.contains("checksum"), "{err}");
        }
        // Truncation anywhere is caught (a shorter frame either loses
        // checksum bytes or hashes differently).
        for len in 0..bytes.len() {
            assert!(check_seal(&bytes[..len]).is_err(), "truncated to {len}");
        }
    }
}

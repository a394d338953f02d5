//! Read-only memory-mapped byte buffers with aligned typed views.
//!
//! The library crates of this workspace carry `#![forbid(unsafe_code)]`,
//! with three deliberately tiny exceptions: `ahntp-par` erases one closure
//! lifetime for its pool, `ahntp-tensor` denies `unsafe` but for one call
//! (its dense kernel's AVX-512F instantiation, made only after runtime
//! detection), and this crate. It owns the two pieces of `unsafe` the
//! zero-copy artifact path needs:
//!
//! 1. **`mmap`**: [`MappedBytes::open`] maps a file read-only through the
//!    raw `mmap(2)`/`munmap(2)` FFI (no `libc` crate in this offline
//!    build). The mapping is `PROT_READ` + `MAP_PRIVATE`, so the bytes can
//!    never be written through it and page-ins are lazy — a shard
//!    (re)start touches only the pages it actually reads.
//! 2. **typed views**: [`MappedBytes::f32s`] reinterprets an aligned byte
//!    range as `&[f32]` without copying. The view is only handed out when
//!    the range is in bounds, 4-byte aligned, and the target is
//!    little-endian (the on-disk format); otherwise callers get `None`
//!    and fall back to a parsing decode.
//!
//! When `mmap` is unavailable (or the platform is not unix), `open` falls
//! back to reading the file into an owned buffer that is 8-byte aligned
//! by construction (`Vec<u64>` backing), so `f32s` views work identically
//! — the only difference is the copy.
//!
//! # Safety argument
//!
//! * The mapping is read-only and private; no alias can mutate it through
//!   this type. The file *could* be truncated by another process while
//!   mapped (SIGBUS on access); this workspace only maps artifacts it
//!   writes once and renames into place, matching the checkpoint
//!   discipline.
//! * `f32` has no invalid bit patterns, so reinterpreting any aligned,
//!   in-bounds byte range as `&[f32]` is defined behavior.
//! * The pointer/length pair is owned by `MappedBytes` and unmapped
//!   exactly once on `Drop`; `Send + Sync` are sound because the memory
//!   is immutable for the lifetime of the value.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1
    }
}

/// How the bytes are held.
#[derive(Debug)]
enum Repr {
    /// A live `mmap(2)` mapping, unmapped on drop.
    #[cfg(unix)]
    Mmap { ptr: *const u8, len: usize },
    /// An owned buffer, 8-byte aligned by its `Vec<u64>` backing. `len`
    /// is the byte length (the last backing word may be partial).
    Owned { buf: Vec<u64>, len: usize },
}

/// An immutable byte buffer that is either a read-only file mapping or an
/// owned aligned copy, with zero-copy `&[f32]` views into it.
#[derive(Debug)]
pub struct MappedBytes {
    repr: Repr,
}

// SAFETY: the mapping's pointer is owned by this value alone, never
// aliased by another `MappedBytes`, and `munmap` may run on any thread,
// so moving the value (and its one `Drop`) to another thread is sound.
#[allow(unsafe_code)]
unsafe impl Send for MappedBytes {}
// SAFETY: the bytes are immutable for the lifetime of the value — the
// mapping is PROT_READ and the owned buffer is never exposed mutably —
// so sharing references across threads cannot race.
#[allow(unsafe_code)]
unsafe impl Sync for MappedBytes {}

impl MappedBytes {
    /// Maps `path` read-only. On unix this is a true `mmap` (lazy paging,
    /// no allocation proportional to the file); elsewhere, or if the map
    /// call fails, it falls back to [`MappedBytes::read_aligned`].
    ///
    /// # Errors
    ///
    /// Propagates file-open/metadata/read errors.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedBytes> {
        let path = path.as_ref();
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len > usize::MAX as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "file too large to map",
                ));
            }
            let len = len as usize;
            if len == 0 {
                return Ok(MappedBytes {
                    repr: Repr::Owned {
                        buf: Vec::new(),
                        len: 0,
                    },
                });
            }
            // SAFETY: fd is a valid open file for the duration of the
            // call; mmap either returns MAP_FAILED or a mapping of
            // exactly `len` bytes that we own until munmap in Drop.
            #[allow(unsafe_code)]
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if !sys::map_failed(ptr) {
                return Ok(MappedBytes {
                    repr: Repr::Mmap {
                        ptr: ptr as *const u8,
                        len,
                    },
                });
            }
            // Fall through to the copying path (e.g. exotic filesystems).
        }
        MappedBytes::read_aligned(path)
    }

    /// Reads `path` into an owned, 8-byte-aligned buffer. Same views as a
    /// mapping, paid for with one copy; the portable fallback.
    ///
    /// # Errors
    ///
    /// Propagates file read errors.
    pub fn read_aligned<P: AsRef<Path>>(path: P) -> io::Result<MappedBytes> {
        let mut file = File::open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(MappedBytes::from_bytes(&bytes))
    }

    /// Copies `bytes` into an owned, 8-byte-aligned buffer (tests and
    /// in-memory round-trips).
    pub fn from_bytes(bytes: &[u8]) -> MappedBytes {
        let words = bytes.len().div_ceil(8);
        let mut buf: Vec<u64> = vec![0; words];
        // SAFETY: u64 → u8 reinterpretation of an owned buffer; the byte
        // view covers exactly the allocation we just made.
        #[allow(unsafe_code)]
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, words * 8) };
        dst[..bytes.len()].copy_from_slice(bytes);
        MappedBytes {
            repr: Repr::Owned {
                buf,
                len: bytes.len(),
            },
        }
    }

    /// Byte length of the buffer.
    pub fn len(&self) -> usize {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mmap { len, .. } => *len,
            Repr::Owned { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the bytes are a live file mapping (as opposed to an owned
    /// in-memory copy).
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mmap { .. } => true,
            Repr::Owned { .. } => false,
        }
    }

    /// The full byte view.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            #[cfg(unix)]
            Repr::Mmap { ptr, len } => {
                // SAFETY: the mapping is `len` bytes, valid until Drop,
                // and immutable (PROT_READ).
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts(*ptr, *len)
                }
            }
            Repr::Owned { buf, len } => {
                if *len == 0 {
                    return &[];
                }
                // SAFETY: u64 → u8 view of the owned allocation; `len` ≤
                // `buf.len() * 8` by construction.
                #[allow(unsafe_code)]
                unsafe {
                    std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
                }
            }
        }
    }

    /// A zero-copy `&[f32]` view of `n` floats starting at `byte_off`.
    ///
    /// Returns `None` when the range is out of bounds, the absolute
    /// address is not 4-byte aligned, or the target is big-endian (the
    /// on-disk floats are little-endian; big-endian callers must fall
    /// back to a parsing decode).
    pub fn f32s(&self, byte_off: usize, n: usize) -> Option<&[f32]> {
        if cfg!(target_endian = "big") {
            return None;
        }
        let bytes = self.bytes();
        let end = byte_off.checked_add(n.checked_mul(4)?)?;
        if end > bytes.len() {
            return None;
        }
        if n == 0 {
            return Some(&[]);
        }
        let ptr = bytes[byte_off..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<f32>()) {
            return None;
        }
        // SAFETY: in bounds, aligned, immutable for the buffer's
        // lifetime, and every bit pattern is a valid f32.
        #[allow(unsafe_code)]
        Some(unsafe { std::slice::from_raw_parts(ptr as *const f32, n) })
    }
}

impl std::ops::Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl Drop for MappedBytes {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Repr::Mmap { ptr, len } = self.repr {
            // SAFETY: this pointer/length pair came from a successful
            // mmap in `open` and is unmapped exactly once, here.
            #[allow(unsafe_code)]
            unsafe {
                let _ = sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ahntp-mapped-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        p
    }

    #[test]
    fn from_bytes_round_trips_and_is_aligned() {
        let data: Vec<u8> = (0..37).collect();
        let m = MappedBytes::from_bytes(&data);
        assert_eq!(&*m, &data[..]);
        assert_eq!(m.len(), 37);
        assert!(!m.is_mapped());
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0);
    }

    #[test]
    fn open_maps_a_file_and_reads_it_back() {
        let path = tmp_path("open");
        let data: Vec<u8> = (0..=255).cycle().take(5000).collect();
        std::fs::write(&path, &data).unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert_eq!(&*m, &data[..]);
        #[cfg(unix)]
        assert!(m.is_mapped(), "unix open should produce a real mapping");
        drop(m);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_files_map_to_empty_buffers() {
        let path = tmp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let m = MappedBytes::open(&path).unwrap();
        assert!(m.is_empty());
        assert_eq!(&*m, b"");
        assert_eq!(m.f32s(0, 0), Some(&[][..]));
        assert_eq!(m.f32s(0, 1), None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_files_are_io_errors() {
        assert!(MappedBytes::open(tmp_path("definitely-not-created")).is_err());
    }

    #[test]
    fn f32_views_see_the_same_bits_as_a_parse() {
        let values = [1.0f32, -2.5, 0.0, f32::MIN_POSITIVE, 1e30];
        let mut bytes = vec![0u8; 4]; // 4-byte prefix keeps the view aligned
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let m = MappedBytes::from_bytes(&bytes);
        let view = m.f32s(4, values.len()).expect("aligned in-bounds view");
        for (a, b) in view.iter().zip(values.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn misaligned_or_out_of_bounds_views_are_refused() {
        let m = MappedBytes::from_bytes(&[0u8; 64]);
        assert!(m.f32s(1, 2).is_none(), "misaligned offset");
        assert!(m.f32s(2, 2).is_none(), "misaligned offset");
        assert!(m.f32s(0, 17).is_none(), "past the end");
        assert!(m.f32s(64, 1).is_none(), "starts at the end");
        assert!(m.f32s(usize::MAX, 1).is_none(), "offset overflow");
        assert!(m.f32s(0, usize::MAX).is_none(), "length overflow");
        assert!(m.f32s(0, 16).is_some(), "the full buffer is viewable");
        assert!(m.f32s(60, 1).is_some(), "the last word is viewable");
    }

    #[test]
    fn views_work_across_threads() {
        let m = std::sync::Arc::new(MappedBytes::from_bytes(&1.5f32.to_le_bytes()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || m.f32s(0, 1).unwrap()[0].to_bits())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1.5f32.to_bits());
        }
    }
}

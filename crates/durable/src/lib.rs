//! Crash-consistent file IO primitives for the tuning stack.
//!
//! A Glimpse tuning run spends (simulated) GPU hours per (network, device)
//! pair; losing the trial journal to a crash means restart-from-zero, and a
//! bare `std::fs::write` can leave a torn file even on a clean run. This
//! crate is the workspace's single sanctioned durable-IO module (rule IO1
//! bans direct write handles everywhere else):
//!
//! * [`atomic_write`] — temp file + fsync + rename (+ parent-directory
//!   fsync on Unix), so readers observe either the old bytes or the new
//!   bytes, never a prefix.
//! * [`crc32`] — slicing-by-8 table-driven CRC-32 (IEEE, reflected) for
//!   record integrity checks.
//! * [`wal`] — an append-only write-ahead log of length-prefixed,
//!   checksummed, sequence-numbered frames whose recovery path tolerates a
//!   truncated tail and a corrupted trailing record (lossy-tail recovery).
//! * [`envelope`] — the CRC32-checksummed, schema-versioned wrapper the
//!   saved artifact bundle travels in, with a panic-free typed
//!   verify-on-load.
//!
//! This crate sits at the bottom of the workspace DAG (no `glimpse_*`
//! dependencies) so every layer — `core` artifacts, `tuners` journals,
//! `bench` reports — can route writes through it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

pub mod envelope;
pub mod wal;

use std::io::Write;
use std::path::Path;

pub use envelope::{read_envelope, write_envelope, EnvelopeSpec, Integrity};
pub use wal::{open_for_append, open_for_append_at, recover, scan, Recovery, Tail, WalFrame, WalWriter};

/// Slicing-by-8 CRC-32 tables (IEEE 802.3 polynomial, reflected form).
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so one lookup per table folds
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `bytes` — the checksum carried by every WAL frame and
/// artifact envelope. Eight bytes per step (slicing-by-8), then bytewise
/// over the tail.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Atomically replaces the contents of `path` with `bytes`.
///
/// The bytes are written to a sibling temp file, fsynced, then renamed over
/// `path`; on Unix the parent directory is fsynced afterwards so the rename
/// itself is durable. A crash at any point leaves either the old file or
/// the new file — never a torn mixture.
///
/// # Errors
///
/// Returns the underlying IO error; on failure the destination is
/// untouched (a stale temp file may remain and is overwritten next time).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    #[allow(clippy::disallowed_methods, reason = "IO1: atomic_write is the sanctioned writer")]
    let mut file = std::fs::File::options().write(true).create(true).truncate(true).open(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// The temp-file path `atomic_write` stages into: `<name>.tmp` next to the
/// destination, so the rename never crosses a filesystem boundary.
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Fsyncs `path`'s parent directory so a completed rename survives power
/// loss. Best-effort: directory fsync is not supported everywhere, and the
/// rename has already succeeded, so errors are swallowed.
fn sync_parent_dir(path: &Path) {
    #[cfg(unix)]
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    let _ = path;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-byte-at-a-time CRC-32 that [`crc32`] must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let buf = noise(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "offset {offset}, len {len}");
            }
        }
        let big = noise(1 << 20, 42);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"glimpse journal record".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join("glimpse_durable_test_aw");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer than before").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer than before");
        assert!(!temp_sibling(&path).exists(), "temp file must not linger");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

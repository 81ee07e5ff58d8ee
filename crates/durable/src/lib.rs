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
//! * [`crc32`] — table-driven CRC-32 (IEEE, reflected) for record
//!   integrity checks.
//! * [`wal`] — an append-only write-ahead log of length-prefixed,
//!   checksummed, sequence-numbered frames whose recovery path tolerates a
//!   truncated tail and a corrupted trailing record (lossy-tail recovery).
//! * [`envelope`] — the CRC32-checksummed, schema-versioned wrapper every
//!   saved artifact (priors, corpus, tuning logs, calibration, spec-DB
//!   snapshots) travels in, with a panic-free typed verify-on-load.
//!
//! This crate sits at the bottom of the workspace DAG (no `glimpse_*`
//! dependencies) so every layer — `space` log files, `core` artifacts,
//! `tuners` journals, `bench` reports — can route writes through it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![forbid(unsafe_code)]

pub mod envelope;
pub mod wal;

use std::io::Write;
use std::path::Path;

pub use envelope::{read_envelope, write_envelope, EnvelopeSpec, Integrity};
pub use wal::{open_for_append, open_for_append_at, recover, scan, Recovery, Tail, WalFrame, WalWriter};

/// CRC-32 lookup table (IEEE 802.3 polynomial, reflected form).
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (IEEE) of `bytes` — the checksum carried by every WAL frame.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
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

//! Append-only write-ahead log of checksummed, sequence-numbered frames.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [payload_len: u32][seq: u64][crc32(payload): u32][payload bytes]
//! ```
//!
//! The payload is opaque to this module (the tuners layer stores one JSON
//! trial record per frame). Sequence numbers are assigned by the writer,
//! start at 0, and increase by exactly 1 per frame — a gap, repeat, or
//! regression in the sequence marks the frame (and everything after it) as
//! corrupt.
//!
//! **Lossy-tail recovery.** [`scan`] walks frames from the front and stops
//! at the first anomaly: a frame cut short by a crash, a checksum mismatch
//! from a torn or bit-flipped write, an out-of-order sequence number, or an
//! implausible length. Everything before the anomaly is intact (each frame
//! is independently checksummed); everything from the anomaly on is
//! discarded, and [`open_for_append`] truncates the file back to the last
//! valid byte so new appends continue a clean log. Recovery never panics on
//! corrupted input — the [`Tail`] names what stopped the scan.
//!
//! **Durability policy.** [`WalWriter::append`] issues one unbuffered
//! `write_all` per frame: nothing sits in a userspace buffer, so a process
//! crash (or SIGKILL) loses at most the frame being written — the OS page
//! cache preserves completed writes across process death. [`WalWriter::sync`]
//! additionally fsyncs for power-loss durability; callers invoke it at
//! a fixed trial cadence and on clean shutdown rather than per record, keeping
//! append overhead low.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::crc32;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes of frame header before the payload: `len (4) + seq (8) + crc (4)`.
pub const FRAME_HEADER_LEN: usize = 16;

/// Upper bound on a single frame's payload. A length field above this is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD_LEN: u32 = 16 * 1024 * 1024;

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Monotonic sequence number (0-based).
    pub seq: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Why a scan stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tail {
    /// The log ends exactly at a frame boundary.
    Clean,
    /// The final frame is cut short (torn write / crash mid-append).
    Truncated {
        /// Sequence number the truncated frame would have carried.
        seq: u64,
    },
    /// The final frame's payload fails its checksum.
    CrcMismatch {
        /// Sequence number of the corrupt frame.
        seq: u64,
    },
    /// The sequence number is not the expected successor (gap, duplicate,
    /// or regression).
    BadSequence {
        /// Sequence number the scan expected next.
        expected: u64,
        /// Sequence number actually found.
        found: u64,
    },
    /// The length field exceeds [`MAX_PAYLOAD_LEN`] (corrupt header).
    Oversized {
        /// Sequence number in the corrupt header.
        seq: u64,
        /// The implausible length.
        len: u32,
    },
}

impl Tail {
    /// Whether the log ended cleanly (no bytes discarded).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, Tail::Clean)
    }
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tail::Clean => write!(f, "clean tail"),
            Tail::Truncated { seq } => write!(f, "frame {seq} truncated mid-write"),
            Tail::CrcMismatch { seq } => write!(f, "frame {seq} failed its CRC check"),
            Tail::BadSequence { expected, found } => write!(f, "expected frame {expected}, found {found}"),
            Tail::Oversized { seq, len } => write!(f, "frame {seq} claims implausible length {len}"),
        }
    }
}

/// Result of scanning a log: the intact prefix and why the scan stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Frames of the intact prefix, in sequence order.
    pub frames: Vec<WalFrame>,
    /// Byte length of the intact prefix (the truncation point).
    pub valid_len: u64,
    /// What terminated the scan.
    pub tail: Tail,
}

impl Recovery {
    /// Sequence number the next appended frame should carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.seq + 1)
    }
}

/// Encodes one frame (header + payload) into a byte vector.
#[must_use]
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Scans `bytes` as a frame log starting at sequence number `first_seq`,
/// returning the intact prefix (lossy-tail recovery — see the module docs).
/// Never panics, whatever the input.
#[must_use]
pub fn scan(bytes: &[u8], first_seq: u64) -> Recovery {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut expected = first_seq;
    let tail = loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            break Tail::Clean;
        }
        if remaining < FRAME_HEADER_LEN {
            break Tail::Truncated { seq: expected };
        }
        let len = read_u32(bytes, pos);
        let seq = read_u64(bytes, pos + 4);
        let crc = read_u32(bytes, pos + 12);
        if len > MAX_PAYLOAD_LEN {
            break Tail::Oversized { seq, len };
        }
        if remaining < FRAME_HEADER_LEN + len as usize {
            break Tail::Truncated { seq: expected };
        }
        if seq != expected {
            break Tail::BadSequence { expected, found: seq };
        }
        let payload = &bytes[pos + FRAME_HEADER_LEN..pos + FRAME_HEADER_LEN + len as usize];
        if crc32(payload) != crc {
            break Tail::CrcMismatch { seq };
        }
        frames.push(WalFrame {
            seq,
            payload: payload.to_vec(),
        });
        pos += FRAME_HEADER_LEN + len as usize;
        expected += 1;
    };
    Recovery {
        frames,
        valid_len: pos as u64,
        tail,
    }
}

/// Appending end of a write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    file: std::fs::File,
    next_seq: u64,
}

impl WalWriter {
    /// Creates a fresh, empty log. Fails with `AlreadyExists` if `path`
    /// exists — an existing log must go through [`open_for_append`] so its
    /// contents are recovered, never clobbered.
    ///
    /// # Errors
    ///
    /// Any IO error from creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        #[allow(clippy::disallowed_methods, reason = "IO1: the WAL is a sanctioned writer")]
        let file = std::fs::File::options().write(true).create_new(true).open(path)?;
        Ok(Self { file, next_seq: 0 })
    }

    /// Sequence number the next [`WalWriter::append`] will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one frame with a single unbuffered write, returning its
    /// sequence number. Durable against process crash immediately; call
    /// [`WalWriter::sync`] for power-loss durability.
    ///
    /// # Errors
    ///
    /// Any IO error from the write; the log may then hold a torn frame,
    /// which the next recovery scan truncates away.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let seq = self.next_seq;
        let frame = encode_frame(seq, payload);
        self.file.write_all(&frame)?;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Deliberately writes only the first `keep` bytes of the next frame —
    /// the torn-write fault injection used by chaos tests to simulate a
    /// crash mid-append. The writer must be discarded afterwards.
    ///
    /// # Errors
    ///
    /// Any IO error from the partial write.
    pub fn append_torn(&mut self, payload: &[u8], keep: usize) -> std::io::Result<()> {
        let frame = encode_frame(self.next_seq, payload);
        let cut = keep.min(frame.len());
        self.file.write_all(&frame[..cut])
    }

    /// Fsyncs the log (power-loss durability barrier).
    ///
    /// # Errors
    ///
    /// Any IO error from `fsync`.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// Reads and scans the whole log at `path` from sequence number 0.
///
/// # Errors
///
/// Any IO error from opening or reading the file. Corruption is **not** an
/// error — it is reported through [`Recovery::tail`].
pub fn recover(path: &Path) -> std::io::Result<Recovery> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    Ok(scan(&bytes, 0))
}

/// Recovers the log at `path`, truncates any corrupt tail, and returns a
/// writer positioned to append the next frame.
///
/// # Errors
///
/// Any IO error from opening, reading, or truncating the file.
pub fn open_for_append(path: &Path) -> std::io::Result<(WalWriter, Recovery)> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let recovery = scan(&bytes, 0);
    let writer = open_for_append_at(path, recovery.valid_len, recovery.next_seq())?;
    Ok((writer, recovery))
}

/// Opens the log at `path`, truncates it to `valid_len` bytes, and returns
/// a writer that appends from sequence number `next_seq`. For callers that
/// validate payloads above the frame layer (e.g. JSON decoding) and must
/// discard a trailing frame whose bytes are intact but whose content is not.
///
/// # Errors
///
/// Any IO error from opening, truncating, or seeking.
pub fn open_for_append_at(path: &Path, valid_len: u64, next_seq: u64) -> std::io::Result<WalWriter> {
    #[allow(clippy::disallowed_methods, reason = "IO1: the WAL is a sanctioned writer")]
    let mut file = std::fs::File::options().read(true).write(true).open(path)?;
    file.set_len(valid_len)?;
    file.seek(SeekFrom::Start(valid_len))?;
    Ok(WalWriter { file, next_seq })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("glimpse_durable_test_wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn log_bytes(payloads: &[&[u8]]) -> Vec<u8> {
        payloads.iter().enumerate().flat_map(|(i, p)| encode_frame(i as u64, p)).collect()
    }

    #[test]
    fn scan_roundtrips_clean_logs() {
        let bytes = log_bytes(&[b"alpha", b"", b"gamma gamma"]);
        let r = scan(&bytes, 0);
        assert!(r.tail.is_clean());
        assert_eq!(r.valid_len, bytes.len() as u64);
        assert_eq!(r.frames.len(), 3);
        assert_eq!(r.frames[2].payload, b"gamma gamma");
        assert_eq!(r.next_seq(), 3);
    }

    #[test]
    fn scan_truncated_tail_keeps_the_prefix() {
        let bytes = log_bytes(&[b"one", b"two", b"three"]);
        let intact = log_bytes(&[b"one", b"two"]).len();
        // Every cut point inside the third frame recovers exactly two frames.
        for cut in intact + 1..bytes.len() {
            let r = scan(&bytes[..cut], 0);
            assert_eq!(r.frames.len(), 2, "cut at {cut}");
            assert_eq!(r.valid_len, intact as u64);
            assert_eq!(r.tail, Tail::Truncated { seq: 2 });
        }
    }

    #[test]
    fn scan_stops_at_a_flipped_crc_byte() {
        let mut bytes = log_bytes(&[b"one", b"two"]);
        let first = encode_frame(0, b"one").len();
        // Flip a byte inside frame 1's payload.
        let at = first + FRAME_HEADER_LEN;
        bytes[at] ^= 0x40;
        let r = scan(&bytes, 0);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.tail, Tail::CrcMismatch { seq: 1 });
        assert_eq!(r.valid_len, first as u64);
    }

    #[test]
    fn scan_stops_at_a_duplicate_sequence_number() {
        let mut bytes = log_bytes(&[b"one"]);
        bytes.extend_from_slice(&encode_frame(0, b"again")); // duplicate seq 0
        let r = scan(&bytes, 0);
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.tail, Tail::BadSequence { expected: 1, found: 0 });
    }

    #[test]
    fn scan_rejects_implausible_lengths_without_allocating() {
        let mut bytes = vec![0xFFu8; FRAME_HEADER_LEN];
        bytes.extend_from_slice(b"junk");
        let r = scan(&bytes, 0);
        assert!(r.frames.is_empty());
        assert!(matches!(r.tail, Tail::Oversized { .. }));
    }

    #[test]
    fn scan_never_panics_on_arbitrary_bytes() {
        let mut junk: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        for cut in 0..junk.len() {
            let _ = scan(&junk[..cut], 0);
        }
        junk.reverse();
        let _ = scan(&junk, 0);
    }

    #[test]
    fn writer_then_recover_roundtrips() {
        let path = temp_path("roundtrip.wal");
        let mut w = WalWriter::create(&path).unwrap();
        assert_eq!(w.append(b"r0").unwrap(), 0);
        assert_eq!(w.append(b"r1").unwrap(), 1);
        w.sync().unwrap();
        drop(w);
        let r = recover(&path).unwrap();
        assert!(r.tail.is_clean());
        assert_eq!(r.frames.len(), 2);
        assert!(WalWriter::create(&path).is_err(), "create must refuse an existing log");
    }

    #[test]
    fn open_for_append_truncates_a_torn_frame_and_continues() {
        let path = temp_path("torn.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"intact-0").unwrap();
        w.append_torn(b"doomed-1", 7).unwrap();
        drop(w);

        let (mut w, r) = open_for_append(&path).unwrap();
        assert_eq!(r.frames.len(), 1);
        assert_eq!(r.tail, Tail::Truncated { seq: 1 });
        assert_eq!(w.next_seq(), 1);
        w.append(b"fresh-1").unwrap();
        drop(w);

        // The repaired log is byte-identical to one written without the tear.
        let clean_path = temp_path("torn_clean.wal");
        let mut clean = WalWriter::create(&clean_path).unwrap();
        clean.append(b"intact-0").unwrap();
        clean.append(b"fresh-1").unwrap();
        drop(clean);
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&clean_path).unwrap());
    }
}

//! The artifact envelope: a CRC32-checksummed, schema-versioned wrapper
//! around the saved artifact bundle (Blueprint codec, prior and
//! acquisition nets).
//!
//! An artifact written through [`write_envelope`] can be handed arbitrary
//! bytes back — a torn prefix, a bit flip, a file from a newer build, a
//! foreign file dropped in its place — and [`inspect`] classifies the damage
//! without panicking. There are exactly four verdicts:
//!
//! * [`Integrity::Intact`] — header parses, kind and schema match, CRC32 of
//!   the payload matches the stored checksum.
//! * [`Integrity::ChecksumMismatch`] — well-formed envelope, payload bytes
//!   disagree with the stored CRC (bit rot, partial overwrite).
//! * [`Integrity::SchemaDrift`] — well-formed envelope whose kind or schema
//!   version is not what the caller expects (artifact from an older or
//!   newer build, or the wrong artifact class entirely).
//! * [`Integrity::Truncated`] — the bytes do not parse as an envelope at
//!   all, or the payload is shorter than the header promised. A torn file
//!   and foreign bytes are indistinguishable from here, so both land in
//!   this bucket; the `detail` string says which heuristic fired.
//!
//! Two more variants exist only on the *filesystem* path
//! ([`read_envelope`]): [`Integrity::Missing`] for a file that is not
//! there, and [`Integrity::Unreadable`] for an IO error other than
//! not-found. A byte-level [`inspect`] never returns them.
//!
//! ## Wire format
//!
//! One ASCII header line, then the raw payload:
//!
//! ```text
//! glimpse-envelope <kind> v<schema> len=<bytes> crc=<crc32-hex>\n
//! <payload...>
//! ```
//!
//! The header is deliberately textual so `head -1` identifies any artifact
//! on disk, while the payload stays byte-exact (the CRC covers payload
//! bytes only — re-encoding is never needed to verify).

use crate::{atomic_write, crc32};
use std::fmt;
use std::path::Path;

/// Leading magic token of every envelope header line.
pub const MAGIC: &str = "glimpse-envelope";

/// The (kind, schema-version) pair an artifact class writes and expects
/// back. Kind is a short kebab-case noun (`"artifacts"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeSpec {
    /// Artifact class name embedded in the header.
    pub kind: &'static str,
    /// Schema version the current build reads and writes.
    pub schema: u32,
}

impl EnvelopeSpec {
    /// `kind v<schema>`, the form used in drift reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} v{}", self.kind, self.schema)
    }
}

/// Verdict of verifying candidate envelope bytes, plus the two
/// filesystem-only failure shapes. Never panics to produce; total over
/// arbitrary input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Integrity {
    /// Header, kind, schema, and payload CRC all check out.
    Intact,
    /// Well-formed envelope whose payload no longer matches its checksum.
    ChecksumMismatch {
        /// CRC32 recorded in the header.
        stored: u32,
        /// CRC32 computed over the payload bytes actually present.
        computed: u32,
    },
    /// Well-formed envelope of an unexpected kind or schema version.
    SchemaDrift {
        /// `kind v<schema>` found in the header.
        found: String,
        /// `kind v<schema>` the caller expected.
        expected: String,
    },
    /// Not a parseable envelope, or the payload ends early.
    Truncated {
        /// Which parse step failed (for doctor output and logs).
        detail: String,
    },
    /// The artifact file does not exist (filesystem path only).
    Missing,
    /// The artifact file could not be read (filesystem path only).
    Unreadable {
        /// Stringified IO error.
        detail: String,
    },
}

impl Integrity {
    /// Whether the artifact is usable as-is.
    #[must_use]
    pub fn is_intact(&self) -> bool {
        matches!(self, Integrity::Intact)
    }

    /// Short machine-stable tag (`intact`, `checksum-mismatch`, ...), used
    /// by doctor tables and degradation causes.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Integrity::Intact => "intact",
            Integrity::ChecksumMismatch { .. } => "checksum-mismatch",
            Integrity::SchemaDrift { .. } => "schema-drift",
            Integrity::Truncated { .. } => "truncated",
            Integrity::Missing => "missing",
            Integrity::Unreadable { .. } => "unreadable",
        }
    }
}

impl fmt::Display for Integrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Integrity::Intact => write!(f, "intact"),
            Integrity::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch (stored {stored:08x}, computed {computed:08x})")
            }
            Integrity::SchemaDrift { found, expected } => write!(f, "schema drift (found {found}, expected {expected})"),
            Integrity::Truncated { detail } => write!(f, "truncated envelope ({detail})"),
            Integrity::Missing => write!(f, "artifact file missing"),
            Integrity::Unreadable { detail } => write!(f, "artifact file unreadable ({detail})"),
        }
    }
}

impl std::error::Error for Integrity {}

/// The fields of a parsed header line, before kind/schema/CRC checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Artifact class name from the header.
    pub kind: String,
    /// Schema version from the header.
    pub schema: u32,
    /// Payload length the header promises.
    pub len: usize,
    /// Payload CRC32 the header promises.
    pub crc: u32,
}

impl Header {
    /// `kind v<schema>`, mirroring [`EnvelopeSpec::label`].
    #[must_use]
    pub fn label(&self) -> String {
        format!("{} v{}", self.kind, self.schema)
    }
}

/// Builds the on-disk bytes for `payload` under `spec` (pure; no IO).
#[must_use]
pub fn seal(spec: EnvelopeSpec, payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{MAGIC} {} v{} len={} crc={:08x}\n",
        spec.kind,
        spec.schema,
        payload.len(),
        crc32(payload)
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Seals `payload` under `spec` and writes it through [`atomic_write`].
///
/// # Errors
///
/// Propagates the underlying IO error; the destination is untouched on
/// failure.
pub fn write_envelope(path: &Path, spec: EnvelopeSpec, payload: &[u8]) -> std::io::Result<()> {
    atomic_write(path, &seal(spec, payload))
}

/// Splits `bytes` into (header line, rest) and parses the header fields.
/// Total over arbitrary bytes: any malformation is a `Truncated` verdict.
fn parse_header(bytes: &[u8]) -> Result<(Header, &[u8]), Integrity> {
    // The header is short; refusing to scan further bounds work on huge
    // garbage files whose first newline is megabytes in.
    const MAX_HEADER: usize = 256;
    let window = &bytes[..bytes.len().min(MAX_HEADER)];
    let Some(nl) = window.iter().position(|&b| b == b'\n') else {
        return Err(Integrity::Truncated {
            detail: "no header line terminator".into(),
        });
    };
    let Ok(line) = std::str::from_utf8(&bytes[..nl]) else {
        return Err(Integrity::Truncated {
            detail: "header is not UTF-8".into(),
        });
    };
    let mut fields = line.split(' ');
    if fields.next() != Some(MAGIC) {
        return Err(Integrity::Truncated {
            detail: "missing magic token".into(),
        });
    }
    let (Some(kind), Some(version), Some(len_field), Some(crc_field), None) =
        (fields.next(), fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err(Integrity::Truncated {
            detail: "wrong header field count".into(),
        });
    };
    let Some(schema) = version.strip_prefix('v').and_then(|v| v.parse::<u32>().ok()) else {
        return Err(Integrity::Truncated {
            detail: "unparseable schema version".into(),
        });
    };
    let Some(len) = len_field.strip_prefix("len=").and_then(|v| v.parse::<usize>().ok()) else {
        return Err(Integrity::Truncated {
            detail: "unparseable payload length".into(),
        });
    };
    let Some(crc) = crc_field.strip_prefix("crc=").and_then(|v| u32::from_str_radix(v, 16).ok()) else {
        return Err(Integrity::Truncated {
            detail: "unparseable payload checksum".into(),
        });
    };
    Ok((
        Header {
            kind: kind.to_string(),
            schema,
            len,
            crc,
        },
        &bytes[nl + 1..],
    ))
}

/// Parses just the header, without checking kind, schema, or payload.
/// Doctor uses this to classify unidentified files on disk.
///
/// # Errors
///
/// Returns the same `Truncated` verdicts as a full [`inspect`] when the
/// header does not parse.
pub fn sniff(bytes: &[u8]) -> Result<Header, Integrity> {
    parse_header(bytes).map(|(header, _)| header)
}

/// Verifies `bytes` against `spec` and, on success, returns the payload
/// slice. Check order: header shape, then kind+schema, then payload length,
/// then CRC — so a drifted-but-wellformed envelope reports `SchemaDrift`,
/// not a checksum error.
///
/// # Errors
///
/// Returns the non-`Intact` [`Integrity`] verdict describing the damage.
pub fn open(bytes: &[u8], spec: EnvelopeSpec) -> Result<&[u8], Integrity> {
    let (header, rest) = parse_header(bytes)?;
    if header.kind != spec.kind || header.schema != spec.schema {
        return Err(Integrity::SchemaDrift {
            found: header.label(),
            expected: spec.label(),
        });
    }
    if rest.len() < header.len {
        return Err(Integrity::Truncated {
            detail: format!("payload has {} of {} bytes", rest.len(), header.len),
        });
    }
    let payload = &rest[..header.len];
    let computed = crc32(payload);
    if computed != header.crc {
        return Err(Integrity::ChecksumMismatch {
            stored: header.crc,
            computed,
        });
    }
    Ok(payload)
}

/// Classifies `bytes` against `spec` without borrowing the payload.
#[must_use]
pub fn inspect(bytes: &[u8], spec: EnvelopeSpec) -> Integrity {
    match open(bytes, spec) {
        Ok(_) => Integrity::Intact,
        Err(verdict) => verdict,
    }
}

/// Reads `path` and verifies it against `spec`, returning the payload.
///
/// # Errors
///
/// `Missing` when the file does not exist, `Unreadable` on other IO
/// errors, otherwise the byte-level verdict from [`open`].
pub fn read_envelope(path: &Path, spec: EnvelopeSpec) -> Result<Vec<u8>, Integrity> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(Integrity::Missing),
        Err(e) => {
            return Err(Integrity::Unreadable { detail: e.to_string() });
        }
    };
    open(&bytes, spec).map(<[u8]>::to_vec)
}

/// Classifies the artifact at `path` against `spec`.
#[must_use]
pub fn verify_file(path: &Path, spec: EnvelopeSpec) -> Integrity {
    match read_envelope(path, spec) {
        Ok(_) => Integrity::Intact,
        Err(verdict) => verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: EnvelopeSpec = EnvelopeSpec {
        kind: "test-artifact",
        schema: 3,
    };

    #[test]
    fn seal_then_open_round_trips() {
        let payload = b"{\"answer\":42}";
        let sealed = seal(SPEC, payload);
        assert_eq!(open(&sealed, SPEC).unwrap(), payload);
        assert_eq!(inspect(&sealed, SPEC), Integrity::Intact);
    }

    #[test]
    fn empty_payload_is_intact() {
        let sealed = seal(SPEC, b"");
        assert_eq!(open(&sealed, SPEC).unwrap(), b"");
    }

    #[test]
    fn payload_with_newlines_and_magic_round_trips() {
        // The payload may itself contain header-lookalike lines.
        let payload = format!("{MAGIC} decoy v9 len=0 crc=00000000\nmore\n");
        let sealed = seal(SPEC, payload.as_bytes());
        assert_eq!(open(&sealed, SPEC).unwrap(), payload.as_bytes());
    }

    #[test]
    fn flipped_payload_bit_is_checksum_mismatch() {
        let sealed = seal(SPEC, b"payload bytes under test");
        let header_end = sealed.iter().position(|&b| b == b'\n').unwrap() + 1;
        for i in header_end..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(inspect(&bad, SPEC), Integrity::ChecksumMismatch { .. }),
                "payload flip at byte {i} missed"
            );
        }
    }

    #[test]
    fn flipped_stored_crc_is_checksum_mismatch() {
        let payload = b"payload";
        let header = format!(
            "{MAGIC} {} v{} len={} crc={:08x}\n",
            SPEC.kind,
            SPEC.schema,
            payload.len(),
            crc32(payload) ^ 0x1
        );
        let mut bad = header.into_bytes();
        bad.extend_from_slice(payload);
        assert!(matches!(inspect(&bad, SPEC), Integrity::ChecksumMismatch { .. }));
    }

    #[test]
    fn bumped_schema_is_drift_with_both_versions() {
        let bumped = EnvelopeSpec {
            kind: SPEC.kind,
            schema: SPEC.schema + 1,
        };
        let sealed = seal(bumped, b"payload");
        match inspect(&sealed, SPEC) {
            Integrity::SchemaDrift { found, expected } => {
                assert_eq!(found, "test-artifact v4");
                assert_eq!(expected, "test-artifact v3");
            }
            other => panic!("expected drift, got {other:?}"),
        }
    }

    #[test]
    fn wrong_kind_is_drift() {
        let other = EnvelopeSpec {
            kind: "other-artifact",
            schema: SPEC.schema,
        };
        let sealed = seal(other, b"payload");
        assert!(matches!(inspect(&sealed, SPEC), Integrity::SchemaDrift { .. }));
    }

    #[test]
    fn truncation_at_every_byte_is_typed_and_panic_free() {
        let sealed = seal(SPEC, b"0123456789abcdef");
        for cut in 0..sealed.len() {
            let verdict = inspect(&sealed[..cut], SPEC);
            assert!(
                matches!(verdict, Integrity::Truncated { .. }),
                "cut at {cut} gave {verdict:?}, expected Truncated"
            );
        }
    }

    #[test]
    fn arbitrary_garbage_is_truncated_not_a_panic() {
        for bytes in [
            &b""[..],
            &b"\n"[..],
            &b"not an envelope\n"[..],
            &b"glimpse-envelope\n"[..],
            &b"glimpse-envelope test-artifact v3 len=xx crc=zz\n"[..],
            &b"glimpse-envelope test-artifact vX len=1 crc=00000000\npayload"[..],
            &b"glimpse-envelope test-artifact v3 len=1 crc=00000000 extra\np"[..],
            &b"\xff\xfe\xfd\xfc"[..],
            &[0u8; 4096][..],
        ] {
            assert!(
                matches!(inspect(bytes, SPEC), Integrity::Truncated { .. }),
                "garbage {bytes:?} not classified Truncated"
            );
        }
    }

    #[test]
    fn oversized_len_field_is_truncated() {
        let bad = format!("{MAGIC} test-artifact v3 len=18446744073709551615 crc=00000000\nshort");
        assert!(matches!(inspect(bad.as_bytes(), SPEC), Integrity::Truncated { .. }));
    }

    #[test]
    fn extra_trailing_bytes_are_ignored() {
        // atomic_write never leaves a long tail, but a copied-over file
        // might; the CRC covers exactly `len` bytes.
        let mut sealed = seal(SPEC, b"payload");
        sealed.extend_from_slice(b"trailing junk");
        assert_eq!(open(&sealed, SPEC).unwrap(), b"payload");
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("glimpse_envelope_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        write_envelope(&path, SPEC, b"on-disk payload").unwrap();
        assert_eq!(read_envelope(&path, SPEC).unwrap(), b"on-disk payload");
        assert_eq!(verify_file(&path, SPEC), Integrity::Intact);
        assert_eq!(verify_file(&dir.join("absent.bin"), SPEC), Integrity::Missing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sniff_reports_header_fields_without_spec() {
        let sealed = seal(SPEC, b"xyz");
        let header = sniff(&sealed).unwrap();
        assert_eq!(header.kind, "test-artifact");
        assert_eq!(header.schema, 3);
        assert_eq!(header.len, 3);
        assert_eq!(header.label(), "test-artifact v3");
    }
}

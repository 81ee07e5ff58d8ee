//! Loader fuzz suite for the degraded-mode contract: every artifact loader
//! (bundle, corpus, tuning log, calibration, spec-DB snapshot) is total
//! over arbitrary bytes. Whatever is on disk — garbage, a flipped CRC, a
//! bumped schema version, a truncation at any byte — the loader returns a
//! typed error and never panics.
//!
//! Deterministic sweeps cover every single-byte flip and every truncation
//! point of a valid fixture per artifact class; proptest feeds arbitrary
//! bytes and arbitrary foreign envelopes on top.

use glimpse_repro::core::artifacts::{ArtifactLoadError, GlimpseArtifacts, ARTIFACTS_ENVELOPE};
use glimpse_repro::core::corpus::{self, CorpusLoadError, CORPUS_ENVELOPE};
use glimpse_repro::core::{GlimpseConfig, GlimpseTuner, ResolvedArtifacts};
use glimpse_repro::durable::atomic_write;
use glimpse_repro::durable::envelope::{self, EnvelopeSpec, Integrity};
use glimpse_repro::gpu_spec::database;
use glimpse_repro::gpu_spec::snapshot::{self, SnapshotError, SPEC_DB_ENVELOPE};
use glimpse_repro::sim::calibrate::{self, CalibrationLoadError, NoiseEstimate, CALIBRATION_ENVELOPE};
use glimpse_repro::sim::Measurer;
use glimpse_repro::space::logfmt::{self, LogLoadError, LogRecord, TUNING_LOG_ENVELOPE};
use glimpse_repro::space::templates;
use glimpse_repro::supervise::{Component, HealthCause};
use glimpse_repro::tensor_prog::models;
use glimpse_repro::tuners::{Budget, TuneContext, Tuner};
use proptest::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Uniform classification of one loader invocation, shared across the five
/// error types so the sweeps can assert the same contract everywhere.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Loaded successfully.
    Loaded,
    /// Typed envelope-level damage (missing, truncated, checksum, drift).
    Damaged(Integrity),
    /// Typed post-envelope error (undecodable payload, invalid entry,
    /// unparseable line).
    Rejected,
}

impl Verdict {
    fn is_damaged(&self) -> bool {
        matches!(self, Verdict::Damaged(_))
    }
}

fn load_artifacts(path: &Path) -> Verdict {
    match GlimpseArtifacts::load(path) {
        Ok(_) => Verdict::Loaded,
        Err(ArtifactLoadError::Damaged(i)) => Verdict::Damaged(i),
        Err(ArtifactLoadError::Undecodable { .. }) => Verdict::Rejected,
    }
}

fn load_corpus(path: &Path) -> Verdict {
    match corpus::load(path) {
        Ok(_) => Verdict::Loaded,
        Err(CorpusLoadError::Damaged(i)) => Verdict::Damaged(i),
        Err(CorpusLoadError::Undecodable { .. }) => Verdict::Rejected,
    }
}

fn load_log(path: &Path) -> Verdict {
    match logfmt::load_log(path) {
        Ok(_) => Verdict::Loaded,
        Err(LogLoadError::Damaged(i)) => Verdict::Damaged(i),
        Err(LogLoadError::Line { .. }) => Verdict::Rejected,
    }
}

fn load_calibration(path: &Path) -> Verdict {
    match calibrate::load_estimate(path) {
        Ok(_) => Verdict::Loaded,
        Err(CalibrationLoadError::Damaged(i)) => Verdict::Damaged(i),
        Err(CalibrationLoadError::Undecodable { .. }) => Verdict::Rejected,
    }
}

fn load_snapshot(path: &Path) -> Verdict {
    match snapshot::load_snapshot(path) {
        Ok(_) => Verdict::Loaded,
        Err(SnapshotError::Damaged(i)) => Verdict::Damaged(i),
        Err(SnapshotError::Undecodable { .. } | SnapshotError::Invalid(_)) => Verdict::Rejected,
    }
}

/// One artifact class under test: how to write a valid fixture, how to load
/// it back, and the envelope spec its files carry.
struct Class {
    name: &'static str,
    spec: EnvelopeSpec,
    write: fn(&Path),
    load: fn(&Path) -> Verdict,
}

fn classes() -> Vec<Class> {
    vec![
        Class {
            name: "artifacts",
            spec: ARTIFACTS_ENVELOPE,
            // A syntactically intact envelope whose payload is not a real
            // bundle: envelope-level sweeps behave identically to a trained
            // bundle's (CRC and header checks run before decoding), without
            // paying for meta-training in a fuzz loop.
            write: |path| envelope::write_envelope(path, ARTIFACTS_ENVELOPE, b"{\"not\":\"a bundle\"}").unwrap(),
            load: load_artifacts,
        },
        Class {
            name: "corpus",
            spec: CORPUS_ENVELOPE,
            write: |path| corpus::save(path, &[]).unwrap(),
            load: load_corpus,
        },
        Class {
            name: "tuning-log",
            spec: TUNING_LOG_ENVELOPE,
            write: |path| {
                let records = vec![LogRecord {
                    space: "conv2d".into(),
                    knobs: vec![("tile_x".into(), "[1,2,14,2]".into())],
                    gflops: Some(812.25),
                }];
                logfmt::save_log(path, &records).unwrap();
            },
            load: load_log,
        },
        Class {
            name: "calibration",
            spec: CALIBRATION_ENVELOPE,
            write: |path| {
                let estimate = NoiseEstimate {
                    mean_latency_s: 1.5e-3,
                    log_sigma: 0.05,
                    samples: 8,
                };
                calibrate::save_estimate(path, &estimate).unwrap();
            },
            load: load_calibration,
        },
        Class {
            name: "spec-db",
            spec: SPEC_DB_ENVELOPE,
            write: |path| {
                let specs = vec![database::find("Titan Xp").unwrap().clone()];
                snapshot::save_snapshot(path, &specs).unwrap();
            },
            load: load_snapshot,
        },
    ]
}

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glimpse-loader-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(tag)
}

#[test]
fn intact_fixtures_load_and_verify() {
    for class in classes() {
        let path = temp_file(&format!("intact-{}", class.name));
        (class.write)(&path);
        let verdict = (class.load)(&path);
        match class.name {
            // The stand-in bundle payload is deliberately not decodable.
            "artifacts" => assert_eq!(verdict, Verdict::Rejected, "{}", class.name),
            _ => assert_eq!(verdict, Verdict::Loaded, "{}", class.name),
        }
        assert_eq!(envelope::verify_file(&path, class.spec), Integrity::Intact, "{}", class.name);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn missing_files_are_typed_missing() {
    let path = Path::new("/nonexistent/glimpse-loader-fuzz/absent.bin");
    for class in classes() {
        assert_eq!((class.load)(path), Verdict::Damaged(Integrity::Missing), "{}", class.name);
    }
}

/// Truncation at every byte of every fixture gives a typed error, never a
/// panic. The tuning log's legacy-JSONL path means sub-magic truncations
/// fall back to line parsing (still typed); everything else must report
/// envelope damage.
#[test]
fn truncation_at_every_byte_is_typed_and_panic_free() {
    for class in classes() {
        let path = temp_file(&format!("trunc-{}", class.name));
        (class.write)(&path);
        let full = std::fs::read(&path).expect("fixture readable");
        for cut in 0..full.len() {
            atomic_write(&path, &full[..cut]).expect("truncated write");
            let verdict = (class.load)(&path);
            let magic_intact = full[..cut].starts_with(envelope::MAGIC.as_bytes());
            if class.name == "tuning-log" && !magic_intact {
                // Sub-magic truncations fall to the legacy JSONL path: a
                // typed line error, or — at cut 0 only — a legitimately
                // empty legacy log.
                assert!(
                    verdict == Verdict::Rejected || (cut == 0 && verdict == Verdict::Loaded),
                    "{} cut at {cut}: {verdict:?}",
                    class.name
                );
            } else {
                assert!(
                    verdict.is_damaged(),
                    "{} cut at {cut}: expected damage, got {verdict:?}",
                    class.name
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Flipping any single byte of a fixture — header, CRC field, or payload —
/// is detected as typed envelope damage (the tuning-log caveat mirrors the
/// truncation sweep: a destroyed magic token demotes the file to the legacy
/// path, which then rejects the garbage line).
#[test]
fn flipped_byte_at_every_position_is_detected() {
    for class in classes() {
        let path = temp_file(&format!("flip-{}", class.name));
        (class.write)(&path);
        let full = std::fs::read(&path).expect("fixture readable");
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0xFF;
            atomic_write(&path, &bad).expect("flipped write");
            let verdict = (class.load)(&path);
            if class.name == "tuning-log" && !bad.starts_with(envelope::MAGIC.as_bytes()) {
                assert_ne!(verdict, Verdict::Loaded, "{} flip at {i} silently loaded garbage", class.name);
            } else {
                assert!(verdict.is_damaged(), "{} flip at {i}: expected damage, got {verdict:?}", class.name);
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Re-sealing a fixture's payload under a bumped schema version is pure
/// schema drift naming both versions — the payload bytes are untouched.
#[test]
fn bumped_schema_is_drift_naming_both_versions() {
    for class in classes() {
        let path = temp_file(&format!("bump-{}", class.name));
        (class.write)(&path);
        let bytes = std::fs::read(&path).expect("fixture readable");
        let payload = envelope::open(&bytes, class.spec).expect("fixture intact");
        let bumped = EnvelopeSpec {
            kind: class.spec.kind,
            schema: class.spec.schema + 1,
        };
        envelope::write_envelope(&path, bumped, payload).expect("bumped write");
        match (class.load)(&path) {
            Verdict::Damaged(Integrity::SchemaDrift { found, expected }) => {
                assert_eq!(found, bumped.label(), "{}", class.name);
                assert_eq!(expected, class.spec.label(), "{}", class.name);
            }
            other => panic!("{}: expected schema drift, got {other:?}", class.name),
        }
        let _ = std::fs::remove_file(&path);
    }
}

/// Sealing one class's payload under another class's kind is drift, not a
/// decode attempt: a corpus dropped where the spec DB should be never
/// reaches the decoder.
#[test]
fn wrong_kind_is_drift_not_a_decode() {
    let path = temp_file("cross-kind");
    envelope::write_envelope(&path, CORPUS_ENVELOPE, b"[]").expect("sealed");
    for class in classes() {
        if class.spec.kind == CORPUS_ENVELOPE.kind {
            continue;
        }
        let verdict = (class.load)(&path);
        assert!(
            matches!(verdict, Verdict::Damaged(Integrity::SchemaDrift { .. })),
            "{}: expected drift, got {verdict:?}",
            class.name
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// The committed full-preset bundle's payload: a real trained bundle to
/// damage.
fn committed_bundle() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/artifacts-RTX_2080_Ti-42.json");
    let text = std::fs::read_to_string(path).expect("committed bundle readable");
    serde_json::from_str(&text).expect("committed bundle is JSON")
}

/// The member `key` of a JSON object.
fn member<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(pairs) => pairs.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v).expect(key),
        other => panic!("expected an object with {key}, got {other:?}"),
    }
}

/// The items of a JSON array.
fn items(value: &mut Value) -> &mut Vec<Value> {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// The layer list of net `index` in the bundle's `nets` array.
fn layers<'a>(bundle: &'a mut Value, nets: &str, index: usize) -> &'a mut Vec<Value> {
    items(member(member(&mut items(member(bundle, nets))[index], "mlp"), "layers"))
}

/// An in-place edit of a decoded bundle payload.
type BundleEdit = fn(&mut Value);

/// Edits that keep a bundle valid JSON of the right type, so the envelope
/// seals it with a valid CRC, but break the shapes tuning relies on.
fn malformed_bundle_edits() -> Vec<(&'static str, BundleEdit)> {
    vec![
        ("every net has no layers", |bundle| {
            for nets in ["priors", "acquisitions"] {
                for index in 0..3 {
                    layers(bundle, nets, index).clear();
                }
            }
        }),
        ("layer 0 weights cut to 3 values", |bundle| {
            items(member(&mut layers(bundle, "priors", 0)[0], "w")).truncate(3);
        }),
        ("one prior has no layers", |bundle| layers(bundle, "priors", 0).clear()),
        ("normalizer means cut to 2 values", |bundle| {
            items(member(member(member(bundle, "codec"), "normalizer"), "means")).truncate(2);
        }),
    ]
}

/// A bundle whose CRC verifies but whose shapes do not fit together is
/// rejected at load, so the ladder degrades it and a tune spends its whole
/// budget on the fallback rungs instead of panicking mid-search. The
/// unedited bundle passes the same shape check.
#[test]
fn malformed_bundle_with_valid_crc_is_rejected_and_tunes_degraded() {
    let bundle = committed_bundle();
    let path = temp_file("malformed-bundle");
    let seal = |value: &Value| {
        let text = serde_json::to_string(value).expect("bundle encodes");
        envelope::write_envelope(&path, ARTIFACTS_ENVELOPE, text.as_bytes()).expect("sealed");
    };
    seal(&bundle);
    assert_eq!(load_artifacts(&path), Verdict::Loaded, "the committed bundle must pass");

    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let gpu = database::find("RTX 2080 Ti").unwrap();
    for (name, edit) in malformed_bundle_edits() {
        let mut damaged = bundle.clone();
        edit(&mut damaged);
        seal(&damaged);
        assert_eq!(load_artifacts(&path), Verdict::Rejected, "{name}");
        assert!(!GlimpseArtifacts::verify(&path).is_intact(), "{name}");

        let resolved = ResolvedArtifacts::load(&path);
        assert!(resolved.artifacts.is_none(), "{name}");
        for component in [Component::Prior, Component::Acquisition, Component::Sampler] {
            let report = resolved.health.get(component).expect("component listed");
            assert_eq!(report.health.cause(), Some(&HealthCause::Undecodable), "{name}: {component:?}");
        }
        let mut measurer = Measurer::new(gpu.clone(), 7);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(16), 7);
        let outcome = GlimpseTuner::from_resolved(&resolved, gpu, GlimpseConfig::default()).tune(ctx);
        assert_eq!(outcome.measurements, 16, "{name}");
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Arbitrary bytes never panic any loader, and never load as a strict
    /// enveloped artifact unless they carry the magic token.
    #[test]
    fn arbitrary_bytes_never_panic_any_loader(bytes in proptest::collection::vec(0u8..=255u8, 0..512)) {
        let path = temp_file("prop-arbitrary");
        atomic_write(&path, &bytes).expect("write");
        for class in classes() {
            let verdict = (class.load)(&path);
            if !bytes.starts_with(envelope::MAGIC.as_bytes()) && class.name != "tuning-log" {
                prop_assert!(verdict.is_damaged(), "{}: {verdict:?}", class.name);
            }
        }
        prop_assert!(!GlimpseArtifacts::verify(&path).is_intact() || bytes.starts_with(envelope::MAGIC.as_bytes()));
    }

    /// A well-formed envelope of arbitrary kind, schema, and payload is
    /// classified without panicking: drift when the kind or schema is
    /// foreign, a typed decode rejection otherwise.
    #[test]
    fn arbitrary_envelopes_are_classified_not_trusted(
        kind_index in 0usize..6,
        schema in 1u32..4,
        payload in proptest::collection::vec(0u8..=255u8, 0..256),
    ) {
        let kinds = ["artifacts", "corpus", "tuning-log", "calibration", "spec-db", "mystery"];
        let kind = kinds[kind_index];
        // EnvelopeSpec holds &'static str; build the header by sealing
        // under a leaked-free static kind from the table above.
        let spec = EnvelopeSpec { kind, schema };
        let path = temp_file("prop-envelope");
        envelope::write_envelope(&path, spec, &payload).expect("sealed");
        for class in classes() {
            let verdict = (class.load)(&path);
            if class.spec.kind != kind || class.spec.schema != schema {
                prop_assert!(
                    matches!(verdict, Verdict::Damaged(Integrity::SchemaDrift { .. })),
                    "{} vs {} v{}: {verdict:?}", class.name, kind, schema
                );
            } else {
                // Matching kind and schema: the payload is garbage, so the
                // loader may reject it, but the envelope itself verifies.
                prop_assert!(verdict != Verdict::Loaded || class.name == "tuning-log" || payload_is_benign(&payload, class.name));
            }
        }
    }
}

/// Whether arbitrary payload bytes happen to decode for a class (an empty
/// JSON list is a valid empty corpus or snapshot, for example).
fn payload_is_benign(payload: &[u8], class: &str) -> bool {
    match class {
        "corpus" | "spec-db" => serde_json::from_str::<serde_json::Value>(&String::from_utf8_lossy(payload)).is_ok(),
        _ => false,
    }
}

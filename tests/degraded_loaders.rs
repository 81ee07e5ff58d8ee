//! Loader fuzz suite for the degraded-mode contract: the artifact-bundle
//! loader is total over arbitrary bytes. Whatever is on disk — garbage, a
//! flipped CRC, a bumped schema version, an envelope of another kind, a
//! truncation at any byte — the loader returns a typed error and never
//! panics.
//!
//! Deterministic sweeps cover every single-byte flip and every truncation
//! point of a valid fixture; proptest feeds arbitrary bytes and arbitrary
//! foreign envelopes on top.

use glimpse_repro::core::artifacts::{ArtifactLoadError, GlimpseArtifacts, ARTIFACTS_ENVELOPE};
use glimpse_repro::core::{GlimpseConfig, GlimpseTuner, ResolvedArtifacts};
use glimpse_repro::durable::atomic_write;
use glimpse_repro::durable::envelope::{self, EnvelopeSpec, Integrity};
use glimpse_repro::gpu_spec::database;
use glimpse_repro::sim::Measurer;
use glimpse_repro::space::templates;
use glimpse_repro::supervise::{Component, HealthCause};
use glimpse_repro::tensor_prog::models;
use glimpse_repro::tuners::{Budget, TuneContext, Tuner};
use proptest::prelude::*;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Classification of one loader invocation, so the sweeps can assert the
/// contract uniformly.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Loaded successfully.
    Loaded,
    /// Typed envelope-level damage (missing, truncated, checksum, drift).
    Damaged(Integrity),
    /// Typed post-envelope error (undecodable payload or shapes).
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

/// Writes a syntactically intact envelope whose payload is not a real
/// bundle: envelope-level sweeps behave identically to a trained bundle's
/// (CRC and header checks run before decoding), without paying for
/// meta-training in a fuzz loop.
fn write_fixture(path: &Path) {
    envelope::write_envelope(path, ARTIFACTS_ENVELOPE, b"{\"not\":\"a bundle\"}").expect("fixture sealed");
}

fn temp_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glimpse-loader-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(tag)
}

#[test]
fn intact_fixtures_load_and_verify() {
    let path = temp_file("intact");
    write_fixture(&path);
    // The stand-in payload is deliberately not decodable.
    assert_eq!(load_artifacts(&path), Verdict::Rejected);
    assert_eq!(envelope::verify_file(&path, ARTIFACTS_ENVELOPE), Integrity::Intact);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_files_are_typed_missing() {
    let path = Path::new("/nonexistent/glimpse-loader-fuzz/absent.bin");
    assert_eq!(load_artifacts(path), Verdict::Damaged(Integrity::Missing));
}

/// Truncation at every byte of the fixture reports typed envelope damage,
/// never a panic.
#[test]
fn truncation_at_every_byte_is_typed_and_panic_free() {
    let path = temp_file("trunc");
    write_fixture(&path);
    let full = std::fs::read(&path).expect("fixture readable");
    for cut in 0..full.len() {
        atomic_write(&path, &full[..cut]).expect("truncated write");
        let verdict = load_artifacts(&path);
        assert!(verdict.is_damaged(), "cut at {cut}: expected damage, got {verdict:?}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Flipping any single byte of the fixture — header, CRC field, or
/// payload — is detected as typed envelope damage.
#[test]
fn flipped_byte_at_every_position_is_detected() {
    let path = temp_file("flip");
    write_fixture(&path);
    let full = std::fs::read(&path).expect("fixture readable");
    for i in 0..full.len() {
        let mut bad = full.clone();
        bad[i] ^= 0xFF;
        atomic_write(&path, &bad).expect("flipped write");
        let verdict = load_artifacts(&path);
        assert!(verdict.is_damaged(), "flip at {i}: expected damage, got {verdict:?}");
    }
    let _ = std::fs::remove_file(&path);
}

/// Re-sealing the fixture's payload under a bumped schema version is pure
/// schema drift naming both versions — the payload bytes are untouched.
#[test]
fn bumped_schema_is_drift_naming_both_versions() {
    let path = temp_file("bump");
    write_fixture(&path);
    let bytes = std::fs::read(&path).expect("fixture readable");
    let payload = envelope::open(&bytes, ARTIFACTS_ENVELOPE).expect("fixture intact");
    let bumped = EnvelopeSpec {
        schema: ARTIFACTS_ENVELOPE.schema + 1,
        ..ARTIFACTS_ENVELOPE
    };
    envelope::write_envelope(&path, bumped, payload).expect("bumped write");
    match load_artifacts(&path) {
        Verdict::Damaged(Integrity::SchemaDrift { found, expected }) => {
            assert_eq!(found, bumped.label());
            assert_eq!(expected, ARTIFACTS_ENVELOPE.label());
        }
        other => panic!("expected schema drift, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// An envelope of another kind is drift, not a decode attempt: a foreign
/// file dropped where the bundle should be never reaches the decoder.
#[test]
fn wrong_kind_is_drift_not_a_decode() {
    let path = temp_file("cross-kind");
    for kind in ["corpus", "tuning-log", "calibration", "spec-db"] {
        envelope::write_envelope(&path, EnvelopeSpec { kind, schema: 1 }, b"[]").expect("sealed");
        let verdict = load_artifacts(&path);
        assert!(
            matches!(verdict, Verdict::Damaged(Integrity::SchemaDrift { .. })),
            "{kind}: expected drift, got {verdict:?}"
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

/// Every committed bundle decodes, passes the shape check and re-encodes
/// to its exact bytes, so the committed files are what the writer emits
/// and hold nothing the decoder drops.
#[test]
fn committed_bundles_are_canonical() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("results directory readable") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !(name.starts_with("artifacts-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("bundle readable");
        let artifacts = GlimpseArtifacts::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            serde_json::to_string(&artifacts).expect("bundle encodes") == text,
            "{name} is not canonical"
        );
        checked += 1;
    }
    assert!(checked > 0, "no committed bundles under {}", dir.display());
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
/// rejected at load, so every component falls back and a tune spends its
/// whole budget on the fallbacks instead of panicking mid-search. The
/// unsealed decoder behind the bench cache rejects it too. The unedited
/// bundle passes the same shape check.
#[test]
fn malformed_bundle_with_valid_crc_is_rejected_and_tunes_degraded() {
    let bundle = committed_bundle();
    let path = temp_file("malformed-bundle");
    let seal = |value: &Value| {
        let text = serde_json::to_string(value).expect("bundle encodes");
        envelope::write_envelope(&path, ARTIFACTS_ENVELOPE, text.as_bytes()).expect("sealed");
        text
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
        let text = seal(&damaged);
        assert_eq!(load_artifacts(&path), Verdict::Rejected, "{name}");
        assert!(
            matches!(GlimpseArtifacts::from_json(&text), Err(ArtifactLoadError::Undecodable { .. })),
            "{name}"
        );
        assert!(!GlimpseArtifacts::verify(&path).is_intact(), "{name}");

        let resolved = ResolvedArtifacts::load(&path);
        assert!(resolved.artifacts.is_none(), "{name}");
        for component in [Component::Prior, Component::Acquisition, Component::Sampler] {
            let report = resolved.health.get(component).expect("component listed");
            assert_eq!(report.cause, Some(HealthCause::Undecodable), "{name}: {component:?}");
        }
        let mut measurer = Measurer::new(gpu.clone(), 7);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(16), 7);
        let outcome = GlimpseTuner::from_resolved(&resolved, gpu, GlimpseConfig::default()).tune(ctx);
        assert_eq!(outcome.measurements, 16, "{name}");
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    /// Arbitrary bytes never panic the loader, and never verify unless
    /// they carry the magic token.
    #[test]
    fn arbitrary_bytes_never_panic_any_loader(bytes in proptest::collection::vec(0u8..=255u8, 0..512)) {
        let path = temp_file("prop-arbitrary");
        atomic_write(&path, &bytes).expect("write");
        let verdict = load_artifacts(&path);
        if !bytes.starts_with(envelope::MAGIC.as_bytes()) {
            prop_assert!(verdict.is_damaged(), "{verdict:?}");
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
        let spec = EnvelopeSpec { kind: kinds[kind_index], schema };
        let path = temp_file("prop-envelope");
        envelope::write_envelope(&path, spec, &payload).expect("sealed");
        let verdict = load_artifacts(&path);
        if spec != ARTIFACTS_ENVELOPE {
            prop_assert!(
                matches!(verdict, Verdict::Damaged(Integrity::SchemaDrift { .. })),
                "{}: {verdict:?}", spec.label()
            );
        } else {
            // Matching kind and schema: the payload is garbage, so the
            // loader rejects it, but the envelope itself verifies.
            prop_assert_eq!(verdict, Verdict::Rejected);
        }
    }
}

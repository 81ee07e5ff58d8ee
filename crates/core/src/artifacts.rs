//! The offline side of Glimpse: corpus generation + meta-training, bundled
//! into reusable artifacts.
//!
//! Everything here happens **before** tuning starts (the dotted arrows of
//! Fig. 3) and is excluded from the compilation-time comparisons, exactly as
//! in the paper: "Final outcome of this off-line process is the
//! hardware-aware optimization strategy ingrained in the Hardware-Aware
//! Exploration module."

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::acquisition::NeuralAcquisition;
use crate::blueprint::{Blueprint, BlueprintCodec, CodecError};
use crate::corpus::{self, CorpusEntry};
use crate::prior::{PriorError, PriorNet};
use glimpse_durable::envelope::{self, EnvelopeSpec, Integrity};
use glimpse_gpu_spec::{database, GpuSpec};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::templates;
use glimpse_tensor_prog::{Conv2dSpec, DenseSpec, TemplateKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Envelope identity of a persisted artifact bundle.
pub const ARTIFACTS_ENVELOPE: EnvelopeSpec = EnvelopeSpec {
    kind: "artifacts",
    schema: 1,
};

/// Why a persisted artifact bundle failed to load. Total over arbitrary
/// file contents — loading never panics, and every failure mode maps onto
/// a fallback-ladder cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactLoadError {
    /// The envelope did not verify (missing, truncated, checksum, drift).
    Damaged(Integrity),
    /// The envelope verified but the payload is not an artifact bundle.
    Undecodable {
        /// Decoder message.
        detail: String,
    },
}

impl ArtifactLoadError {
    /// The envelope verdict, treating a verified-but-undecodable payload
    /// as `Unreadable` (doctor's catch-all for semantic damage).
    #[must_use]
    pub fn integrity(&self) -> Integrity {
        match self {
            ArtifactLoadError::Damaged(verdict) => verdict.clone(),
            ArtifactLoadError::Undecodable { detail } => Integrity::Unreadable { detail: detail.clone() },
        }
    }
}

impl fmt::Display for ArtifactLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactLoadError::Damaged(verdict) => write!(f, "artifact bundle damaged: {verdict}"),
            ArtifactLoadError::Undecodable { detail } => write!(f, "artifact bundle undecodable: {detail}"),
        }
    }
}

impl std::error::Error for ArtifactLoadError {}

/// Error from the offline training pass.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactsError {
    /// The GPU population is too small to fit a Blueprint codec.
    PopulationTooSmall {
        /// Number of GPUs supplied.
        got: usize,
    },
    /// Fitting the Blueprint codec failed.
    Codec(CodecError),
    /// Meta-training a prior generator failed.
    Prior(PriorError),
}

impl fmt::Display for ArtifactsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactsError::PopulationTooSmall { got } => {
                write!(f, "need at least two training GPUs, got {got}")
            }
            ArtifactsError::Codec(e) => write!(f, "artifact training: {e}"),
            ArtifactsError::Prior(e) => write!(f, "artifact training: {e}"),
        }
    }
}

impl std::error::Error for ArtifactsError {}

impl From<CodecError> for ArtifactsError {
    fn from(e: CodecError) -> Self {
        ArtifactsError::Codec(e)
    }
}

impl From<PriorError> for ArtifactsError {
    fn from(e: PriorError) -> Self {
        ArtifactsError::Prior(e)
    }
}

/// Knobs of the offline training pass (sized-down variants keep tests fast).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingOptions {
    /// PCA components of the Blueprint (0 = auto via the Fig. 8 knee).
    pub blueprint_dim: usize,
    /// Uniform samples scored per (GPU, task) corpus pair.
    pub samples_per_pair: usize,
    /// Training epochs for the prior generator `H`.
    pub prior_epochs: usize,
    /// Training epochs for the neural acquisition.
    pub acquisition_epochs: usize,
    /// Top-quantile defining "good" configs for `H`.
    pub quantile: f64,
    /// Surrogate prefix size for acquisition meta-training.
    pub prefix: usize,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self {
            blueprint_dim: 0,
            samples_per_pair: 300,
            prior_epochs: 250,
            acquisition_epochs: 6,
            quantile: 0.08,
            prefix: 60,
        }
    }
}

impl TrainingOptions {
    /// A heavily reduced variant for unit tests.
    #[must_use]
    pub fn fast() -> Self {
        Self {
            blueprint_dim: 4,
            samples_per_pair: 80,
            prior_epochs: 40,
            acquisition_epochs: 2,
            quantile: 0.1,
            prefix: 30,
        }
    }
}

/// Everything Glimpse needs at tuning time, meta-trained offline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlimpseArtifacts {
    /// The Blueprint encoder/decoder.
    pub codec: BlueprintCodec,
    priors: [PriorNet; 3],
    acquisitions: [NeuralAcquisition; 3],
}

impl GlimpseArtifacts {
    /// Trains artifacts on the whole database **except** `target` — the
    /// leave-one-out protocol of the paper's evaluation — using default
    /// (full-size) options.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactsError`] when the remaining population is too small
    /// or meta-training fails.
    pub fn train_leave_one_out(target: &GpuSpec, seed: u64) -> Result<Self, ArtifactsError> {
        let gpus = database::training_gpus(&target.name);
        Self::train_with(&gpus, TrainingOptions::default(), seed)
    }

    /// Trains artifacts on an explicit GPU population.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactsError::PopulationTooSmall`] for fewer than two
    /// GPUs, and propagates codec-fit and prior-training failures.
    pub fn train_with(gpus: &[&GpuSpec], mut options: TrainingOptions, seed: u64) -> Result<Self, ArtifactsError> {
        if gpus.len() < 2 {
            return Err(ArtifactsError::PopulationTooSmall { got: gpus.len() });
        }
        if options.blueprint_dim == 0 {
            options.blueprint_dim = BlueprintCodec::recommended_components(gpus);
        }
        let codec = BlueprintCodec::fit(gpus, options.blueprint_dim)?;
        let tasks = corpus::training_tasks();
        let entries = corpus::generate(gpus, &tasks, options.samples_per_pair, seed);
        let refs: Vec<&CorpusEntry> = entries.iter().collect();
        let encode = |name: &str| database::find(name).map(|g| codec.encode(g));

        // Representative spaces fixing each template's head layout.
        let conv_layout = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let wino_layout = templates::conv2d_winograd_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let dense_layout = templates::dense_space(&DenseSpec::new(1, 512, 1000));
        let layouts = [&conv_layout, &wino_layout, &dense_layout];

        let kinds = TemplateKind::ALL;
        let mut rng = child_rng(seed, 0x617);
        let mut make_prior = |i: usize| -> Result<PriorNet, PriorError> {
            let mut net = PriorNet::new(kinds[i], layouts[i], options.blueprint_dim, &mut rng);
            net.train(&refs, encode, options.quantile, options.prior_epochs, 3e-3)?;
            Ok(net)
        };
        let priors = [make_prior(0)?, make_prior(1)?, make_prior(2)?];
        let mut rng = child_rng(seed, 0xACC);
        let acquisitions = std::array::from_fn::<NeuralAcquisition, 3, _>(|i| {
            let mut net = NeuralAcquisition::new(kinds[i], options.blueprint_dim, &mut rng);
            net.train(&refs, encode, options.prefix, options.acquisition_epochs, 3e-3, seed ^ i as u64);
            net
        });

        Ok(Self {
            codec,
            priors,
            acquisitions,
        })
    }

    /// Persists the artifacts as JSON inside a CRC32-checksummed,
    /// schema-versioned envelope ([`ARTIFACTS_ENVELOPE`]). The write is
    /// atomic (temp file + fsync + rename): a crash mid-save leaves either
    /// the previous bundle or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = serde_json::to_string(self).map_err(std::io::Error::other)?;
        envelope::write_envelope(path, ARTIFACTS_ENVELOPE, text.as_bytes())
    }

    /// Loads artifacts persisted by [`GlimpseArtifacts::save`], verifying
    /// the envelope first and the decoded shapes last. Total over arbitrary
    /// bytes: a torn, corrupted, drifted or malformed file is a typed
    /// [`ArtifactLoadError`], never a panic now or later in a tune.
    ///
    /// # Errors
    ///
    /// [`ArtifactLoadError::Damaged`] when the envelope does not verify,
    /// [`ArtifactLoadError::Undecodable`] when the verified payload is not
    /// an artifact bundle or its shapes do not fit together.
    pub fn load(path: &std::path::Path) -> Result<Self, ArtifactLoadError> {
        let payload = envelope::read_envelope(path, ARTIFACTS_ENVELOPE).map_err(ArtifactLoadError::Damaged)?;
        let text = std::str::from_utf8(&payload).map_err(|e| ArtifactLoadError::Undecodable { detail: e.to_string() })?;
        Self::from_json(text)
    }

    /// Decodes and shape-checks a bundle's JSON payload: the decoder behind
    /// [`GlimpseArtifacts::load`], for bundles kept without an envelope.
    ///
    /// # Errors
    ///
    /// [`ArtifactLoadError::Undecodable`] when `text` is not an artifact
    /// bundle or its shapes do not fit together.
    pub fn from_json(text: &str) -> Result<Self, ArtifactLoadError> {
        let artifacts: Self = serde_json::from_str(text).map_err(|e| ArtifactLoadError::Undecodable { detail: e.to_string() })?;
        artifacts
            .check_shape()
            .map_err(|detail| ArtifactLoadError::Undecodable { detail })?;
        Ok(artifacts)
    }

    /// The shape check at the decode edge. A bundle whose CRC verifies can
    /// still carry vectors of the wrong length, and tuning indexes them
    /// without further checks. Only lengths are compared, never weights.
    fn check_shape(&self) -> Result<(), String> {
        self.codec.check_shape().map_err(|e| format!("codec: {e}"))?;
        let dim = self.codec.components();
        for ((kind, prior), acquisition) in TemplateKind::ALL.into_iter().zip(&self.priors).zip(&self.acquisitions) {
            prior.check_shape(kind, dim).map_err(|e| format!("{kind} prior: {e}"))?;
            acquisition.check_shape(kind, dim).map_err(|e| format!("{kind} acquisition: {e}"))?;
        }
        Ok(())
    }

    /// Classifies the artifact bundle at `path` for doctor output.
    #[must_use]
    pub fn verify(path: &std::path::Path) -> Integrity {
        match Self::load(path) {
            Ok(_) => Integrity::Intact,
            Err(e) => e.integrity(),
        }
    }

    /// Blueprint dimensionality.
    #[must_use]
    pub fn blueprint_dim(&self) -> usize {
        self.codec.components()
    }

    /// Encodes a GPU with the fitted codec.
    #[must_use]
    pub fn encode(&self, gpu: &GpuSpec) -> Blueprint {
        self.codec.encode(gpu)
    }

    /// The prior generator for a template.
    #[must_use]
    pub fn prior(&self, template: TemplateKind) -> &PriorNet {
        &self.priors[template_index(template)]
    }

    /// The neural acquisition for a template.
    #[must_use]
    pub fn acquisition(&self, template: TemplateKind) -> &NeuralAcquisition {
        &self.acquisitions[template_index(template)]
    }
}

fn template_index(template: TemplateKind) -> usize {
    match template {
        TemplateKind::Conv2dDirect => 0,
        TemplateKind::Conv2dWinograd => 1,
        TemplateKind::Dense => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_artifacts() -> GlimpseArtifacts {
        let gpus = vec![
            database::find("GTX 1080").unwrap(),
            database::find("RTX 2060").unwrap(),
            database::find("RTX 3070").unwrap(),
        ];
        GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 9).unwrap()
    }

    #[test]
    fn training_rejects_tiny_population() {
        let gpus = vec![database::find("GTX 1080").unwrap()];
        let err = GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 9).unwrap_err();
        assert_eq!(err, ArtifactsError::PopulationTooSmall { got: 1 });
    }

    #[test]
    fn artifacts_cover_all_templates() {
        let artifacts = small_artifacts();
        for kind in TemplateKind::ALL {
            assert_eq!(artifacts.prior(kind).template(), kind);
            assert_eq!(artifacts.acquisition(kind).template(), kind);
        }
        assert_eq!(artifacts.blueprint_dim(), 4);
    }

    #[test]
    fn encode_produces_blueprint_of_declared_dim() {
        let artifacts = small_artifacts();
        let bp = artifacts.encode(database::find("RTX 2080 Ti").unwrap());
        assert_eq!(bp.len(), artifacts.blueprint_dim());
    }

    /// FNV-1a over the `to_bits()` of every trained weight and bias, walked
    /// through the serialized bundle: priors then acquisitions, each net's
    /// layers in order, `w` before `b`.
    fn trained_bits_hash(artifacts: &GlimpseArtifacts) -> u64 {
        fn member<'a>(value: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
            match value {
                serde_json::Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap(),
                other => panic!("expected an object with {key}, got {other:?}"),
            }
        }
        fn items(value: &serde_json::Value) -> &[serde_json::Value] {
            match value {
                serde_json::Value::Array(items) => items,
                other => panic!("expected an array, got {other:?}"),
            }
        }
        let bundle = serde_json::to_value(artifacts);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for nets in ["priors", "acquisitions"] {
            for net in items(member(&bundle, nets)) {
                for layer in items(member(member(net, "mlp"), "layers")) {
                    for key in ["w", "b"] {
                        for value in items(member(layer, key)) {
                            let serde_json::Value::Float(x) = value else {
                                panic!("{key} holds {value:?}")
                            };
                            for byte in x.to_bits().to_le_bytes() {
                                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                            }
                        }
                    }
                }
            }
        }
        hash
    }

    /// Pins every trained weight bit of the fast preset, so a change to
    /// the training arithmetic or its order cannot pass unnoticed.
    #[test]
    fn trained_weights_are_bit_pinned() {
        assert_eq!(trained_bits_hash(&small_artifacts()), 0x4a77_b571_abad_5f96);
    }

    #[test]
    fn training_is_deterministic() {
        let a = small_artifacts();
        let b = small_artifacts();
        let gpu = database::find("Titan Xp").unwrap();
        assert_eq!(a.encode(gpu), b.encode(gpu));
    }

    #[test]
    fn save_and_load_roundtrip() {
        let artifacts = small_artifacts();
        let path = std::env::temp_dir().join("glimpse-artifacts-test.json");
        artifacts.save(&path).unwrap();
        let loaded = GlimpseArtifacts::load(&path).unwrap();
        let gpu = database::find("RTX 2080 Ti").unwrap();
        assert_eq!(loaded.encode(gpu), artifacts.encode(gpu));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "IO1: hand-writes a corrupt fixture")]
    fn load_rejects_garbage_with_typed_error() {
        let path = std::env::temp_dir().join("glimpse-artifacts-garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = GlimpseArtifacts::load(&path).unwrap_err();
        assert!(matches!(err, ArtifactLoadError::Damaged(Integrity::Truncated { .. })), "{err:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_reports_missing_flipped_and_drifted_bundles() {
        let dir = std::env::temp_dir().join(format!("glimpse-artifacts-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifacts.json");
        assert_eq!(
            GlimpseArtifacts::load(&path).unwrap_err(),
            ArtifactLoadError::Damaged(Integrity::Missing)
        );

        small_artifacts().save(&path).unwrap();
        assert!(GlimpseArtifacts::verify(&path).is_intact());

        // Flip one payload byte: checksum mismatch.
        let clean = std::fs::read(&path).unwrap();
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        glimpse_durable::atomic_write(&path, &bad).unwrap();
        assert!(matches!(
            GlimpseArtifacts::load(&path).unwrap_err(),
            ArtifactLoadError::Damaged(Integrity::ChecksumMismatch { .. })
        ));

        // Bump the schema version in the header (CRC still valid): drift.
        let header_end = clean.iter().position(|&b| b == b'\n').unwrap();
        let header = String::from_utf8(clean[..header_end].to_vec()).unwrap();
        let bumped = header.replace(" v1 ", " v2 ");
        let mut drifted = bumped.into_bytes();
        drifted.extend_from_slice(&clean[header_end..]);
        glimpse_durable::atomic_write(&path, &drifted).unwrap();
        match GlimpseArtifacts::load(&path).unwrap_err() {
            ArtifactLoadError::Damaged(Integrity::SchemaDrift { found, expected }) => {
                assert_eq!(found, "artifacts v2");
                assert_eq!(expected, "artifacts v1");
            }
            other => panic!("expected drift, got {other:?}"),
        }

        // Truncate mid-payload: truncated.
        glimpse_durable::atomic_write(&path, &clean[..clean.len() / 2]).unwrap();
        assert!(matches!(
            GlimpseArtifacts::load(&path).unwrap_err(),
            ArtifactLoadError::Damaged(Integrity::Truncated { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

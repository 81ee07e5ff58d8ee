//! Artifact resolution: turning whatever is on disk into a tuner that
//! always runs.
//!
//! [`ResolvedArtifacts`] is the single entry point the CLI and tests use to
//! go from an artifacts path to a (possibly degraded) Glimpse tuner input:
//! it never fails. A clean bundle resolves to all-healthy; a damaged,
//! missing, or drifted bundle resolves to `artifacts: None` plus a
//! [`HealthReport`] putting every component on its fallback with a cause.
//! The mapping from envelope verdicts to [`HealthCause`]s lives here so the
//! durable layer stays free of supervision vocabulary.

use crate::artifacts::{ArtifactLoadError, GlimpseArtifacts};
use glimpse_durable::envelope::Integrity;
use glimpse_supervise::health::{Component, HealthCause, HealthReport};
use std::path::Path;

/// Maps an envelope verdict onto the fallback cause taxonomy.
#[must_use]
pub fn cause_of(verdict: &Integrity) -> HealthCause {
    match verdict {
        // Intact bytes that still fail to resolve (caller decided to
        // demote anyway) carry no better description than validation.
        Integrity::Intact => HealthCause::ValidationFailed {
            detail: "artifact intact but unusable".into(),
        },
        Integrity::ChecksumMismatch { .. } => HealthCause::ChecksumMismatch,
        Integrity::SchemaDrift { found, expected } => HealthCause::SchemaDrift {
            found: found.clone(),
            expected: expected.clone(),
        },
        Integrity::Truncated { .. } => HealthCause::Truncated,
        Integrity::Missing => HealthCause::ArtifactMissing,
        Integrity::Unreadable { detail } => HealthCause::ValidationFailed { detail: detail.clone() },
    }
}

/// The outcome of artifact resolution: the bundle when usable, and the
/// component health either way.
#[derive(Debug, Clone)]
pub struct ResolvedArtifacts {
    /// The loaded bundle, `None` when every learned component fell back.
    pub artifacts: Option<GlimpseArtifacts>,
    /// Per-component health: learned or on its fallback, with the cause.
    pub health: HealthReport,
}

impl ResolvedArtifacts {
    /// A usable bundle with every component learned.
    #[must_use]
    pub fn healthy(artifacts: GlimpseArtifacts) -> Self {
        Self {
            artifacts: Some(artifacts),
            health: HealthReport::healthy(),
        }
    }

    /// No bundle: every component on its fallback for `cause`.
    #[must_use]
    pub fn fallback(cause: HealthCause) -> Self {
        Self {
            artifacts: None,
            health: HealthReport::all_degraded(&cause),
        }
    }

    /// Resolves the artifact bundle at `path`, degrading instead of
    /// failing: a verdict other than intact puts every learned component
    /// on its fallback with the verdict as cause.
    #[must_use]
    pub fn load(path: &Path) -> Self {
        match GlimpseArtifacts::load(path) {
            Ok(artifacts) => Self::healthy(artifacts),
            Err(ArtifactLoadError::Damaged(verdict)) => Self::fallback(cause_of(&verdict)),
            Err(ArtifactLoadError::Undecodable { .. }) => Self::fallback(HealthCause::Undecodable),
        }
    }

    /// Forces `component` onto its fallback: the one switch chaos
    /// testing, the degradation matrix and the component ablations all use
    /// to turn a learned component off. Dependents of the blueprint
    /// codec are demoted with it: without an embedding there is nothing
    /// for the prior, acquisition, or sampler to condition on.
    #[must_use]
    pub fn with_injected(mut self, component: Component) -> Self {
        self.health.demote(component, HealthCause::Injected);
        if component == Component::BlueprintCodec {
            for dependent in [Component::Prior, Component::Acquisition, Component::Sampler] {
                self.health.demote(
                    dependent,
                    HealthCause::DependencyDegraded {
                        dependency: Component::BlueprintCodec.name().into(),
                    },
                );
            }
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::TrainingOptions;
    use glimpse_gpu_spec::database;

    fn small_artifacts() -> GlimpseArtifacts {
        let gpus = vec![
            database::find("GTX 1080").unwrap(),
            database::find("RTX 2060").unwrap(),
            database::find("RTX 3070").unwrap(),
        ];
        GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 9).unwrap()
    }

    #[test]
    fn intact_bundle_resolves_healthy() {
        let dir = std::env::temp_dir().join(format!("glimpse-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifacts.json");
        small_artifacts().save(&path).unwrap();
        let resolved = ResolvedArtifacts::load(&path);
        assert!(resolved.artifacts.is_some());
        assert!(!resolved.health.any_degraded());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_bundle_degrades_every_component_with_cause() {
        let resolved = ResolvedArtifacts::load(Path::new("/nonexistent/artifacts.json"));
        assert!(resolved.artifacts.is_none());
        assert!(resolved.health.any_degraded());
        for row in &resolved.health.components {
            assert_eq!(row.cause, Some(HealthCause::ArtifactMissing));
        }
    }

    #[test]
    fn corrupt_bundle_degrades_with_checksum_cause() {
        let dir = std::env::temp_dir().join(format!("glimpse-resolve-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifacts.json");
        small_artifacts().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        glimpse_durable::atomic_write(&path, &bytes).unwrap();
        let resolved = ResolvedArtifacts::load(&path);
        assert!(resolved.artifacts.is_none());
        assert_eq!(
            resolved.health.get(Component::Prior).unwrap().cause,
            Some(HealthCause::ChecksumMismatch)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_codec_degradation_takes_dependents_down() {
        let resolved = ResolvedArtifacts::healthy(small_artifacts()).with_injected(Component::BlueprintCodec);
        let health = &resolved.health;
        assert!(health.is_fallback(Component::BlueprintCodec));
        for dependent in [Component::Prior, Component::Acquisition, Component::Sampler] {
            assert!(health.is_fallback(dependent), "{dependent} should follow the codec down");
        }
        assert!(!health.is_fallback(Component::CostModel));
        // The bundle itself is still usable for the surviving components.
        assert!(resolved.artifacts.is_some());
    }
}

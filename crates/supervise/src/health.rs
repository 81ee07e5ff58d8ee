//! Component health: how a tuning run degrades component-by-component
//! instead of aborting.
//!
//! Glimpse is structurally AutoTVM plus learned hardware-aware components
//! (blueprint PCA codec, prior `H`, meta-acquisition, threshold-ensemble
//! sampler, GBT cost model). Every learned component has one
//! non-learned fallback, so a corrupt, missing, or drifted artifact puts
//! that one component on its fallback rather than killing the run:
//!
//! | component        | learned                | fallback                   |
//! |------------------|------------------------|----------------------------|
//! | `BlueprintCodec` | blueprint PCA          | raw normalized datasheet   |
//! | `Prior`          | prior-net `H` sampling | uniform initial sampling   |
//! | `Acquisition`    | meta-acquisition       | plain SA energy            |
//! | `Sampler`        | threshold ensemble     | simulator validity check   |
//! | `CostModel`      | GBT surrogate          | rank-by-measured-history   |
//!
//! Health is resolved once, at run construction, and the names of the
//! components on their fallback are recorded in the run's `RunHeader` — a
//! `--resume` under a different fallback set is a typed header mismatch,
//! never a silently diverging journal. Every fallback is a deterministic
//! function of (seed, history), so the byte-identical-journal contract of
//! the crash-safe layer survives degradation.
//!
//! This module is the *vocabulary*; resolution lives next to the artifact
//! loaders (core/cli) and enforcement lives in the journal layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The learned components of the Glimpse tuner, in health-table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Component {
    /// Blueprint PCA codec (spec → low-dimensional hardware embedding).
    BlueprintCodec,
    /// Prior network `H` proposing initial configurations.
    Prior,
    /// Meta-learned neural acquisition function.
    Acquisition,
    /// Threshold-ensemble invalid-config sampler.
    Sampler,
    /// GBT cost-model surrogate ranking unmeasured candidates.
    CostModel,
}

impl Component {
    /// All components, in the order health tables print them.
    pub const ALL: [Component; 5] = [
        Component::BlueprintCodec,
        Component::Prior,
        Component::Acquisition,
        Component::Sampler,
        Component::CostModel,
    ];

    /// Stable kebab-case name used in reports and run headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::BlueprintCodec => "blueprint-codec",
            Component::Prior => "prior",
            Component::Acquisition => "acquisition",
            Component::Sampler => "sampler",
            Component::CostModel => "cost-model",
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a component runs its fallback. Artifact-shaped causes mirror the
/// `glimpse-durable` envelope verdicts; the rest are semantic failures
/// found after the bytes verified.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum HealthCause {
    /// The artifact file backing the component does not exist.
    ArtifactMissing,
    /// Envelope CRC32 did not match the payload.
    ChecksumMismatch,
    /// Envelope kind or schema version differs from this build's.
    SchemaDrift {
        /// `kind v<schema>` found on disk.
        found: String,
        /// `kind v<schema>` this build expects.
        expected: String,
    },
    /// The bytes do not parse as an envelope, or the payload ends early.
    Truncated,
    /// Envelope verified but the payload did not decode.
    Undecodable,
    /// Payload decoded but failed semantic validation (e.g. a prior whose
    /// head layout does not match the search space).
    ValidationFailed {
        /// What the validator rejected.
        detail: String,
    },
    /// A component this one depends on is itself on its fallback (e.g. the
    /// prior cannot run without a blueprint from the codec).
    DependencyDegraded {
        /// Name of the degraded dependency.
        dependency: String,
    },
    /// Degradation forced on purpose: a fault-injection plan (chaos
    /// testing) or an ablation switching the component off.
    Injected,
}

impl fmt::Display for HealthCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthCause::ArtifactMissing => write!(f, "artifact missing"),
            HealthCause::ChecksumMismatch => write!(f, "artifact checksum mismatch"),
            HealthCause::SchemaDrift { found, expected } => write!(f, "artifact schema drift (found {found}, expected {expected})"),
            HealthCause::Truncated => write!(f, "artifact truncated"),
            HealthCause::Undecodable => write!(f, "artifact payload undecodable"),
            HealthCause::ValidationFailed { detail } => write!(f, "validation failed: {detail}"),
            HealthCause::DependencyDegraded { dependency } => write!(f, "dependency degraded: {dependency}"),
            HealthCause::Injected => write!(f, "degradation injected by fault plan or ablation"),
        }
    }
}

/// One resolved row: a component, learned or on its fallback.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentReport {
    /// Which component.
    pub component: Component,
    /// `None` while the component runs learned; why it fell back otherwise.
    pub cause: Option<HealthCause>,
}

impl ComponentReport {
    /// Human label of the mode in use: the learned mode, or the fallback.
    #[must_use]
    pub fn mode(&self) -> &'static str {
        let (learned, fallback) = match self.component {
            Component::BlueprintCodec => ("blueprint-pca", "raw-normalized-features"),
            Component::Prior => ("prior-net-h", "uniform-initial-sampling"),
            Component::Acquisition => ("meta-acquisition", "sa-energy"),
            Component::Sampler => ("threshold-ensemble", "validity-check-only"),
            Component::CostModel => ("gbt-surrogate", "measured-history-rank"),
        };
        if self.cause.is_some() {
            fallback
        } else {
            learned
        }
    }
}

/// The resolved health of every learned component for one run — the
/// payload behind `CellStatus::Degraded` component-fallback rows and the
/// per-component table `glimpse doctor` prints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// One row per component, in [`Component::ALL`] order.
    pub components: Vec<ComponentReport>,
}

impl HealthReport {
    /// Every component learned.
    #[must_use]
    pub fn healthy() -> Self {
        Self::with_cause(None)
    }

    /// A report putting every component on its fallback for the same
    /// `cause` — what a wholly missing or corrupt artifact bundle resolves
    /// to.
    #[must_use]
    pub fn all_degraded(cause: &HealthCause) -> Self {
        Self::with_cause(Some(cause))
    }

    fn with_cause(cause: Option<&HealthCause>) -> Self {
        Self {
            components: Component::ALL
                .iter()
                .map(|&component| ComponentReport {
                    component,
                    cause: cause.cloned(),
                })
                .collect(),
        }
    }

    /// Puts `component` on its fallback for `cause`. A component already
    /// on its fallback keeps its first cause.
    pub fn demote(&mut self, component: Component, cause: HealthCause) {
        if let Some(row) = self
            .components
            .iter_mut()
            .find(|row| row.component == component && row.cause.is_none())
        {
            row.cause = Some(cause);
        }
    }

    /// The row for `component`, if present.
    #[must_use]
    pub fn get(&self, component: Component) -> Option<&ComponentReport> {
        self.components.iter().find(|row| row.component == component)
    }

    /// Whether `component` runs its fallback (an absent row reads as
    /// learned).
    #[must_use]
    pub fn is_fallback(&self, component: Component) -> bool {
        self.get(component).is_some_and(|row| row.cause.is_some())
    }

    /// Whether any component runs its fallback.
    #[must_use]
    pub fn any_degraded(&self) -> bool {
        self.components.iter().any(|row| row.cause.is_some())
    }

    /// Names of the components on their fallback, for log lines, reports
    /// and run headers.
    #[must_use]
    pub fn degraded_names(&self) -> Vec<&'static str> {
        self.components
            .iter()
            .filter(|row| row.cause.is_some())
            .map(|row| row.component.name())
            .collect()
    }
}

impl Default for HealthReport {
    fn default() -> Self {
        Self::healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_report_has_every_component_learned() {
        let report = HealthReport::healthy();
        assert_eq!(report.components.len(), Component::ALL.len());
        assert!(!report.any_degraded());
        assert!(Component::ALL.iter().all(|&c| !report.is_fallback(c)));
    }

    #[test]
    fn demote_keeps_the_first_cause() {
        let mut report = HealthReport::healthy();
        report.demote(Component::Prior, HealthCause::ChecksumMismatch);
        assert!(report.is_fallback(Component::Prior));
        // A later demotion does not overwrite why the component fell back.
        report.demote(Component::Prior, HealthCause::Injected);
        let row = report.get(Component::Prior).unwrap();
        assert_eq!(row.cause, Some(HealthCause::ChecksumMismatch));
        assert_eq!(report.degraded_names(), vec!["prior"]);
        assert_eq!(row.mode(), "uniform-initial-sampling");
    }

    #[test]
    fn all_degraded_names_every_component() {
        let report = HealthReport::all_degraded(&HealthCause::ArtifactMissing);
        assert!(report.any_degraded());
        assert_eq!(report.degraded_names().len(), Component::ALL.len());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = HealthReport::healthy();
        report.demote(
            Component::CostModel,
            HealthCause::SchemaDrift {
                found: "artifacts v9".into(),
                expected: "artifacts v1".into(),
            },
        );
        report.demote(
            Component::Sampler,
            HealthCause::DependencyDegraded {
                dependency: "blueprint-codec".into(),
            },
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn causes_render_for_operators() {
        let cause = HealthCause::SchemaDrift {
            found: "artifacts v2".into(),
            expected: "artifacts v1".into(),
        };
        assert!(cause.to_string().contains("found artifacts v2"));
        assert!(HealthCause::Injected.to_string().contains("fault plan"));
    }
}

//! Component health and fallback ladders: how a tuning run degrades
//! component-by-component instead of aborting.
//!
//! Glimpse is structurally AutoTVM plus learned hardware-aware components
//! (blueprint PCA codec, prior `H`, meta-acquisition, threshold-ensemble
//! sampler, GBT cost model). Every learned component has a well-defined
//! non-learned fallback, so a corrupt, missing, or drifted artifact demotes
//! that one component down its *ladder* rather than killing the run:
//!
//! | component        | rung 0 (learned)       | rung 1 (fallback)          |
//! |------------------|------------------------|----------------------------|
//! | `BlueprintCodec` | blueprint PCA          | raw normalized datasheet   |
//! | `Prior`          | prior-net `H` sampling | uniform initial sampling   |
//! | `Acquisition`    | meta-acquisition       | plain SA energy            |
//! | `Sampler`        | threshold ensemble     | simulator validity check   |
//! | `CostModel`      | GBT surrogate          | rank-by-measured-history   |
//!
//! Ladders are resolved once, at run construction, and the chosen rung per
//! component is recorded in the run's `RunHeader` — a `--resume` under a
//! different rung set is a typed header mismatch, never a silently
//! diverging journal. Every fallback is a deterministic function of
//! (seed, history), so the byte-identical-journal contract of the
//! crash-safe layer survives degradation.
//!
//! This module is the *vocabulary*; resolution lives next to the artifact
//! loaders (core/cli) and enforcement lives in the journal layer.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The learned components of the Glimpse tuner, in ladder-table order.
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

    /// Human labels for each ladder rung, rung 0 first (the learned mode).
    #[must_use]
    pub fn rungs(self) -> &'static [&'static str] {
        match self {
            Component::BlueprintCodec => &["blueprint-pca", "raw-normalized-features"],
            Component::Prior => &["prior-net-h", "uniform-initial-sampling"],
            Component::Acquisition => &["meta-acquisition", "sa-energy"],
            Component::Sampler => &["threshold-ensemble", "validity-check-only"],
            Component::CostModel => &["gbt-surrogate", "measured-history-rank"],
        }
    }

    /// Label of rung `rung`, saturating at the ladder bottom.
    #[must_use]
    pub fn rung_label(self, rung: u8) -> &'static str {
        let rungs = self.rungs();
        rungs[(rung as usize).min(rungs.len() - 1)]
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a component left rung 0. Artifact-shaped causes mirror the
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
    /// A component this one depends on is itself off rung 0 (e.g. the
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

/// Health of one component after ladder resolution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ComponentHealth {
    /// Running its learned mode (rung 0).
    Healthy,
    /// Running a weaker-but-valid fallback rung.
    Degraded {
        /// Why the component left rung 0.
        cause: HealthCause,
    },
    /// No usable mode above the ladder bottom; contributes nothing.
    Disabled {
        /// Why the component is out entirely.
        cause: HealthCause,
    },
}

impl ComponentHealth {
    /// Whether the component is on rung 0.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        matches!(self, ComponentHealth::Healthy)
    }

    /// The cause, when not healthy.
    #[must_use]
    pub fn cause(&self) -> Option<&HealthCause> {
        match self {
            ComponentHealth::Healthy => None,
            ComponentHealth::Degraded { cause } | ComponentHealth::Disabled { cause } => Some(cause),
        }
    }
}

/// One resolved row: component, health, and the ladder rung it runs at.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentReport {
    /// Which component.
    pub component: Component,
    /// Its resolved health.
    pub health: ComponentHealth,
    /// Ladder rung in use (0 = learned mode).
    pub rung: u8,
}

impl ComponentReport {
    /// Human label of the rung in use.
    #[must_use]
    pub fn rung_label(&self) -> &'static str {
        self.component.rung_label(self.rung)
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
    /// All components healthy on rung 0.
    #[must_use]
    pub fn healthy() -> Self {
        Self {
            components: Component::ALL
                .iter()
                .map(|&component| ComponentReport {
                    component,
                    health: ComponentHealth::Healthy,
                    rung: 0,
                })
                .collect(),
        }
    }

    /// A report demoting every component for the same `cause` — what a
    /// wholly missing or corrupt artifact bundle resolves to.
    #[must_use]
    pub fn all_degraded(cause: &HealthCause) -> Self {
        Self {
            components: Component::ALL
                .iter()
                .map(|&component| ComponentReport {
                    component,
                    health: ComponentHealth::Degraded { cause: cause.clone() },
                    rung: 1,
                })
                .collect(),
        }
    }

    /// Demotes `component` to `rung` for `cause` (upgrades never happen
    /// mid-resolution: an already-lower rung wins).
    pub fn demote(&mut self, component: Component, rung: u8, cause: HealthCause) {
        for row in &mut self.components {
            if row.component == component && rung > row.rung {
                row.rung = rung;
                row.health = ComponentHealth::Degraded { cause: cause.clone() };
            }
        }
    }

    /// The row for `component`, if present.
    #[must_use]
    pub fn get(&self, component: Component) -> Option<&ComponentReport> {
        self.components.iter().find(|row| row.component == component)
    }

    /// Rung in use for `component` (0 when the row is absent, matching a
    /// header written before health tracking existed).
    #[must_use]
    pub fn rung(&self, component: Component) -> u8 {
        self.get(component).map_or(0, |row| row.rung)
    }

    /// Whether any component is off rung 0.
    #[must_use]
    pub fn any_degraded(&self) -> bool {
        self.components.iter().any(|row| !row.health.is_healthy())
    }

    /// Names of the components off rung 0, for log lines and reports.
    #[must_use]
    pub fn degraded_names(&self) -> Vec<&'static str> {
        self.components
            .iter()
            .filter(|row| !row.health.is_healthy())
            .map(|row| row.component.name())
            .collect()
    }

    /// The compact `component=rung` ladder fingerprint recorded in run
    /// headers and enforced on resume.
    #[must_use]
    pub fn rung_fingerprint(&self) -> Vec<(String, u8)> {
        self.components
            .iter()
            .map(|row| (row.component.name().to_string(), row.rung))
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
    fn healthy_report_has_all_components_on_rung_zero() {
        let report = HealthReport::healthy();
        assert_eq!(report.components.len(), Component::ALL.len());
        assert!(!report.any_degraded());
        assert!(report.rung_fingerprint().iter().all(|(_, rung)| *rung == 0));
    }

    #[test]
    fn demote_is_monotone() {
        let mut report = HealthReport::healthy();
        report.demote(Component::Prior, 1, HealthCause::ChecksumMismatch);
        assert_eq!(report.rung(Component::Prior), 1);
        // A later, shallower demotion must not promote the component back.
        report.demote(Component::Prior, 0, HealthCause::Injected);
        assert_eq!(report.rung(Component::Prior), 1);
        assert_eq!(report.degraded_names(), vec!["prior"]);
        assert_eq!(report.get(Component::Prior).unwrap().rung_label(), "uniform-initial-sampling");
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
            1,
            HealthCause::SchemaDrift {
                found: "artifacts v9".into(),
                expected: "artifacts v1".into(),
            },
        );
        report.demote(
            Component::Sampler,
            1,
            HealthCause::DependencyDegraded {
                dependency: "blueprint-codec".into(),
            },
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: HealthReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn rung_labels_saturate_at_ladder_bottom() {
        assert_eq!(Component::Prior.rung_label(0), "prior-net-h");
        assert_eq!(Component::Prior.rung_label(1), "uniform-initial-sampling");
        assert_eq!(Component::Prior.rung_label(7), "uniform-initial-sampling");
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

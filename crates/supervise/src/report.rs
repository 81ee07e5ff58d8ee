//! The typed degradation report: what every campaign says about itself.
//!
//! A fleet run never "just fails". Each cell lands in exactly one
//! [`CellStatus`], and the campaign emits a [`DegradationReport`]
//! (`degradation.json`, written through `glimpse-durable`'s atomic rename)
//! listing per-cell status, faults absorbed, retries, and deadline slack. Exit code stays 0 for degraded campaigns — the report,
//! not the exit status, is the machine-readable verdict.

use crate::cancel::CancelReason;
use crate::health::HealthReport;
use serde::{Deserialize, Serialize};

/// Why a cell finished early but cleanly (journal fsynced, resumable) —
/// or, for [`Degradation::ComponentFallback`], why a cell that ran its
/// full budget still does not count as healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Degradation {
    /// The per-cell `--deadline-s` budget ran out (simulated clock).
    DeadlineExceeded,
    /// The campaign-wide `--max-wall-s` budget ran out (simulated clock).
    WallClockExceeded,
    /// The real-wall-clock watchdog saw no heartbeat and cancelled the run.
    Stalled,
    /// An operator signal (SIGINT/SIGTERM) requested a graceful drain.
    Interrupted,
    /// One or more learned components ran on their fallback (damaged
    /// artifact, failed validation, or injected fault). The cell ran its
    /// full budget; the [`CellReport::health`] payload names the
    /// components and causes.
    ComponentFallback,
}

impl From<CancelReason> for Degradation {
    fn from(reason: CancelReason) -> Self {
        match reason {
            CancelReason::Interrupted => Degradation::Interrupted,
            CancelReason::DeadlineExceeded => Degradation::DeadlineExceeded,
            CancelReason::WallClockExceeded => Degradation::WallClockExceeded,
            CancelReason::Stalled => Degradation::Stalled,
        }
    }
}

/// Why a cell's work was given up rather than merely cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Abandonment {
    /// The device retired (dead) and no survivor could absorb the cell.
    DeviceDead,
    /// No outcome came back for the cell: its tuner returned an error, or
    /// the survivor running a reassigned cell failed the job.
    DeviceUnavailable,
}

/// Terminal status of one tuning cell.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// Ran its full budget; `complete.json` written.
    Complete,
    /// Stopped early at a trial boundary; journal fsynced, resumable.
    Degraded(Degradation),
    /// Work given up; journal closed out, not resumable on this device.
    Abandoned(Abandonment),
    /// The cell's remaining work was re-run on a surviving device.
    Reassigned {
        /// Name of the device that absorbed the cell.
        to: String,
    },
    /// Never started (the campaign was cancelled before reaching it).
    NotStarted,
}

impl CellStatus {
    /// Collapses the ways a cell can end — a tripped token, a dead device,
    /// or a full budget run on component fallbacks — into one status.
    /// Precedence: cancellation > device death > component fallback >
    /// complete. A tripped token means the stop was *requested*, not
    /// suffered, and a requested stop or a dead device says more about the
    /// cell than a weakened search strategy.
    pub fn settle(reason: Option<CancelReason>, device_dead: bool, component_fallback: bool) -> Self {
        match (reason, device_dead) {
            (Some(r), _) => CellStatus::Degraded(r.into()),
            (None, true) => CellStatus::Abandoned(Abandonment::DeviceDead),
            (None, false) if component_fallback => CellStatus::Degraded(Degradation::ComponentFallback),
            (None, false) => CellStatus::Complete,
        }
    }

    /// Whether the cell produced its full budget of measurements.
    pub fn is_complete(&self) -> bool {
        matches!(self, CellStatus::Complete)
    }
}

/// One row of the degradation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell identifier (task or device label; doubles as the checkpoint
    /// subdirectory name).
    pub cell: String,
    /// Device the cell ran on.
    pub device: String,
    /// Terminal status.
    pub status: CellStatus,
    /// Measurements journaled (valid + invalid + faulted).
    pub measurements: usize,
    /// Faulted measurements absorbed without failing the cell.
    pub faults_absorbed: usize,
    /// Extra measurement attempts spent on retries.
    pub retries: usize,
    /// Simulated GPU-seconds charged to the cell.
    pub gpu_seconds: f64,
    /// Best throughput found before the cell ended.
    pub best_gflops: f64,
    /// Simulated seconds left under the tightest deadline when the cell
    /// ended (negative: overshoot; `null`: no deadline was set).
    pub deadline_slack_s: Option<f64>,
    /// Resolved component health for the cell (`null` for tuners without
    /// learned components). Kept optional so reports written before health
    /// tracking existed still deserialize.
    #[serde(default)]
    pub health: Option<HealthReport>,
}

/// The whole campaign's verdict, serialized as `degradation.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Campaign label (subcommand plus model or fleet description).
    pub campaign: String,
    /// One row per cell, in campaign order.
    pub cells: Vec<CellReport>,
}

impl DegradationReport {
    /// A report with no cells yet.
    pub fn new(campaign: impl Into<String>) -> Self {
        Self {
            campaign: campaign.into(),
            cells: Vec::new(),
        }
    }

    /// Adds one cell row.
    pub fn push(&mut self, cell: CellReport) {
        self.cells.push(cell);
    }

    /// Whether every cell completed its full budget.
    pub fn all_complete(&self) -> bool {
        self.cells.iter().all(|c| c.status.is_complete())
    }

    /// Pretty-printed JSON, trailing newline included.
    pub fn to_json(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("degradation report serializes");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(status: CellStatus) -> CellReport {
        CellReport {
            cell: "task0".into(),
            device: "Titan Xp".into(),
            status,
            measurements: 12,
            faults_absorbed: 1,
            retries: 2,
            gpu_seconds: 3.5,
            best_gflops: 4200.0,
            deadline_slack_s: Some(1.25),
            health: None,
        }
    }

    #[test]
    fn settle_prefers_cancellation_over_device_death() {
        assert_eq!(
            CellStatus::settle(Some(CancelReason::DeadlineExceeded), true, false),
            CellStatus::Degraded(Degradation::DeadlineExceeded)
        );
        assert_eq!(
            CellStatus::settle(None, true, false),
            CellStatus::Abandoned(Abandonment::DeviceDead)
        );
        assert_eq!(CellStatus::settle(None, false, false), CellStatus::Complete);
    }

    #[test]
    fn component_fallback_only_demotes_completed_cells() {
        assert_eq!(
            CellStatus::settle(None, false, true),
            CellStatus::Degraded(Degradation::ComponentFallback)
        );
        assert_eq!(CellStatus::settle(None, false, false), CellStatus::Complete);
        // A requested stop or dead device outranks a component fallback.
        assert_eq!(
            CellStatus::settle(Some(CancelReason::Interrupted), false, true),
            CellStatus::Degraded(Degradation::Interrupted)
        );
        assert_eq!(CellStatus::settle(None, true, true), CellStatus::Abandoned(Abandonment::DeviceDead));
    }

    #[test]
    fn cell_report_without_health_field_still_deserializes() {
        // Reports written before health tracking existed lack the field.
        let legacy = serde_json::json!({
            "cell": "task0", "device": "Titan Xp", "status": "Complete",
            "measurements": 12, "faults_absorbed": 0, "retries": 0,
            "gpu_seconds": 1.0, "best_gflops": 100.0,
            "deadline_slack_s": null,
        });
        let back: CellReport = serde_json::from_value(&legacy).unwrap();
        assert_eq!(back.health, None);
    }

    #[test]
    fn health_payload_round_trips_in_a_cell_report() {
        let mut health = crate::health::HealthReport::healthy();
        health.demote(crate::health::Component::Prior, crate::health::HealthCause::Truncated);
        let mut c = cell(CellStatus::Degraded(Degradation::ComponentFallback));
        c.health = Some(health.clone());
        let json = serde_json::to_string(&c).unwrap();
        let back: CellReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.health, Some(health));
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut report = DegradationReport::new("experiment resnet-18");
        report.push(cell(CellStatus::Complete));
        report.push(cell(CellStatus::Reassigned { to: "GTX 1080 Ti".into() }));
        report.push(cell(CellStatus::Degraded(Degradation::Interrupted)));
        let json = report.to_json();
        let back: DegradationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(!report.all_complete());
    }

    #[test]
    fn absent_slack_round_trips_as_null() {
        let mut c = cell(CellStatus::Complete);
        c.deadline_slack_s = None;
        let json = serde_json::to_string(&c).unwrap();
        let back: CellReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.deadline_slack_s, None);
    }
}

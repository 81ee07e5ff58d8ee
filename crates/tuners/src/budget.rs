//! Tuning budgets: when does the compilation loop stop?
//!
//! The paper's comparisons use two stopping modes: a fixed optimization-time
//! budget per layer (Fig. 5 gives every compiler 100 seconds) and
//! self-paced convergence (Figs. 6/9 compare how fast each compiler reaches
//! comparable output-code performance). The end-to-end grid behind Figs.
//! 6/7/9 and Table 2 runs AutoTVM at a fixed trial count and the adaptive
//! tuners until their best-so-far plateaus ([`PlateauRule`]); no bench
//! harness stops at a target quality ([`Budget::with_target`], which the
//! quickstart example uses). Every budget carries a hard measurement cap so
//! no experiment runs away.

use serde::{Deserialize, Serialize};

/// Convergence detection: stop when the incumbent best has improved by less
/// than `epsilon` (relative) over the last `window` measurements. This is
/// how each compiler self-paces in the end-to-end comparison — well-guided
/// search plateaus early and stops paying for measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlateauRule {
    /// Number of trailing measurements inspected.
    pub window: usize,
    /// Relative improvement below which the run is considered converged.
    pub epsilon: f64,
}

/// Stopping criteria for one tuning run. Tuning stops when **any** bound is
/// hit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Budget {
    /// Maximum hardware measurements.
    pub max_measurements: usize,
    /// Maximum simulated GPU seconds (`f64::INFINITY` to disable).
    pub max_gpu_seconds: f64,
    /// Stop early once the best measured throughput reaches this (GFLOPS).
    pub target_gflops: Option<f64>,
    /// Stop once the best-so-far trajectory plateaus.
    pub plateau: Option<PlateauRule>,
}

impl Budget {
    /// Budget bounded only by a measurement count.
    ///
    /// # Examples
    ///
    /// ```
    /// use glimpse_tuners::Budget;
    /// let b = Budget::measurements(100).with_target(2000.0).with_plateau(32, 0.01);
    /// assert!(b.exhausted(100, 0.0, 0.0));       // count cap
    /// assert!(b.exhausted(5, 0.0, 2500.0));      // quality target
    /// assert!(!b.exhausted(5, 0.0, 100.0));
    /// ```
    #[must_use]
    pub fn measurements(n: usize) -> Self {
        Self {
            max_measurements: n,
            max_gpu_seconds: f64::INFINITY,
            target_gflops: None,
            plateau: None,
        }
    }

    /// Budget bounded by simulated GPU seconds (with a generous measurement
    /// cap as a backstop).
    #[must_use]
    pub fn gpu_seconds(s: f64) -> Self {
        Self {
            max_measurements: 100_000,
            max_gpu_seconds: s,
            target_gflops: None,
            plateau: None,
        }
    }

    /// Adds an early-exit quality target.
    #[must_use]
    pub fn with_target(mut self, gflops: f64) -> Self {
        self.target_gflops = Some(gflops);
        self
    }

    /// Adds plateau-based convergence stopping.
    #[must_use]
    pub fn with_plateau(mut self, window: usize, epsilon: f64) -> Self {
        self.plateau = Some(PlateauRule { window, epsilon });
        self
    }

    /// Whether a best-so-far trajectory has plateaued under this budget's
    /// rule (always false without one, or before `window + 1` entries).
    #[must_use]
    pub fn plateaued(&self, trajectory: &[f64]) -> bool {
        let Some(rule) = self.plateau else { return false };
        if trajectory.len() <= rule.window {
            return false;
        }
        let now = trajectory[trajectory.len() - 1];
        let then = trajectory[trajectory.len() - 1 - rule.window];
        if now <= 0.0 {
            return false; // nothing valid found yet; keep searching
        }
        (now - then) / now < rule.epsilon
    }

    /// Whether a run in this state should stop.
    #[must_use]
    pub fn exhausted(&self, measurements: usize, gpu_seconds: f64, best_gflops: f64) -> bool {
        if measurements >= self.max_measurements {
            return true;
        }
        if gpu_seconds >= self.max_gpu_seconds {
            return true;
        }
        if let Some(target) = self.target_gflops {
            if best_gflops >= target {
                return true;
            }
        }
        false
    }

    /// Measurements still allowed.
    #[must_use]
    pub fn remaining_measurements(&self, measurements: usize) -> usize {
        self.max_measurements.saturating_sub(measurements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_cap_stops() {
        let b = Budget::measurements(10);
        assert!(!b.exhausted(9, 0.0, 0.0));
        assert!(b.exhausted(10, 0.0, 0.0));
    }

    #[test]
    fn gpu_seconds_cap_stops() {
        let b = Budget::gpu_seconds(100.0);
        assert!(!b.exhausted(5, 99.9, 0.0));
        assert!(b.exhausted(5, 100.0, 0.0));
    }

    #[test]
    fn quality_target_stops_early() {
        let b = Budget::measurements(1000).with_target(2000.0);
        assert!(!b.exhausted(5, 0.0, 1999.0));
        assert!(b.exhausted(5, 0.0, 2000.0));
    }

    #[test]
    fn remaining_measurements_saturates() {
        let b = Budget::measurements(10);
        assert_eq!(b.remaining_measurements(3), 7);
        assert_eq!(b.remaining_measurements(30), 0);
    }

    #[test]
    fn plateau_detects_stalled_trajectory() {
        let b = Budget::measurements(1000).with_plateau(4, 0.01);
        // Improving trajectory: no plateau.
        assert!(!b.plateaued(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        // Flat tail beyond the window: plateau.
        assert!(b.plateaued(&[1.0, 5.0, 5.0, 5.0, 5.0, 5.0]));
        // Too short to judge.
        assert!(!b.plateaued(&[5.0, 5.0, 5.0]));
    }

    #[test]
    fn plateau_ignores_runs_with_no_valid_measurement() {
        let b = Budget::measurements(1000).with_plateau(2, 0.01);
        assert!(!b.plateaued(&[0.0, 0.0, 0.0, 0.0, 0.0]));
    }

    #[test]
    fn no_plateau_rule_never_plateaus() {
        let b = Budget::measurements(10);
        assert!(!b.plateaued(&[5.0; 100]));
    }
}

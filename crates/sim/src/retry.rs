//! Bounded retry with simulated-clock backoff.
//!
//! Real harnesses (TVM's RPC runner among them) retry flaky measurements a
//! few times with increasing delays before journaling a failure. The same
//! policy here keeps transient faults (spurious launch failures, brief
//! device loss) from polluting tuning journals, while every attempt and
//! every backoff second is debited to the simulated GPU clock — retries
//! are not free, so they show up in the GPU-hour accounting exactly like
//! the wasted wall-clock they stand in for.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::measure::{MeasureResult, Measurer};
use glimpse_space::{Config, SearchSpace};
use serde::{Deserialize, Serialize};

/// Retry schedule for faulted measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Simulated seconds slept before the first retry.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_s: 0.5,
            backoff_factor: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn no_retries() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Backoff slept before retry number `retry` (1-based).
    #[must_use]
    pub fn backoff_s(&self, retry: u32) -> f64 {
        self.base_backoff_s * self.backoff_factor.powi(retry.saturating_sub(1) as i32)
    }
}

/// The result of a retried measurement: the final outcome plus how much
/// the whole attempt chain cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RetriedMeasure {
    /// The last attempt's result, with `cost_s` covering **all** attempts
    /// and backoff, so budget accounting sees the true spend.
    pub result: MeasureResult,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
}

/// Measures `config`, retrying retryable faults per `policy`.
///
/// Invalid configurations are not retried — a resource violation is
/// deterministic. A dead device is not retried either. Each retry first
/// charges the backoff to the measurer's simulated clock.
pub fn measure_with_retry(measurer: &mut Measurer, space: &SearchSpace, config: &Config, policy: &RetryPolicy) -> RetriedMeasure {
    let attempts_allowed = policy.max_attempts.max(1);
    let mut total_cost_s = 0.0;
    let mut attempts = 0;
    loop {
        attempts += 1;
        let mut result = measurer.measure(space, config);
        total_cost_s += result.cost_s;
        let retryable = result.outcome.fault().is_some_and(|f| f.is_retryable());
        if retryable && attempts < attempts_allowed {
            let backoff = policy.backoff_s(attempts);
            measurer.charge(backoff);
            total_cost_s += backoff;
            continue;
        }
        result.cost_s = total_cost_s;
        return RetriedMeasure { result, attempts };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates, MeasureFault, LAUNCH_FAILURE_COST_S};
    use crate::measure::Outcome;
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> glimpse_space::SearchSpace {
        templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1))
    }

    fn valid_config(measurer: &Measurer, space: &glimpse_space::SearchSpace) -> Config {
        let mut rng = StdRng::seed_from_u64(11);
        loop {
            let c = space.sample_uniform(&mut rng);
            if measurer.model().latency_s(space, &c).is_some() {
                return c;
            }
        }
    }

    #[test]
    fn clean_channel_needs_one_attempt() {
        let gpu = database::find("Titan Xp").unwrap().clone();
        let mut m = Measurer::new(gpu, 1);
        let space = space();
        let c = valid_config(&m, &space);
        let retried = measure_with_retry(&mut m, &space, &c, &RetryPolicy::default());
        assert_eq!(retried.attempts, 1);
        assert!(retried.result.outcome.is_valid());
    }

    #[test]
    fn persistent_launch_failures_exhaust_attempts_and_charge_backoff() {
        let gpu = database::find("Titan Xp").unwrap().clone();
        let rates = FaultRates {
            launch_failure: 1.0,
            ..FaultRates::none()
        };
        let mut m = Measurer::with_faults(gpu, 1, &FaultPlan::uniform(5, rates));
        let space = space();
        let c = valid_config(&m, &space);
        let policy = RetryPolicy::default();
        let retried = measure_with_retry(&mut m, &space, &c, &policy);
        assert_eq!(retried.attempts, policy.max_attempts);
        assert_eq!(retried.result.outcome, Outcome::Faulted(MeasureFault::LaunchFailure));
        let expected = 3.0 * LAUNCH_FAILURE_COST_S + policy.backoff_s(1) + policy.backoff_s(2);
        assert!(
            (retried.result.cost_s - expected).abs() < 1e-9,
            "cost {} != {expected}",
            retried.result.cost_s
        );
        assert!((m.elapsed_gpu_seconds() - expected).abs() < 1e-9, "clock must absorb backoff");
    }

    #[test]
    fn dead_device_is_not_retried() {
        let gpu = database::find("Titan Xp").unwrap().clone();
        let plan = FaultPlan::none().with_dead_device("Titan Xp");
        let mut m = Measurer::with_faults(gpu, 1, &plan);
        let space = space();
        let c = valid_config(&m, &space);
        let retried = measure_with_retry(&mut m, &space, &c, &RetryPolicy::default());
        assert_eq!(retried.attempts, 1);
        assert_eq!(retried.result.outcome, Outcome::Faulted(MeasureFault::DeviceDead));
    }

    #[test]
    fn transient_loss_recovers_within_the_attempt_budget() {
        // A lost device swallows TRANSIENT_LOSS_SPAN requests; with enough
        // attempts the retry loop rides it out and still gets a number.
        let gpu = database::find("Titan Xp").unwrap().clone();
        let rates = FaultRates {
            device_lost: 0.4,
            ..FaultRates::none()
        };
        let mut m = Measurer::with_faults(gpu, 1, &FaultPlan::uniform(21, rates));
        let space = space();
        let c = valid_config(&m, &space);
        let policy = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        let mut recovered = 0;
        for _ in 0..50 {
            let retried = measure_with_retry(&mut m, &space, &c, &policy);
            if retried.attempts > 1 && retried.result.outcome.is_valid() {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "no retried measurement ever recovered");
    }

    #[test]
    fn backoff_grows_exponentially() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_s: 0.5,
            backoff_factor: 2.0,
        };
        assert_eq!(policy.backoff_s(1), 0.5);
        assert_eq!(policy.backoff_s(2), 1.0);
        assert_eq!(policy.backoff_s(3), 2.0);
    }
}

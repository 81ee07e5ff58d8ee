//! Tuning histories: the measurement journal of one run, and the log store
//! used for transfer learning and meta-training.
//!
//! Serialized [`TuningHistory`] records are this reproduction's equivalent
//! of TVM tuning logs / the TenSet corpus \[19\] that §3.1 gathers to train
//! the prior generator `H`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use glimpse_sim::{InvalidReason, MeasureFault, MeasureResult, Outcome};
use glimpse_space::Config;
use glimpse_tensor_prog::TemplateKind;
use serde::{Deserialize, Serialize};

/// One measured trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trial {
    /// The measured configuration.
    pub config: Config,
    /// Throughput in GFLOPS; `None` if the launch failed or faulted.
    pub gflops: Option<f64>,
    /// Simulated GPU seconds this trial cost (retries and backoff
    /// included when the harness retried).
    pub cost_s: f64,
    /// The infrastructure fault that ate this trial, if one did. A fault
    /// says nothing about the configuration — faulted trials must never
    /// become surrogate training targets, unlike invalid ones.
    pub fault: Option<MeasureFault>,
    /// Why the configuration was rejected, when the trial was invalid.
    /// Absent in logs written before this field existed (those records
    /// still classify as invalid via `gflops`/`fault`).
    pub invalid: Option<InvalidReason>,
}

impl Trial {
    /// Converts a measurement result into a trial record.
    #[must_use]
    pub fn from_measure(result: &MeasureResult) -> Self {
        let (gflops, invalid) = match result.outcome {
            Outcome::Valid { gflops, .. } => (Some(gflops), None),
            Outcome::Invalid(reason) => (None, Some(reason)),
            Outcome::Faulted(_) => (None, None),
        };
        Self {
            config: result.config.clone(),
            gflops,
            cost_s: result.cost_s,
            fault: result.outcome.fault(),
            invalid,
        }
    }

    /// Whether the trial was a valid measurement.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.gflops.is_some()
    }

    /// Whether the trial was lost to an infrastructure fault.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether the configuration itself was invalid (resource violation):
    /// a *learnable* failure, unlike a fault.
    #[must_use]
    pub fn is_invalid(&self) -> bool {
        self.gflops.is_none() && self.fault.is_none()
    }
}

/// The full journal of one tuning run on one (GPU, task) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuningHistory {
    /// GPU marketing name.
    pub gpu: String,
    /// Model the task came from.
    pub model: String,
    /// Task index within the model.
    pub task_index: usize,
    /// Code template tuned.
    pub template: TemplateKind,
    /// Trials in measurement order.
    pub trials: Vec<Trial>,
}

impl TuningHistory {
    /// Empty history for a (GPU, task) pair.
    #[must_use]
    pub fn new(gpu: &str, model: &str, task_index: usize, template: TemplateKind) -> Self {
        Self {
            gpu: gpu.to_owned(),
            model: model.to_owned(),
            task_index,
            template,
            trials: Vec::new(),
        }
    }

    /// Appends a trial.
    pub fn push(&mut self, trial: Trial) {
        self.trials.push(trial);
    }

    /// Number of trials.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether no trials were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Best valid throughput so far, 0 if none.
    #[must_use]
    pub fn best_gflops(&self) -> f64 {
        self.trials.iter().filter_map(|t| t.gflops).fold(0.0, f64::max)
    }

    /// The best valid configuration, if any trial succeeded.
    #[must_use]
    pub fn best_config(&self) -> Option<&Config> {
        self.trials
            .iter()
            .filter(|t| t.is_valid())
            .max_by(|a, b| {
                a.gflops
                    .unwrap_or(f64::NEG_INFINITY)
                    .total_cmp(&b.gflops.unwrap_or(f64::NEG_INFINITY))
            })
            .map(|t| &t.config)
    }

    /// Best-so-far trajectory: element `i` is the best throughput after
    /// `i + 1` measurements.
    #[must_use]
    pub fn trajectory(&self) -> Vec<f64> {
        let mut best = 0.0f64;
        self.trials
            .iter()
            .map(|t| {
                if let Some(g) = t.gflops {
                    best = best.max(g);
                }
                best
            })
            .collect()
    }

    /// Fraction of trials whose configuration was invalid (faulted trials
    /// are excluded from both numerator and population — they say nothing
    /// about the space).
    #[must_use]
    pub fn invalid_fraction(&self) -> f64 {
        let population = self.trials.iter().filter(|t| !t.is_fault()).count();
        if population == 0 {
            return 0.0;
        }
        self.invalid_count() as f64 / population as f64
    }

    /// Number of invalid trials (configuration violations, not faults).
    #[must_use]
    pub fn invalid_count(&self) -> usize {
        self.trials.iter().filter(|t| t.is_invalid()).count()
    }

    /// Number of trials lost to infrastructure faults.
    #[must_use]
    pub fn fault_count(&self) -> usize {
        self.trials.iter().filter(|t| t.is_fault()).count()
    }

    /// Total simulated GPU seconds spent.
    #[must_use]
    pub fn gpu_seconds(&self) -> f64 {
        self.trials.iter().map(|t| t.cost_s).sum()
    }

    /// Number of measurements needed to first reach `gflops`, if ever.
    #[must_use]
    pub fn measurements_to_reach(&self, gflops: f64) -> Option<usize> {
        let mut best = 0.0f64;
        for (i, t) in self.trials.iter().enumerate() {
            if let Some(g) = t.gflops {
                best = best.max(g);
            }
            if best >= gflops {
                return Some(i + 1);
            }
        }
        None
    }

    /// Valid `(config, gflops)` pairs — the supervised dataset for cost
    /// models and the prior generator.
    #[must_use]
    pub fn valid_pairs(&self) -> Vec<(&Config, f64)> {
        self.trials.iter().filter_map(|t| t.gflops.map(|g| (&t.config, g))).collect()
    }
}

/// A collection of tuning histories from past runs — the corpus transfer
/// learning (AutoTVM), cross-task priors (DGP), and Glimpse's offline
/// meta-training all draw from.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LogStore {
    logs: Vec<TuningHistory>,
}

impl LogStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a history.
    pub fn push(&mut self, history: TuningHistory) {
        self.logs.push(history);
    }

    /// All histories.
    #[must_use]
    pub fn logs(&self) -> &[TuningHistory] {
        &self.logs
    }

    /// Number of stored histories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.logs.len()
    }

    /// Whether the store holds no histories.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Histories matching a template, excluding a (gpu, model, task) target
    /// — the leave-one-out query used everywhere meta-knowledge is built.
    #[must_use]
    pub fn transfer_set(&self, template: TemplateKind, exclude_gpu: &str, exclude_model: &str, exclude_task: usize) -> Vec<&TuningHistory> {
        self.logs
            .iter()
            .filter(|h| h.template == template)
            .filter(|h| !(h.gpu == exclude_gpu && h.model == exclude_model && h.task_index == exclude_task))
            .collect()
    }

    /// Histories for a specific GPU and template (DGP transfers across
    /// layers of one target GPU).
    #[must_use]
    pub fn for_gpu(&self, gpu: &str, template: TemplateKind) -> Vec<&TuningHistory> {
        self.logs.iter().filter(|h| h.gpu == gpu && h.template == template).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_with(gflops: &[Option<f64>]) -> TuningHistory {
        let mut h = TuningHistory::new("Titan Xp", "toy", 0, TemplateKind::Conv2dDirect);
        for (i, g) in gflops.iter().enumerate() {
            h.push(Trial {
                config: Config::new(vec![i]),
                gflops: *g,
                cost_s: 1.0,
                fault: None,
                invalid: None,
            });
        }
        h
    }

    #[test]
    fn best_and_trajectory() {
        let h = history_with(&[Some(10.0), None, Some(30.0), Some(20.0)]);
        assert_eq!(h.best_gflops(), 30.0);
        assert_eq!(h.trajectory(), vec![10.0, 10.0, 30.0, 30.0]);
        assert_eq!(h.best_config(), Some(&Config::new(vec![2])));
    }

    #[test]
    fn invalid_accounting() {
        let h = history_with(&[Some(10.0), None, None, Some(20.0)]);
        assert_eq!(h.invalid_count(), 2);
        assert!((h.invalid_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn faults_are_journaled_separately_from_invalids() {
        let mut h = history_with(&[Some(10.0), None]);
        h.push(Trial {
            config: Config::new(vec![9]),
            gflops: None,
            cost_s: 10.0,
            fault: Some(MeasureFault::Timeout { timeout_s: 10.0 }),
            invalid: None,
        });
        assert_eq!(h.invalid_count(), 1);
        assert_eq!(h.fault_count(), 1);
        // The faulted trial drops out of the invalid-fraction population.
        assert!((h.invalid_fraction() - 0.5).abs() < 1e-12);
        // ...but its cost still counts against the GPU-seconds budget.
        assert!((h.gpu_seconds() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn measurements_to_reach_finds_first_crossing() {
        let h = history_with(&[Some(10.0), Some(15.0), Some(40.0)]);
        assert_eq!(h.measurements_to_reach(12.0), Some(2));
        assert_eq!(h.measurements_to_reach(40.0), Some(3));
        assert_eq!(h.measurements_to_reach(50.0), None);
    }

    #[test]
    fn gpu_seconds_sum_costs() {
        let h = history_with(&[Some(1.0), None]);
        assert!((h.gpu_seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_set_excludes_target() {
        let mut store = LogStore::new();
        store.push(history_with(&[Some(1.0)]));
        let mut other = history_with(&[Some(2.0)]);
        other.gpu = "RTX 3090".into();
        store.push(other);
        let set = store.transfer_set(TemplateKind::Conv2dDirect, "Titan Xp", "toy", 0);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].gpu, "RTX 3090");
    }

    #[test]
    fn for_gpu_filters() {
        let mut store = LogStore::new();
        store.push(history_with(&[Some(1.0)]));
        assert_eq!(store.for_gpu("Titan Xp", TemplateKind::Conv2dDirect).len(), 1);
        assert_eq!(store.for_gpu("Titan Xp", TemplateKind::Dense).len(), 0);
        assert_eq!(store.for_gpu("RTX 3090", TemplateKind::Conv2dDirect).len(), 0);
    }

    #[test]
    fn valid_pairs_skip_invalid() {
        let h = history_with(&[Some(10.0), None, Some(30.0)]);
        assert_eq!(h.valid_pairs().len(), 2);
    }
}

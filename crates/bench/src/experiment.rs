//! Shared experiment machinery: tuner dispatch, budgets, per-model runs,
//! end-to-end latency reconstruction, and artifact caching.

use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_core::tuner::GlimpseTuner;
use glimpse_gpu_spec::{database, GpuSpec};
use glimpse_sim::Measurer;
use glimpse_space::templates;
use glimpse_tensor_prog::{DnnModel, OpSpec, Task, TemplateKind};
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::chameleon::ChameleonTuner;
use glimpse_tuners::dgp::DgpTuner;
use glimpse_tuners::random::RandomTuner;
use glimpse_tuners::{Budget, LogStore, TuneContext, Tuner, TuningOutcome};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Which tuner to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TunerKind {
    /// Uniform random search.
    Random,
    /// AutoTVM (Chen et al., NeurIPS '18).
    AutoTvm,
    /// AutoTVM with cross-hardware transfer learning.
    AutoTvmTransfer,
    /// Chameleon (Ahn et al., ICLR '20).
    Chameleon,
    /// DGP (Sun et al., ICCV '21).
    Dgp,
    /// Glimpse (this paper).
    Glimpse,
}

impl TunerKind {
    /// The comparison set of the end-to-end figures (Fig. 9, Table 2).
    pub const END_TO_END: [TunerKind; 4] = [TunerKind::AutoTvm, TunerKind::Chameleon, TunerKind::Dgp, TunerKind::Glimpse];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TunerKind::Random => "Random",
            TunerKind::AutoTvm => "AutoTVM",
            TunerKind::AutoTvmTransfer => "AutoTVM+TL",
            TunerKind::Chameleon => "Chameleon",
            TunerKind::Dgp => "DGP",
            TunerKind::Glimpse => "Glimpse",
        }
    }
}

/// How the per-task budget is set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BudgetMode {
    /// Run until reaching `frac` of the task's oracle-best throughput, with
    /// a hard measurement cap (run-to-quality, Fig. 6/9/Table 2).
    ToQuality {
        /// Fraction of the oracle best to reach.
        frac: f64,
        /// Hard cap on measurements.
        cap: usize,
    },
    /// Fixed simulated GPU-seconds per task (Fig. 5 gives 100 s/layer).
    GpuSeconds(f64),
    /// Fixed measurement count per task (Fig. 4 initial-batch probes).
    Measurements(usize),
    /// Run until the best-so-far plateaus (no `epsilon` relative gain over
    /// the last `window` measurements), with a hard cap — how each compiler
    /// self-paces in the end-to-end comparison (Fig. 9, Table 2).
    Converged {
        /// Plateau window in measurements.
        window: usize,
        /// Relative improvement threshold.
        epsilon: f64,
        /// Hard cap on measurements.
        cap: usize,
    },
}

/// Result of tuning one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskRun {
    /// Task index within the model.
    pub task_index: usize,
    /// Template of the task.
    pub template: TemplateKind,
    /// Best throughput reached (GFLOPS).
    pub best_gflops: f64,
    /// Near-exhaustive oracle best for reference.
    pub oracle_gflops: f64,
    /// Measurements performed.
    pub measurements: usize,
    /// Invalid measurements.
    pub invalid: usize,
    /// Explorer steps (Fig. 6 metric).
    pub explorer_steps: usize,
    /// Simulated GPU seconds (Table 2 metric).
    pub gpu_seconds: f64,
    /// Noise-free replay of the best configuration (the standard
    /// re-evaluation step before shipping a schedule); used for latency
    /// reconstruction so the winner's curse of many noisy measurements
    /// doesn't masquerade as output quality.
    pub replayed_gflops: f64,
    /// Best throughput within the first `n` measurements, per probe point.
    pub trajectory: Vec<f64>,
}

/// Result of tuning every task of one model on one GPU with one tuner.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelGpuResult {
    /// Tuner used.
    pub tuner: TunerKind,
    /// GPU name.
    pub gpu: String,
    /// Model name.
    pub model: String,
    /// Per-task results in task order.
    pub tasks: Vec<TaskRun>,
    /// End-to-end model latency (ms) from the best configs.
    pub latency_ms: f64,
}

impl ModelGpuResult {
    /// Total simulated GPU hours across tasks.
    #[must_use]
    pub fn gpu_hours(&self) -> f64 {
        self.tasks.iter().map(|t| t.gpu_seconds).sum::<f64>() / 3600.0
    }

    /// Total explorer steps across tasks.
    #[must_use]
    pub fn explorer_steps(&self) -> usize {
        self.tasks.iter().map(|t| t.explorer_steps).sum()
    }

    /// Total invalid measurements across tasks.
    #[must_use]
    pub fn invalid(&self) -> usize {
        self.tasks.iter().map(|t| t.invalid).sum()
    }

    /// Total measurements across tasks.
    #[must_use]
    pub fn measurements(&self) -> usize {
        self.tasks.iter().map(|t| t.measurements).sum()
    }
}

/// Number of uniform oracle samples defining the "near-exhaustive" optimum.
pub const ORACLE_SAMPLES: usize = 20_000;

/// Directory experiment outputs and artifact caches live in.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Loads (or trains and caches) leave-one-out Glimpse artifacts for a target
/// GPU. Training is deterministic, so the cache is purely a time saver.
#[must_use]
pub fn cached_artifacts(target: &GpuSpec, seed: u64) -> GlimpseArtifacts {
    let path = results_dir().join(format!("artifacts-{}-{}.json", target.name.replace(' ', "_"), seed));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(artifacts) = serde_json::from_str::<GlimpseArtifacts>(&text) {
            return artifacts;
        }
    }
    eprintln!("[glimpse-bench] training leave-one-out artifacts for {} ...", target.name);
    let artifacts = GlimpseArtifacts::train_leave_one_out(target, seed).expect("leave-one-out artifact training");
    if let Ok(text) = serde_json::to_string(&artifacts) {
        let _ = glimpse_durable::atomic_write(&path, text.as_bytes());
    }
    artifacts
}

/// Same, but with explicit options (used by the ablation harness).
#[must_use]
pub fn cached_artifacts_with(target: &GpuSpec, options: TrainingOptions, seed: u64, tag: &str) -> GlimpseArtifacts {
    let path = results_dir().join(format!("artifacts-{}-{}-{}.json", target.name.replace(' ', "_"), seed, tag));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(artifacts) = serde_json::from_str::<GlimpseArtifacts>(&text) {
            return artifacts;
        }
    }
    eprintln!("[glimpse-bench] training artifacts ({tag}) for {} ...", target.name);
    let gpus = database::training_gpus(&target.name);
    let artifacts = GlimpseArtifacts::train_with(&gpus, options, seed).expect("artifact training");
    if let Ok(text) = serde_json::to_string(&artifacts) {
        let _ = glimpse_durable::atomic_write(&path, text.as_bytes());
    }
    artifacts
}

/// Near-exhaustive oracle best for a (GPU, task) pair (noise-free).
#[must_use]
pub fn oracle_best_gflops(gpu: &GpuSpec, task: &Task, seed: u64) -> f64 {
    let space = templates::space_for_task(task);
    let measurer = Measurer::new(gpu.clone(), seed);
    measurer.oracle_best(&space, ORACLE_SAMPLES, seed).map_or(0.0, |(_, g)| g)
}

/// Runs one tuner on one task.
#[allow(clippy::too_many_arguments, reason = "one knob per experiment axis")]
#[must_use]
pub fn run_task(
    kind: TunerKind,
    gpu: &GpuSpec,
    task: &Task,
    artifacts: Option<&GlimpseArtifacts>,
    transfer: &LogStore,
    mode: BudgetMode,
    seed: u64,
) -> (TaskRun, TuningOutcome) {
    let space = templates::space_for_task(task);
    let mut measurer = Measurer::new(gpu.clone(), seed ^ 0x5EED);
    let oracle = measurer.oracle_best(&space, ORACLE_SAMPLES, seed ^ 0x0AC1E).map_or(0.0, |(_, g)| g);
    let budget = match mode {
        BudgetMode::ToQuality { frac, cap } => Budget::measurements(cap).with_target(frac * oracle),
        BudgetMode::GpuSeconds(s) => Budget::gpu_seconds(s),
        BudgetMode::Measurements(n) => Budget::measurements(n),
        BudgetMode::Converged { window, epsilon, cap } => Budget::measurements(cap).with_plateau(window, epsilon),
    };
    let ctx = TuneContext::new(task, &space, &mut measurer, budget, seed);

    let outcome = match kind {
        TunerKind::Random => RandomTuner::new().tune(ctx),
        TunerKind::AutoTvm => AutoTvmTuner::new().tune(ctx),
        TunerKind::AutoTvmTransfer => {
            let logs = transfer
                .transfer_set(task.template, &gpu.name, &task.id.model, task.id.index)
                .into_iter()
                .cloned()
                .collect();
            AutoTvmTuner::new().with_transfer(logs).tune(ctx)
        }
        TunerKind::Chameleon => ChameleonTuner::new().tune(ctx),
        TunerKind::Dgp => {
            let logs = transfer.for_gpu(&gpu.name, task.template).into_iter().cloned().collect();
            DgpTuner::new().with_transfer(logs).tune(ctx)
        }
        TunerKind::Glimpse => {
            let artifacts = artifacts.expect("Glimpse needs artifacts");
            GlimpseTuner::new(artifacts, gpu).tune(ctx)
        }
    };

    let replayed_gflops = outcome
        .best_config
        .as_ref()
        .and_then(|c| measurer.model().throughput_gflops(&space, c))
        .unwrap_or(0.0);
    let run = TaskRun {
        task_index: task.id.index,
        template: task.template,
        best_gflops: outcome.best_gflops,
        oracle_gflops: oracle,
        measurements: outcome.measurements,
        invalid: outcome.invalid_measurements,
        explorer_steps: outcome.explorer_steps,
        gpu_seconds: outcome.gpu_seconds,
        replayed_gflops,
        trajectory: outcome.history.trajectory(),
    };
    (run, outcome)
}

/// Runs one tuner over every task of a model on one GPU and reconstructs
/// end-to-end latency.
#[must_use]
pub fn run_model(
    kind: TunerKind,
    gpu: &GpuSpec,
    model: &DnnModel,
    artifacts: Option<&GlimpseArtifacts>,
    transfer: &LogStore,
    mode: BudgetMode,
    seed: u64,
) -> ModelGpuResult {
    let mut tasks = Vec::with_capacity(model.tasks().len());
    let mut bests: Vec<(Task, f64)> = Vec::new();
    for (i, task) in model.tasks().iter().enumerate() {
        let (run, _) = run_task(kind, gpu, task, artifacts, transfer, mode, seed.wrapping_add(i as u64 * 101));
        bests.push((task.clone(), run.replayed_gflops));
        tasks.push(run);
    }
    let latency_ms = end_to_end_latency_ms(&bests);
    ModelGpuResult {
        tuner: kind,
        gpu: gpu.name.clone(),
        model: model.name().to_owned(),
        tasks,
        latency_ms,
    }
}

/// Reconstructs end-to-end model latency from per-task best throughputs.
///
/// TVM tunes both the direct and Winograd template for eligible
/// convolutions and keeps the faster one per layer; layers with no valid
/// configuration found fall back to a conservative 50 GFLOPS reference
/// kernel (cuDNN-style fallback).
#[must_use]
pub fn end_to_end_latency_ms(bests: &[(Task, f64)]) -> f64 {
    const FALLBACK_GFLOPS: f64 = 50.0;
    let mut total = 0.0;
    for (task, gflops) in bests {
        if task.template == TemplateKind::Conv2dWinograd {
            continue; // folded into the direct task below
        }
        let mut best = *gflops;
        if let OpSpec::Conv2d(c) = &task.op {
            if c.winograd_eligible() {
                if let Some((_, wg)) = bests
                    .iter()
                    .find(|(t, _)| t.template == TemplateKind::Conv2dWinograd && t.op == task.op)
                {
                    best = best.max(*wg);
                }
            }
        }
        total += task.latency_ms(best.max(FALLBACK_GFLOPS));
    }
    total
}

/// The evaluation grid of Table 1: (GPU, model) pairs.
#[must_use]
pub fn evaluation_grid() -> (Vec<&'static GpuSpec>, Vec<DnnModel>) {
    (database::evaluation_gpus(), glimpse_tensor_prog::models::evaluation_models())
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_tensor_prog::models;

    #[test]
    fn run_task_respects_measurement_mode() {
        let gpu = database::find("Titan Xp").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let store = LogStore::new();
        let (run, _) = run_task(TunerKind::Random, gpu, task, None, &store, BudgetMode::Measurements(20), 1);
        assert_eq!(run.measurements, 20);
        assert!(run.oracle_gflops > 0.0);
        assert_eq!(run.trajectory.len(), 20);
    }

    #[test]
    fn to_quality_mode_stops_at_target_or_cap() {
        let gpu = database::find("Titan Xp").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let store = LogStore::new();
        let (run, _) = run_task(
            TunerKind::AutoTvm,
            gpu,
            task,
            None,
            &store,
            BudgetMode::ToQuality { frac: 0.5, cap: 200 },
            2,
        );
        assert!(run.measurements <= 200);
        assert!(run.best_gflops >= 0.5 * run.oracle_gflops || run.measurements == 200);
    }

    #[test]
    fn latency_prefers_winograd_when_faster() {
        let model = models::vgg16();
        // All conv tasks at 100 GFLOPS direct, 400 GFLOPS winograd.
        let bests: Vec<(Task, f64)> = model
            .tasks()
            .iter()
            .map(|t| {
                let g = if t.template == TemplateKind::Conv2dWinograd { 400.0 } else { 100.0 };
                (t.clone(), g)
            })
            .collect();
        let with_wino = end_to_end_latency_ms(&bests);
        let direct_only: Vec<(Task, f64)> = bests
            .iter()
            .map(|(t, g)| (t.clone(), if t.template == TemplateKind::Conv2dWinograd { 0.0 } else { *g }))
            .collect();
        let without = end_to_end_latency_ms(&direct_only);
        assert!(with_wino < without, "{with_wino} vs {without}");
    }

    #[test]
    fn fallback_kicks_in_for_zero_throughput() {
        let model = models::alexnet();
        let bests: Vec<(Task, f64)> = model.tasks().iter().map(|t| (t.clone(), 0.0)).collect();
        let latency = end_to_end_latency_ms(&bests);
        assert!(latency.is_finite() && latency > 0.0);
    }
}

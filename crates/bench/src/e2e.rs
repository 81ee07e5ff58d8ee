//! The one end-to-end evaluation grid behind Figs. 5, 6, 7, 9 and Table 2:
//! every tuner × model × GPU of Table 1, AutoTVM at its fixed trial count and
//! the adaptive tuners until their best-so-far plateaus, cached under
//! `results/`.

use crate::experiment::{cached_artifacts, evaluation_grid, run_model, BudgetMode, ModelGpuResult, TunerKind};
use crate::report;
use glimpse_tuners::LogStore;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Seed for artifact training in all harnesses.
pub const ARTIFACT_SEED: u64 = 42;
/// Seed for the evaluation runs.
pub const RUN_SEED: u64 = 1234;
/// AutoTVM's fixed per-task trial count. AutoTVM has no convergence
/// detection — practitioners set `n_trial` and wait; the paper's AutoTVM
/// GPU-hour totals (18.65–49.08 h per model over four GPUs) correspond to
/// roughly this many ~3.5 s measurements per task.
pub const AUTOTVM_TRIALS: usize = 512;
/// Plateau window (measurements) for the *adaptive* tuners
/// (Chameleon / DGP / Glimpse): stop when converged.
pub const PLATEAU_WINDOW: usize = 64;
/// Relative improvement threshold below which an adaptive run has converged.
pub const PLATEAU_EPSILON: f64 = 0.002;
/// Hard per-task measurement cap for the adaptive tuners.
pub const MEASUREMENT_CAP: usize = 768;

/// The budget mode each tuner runs under in the end-to-end comparison.
#[must_use]
pub fn mode_for(kind: TunerKind) -> BudgetMode {
    match kind {
        TunerKind::AutoTvm | TunerKind::AutoTvmTransfer | TunerKind::Random => BudgetMode::Measurements(AUTOTVM_TRIALS),
        _ => BudgetMode::Converged {
            window: PLATEAU_WINDOW,
            epsilon: PLATEAU_EPSILON,
            cap: MEASUREMENT_CAP,
        },
    }
}

/// The full end-to-end grid: one result per (tuner, GPU, model), plus every
/// AutoTVM tuning history it produced — DGP's same-GPU transfer corpus and
/// Fig. 5's AutoTVM+TL donor set. Cached as one unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    /// One entry per (tuner, GPU, model).
    pub results: Vec<ModelGpuResult>,
    /// AutoTVM's histories, GPU-major then model then task.
    pub autotvm_logs: LogStore,
}

impl EndToEnd {
    /// Finds the result for a (tuner, gpu, model) triple.
    #[must_use]
    pub fn get(&self, tuner: TunerKind, gpu: &str, model: &str) -> Option<&ModelGpuResult> {
        self.results.iter().find(|r| r.tuner == tuner && r.gpu == gpu && r.model == model)
    }

    /// Loads the grid cached in `dir`; `None` unless the results and their
    /// AutoTVM logs decode together, so a partial cache is a miss.
    fn load(dir: &Path) -> Option<Self> {
        let text = std::fs::read_to_string(dir.join(format!("{}.json", cache_name()))).ok()?;
        serde_json::from_str(&text).ok()
    }
}

fn cache_name() -> String {
    format!("e2e-{RUN_SEED}")
}

/// Runs (or loads from cache) the end-to-end grid.
#[must_use]
pub fn end_to_end() -> EndToEnd {
    let dir = crate::experiment::results_dir();
    if let Some(e2e) = EndToEnd::load(&dir) {
        eprintln!("[glimpse-bench] loaded the cached end-to-end grid from {}", dir.display());
        return e2e;
    }
    let (gpus, models) = evaluation_grid();

    // One worker per GPU (the paper's RPC fleet); each worker runs AutoTVM
    // first so DGP can transfer from same-GPU logs.
    let mut e2e = EndToEnd {
        results: Vec::new(),
        autotvm_logs: LogStore::new(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = gpus
            .iter()
            .map(|gpu| {
                let models = &models;
                scope.spawn(move || {
                    let artifacts = cached_artifacts(gpu, ARTIFACT_SEED, None);
                    let mut results = Vec::new();
                    let mut gpu_logs = LogStore::new();
                    for kind in TunerKind::END_TO_END {
                        for model in models {
                            eprintln!("[glimpse-bench] {} / {} / {}", kind.label(), gpu.name, model.name());
                            let (result, histories) = run_model(kind, gpu, model, Some(&artifacts), &gpu_logs, mode_for(kind), RUN_SEED);
                            if kind == TunerKind::AutoTvm {
                                histories.into_iter().for_each(|h| gpu_logs.push(h));
                            }
                            results.push(result);
                        }
                    }
                    (results, gpu_logs)
                })
            })
            .collect();
        for handle in handles {
            let (results, logs) = handle.join().expect("gpu worker panicked");
            e2e.results.extend(results);
            logs.logs().iter().for_each(|h| e2e.autotvm_logs.push(h.clone()));
        }
    });
    report::save_json(&dir, &cache_name(), &e2e);
    e2e
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_tensor_prog::TemplateKind;
    use glimpse_tuners::TuningHistory;

    #[test]
    fn a_cache_without_its_autotvm_logs_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("glimpse-bench-e2e-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut e2e = EndToEnd {
            results: vec![ModelGpuResult {
                tuner: TunerKind::AutoTvm,
                gpu: "Titan Xp".into(),
                model: "AlexNet".into(),
                tasks: Vec::new(),
                latency_ms: 1.5,
            }],
            autotvm_logs: LogStore::new(),
        };
        e2e.autotvm_logs
            .push(TuningHistory::new("Titan Xp", "AlexNet", 0, TemplateKind::Conv2dDirect));

        // The grid results next to a separate logs file (not one unit).
        report::save_json(&dir, &cache_name(), &serde_json::json!({ "results": e2e.results }));
        report::save_json(&dir, &format!("autotvm-logs-{RUN_SEED}"), &e2e.autotvm_logs);
        assert_eq!(EndToEnd::load(&dir), None);

        report::save_json(&dir, &cache_name(), &e2e);
        assert_eq!(EndToEnd::load(&dir), Some(e2e));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The shared end-to-end evaluation run behind Fig. 6, Fig. 7, Fig. 9 and
//! Table 2: every tuner × model × GPU of Table 1, run-to-quality, with
//! results cached under `results/`.

use crate::experiment::{cached_artifacts, evaluation_grid, run_model, run_task, BudgetMode, ModelGpuResult, TunerKind};
use crate::report;
use glimpse_tuners::LogStore;
use serde::{Deserialize, Serialize};

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

/// The full end-to-end result set plus the AutoTVM log store (transfer
/// donor for Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndToEnd {
    /// One entry per (tuner, GPU, model).
    pub results: Vec<ModelGpuResult>,
}

impl EndToEnd {
    /// Finds the result for a (tuner, gpu, model) triple.
    #[must_use]
    pub fn get(&self, tuner: TunerKind, gpu: &str, model: &str) -> Option<&ModelGpuResult> {
        self.results.iter().find(|r| r.tuner == tuner && r.gpu == gpu && r.model == model)
    }
}

/// Runs (or loads from cache) the end-to-end grid.
#[must_use]
pub fn end_to_end() -> EndToEnd {
    let dir = crate::experiment::results_dir();
    let path = dir.join(format!("e2e-{RUN_SEED}.json"));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(parsed) = serde_json::from_str::<EndToEnd>(&text) {
            eprintln!("[glimpse-bench] loaded cached end-to-end results from {}", path.display());
            return parsed;
        }
    }
    let (gpus, models) = evaluation_grid();

    // One worker per GPU (the paper's RPC fleet); each worker runs AutoTVM
    // first so DGP can transfer from same-GPU logs.
    let mut per_gpu: Vec<Vec<ModelGpuResult>> = Vec::new();
    let mut all_logs = LogStore::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gpus
            .iter()
            .map(|gpu| {
                let models = &models;
                scope.spawn(move || {
                    let artifacts = cached_artifacts(gpu, ARTIFACT_SEED, None);
                    let mut results = Vec::new();
                    let mut gpu_logs = LogStore::new();
                    // AutoTVM pass (also the donor corpus for DGP transfer).
                    for model in models {
                        let mut tasks = Vec::new();
                        let mut bests = Vec::new();
                        for (i, task) in model.tasks().iter().enumerate() {
                            let (run, outcome) = run_task(
                                TunerKind::AutoTvm,
                                gpu,
                                task,
                                None,
                                &LogStore::new(),
                                mode_for(TunerKind::AutoTvm),
                                RUN_SEED.wrapping_add(i as u64 * 101),
                            );
                            bests.push((task.clone(), run.replayed_gflops));
                            gpu_logs.push(outcome.history);
                            tasks.push(run);
                        }
                        let latency_ms = crate::experiment::end_to_end_latency_ms(&bests);
                        results.push(ModelGpuResult {
                            tuner: TunerKind::AutoTvm,
                            gpu: gpu.name.clone(),
                            model: model.name().to_owned(),
                            tasks,
                            latency_ms,
                        });
                    }
                    // Remaining tuners.
                    for kind in [TunerKind::Chameleon, TunerKind::Dgp, TunerKind::Glimpse] {
                        for model in models {
                            eprintln!("[glimpse-bench] {} / {} / {}", kind.label(), gpu.name, model.name());
                            results.push(run_model(kind, gpu, model, Some(&artifacts), &gpu_logs, mode_for(kind), RUN_SEED));
                        }
                    }
                    (results, gpu_logs)
                })
            })
            .collect();
        for handle in handles {
            let (results, logs) = handle.join().expect("gpu worker panicked");
            per_gpu.push(results);
            for log in logs.logs() {
                all_logs.push(log.clone());
            }
        }
    });
    let e2e = EndToEnd {
        results: per_gpu.into_iter().flatten().collect(),
    };
    report::save_json(&dir, &format!("e2e-{RUN_SEED}"), &e2e);
    // The AutoTVM histories double as the transfer-learning donor corpus
    // (Fig. 5); persist them so that pass is free.
    report::save_json(&dir, &format!("autotvm-logs-{RUN_SEED}"), &all_logs);
    e2e
}

/// Runs (or loads) an AutoTVM-only pass over the grid and returns its
/// tuning logs — the transfer donor set for Fig. 5's AutoTVM+TL.
#[must_use]
pub fn autotvm_log_store() -> LogStore {
    let dir = crate::experiment::results_dir();
    let path = dir.join(format!("autotvm-logs-{RUN_SEED}.json"));
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(store) = serde_json::from_str::<LogStore>(&text) {
            return store;
        }
    }
    let (gpus, models) = evaluation_grid();
    let mode = BudgetMode::Converged {
        window: PLATEAU_WINDOW,
        epsilon: PLATEAU_EPSILON,
        cap: MEASUREMENT_CAP,
    };
    let mut store = LogStore::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = gpus
            .iter()
            .map(|gpu| {
                let models = &models;
                scope.spawn(move || {
                    let mut logs = Vec::new();
                    for model in models {
                        for (i, task) in model.tasks().iter().enumerate() {
                            let (_, outcome) = run_task(
                                TunerKind::AutoTvm,
                                gpu,
                                task,
                                None,
                                &LogStore::new(),
                                mode,
                                RUN_SEED.wrapping_add(i as u64 * 101),
                            );
                            logs.push(outcome.history);
                        }
                    }
                    logs
                })
            })
            .collect();
        for handle in handles {
            for log in handle.join().expect("gpu worker panicked") {
                store.push(log);
            }
        }
    });
    report::save_json(&dir, &format!("autotvm-logs-{RUN_SEED}"), &store);
    store
}

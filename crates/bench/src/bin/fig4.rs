//! Figure 4: quality of the first 100 sampled configurations.
//!
//! For four representative (GPU, model, layer) combinations, plots the
//! sorted throughput of the first 100 configurations each approach
//! measures: Random, AutoTVM, Chameleon, and Glimpse (whose initial batch
//! comes from the Blueprint-conditioned prior `H`). Paper: the Glimpse
//! curve dominates, some layers reaching near-optimal within the first few
//! steps.

use glimpse_bench::e2e::ARTIFACT_SEED;
use glimpse_bench::experiment::{cached_artifacts, run_task, BudgetMode, TunerKind};
use glimpse_bench::report;
use glimpse_gpu_spec::database;
use glimpse_tensor_prog::models;
use glimpse_tuners::LogStore;

const PROBES: usize = 100;

fn main() {
    // Representative combos mirroring the paper's panels (task indices are
    // this reproduction's extraction order; all four are direct conv2d
    // tasks so the GFLOPS scale matches the paper's 0-4000 axes).
    let combos: [(&str, &str, usize); 4] = [
        ("Titan Xp", "ResNet-18", 9),
        ("RTX 2070 Super", "ResNet-18", 5),
        ("RTX 2080 Ti", "VGG-16", 7),
        ("RTX 3090", "AlexNet", 3),
    ];
    let kinds = [TunerKind::Random, TunerKind::AutoTvm, TunerKind::Chameleon, TunerKind::Glimpse];
    let store = LogStore::new();
    let mut payload = Vec::new();

    for (gpu_name, model_name, layer) in combos {
        let gpu = database::find(gpu_name).unwrap();
        let model = models::find(model_name).unwrap();
        let task = &model.tasks()[layer];
        let artifacts = cached_artifacts(gpu, ARTIFACT_SEED, None);
        println!("\n=== {gpu_name} / {model_name} / L{layer} ({task}) ===");

        let mut curves = Vec::new();
        for kind in kinds {
            let (run, outcome) = run_task(kind, gpu, task, Some(&artifacts), &store, BudgetMode::Measurements(PROBES), 77);
            // Sorted-descending GFLOPS of the measured configs (invalid = 0).
            let mut values: Vec<f64> = outcome.history.trials.iter().map(|t| t.gflops.unwrap_or(0.0)).collect();
            values.sort_by(|a, b| b.total_cmp(a));
            curves.push((kind, values, run.oracle_gflops));
        }
        let max = curves.iter().flat_map(|(_, v, _)| v.iter().copied()).fold(0.0f64, f64::max);
        for (kind, values, _) in &curves {
            println!("{}", report::sparkline(kind.label(), values, max));
        }
        let rows: Vec<Vec<String>> = curves
            .iter()
            .map(|(kind, values, oracle)| {
                let best = values.first().copied().unwrap_or(0.0);
                let median = values.get(PROBES / 2).copied().unwrap_or(0.0);
                let valid = values.iter().filter(|v| **v > 0.0).count();
                vec![
                    kind.label().to_owned(),
                    format!("{best:.0}"),
                    format!("{median:.0}"),
                    format!("{valid}/{PROBES}"),
                    format!("{:.0}% of oracle", 100.0 * best / oracle),
                ]
            })
            .collect();
        println!(
            "{}",
            report::table(&["sampler", "best GFLOPS", "median GFLOPS", "valid", "best vs oracle"], &rows)
        );
        payload.push(serde_json::json!({
            "gpu": gpu_name,
            "model": model_name,
            "layer": layer,
            "curves": curves.iter().map(|(k, v, o)| serde_json::json!({
                "tuner": k.label(), "sorted_gflops": v, "oracle": o,
            })).collect::<Vec<_>>(),
        }));
    }
    report::save_json(&glimpse_bench::experiment::results_dir(), "fig4", &payload);
}

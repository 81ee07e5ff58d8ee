//! Figure 5: output-code performance under a 100 s/layer budget, versus
//! AutoTVM with and without transfer learning.
//!
//! Every compiler gets 100 simulated GPU seconds per layer. AutoTVM+TL is
//! warm-started from logs of all other (network, hardware) combinations,
//! taken from the AutoTVM runs of the end-to-end grid (`e2e::end_to_end`);
//! Glimpse's initialization comes from the Blueprint prior instead. Paper:
//! Glimpse beats both by ~40 % on geomean, and transfer learning is
//! sometimes *worse* than plain AutoTVM (the 0.83 outlier).

use glimpse_bench::e2e::{end_to_end, ARTIFACT_SEED};
use glimpse_bench::experiment::{cached_artifacts, evaluation_grid, run_model, BudgetMode, TunerKind};
use glimpse_bench::report;
use glimpse_mlkit::stats::geomean;
use glimpse_tuners::LogStore;

/// The paper's per-layer budget (seconds of simulated GPU time).
const BUDGET_S: f64 = 100.0;

fn main() {
    let (gpus, models) = evaluation_grid();
    let donor = end_to_end().autotvm_logs;
    let empty = LogStore::new();
    let mode = BudgetMode::GpuSeconds(BUDGET_S);
    let kinds = [TunerKind::AutoTvm, TunerKind::AutoTvmTransfer, TunerKind::Glimpse];

    // score(gpu, model, tuner) = geomean over tasks of best/oracle.
    let mut rows = Vec::new();
    let mut payload = Vec::new();
    let mut ratios_tl = Vec::new();
    let mut ratios_glimpse = Vec::new();
    for gpu in &gpus {
        let artifacts = cached_artifacts(gpu, ARTIFACT_SEED, None);
        for model in &models {
            let mut scores = Vec::new();
            for kind in kinds {
                let transfer = if kind == TunerKind::AutoTvmTransfer { &donor } else { &empty };
                let (result, _) = run_model(kind, gpu, model, Some(&artifacts), transfer, mode, 909);
                // Output-code quality proxy: geomean over tasks of
                // best/oracle (robust across layers of different scale).
                let per_task: Vec<f64> = result.tasks.iter().map(|t| (t.best_gflops / t.oracle_gflops).max(1e-3)).collect();
                scores.push(geomean(&per_task));
            }
            let tl_ratio = scores[1] / scores[0];
            let glimpse_ratio = scores[2] / scores[0];
            ratios_tl.push(tl_ratio);
            ratios_glimpse.push(glimpse_ratio);
            rows.push(vec![
                gpu.name.clone(),
                model.name().to_owned(),
                "1.00".to_owned(),
                format!("{tl_ratio:.2}"),
                format!("{glimpse_ratio:.2}"),
            ]);
            payload.push(serde_json::json!({
                "gpu": gpu.name, "model": model.name(),
                "autotvm": scores[0], "autotvm_tl": scores[1], "glimpse": scores[2],
            }));
        }
    }
    rows.push(vec![
        "geomean".into(),
        String::new(),
        "1.00".into(),
        format!("{:.2}", geomean(&ratios_tl)),
        format!("{:.2}", geomean(&ratios_glimpse)),
    ]);
    println!("Figure 5 — output performance vs AutoTVM, {BUDGET_S:.0} s/layer budget");
    println!("(paper geomeans: TL 1.00, Glimpse 1.40)\n");
    println!("{}", report::table(&["GPU", "model", "AutoTVM", "AutoTVM+TL", "Glimpse"], &rows));
    report::save_json(&glimpse_bench::experiment::results_dir(), "fig5", &payload);
}

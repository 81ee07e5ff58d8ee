//! Ablations of the design choices DESIGN.md calls out:
//!
//! * prior generator on/off (Glimpse-without-H ≡ uniform initialization)
//! * neural acquisition on/off (raw surrogate energy instead)
//! * hardware-aware sampler on/off, and a τ sweep (paper fixed τ = 1/3 by
//!   grid search)
//! * Blueprint dimensionality (ties to Fig. 8)
//!
//! A component is switched off the way a fault plan does it: by injecting
//! its fallback rung into the resolved artifacts.

use glimpse_bench::e2e::ARTIFACT_SEED;
use glimpse_bench::experiment::{cached_artifacts, oracle_best_gflops};
use glimpse_bench::report;
use glimpse_core::artifacts::TrainingOptions;
use glimpse_core::health::ResolvedArtifacts;
use glimpse_core::tuner::{GlimpseConfig, GlimpseTuner};
use glimpse_gpu_spec::database;
use glimpse_mlkit::stats::geomean;
use glimpse_sim::Measurer;
use glimpse_space::templates;
use glimpse_supervise::Component;
use glimpse_tensor_prog::models;
use glimpse_tuners::{Budget, TuneContext, Tuner, TuningOutcome};

const BUDGET: usize = 192;

fn run(config: GlimpseConfig, resolved: &ResolvedArtifacts, gpu_name: &str, seed: u64) -> Vec<TuningOutcome> {
    let gpu = database::find(gpu_name).unwrap();
    let model = models::resnet18();
    // A representative slice of tasks (conv stride-1, conv stride-2, 1x1, dense).
    let picks = [1usize, 3, 4, 16];
    picks
        .iter()
        .map(|&i| {
            let task = &model.tasks()[i];
            let space = templates::space_for_task(task);
            let mut measurer = Measurer::new(gpu.clone(), seed);
            let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(BUDGET), seed);
            GlimpseTuner::from_resolved(resolved, gpu, config).tune(ctx)
        })
        .collect()
}

fn summarize(name: &str, outcomes: &[TuningOutcome], oracles: &[f64]) -> Vec<String> {
    let quality: Vec<f64> = outcomes.iter().zip(oracles).map(|(o, or)| (o.best_gflops / or).max(1e-3)).collect();
    let invalid: f64 =
        outcomes.iter().map(|o| o.invalid_measurements as f64).sum::<f64>() / outcomes.iter().map(|o| o.measurements as f64).sum::<f64>();
    let steps: usize = outcomes.iter().map(|o| o.explorer_steps).sum();
    vec![
        name.to_owned(),
        format!("{:.3}", geomean(&quality)),
        report::percent(invalid),
        format!("{steps}"),
    ]
}

fn main() {
    let gpu_name = "RTX 2080 Ti";
    let gpu = database::find(gpu_name).unwrap();
    let healthy = ResolvedArtifacts::healthy(cached_artifacts(gpu, ARTIFACT_SEED, None));
    let model = models::resnet18();
    let picks = [1usize, 3, 4, 16];
    let oracles: Vec<f64> = picks.iter().map(|&i| oracle_best_gflops(gpu, &model.tasks()[i], 5)).collect();
    let headers = ["variant", "quality (frac of oracle)", "invalid rate", "explorer steps"];

    println!("Ablation — component contributions on {gpu_name} (budget {BUDGET} measurements/task)\n");
    let mut rows = Vec::new();
    let base = GlimpseConfig::default();
    rows.push(summarize("Glimpse (full)", &run(base, &healthy, gpu_name, 3), &oracles));
    for (name, component) in [
        ("  - prior H (uniform init)", Component::Prior),
        ("  - neural acquisition (raw surrogate)", Component::Acquisition),
        ("  - hardware-aware sampler", Component::Sampler),
    ] {
        let ablated = healthy.clone().with_injected(component);
        rows.push(summarize(name, &run(base, &ablated, gpu_name, 3), &oracles));
    }
    println!("{}", report::table(&headers, &rows));

    println!("τ sweep (paper grid search settled on τ = 1/3):\n");
    let mut tau_rows = Vec::new();
    for tau in [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 0.8] {
        let config = GlimpseConfig { tau, ..base };
        tau_rows.push(summarize(&format!("tau = {tau:.2}"), &run(config, &healthy, gpu_name, 4), &oracles));
    }
    println!("{}", report::table(&headers, &tau_rows));

    println!("Blueprint dimensionality (ties to Fig. 8):\n");
    let mut dim_rows = Vec::new();
    for dim in [2usize, 4, 6, 10] {
        let options = TrainingOptions {
            blueprint_dim: dim,
            ..TrainingOptions::default()
        };
        let arts = cached_artifacts(gpu, ARTIFACT_SEED, Some((&format!("dim{dim}"), options)));
        dim_rows.push(summarize(
            &format!("blueprint dim = {dim}"),
            &run(base, &ResolvedArtifacts::healthy(arts), gpu_name, 5),
            &oracles,
        ));
    }
    println!("{}", report::table(&headers, &dim_rows));
}

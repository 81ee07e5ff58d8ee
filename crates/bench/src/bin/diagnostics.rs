//! Supplementary diagnostics (not a paper artifact): surrogate learning
//! curves and the hardware-aware sampler's confusion matrix. These numbers
//! explain *why* the headline figures come out the way they do.

use glimpse_bench::e2e::ARTIFACT_SEED;
use glimpse_bench::experiment::cached_artifacts;
use glimpse_bench::report;
use glimpse_core::sampler::{EnsembleSampler, DEFAULT_MEMBERS, DEFAULT_TAU};
use glimpse_gpu_spec::database;
use glimpse_sim::{validity, Measurer};
use glimpse_space::templates;
use glimpse_tensor_prog::models;
use glimpse_tuners::diagnostics::learning_curve;
use glimpse_tuners::history::{Trial, TuningHistory};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let gpu = database::find("RTX 2080 Ti").unwrap();
    let model = models::resnet18();
    let task = &model.tasks()[1];
    let space = templates::space_for_task(task);

    // Surrogate learning curve on uniform random measurements.
    println!("Surrogate (GBT) rank quality vs training measurements — {task}\n");
    let mut measurer = Measurer::new(gpu.clone(), 11);
    let mut history = TuningHistory::new(&gpu.name, &task.id.model, task.id.index, task.template);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..600 {
        let c = space.sample_uniform(&mut rng);
        history.push(Trial::from_measure(&measurer.measure(&space, &c)));
    }
    let rows: Vec<Vec<String>> = learning_curve(&space, &history, &[25, 50, 100, 200, 400], 1)
        .into_iter()
        .map(|(n, q)| {
            vec![
                format!("{n}"),
                format!("{:.3}", q.kendall_tau),
                format!("{:.3}", q.spearman_rho),
                format!("{:.2}", q.top8_recall),
                format!("{}", q.holdout),
            ]
        })
        .collect();
    println!(
        "{}",
        report::table(&["train n", "Kendall tau", "Spearman rho", "top-8 recall", "holdout"], &rows)
    );

    // Sampler confusion matrix on each evaluation GPU.
    println!("Hardware-aware sampler confusion (2000 uniform configs per GPU):\n");
    let mut rows = Vec::new();
    for gpu in database::evaluation_gpus() {
        let artifacts = cached_artifacts(gpu, ARTIFACT_SEED, None);
        let blueprint = artifacts.encode(gpu);
        let sampler = EnsembleSampler::from_blueprint(&artifacts.codec, &blueprint, DEFAULT_MEMBERS, DEFAULT_TAU);
        let mut rng = StdRng::seed_from_u64(13);
        let (mut tp, mut fp, mut tn, mut fne) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..2000 {
            let c = space.sample_uniform(&mut rng);
            let shape = space.kernel_shape(&c);
            let truly_invalid = validity::check(gpu, &shape).is_err();
            let rejected = !sampler.accept_shape(&shape);
            match (truly_invalid, rejected) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (false, false) => tn += 1,
                (true, false) => fne += 1,
            }
        }
        rows.push(vec![
            gpu.name.clone(),
            format!("{tp}"),
            format!("{fne}"),
            format!("{fp}"),
            format!("{tn}"),
            report::percent(f64::from(tp) / f64::from(tp + fne).max(1.0)),
            report::percent(f64::from(fp) / f64::from(fp + tn).max(1.0)),
        ]);
    }
    println!(
        "{}",
        report::table(
            &[
                "GPU",
                "caught invalid",
                "leaked invalid",
                "rejected valid",
                "passed valid",
                "recall",
                "false-reject"
            ],
            &rows
        )
    );
}

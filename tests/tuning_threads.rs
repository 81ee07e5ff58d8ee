//! A tuning run must not depend on the worker count: AutoTVM, and Glimpse
//! on a fast-preset bundle, measure the same trials in the same order, take
//! the same explorer steps and reach the same best throughput with every
//! fan-out inline on the caller thread and with the auto-resolved worker
//! count (on a one-core host both runs are inline).
//!
//! It is a binary of its own because it sets the process-wide worker-count
//! override, which would leak into tests running beside it.

use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_core::health::ResolvedArtifacts;
use glimpse_core::tuner::{GlimpseConfig, GlimpseTuner};
use glimpse_gpu_spec::database;
use glimpse_mlkit::parallel::set_default_threads;
use glimpse_sim::Measurer;
use glimpse_space::templates;
use glimpse_tensor_prog::models;
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::{Budget, TuneContext, Tuner};

#[test]
fn tuning_is_identical_inline_and_fanned_out() {
    let target = database::find("Titan Xp").unwrap();
    let sources: Vec<_> = ["GTX 1080", "RTX 2060", "RTX 3070"]
        .iter()
        .map(|name| database::find(name).unwrap())
        .collect();
    let resolved = ResolvedArtifacts::healthy(GlimpseArtifacts::train_with(&sources, TrainingOptions::fast(), 9).unwrap());
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let run = |tuner: &mut dyn Tuner, budget: usize| {
        let mut measurer = Measurer::new(target.clone(), 31);
        tuner.tune(TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), 31))
    };
    let both = || {
        let autotvm = run(&mut AutoTvmTuner::new(), 96);
        let glimpse = run(&mut GlimpseTuner::from_resolved(&resolved, target, GlimpseConfig::default()), 64);
        [autotvm, glimpse]
    };
    set_default_threads(1);
    let inline = both();
    set_default_threads(0);
    let fanned_out = both();
    for (a, b) in inline.iter().zip(&fanned_out) {
        let name = &a.tuner;
        assert!(a.history == b.history, "{name}: the measured trials depend on the worker count");
        assert_eq!(
            a.explorer_steps, b.explorer_steps,
            "{name}: explorer steps depend on the worker count"
        );
        assert_eq!(
            a.best_gflops.to_bits(),
            b.best_gflops.to_bits(),
            "{name}: best GFLOPS depends on the worker count"
        );
    }
    assert!(inline.iter().all(|o| o.measurements > 0), "a run measured nothing");
}

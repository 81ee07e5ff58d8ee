//! Chaos suite: full tuning runs under ≥20 % injected measurement faults.
//!
//! Gated behind `#[ignore]` so tier-1 stays fast; run it with
//!
//! ```text
//! cargo test --test chaos -- --ignored
//! ```
//!
//! Every property drives a complete tuning run through the fault-injecting
//! measurement channel and asserts the degradation contract:
//! no panic, termination within budget, a valid best config whenever any
//! measurement succeeded, monotone GPU-second accounting, and bit-identical
//! replay from the same `(seed, fault plan)` pair.

use glimpse_repro::core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_repro::core::tuner::GlimpseTuner;
use glimpse_repro::gpu_spec::database;
use glimpse_repro::sim::{FaultPlan, FaultRates, Measurer};
use glimpse_repro::space::templates;
use glimpse_repro::tensor_prog::models;
use glimpse_repro::tuners::autotvm::AutoTvmTuner;
use glimpse_repro::tuners::chameleon::ChameleonTuner;
use glimpse_repro::tuners::dgp::DgpTuner;
use glimpse_repro::tuners::grid::GridTuner;
use glimpse_repro::tuners::random::RandomTuner;
use glimpse_repro::tuners::{Budget, TuneContext, Tuner, TuningOutcome};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Measurement cap per chaos run.
const BUDGET: usize = 40;
/// Target GPU for the chaos runs (one of the paper's evaluation boards).
const CHAOS_GPU: &str = "RTX 2080 Ti";

const TUNERS: [&str; 6] = ["glimpse", "autotvm", "chameleon", "dgp", "random", "grid"];

fn artifacts() -> &'static GlimpseArtifacts {
    static CELL: OnceLock<GlimpseArtifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let gpus = vec![
            database::find("GTX 1080").unwrap(),
            database::find("RTX 2060").unwrap(),
            database::find("RTX 3070").unwrap(),
        ];
        GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 17).unwrap()
    })
}

/// A fault plan whose per-measurement fault probability is at least 20 %.
fn chaos_plan(seed: u64, timeout: f64, launch: f64, lost: f64, noise: f64, dead: f64) -> FaultPlan {
    assert!(
        timeout + launch + lost >= 0.2,
        "chaos demands >= 20% injected faults, got {}",
        timeout + launch + lost
    );
    let rates = FaultRates {
        timeout,
        launch_failure: launch,
        noise_spike: noise,
        device_lost: lost,
        device_dead: dead,
    };
    rates.validate().expect("rates are probabilities");
    FaultPlan::uniform(seed, rates)
}

fn run_tuner(tuner: &str, plan: &FaultPlan, seed: u64) -> TuningOutcome {
    let gpu = database::find(CHAOS_GPU).unwrap();
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let mut measurer = Measurer::with_faults(gpu.clone(), seed, plan);
    let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(BUDGET), seed);
    match tuner {
        "glimpse" => GlimpseTuner::new(artifacts(), gpu).tune(ctx),
        "autotvm" => AutoTvmTuner::new().tune(ctx),
        "chameleon" => ChameleonTuner::new().tune(ctx),
        "dgp" => DgpTuner::new().tune(ctx),
        "random" => RandomTuner::new().tune(ctx),
        "grid" => GridTuner::new().tune(ctx),
        other => panic!("unknown chaos tuner {other}"),
    }
}

/// The degradation contract every tuning run must satisfy under faults.
fn check_contract(tuner: &str, outcome: &TuningOutcome) {
    // Termination within budget.
    assert!(
        outcome.measurements <= BUDGET,
        "{tuner}: {} measurements exceed the cap",
        outcome.measurements
    );
    assert_eq!(outcome.measurements, outcome.history.len(), "{tuner}: journal and count disagree");

    // Monotone, consistent GPU-second accounting: every trial costs time
    // (retry backoff included), and the journal never exceeds what the
    // clock recorded.
    assert!(
        outcome.gpu_seconds.is_finite() && outcome.gpu_seconds >= 0.0,
        "{tuner}: bad clock {}",
        outcome.gpu_seconds
    );
    let mut journal = 0.0;
    for trial in &outcome.history.trials {
        assert!(trial.cost_s > 0.0, "{tuner}: free trial journaled");
        journal += trial.cost_s;
    }
    assert!(
        journal <= outcome.gpu_seconds + 1e-6,
        "{tuner}: journal {journal} exceeds clock {}",
        outcome.gpu_seconds
    );

    // Faulted trials are journaled distinctly and never masquerade as data.
    assert_eq!(
        outcome.faulted_measurements,
        outcome.history.fault_count(),
        "{tuner}: fault count mismatch"
    );
    for trial in &outcome.history.trials {
        if trial.fault.is_some() {
            assert!(trial.gflops.is_none(), "{tuner}: faulted trial carries a throughput");
        }
    }

    // Whenever anything succeeded, the reported best is a real, valid
    // configuration on a clean channel; otherwise the run reports honestly.
    if outcome.best_gflops > 0.0 {
        let best = outcome
            .best_config
            .as_ref()
            .unwrap_or_else(|| panic!("{tuner}: best gflops without a config"));
        let gpu = database::find(CHAOS_GPU).unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let clean = Measurer::new(gpu.clone(), 0);
        assert!(
            clean.model().latency_s(&space, best).is_some(),
            "{tuner}: best config is invalid on a clean channel"
        );
    } else {
        assert!(
            outcome.best_config.is_none(),
            "{tuner}: config reported without any valid measurement"
        );
    }
}

/// Deterministic smoke pass over every tuner at exactly the acceptance
/// threshold (20 % kernel faults plus device-level trouble).
#[test]
#[ignore = "chaos tier: run with --ignored"]
fn every_tuner_survives_twenty_percent_faults() {
    let plan = chaos_plan(23, 0.10, 0.06, 0.04, 0.10, 0.005);
    for tuner in TUNERS {
        let outcome = run_tuner(tuner, &plan, 31);
        check_contract(tuner, &outcome);
        let replay = run_tuner(tuner, &plan, 31);
        assert_eq!(outcome.history, replay.history, "{tuner}: replay diverged");
    }
}

/// A device that dies mid-run must still leave a clean, terminated outcome.
#[test]
#[ignore = "chaos tier: run with --ignored"]
fn every_tuner_terminates_when_the_device_dies() {
    // High hazard: the device is all but guaranteed to die within a few
    // measurements.
    let plan = chaos_plan(7, 0.15, 0.05, 0.0, 0.0, 0.25);
    for tuner in TUNERS {
        let outcome = run_tuner(tuner, &plan, 13);
        check_contract(tuner, &outcome);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_glimpse(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                     lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("glimpse", &plan, seed);
        check_contract("glimpse", &outcome);
        let replay = run_tuner("glimpse", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_autotvm(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                     lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("autotvm", &plan, seed);
        check_contract("autotvm", &outcome);
        let replay = run_tuner("autotvm", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_chameleon(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                       lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("chameleon", &plan, seed);
        check_contract("chameleon", &outcome);
        let replay = run_tuner("chameleon", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_dgp(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                 lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("dgp", &plan, seed);
        check_contract("dgp", &outcome);
        let replay = run_tuner("dgp", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_random(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                    lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("random", &plan, seed);
        check_contract("random", &outcome);
        let replay = run_tuner("random", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_grid(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20,
                  lost in 0.0f64..0.08, noise in 0.0f64..0.20, dead in 0.0f64..0.03) {
        let plan = chaos_plan(seed ^ 0xD1CE, timeout, launch, lost, noise, dead);
        let outcome = run_tuner("grid", &plan, seed);
        check_contract("grid", &outcome);
        let replay = run_tuner("grid", &plan, seed);
        prop_assert_eq!(&outcome.history, &replay.history);
    }

    /// The device pool under chaos: one permanently dead device, the rest
    /// flaky — the fleet completes on survivors and the summary names the
    /// casualty.
    #[test]
    #[ignore = "chaos tier: run with --ignored"]
    fn chaos_pool_survives_a_dead_device(seed in 0u64..512, timeout in 0.10f64..0.25, launch in 0.10f64..0.20) {
        use glimpse_repro::sim::{DevicePool, DeviceStatus};
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        let plan = chaos_plan(seed, timeout, launch, 0.0, 0.0, 0.0).with_dead_device("RTX 2070 Super");
        let pool = DevicePool::with_faults(&gpus, seed, &plan);
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        for _ in 0..6 {
            let results = pool.run_all(|index, measurer| {
                let ctx = TuneContext::new(task, &space, measurer, Budget::measurements(6), seed ^ index as u64);
                RandomTuner::new().tune(ctx).measurements
            });
            prop_assert_eq!(results.len(), gpus.len());
        }
        let summary = pool.summary();
        // The dead board is reported, the rest of the fleet kept serving.
        prop_assert!(summary.dead().contains(&"RTX 2070 Super"), "dead device missing from summary: {}", summary);
        let survivors = summary.devices.iter().filter(|d| d.status == DeviceStatus::Healthy && d.valid + d.invalid > 0).count();
        prop_assert!(survivors >= 2, "fleet did not keep serving: {}", summary);
    }
}

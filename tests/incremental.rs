//! Acceptance tests for the incremental surrogate lifecycle and the
//! cross-round featurization cache.
//!
//! Three contracts are pinned here, end to end:
//!
//! 1. **Equivalence** — a default-cadence model must be *bitwise* equal to
//!    the scratch-every-round baseline at every scratch-refit boundary,
//!    and rank-equivalent (high Spearman ρ on a fixed probe set) on the
//!    warm-started rounds in between.
//! 2. **Cache transparency** — [`FeatureCache`] rows must always equal a
//!    fresh `space.features()` call, whatever mix of scalar and batch
//!    lookups produced them (property-based).
//! 3. **Resume byte-identity** — with caching and warm-started boosting on
//!    the default tuner path, a killed-and-resumed checkpointed run must
//!    still produce a `journal.wal` byte-identical to an uninterrupted
//!    run's, and the identical surrogate lifecycle, at 1 and 8 workers:
//!    every piece of surrogate state is a pure function of
//!    `(seed, history)`.

use glimpse_repro::gpu_spec::database;
use glimpse_repro::mlkit::parallel::set_default_threads;
use glimpse_repro::mlkit::rank::spearman_rho;
use glimpse_repro::sim::{Measurer, StorageFaults};
use glimpse_repro::space::templates;
use glimpse_repro::space::{Config, SearchSpace};
use glimpse_repro::tensor_prog::models;
use glimpse_repro::tuners::autotvm::AutoTvmTuner;
use glimpse_repro::tuners::cost_model::{FitKind, GbtCostModel};
use glimpse_repro::tuners::history::{Trial, TuningHistory};
use glimpse_repro::tuners::journal::JOURNAL_FILE;
use glimpse_repro::tuners::{run_supervised, Budget, CheckpointSpec, FeatureCache, JournalError, RunControl, TuningOutcome};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

fn space() -> &'static SearchSpace {
    static CELL: OnceLock<SearchSpace> = OnceLock::new();
    CELL.get_or_init(|| {
        let model = models::alexnet();
        templates::space_for_task(&model.tasks()[2])
    })
}

/// A measured trial stream on the shared space (deterministic).
fn trial_stream(n: usize, seed: u64) -> Vec<Trial> {
    let space = space();
    let mut measurer = Measurer::new(database::find("RTX 2070 Super").unwrap().clone(), seed);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let c = space.sample_uniform(&mut rng);
            Trial::from_measure(&measurer.measure(space, &c))
        })
        .collect()
}

// --- 1. Equivalence: incremental vs scratch-every-round -----------------

#[test]
fn incremental_is_exact_at_refit_boundaries_and_rank_faithful_between() {
    let space = space();
    let trials = trial_stream(240, 5);
    let probe: Vec<Config> = {
        let mut rng = StdRng::seed_from_u64(99);
        (0..48).map(|_| space.sample_uniform(&mut rng)).collect()
    };
    let mut history = TuningHistory::new("RTX 2070 Super", "alexnet", 2, space.template());
    let mut scratch = GbtCostModel::new(13).with_refit_every(1);
    let mut incremental = GbtCostModel::new(13);
    let mut boundaries = 0usize;
    let mut warm_rounds = 0usize;
    let mut bounded_rounds = 0usize;
    let mut rho_sum = 0.0;
    for chunk in trials.chunks(8) {
        for t in chunk {
            history.push(t.clone());
        }
        scratch.fit(space, &history);
        incremental.fit(space, &history);
        let a = scratch.predict_batch(space, &probe);
        let b = incremental.predict_batch(space, &probe);
        match incremental.last_fit() {
            FitKind::Scratch => {
                boundaries += 1;
                assert!(
                    a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "round {}: scratch refit must be bitwise identical to the baseline",
                    history.len() / 8
                );
            }
            FitKind::Incremental => {
                warm_rounds += 1;
                // Rank equivalence is only meaningful once the surrogate
                // has real training signal; in the first few tiny-data
                // rounds both forests are mostly extrapolating noise.
                if history.len() >= 128 {
                    bounded_rounds += 1;
                    let rho = spearman_rho(&a, &b);
                    rho_sum += rho;
                    assert!(rho > 0.7, "round {}: warm-started forest drifted (ρ = {rho})", history.len() / 8);
                }
            }
            kind => panic!("unexpected fit kind {kind:?} with fresh trials every round"),
        }
    }
    assert!(boundaries >= 3, "only {boundaries} scratch boundaries crossed");
    assert!(warm_rounds >= 20, "only {warm_rounds} warm rounds exercised");
    assert!(bounded_rounds >= 10, "only {bounded_rounds} warm rounds in the trained regime");
    let mean_rho = rho_sum / bounded_rounds as f64;
    assert!(mean_rho > 0.8, "mean warm-round rank correlation too low (ρ̄ = {mean_rho})");
}

// --- 2. Cache transparency (property-based) -----------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of scalar and batch lookups (with duplicates)
    /// returns rows equal to fresh featurization, and revisits never
    /// featurize again.
    #[test]
    fn cache_rows_always_match_fresh_featurization(seed in 0u64..10_000, batch in 1usize..48) {
        let space = space();
        let cache = FeatureCache::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut configs: Vec<Config> = (0..batch).map(|_| space.sample_uniform(&mut rng)).collect();
        // Duplicates within one batch must resolve to one entry.
        configs.extend(configs.clone());
        let rows = cache.rows_batch(space, configs.iter());
        for (c, row) in configs.iter().zip(&rows) {
            prop_assert_eq!(row.as_ref(), space.features(c).as_slice());
        }
        let stats = cache.stats();
        prop_assert!(stats.entries <= batch, "{} entries from {} distinct configs", stats.entries, batch);
        // Scalar revisits are hits and still agree with fresh rows.
        let before = cache.stats();
        for c in configs.iter().take(4) {
            prop_assert_eq!(cache.row(space, c).as_ref(), space.features(c).as_slice());
        }
        let after = cache.stats();
        prop_assert_eq!(after.misses, before.misses, "revisit must not featurize");
    }
}

// --- 3. Resume byte-identity with caching on ----------------------------

// Large enough for the second surrogate fit to take the warm-start path
// (16 random-init trials, then one fit per 16-trial round).
const BUDGET: usize = 40;
const SEED: u64 = 23;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glimpse-incremental-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the checkpointed AutoTVM campaign in `dir`, optionally crashing at
/// journal sequence `kill` first and resuming after.
fn checkpointed_run(dir: &Path, kill: Option<u64>) -> TuningOutcome {
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    if let Some(seq) = kill {
        let storage = StorageFaults {
            crash_at_seq: Some(seq),
            ..StorageFaults::none()
        };
        let mut m = Measurer::new(database::find("Titan Xp").unwrap().clone(), 7);
        let err = run_supervised(
            &mut AutoTvmTuner::new(),
            &CheckpointSpec::new(dir).resuming(true).with_storage(storage),
            task,
            &space,
            &mut m,
            Budget::measurements(BUDGET),
            SEED,
            &RunControl::none(),
        )
        .expect_err("injected crash must surface");
        assert!(matches!(err, JournalError::SimulatedCrash { .. }), "{err}");
    }
    let mut m = Measurer::new(database::find("Titan Xp").unwrap().clone(), 7);
    run_supervised(
        &mut AutoTvmTuner::new(),
        &CheckpointSpec::new(dir).resuming(true),
        task,
        &space,
        &mut m,
        Budget::measurements(BUDGET),
        SEED,
        &RunControl::none(),
    )
    .expect("resumed run completes")
    .outcome
}

fn resume_is_byte_identical_at(threads: usize, tag: &str) {
    set_default_threads(threads);
    let baseline_dir = temp_dir(&format!("{tag}-baseline"));
    let baseline = checkpointed_run(&baseline_dir, None);
    let life = baseline.surrogate.expect("tuner reports its surrogate lifecycle");
    assert!(life.incremental_fits > 0, "campaign never took the warm-start path");
    assert!(life.cache.lookups() > 0, "campaign never touched the featurization cache");
    for kill in [2u64, 9, 14] {
        let dir = temp_dir(&format!("{tag}-kill{kill}"));
        let resumed = checkpointed_run(&dir, Some(kill));
        assert_eq!(
            resumed.best_gflops.to_bits(),
            baseline.best_gflops.to_bits(),
            "kill {kill}: resumed outcome diverged"
        );
        // The whole surrogate lifecycle — fit cadence, forest size, cache
        // counters — must replay identically: it is a pure function of
        // (seed, history), never journaled state.
        assert_eq!(resumed.surrogate, baseline.surrogate, "kill {kill}: lifecycle diverged");
        let wal = std::fs::read(dir.join(JOURNAL_FILE)).expect("resumed journal readable");
        let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).expect("baseline journal readable");
        assert_eq!(wal, baseline_wal, "kill {kill}: journal is not byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
    set_default_threads(0);
}

#[test]
fn cached_incremental_runs_resume_byte_identically_single_thread() {
    resume_is_byte_identical_at(1, "t1");
}

#[test]
fn cached_incremental_runs_resume_byte_identically_multi_thread() {
    resume_is_byte_identical_at(8, "t8");
}

//! Kill-anywhere resume: the crash-recovery acceptance tests.
//!
//! A checkpointed run killed at a trial boundary (simulated crash or torn
//! write injected by [`StorageFaults`]) and resumed must finish with a
//! `journal.wal` byte-identical to an uninterrupted run's, and the same
//! tuning outcome — at any kill point and any worker count (PR 2's
//! determinism contract is what makes the byte-level claim testable).
//!
//! Cooperative cancellation gets the same treatment: a run whose token
//! trips at a trial boundary must leave a journal that is a byte-identical
//! *prefix* of the uninterrupted run's, and `--resume` must converge to
//! the identical outcome.
//!
//! Tier-1 covers a handful of kill/cancel points; the exhaustive
//! every-boundary sweeps are chaos-tier:
//!
//! ```text
//! cargo test --test resume -- --ignored
//! ```

use glimpse_repro::mlkit::parallel::set_default_threads;
use glimpse_repro::sim::{FaultPlan, FaultRates, Measurer, StorageFaults};
use glimpse_repro::space::templates;
use glimpse_repro::supervise::{CellStatus, Degradation};
use glimpse_repro::tensor_prog::models;
use glimpse_repro::tuners::autotvm::AutoTvmTuner;
use glimpse_repro::tuners::journal::JOURNAL_FILE;
use glimpse_repro::tuners::{run_supervised, Budget, CheckpointSpec, JournalError, RunControl, TuningOutcome};
use std::path::{Path, PathBuf};

const BUDGET: usize = 18;
const SEED: u64 = 11;

fn plan() -> FaultPlan {
    FaultPlan::uniform(
        5,
        FaultRates {
            timeout: 0.05,
            noise_spike: 0.1,
            ..FaultRates::none()
        },
    )
}

fn measurer() -> Measurer {
    Measurer::with_faults(glimpse_repro::gpu_spec::database::find("Titan Xp").unwrap().clone(), 7, &plan())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glimpse-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(dir: &Path) -> CheckpointSpec<'_> {
    CheckpointSpec::new(dir).resuming(true)
}

/// Runs to completion in `dir`, crashing (and resuming) at each sequence
/// number in `kills` along the way.
fn run_with_kills(dir: &Path, kills: &[u64]) -> TuningOutcome {
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    for &kill in kills {
        let storage = StorageFaults {
            crash_at_seq: Some(kill),
            ..StorageFaults::none()
        };
        let mut m = measurer();
        let err = run_supervised(
            &mut AutoTvmTuner::new(),
            &spec(dir).with_storage(storage),
            task,
            &space,
            &mut m,
            Budget::measurements(BUDGET),
            SEED,
            &RunControl::none(),
        )
        .expect_err("injected crash must surface");
        assert!(
            matches!(err, JournalError::SimulatedCrash { .. }),
            "unexpected failure at seq {kill}: {err}"
        );
    }
    let mut m = measurer();
    run_supervised(
        &mut AutoTvmTuner::new(),
        &spec(dir),
        task,
        &space,
        &mut m,
        Budget::measurements(BUDGET),
        SEED,
        &RunControl::none(),
    )
    .expect("final resumed run completes")
    .outcome
}

fn assert_matches_baseline(dir: &Path, baseline_dir: &Path, outcome: &TuningOutcome, baseline: &TuningOutcome) {
    assert_eq!(
        outcome.best_gflops.to_bits(),
        baseline.best_gflops.to_bits(),
        "resumed outcome diverged from the uninterrupted run"
    );
    assert_eq!(outcome.measurements, baseline.measurements);
    let wal = std::fs::read(dir.join(JOURNAL_FILE)).expect("resumed journal readable");
    let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).expect("baseline journal readable");
    assert_eq!(wal, baseline_wal, "resumed journal is not byte-identical to the baseline");
}

fn kill_resume_sweep(threads: usize, kills_per_run: &[&[u64]], tag: &str) {
    set_default_threads(threads);
    let baseline_dir = temp_dir(&format!("{tag}-baseline"));
    let baseline = run_with_kills(&baseline_dir, &[]);
    for (i, kills) in kills_per_run.iter().enumerate() {
        let dir = temp_dir(&format!("{tag}-kill{i}"));
        let outcome = run_with_kills(&dir, kills);
        assert_matches_baseline(&dir, &baseline_dir, &outcome, &baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
    set_default_threads(0);
}

#[test]
fn killed_runs_resume_byte_identically_single_thread() {
    // Kill early (header just durable), mid-run, at a WAL fsync boundary
    // (16), and one run killed repeatedly.
    kill_resume_sweep(1, &[&[1], &[9], &[16], &[3, 9, 15]], "t1");
}

#[test]
fn killed_runs_resume_byte_identically_multi_thread() {
    kill_resume_sweep(8, &[&[1], &[9], &[16], &[3, 9, 15]], "t8");
}

#[test]
fn torn_write_resumes_byte_identically() {
    set_default_threads(1);
    let baseline_dir = temp_dir("torn-baseline");
    let baseline = run_with_kills(&baseline_dir, &[]);

    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let dir = temp_dir("torn");
    let storage = StorageFaults {
        torn_at_seq: Some(7),
        ..StorageFaults::none()
    };
    let mut m = measurer();
    let err = run_supervised(
        &mut AutoTvmTuner::new(),
        &spec(&dir).with_storage(storage),
        task,
        &space,
        &mut m,
        Budget::measurements(BUDGET),
        SEED,
        &RunControl::none(),
    )
    .expect_err("torn write must surface");
    assert!(matches!(err, JournalError::TornWrite { .. }), "{err}");

    let outcome = run_with_kills(&dir, &[]);
    assert_matches_baseline(&dir, &baseline_dir, &outcome, &baseline);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&baseline_dir);
    set_default_threads(0);
}

/// Cancels a supervised run at trial boundary `boundary`, asserts the cell
/// degrades to `Interrupted` with a journal that is a proper byte prefix of
/// the baseline's, then resumes uncancelled and must match the baseline.
fn cancel_resume_at(dir: &Path, boundary: u64, baseline_dir: &Path, baseline: &TuningOutcome) {
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let control = RunControl::none().cancel_at_trial(boundary);
    let mut m = measurer();
    let supervised = run_supervised(
        &mut AutoTvmTuner::new(),
        &spec(dir),
        task,
        &space,
        &mut m,
        Budget::measurements(BUDGET),
        SEED,
        &control,
    )
    .expect("cancelled run settles without error");
    assert_eq!(
        supervised.status,
        CellStatus::Degraded(Degradation::Interrupted),
        "boundary {boundary}: unexpected terminal status"
    );
    assert!(
        !dir.join("complete.json").exists(),
        "boundary {boundary}: cancelled run must not mark the cell complete"
    );
    let wal = std::fs::read(dir.join(JOURNAL_FILE)).expect("cancelled journal readable");
    let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).expect("baseline journal readable");
    assert!(
        wal.len() < baseline_wal.len() && baseline_wal.starts_with(&wal),
        "boundary {boundary}: cancelled journal is not a proper byte prefix of the baseline"
    );
    let outcome = run_with_kills(dir, &[]);
    assert_matches_baseline(dir, baseline_dir, &outcome, baseline);
}

fn cancel_resume_sweep(threads: usize, boundaries: &[u64], tag: &str) {
    set_default_threads(threads);
    let baseline_dir = temp_dir(&format!("{tag}-baseline"));
    let baseline = run_with_kills(&baseline_dir, &[]);
    for &boundary in boundaries {
        let dir = temp_dir(&format!("{tag}-cancel{boundary}"));
        cancel_resume_at(&dir, boundary, &baseline_dir, &baseline);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
    set_default_threads(0);
}

#[test]
fn cancelled_runs_resume_byte_identically_single_thread() {
    // Cancel before the first trial, mid-run, and at a WAL fsync boundary.
    cancel_resume_sweep(1, &[1, 7, 16], "c1");
}

#[test]
fn cancelled_runs_resume_byte_identically_multi_thread() {
    cancel_resume_sweep(8, &[1, 7, 16], "c8");
}

#[test]
#[ignore = "chaos tier: run with --ignored"]
fn every_trial_boundary_cancel_resumes_byte_identically() {
    let boundaries: Vec<u64> = (1..=BUDGET as u64).collect();
    for threads in [1usize, 8] {
        cancel_resume_sweep(threads, &boundaries, &format!("csweep{threads}"));
    }
}

/// Kill/resume under every component fallback: a Glimpse run whose
/// learned components fell back (singly or wholesale) must keep the
/// byte-identical-journal contract — fallbacks are deterministic functions
/// of (seed, history), and the fallback names the header takes from the
/// tuner pin the resume to the same health.
mod degraded {
    use super::*;
    use glimpse_repro::core::artifacts::{GlimpseArtifacts, TrainingOptions};
    use glimpse_repro::core::health::ResolvedArtifacts;
    use glimpse_repro::core::tuner::{GlimpseConfig, GlimpseTuner};
    use glimpse_repro::gpu_spec::database;
    use glimpse_repro::supervise::{Component, HealthCause};
    use std::sync::OnceLock;

    /// One small meta-trained bundle, shared across the sweep (training is
    /// the expensive part; the sweeps only need a usable bundle to injure).
    fn artifacts() -> &'static GlimpseArtifacts {
        static BUNDLE: OnceLock<GlimpseArtifacts> = OnceLock::new();
        BUNDLE.get_or_init(|| {
            let gpus = vec![
                database::find("GTX 1080").unwrap(),
                database::find("RTX 2060").unwrap(),
                database::find("RTX 3070").unwrap(),
            ];
            GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 9).unwrap()
        })
    }

    /// The fallback set under test: every component degraded (lost
    /// bundle), or one injected component fallback on an otherwise healthy
    /// bundle.
    fn resolved_for(component: Option<Component>) -> ResolvedArtifacts {
        match component {
            None => ResolvedArtifacts::fallback(HealthCause::ArtifactMissing),
            Some(component) => ResolvedArtifacts::healthy(artifacts().clone()).with_injected(component),
        }
    }

    /// Like [`run_with_kills`], but driving the Glimpse tuner under a fixed
    /// degraded resolution, whose fallbacks the header pins.
    fn run_degraded_with_kills(dir: &Path, resolved: &ResolvedArtifacts, kills: &[u64]) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let gpu = database::find("Titan Xp").unwrap();
        for &kill in kills {
            let storage = StorageFaults {
                crash_at_seq: Some(kill),
                ..StorageFaults::none()
            };
            let mut m = measurer();
            let mut tuner = GlimpseTuner::from_resolved(resolved, gpu, GlimpseConfig::default());
            let err = run_supervised(
                &mut tuner,
                &spec(dir).with_storage(storage),
                task,
                &space,
                &mut m,
                Budget::measurements(BUDGET),
                SEED,
                &RunControl::none(),
            )
            .expect_err("injected crash must surface");
            assert!(
                matches!(err, JournalError::SimulatedCrash { .. }),
                "unexpected failure at seq {kill}: {err}"
            );
        }
        let mut m = measurer();
        let mut tuner = GlimpseTuner::from_resolved(resolved, gpu, GlimpseConfig::default());
        run_supervised(
            &mut tuner,
            &spec(dir),
            task,
            &space,
            &mut m,
            Budget::measurements(BUDGET),
            SEED,
            &RunControl::none(),
        )
        .expect("final resumed degraded run completes")
        .outcome
    }

    fn degraded_kill_resume_sweep(threads: usize, component: Option<Component>, tag: &str) {
        set_default_threads(threads);
        let resolved = resolved_for(component);
        let baseline_dir = temp_dir(&format!("{tag}-baseline"));
        let baseline = run_degraded_with_kills(&baseline_dir, &resolved, &[]);
        assert!(
            baseline.health.as_ref().is_some_and(|h| h.any_degraded()),
            "{tag}: the outcome must carry the degraded health report"
        );
        for (i, kills) in [&[1u64][..], &[9], &[3, 9]].iter().enumerate() {
            let dir = temp_dir(&format!("{tag}-kill{i}"));
            let outcome = run_degraded_with_kills(&dir, &resolved, kills);
            assert_matches_baseline(&dir, &baseline_dir, &outcome, &baseline);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&baseline_dir);
        set_default_threads(0);
    }

    /// Each fallback set: all-fallback plus every single-component
    /// injection.
    fn all_fallback_sets() -> Vec<(Option<Component>, &'static str)> {
        vec![
            (None, "all"),
            (Some(Component::BlueprintCodec), "codec"),
            (Some(Component::Prior), "prior"),
            (Some(Component::Acquisition), "acq"),
            (Some(Component::Sampler), "sampler"),
            (Some(Component::CostModel), "cost"),
        ]
    }

    #[test]
    fn degraded_rungs_kill_resume_byte_identically_single_thread() {
        for (component, tag) in all_fallback_sets() {
            degraded_kill_resume_sweep(1, component, &format!("deg1-{tag}"));
        }
    }

    #[test]
    fn degraded_rungs_kill_resume_byte_identically_multi_thread() {
        for (component, tag) in all_fallback_sets() {
            degraded_kill_resume_sweep(8, component, &format!("deg8-{tag}"));
        }
    }

    /// Resuming a journal recorded under one fallback set with a tuner on
    /// a different one is a typed refusal, not a silent divergence.
    #[test]
    fn resume_under_a_different_rung_set_is_refused() {
        set_default_threads(1);
        let dir = temp_dir("deg-mismatch");
        let degraded = resolved_for(None);
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let gpu = database::find("Titan Xp").unwrap();
        // Crash a degraded run mid-journal, leaving a resumable cell whose
        // header pins every component on its fallback.
        {
            let storage = StorageFaults {
                crash_at_seq: Some(3),
                ..StorageFaults::none()
            };
            let mut m = measurer();
            let mut tuner = GlimpseTuner::from_resolved(&degraded, gpu, GlimpseConfig::default());
            let err = run_supervised(
                &mut tuner,
                &spec(&dir).with_storage(storage),
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
        // Re-opening the interrupted journal with an all-healthy tuner must
        // be refused.
        let healthy = ResolvedArtifacts::healthy(artifacts().clone());
        let mut m = measurer();
        let mut tuner = GlimpseTuner::from_resolved(&healthy, gpu, GlimpseConfig::default());
        let err = run_supervised(
            &mut tuner,
            &spec(&dir),
            task,
            &space,
            &mut m,
            Budget::measurements(BUDGET),
            SEED,
            &RunControl::none(),
        )
        .expect_err("a fallback mismatch must refuse the resume");
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
        set_default_threads(0);
    }
}

#[test]
#[ignore = "chaos tier: run with --ignored"]
fn every_trial_boundary_kill_resumes_byte_identically() {
    for threads in [1usize, 8] {
        set_default_threads(threads);
        let baseline_dir = temp_dir(&format!("sweep-baseline-{threads}"));
        let baseline = run_with_kills(&baseline_dir, &[]);
        // Seq 0 is the header; every journaled trial (valid, invalid, or
        // faulted) occupies one frame after it. Sweep every boundary the
        // baseline actually wrote.
        let recovered = glimpse_repro::durable::recover(&baseline_dir.join(JOURNAL_FILE)).expect("baseline journal scans");
        let last_seq = recovered.next_seq().saturating_sub(1);
        assert!(
            last_seq >= 2,
            "baseline journal suspiciously short ({last_seq} frames after the header)"
        );
        for kill in 1..=last_seq {
            let dir = temp_dir(&format!("sweep-{threads}-{kill}"));
            let outcome = run_with_kills(&dir, &[kill]);
            assert_matches_baseline(&dir, &baseline_dir, &outcome, &baseline);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }
    set_default_threads(0);
}

//! Auto-tuning framework and the hardware-agnostic baselines.
//!
//! This crate provides the shared tuning loop of §2.1 — propose candidates,
//! measure them on (simulated) hardware, update a surrogate, repeat — and
//! the three state-of-the-art compilers the paper compares against:
//!
//! * [`autotvm::AutoTvmTuner`] — gradient-boosted surrogate + parallel
//!   simulated annealing + ε-greedy batches (Chen et al., NeurIPS '18),
//!   with optional cross-hardware **transfer learning** (Fig. 5's baseline).
//! * [`chameleon::ChameleonTuner`] — adaptive exploration (shrinking
//!   annealing budgets restarted from the incumbent top-K) and adaptive
//!   sampling (k-means over proposed configs, measuring snapped centroids)
//!   (Ahn et al., ICLR '20).
//! * [`dgp::DgpTuner`] — Gaussian-process surrogate with expected
//!   improvement and cross-task transfer priors (Sun et al., ICCV '21).
//! * [`random::RandomTuner`], [`grid::GridTuner`] — sanity baselines.
//!
//! All tuners speak the same [`Tuner`] trait and report the same
//! [`TuningOutcome`] metrics (best GFLOPS, explorer steps, invalid counts,
//! simulated GPU seconds), which is what the figure harnesses aggregate.

#![forbid(unsafe_code)]

pub mod autotvm;
pub mod budget;
pub mod chameleon;
pub mod context;
pub mod cost_model;
pub mod dgp;
pub mod diagnostics;
pub mod feature_cache;
pub mod genetic;
pub mod grid;
pub mod history;
pub mod journal;
pub mod random;

pub use budget::Budget;
pub use context::{RunControl, TuneContext, Tuner, TuningOutcome};
pub use feature_cache::{CacheStats, FeatureCache};
pub use history::{LogStore, Trial, TuningHistory};
pub use journal::{run_checkpointed, run_supervised, CheckpointSpec, JournalError, RunHeader, RunJournal, SupervisedOutcome, TrialRecord};

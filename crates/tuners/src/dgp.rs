//! The DGP baseline (Sun et al., "Fast and Efficient DNN Deployment via
//! Deep Gaussian Transfer Learning", ICCV 2021).
//!
//! DGP places a Gaussian process over configuration features and transfers
//! knowledge *across layers of the same target GPU*: logs from previously
//! tuned tasks fit a boosted-tree prior mean, and the GP models residuals
//! around it. Candidates are scored by expected improvement; the best
//! acquisition batch is measured.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use crate::cost_model::GbtCostModel;
use crate::history::TuningHistory;
use glimpse_mlkit::gp::{GaussianProcess, RbfKernel};
use glimpse_mlkit::parallel::{parallel_map, Threads};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use rand::Rng;

/// Random measurements before the first GP fit.
const N_INIT: usize = 16;
/// Hardware measurements per iteration.
const BATCH_SIZE: usize = 16;
/// Candidate pool scored by the acquisition per iteration.
const CANDIDATES: usize = 384;
/// Maximum observations the exact GP conditions on (recent-best subset).
const GP_CAP: usize = 200;

/// The DGP tuner.
#[derive(Debug, Clone, Default)]
pub struct DgpTuner {
    /// Cross-task logs from the same GPU for the transfer prior.
    transfer: Vec<TuningHistory>,
}

impl DgpTuner {
    /// Creates the tuner without transfer logs.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Supplies cross-task transfer logs (same target GPU).
    #[must_use]
    pub fn with_transfer(mut self, logs: Vec<TuningHistory>) -> Self {
        self.transfer = logs;
        self
    }
}

/// Normalization scale for GP targets.
const SCALE: f64 = 1000.0;

impl Tuner for DgpTuner {
    fn name(&self) -> &str {
        "DGP"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0xD6_9000);

        // Transfer prior mean from other tasks on this GPU.
        let mut prior = GbtCostModel::new(ctx.seed ^ 0x77);
        if !self.transfer.is_empty() {
            let refs: Vec<&TuningHistory> = self.transfer.iter().collect();
            prior.load_transfer(ctx.space, &refs, 64);
        }

        while ctx.history().len() < N_INIT && !ctx.exhausted() {
            let config = ctx.space.sample_uniform(&mut rng);
            ctx.measure(&config);
            ctx.add_explorer_steps(1);
        }

        while !ctx.exhausted() {
            if prior.transfer_len() > 0 {
                prior.fit(ctx.space, ctx.history());
            }
            // GP over residuals (or raw values without a prior), on the
            // most recent + best observations up to the cap. The full
            // history is featurized through the prior's campaign cache —
            // only trials measured since the last round miss — and prior
            // evaluation fans out across workers per row.
            let space = ctx.space;
            let prior_ref = &prior;
            let rows = prior_ref.features_batch(space, ctx.history().trials.iter().map(|t| &t.config));
            let means: Vec<f64> = if prior_ref.is_fitted() {
                parallel_map(Threads::AUTO, &rows, |_, f| prior_ref.predict_features(f))
            } else {
                vec![0.0; rows.len()]
            };
            let mut obs: Vec<(&[f64], f64)> = rows
                .iter()
                .map(std::convert::AsRef::as_ref)
                .zip(&ctx.history().trials)
                .zip(means)
                .map(|((f, t), m)| (f, (t.gflops.unwrap_or(0.0) - m) / SCALE))
                .collect();
            if obs.len() > GP_CAP {
                let skip = obs.len() - GP_CAP;
                obs.drain(0..skip);
            }
            // The exact GP owns its conditioning matrix; copying the capped
            // subset is cheap next to re-featurizing the whole history.
            let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = obs.into_iter().map(|(f, y)| (f.to_vec(), y)).unzip();
            let gp = GaussianProcess::fit(
                RbfKernel {
                    variance: 1.0,
                    length_scale: 4.0,
                },
                1e-4,
                xs,
                &ys,
            );

            let best_y = ctx.history().best_gflops();
            let mut ranked = ctx.history().valid_pairs();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            // Candidate generation stays sequential (it consumes the tuner
            // RNG); the acquisition scoring of the batch is pure and fans
            // out across workers below.
            let mut candidates: Vec<Config> = Vec::with_capacity(CANDIDATES);
            for i in 0..CANDIDATES {
                // Mix of uniform candidates and neighbors of incumbents.
                let candidate = if i % 3 == 0 && !ranked.is_empty() {
                    let base = ranked[rng.gen_range(0..ranked.len().min(8))].0;
                    ctx.space.neighbor(base, &mut rng)
                } else {
                    ctx.space.sample_uniform(&mut rng)
                };
                if !ctx.seen(&candidate) {
                    candidates.push(candidate);
                }
            }
            let mut scored: Vec<(Config, f64)> = match &gp {
                Ok(gp) => {
                    let scores = parallel_map(Threads::AUTO, &candidates, |_, c| {
                        let f = space.features(c);
                        let m = if prior_ref.is_fitted() {
                            prior_ref.predict_features(&f)
                        } else {
                            0.0
                        };
                        gp.expected_improvement(&f, (best_y - m) / SCALE)
                    });
                    candidates.into_iter().zip(scores).collect()
                }
                // Degenerate GP: fall back to a random ordering (sequential,
                // it consumes the tuner RNG).
                Err(_) => candidates.into_iter().map(|c| (c, rng.gen::<f64>())).collect(),
            };
            ctx.add_explorer_steps(scored.len());
            scored.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut batch: Vec<Config> = Vec::new();
            for (config, _) in scored {
                if batch.len() >= BATCH_SIZE {
                    break;
                }
                if !batch.contains(&config) {
                    batch.push(config);
                }
            }
            let mut attempts = 0;
            while batch.len() < BATCH_SIZE && attempts < 100 {
                attempts += 1;
                let config = ctx.space.sample_uniform(&mut rng);
                if !ctx.seen(&config) && !batch.contains(&config) {
                    batch.push(config);
                }
            }
            ctx.measure_batch(&batch);
        }
        let mut outcome = ctx.finish(self.name());
        outcome.surrogate = Some(prior.lifecycle());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::random::RandomTuner;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    fn run_tuner<T: Tuner>(mut tuner: T, task_idx: usize, budget: usize, seed: u64) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[task_idx];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 3090").unwrap().clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        tuner.tune(ctx)
    }

    #[test]
    fn beats_random_search() {
        let mut wins = 0;
        for seed in [1u64, 2, 3] {
            let dgp = run_tuner(DgpTuner::new(), 2, 128, seed);
            let random = run_tuner(RandomTuner::new(), 2, 128, seed);
            if dgp.best_gflops > random.best_gflops {
                wins += 1;
            }
        }
        assert!(wins >= 2, "DGP won only {wins}/3");
    }

    #[test]
    fn transfer_prior_consumes_cross_task_logs() {
        let donor = run_tuner(DgpTuner::new(), 2, 64, 9);
        let tuner = DgpTuner::new().with_transfer(vec![donor.history]);
        let outcome = run_tuner(tuner, 3, 64, 10);
        assert!(outcome.best_gflops > 0.0);
    }

    #[test]
    fn respects_budget() {
        let outcome = run_tuner(DgpTuner::new(), 2, 40, 11);
        assert!(outcome.measurements <= 40);
    }

    #[test]
    fn explorer_steps_count_acquisition_evaluations() {
        let outcome = run_tuner(DgpTuner::new(), 2, 64, 12);
        assert!(outcome.explorer_steps >= outcome.measurements);
    }
}

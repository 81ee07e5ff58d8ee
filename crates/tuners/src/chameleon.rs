//! The Chameleon baseline (Ahn et al., "Chameleon: Adaptive Code
//! Optimization for Expedited Deep Neural Network Compilation", ICLR 2020).
//!
//! Two upgrades over AutoTVM, both reproduced here:
//!
//! * **Adaptive exploration** — instead of fixed-length annealing rounds,
//!   the exploration budget *shrinks geometrically* as the learned policy
//!   converges, and chains restart from the incumbent top-K. This is what
//!   buys Chameleon its ~2× reduction in search steps over AutoTVM
//!   (Fig. 6 shows ≈50 % vs AutoTVM's 100 %).
//! * **Adaptive sampling** — the explorer proposes a large candidate pool;
//!   k-means clusters the pool in feature space and only configurations
//!   nearest the centroids are measured, cutting redundant and (some)
//!   invalid measurements. The paper notes this sampling is still
//!   hardware-agnostic — Glimpse's Fig. 7 advantage comes from replacing it
//!   with Blueprint-derived predictors.

use crate::context::{TuneContext, Tuner, TuningOutcome};
use crate::cost_model::GbtCostModel;
use glimpse_mlkit::kmeans::{kmeans, snap_to_points};
use glimpse_mlkit::parallel::Threads;
use glimpse_mlkit::sa::{anneal, SaParams};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use rand::Rng;

/// Random measurements before the first surrogate fit.
const N_INIT: usize = 16;
/// Hardware measurements per iteration.
const BATCH_SIZE: usize = 16;
/// Parallel Markov chains per exploration round.
const SA_CHAINS: usize = 32;
/// Steps per chain in the **first** round.
const SA_STEPS_INITIAL: usize = 60;
/// Geometric decay of per-round annealing steps (adaptive exploration).
const SA_DECAY: f64 = 0.75;
/// Candidate-pool multiple handed to adaptive sampling.
const POOL_FACTOR: usize = 4;

/// The Chameleon tuner.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChameleonTuner;

impl ChameleonTuner {
    /// Creates the tuner.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Tuner for ChameleonTuner {
    fn name(&self) -> &str {
        "Chameleon"
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0xC4A3_1E0A);
        let mut model = GbtCostModel::new(ctx.seed ^ 0x11);

        while ctx.history().len() < N_INIT && !ctx.exhausted() {
            let config = ctx.space.sample_uniform(&mut rng);
            ctx.measure(&config);
            ctx.add_explorer_steps(1);
        }

        let mut round = 0usize;
        // A cancelled SA round is discarded whole, so supervision never
        // perturbs the journal.
        let cancel = ctx.cancel_token();
        while !ctx.exhausted() {
            model.fit(ctx.space, ctx.history());
            // Adaptive exploration: shrinking annealing budget, greedy restarts.
            let steps = ((SA_STEPS_INITIAL as f64) * SA_DECAY.powi(round as i32)).ceil().max(8.0) as usize;
            round += 1;
            let mut ranked = ctx.history().valid_pairs();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let mut starts: Vec<Config> = ranked.iter().map(|(c, _)| (*c).clone()).take(SA_CHAINS / 2).collect();
            while starts.len() < SA_CHAINS {
                starts.push(ctx.space.sample_uniform(&mut rng));
            }
            let space = ctx.space;
            // Per-round seed: chains fan out across workers, seed-split per
            // chain, so the round is deterministic at any thread count.
            let sa_seed: u64 = rng.gen();
            let Some(outcome) = anneal(
                &starts,
                |c| model.predict(space, c),
                |c: &Config, out: &mut Config, r: &mut _| space.neighbor_into(c, out, r),
                SaParams {
                    chains: SA_CHAINS,
                    max_steps: steps,
                    t_start: 1.0,
                    t_end: 0.05,
                    patience: 0,
                },
                sa_seed,
                Threads::AUTO,
                &cancel,
            ) else {
                break;
            };
            ctx.add_explorer_steps(outcome.steps_executed);

            // Candidate pool for adaptive sampling.
            let pool_target = BATCH_SIZE * POOL_FACTOR;
            let mut pool: Vec<Config> = Vec::new();
            for (config, _) in outcome.top_k(SA_CHAINS) {
                if !ctx.seen(&config) && !pool.contains(&config) {
                    pool.push(config);
                }
            }
            // Expand the pool with neighbors of the *good* proposals (the
            // SA top-k seeds the front of the pool), keeping only candidates
            // the surrogate considers promising — Chameleon's sample
            // synthesis draws from the learned distribution, not uniformly.
            let seeds = pool.len().max(1);
            let quality_floor = 0.15 * model.predict_batch(space, &pool).into_iter().fold(0.0f64, f64::max);
            let mut attempts = 0;
            while pool.len() < pool_target && attempts < pool_target * 10 {
                attempts += 1;
                let base = if pool.is_empty() {
                    ctx.space.sample_uniform(&mut rng)
                } else {
                    pool[rng.gen_range(0..seeds.min(pool.len()))].clone()
                };
                let config = ctx.space.neighbor(&base, &mut rng);
                if !ctx.seen(&config) && !pool.contains(&config) && model.predict(space, &config) >= quality_floor {
                    pool.push(config);
                }
            }
            if pool.is_empty() {
                pool.push(ctx.space.sample_uniform(&mut rng));
            }

            // Adaptive sampling: cluster the pool, measure snapped centroids.
            // Featurize the whole pool once through the model's cache; the
            // surrogate scores reuse those same shared rows, and every later
            // filter reads the batch results.
            let features = model.features_batch(space, &pool);
            let pool_preds = model.predict_batch(space, &pool);
            let clusters = kmeans(&features, BATCH_SIZE, 25, &mut rng);
            let chosen = snap_to_points(&clusters.centroids, &features);
            // Exploit guard: always measure the surrogate's single best
            // proposal, then fill with the (diverse) centroid picks that the
            // surrogate does not consider near-certainly invalid.
            let best_measured = ctx.history().best_gflops();
            let mut batch: Vec<Config> = Vec::new();
            if let Some(best_idx) = (0..pool.len()).max_by(|&a, &b| pool_preds[a].total_cmp(&pool_preds[b])) {
                batch.push(pool[best_idx].clone());
            }
            for idx in chosen {
                let config = pool[idx].clone();
                if !batch.contains(&config) && pool_preds[idx] > 0.05 * best_measured {
                    batch.push(config);
                }
            }
            let mut fill_attempts = 0;
            while batch.len() < BATCH_SIZE && fill_attempts < 200 {
                fill_attempts += 1;
                // Back-fill from the pool's neighborhoods rather than
                // uniform samples (which are mostly invalid).
                let base = pool[rng.gen_range(0..pool.len())].clone();
                let config = ctx.space.neighbor(&base, &mut rng);
                if !ctx.seen(&config) && !batch.contains(&config) {
                    batch.push(config);
                }
            }
            ctx.measure_batch(&batch);
        }
        let mut outcome = ctx.finish(self.name());
        outcome.surrogate = Some(model.lifecycle());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotvm::AutoTvmTuner;
    use crate::budget::Budget;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;

    fn run_tuner<T: Tuner>(mut tuner: T, budget: usize, seed: u64) -> TuningOutcome {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("RTX 2080 Ti").unwrap().clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        tuner.tune(ctx)
    }

    #[test]
    fn uses_fewer_explorer_steps_than_autotvm() {
        // Fig. 6: Chameleon ~50% of AutoTVM's steps at comparable budgets.
        let cham = run_tuner(ChameleonTuner::new(), 160, 3);
        let auto = run_tuner(AutoTvmTuner::new(), 160, 3);
        assert!(
            (cham.explorer_steps as f64) < 0.8 * auto.explorer_steps as f64,
            "chameleon {} vs autotvm {}",
            cham.explorer_steps,
            auto.explorer_steps
        );
    }

    #[test]
    fn finds_competitive_configs() {
        let cham = run_tuner(ChameleonTuner::new(), 160, 4);
        let auto = run_tuner(AutoTvmTuner::new(), 160, 4);
        assert!(
            cham.best_gflops > 0.5 * auto.best_gflops,
            "chameleon {} vs autotvm {}",
            cham.best_gflops,
            auto.best_gflops
        );
    }

    #[test]
    fn respects_budget() {
        let outcome = run_tuner(ChameleonTuner::new(), 60, 5);
        assert!(outcome.measurements <= 60);
    }

    #[test]
    fn batch_configs_are_distinct() {
        let outcome = run_tuner(ChameleonTuner::new(), 100, 6);
        use std::collections::BTreeSet;
        let set: BTreeSet<_> = outcome.history.trials.iter().map(|t| t.config.indices().to_vec()).collect();
        // Duplicates are possible only via the resample fallback; they
        // should be rare.
        assert!(set.len() as f64 > 0.9 * outcome.history.len() as f64);
    }
}

//! Surrogate cost models (`f̂ ≈ f` of §2.1) over config features.
//!
//! AutoTVM fits a boosted-tree ranker on measured `(features, throughput)`
//! pairs and lets simulated annealing optimize the surrogate instead of the
//! hardware. Transfer learning (§2.2, Fig. 5) warm-starts the model with
//! pairs from *other* (GPU, task) runs, decaying their weight as local
//! evidence accumulates.
//!
//! # Surrogate lifecycle
//!
//! Refitting the forest from scratch over the whole history every round
//! makes surrogate cost O(rounds²) over a campaign. [`GbtCostModel::fit`]
//! is therefore *incremental* by default:
//!
//! * new fault-free trials since the last fit are featurized (through the
//!   shared [`FeatureCache`]) and appended to a persistent training matrix
//!   — the `usable` filter never rescans old history and transfer rows are
//!   never re-cloned;
//! * most rounds warm-start from the previous forest via
//!   [`Gbt::fit_incremental`], appending [`DEFAULT_INCREMENTAL_TREES`]
//!   trees fitted on the residuals, seeded by `child_rng(seed, round)`.
//!   The residuals come from one carried leaf sum per training row
//!   ([`Gbt::leaf_sum`]), which every fit extends with its new trees'
//!   leaves, so a warm start walks the forest only for the rows spliced in
//!   since the last fit, bit-identically to predicting every row afresh;
//! * every [`DEFAULT_REFIT_EVERY`]-th fit (and whenever the transfer set
//!   drops out) the forest is refitted from scratch with
//!   `StdRng::seed_from_u64(seed)` — exactly the historical code path — to
//!   bound drift. At these boundaries the model is bit-identical to what a
//!   scratch-every-round model (`with_refit_every(1)`, the equivalence
//!   baseline) produces on the same history.
//!
//! Every piece of this state is a pure function of `(seed, history)`: a
//! replayed or resumed campaign reconstructs the same forests, so journals
//! stay byte-identical with the incremental path on.

use crate::feature_cache::{CacheStats, FeatureCache};
use crate::history::TuningHistory;
use glimpse_mlkit::gbt::{Gbt, GbtParams};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::{Config, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Throughput scale (GFLOPS) applied before fitting, keeping targets O(1).
const SCORE_SCALE: f64 = 1000.0;

/// Default full-refit cadence: every K-th fit rebuilds the forest from
/// scratch; the fits between warm-start from the previous forest.
pub const DEFAULT_REFIT_EVERY: usize = 8;

/// Number of residual trees appended per incremental fit.
pub const DEFAULT_INCREMENTAL_TREES: usize = 8;

/// What the most recent [`GbtCostModel::fit`] call actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FitKind {
    /// Never fitted (no usable rows yet).
    Unfitted,
    /// Full seeded refit over the whole training matrix.
    Scratch,
    /// Warm start: residual trees appended to the previous forest.
    Incremental,
    /// No new usable trials since the last fit — forest kept as-is.
    Skipped,
}

/// Lifecycle counters for diagnostics: how the surrogate has been trained
/// and how the featurization cache is paying off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SurrogateLifecycle {
    /// Fits that actually trained (scratch + incremental).
    pub rounds: usize,
    /// Full seeded refits.
    pub scratch_fits: usize,
    /// Warm-start fits.
    pub incremental_fits: usize,
    /// Fit calls skipped because no new usable trials arrived.
    pub skipped_fits: usize,
    /// Trees in the current forest.
    pub forest_trees: usize,
    /// Rows in the training matrix (local + active transfer).
    pub training_rows: usize,
    /// Full-refit cadence K.
    pub refit_every: usize,
    /// Residual trees appended per incremental fit.
    pub incremental_trees: usize,
    /// Featurization-cache hit/miss counters.
    pub cache: CacheStats,
}

/// A gradient-boosted surrogate with optional transfer warm-start,
/// incremental per-round training, and cached featurization.
#[derive(Debug, Clone)]
pub struct GbtCostModel {
    params: GbtParams,
    seed: u64,
    model: Option<Gbt>,
    cache: FeatureCache,
    /// Persistent training matrix: local rows in history order, then the
    /// still-active transfer rows as a tail.
    train_x: Vec<Arc<[f64]>>,
    train_y: Vec<f64>,
    /// Each training row's [`Gbt::leaf_sum`] under `model`, aligned with
    /// `train_x` (placeholders while there is no model; a scratch fit
    /// overwrites them all).
    train_sums: Vec<f64>,
    /// Number of local (non-transfer) rows at the front of the matrix.
    local_rows: usize,
    /// Transfer rows currently kept in the matrix tail (0 once dropped).
    transfer_tail: usize,
    /// Transfer pairs ever loaded (the stable [`GbtCostModel::transfer_len`]).
    transfer_loaded: usize,
    /// History trials consumed so far (including faulted ones).
    seen_trials: usize,
    rounds: usize,
    fits_since_refit: usize,
    refit_every: usize,
    scratch_fits: usize,
    incremental_fits: usize,
    skipped_fits: usize,
    last_fit: FitKind,
}

impl GbtCostModel {
    /// Fresh, unfitted model with the default incremental schedule.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            params: GbtParams::default(),
            seed,
            model: None,
            cache: FeatureCache::new(),
            train_x: Vec::new(),
            train_y: Vec::new(),
            train_sums: Vec::new(),
            local_rows: 0,
            transfer_tail: 0,
            transfer_loaded: 0,
            seen_trials: 0,
            rounds: 0,
            fits_since_refit: 0,
            refit_every: DEFAULT_REFIT_EVERY,
            scratch_fits: 0,
            incremental_fits: 0,
            skipped_fits: 0,
            last_fit: FitKind::Unfitted,
        }
    }

    /// Sets the full-refit cadence (clamped to ≥ 1). `with_refit_every(1)`
    /// refits from scratch every round — the pre-incremental behavior, kept
    /// as the equivalence baseline.
    #[must_use]
    pub fn with_refit_every(mut self, rounds: usize) -> Self {
        self.refit_every = rounds.max(1);
        self
    }

    /// Loads transfer pairs from foreign tuning logs. `space` must be the
    /// *target* task's space; only logs whose configs are dimensionally
    /// compatible (same knob arity) are usable and others are skipped.
    pub fn load_transfer(&mut self, space: &SearchSpace, logs: &[&TuningHistory], per_log_cap: usize) {
        let arity = space.knobs().len();
        for log in logs {
            let mut taken = 0usize;
            for (config, gflops) in log.valid_pairs() {
                if config.indices().len() != arity || taken >= per_log_cap {
                    continue;
                }
                if config.indices().iter().zip(space.knobs()).any(|(i, k)| *i >= k.cardinality()) {
                    continue;
                }
                // Transfer rows live in the matrix tail, after local rows;
                // they are featurized directly (not through the cache) so
                // foreign configs never pollute the campaign's memo.
                let row: Arc<[f64]> = Arc::from(space.features(config));
                self.train_sums.push(self.leaf_sum(&row));
                self.train_x.push(row);
                self.train_y.push(gflops / SCORE_SCALE);
                self.transfer_tail += 1;
                self.transfer_loaded += 1;
                taken += 1;
            }
        }
    }

    /// Number of transfer pairs loaded.
    #[must_use]
    pub fn transfer_len(&self) -> usize {
        self.transfer_loaded
    }

    /// Whether the model has been fitted at least once.
    #[must_use]
    pub fn is_fitted(&self) -> bool {
        self.model.is_some()
    }

    /// Fits on the history's valid measurements (invalid trials enter as
    /// zero-throughput examples so the surrogate learns to avoid them).
    /// Faulted trials are *excluded* entirely: a timeout or device loss says
    /// nothing about the configuration, and feeding it in as a fake zero
    /// would teach the model to avoid perfectly good regions.
    /// Transfer pairs participate until local data outnumbers them 2:1.
    ///
    /// Only trials appended since the previous call are processed (the
    /// history is append-only within a campaign); see the module docs for
    /// the scratch/incremental schedule.
    pub fn fit(&mut self, space: &SearchSpace, history: &TuningHistory) {
        if history.trials.len() < self.seen_trials {
            // A shorter history means a different campaign: drop all
            // derived state (cache included) and start over.
            self.reset_campaign_state();
        }
        let new_usable: Vec<&crate::history::Trial> = history.trials[self.seen_trials..].iter().filter(|t| !t.is_fault()).collect();
        self.seen_trials = history.trials.len();
        let had_new = !new_usable.is_empty();
        if had_new {
            let rows = self.cache.rows_batch(space, new_usable.iter().map(|t| &t.config));
            let at = self.local_rows;
            // The one walk a new row gets: its leaf sum under the forest.
            let sums: Vec<f64> = rows.iter().map(|row| self.leaf_sum(row)).collect();
            self.train_sums.splice(at..at, sums);
            self.train_x.splice(at..at, rows);
            self.train_y
                .splice(at..at, new_usable.iter().map(|t| t.gflops.unwrap_or(0.0) / SCORE_SCALE));
            self.local_rows += new_usable.len();
        }
        // One-way flip: once local data outnumbers transfer 2:1 the tail is
        // dropped for good, and the forest is refitted from scratch so no
        // tree trained on foreign rows lingers.
        let mut force_scratch = false;
        if self.transfer_tail > 0 && self.local_rows >= 2 * self.transfer_tail {
            self.train_x.truncate(self.local_rows);
            self.train_y.truncate(self.local_rows);
            self.train_sums.truncate(self.local_rows);
            self.transfer_tail = 0;
            force_scratch = true;
        }
        if self.train_x.is_empty() {
            return;
        }
        if !had_new && self.model.is_some() && !force_scratch {
            self.skipped_fits += 1;
            self.last_fit = FitKind::Skipped;
            return;
        }
        let refit_due = force_scratch || self.fits_since_refit + 1 >= self.refit_every;
        // Growing requires a previous forest and no refit being due; taking
        // the model out (instead of `as_ref().expect(..)`) makes the scratch
        // path the structural fallback rather than a reachable panic.
        if let Some(prev) = self.model.take().filter(|_| !refit_due) {
            let mut rng = child_rng(self.seed, self.rounds as u64);
            let grown = prev.fit_incremental(
                &self.train_x,
                &self.train_y,
                &mut self.train_sums,
                DEFAULT_INCREMENTAL_TREES,
                &mut rng,
            );
            self.model = Some(grown);
            self.fits_since_refit += 1;
            self.incremental_fits += 1;
            self.last_fit = FitKind::Incremental;
        } else {
            // The historical code path, bit-for-bit: one seeded scratch fit
            // over (local rows in history order, then transfer rows).
            let mut rng = StdRng::seed_from_u64(self.seed);
            self.model = Some(Gbt::fit_summed(
                &self.train_x,
                &self.train_y,
                self.params,
                &mut self.train_sums,
                &mut rng,
            ));
            self.fits_since_refit = 0;
            self.scratch_fits += 1;
            self.last_fit = FitKind::Scratch;
        }
        self.rounds += 1;
    }

    fn reset_campaign_state(&mut self) {
        // Keep the transfer tail (it is campaign-independent warm-start
        // data) but drop local rows, the forest, and the memo.
        self.train_x.drain(..self.local_rows);
        self.train_y.drain(..self.local_rows);
        self.train_sums.drain(..self.local_rows);
        self.local_rows = 0;
        self.seen_trials = 0;
        self.model = None;
        self.rounds = 0;
        self.fits_since_refit = 0;
        self.last_fit = FitKind::Unfitted;
        self.cache.clear();
    }

    /// The leaf sum of `row` under the current forest, or a placeholder
    /// before the first fit.
    fn leaf_sum(&self, row: &[f64]) -> f64 {
        self.model.as_ref().map_or(0.0, |m| m.leaf_sum(row))
    }

    /// Predicted throughput (GFLOPS) of `config`.
    ///
    /// Returns 0 before the first [`GbtCostModel::fit`]. Featurizes
    /// directly (not through the cache): this is the SA per-step path,
    /// where configs are almost never revisited.
    #[must_use]
    pub fn predict(&self, space: &SearchSpace, config: &Config) -> f64 {
        self.predict_features(&space.features(config))
    }

    /// Predicted throughput from a pre-computed feature vector.
    #[must_use]
    pub fn predict_features(&self, features: &[f64]) -> f64 {
        self.model.as_ref().map_or(0.0, |m| m.predict(features) * SCORE_SCALE)
    }

    /// Predicted throughput (GFLOPS) for a whole candidate batch, with
    /// values identical to mapping [`GbtCostModel::predict`] in order.
    /// Featurization goes through the campaign cache; tree walks fan out
    /// across worker threads.
    #[must_use]
    pub fn predict_batch(&self, space: &SearchSpace, configs: &[Config]) -> Vec<f64> {
        let Some(model) = self.model.as_ref() else {
            return vec![0.0; configs.len()];
        };
        let rows = self.cache.rows_batch(space, configs.iter());
        model.predict_batch(&rows).into_iter().map(|v| v * SCORE_SCALE).collect()
    }

    /// Cached feature rows for a batch of configs (shared, not cloned) —
    /// the same rows [`GbtCostModel::fit`] and
    /// [`GbtCostModel::predict_batch`] train and predict on. Lets callers
    /// (e.g. Chameleon's clustering) reuse the memo instead of
    /// featurizing again.
    #[must_use]
    pub fn features_batch<'a, I>(&self, space: &SearchSpace, configs: I) -> Vec<Arc<[f64]>>
    where
        I: IntoIterator<Item = &'a Config>,
    {
        self.cache.rows_batch(space, configs)
    }

    /// Featurization-cache counters.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// What the most recent fit call did.
    #[must_use]
    pub fn last_fit(&self) -> FitKind {
        self.last_fit
    }

    /// Trees in the current forest (0 when unfitted).
    #[must_use]
    pub fn forest_trees(&self) -> usize {
        self.model.as_ref().map_or(0, Gbt::len)
    }

    /// Lifecycle counters for diagnostics and tunebench's per-layer metrics.
    #[must_use]
    pub fn lifecycle(&self) -> SurrogateLifecycle {
        SurrogateLifecycle {
            rounds: self.rounds,
            scratch_fits: self.scratch_fits,
            incremental_fits: self.incremental_fits,
            skipped_fits: self.skipped_fits,
            forest_trees: self.forest_trees(),
            training_rows: self.train_x.len(),
            refit_every: self.refit_every,
            incremental_trees: DEFAULT_INCREMENTAL_TREES,
            cache: self.cache.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Trial;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::{models, TemplateKind};

    fn measured_history(n: usize, seed: u64) -> (SearchSpace, TuningHistory) {
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(database::find("Titan Xp").unwrap().clone(), seed);
        let mut history = TuningHistory::new("Titan Xp", &task.id.model, task.id.index, task.template);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let c = space.sample_uniform(&mut rng);
            let r = measurer.measure(&space, &c);
            history.push(Trial::from_measure(&r));
        }
        (space, history)
    }

    /// A fresh model fitted once on a prefix of `history`, scratch-style.
    fn scratch_at(space: &SearchSpace, history: &TuningHistory, trials: usize, seed: u64) -> GbtCostModel {
        let mut prefix = TuningHistory::new(&history.gpu, &history.model, history.task_index, history.template);
        for t in history.trials.iter().take(trials) {
            prefix.push(t.clone());
        }
        let mut model = GbtCostModel::new(seed).with_refit_every(1);
        model.fit(space, &prefix);
        model
    }

    #[test]
    fn unfitted_model_predicts_zero() {
        let (space, history) = measured_history(1, 1);
        let model = GbtCostModel::new(0);
        assert_eq!(model.predict(&space, &history.trials[0].config), 0.0);
        assert!(!model.is_fitted());
        assert_eq!(model.last_fit(), FitKind::Unfitted);
    }

    #[test]
    fn fitted_model_ranks_measured_configs() {
        let (space, history) = measured_history(300, 2);
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        assert!(model.is_fitted());
        // Rank correlation between prediction and truth on training data.
        let pairs = history.valid_pairs();
        let mut concordant = 0usize;
        let mut total = 0usize;
        for i in 0..pairs.len() {
            for j in i + 1..pairs.len() {
                let (pi, pj) = (model.predict(&space, pairs[i].0), model.predict(&space, pairs[j].0));
                total += 1;
                if (pairs[i].1 - pairs[j].1) * (pi - pj) > 0.0 {
                    concordant += 1;
                }
            }
        }
        let tau = concordant as f64 / total.max(1) as f64;
        assert!(tau > 0.7, "rank agreement {tau}");
    }

    #[test]
    fn invalid_trials_teach_avoidance() {
        let (space, history) = measured_history(300, 3);
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        let invalid_preds: Vec<f64> = history
            .trials
            .iter()
            .filter(|t| !t.is_valid())
            .take(50)
            .map(|t| model.predict(&space, &t.config))
            .collect();
        let valid_best = history.best_gflops();
        let mean_invalid = invalid_preds.iter().sum::<f64>() / invalid_preds.len().max(1) as f64;
        assert!(mean_invalid < valid_best * 0.5, "invalid mean {mean_invalid} vs best {valid_best}");
    }

    #[test]
    fn faulted_trials_never_enter_training() {
        let (space, mut history) = measured_history(0, 7);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let c = space.sample_uniform(&mut rng);
            history.push(Trial {
                config: c,
                gflops: None,
                cost_s: 10.0,
                fault: Some(glimpse_sim::MeasureFault::Timeout { timeout_s: 10.0 }),
                invalid: None,
            });
        }
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        // Every trial was a fault, so there was nothing to train on.
        assert!(!model.is_fitted(), "faulted trials must not become fake zero-throughput examples");
    }

    #[test]
    fn predict_batch_matches_scalar_predict() {
        let (space, history) = measured_history(120, 8);
        let mut model = GbtCostModel::new(0);
        let configs: Vec<_> = history.trials.iter().map(|t| t.config.clone()).collect();
        // Unfitted: all zeros.
        assert!(model.predict_batch(&space, &configs).iter().all(|v| *v == 0.0));
        model.fit(&space, &history);
        let batch = model.predict_batch(&space, &configs);
        for (c, b) in configs.iter().zip(&batch) {
            assert_eq!(model.predict(&space, c).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn transfer_pairs_load_and_cap() {
        let (space, history) = measured_history(100, 4);
        let mut model = GbtCostModel::new(0);
        model.load_transfer(&space, &[&history], 10);
        assert!(model.transfer_len() <= 10);
        assert!(model.transfer_len() > 0);
    }

    #[test]
    fn transfer_from_mismatched_template_is_skipped() {
        let (space, _) = measured_history(5, 5);
        let dense_model = models::alexnet();
        let dense_task = dense_model.tasks().iter().find(|t| t.template == TemplateKind::Dense).unwrap();
        let dense_space = templates::space_for_task(dense_task);
        let mut dense_history = TuningHistory::new("Titan Xp", "AlexNet", dense_task.id.index, TemplateKind::Dense);
        let mut rng = StdRng::seed_from_u64(6);
        let mut measurer = Measurer::new(database::find("Titan Xp").unwrap().clone(), 6);
        for _ in 0..20 {
            let c = dense_space.sample_uniform(&mut rng);
            dense_history.push(Trial::from_measure(&measurer.measure(&dense_space, &c)));
        }
        let mut model = GbtCostModel::new(0);
        model.load_transfer(&space, &[&dense_history], 100);
        assert_eq!(model.transfer_len(), 0, "dense configs must not enter a conv space model");
    }

    #[test]
    fn incremental_is_bitwise_equal_to_scratch_at_refit_boundaries() {
        // Drive an incremental model round by round; at every round where
        // it performed a scratch refit, its predictions must be bit-equal
        // to a fresh scratch fit on the same prefix — the determinism
        // contract that keeps replay/resume byte-identical.
        let (space, history) = measured_history(96, 9);
        let probe: Vec<Config> = history.trials.iter().take(30).map(|t| t.config.clone()).collect();
        let mut incremental = GbtCostModel::new(0).with_refit_every(3);
        let batch = 8;
        let mut prefix = TuningHistory::new(&history.gpu, &history.model, history.task_index, history.template);
        let mut scratch_boundaries = 0usize;
        for (i, t) in history.trials.iter().enumerate() {
            prefix.push(t.clone());
            if (i + 1) % batch != 0 {
                continue;
            }
            incremental.fit(&space, &prefix);
            match incremental.last_fit() {
                FitKind::Scratch => {
                    scratch_boundaries += 1;
                    let baseline = scratch_at(&space, &history, i + 1, 0);
                    let a = incremental.predict_batch(&space, &probe);
                    let b = baseline.predict_batch(&space, &probe);
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.to_bits(), y.to_bits(), "refit boundary diverged at trial {}", i + 1);
                    }
                }
                FitKind::Incremental => {
                    // Between refits the forest is larger than the scratch
                    // baseline's but must stay well-correlated with it.
                    let baseline = scratch_at(&space, &history, i + 1, 0);
                    let a = incremental.predict_batch(&space, &probe);
                    let b = baseline.predict_batch(&space, &probe);
                    let rho = glimpse_mlkit::rank::spearman_rho(&a, &b);
                    assert!(rho > 0.5, "rank divergence between refits: rho {rho} at trial {}", i + 1);
                }
                other => panic!("expected a training fit each round, got {other:?}"),
            }
        }
        assert!(scratch_boundaries >= 2, "the cadence must produce multiple refit boundaries");
        let life = incremental.lifecycle();
        assert_eq!(life.rounds, life.scratch_fits + life.incremental_fits);
        assert!(life.incremental_fits > life.scratch_fits);
    }

    #[test]
    fn refit_every_one_is_scratch_every_round() {
        let (space, history) = measured_history(48, 10);
        let mut model = GbtCostModel::new(0).with_refit_every(1);
        let mut prefix = TuningHistory::new(&history.gpu, &history.model, history.task_index, history.template);
        for (i, t) in history.trials.iter().enumerate() {
            prefix.push(t.clone());
            if (i + 1) % 16 == 0 {
                model.fit(&space, &prefix);
                assert_eq!(model.last_fit(), FitKind::Scratch);
            }
        }
        let life = model.lifecycle();
        assert_eq!(life.incremental_fits, 0);
        assert_eq!(life.scratch_fits, 3);
    }

    #[test]
    fn fit_without_new_trials_is_a_deterministic_no_op() {
        let (space, history) = measured_history(60, 11);
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        let probe: Vec<Config> = history.trials.iter().take(10).map(|t| t.config.clone()).collect();
        let before = model.predict_batch(&space, &probe);
        let trees = model.forest_trees();
        model.fit(&space, &history);
        assert_eq!(model.last_fit(), FitKind::Skipped);
        assert_eq!(model.forest_trees(), trees, "a skipped fit must not grow the forest");
        let after = model.predict_batch(&space, &probe);
        for (x, y) in before.iter().zip(&after) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn usable_filter_is_incremental_and_complete() {
        // Feed the history in two chunks; the training matrix must contain
        // exactly the fault-free trials, each featurized once.
        let (space, history) = measured_history(80, 12);
        let usable = history.trials.iter().filter(|t| !t.is_fault()).count();
        let mut model = GbtCostModel::new(0);
        let mut prefix = TuningHistory::new(&history.gpu, &history.model, history.task_index, history.template);
        for t in history.trials.iter().take(40) {
            prefix.push(t.clone());
        }
        model.fit(&space, &prefix);
        for t in history.trials.iter().skip(40) {
            prefix.push(t.clone());
        }
        model.fit(&space, &prefix);
        let life = model.lifecycle();
        assert_eq!(life.training_rows, usable);
        assert_eq!(
            life.cache.lookups() as usize,
            usable,
            "each trial looked up exactly once across the two fits"
        );
        assert!(life.cache.entries <= usable);
    }

    #[test]
    fn shrunken_history_resets_the_campaign() {
        let (space, history) = measured_history(60, 13);
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        assert!(model.is_fitted());
        // A shorter history is a new campaign: the model must refit from
        // scratch on it rather than treating it as a suffix.
        let (space2, short) = measured_history(24, 14);
        model.fit(&space2, &short);
        assert_eq!(model.last_fit(), FitKind::Scratch);
        let usable = short.trials.iter().filter(|t| !t.is_fault()).count();
        assert_eq!(model.lifecycle().training_rows, usable);
    }

    /// Drives a model that starts from `transfer` foreign rows through fits
    /// of `batch` new trials each, over `trials` trials. At every warm
    /// start the forest must equal, bit for bit, the one a warm start that
    /// predicts every training row afresh grows from the previous forest,
    /// and after every fit the carried sums must equal a fresh walk. Returns
    /// how many warm starts ran with a transfer tail and whether the tail
    /// was dropped.
    fn assert_carried_sums_match_a_full_walk(seed: u64, trials: usize, transfer: usize, batch: usize) -> (usize, bool) {
        let (space, history) = measured_history(trials, seed);
        let (_, donor) = measured_history(3 * transfer, seed + 1);
        let mut model = GbtCostModel::new(seed);
        model.load_transfer(&space, &[&donor], transfer);
        let mut prefix = TuningHistory::new(&history.gpu, &history.model, history.task_index, history.template);
        let (mut tail_warm_starts, mut dropped) = (0, false);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for chunk in history.trials.chunks(batch) {
            prefix.trials.extend_from_slice(chunk);
            let (prev, round, tail) = (model.model.clone(), model.rounds, model.transfer_tail);
            model.fit(&space, &prefix);
            dropped |= tail > 0 && model.transfer_tail == 0;
            let Some(forest) = model.model.as_ref() else {
                continue;
            };
            let walked: Vec<f64> = model.train_x.iter().map(|x| forest.leaf_sum(x)).collect();
            assert_eq!(bits(&model.train_sums), bits(&walked), "carried sums drifted from a walk");
            if model.last_fit() != FitKind::Incremental {
                continue;
            }
            tail_warm_starts += usize::from(model.transfer_tail > 0);
            // The reference warm start: every row walks the previous forest
            // afresh, so every residual is `y − predict(x)`.
            let prev = prev.expect("a warm start grows a previous forest");
            let mut fresh: Vec<f64> = model.train_x.iter().map(|x| prev.leaf_sum(x)).collect();
            let mut rng = child_rng(seed, round as u64);
            let reference = prev.fit_incremental(&model.train_x, &model.train_y, &mut fresh, DEFAULT_INCREMENTAL_TREES, &mut rng);
            let ours: Vec<f64> = model.train_x.iter().map(|x| forest.predict(x)).collect();
            let theirs: Vec<f64> = model.train_x.iter().map(|x| reference.predict(x)).collect();
            assert_eq!(bits(&ours), bits(&theirs), "warm start diverged from the walking one");
        }
        (tail_warm_starts, dropped)
    }

    #[test]
    fn carried_sums_cover_a_transfer_tail_and_its_drop() {
        let (tail_warm_starts, dropped) = assert_carried_sums_match_a_full_walk(3, 160, 32, 8);
        assert!(tail_warm_starts > 0, "rows were spliced ahead of a live transfer tail");
        assert!(dropped, "the transfer tail was dropped");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn carried_sums_match_a_full_walk(
            seed in 0u64..1_000_000,
            trials in 1usize..160,
            transfer in 0usize..48,
            batch in 1usize..24,
        ) {
            assert_carried_sums_match_a_full_walk(seed, trials, transfer, batch);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The same property at 512 cases, for release builds:
        /// `cargo test --release -p glimpse-tuners --lib -- --ignored`.
        #[test]
        #[ignore = "512 cases: run in release with --ignored"]
        fn carried_sums_match_a_full_walk_512_cases(
            seed in 0u64..1_000_000,
            trials in 1usize..160,
            transfer in 0usize..48,
            batch in 1usize..24,
        ) {
            assert_carried_sums_match_a_full_walk(seed, trials, transfer, batch);
        }
    }

    #[test]
    fn features_batch_shares_rows_with_fit() {
        let (space, history) = measured_history(50, 15);
        let mut model = GbtCostModel::new(0);
        model.fit(&space, &history);
        let configs: Vec<Config> = history.trials.iter().map(|t| t.config.clone()).collect();
        let stats_before = model.cache_stats();
        let rows = model.features_batch(&space, &configs);
        let stats_after = model.cache_stats();
        assert_eq!(rows.len(), configs.len());
        assert_eq!(stats_after.misses, stats_before.misses, "fit already featurized every trial config");
        for (c, row) in configs.iter().zip(&rows) {
            assert_eq!(row.as_ref(), space.features(c).as_slice());
        }
    }
}

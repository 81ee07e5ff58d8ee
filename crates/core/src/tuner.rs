//! The Glimpse tuner: Algorithm 1 of the paper.
//!
//! ```text
//! f̂ ← H(Π, Θ)                      (prior distributions from Blueprint)
//! for i ← 0 to n:
//!     Xs        ← simulated annealing with f̂ as energy    (§3.2)
//!     Xs_pruned ← meta-optimizer with Θ as hints          (§3.2)
//!     Xs_sampled← sampling to minimize invalid configs    (§3.3)
//!     measure Xs_sampled on real hardware; update f̂
//! ```
//!
//! Each contribution is switched off by putting its component on its
//! fallback ([`ResolvedArtifacts::with_injected`]): the ablation
//! harness and the degradation matrix share that one mechanism.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::artifacts::GlimpseArtifacts;
use crate::blueprint::Blueprint;
use crate::health::ResolvedArtifacts;
use crate::sampler::{EnsembleSampler, DEFAULT_MEMBERS, DEFAULT_TAU};
use glimpse_gpu_spec::GpuSpec;
use glimpse_mlkit::parallel::Threads;
use glimpse_mlkit::sa::{anneal, SaParams};
use glimpse_mlkit::stats::child_rng;
use glimpse_space::Config;
use glimpse_supervise::health::{Component, HealthCause, HealthReport};
use glimpse_tuners::cost_model::GbtCostModel;
use glimpse_tuners::{TuneContext, Tuner, TuningOutcome};
use rand::Rng;
use std::collections::BTreeMap;

/// Glimpse hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct GlimpseConfig {
    /// Initial measurements drawn from the prior.
    pub n_init: usize,
    /// Hardware measurements per iteration.
    pub batch_size: usize,
    /// Parallel annealing chains per round.
    pub sa_chains: usize,
    /// Steps per chain per round (small: the acquisition is well-aligned).
    pub sa_steps: usize,
    /// Early-stop patience within a chain.
    pub sa_patience: usize,
    /// Ensemble size of the hardware-aware sampler.
    pub ensemble_members: usize,
    /// Rejection threshold τ (paper: 1/3 by grid search).
    pub tau: f64,
}

impl Default for GlimpseConfig {
    fn default() -> Self {
        Self {
            n_init: 16,
            batch_size: 16,
            sa_chains: 24,
            sa_steps: 40,
            sa_patience: 16,
            ensemble_members: DEFAULT_MEMBERS,
            tau: DEFAULT_TAU,
        }
    }
}

/// The Glimpse tuner for one target GPU.
///
/// Always runnable: built from intact artifacts it runs every learned
/// component; built via [`GlimpseTuner::from_resolved`] over a damaged or
/// missing bundle it puts each affected component on its fallback
/// (uniform initial sampling, plain SA energy, validity-check-only
/// sampling, rank-by-measured-history cost model) and records why in its
/// [`HealthReport`]. Every fallback is a deterministic function of
/// (seed, history), preserving the byte-identical-resume contract.
#[derive(Debug, Clone)]
pub struct GlimpseTuner<'a> {
    artifacts: Option<&'a GlimpseArtifacts>,
    blueprint: Blueprint,
    sampler: Option<EnsembleSampler>,
    health: HealthReport,
    config: GlimpseConfig,
}

impl<'a> GlimpseTuner<'a> {
    /// Builds the tuner for `target` from offline artifacts.
    #[must_use]
    pub fn new(artifacts: &'a GlimpseArtifacts, target: &GpuSpec) -> Self {
        Self::with_config(artifacts, target, GlimpseConfig::default())
    }

    /// Builds the tuner with explicit hyperparameters.
    #[must_use]
    pub fn with_config(artifacts: &'a GlimpseArtifacts, target: &GpuSpec, config: GlimpseConfig) -> Self {
        Self::build(Some(artifacts), HealthReport::healthy(), target, config)
    }

    /// Builds the tuner from a (possibly degraded) artifact resolution;
    /// each component runs the mode the resolution settled on.
    #[must_use]
    pub fn from_resolved(resolved: &'a ResolvedArtifacts, target: &GpuSpec, config: GlimpseConfig) -> Self {
        Self::build(resolved.artifacts.as_ref(), resolved.health.clone(), target, config)
    }

    fn build(artifacts: Option<&'a GlimpseArtifacts>, mut health: HealthReport, target: &GpuSpec, config: GlimpseConfig) -> Self {
        // A resolution claiming learned components without a bundle to
        // back them cannot be honored — demote everything rather than panic.
        if artifacts.is_none() && !health.any_degraded() {
            health = HealthReport::all_degraded(&HealthCause::ArtifactMissing);
        }
        let codec_healthy = !health.is_fallback(Component::BlueprintCodec);
        let blueprint = match artifacts {
            Some(artifacts) if codec_healthy => artifacts.encode(target),
            _ => Blueprint::raw_normalized(target),
        };
        // The threshold ensemble is generated from the codec's decode path,
        // so it needs both to be learned itself and a healthy codec.
        let sampler = match artifacts {
            Some(artifacts) if codec_healthy && !health.is_fallback(Component::Sampler) => Some(EnsembleSampler::from_blueprint(
                &artifacts.codec,
                &blueprint,
                config.ensemble_members,
                config.tau,
            )),
            _ => None,
        };
        Self {
            artifacts,
            blueprint,
            sampler,
            health,
            config,
        }
    }

    /// The target's Blueprint.
    #[must_use]
    pub fn blueprint(&self) -> &Blueprint {
        &self.blueprint
    }

    /// The generated sampler ensemble (`None` when the sampler or codec is
    /// on its fallback: the simulator's validity check is the only guard).
    #[must_use]
    pub fn sampler(&self) -> Option<&EnsembleSampler> {
        self.sampler.as_ref()
    }

    /// Whether the prior net is usable on this run (learned + bundle).
    fn prior_available(&self) -> bool {
        self.artifacts.is_some() && !self.health.is_fallback(Component::Prior)
    }
}

/// Rank-by-measured-history energy: the cost model's fallback. Scores
/// a measured configuration by its normalized throughput and an unmeasured
/// one at zero, so annealing climbs toward (and explores around) the best
/// regions evidence already supports — a deterministic function of the
/// history alone, with no trained state to lose.
fn history_rank_energy(pairs: &[(&Config, f64)]) -> BTreeMap<Vec<usize>, f64> {
    let best = pairs.iter().map(|(_, g)| *g).fold(0.0f64, f64::max).max(1.0);
    pairs.iter().map(|(c, g)| (c.indices().to_vec(), g / best)).collect()
}

impl Tuner for GlimpseTuner<'_> {
    fn name(&self) -> &str {
        "Glimpse"
    }

    /// The component-health resolution this tuner runs under.
    fn health(&self) -> Option<&HealthReport> {
        Some(&self.health)
    }

    fn tune(&mut self, mut ctx: TuneContext<'_>) -> TuningOutcome {
        let mut rng = child_rng(ctx.seed, 0x0911_A95E);
        let template = ctx.space.template();
        let total_budget = ctx.budget.max_measurements.max(1);
        // Validate the (disk-loaded) prior against the live space once; a
        // layout mismatch degrades to uniform sampling — demoting the
        // component's health — instead of panicking mid-search.
        let prior = match self.artifacts.map(|a| a.prior(template)) {
            Some(p) if self.prior_available() => match p.prior_weights(ctx.space, &self.blueprint) {
                Ok(_) => Some(p),
                Err(err) => {
                    self.health
                        .demote(Component::Prior, HealthCause::ValidationFailed { detail: err.to_string() });
                    None
                }
            },
            _ => None,
        };
        let acquisition = self
            .artifacts
            .filter(|_| !self.health.is_fallback(Component::Acquisition))
            .map(|a| a.acquisition(template));
        let sampler = self.sampler.as_ref();

        // Initial batch from the prior distributions (Algorithm 1, line 1),
        // filtered by the hardware-aware sampler.
        let initial: Vec<Config> = if let Some(prior) = prior {
            let raw = prior
                .sample_initial(ctx.space, &self.blueprint, self.config.n_init * 3, &mut rng)
                .unwrap_or_default();
            let mut filtered = match sampler {
                Some(sampler) => sampler.filter(ctx.space, raw),
                None => raw,
            };
            filtered.truncate(self.config.n_init);
            let mut attempts = 0;
            while filtered.len() < self.config.n_init && attempts < 200 {
                attempts += 1;
                let extra = prior.sample_initial(ctx.space, &self.blueprint, 4, &mut rng).unwrap_or_default();
                for config in extra {
                    if filtered.len() < self.config.n_init
                        && !filtered.contains(&config)
                        && sampler.is_none_or(|s| s.accept(ctx.space, &config))
                    {
                        filtered.push(config);
                    }
                }
            }
            filtered
        } else {
            (0..self.config.n_init).map(|_| ctx.space.sample_uniform(&mut rng)).collect()
        };
        ctx.measure_batch(&initial);

        // Cost model: learned, it trains the GBT surrogate online; on its
        // fallback it ranks by measured history only (nothing trained,
        // nothing to lose).
        let mut model = (!self.health.is_fallback(Component::CostModel)).then(|| GbtCostModel::new(ctx.seed ^ 0x91));
        // A cancelled SA round is discarded whole, so supervision never
        // perturbs the journal.
        let cancel = ctx.cancel_token();
        while !ctx.exhausted() {
            if let Some(model) = model.as_mut() {
                model.fit(ctx.space, ctx.history());
            }
            let t_frac = ctx.history().len() as f64 / total_budget as f64;

            // Chain starts: incumbents + fresh prior samples (the prior keeps
            // proposing plausible regions even mid-run).
            let mut ranked = ctx.history().valid_pairs();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let history_ranks = if model.is_none() {
                Some(history_rank_energy(&ranked))
            } else {
                None
            };
            let mut starts: Vec<Config> = ranked.iter().map(|(c, _)| (*c).clone()).take(self.config.sa_chains / 2).collect();
            if let Some(prior) = prior {
                starts.extend(
                    prior
                        .sample_initial(ctx.space, &self.blueprint, self.config.sa_chains - starts.len(), &mut rng)
                        .unwrap_or_default(),
                );
            }
            while starts.len() < self.config.sa_chains {
                starts.push(ctx.space.sample_uniform(&mut rng));
            }

            let space = ctx.space;
            let blueprint = &self.blueprint;
            // Early in the run the meta-learned, Blueprint-conditioned
            // acquisition carries most of the signal; as local evidence
            // accumulates the online surrogate becomes the sharper guide.
            // Blending by optimization progress is the exploration ->
            // exploitation shift MetaBO's budget feature modulates (§3.2).
            let exploit = t_frac.clamp(0.0, 1.0);
            // Featurize each proposal once: the surrogate consumes the raw
            // row and the acquisition zero-pads the same row internally
            // (identical to its own featurization), halving the per-step
            // lattice work when both are on.
            let energy = |c: &Config| {
                let f = space.features(c);
                let mu = match (&model, &history_ranks) {
                    (Some(model), _) => model.predict_features(&f),
                    (None, Some(ranks)) => ranks.get(c.indices()).copied().unwrap_or(0.0),
                    (None, None) => 0.0,
                };
                if let Some(acquisition) = acquisition {
                    let acq = acquisition.score_features(&f, mu, t_frac, blueprint);
                    (1.0 - exploit) * acq + exploit * mu
                } else {
                    mu
                }
            };
            // One seed per round: chains fan out across worker threads and
            // split the seed per chain, so results are identical at any
            // thread count.
            let sa_seed: u64 = rng.gen();
            let Some(outcome) = anneal(
                &starts,
                energy,
                |c: &Config, out: &mut Config, r: &mut _| space.neighbor_into(c, out, r),
                SaParams {
                    chains: self.config.sa_chains,
                    max_steps: self.config.sa_steps,
                    t_start: 0.6,
                    t_end: 0.05,
                    patience: self.config.sa_patience,
                },
                sa_seed,
                Threads::AUTO,
                &cancel,
            ) else {
                break;
            };
            ctx.add_explorer_steps(outcome.steps_executed);

            // Hardware-aware sampling: reject proposals the ensemble vetoes.
            let mut batch: Vec<Config> = Vec::new();
            for (config, _) in outcome.top_k(self.config.sa_chains) {
                if batch.len() >= self.config.batch_size {
                    break;
                }
                let fresh = !ctx.seen(&config) && !batch.contains(&config);
                let accepted = sampler.is_none_or(|s| s.accept(space, &config));
                if fresh && accepted {
                    batch.push(config);
                }
            }
            // Fill remainder from the prior (sampler-checked).
            let mut attempts = 0;
            while batch.len() < self.config.batch_size && attempts < 300 {
                attempts += 1;
                let config = if let Some(prior) = prior {
                    prior
                        .sample_initial(space, blueprint, 2, &mut rng)
                        .ok()
                        .and_then(|mut batch| batch.pop())
                        .unwrap_or_else(|| space.sample_uniform(&mut rng))
                } else {
                    space.sample_uniform(&mut rng)
                };
                let fresh = !ctx.seen(&config) && !batch.contains(&config);
                let accepted = sampler.is_none_or(|s| s.accept(space, &config));
                if fresh && accepted {
                    batch.push(config);
                }
            }
            if batch.is_empty() {
                batch.push(space.sample_uniform(&mut rng));
            }
            ctx.measure_batch(&batch);
        }
        let mut outcome = ctx.finish(self.name());
        outcome.surrogate = model.as_ref().map(GbtCostModel::lifecycle);
        outcome.health = Some(self.health.clone());
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::TrainingOptions;
    use glimpse_gpu_spec::database;
    use glimpse_sim::Measurer;
    use glimpse_space::templates;
    use glimpse_tensor_prog::models;
    use glimpse_tuners::autotvm::AutoTvmTuner;
    use glimpse_tuners::Budget;
    use std::sync::OnceLock;

    fn artifacts() -> &'static GlimpseArtifacts {
        static CELL: OnceLock<GlimpseArtifacts> = OnceLock::new();
        CELL.get_or_init(|| {
            let gpus: Vec<&glimpse_gpu_spec::GpuSpec> = vec![
                database::find("GTX 1080").unwrap(),
                database::find("GTX 1080 Ti").unwrap(),
                database::find("RTX 2060").unwrap(),
                database::find("RTX 2080").unwrap(),
                database::find("RTX 3070").unwrap(),
                database::find("RTX 3080").unwrap(),
            ];
            GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 21).unwrap()
        })
    }

    fn run_glimpse(config: GlimpseConfig, budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        GlimpseTuner::with_config(artifacts(), target, config).tune(ctx)
    }

    fn run_autotvm(budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        AutoTvmTuner::new().tune(ctx)
    }

    #[test]
    fn glimpse_produces_valid_outcome() {
        let outcome = run_glimpse(GlimpseConfig::default(), 64, 1);
        assert_eq!(outcome.tuner, "Glimpse");
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.measurements <= 64);
    }

    #[test]
    fn glimpse_has_fewer_invalids_than_autotvm() {
        let glimpse = run_glimpse(GlimpseConfig::default(), 128, 2);
        let autotvm = run_autotvm(128, 2);
        assert!(
            glimpse.invalid_fraction() <= autotvm.invalid_fraction(),
            "glimpse {} vs autotvm {}",
            glimpse.invalid_fraction(),
            autotvm.invalid_fraction()
        );
    }

    #[test]
    fn glimpse_uses_fewer_explorer_steps() {
        let glimpse = run_glimpse(GlimpseConfig::default(), 128, 3);
        let autotvm = run_autotvm(128, 3);
        assert!(
            (glimpse.explorer_steps as f64) < 0.6 * autotvm.explorer_steps as f64,
            "glimpse {} vs autotvm {}",
            glimpse.explorer_steps,
            autotvm.explorer_steps
        );
    }

    #[test]
    fn ablation_switches_change_behavior() {
        let full = run_glimpse(GlimpseConfig::default(), 64, 4);
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::Sampler);
        let no_sampler = run_resolved(&resolved, 64, 4);
        // Without the sampler, invalid measurements cannot decrease.
        assert!(no_sampler.invalid_measurements >= full.invalid_measurements);
    }

    #[test]
    fn blueprint_matches_artifact_dim() {
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::new(artifacts(), target);
        assert_eq!(tuner.blueprint().len(), artifacts().blueprint_dim());
        assert_eq!(tuner.sampler().expect("healthy run builds the ensemble").len(), DEFAULT_MEMBERS);
        assert!(!tuner.health().is_some_and(HealthReport::any_degraded));
    }

    fn run_resolved(resolved: &crate::health::ResolvedArtifacts, budget: usize, seed: u64) -> TuningOutcome {
        let target = database::find("RTX 2080 Ti").unwrap();
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::new(target.clone(), seed);
        let ctx = TuneContext::new(task, &space, &mut measurer, Budget::measurements(budget), seed);
        GlimpseTuner::from_resolved(resolved, target, GlimpseConfig::default()).tune(ctx)
    }

    #[test]
    fn fully_degraded_tuner_still_completes_with_health_attached() {
        use glimpse_supervise::health::HealthCause;
        let resolved = crate::health::ResolvedArtifacts::fallback(HealthCause::ChecksumMismatch);
        let outcome = run_resolved(&resolved, 48, 5);
        assert_eq!(outcome.tuner, "Glimpse");
        assert_eq!(outcome.measurements, 48, "degraded runs consume the full budget");
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.surrogate.is_none(), "the cost-model fallback trains no surrogate");
        let health = outcome.health.expect("health is always attached");
        assert!(health.any_degraded());
        assert_eq!(health.degraded_names().len(), 5);
    }

    #[test]
    fn degraded_runs_are_deterministic_functions_of_seed_and_history() {
        use glimpse_supervise::health::HealthCause;
        for cause in [HealthCause::ArtifactMissing, HealthCause::Truncated] {
            let resolved = crate::health::ResolvedArtifacts::fallback(cause);
            let a = run_resolved(&resolved, 32, 6);
            let b = run_resolved(&resolved, 32, 6);
            assert_eq!(a, b, "same seed + same fallbacks must reproduce bit-identically");
        }
    }

    #[test]
    fn single_component_injection_degrades_only_that_ladder() {
        use glimpse_supervise::health::Component;
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::CostModel);
        let outcome = run_resolved(&resolved, 32, 7);
        assert_eq!(outcome.measurements, 32);
        assert!(outcome.surrogate.is_none(), "injected cost-model fault switches to history-rank");
        let health = outcome.health.expect("health attached");
        assert_eq!(health.degraded_names(), vec!["cost-model"]);

        // Prior and acquisition injections (the component ablations) fall
        // back on their own and keep the surrogate.
        for component in [Component::Prior, Component::Acquisition] {
            let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(component);
            let outcome = run_resolved(&resolved, 32, 7);
            assert_eq!(outcome.measurements, 32, "{component} injection still spends the budget");
            assert!(outcome.surrogate.is_some(), "{component} injection keeps the GBT surrogate");
            let health = outcome.health.expect("health attached");
            assert_eq!(health.degraded_names(), vec![component.name()]);
        }

        // A sampler-only injection keeps the surrogate but drops the ensemble.
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::Sampler);
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::from_resolved(&resolved, target, GlimpseConfig::default());
        assert!(tuner.sampler().is_none());
        assert_eq!(tuner.blueprint().len(), artifacts().blueprint_dim(), "codec stays learned");
    }

    #[test]
    fn degraded_codec_falls_back_to_raw_normalized_features() {
        use glimpse_supervise::health::Component;
        let resolved = crate::health::ResolvedArtifacts::healthy(artifacts().clone()).with_injected(Component::BlueprintCodec);
        let target = database::find("RTX 2080 Ti").unwrap();
        let tuner = GlimpseTuner::from_resolved(&resolved, target, GlimpseConfig::default());
        assert_eq!(
            tuner.blueprint().len(),
            glimpse_gpu_spec::features::FEATURE_COUNT,
            "the codec fallback embeds the full feature width"
        );
        assert!(tuner.sampler().is_none(), "the ensemble needs a healthy codec");
    }
}

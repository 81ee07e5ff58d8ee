//! Hardware-Aware Exploration: the meta-learned neural acquisition function
//! (§3.2).
//!
//! "We take inspiration from MetaBO to learn the Meta-Optimizer … to emit
//! neural acquisition functions f(·|θ) that dictate the exploration and
//! exploitation strategy." The acquisition network scores a candidate from
//!
//! * the candidate's configuration features (padded to a template-agnostic
//!   width),
//! * the current surrogate's prediction `μ̂` (exploitation signal),
//! * the normalized optimization progress `t/T` (the budget feature MetaBO
//!   feeds its policy, shifting the exploration–exploitation balance), and
//! * the **Blueprint** (hardware awareness).
//!
//! Meta-training replays mid-tuning states across the training corpus: for
//! every (GPU, task) pair a throwaway surrogate is fitted on a small random
//! prefix (what a tuner would know mid-run), and the network learns to map
//! (features, μ̂, t/T, blueprint) to the *true* normalized performance — a
//! hardware-conditioned correction of the blind surrogate. At tuning time
//! the annealing chains maximize this acquisition instead of the raw
//! surrogate, which is why they converge in fewer steps on unseen GPUs.

use crate::blueprint::Blueprint;
use crate::corpus::CorpusEntry;
use glimpse_mlkit::gbt::{Gbt, GbtParams};
use glimpse_mlkit::mlp::{Activation, Mlp};
use glimpse_mlkit::parallel::{parallel_map, Threads};
use glimpse_space::{Config, SearchSpace};
use glimpse_tensor_prog::TemplateKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Template-agnostic width configuration features are padded to.
pub const PADDED_FEATURES: usize = 32;
/// Throughput normalization scale (GFLOPS).
const SCALE: f64 = 1000.0;

/// The neural acquisition function for one template.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NeuralAcquisition {
    template: TemplateKind,
    blueprint_dim: usize,
    mlp: Mlp,
}

impl NeuralAcquisition {
    /// Builds an untrained acquisition network.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(template: TemplateKind, blueprint_dim: usize, rng: &mut R) -> Self {
        let input = PADDED_FEATURES + 2 + blueprint_dim; // features ‖ μ̂ ‖ t/T ‖ blueprint
        let mlp = Mlp::new(&[input, 48, 48, 1], Activation::Relu, rng);
        Self {
            template,
            blueprint_dim,
            mlp,
        }
    }

    /// The template this acquisition serves.
    #[must_use]
    pub fn template(&self) -> TemplateKind {
        self.template
    }

    /// Checks a decoded acquisition's shape against what tuning feeds it: a
    /// well-formed net for `template` that takes padded features, μ̂, t/T
    /// and a `blueprint_dim`-wide Blueprint, and emits one score.
    pub(crate) fn check_shape(&self, template: TemplateKind, blueprint_dim: usize) -> Result<(), String> {
        self.mlp.check_shape()?;
        let found = (self.template, self.blueprint_dim, self.mlp.input_width(), self.mlp.output_width());
        let needed = (template, blueprint_dim, PADDED_FEATURES + 2 + blueprint_dim, 1);
        if found != needed {
            return Err(format!(
                "(template, Blueprint width, inputs, outputs) is {found:?}, tuning needs {needed:?}"
            ));
        }
        Ok(())
    }

    fn input(&self, features: &[f64], mu_gflops: f64, t_frac: f64, blueprint: &Blueprint) -> Vec<f64> {
        assert_eq!(blueprint.len(), self.blueprint_dim, "blueprint width mismatch");
        let mut x = features.to_vec();
        x.resize(PADDED_FEATURES, 0.0);
        x.push(mu_gflops / SCALE);
        x.push(t_frac.clamp(0.0, 1.0));
        x.extend_from_slice(&blueprint.values);
        x
    }

    /// Acquisition score of a candidate (higher = more worth measuring).
    #[must_use]
    pub fn score(&self, space: &SearchSpace, config: &Config, mu_gflops: f64, t_frac: f64, blueprint: &Blueprint) -> f64 {
        let features = space.features_padded(config, PADDED_FEATURES);
        self.score_features(&features, mu_gflops, t_frac, blueprint)
    }

    /// Acquisition score from pre-computed (padded) features.
    #[must_use]
    pub fn score_features(&self, features: &[f64], mu_gflops: f64, t_frac: f64, blueprint: &Blueprint) -> f64 {
        self.mlp.predict(&self.input(features, mu_gflops, t_frac, blueprint))[0] * SCALE
    }

    /// Meta-trains across corpus entries of this template (leave-one-out is
    /// the caller's responsibility via the entry set). `prefix` configs fit
    /// each entry's throwaway surrogate; the remainder become training rows.
    pub fn train<F>(&mut self, entries: &[&CorpusEntry], encode: F, prefix: usize, epochs: usize, lr: f64, seed: u64)
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<Vec<f64>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for entry in entries {
            if entry.task.template != self.template {
                continue;
            }
            let Some(blueprint) = encode(&entry.gpu) else { continue };
            if entry.samples.len() <= prefix + 8 {
                continue;
            }
            let space = entry.space();
            // Mid-tuning surrogate on the prefix. Featurization of both the
            // prefix and the held-out tail fans out across workers; the
            // RNG-consuming row assembly below stays sequential so training
            // is identical at any thread count.
            let train_x: Vec<Vec<f64>> = parallel_map(Threads::AUTO, &entry.samples[..prefix], |_, s| space.features(&s.config));
            let train_y: Vec<f64> = entry.samples[..prefix].iter().map(|s| s.gflops / SCALE).collect();
            let surrogate = Gbt::fit(
                &train_x,
                &train_y,
                GbtParams {
                    trees: 25,
                    ..GbtParams::default()
                },
                &mut rng,
            );
            // Remaining samples at random progress points become rows.
            let tail = &entry.samples[prefix..];
            let padded: Vec<Vec<f64>> = parallel_map(Threads::AUTO, tail, |_, s| space.features_padded(&s.config, PADDED_FEATURES));
            let tail_x: Vec<Vec<f64>> = parallel_map(Threads::AUTO, tail, |_, s| space.features(&s.config));
            let mus = surrogate.predict_batch(&tail_x);
            for ((sample, features), mu) in tail.iter().zip(&padded).zip(mus) {
                let t_frac: f64 = rng.gen_range(0.0..1.0);
                xs.push(self.input(features, mu * SCALE, t_frac, &blueprint));
                ys.push(vec![sample.gflops / SCALE]);
            }
        }
        if xs.is_empty() {
            return;
        }
        // Mini-batch Adam on MSE.
        let batch = 64.min(xs.len());
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..xs.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(batch) {
                let bx: Vec<Vec<f64>> = chunk.iter().map(|&i| xs[i].clone()).collect();
                let by: Vec<Vec<f64>> = chunk.iter().map(|&i| ys[i].clone()).collect();
                self.train_mse_raw(&bx, &by, lr);
            }
        }
    }

    fn train_mse_raw(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], lr: f64) {
        self.mlp.train_mse(xs, ys, lr);
    }

    /// Mean absolute error (GFLOPS) of the acquisition as a performance
    /// predictor on held-out entries (diagnostic).
    #[must_use]
    pub fn evaluate_mae<F>(&self, entries: &[&CorpusEntry], encode: F, prefix: usize, seed: u64) -> f64
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0.0;
        let mut count = 0usize;
        for entry in entries {
            if entry.task.template != self.template {
                continue;
            }
            let Some(blueprint) = encode(&entry.gpu) else { continue };
            if entry.samples.len() <= prefix + 8 {
                continue;
            }
            let space = entry.space();
            let train_x: Vec<Vec<f64>> = parallel_map(Threads::AUTO, &entry.samples[..prefix], |_, s| space.features(&s.config));
            let train_y: Vec<f64> = entry.samples[..prefix].iter().map(|s| s.gflops / SCALE).collect();
            let surrogate = Gbt::fit(
                &train_x,
                &train_y,
                GbtParams {
                    trees: 25,
                    ..GbtParams::default()
                },
                &mut rng,
            );
            let tail = &entry.samples[prefix..];
            let tail_x: Vec<Vec<f64>> = parallel_map(Threads::AUTO, tail, |_, s| space.features(&s.config));
            let mus = surrogate.predict_batch(&tail_x);
            for (sample, mu) in tail.iter().zip(mus) {
                let pred = self.score(&space, &sample.config, mu * SCALE, 0.5, &blueprint);
                total += (pred - sample.gflops).abs();
                count += 1;
            }
        }
        total / count.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::BlueprintCodec;
    use crate::corpus;
    use glimpse_gpu_spec::database;

    fn fixture() -> (Vec<CorpusEntry>, BlueprintCodec) {
        let gpus = vec![database::find("GTX 1080").unwrap(), database::find("RTX 2060").unwrap()];
        let tasks: Vec<glimpse_tensor_prog::Task> = corpus::training_tasks()
            .into_iter()
            .filter(|t| t.template == TemplateKind::Conv2dDirect)
            .take(3)
            .collect();
        let entries = corpus::generate(&gpus, &tasks, 200, 11);
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        (entries, codec)
    }

    #[test]
    fn untrained_scores_are_finite() {
        let (entries, codec) = fixture();
        let mut rng = StdRng::seed_from_u64(1);
        let acq = NeuralAcquisition::new(TemplateKind::Conv2dDirect, 4, &mut rng);
        let bp = codec.encode(database::find("GTX 1080").unwrap());
        let space = entries[0].space();
        let s = acq.score(&space, &entries[0].samples[0].config, 500.0, 0.3, &bp);
        assert!(s.is_finite());
    }

    #[test]
    fn training_improves_prediction_error() {
        let (entries, codec) = fixture();
        let refs: Vec<&CorpusEntry> = entries.iter().collect();
        let encode = |name: &str| database::find(name).map(|g| codec.encode(g));
        let mut rng = StdRng::seed_from_u64(2);
        let mut acq = NeuralAcquisition::new(TemplateKind::Conv2dDirect, 4, &mut rng);
        let before = acq.evaluate_mae(&refs, encode, 60, 3);
        acq.train(&refs, encode, 60, 10, 3e-3, 4);
        let after = acq.evaluate_mae(&refs, encode, 60, 3);
        assert!(after < before, "MAE {before} -> {after}");
    }

    #[test]
    fn score_depends_on_blueprint() {
        let (entries, codec) = fixture();
        let refs: Vec<&CorpusEntry> = entries.iter().collect();
        let encode = |name: &str| database::find(name).map(|g| codec.encode(g));
        let mut rng = StdRng::seed_from_u64(5);
        let mut acq = NeuralAcquisition::new(TemplateKind::Conv2dDirect, 4, &mut rng);
        acq.train(&refs, encode, 60, 6, 3e-3, 6);
        let space = entries[0].space();
        let config = &entries[0].samples[0].config;
        let a = acq.score(&space, config, 500.0, 0.5, &codec.encode(database::find("GTX 1050 Ti").unwrap()));
        let b = acq.score(&space, config, 500.0, 0.5, &codec.encode(database::find("RTX 3090").unwrap()));
        assert!((a - b).abs() > 1e-6, "blueprint must influence the score");
    }

    #[test]
    #[should_panic(expected = "blueprint width mismatch")]
    fn wrong_blueprint_width_is_rejected() {
        let (entries, _) = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        let acq = NeuralAcquisition::new(TemplateKind::Conv2dDirect, 4, &mut rng);
        let bad = Blueprint {
            gpu: "x".into(),
            values: vec![0.0; 9],
        };
        let space = entries[0].space();
        let _ = acq.score(&space, &entries[0].samples[0].config, 0.0, 0.0, &bad);
    }
}

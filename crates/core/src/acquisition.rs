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
use crate::corpus::{CorpusEntry, CorpusSample, TaskSpaces};
use glimpse_mlkit::gbt::{Gbt, GbtParams};
use glimpse_mlkit::mlp::{Activation, Adam, Mlp};
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

    /// Appends the net's input to `x`: `features` padded (or truncated) to
    /// [`PADDED_FEATURES`], then μ̂, t/T and the Blueprint.
    fn push_input(&self, x: &mut Vec<f64>, features: &[f64], mu_gflops: f64, t_frac: f64, blueprint: &Blueprint) {
        assert_eq!(blueprint.len(), self.blueprint_dim, "blueprint width mismatch");
        let start = x.len();
        x.extend_from_slice(features);
        x.resize(start + PADDED_FEATURES, 0.0);
        x.push(mu_gflops / SCALE);
        x.push(t_frac.clamp(0.0, 1.0));
        x.extend_from_slice(&blueprint.values);
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
        let mut x = Vec::with_capacity(self.mlp.input_width());
        self.push_input(&mut x, features, mu_gflops, t_frac, blueprint);
        self.mlp.predict(&x)[0] * SCALE
    }

    /// Replays mid-tuning states over the entries of this template: for
    /// each entry, a throwaway surrogate fitted on its first `prefix`
    /// samples (drawing from `rng`) predicts μ̂ for every later sample, and
    /// `t_frac(rng)` gives the row's progress point. Entries whose GPU is
    /// missing from `encode`, or with too few samples, are skipped.
    fn rows<'a, F, T>(&self, entries: &[&'a CorpusEntry], encode: F, prefix: usize, rng: &mut StdRng, mut t_frac: T) -> Rows<'a>
    where
        F: Fn(&str) -> Option<Blueprint>,
        T: FnMut(&mut StdRng) -> f64,
    {
        let mut out = Rows::default();
        for entry in entries {
            if entry.task.template != self.template {
                continue;
            }
            let Some(blueprint) = encode(&entry.gpu) else { continue };
            if entry.samples.len() <= prefix + 8 {
                continue;
            }
            let space = out.spaces.index(&entry.task);
            let features = |s: &CorpusSample| out.spaces.get(space).features(&s.config);
            let train_x: Vec<Vec<f64>> = entry.samples[..prefix].iter().map(features).collect();
            let train_y: Vec<f64> = entry.samples[..prefix].iter().map(|s| s.gflops / SCALE).collect();
            let surrogate = Gbt::fit(
                &train_x,
                &train_y,
                GbtParams {
                    trees: 25,
                    ..GbtParams::default()
                },
                rng,
            );
            let at = u32::try_from(out.entries.len()).expect("fewer than 2³² corpus entries");
            for (sample, s) in entry.samples.iter().enumerate().skip(prefix) {
                let mu = surrogate.predict(&features(s));
                out.rows.push(Row {
                    entry: at,
                    sample: u32::try_from(sample).expect("fewer than 2³² samples per entry"),
                    mu_gflops: mu * SCALE,
                    t_frac: t_frac(rng),
                });
            }
            out.entries.push((entry, space, blueprint));
        }
        out
    }

    /// Appends `row`'s input to `x` and returns the sample it scores.
    fn push_row<'a>(&self, x: &mut Vec<f64>, rows: &Rows<'a>, row: &Row) -> &'a CorpusSample {
        let (entry, space, blueprint) = &rows.entries[row.entry as usize];
        let sample = &entry.samples[row.sample as usize];
        let features = rows.spaces.get(*space).features(&sample.config);
        self.push_input(x, &features, row.mu_gflops, row.t_frac, blueprint);
        sample
    }

    /// Meta-trains across corpus entries of this template (leave-one-out is
    /// the caller's responsibility via the entry set). `prefix` configs fit
    /// each entry's throwaway surrogate; the remainder become training rows.
    pub fn train<F>(&mut self, entries: &[&CorpusEntry], encode: F, prefix: usize, epochs: usize, lr: f64, seed: u64)
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = self.rows(entries, encode, prefix, &mut rng, |rng| rng.gen_range(0.0..1.0));
        if rows.rows.is_empty() {
            return;
        }
        // Mini-batch Adam on MSE; each batch's inputs are rebuilt from its
        // rows into one flat buffer.
        let batch = 64.min(rows.rows.len());
        let mut adam = Adam::new(&self.mlp);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for _ in 0..epochs {
            let mut order: Vec<usize> = (0..rows.rows.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(batch) {
                xs.clear();
                ys.clear();
                for &i in chunk {
                    let sample = self.push_row(&mut xs, &rows, &rows.rows[i]);
                    ys.push(sample.gflops / SCALE);
                }
                adam.step_mse(&mut self.mlp, &xs, &ys, lr);
            }
        }
    }

    /// Mean absolute error (GFLOPS) of the acquisition as a performance
    /// predictor on held-out entries (diagnostic), at progress `t/T = 0.5`.
    #[must_use]
    pub fn evaluate_mae<F>(&self, entries: &[&CorpusEntry], encode: F, prefix: usize, seed: u64) -> f64
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = self.rows(entries, encode, prefix, &mut rng, |_| 0.5);
        let mut x = Vec::with_capacity(self.mlp.input_width());
        let mut total = 0.0;
        for row in &rows.rows {
            x.clear();
            let sample = self.push_row(&mut x, &rows, row);
            total += (self.mlp.predict(&x)[0] * SCALE - sample.gflops).abs();
        }
        total / rows.rows.len().max(1) as f64
    }
}

/// The training rows of [`NeuralAcquisition::rows`] and what rebuilding
/// their inputs needs: each used entry with its space and Blueprint.
#[derive(Default)]
struct Rows<'a> {
    spaces: TaskSpaces<'a>,
    entries: Vec<(&'a CorpusEntry, usize, Blueprint)>,
    rows: Vec<Row>,
}

/// One training row as a reference into the corpus: 24 bytes instead of
/// the ~300 of its input vector, so the rows of three concurrent trainings
/// stay small.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// Index into [`Rows::entries`].
    entry: u32,
    /// Index into that entry's samples.
    sample: u32,
    /// The surrogate's prediction μ̂ (GFLOPS).
    mu_gflops: f64,
    /// Optimization progress t/T.
    t_frac: f64,
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
    fn every_template_fits_the_padded_feature_width() {
        // `push_input` truncates wider feature rows without a word.
        let mut seen = Vec::new();
        for task in corpus::training_tasks() {
            let space = glimpse_space::templates::space_for_task(&task);
            assert!(
                space.feature_width() <= PADDED_FEATURES,
                "{} has {} features, the acquisition pads to {PADDED_FEATURES}",
                task.id,
                space.feature_width()
            );
            if !seen.contains(&task.template) {
                seen.push(task.template);
            }
        }
        assert_eq!(seen.len(), TemplateKind::ALL.len(), "the training tasks cover every template");
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

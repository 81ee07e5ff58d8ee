//! The prior-distribution generator `H` (§3.1).
//!
//! "Taking inspiration from HyperNetworks, we devise a prior distribution
//! generator H that takes a layer specification and Blueprint as input and
//! outputs the parameters π for the prior distribution f'(π). One important
//! design choice for H was generating *n distributions for n dimensions* of
//! the search space."
//!
//! Realization: one light-weight MLP per template whose output is split into
//! per-dimension categorical **heads** —
//!
//! * every non-leading part of a split knob gets an 11-class head over the
//!   part's rounded log₂ factor (factor 1 … 1024);
//! * `auto_unroll_max_step` and `unroll_explicit` get one head each over
//!   their choice lists.
//!
//! A configuration's prior weight is the product of its per-head
//! probabilities (the paper's "enumerates combinations of the argmax(f_k,*),
//! weighted by Π f_k,*"); the initial measurement batch is the argmax
//! combination plus weighted samples.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::blueprint::Blueprint;
use crate::corpus::CorpusEntry;
use glimpse_mlkit::mlp::{Activation, Adam, Mlp};
use glimpse_mlkit::stats::{argmax, sample_weighted, softmax};
use glimpse_space::knob::KnobValue;
use glimpse_space::{Config, SearchSpace};
use glimpse_tensor_prog::{OpSpec, TemplateKind};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of log₂-factor classes per split-part head (factor 1 … 2¹⁰).
pub const LOG2_CLASSES: usize = 11;

/// Error from applying a prior to a space it was not laid out for.
///
/// Artifacts are deserialized from disk ([`crate::artifacts::GlimpseArtifacts::load`]),
/// so a head layout that disagrees with the live search space is a
/// load-path integrity failure, not a programming bug — rule P1 requires it
/// to propagate as a typed error instead of panicking mid-search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorError {
    /// A split-part head points at a knob that is not a split knob.
    HeadMismatch {
        /// Knob index the head expected to be a split knob.
        knob: usize,
        /// Part index within the expected split.
        part: usize,
    },
}

impl fmt::Display for PriorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PriorError::HeadMismatch { knob, part } => {
                write!(
                    f,
                    "prior head layout mismatch: knob {knob} part {part} is not a split knob in this space"
                )
            }
        }
    }
}

impl std::error::Error for PriorError {}

/// One categorical head of `H`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Head {
    /// Distribution over `round(log2(factor))` of split-knob part `part`.
    SplitPart {
        /// Knob index in the template's knob order.
        knob: usize,
        /// Part index within the split (1-based; part 0 is the dependent
        /// remainder and gets no head).
        part: usize,
    },
    /// Distribution over an enumerated knob's choices.
    Choice {
        /// Knob index in the template's knob order.
        knob: usize,
        /// Number of choices.
        cardinality: usize,
    },
}

impl Head {
    /// Number of classes this head emits.
    #[must_use]
    pub fn classes(&self) -> usize {
        match self {
            Head::SplitPart { .. } => LOG2_CLASSES,
            Head::Choice { cardinality, .. } => *cardinality,
        }
    }
}

/// The per-dimension head layout of a template's search space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeadLayout {
    heads: Vec<Head>,
}

impl HeadLayout {
    /// Derives the layout from a representative space of the template.
    /// Layouts are identical across all spaces of one template (the knob
    /// *structure* is template-fixed; only extents vary).
    #[must_use]
    pub fn from_space(space: &SearchSpace) -> Self {
        let mut heads = Vec::new();
        for (k, knob) in space.knobs().iter().enumerate() {
            match &knob.choices()[0] {
                KnobValue::Split(parts) => {
                    for part in 1..parts.len() {
                        heads.push(Head::SplitPart { knob: k, part });
                    }
                }
                KnobValue::Int(_) | KnobValue::Flag(_) => {
                    heads.push(Head::Choice {
                        knob: k,
                        cardinality: knob.cardinality(),
                    });
                }
            }
        }
        Self { heads }
    }

    /// The heads in layout order.
    #[must_use]
    pub fn heads(&self) -> &[Head] {
        &self.heads
    }

    /// Total logit width across heads.
    #[must_use]
    pub fn output_width(&self) -> usize {
        self.heads.iter().map(Head::classes).sum()
    }

    /// Class labels of a configuration, one per head.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when this layout does not
    /// describe `space` (e.g. artifacts loaded for a different template).
    pub fn labels(&self, space: &SearchSpace, config: &Config) -> Result<Vec<usize>, PriorError> {
        let mut labels = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            labels.push(match head {
                Head::SplitPart { knob, part } => {
                    let value = space.knobs()[*knob].value(config.index(*knob));
                    let parts = value.as_split().ok_or(PriorError::HeadMismatch { knob: *knob, part: *part })?;
                    log2_class(parts[*part])
                }
                Head::Choice { knob, .. } => config.index(*knob),
            });
        }
        Ok(labels)
    }

    /// Splits a flat logit vector into per-head softmax distributions.
    #[must_use]
    pub fn head_probs(&self, logits: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(logits.len(), self.output_width(), "logit width mismatch");
        let mut out = Vec::with_capacity(self.heads.len());
        let mut at = 0;
        for head in &self.heads {
            let n = head.classes();
            out.push(softmax(&logits[at..at + n]));
            at += n;
        }
        out
    }

    /// Per-knob choice weights for a concrete space: each choice's weight is
    /// the product of its per-head probabilities (Π f_k,* of §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when this layout does not
    /// describe `space`.
    pub fn choice_weights(&self, space: &SearchSpace, probs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, PriorError> {
        let mut weights: Vec<Vec<f64>> = space.knobs().iter().map(|k| vec![1.0; k.cardinality()]).collect();
        for (head, p) in self.heads.iter().zip(probs) {
            match head {
                Head::SplitPart { knob, part } => {
                    for (ci, choice) in space.knobs()[*knob].choices().iter().enumerate() {
                        let parts = choice.as_split().ok_or(PriorError::HeadMismatch { knob: *knob, part: *part })?;
                        weights[*knob][ci] *= p[log2_class(parts[*part])];
                    }
                }
                Head::Choice { knob, .. } => {
                    for (ci, w) in weights[*knob].iter_mut().enumerate() {
                        *w *= p.get(ci).copied().unwrap_or(1e-12);
                    }
                }
            }
        }
        Ok(weights)
    }
}

/// Rounded log₂ class of a split factor, clamped to the head range.
#[must_use]
pub fn log2_class(factor: u32) -> usize {
    (f64::from(factor.max(1)).log2().round() as usize).min(LOG2_CLASSES - 1)
}

/// The prior generator `H` for one template.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PriorNet {
    template: TemplateKind,
    layout: HeadLayout,
    blueprint_dim: usize,
    mlp: Mlp,
}

impl PriorNet {
    /// Builds an untrained `H` for `template` with `blueprint_dim`-wide
    /// Blueprint inputs. `layout_space` is any space of the template.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(template: TemplateKind, layout_space: &SearchSpace, blueprint_dim: usize, rng: &mut R) -> Self {
        let layout = HeadLayout::from_space(layout_space);
        let input = OpSpec::LAYER_FEATURE_COUNT + blueprint_dim;
        let mlp = Mlp::new(&[input, 64, 64, layout.output_width()], Activation::Relu, rng);
        Self {
            template,
            layout,
            blueprint_dim,
            mlp,
        }
    }

    /// The template this generator serves.
    #[must_use]
    pub fn template(&self) -> TemplateKind {
        self.template
    }

    /// The head layout.
    #[must_use]
    pub fn layout(&self) -> &HeadLayout {
        &self.layout
    }

    /// Checks a decoded generator's shape against what tuning feeds it: a
    /// well-formed net for `template` that takes layer features plus a
    /// `blueprint_dim`-wide Blueprint and emits one logit per head class.
    pub(crate) fn check_shape(&self, template: TemplateKind, blueprint_dim: usize) -> Result<(), String> {
        self.mlp.check_shape()?;
        let found = (self.template, self.blueprint_dim, self.mlp.input_width(), self.mlp.output_width());
        let needed = (
            template,
            blueprint_dim,
            OpSpec::LAYER_FEATURE_COUNT + blueprint_dim,
            self.layout.output_width(),
        );
        if found != needed {
            return Err(format!(
                "(template, Blueprint width, inputs, logits) is {found:?}, tuning needs {needed:?}"
            ));
        }
        Ok(())
    }

    fn input(&self, op: &OpSpec, blueprint: &Blueprint) -> Vec<f64> {
        assert_eq!(blueprint.len(), self.blueprint_dim, "blueprint width mismatch");
        let mut x = op.layer_features();
        x.extend_from_slice(&blueprint.values);
        x
    }

    /// Per-head probability distributions for a (layer, blueprint) pair.
    #[must_use]
    pub fn head_probs(&self, op: &OpSpec, blueprint: &Blueprint) -> Vec<Vec<f64>> {
        self.layout.head_probs(&self.mlp.predict(&self.input(op, blueprint)))
    }

    /// Per-knob choice weights over a concrete space.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when the loaded layout does not
    /// describe `space`.
    pub fn prior_weights(&self, space: &SearchSpace, blueprint: &Blueprint) -> Result<Vec<Vec<f64>>, PriorError> {
        let probs = self.head_probs(space.op(), blueprint);
        self.layout.choice_weights(space, &probs)
    }

    /// Draws the initial batch of §3.1: the argmax combination first, then
    /// distinct weighted samples from the per-dimension product prior.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when the loaded layout does not
    /// describe `space`.
    pub fn sample_initial<R: Rng + ?Sized>(
        &self,
        space: &SearchSpace,
        blueprint: &Blueprint,
        n: usize,
        rng: &mut R,
    ) -> Result<Vec<Config>, PriorError> {
        let weights = self.prior_weights(space, blueprint)?;
        let mut out: Vec<Config> = Vec::with_capacity(n);
        let argmax_cfg = Config::new(weights.iter().map(|w| argmax(w)).collect());
        out.push(argmax_cfg);
        let mut attempts = 0;
        while out.len() < n && attempts < n * 30 {
            attempts += 1;
            let config = Config::new(weights.iter().map(|w| sample_weighted(w, rng)).collect());
            if !out.contains(&config) {
                out.push(config);
            }
        }
        while out.len() < n {
            out.push(space.sample_uniform(rng));
        }
        Ok(out)
    }

    /// Deterministically enumerates the `k` highest-weight configurations
    /// of the product prior (beam search over knobs in layout order) — the
    /// literal "enumerates combinations of the argmax(f_k,*), weighted by
    /// Π f_k,*" of §3.1.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when the loaded layout does not
    /// describe `space`.
    pub fn top_configs(&self, space: &SearchSpace, blueprint: &Blueprint, k: usize) -> Result<Vec<Config>, PriorError> {
        let weights = self.prior_weights(space, blueprint)?;
        // Beam over partial index prefixes, scored by log-weight sums.
        let mut beam: Vec<(Vec<usize>, f64)> = vec![(Vec::new(), 0.0)];
        for knob_weights in &weights {
            // Rank this knob's choices once, keep the best few per prefix.
            let mut ranked: Vec<(usize, f64)> = knob_weights.iter().copied().enumerate().collect();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            ranked.truncate(k.max(1));
            let mut next = Vec::with_capacity(beam.len() * ranked.len());
            for (prefix, score) in &beam {
                for (choice, w) in &ranked {
                    let mut indices = prefix.clone();
                    indices.push(*choice);
                    next.push((indices, score + w.max(1e-300).ln()));
                }
            }
            next.sort_by(|a, b| b.1.total_cmp(&a.1));
            next.truncate(k.max(1));
            beam = next;
        }
        Ok(beam.into_iter().map(|(indices, _)| Config::new(indices)).collect())
    }

    /// Mean normalized entropy of the prior's per-knob distributions over a
    /// space, in `[0, 1]` (1 = uniform). A trained prior on a familiar
    /// hardware family should be visibly below 1.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when the loaded layout does not
    /// describe `space`.
    pub fn prior_entropy(&self, space: &SearchSpace, blueprint: &Blueprint) -> Result<f64, PriorError> {
        let weights = self.prior_weights(space, blueprint)?;
        let mut total = 0.0;
        let mut counted = 0usize;
        for w in &weights {
            if w.len() < 2 {
                continue;
            }
            let sum: f64 = w.iter().sum();
            if sum <= 0.0 {
                continue;
            }
            let h: f64 = w
                .iter()
                .map(|x| {
                    let p = x / sum;
                    if p > 0.0 {
                        -p * p.ln()
                    } else {
                        0.0
                    }
                })
                .sum();
            total += h / (w.len() as f64).ln();
            counted += 1;
        }
        Ok(total / counted.max(1) as f64)
    }

    /// Meta-trains `H` on corpus entries of this template. For each
    /// (GPU, task) entry the soft target per head is the empirical class
    /// distribution of the entry's top-`quantile` configurations; training
    /// minimizes cross-entropy to those targets.
    ///
    /// Entries whose GPU is missing from `encode` are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when an entry's space disagrees
    /// with this generator's head layout.
    pub fn train<F>(&mut self, entries: &[&CorpusEntry], encode: F, quantile: f64, epochs: usize, lr: f64) -> Result<(), PriorError>
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        // Precompute (input, soft targets per head) per entry.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut targets: Vec<Vec<Vec<f64>>> = Vec::new();
        for entry in entries {
            if entry.task.template != self.template {
                continue;
            }
            let Some(blueprint) = encode(&entry.gpu) else { continue };
            let space = entry.space();
            let top = entry.top_quantile(quantile);
            if top.is_empty() {
                continue;
            }
            let mut dist: Vec<Vec<f64>> = self.layout.heads().iter().map(|h| vec![0.0; h.classes()]).collect();
            for sample in &top {
                for (h, label) in self.layout.labels(&space, &sample.config)?.into_iter().enumerate() {
                    dist[h][label] += 1.0 / top.len() as f64;
                }
            }
            xs.push(self.input(&entry.task.op, &blueprint));
            targets.push(dist);
        }
        if xs.is_empty() {
            return Ok(());
        }
        let mut adam = Adam::new(&self.mlp);
        for _ in 0..epochs {
            adam.step(&mut self.mlp, &xs, lr, |i, output| {
                let probs = self.layout.head_probs(output);
                let mut grad = Vec::with_capacity(self.layout.output_width());
                for (p, t) in probs.iter().zip(&targets[i]) {
                    for (pi, ti) in p.iter().zip(t) {
                        grad.push((pi - ti) / xs.len() as f64);
                    }
                }
                grad
            });
        }
        Ok(())
    }

    /// Mean cross-entropy of the prior against the top-quantile distribution
    /// of held-out entries (diagnostic).
    ///
    /// # Errors
    ///
    /// Returns [`PriorError::HeadMismatch`] when an entry's space disagrees
    /// with this generator's head layout.
    pub fn evaluate_ce<F>(&self, entries: &[&CorpusEntry], encode: F, quantile: f64) -> Result<f64, PriorError>
    where
        F: Fn(&str) -> Option<Blueprint>,
    {
        let mut total = 0.0;
        let mut count = 0usize;
        for entry in entries {
            if entry.task.template != self.template {
                continue;
            }
            let Some(blueprint) = encode(&entry.gpu) else { continue };
            let space = entry.space();
            let probs = self.head_probs(&entry.task.op, &blueprint);
            for sample in entry.top_quantile(quantile) {
                for (h, label) in self.layout.labels(&space, &sample.config)?.into_iter().enumerate() {
                    total -= probs[h][label].max(1e-12).ln();
                    count += 1;
                }
            }
        }
        Ok(total / count.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blueprint::BlueprintCodec;
    use crate::corpus;
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_space() -> glimpse_space::SearchSpace {
        templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1))
    }

    #[test]
    fn layout_counts_conv_heads() {
        let layout = HeadLayout::from_space(&conv_space());
        // tile_f/y/x: 3 heads each; tile_rc/ry/rx: 1 head each; unroll + flag.
        assert_eq!(layout.heads().len(), 3 * 3 + 3 + 2);
        assert_eq!(layout.output_width(), 12 * LOG2_CLASSES + 3 + 2);
    }

    #[test]
    fn labels_roundtrip_choice_weights() {
        let space = conv_space();
        let layout = HeadLayout::from_space(&space);
        let mut rng = StdRng::seed_from_u64(1);
        let config = space.sample_uniform(&mut rng);
        let labels = layout.labels(&space, &config).unwrap();
        assert_eq!(labels.len(), layout.heads().len());
        for (head, label) in layout.heads().iter().zip(&labels) {
            assert!(*label < head.classes());
        }
    }

    #[test]
    fn log2_class_rounds_and_clamps() {
        assert_eq!(log2_class(1), 0);
        assert_eq!(log2_class(2), 1);
        assert_eq!(log2_class(7), 3); // log2(7)=2.81 -> 3
        assert_eq!(log2_class(4096), LOG2_CLASSES - 1);
    }

    #[test]
    fn untrained_prior_samples_are_valid_configs() {
        let space = conv_space();
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let bp = codec.encode(database::find("Titan Xp").unwrap());
        let mut rng = StdRng::seed_from_u64(2);
        let net = PriorNet::new(TemplateKind::Conv2dDirect, &space, 4, &mut rng);
        let batch = net.sample_initial(&space, &bp, 16, &mut rng).unwrap();
        assert_eq!(batch.len(), 16);
        for config in &batch {
            for (i, knob) in space.knobs().iter().enumerate() {
                assert!(config.index(i) < knob.cardinality());
            }
        }
    }

    #[test]
    fn training_reduces_cross_entropy() {
        let gpus = vec![
            database::find("GTX 1080").unwrap(),
            database::find("RTX 2060").unwrap(),
            database::find("RTX 3070").unwrap(),
        ];
        let tasks: Vec<glimpse_tensor_prog::Task> = corpus::training_tasks()
            .into_iter()
            .filter(|t| t.template == TemplateKind::Conv2dDirect)
            .take(4)
            .collect();
        let entries = corpus::generate(&gpus, &tasks, 150, 3);
        let refs: Vec<&CorpusEntry> = entries.iter().collect();
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let encode = |name: &str| database::find(name).map(|g| codec.encode(g));
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = PriorNet::new(TemplateKind::Conv2dDirect, &refs[0].space(), 4, &mut rng);
        let before = net.evaluate_ce(&refs, encode, 0.1).unwrap();
        net.train(&refs, encode, 0.1, 150, 3e-3).unwrap();
        let after = net.evaluate_ce(&refs, encode, 0.1).unwrap();
        assert!(after < before, "CE {before} -> {after}");
    }

    #[test]
    fn argmax_config_leads_the_initial_batch() {
        let space = conv_space();
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let bp = codec.encode(database::find("RTX 3090").unwrap());
        let mut rng = StdRng::seed_from_u64(5);
        let net = PriorNet::new(TemplateKind::Conv2dDirect, &space, 4, &mut rng);
        let weights = net.prior_weights(&space, &bp).unwrap();
        let batch = net.sample_initial(&space, &bp, 8, &mut rng).unwrap();
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(batch[0].index(i), argmax(w));
        }
    }

    #[test]
    fn top_configs_lead_with_the_argmax_combo() {
        let space = conv_space();
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let bp = codec.encode(database::find("GTX 1080").unwrap());
        let mut rng = StdRng::seed_from_u64(8);
        let net = PriorNet::new(TemplateKind::Conv2dDirect, &space, 4, &mut rng);
        let top = net.top_configs(&space, &bp, 8).unwrap();
        assert_eq!(top.len(), 8);
        let weights = net.prior_weights(&space, &bp).unwrap();
        for (i, w) in weights.iter().enumerate() {
            assert_eq!(top[0].index(i), argmax(w), "beam head must be the argmax combo");
        }
        // All distinct.
        let mut dedup = top.clone();
        dedup.sort_by_key(|c| c.indices().to_vec());
        dedup.dedup();
        assert_eq!(dedup.len(), 8);
    }

    #[test]
    fn prior_entropy_is_normalized_and_drops_with_training() {
        let gpus = vec![
            database::find("GTX 1080").unwrap(),
            database::find("RTX 2060").unwrap(),
            database::find("RTX 3070").unwrap(),
        ];
        let tasks: Vec<glimpse_tensor_prog::Task> = corpus::training_tasks()
            .into_iter()
            .filter(|t| t.template == TemplateKind::Conv2dDirect)
            .take(4)
            .collect();
        let entries = corpus::generate(&gpus, &tasks, 150, 9);
        let refs: Vec<&CorpusEntry> = entries.iter().collect();
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let encode = |name: &str| database::find(name).map(|g| codec.encode(g));
        let bp = codec.encode(database::find("GTX 1080").unwrap());
        let space = refs[0].space();
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = PriorNet::new(TemplateKind::Conv2dDirect, &space, 4, &mut rng);
        let before = net.prior_entropy(&space, &bp).unwrap();
        assert!(before > 0.0 && before <= 1.0);
        net.train(&refs, encode, 0.1, 150, 3e-3).unwrap();
        let after = net.prior_entropy(&space, &bp).unwrap();
        // Training matches the (soft) empirical top-config distribution, so
        // entropy need not fall monotonically — but the trained prior must
        // stay normalized and visibly non-uniform.
        assert!(after > 0.0 && after < 0.95, "trained prior entropy {after}");
    }
}

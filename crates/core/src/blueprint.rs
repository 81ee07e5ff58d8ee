//! The Blueprint: a PCA embedding of data-sheet feature vectors (§3.1).
//!
//! "We perform a dimensionality reduction of the original feature vectors
//! using PCA to get the minimal mathematical embedding vector that
//! summarizes the hardware." The codec is fitted on a *population* of GPUs
//! (the public data-sheet database) and can then encode any GPU — including
//! ones unseen during fitting — into a `k`-dimensional Blueprint, and decode
//! a Blueprint back into approximate data-sheet values (which is what the
//! sampler's threshold predictors consume).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use glimpse_gpu_spec::{features, FeatureVector, GpuSpec, Normalizer};
use glimpse_mlkit::pca::{total_variance, Pca};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A GPU's mathematical embedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blueprint {
    /// Marketing name of the embedded GPU.
    pub gpu: String,
    /// The embedding vector (PCA projection, z-scored feature space).
    pub values: Vec<f64>,
}

impl Blueprint {
    /// The codec's fallback: the raw data-sheet feature
    /// vector z-scored against the built-in GPU database, with no PCA
    /// projection. Used when the fitted codec artifact is unusable — it
    /// needs no trained state, and is a deterministic function of the spec
    /// alone, so degraded runs stay byte-identically resumable.
    ///
    /// The dimensionality is the full feature width, not the codec's `k`;
    /// components that require a codec-shaped embedding (prior,
    /// acquisition, sampler) are disabled alongside a degraded codec, so
    /// only dimension-agnostic consumers ever see this form.
    #[must_use]
    pub fn raw_normalized(gpu: &GpuSpec) -> Self {
        let population: Vec<FeatureVector> = glimpse_gpu_spec::database::all().iter().map(FeatureVector::from_spec).collect();
        let normalizer = Normalizer::fit(&population);
        Self {
            gpu: gpu.name.clone(),
            values: normalizer.normalize(&FeatureVector::from_spec(gpu)),
        }
    }

    /// Embedding dimensionality.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the embedding is empty (never true for codec output).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl fmt::Display for Blueprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Blueprint[{}; {}d]", self.gpu, self.values.len())
    }
}

/// One point of the Fig. 8 design-space exploration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Number of PCA components kept.
    pub components: usize,
    /// Blueprint size as a fraction of the raw feature width.
    pub size_fraction: f64,
    /// Reconstruction RMSE in z-scored feature units (information loss).
    pub rmse: f64,
    /// Fraction of total variance captured.
    pub explained_variance: f64,
}

/// Fitted encoder/decoder between data sheets and Blueprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlueprintCodec {
    normalizer: Normalizer,
    pca: Pca,
}

/// Error fitting a codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    reason: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blueprint codec: {}", self.reason)
    }
}

impl std::error::Error for CodecError {}

impl BlueprintCodec {
    /// Fits a `k`-component codec over a GPU population.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the population has fewer than two GPUs or
    /// `k` is out of range.
    pub fn fit(population: &[&GpuSpec], k: usize) -> Result<Self, CodecError> {
        if population.len() < 2 {
            return Err(CodecError {
                reason: "need at least two GPUs".into(),
            });
        }
        let raw: Vec<FeatureVector> = population.iter().map(|s| FeatureVector::from_spec(s)).collect();
        let normalizer = Normalizer::fit(&raw);
        let rows: Vec<Vec<f64>> = raw.iter().map(|fv| normalizer.normalize(fv)).collect();
        let pca = Pca::fit(&rows, k).map_err(|e| CodecError { reason: e.to_string() })?;
        Ok(Self { normalizer, pca })
    }

    /// Fits codecs for every `k` and returns the Fig. 8 sweep.
    #[must_use]
    pub fn sweep(population: &[&GpuSpec]) -> Vec<SweepPoint> {
        let raw: Vec<FeatureVector> = population.iter().map(|s| FeatureVector::from_spec(s)).collect();
        let normalizer = Normalizer::fit(&raw);
        let rows: Vec<Vec<f64>> = raw.iter().map(|fv| normalizer.normalize(fv)).collect();
        let width = features::FEATURE_COUNT;
        let tv = total_variance(&rows);
        (1..=width)
            .filter_map(|k| {
                let pca = Pca::fit(&rows, k).ok()?;
                Some(SweepPoint {
                    components: k,
                    size_fraction: k as f64 / width as f64,
                    rmse: pca.reconstruction_rmse(&rows),
                    explained_variance: pca.explained_variance_ratio(tv),
                })
            })
            .collect()
    }

    /// The smallest `k` whose information loss is below 0.5 % of total
    /// variance — the paper's "red star" operating point in Fig. 8.
    #[must_use]
    pub fn recommended_components(population: &[&GpuSpec]) -> usize {
        Self::sweep(population)
            .iter()
            .find(|p| p.explained_variance >= 0.995)
            .map_or(features::FEATURE_COUNT, |p| p.components)
    }

    /// Checks a decoded codec's shape: the normalizer and the PCA agree
    /// with each other and with the data-sheet feature width.
    pub(crate) fn check_shape(&self) -> Result<(), String> {
        self.pca.check_shape()?;
        let widths = [self.normalizer.means().len(), self.normalizer.stds().len(), self.pca.input_width()];
        if widths.iter().any(|&w| w != features::FEATURE_COUNT) {
            return Err(format!(
                "normalizer means, stds and PCA input widths {widths:?} differ from the {} data-sheet features",
                features::FEATURE_COUNT
            ));
        }
        Ok(())
    }

    /// Embedding dimensionality of this codec.
    #[must_use]
    pub fn components(&self) -> usize {
        self.pca.components()
    }

    /// Encodes a GPU into its Blueprint.
    #[must_use]
    pub fn encode(&self, gpu: &GpuSpec) -> Blueprint {
        let fv = FeatureVector::from_spec(gpu);
        let z = self.normalizer.normalize(&fv);
        Blueprint {
            gpu: gpu.name.clone(),
            values: self.pca.transform(&z),
        }
    }

    /// Decodes a Blueprint back to approximate raw data-sheet features.
    #[must_use]
    pub fn decode(&self, blueprint: &Blueprint) -> FeatureVector {
        let z = self.pca.inverse_transform(&blueprint.values);
        self.normalizer.denormalize(&z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;

    fn population() -> Vec<&'static GpuSpec> {
        database::all().iter().collect()
    }

    #[test]
    fn sweep_is_monotone_decreasing_in_loss() {
        let sweep = BlueprintCodec::sweep(&population());
        assert_eq!(sweep.len(), features::FEATURE_COUNT);
        for w in sweep.windows(2) {
            assert!(w[1].rmse <= w[0].rmse + 1e-9, "loss must shrink with size");
            assert!(w[1].explained_variance >= w[0].explained_variance - 1e-9);
        }
        // Full-size blueprint is lossless.
        assert!(sweep.last().unwrap().rmse < 1e-6);
    }

    #[test]
    fn recommended_size_is_a_small_fraction() {
        // Fig. 8's knee: a handful of components carries > 99.5% of the
        // data-sheet variance.
        let k = BlueprintCodec::recommended_components(&population());
        assert!((2..=8).contains(&k), "recommended k = {k}");
    }

    #[test]
    fn encode_decode_roundtrips_within_loss() {
        let pop = population();
        let k = BlueprintCodec::recommended_components(&pop);
        let codec = BlueprintCodec::fit(&pop, k).unwrap();
        let gpu = database::find("RTX 2080 Ti").unwrap();
        let bp = codec.encode(gpu);
        assert_eq!(bp.len(), k);
        let decoded = codec.decode(&bp);
        // Key sampler-relevant fields reconstruct within 20%.
        let truth = FeatureVector::from_spec(gpu);
        for name in ["max_threads_per_sm", "shared_mem_per_sm_kib", "registers_per_sm"] {
            let t = truth.get(name).unwrap();
            let d = decoded.get(name).unwrap();
            assert!((d - t).abs() / t.abs() < 0.2, "{name}: {d} vs {t}");
        }
    }

    #[test]
    fn unseen_gpu_encodes_reasonably() {
        // Leave-one-out: fit without the 3090, encode it anyway.
        let pop: Vec<&GpuSpec> = database::training_gpus("RTX 3090");
        let codec = BlueprintCodec::fit(&pop, 6).unwrap();
        let gpu = database::find("RTX 3090").unwrap();
        let decoded = codec.decode(&codec.encode(gpu));
        let truth = FeatureVector::from_spec(gpu);
        let t = truth.get("fp32_gflops").unwrap();
        let d = decoded.get("fp32_gflops").unwrap();
        assert!((d - t).abs() / t < 0.5, "gflops {d} vs {t}");
    }

    #[test]
    fn blueprints_differ_across_gpus() {
        let pop = population();
        let codec = BlueprintCodec::fit(&pop, 4).unwrap();
        let a = codec.encode(database::find("Titan Xp").unwrap());
        let b = codec.encode(database::find("RTX 3090").unwrap());
        let dist: f64 = a.values.iter().zip(&b.values).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt();
        assert!(dist > 0.5, "distinct GPUs must embed apart (dist {dist})");
    }

    #[test]
    fn fit_rejects_tiny_populations() {
        let one = [database::find("Titan Xp").unwrap()];
        assert!(BlueprintCodec::fit(&one, 2).is_err());
    }

    #[test]
    fn display_mentions_gpu() {
        let pop = population();
        let codec = BlueprintCodec::fit(&pop, 3).unwrap();
        let bp = codec.encode(database::find("GTX 1080").unwrap());
        assert!(bp.to_string().contains("GTX 1080"));
    }
}

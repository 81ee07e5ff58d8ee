//! Hardware-Aware Sampling: the ensemble of threshold predictors (§3.3).
//!
//! "Glimpse generates an ensemble of predictors p for different dimensions
//! of the search space from the Blueprints. … ensemble predictors vote the
//! validity of the configuration. Sampler rejects the configuration if
//! considered invalid by more than τ of the predictors," with τ = 1/3 found
//! by grid search. "These predictors are super fast as they are
//! threshold-based: their time complexity is O(1)" versus Chameleon's
//! clustering at O(n·k·I).
//!
//! Each ensemble member reconstructs approximate launch limits from the
//! (lossy) Blueprint and applies them with its own safety factor; members
//! with tight factors catch borderline configurations, loose members avoid
//! over-rejection, and the τ-vote arbitrates.

use crate::blueprint::{Blueprint, BlueprintCodec};
use glimpse_space::{Config, KernelShape, SearchSpace};
use serde::{Deserialize, Serialize};

/// Default rejection threshold τ (fraction of invalid votes tolerated).
pub const DEFAULT_TAU: f64 = 1.0 / 3.0;
/// Default ensemble size.
pub const DEFAULT_MEMBERS: usize = 7;

/// One member's reconstructed launch limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThresholdPredictor {
    /// Maximum threads per block this member accepts.
    pub max_threads: f64,
    /// Maximum shared-memory bytes per block.
    pub max_shared_bytes: f64,
    /// Maximum registers per thread.
    pub max_regs_per_thread: f64,
    /// Maximum registers per block.
    pub max_regs_per_block: f64,
}

impl ThresholdPredictor {
    /// Whether this member votes the shape **invalid** (O(1): four compares).
    ///
    /// The predictor only sees the configuration and the Blueprint — not the
    /// compiler's exact resource allocation — so it works from *approximate*
    /// estimates: register pressure is taken as the accumulator count
    /// (`work_per_thread`), ignoring address-arithmetic and staging
    /// registers, and shared memory ignores the halo contribution (~10 %).
    /// The systematic underestimation is what lets a small fraction of truly
    /// invalid configurations leak through to measurement, as in the paper
    /// (Fig. 7 reduces invalids 5.56×, it does not eliminate them).
    #[must_use]
    pub fn votes_invalid(&self, shape: &KernelShape) -> bool {
        let est_regs_per_thread = shape.work_per_thread as f64;
        let est_shared = shape.shared_bytes as f64 * 0.9;
        shape.threads_per_block as f64 > self.max_threads
            || est_shared > self.max_shared_bytes
            || est_regs_per_thread > self.max_regs_per_thread
            || est_regs_per_thread * shape.threads_per_block as f64 > self.max_regs_per_block
    }
}

/// The voting ensemble.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleSampler {
    members: Vec<ThresholdPredictor>,
    tau: f64,
}

impl EnsembleSampler {
    /// Generates the ensemble from a Blueprint.
    ///
    /// The Blueprint is decoded back to approximate data-sheet values; the
    /// generation ordinal picks the per-block shared-memory limit the same
    /// way the CUDA occupancy tables key it on compute capability. Member
    /// `i` scales every limit by a factor spread around 1.
    ///
    /// # Panics
    ///
    /// Panics if `members == 0` or `tau` is outside `[0, 1)`.
    // The codec decodes every feature it encodes, and the argument asserts
    // guard the API edge, not a load path.
    #[must_use]
    pub fn from_blueprint(codec: &BlueprintCodec, blueprint: &Blueprint, members: usize, tau: f64) -> Self {
        assert!(members > 0, "ensemble needs at least one member");
        assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        let decoded = codec.decode(blueprint);
        let get = |name: &str| decoded.get(name).expect("feature present");
        // Generation ordinal selects the per-block shared-memory budget,
        // matching how compute capability keys the CUDA occupancy tables.
        let generation = get("generation_ordinal").round().clamp(0.0, 2.0) as u32;
        let shared_block_kib = match generation {
            0 => 48.0,
            1 => 64.0,
            _ => 100.0,
        };
        // Reconstructed (lossy) per-SM limits; per-block thread limit is an
        // architectural constant across the whole database.
        let regs_per_sm = get("registers_per_sm").max(1.0);
        let base = ThresholdPredictor {
            max_threads: 1024.0,
            max_shared_bytes: shared_block_kib * 1024.0,
            max_regs_per_thread: 255.0,
            max_regs_per_block: regs_per_sm,
        };
        let members_vec = (0..members)
            .map(|i| {
                // Spread factors in [0.85, 1.15] around the reconstruction.
                let f = if members == 1 {
                    1.0
                } else {
                    0.85 + 0.30 * i as f64 / (members - 1) as f64
                };
                ThresholdPredictor {
                    max_threads: base.max_threads * f,
                    max_shared_bytes: base.max_shared_bytes * f,
                    max_regs_per_thread: base.max_regs_per_thread * f,
                    max_regs_per_block: base.max_regs_per_block * f,
                }
            })
            .collect();
        Self { members: members_vec, tau }
    }

    /// Ensemble size.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the ensemble is empty (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The rejection threshold τ.
    #[must_use]
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Fraction of members voting a shape invalid.
    #[must_use]
    pub fn invalid_vote_fraction(&self, shape: &KernelShape) -> f64 {
        let votes = self.members.iter().filter(|m| m.votes_invalid(shape)).count();
        votes as f64 / self.members.len() as f64
    }

    /// Whether the sampler lets a shape through to measurement
    /// (rejects when **more than** τ of the members vote invalid).
    #[must_use]
    pub fn accept_shape(&self, shape: &KernelShape) -> bool {
        self.invalid_vote_fraction(shape) <= self.tau
    }

    /// Whether the sampler lets a configuration through.
    #[must_use]
    pub fn accept(&self, space: &SearchSpace, config: &Config) -> bool {
        self.accept_shape(&space.kernel_shape(config))
    }

    /// Filters a candidate list, keeping accepted configurations in order.
    #[must_use]
    pub fn filter(&self, space: &SearchSpace, configs: Vec<Config>) -> Vec<Config> {
        configs.into_iter().filter(|c| self.accept(space, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;
    use glimpse_sim::validity;
    use glimpse_space::templates;
    use glimpse_tensor_prog::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sampler_for(gpu: &str) -> (BlueprintCodec, EnsembleSampler) {
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::training_gpus(gpu);
        let codec = BlueprintCodec::fit(&pop, 6).unwrap();
        let bp = codec.encode(database::find(gpu).unwrap());
        let sampler = EnsembleSampler::from_blueprint(&codec, &bp, DEFAULT_MEMBERS, DEFAULT_TAU);
        (codec, sampler)
    }

    #[test]
    fn ensemble_has_requested_members() {
        let (_, sampler) = sampler_for("RTX 2080 Ti");
        assert_eq!(sampler.len(), DEFAULT_MEMBERS);
        assert!((sampler.tau() - DEFAULT_TAU).abs() < 1e-12);
    }

    #[test]
    fn sampler_catches_most_truly_invalid_configs() {
        // Fig. 7's mechanism: vastly fewer invalid configs reach the GPU.
        let gpu = database::find("RTX 2080 Ti").unwrap();
        let (_, sampler) = sampler_for("RTX 2080 Ti");
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 128, 128, 28, 3, 1, 1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut truly_invalid = 0usize;
        let mut leaked = 0usize; // invalid configs the sampler accepted
        let mut rejected_valid = 0usize;
        let mut truly_valid = 0usize;
        for _ in 0..3000 {
            let c = space.sample_uniform(&mut rng);
            let shape = space.kernel_shape(&c);
            let invalid = validity::check(gpu, &shape).is_err();
            let accepted = sampler.accept_shape(&shape);
            if invalid {
                truly_invalid += 1;
                if accepted {
                    leaked += 1;
                }
            } else {
                truly_valid += 1;
                if !accepted {
                    rejected_valid += 1;
                }
            }
        }
        let leak_rate = leaked as f64 / truly_invalid.max(1) as f64;
        let false_reject = rejected_valid as f64 / truly_valid.max(1) as f64;
        assert!(leak_rate < 0.15, "leak rate {leak_rate}");
        assert!(false_reject < 0.35, "false-reject rate {false_reject}");
    }

    #[test]
    fn pascal_ensemble_is_stricter_on_shared_memory() {
        // Pascal's 48 KiB per-block limit must be reflected even though the
        // sampler only ever saw the Blueprint.
        let (_, pascal) = sampler_for("Titan Xp");
        let (_, ampere) = sampler_for("RTX 3090");
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 128, 128, 28, 3, 1, 1));
        let mut rng = StdRng::seed_from_u64(2);
        let mut pascal_only_rejects = 0;
        for _ in 0..2000 {
            let c = space.sample_uniform(&mut rng);
            let shape = space.kernel_shape(&c);
            if shape.shared_bytes > 48 * 1024
                && shape.shared_bytes <= 100 * 1024
                && !pascal.accept_shape(&shape)
                && ampere.accept_shape(&shape)
            {
                pascal_only_rejects += 1;
            }
        }
        assert!(
            pascal_only_rejects > 10,
            "Pascal sampler must reject mid-size shared memory ({pascal_only_rejects})"
        );
    }

    #[test]
    fn tau_zero_is_strictest() {
        let pop: Vec<&glimpse_gpu_spec::GpuSpec> = database::all().iter().collect();
        let codec = BlueprintCodec::fit(&pop, 6).unwrap();
        let bp = codec.encode(database::find("RTX 2070 Super").unwrap());
        let strict = EnsembleSampler::from_blueprint(&codec, &bp, 7, 0.0);
        let loose = EnsembleSampler::from_blueprint(&codec, &bp, 7, 0.9);
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let mut rng = StdRng::seed_from_u64(3);
        let configs: Vec<_> = (0..500).map(|_| space.sample_uniform(&mut rng)).collect();
        let strict_kept = strict.filter(&space, configs.clone()).len();
        let loose_kept = loose.filter(&space, configs).len();
        assert!(strict_kept <= loose_kept);
    }

    #[test]
    fn filter_preserves_order() {
        let (_, sampler) = sampler_for("RTX 3090");
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let configs: Vec<_> = (0..100).map(|_| space.sample_uniform(&mut rng)).collect();
        let kept = sampler.filter(&space, configs.clone());
        let mut last_pos = 0;
        for c in &kept {
            let pos = configs.iter().position(|x| x == c).unwrap();
            assert!(pos >= last_pos);
            last_pos = pos;
        }
    }
}

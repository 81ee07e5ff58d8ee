//! The analytical latency model.
//!
//! A kernel's latency is the roofline maximum of a compute estimate and a
//! memory estimate, each degraded by efficiency terms derived *only* from
//! data-sheet quantities and the kernel shape:
//!
//! * **occupancy & latency hiding** — resident blocks per SM are limited by
//!   the thread, shared-memory, register, and block limits; the resulting
//!   warp parallelism feeds a saturating latency-hiding curve whose knee
//!   depends on the device clock (higher-clocked parts need more in-flight
//!   warps to cover the same DRAM latency).
//! * **warp quantization** — threads-per-block not a multiple of 32 waste
//!   lanes.
//! * **memory coalescing** — driven by the `threadIdx.x` extent and the
//!   per-thread innermost extent, with a generation-dependent sensitivity
//!   (Pascal is least forgiving).
//! * **wave quantization** — grids that don't fill an integer number of
//!   waves leave SMs idle in the tail.
//! * **unrolling** — `auto_unroll_max_step` buys issue efficiency until the
//!   unrolled body overflows a generation-dependent instruction-cache
//!   budget.
//! * **L2 reuse** — staged traffic beyond the compulsory bytes is absorbed
//!   by L2 in proportion to how much of the working set fits.
//!
//! Because every coefficient is a function of the [`GpuSpec`], the *same*
//! configuration lands at different efficiencies on different GPUs, and the
//! argmax of the space moves between devices — the paper's Fig. 1.

use glimpse_gpu_spec::{Generation, GpuSpec};
use glimpse_space::{Config, KernelShape, SearchSpace};
use glimpse_tensor_prog::TemplateKind;
use serde::{Deserialize, Serialize};

/// Decomposed latency estimate, for inspection and tests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Compute-bound time in seconds.
    pub compute_s: f64,
    /// Memory-bound time in seconds.
    pub memory_s: f64,
    /// Fixed launch overhead in seconds.
    pub launch_s: f64,
    /// Achieved occupancy (resident threads / max threads per SM).
    pub occupancy: f64,
    /// Latency-hiding efficiency in (0, 1].
    pub hiding: f64,
    /// Warp-quantization efficiency in (0, 1].
    pub warp_eff: f64,
    /// Coalescing efficiency in (0, 1].
    pub coalesce: f64,
    /// Wave/tail efficiency in (0, 1].
    pub wave_eff: f64,
    /// Unroll gain (may exceed 1).
    pub unroll_gain: f64,
    /// Shared-memory bank-conflict efficiency in (0, 1].
    pub bank_eff: f64,
    /// Effective DRAM traffic in bytes.
    pub traffic_bytes: f64,
}

impl LatencyBreakdown {
    /// Total modeled latency in seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.launch_s
    }
}

/// The analytical performance model for one GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfModel {
    gpu: GpuSpec,
}

/// Fixed kernel-launch overhead (driver + runtime), seconds.
const LAUNCH_OVERHEAD_S: f64 = 5.0e-6;

/// Fraction of peak FP32 a perfectly tuned direct template can reach (CUDA
/// cores only, no tensor cores — matches TVM fp32 templates).
fn arch_base(template: TemplateKind) -> f64 {
    match template {
        TemplateKind::Conv2dDirect => 0.38,
        TemplateKind::Conv2dWinograd => 0.30,
        TemplateKind::Dense => 0.55,
    }
}

impl PerfModel {
    /// Builds the model for a GPU.
    #[must_use]
    pub fn new(gpu: GpuSpec) -> Self {
        Self { gpu }
    }

    /// The GPU this model prices kernels for.
    #[must_use]
    pub fn gpu(&self) -> &GpuSpec {
        &self.gpu
    }

    /// Resident blocks per SM under all four occupancy limits. At least 1
    /// for any configuration that passes [`crate::validity::check`].
    #[must_use]
    pub fn blocks_per_sm(&self, shape: &KernelShape) -> u64 {
        let gpu = &self.gpu;
        let by_threads = u64::from(gpu.max_threads_per_sm) / shape.threads_per_block.max(1);
        let by_smem = gpu
            .shared_mem_per_sm_bytes()
            .checked_div(shape.shared_bytes)
            .unwrap_or(u64::from(gpu.max_blocks_per_sm));
        let by_regs = if shape.regs_per_block() == 0 {
            u64::from(gpu.max_blocks_per_sm)
        } else {
            u64::from(gpu.registers_per_sm) / shape.regs_per_block()
        };
        by_threads.min(by_smem).min(by_regs).min(u64::from(gpu.max_blocks_per_sm)).max(1)
    }

    /// Full latency decomposition for a lowered kernel with effective FLOPs
    /// `eff_flops` (algorithm-adjusted) under `template`.
    #[must_use]
    pub fn breakdown(&self, template: TemplateKind, eff_flops: f64, compulsory_bytes: f64, shape: &KernelShape) -> LatencyBreakdown {
        let gpu = &self.gpu;
        let blocks_per_sm = self.blocks_per_sm(shape) as f64;
        let resident_threads = blocks_per_sm * shape.threads_per_block as f64;
        let occupancy = (resident_threads / f64::from(gpu.max_threads_per_sm)).min(1.0);

        // Latency hiding: higher clocks need more parallelism to cover DRAM
        // latency; per-thread ILP (independent output accumulators) helps.
        let clock_ratio = gpu.boost_clock_mhz / 1600.0;
        let k_lat = 0.10 + 0.12 * clock_ratio;
        let ilp = 1.0 + 0.30 * (shape.work_per_thread as f64).ln_1p();
        let parallelism = occupancy * ilp;
        let hiding = ((parallelism / (parallelism + k_lat)) * (1.0 + k_lat)).min(1.0);

        // Warp quantization.
        let warps = shape.threads_per_block.div_ceil(u64::from(gpu.warp_size));
        let warp_eff = shape.threads_per_block as f64 / (warps * u64::from(gpu.warp_size)) as f64;

        // Coalescing: contiguous lanes per global transaction.
        let span = (shape.tx as f64) * f64::from(shape.inner_x.min(2));
        let sensitivity = match gpu.generation {
            Generation::Pascal => 0.85,
            Generation::Turing => 0.65,
            Generation::Ampere => 0.55,
        };
        let coalesce = (span / f64::from(gpu.warp_size)).min(1.0).powf(sensitivity).max(0.22);

        // Wave quantization / SM fill.
        let capacity = blocks_per_sm * f64::from(gpu.sm_count);
        let waves = (shape.blocks as f64 / capacity).ceil().max(1.0);
        let wave_eff = (shape.blocks as f64 / (waves * capacity)).min(1.0);

        // Unrolling: issue-rate gain until the unrolled body blows the
        // instruction cache (budget grows with newer generations).
        let icache_budget = match gpu.generation {
            Generation::Pascal => 2048.0,
            Generation::Turing => 4096.0,
            Generation::Ampere => 8192.0,
        };
        let body = shape.work_per_thread as f64 * f64::from(shape.reduce_tile);
        let mut unroll_gain = match shape.unroll_steps {
            0 => 1.0,
            s if s >= 512 => 1.10,
            _ => 1.05,
        };
        if shape.explicit_unroll {
            if body * f64::from(shape.unroll_steps.max(1)).min(body) > icache_budget {
                unroll_gain *= 0.88;
            } else {
                unroll_gain *= 1.03;
            }
        }

        // Shared-memory bank conflicts: the per-warp access stride across
        // the staged tile decides which of the 32 banks collide. This is a
        // high-frequency function of the *exact* split factors (mod-32
        // residues), which is exactly why real TVM spaces are rugged and
        // their optima sparsely distributed (§2.1) — smooth surrogates
        // cannot extrapolate it and must measure.
        let stride = (shape.tx * shape.inner_x.max(1)) % gpu.warp_size;
        let conflict_scale = match gpu.generation {
            Generation::Pascal => 1.0,
            Generation::Turing => 0.8,
            Generation::Ampere => 0.65,
        };
        let bank_eff = if stride == 0 {
            1.0
        } else if stride.is_multiple_of(16) {
            1.0 - 0.22 * conflict_scale
        } else if stride.is_multiple_of(8) {
            1.0 - 0.15 * conflict_scale
        } else if stride.is_multiple_of(2) {
            1.0 - 0.08 * conflict_scale
        } else {
            1.0 - 0.03 * conflict_scale
        };

        // Compute side.
        let compute_eff = arch_base(template) * hiding * warp_eff * wave_eff * unroll_gain * bank_eff;
        let compute_s = eff_flops / (gpu.fp32_gflops * 1e9 * compute_eff.max(1e-4));

        // Memory side: staged traffic beyond compulsory is absorbed by L2 in
        // proportion to how much of the layer's working set fits.
        let raw = (shape.blocks as f64 * shape.block_load_bytes).max(compulsory_bytes);
        let l2_bytes = f64::from(self.gpu.l2_cache_kib) * 1024.0;
        let l2_leak = (1.0 - l2_bytes / compulsory_bytes.max(1.0)).clamp(0.05, 1.0);
        let traffic_bytes = compulsory_bytes + (raw - compulsory_bytes) * l2_leak + shape.output_bytes;
        // Partition camping: grids whose block count is a multiple of the
        // DRAM partition count hammer the same channels in lockstep —
        // another exact-residue effect invisible to log-scale features.
        let partitions = u64::from(gpu.mem_bus_bits / 64).max(1);
        let camping = if shape.blocks.is_multiple_of(partitions) { 0.86 } else { 1.0 };
        let mem_eff = 0.78 * coalesce * camping;
        let memory_s = traffic_bytes / (gpu.mem_bandwidth_gb_s * 1e9 * mem_eff);

        LatencyBreakdown {
            compute_s,
            memory_s,
            launch_s: LAUNCH_OVERHEAD_S,
            occupancy,
            hiding,
            warp_eff,
            coalesce,
            wave_eff,
            unroll_gain,
            bank_eff,
            traffic_bytes,
        }
    }

    /// Noise-free latency (seconds) of `config` in `space`, or `None` if the
    /// configuration is invalid on this GPU.
    #[must_use]
    pub fn latency_s(&self, space: &SearchSpace, config: &Config) -> Option<f64> {
        let shape = space.kernel_shape(config);
        crate::validity::check(&self.gpu, &shape).ok()?;
        let eff_flops = space.op().effective_flops(space.template());
        let compulsory = space.op().compulsory_bytes();
        Some(self.breakdown(space.template(), eff_flops, compulsory, &shape).total_s())
    }

    /// Noise-free throughput in GFLOPS (direct-algorithm FLOP count, the
    /// convention of the paper's Fig. 4), or `None` if invalid.
    #[must_use]
    pub fn throughput_gflops(&self, space: &SearchSpace, config: &Config) -> Option<f64> {
        self.latency_s(space, config).map(|t| space.op().flops() / t / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::{Conv2dSpec, DenseSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn conv_space() -> SearchSpace {
        templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1))
    }

    fn best_of(model: &PerfModel, space: &SearchSpace, n: usize, seed: u64) -> (Config, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<(Config, f64)> = None;
        for _ in 0..n {
            let c = space.sample_uniform(&mut rng);
            if let Some(g) = model.throughput_gflops(space, &c) {
                if best.as_ref().is_none_or(|(_, b)| g > *b) {
                    best = Some((c, g));
                }
            }
        }
        best.expect("at least one valid sample")
    }

    #[test]
    fn good_configs_reach_realistic_gflops() {
        // Fig. 4's y-axes top out around 3000-4000 GFLOPS for conv layers.
        let model = PerfModel::new(database::find("Titan Xp").unwrap().clone());
        let space = conv_space();
        let (_, best) = best_of(&model, &space, 3000, 1);
        assert!(best > 1000.0 && best < 8000.0, "best {best} GFLOPS");
    }

    #[test]
    fn faster_gpu_is_faster_at_its_best() {
        let space = conv_space();
        let titan = PerfModel::new(database::find("Titan Xp").unwrap().clone());
        let ampere = PerfModel::new(database::find("RTX 3090").unwrap().clone());
        let (_, titan_best) = best_of(&titan, &space, 2000, 2);
        let (_, ampere_best) = best_of(&ampere, &space, 2000, 2);
        assert!(ampere_best > titan_best, "3090 {ampere_best} <= Titan {titan_best}");
    }

    #[test]
    fn optimal_config_does_not_transfer_across_gpus() {
        // The Fig. 1 property: transplanting the argmax between GPUs loses
        // performance relative to the target's own argmax.
        let space = conv_space();
        let titan = PerfModel::new(database::find("Titan Xp").unwrap().clone());
        let ti = PerfModel::new(database::find("RTX 2080 Ti").unwrap().clone());
        let (titan_cfg, _) = best_of(&titan, &space, 6000, 3);
        let (ti_cfg, ti_best) = best_of(&ti, &space, 6000, 3);
        if titan_cfg != ti_cfg {
            let transplanted = ti.throughput_gflops(&space, &titan_cfg);
            // The transplanted config may even be invalid; if valid it must
            // not beat the native best.
            if let Some(t) = transplanted {
                assert!(t <= ti_best * 1.0001, "transplant {t} vs native {ti_best}");
            }
        }
    }

    #[test]
    fn dense_batch1_is_memory_bound() {
        let model = PerfModel::new(database::find("RTX 2080 Ti").unwrap().clone());
        let space = templates::dense_space(&DenseSpec::new(1, 4096, 4096));
        // Poorly configured kernels can be compute-bound (e.g. one thread);
        // a *well-tuned* batch-1 dense layer must be memory-bound.
        let (best_cfg, _) = best_of(&model, &space, 2000, 4);
        let shape = space.kernel_shape(&best_cfg);
        let b = model.breakdown(space.template(), space.op().flops(), space.op().compulsory_bytes(), &shape);
        assert!(b.memory_s > b.compute_s, "well-tuned dense should be memory-bound");
    }

    #[test]
    fn occupancy_limits_respected() {
        let model = PerfModel::new(database::find("RTX 2070 Super").unwrap().clone());
        let space = conv_space();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..300 {
            let c = space.sample_uniform(&mut rng);
            let shape = space.kernel_shape(&c);
            let bps = model.blocks_per_sm(&shape);
            assert!(bps >= 1 && bps <= u64::from(model.gpu().max_blocks_per_sm));
        }
    }

    #[test]
    fn latency_is_positive_and_finite_for_valid_configs() {
        let model = PerfModel::new(database::find("GTX 1080").unwrap().clone());
        let space = conv_space();
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen_valid = false;
        for _ in 0..500 {
            let c = space.sample_uniform(&mut rng);
            if let Some(t) = model.latency_s(&space, &c) {
                assert!(t.is_finite() && t > 0.0);
                seen_valid = true;
            }
        }
        assert!(seen_valid);
    }

    #[test]
    fn breakdown_total_matches_roofline() {
        let model = PerfModel::new(database::find("Titan Xp").unwrap().clone());
        let space = conv_space();
        let mut rng = StdRng::seed_from_u64(7);
        let c = loop {
            let c = space.sample_uniform(&mut rng);
            if model.latency_s(&space, &c).is_some() {
                break c;
            }
        };
        let shape = space.kernel_shape(&c);
        let b = model.breakdown(
            space.template(),
            space.op().effective_flops(space.template()),
            space.op().compulsory_bytes(),
            &shape,
        );
        assert!((b.total_s() - (b.compute_s.max(b.memory_s) + b.launch_s)).abs() < 1e-15);
        assert!(b.occupancy > 0.0 && b.occupancy <= 1.0);
        assert!(b.warp_eff > 0.0 && b.warp_eff <= 1.0);
        assert!(b.wave_eff > 0.0 && b.wave_eff <= 1.0);
    }

    #[test]
    fn model_is_deterministic() {
        let model = PerfModel::new(database::find("RTX 3090").unwrap().clone());
        let space = conv_space();
        let mut rng = StdRng::seed_from_u64(8);
        let c = space.sample_uniform(&mut rng);
        assert_eq!(model.latency_s(&space, &c), model.latency_s(&space, &c));
    }
}

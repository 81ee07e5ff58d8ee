//! The typed data-sheet record for a single GPU.

use crate::generation::{Generation, SmArch};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Architectural specification of a GPU, mirroring the fields that public
/// data sheets list (§3.1 of the paper: "the number of different
/// processors/cores, bus interfaces, cache size, clock cycles, and the
/// compute capacity in GFLOPS").
///
/// All limits are per the vendor's published numbers; derived quantities
/// (total core count, bytes per clock, ridge point) are provided as methods
/// so the record itself stays a faithful transcription of the sheet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"RTX 2080 Ti"`.
    pub name: String,
    /// Micro-architecture generation.
    pub generation: Generation,
    /// Compute capability (`gencode`).
    pub sm_arch: SmArch,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// FP32 CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Base core clock in MHz.
    pub base_clock_mhz: f64,
    /// Boost core clock in MHz.
    pub boost_clock_mhz: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub mem_bandwidth_gb_s: f64,
    /// Memory bus width in bits.
    pub mem_bus_bits: u32,
    /// DRAM capacity in GiB.
    pub mem_size_gib: f64,
    /// L2 cache size in KiB.
    pub l2_cache_kib: u32,
    /// Shared memory per SM in KiB.
    pub shared_mem_per_sm_kib: u32,
    /// Maximum shared memory a single thread block may allocate, in KiB.
    pub max_shared_mem_per_block_kib: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Threads per warp (32 on every NVIDIA part).
    pub warp_size: u32,
    /// Peak FP32 throughput in GFLOPS at boost clock.
    pub fp32_gflops: f64,
    /// Board power in watts.
    pub tdp_w: f64,
}

impl GpuSpec {
    /// Total FP32 CUDA cores on the device.
    #[must_use]
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }

    /// Peak FP32 GFLOPS recomputed from cores and boost clock
    /// (`2 × cores × clock`), for cross-checking the data-sheet figure.
    #[must_use]
    pub fn derived_fp32_gflops(&self) -> f64 {
        2.0 * f64::from(self.total_cores()) * self.boost_clock_mhz / 1000.0
    }

    /// Arithmetic intensity (FLOP/byte) at which the device transitions from
    /// memory- to compute-bound under a roofline model.
    #[must_use]
    pub fn ridge_point_flops_per_byte(&self) -> f64 {
        self.fp32_gflops / self.mem_bandwidth_gb_s
    }

    /// Shared memory per SM in bytes.
    #[must_use]
    pub fn shared_mem_per_sm_bytes(&self) -> u64 {
        u64::from(self.shared_mem_per_sm_kib) * 1024
    }

    /// Maximum shared memory per block in bytes.
    #[must_use]
    pub fn max_shared_mem_per_block_bytes(&self) -> u64 {
        u64::from(self.max_shared_mem_per_block_kib) * 1024
    }

    /// Verifies the record's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] describing the first violated invariant:
    /// a NaN/infinite/non-positive numeric field (every float here is a
    /// divisor or PCA input downstream, so one NaN poisons the whole
    /// blueprint), zero structural counts, clocks out of order, a
    /// data-sheet GFLOPS figure more than 25 % away from
    /// `2 × cores × boost clock`, or a block shared-memory limit exceeding
    /// the per-SM pool.
    pub fn validate(&self) -> Result<(), SpecError> {
        // Finite-and-positive sweep over every float field first: NaN
        // compares false against thresholds, so the ordering checks below
        // would silently pass a poisoned record.
        for (field, value) in [
            ("base_clock_mhz", self.base_clock_mhz),
            ("boost_clock_mhz", self.boost_clock_mhz),
            ("mem_bandwidth_gb_s", self.mem_bandwidth_gb_s),
            ("mem_size_gib", self.mem_size_gib),
            ("fp32_gflops", self.fp32_gflops),
            ("tdp_w", self.tdp_w),
        ] {
            if !value.is_finite() {
                return Err(SpecError::new(&self.name, &format!("{field} must be finite, got {value}")));
            }
            if value <= 0.0 {
                return Err(SpecError::new(&self.name, &format!("{field} must be positive, got {value}")));
            }
        }
        if self.sm_count == 0 || self.cores_per_sm == 0 {
            return Err(SpecError::new(&self.name, "core counts must be positive"));
        }
        if self.l2_cache_kib == 0 || self.shared_mem_per_sm_kib == 0 || self.registers_per_sm == 0 {
            return Err(SpecError::new(&self.name, "cache and register files must be positive"));
        }
        if self.max_threads_per_sm == 0 || self.max_threads_per_block == 0 || self.max_blocks_per_sm == 0 {
            return Err(SpecError::new(&self.name, "occupancy limits must be positive"));
        }
        if self.boost_clock_mhz < self.base_clock_mhz {
            return Err(SpecError::new(&self.name, "clocks must satisfy 0 < base <= boost"));
        }
        if self.mem_bus_bits == 0 {
            return Err(SpecError::new(&self.name, "memory system must be positive"));
        }
        if self.warp_size != 32 {
            return Err(SpecError::new(&self.name, "warp size must be 32"));
        }
        if self.max_threads_per_block > self.max_threads_per_sm {
            return Err(SpecError::new(&self.name, "block thread limit cannot exceed SM thread limit"));
        }
        if self.max_shared_mem_per_block_kib > self.shared_mem_per_sm_kib {
            return Err(SpecError::new(
                &self.name,
                "block shared-memory limit cannot exceed the per-SM pool",
            ));
        }
        let derived = self.derived_fp32_gflops();
        let relative_gap = (derived - self.fp32_gflops).abs() / self.fp32_gflops;
        if relative_gap > 0.25 {
            return Err(SpecError::new(
                &self.name,
                "data-sheet GFLOPS disagrees with 2 x cores x boost clock",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for GpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} {}, {} SMs, {:.0} GFLOPS, {:.0} GB/s)",
            self.name, self.generation, self.sm_arch, self.sm_count, self.fp32_gflops, self.mem_bandwidth_gb_s
        )
    }
}

/// Error describing an internally inconsistent [`GpuSpec`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    gpu: String,
    problem: String,
}

impl SpecError {
    fn new(gpu: &str, problem: &str) -> Self {
        Self {
            gpu: gpu.to_owned(),
            problem: problem.to_owned(),
        }
    }

    /// Name of the GPU whose record failed validation.
    #[must_use]
    pub fn gpu(&self) -> &str {
        &self.gpu
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec for {}: {}", self.gpu, self.problem)
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use crate::database;

    #[test]
    fn every_database_entry_validates() {
        for gpu in database::all() {
            gpu.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn derived_gflops_tracks_datasheet() {
        for gpu in database::all() {
            let gap = (gpu.derived_fp32_gflops() - gpu.fp32_gflops).abs() / gpu.fp32_gflops;
            assert!(
                gap < 0.25,
                "{}: derived {:.0} vs sheet {:.0}",
                gpu.name,
                gpu.derived_fp32_gflops(),
                gpu.fp32_gflops
            );
        }
    }

    #[test]
    fn ridge_points_are_compute_heavier_for_newer_parts() {
        let titan = database::find("Titan Xp").unwrap();
        let ampere = database::find("RTX 3090").unwrap();
        assert!(ampere.ridge_point_flops_per_byte() > titan.ridge_point_flops_per_byte());
    }

    #[test]
    fn validation_rejects_inconsistent_records() {
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.warp_size = 64;
        assert!(gpu.validate().is_err());
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.fp32_gflops *= 3.0;
        assert!(gpu.validate().is_err());
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.max_shared_mem_per_block_kib = gpu.shared_mem_per_sm_kib + 1;
        assert!(gpu.validate().is_err());
    }

    #[test]
    fn validation_rejects_nan_and_non_finite_fields() {
        // NaN compares false against every threshold, so these records used
        // to validate silently and poison blueprint PCA downstream.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..6 {
                let mut gpu = database::find("Titan Xp").unwrap().clone();
                match field {
                    0 => gpu.base_clock_mhz = bad,
                    1 => gpu.boost_clock_mhz = bad,
                    2 => gpu.mem_bandwidth_gb_s = bad,
                    3 => gpu.mem_size_gib = bad,
                    4 => gpu.fp32_gflops = bad,
                    _ => gpu.tdp_w = bad,
                }
                assert!(gpu.validate().is_err(), "{bad} in float field {field} accepted");
            }
        }
    }

    #[test]
    fn validation_rejects_negative_and_zero_division_prone_fields() {
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.mem_size_gib = -11.0;
        assert!(gpu.validate().is_err(), "negative memory size accepted");
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.tdp_w = 0.0;
        assert!(gpu.validate().is_err(), "zero TDP accepted (divides power features)");
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.mem_bandwidth_gb_s = 0.0;
        assert!(gpu.validate().is_err(), "zero bandwidth accepted (divides ridge point)");
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.fp32_gflops = 0.0;
        assert!(gpu.validate().is_err(), "zero GFLOPS accepted (divides relative gap)");
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.max_threads_per_sm = 0;
        assert!(gpu.validate().is_err(), "zero SM thread limit accepted (divides warp occupancy)");
        let mut gpu = database::find("Titan Xp").unwrap().clone();
        gpu.l2_cache_kib = 0;
        assert!(gpu.validate().is_err(), "zero L2 accepted");
    }

    #[test]
    fn display_mentions_name_and_arch() {
        let gpu = database::find("RTX 3090").unwrap();
        let text = gpu.to_string();
        assert!(text.contains("RTX 3090") && text.contains("sm_86"));
    }

    #[test]
    fn serde_roundtrip_preserves_spec() {
        let gpu = database::find("RTX 2070 Super").unwrap();
        let json = serde_json::to_string(gpu).unwrap();
        let back: super::GpuSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, gpu);
    }
}

//! Derived kernel shape: how a configuration lowers to GPU resources.
//!
//! Each template has fixed *binding semantics* (which split parts become
//! `blockIdx`, `vthread`, `threadIdx`, and per-thread work, mirroring TVM's
//! CUDA schedules). [`Semantics::kernel_shape`] applies those semantics to a
//! choice of knob values, producing the resource footprint the simulator
//! prices: threads, virtual threads, grid size, shared memory, registers,
//! and the loop structure relevant to coalescing and unrolling.

use glimpse_tensor_prog::{Conv2dSpec, DenseSpec};
use serde::{Deserialize, Serialize};

/// Resource and loop-structure summary of one lowered kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelShape {
    /// Threads per block (`threadIdx` extent product).
    pub threads_per_block: u64,
    /// Virtual threads (TVM `vthread` product): register-level replication.
    pub vthreads: u64,
    /// Grid size in blocks.
    pub blocks: u64,
    /// Shared memory bytes per block (double-buffer staging of one
    /// reduction-outer step).
    pub shared_bytes: u64,
    /// Estimated registers per thread (accumulators + operand staging).
    pub regs_per_thread: u64,
    /// Output elements computed per thread (including vthread replication).
    pub work_per_thread: u64,
    /// Innermost contiguous output extent per thread (write coalescing).
    pub inner_x: u32,
    /// `threadIdx.x` extent (read/write coalescing partner).
    pub tx: u32,
    /// Reduction tile per shared-memory stage (reuse granularity).
    pub reduce_tile: u32,
    /// Total reduction length.
    pub reduce_len: u64,
    /// Requested `auto_unroll_max_step` value.
    pub unroll_steps: u32,
    /// Whether `unroll_explicit` is set.
    pub explicit_unroll: bool,
    /// Bytes each block loads from DRAM/L2 per full reduction (input +
    /// weight staging traffic, before cache effects).
    pub block_load_bytes: f64,
    /// Total output bytes written by the kernel.
    pub output_bytes: f64,
}

impl KernelShape {
    /// Total concurrent threads launched (blocks × threads-per-block).
    #[must_use]
    pub fn total_threads(&self) -> u64 {
        self.blocks * self.threads_per_block
    }

    /// Total register demand of one block, in 32-bit registers.
    #[must_use]
    pub fn regs_per_block(&self) -> u64 {
        self.regs_per_thread * self.threads_per_block
    }
}

/// Template binding semantics: the fixed mapping from split factors to GPU
/// resources for each of the three code templates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Semantics {
    /// Direct tiled convolution (`conv2d_nchw.cuda`).
    ConvDirect(Conv2dSpec),
    /// Winograd convolution with output tile `m` (`conv2d_nchw_winograd.cuda`).
    ConvWinograd {
        /// The convolution workload.
        spec: Conv2dSpec,
        /// Winograd output tile size (2 for F(2×2, r×r)).
        m: u32,
    },
    /// Dense / matrix–vector product (`dense.cuda`).
    Dense(DenseSpec),
}

/// A knob-value view the semantics consume: split factors by knob order.
/// Produced by `SearchSpace::kernel_shape`; kept separate so `kernel` has no
/// dependency on the config machinery.
#[derive(Debug, Clone)]
pub struct ResolvedKnobs<'a> {
    /// Split-factor slices per split knob, in template knob order.
    pub splits: Vec<&'a [u32]>,
    /// `auto_unroll_max_step` value.
    pub unroll_steps: u32,
    /// `unroll_explicit` flag.
    pub explicit_unroll: bool,
}

impl Semantics {
    /// Number of tiles in the Winograd P dimension for `spec` with tile `m`.
    #[must_use]
    pub fn winograd_tiles(spec: &Conv2dSpec, m: u32) -> u32 {
        let nh = spec.out_h().div_ceil(m);
        let nw = spec.out_w().div_ceil(m);
        spec.batch * nh * nw
    }

    /// Applies the template's binding semantics to resolved knob values.
    ///
    /// # Panics
    ///
    /// Panics if the split list does not match the template's knob layout
    /// (callers go through `SearchSpace`, which constructs both together).
    #[must_use]
    pub fn kernel_shape(&self, knobs: &ResolvedKnobs<'_>) -> KernelShape {
        match self {
            Semantics::ConvDirect(spec) => conv_direct_shape(spec, knobs),
            Semantics::ConvWinograd { spec, m } => winograd_shape(spec, *m, knobs),
            Semantics::Dense(spec) => dense_shape(spec, knobs),
        }
    }
}

const FLOAT_BYTES: u64 = 4;
/// Baseline per-thread register cost of address arithmetic and loop state.
const BASE_REGS: u64 = 24;

fn conv_direct_shape(spec: &Conv2dSpec, knobs: &ResolvedKnobs<'_>) -> KernelShape {
    // Knob order: tile_f, tile_y, tile_x (4-way), tile_rc, tile_ry, tile_rx (2-way).
    let f = knobs.splits[0];
    let y = knobs.splits[1];
    let x = knobs.splits[2];
    let rc = knobs.splits[3];
    let ry = knobs.splits[4];
    let rx = knobs.splits[5];
    let (bf, vf, tf, fi) = (f[0], f[1], f[2], f[3]);
    let (by, vy, ty, yi) = (y[0], y[1], y[2], y[3]);
    let (bx, vx, tx, xi) = (x[0], x[1], x[2], x[3]);
    let (rci, ryi, rxi) = (rc[1], ry[1], rx[1]);

    let threads = u64::from(tf) * u64::from(ty) * u64::from(tx);
    let vthreads = u64::from(vf) * u64::from(vy) * u64::from(vx);
    let blocks = u64::from(bf) * u64::from(by) * u64::from(bx) * u64::from(spec.batch);

    // Block-level output tile.
    let f_blk = u64::from(vf * tf * fi);
    let y_blk = u64::from(vy * ty * yi);
    let x_blk = u64::from(vx * tx * xi);

    // Shared staging for one (rc, ry, rx)-outer step: an input halo tile and
    // a weight tile, as in TVM's conv2d_nchw.cuda cache_read stages.
    let in_tile_h = (y_blk - 1) * u64::from(spec.stride) + u64::from(ryi);
    let in_tile_w = (x_blk - 1) * u64::from(spec.stride) + u64::from(rxi);
    let input_stage = u64::from(rci) * in_tile_h * in_tile_w;
    let weight_stage = f_blk * u64::from(rci) * u64::from(ryi) * u64::from(rxi);
    let shared_bytes = (input_stage + weight_stage) * FLOAT_BYTES;

    // vthread replicates accumulators in registers.
    let accumulators = vthreads * u64::from(fi) * u64::from(yi) * u64::from(xi);
    let operand_regs = u64::from(fi) + u64::from(xi) + u64::from(rci).min(8);
    let regs_per_thread = BASE_REGS + accumulators + operand_regs;

    let reduce_len = u64::from(spec.in_channels) * u64::from(spec.kernel_h) * u64::from(spec.kernel_w);
    let outer_steps = reduce_len / (u64::from(rci) * u64::from(ryi) * u64::from(rxi));
    let block_load_bytes = (input_stage + weight_stage) as f64 * outer_steps as f64 * FLOAT_BYTES as f64;

    KernelShape {
        threads_per_block: threads,
        vthreads,
        blocks,
        shared_bytes,
        regs_per_thread,
        work_per_thread: vthreads * u64::from(fi) * u64::from(yi) * u64::from(xi),
        inner_x: xi,
        tx,
        reduce_tile: rci * ryi * rxi,
        reduce_len,
        unroll_steps: knobs.unroll_steps,
        explicit_unroll: knobs.explicit_unroll,
        block_load_bytes,
        output_bytes: spec.output_bytes(),
    }
}

fn winograd_shape(spec: &Conv2dSpec, m: u32, knobs: &ResolvedKnobs<'_>) -> KernelShape {
    // Knob order: tile_p, tile_f (4-way), tile_rc (2-way). The batched GEMM
    // over alpha^2 transformed domains dominates; P = batch x tile grid.
    let p = knobs.splits[0];
    let f = knobs.splits[1];
    let rc = knobs.splits[2];
    let (bp, vp, tp, pi) = (p[0], p[1], p[2], p[3]);
    let (bf, vf, tf, fi) = (f[0], f[1], f[2], f[3]);
    let rci = rc[1];
    let alpha = m + spec.kernel_h - 1;
    let alpha2 = u64::from(alpha) * u64::from(alpha);

    let threads = u64::from(tp) * u64::from(tf);
    let vthreads = u64::from(vp) * u64::from(vf);
    let blocks = u64::from(bp) * u64::from(bf) * alpha2;

    let p_blk = u64::from(vp * tp * pi);
    let f_blk = u64::from(vf * tf * fi);
    let stage = u64::from(rci) * (p_blk + f_blk);
    let shared_bytes = stage * FLOAT_BYTES;

    let accumulators = vthreads * u64::from(pi) * u64::from(fi);
    let regs_per_thread = BASE_REGS + accumulators + u64::from(pi) + u64::from(fi);

    let reduce_len = u64::from(spec.in_channels);
    let outer_steps = reduce_len / u64::from(rci);
    // Transform stages add roughly one extra pass over input and output.
    let block_load_bytes = stage as f64 * outer_steps as f64 * FLOAT_BYTES as f64 * 1.5;

    KernelShape {
        threads_per_block: threads,
        vthreads,
        blocks,
        shared_bytes,
        regs_per_thread,
        work_per_thread: vthreads * u64::from(pi) * u64::from(fi),
        inner_x: pi,
        tx: tp,
        reduce_tile: rci,
        reduce_len,
        unroll_steps: knobs.unroll_steps,
        explicit_unroll: knobs.explicit_unroll,
        block_load_bytes,
        output_bytes: spec.output_bytes() * 1.5,
    }
}

fn dense_shape(spec: &DenseSpec, knobs: &ResolvedKnobs<'_>) -> KernelShape {
    // Knob order: tile_y (4-way over out_features), tile_k (2-way reduction).
    let y = knobs.splits[0];
    let k = knobs.splits[1];
    let (by, vy, ty, yi) = (y[0], y[1], y[2], y[3]);
    let ki = k[1];

    let threads = u64::from(ty);
    let vthreads = u64::from(vy);
    let blocks = u64::from(by) * u64::from(spec.batch);

    let y_blk = u64::from(vy * ty * yi);
    // Stage the shared input slice once per k-outer step plus a weight tile.
    let stage = u64::from(ki) + y_blk * u64::from(ki);
    let shared_bytes = stage * FLOAT_BYTES;

    let accumulators = vthreads * u64::from(yi);
    let regs_per_thread = BASE_REGS + accumulators + u64::from(ki).min(16);

    let reduce_len = u64::from(spec.in_features);
    let outer_steps = reduce_len / u64::from(ki);
    let block_load_bytes = stage as f64 * outer_steps as f64 * FLOAT_BYTES as f64;

    KernelShape {
        threads_per_block: threads,
        vthreads,
        blocks,
        shared_bytes,
        regs_per_thread,
        work_per_thread: vthreads * u64::from(yi),
        inner_x: yi,
        tx: ty,
        reduce_tile: ki,
        reduce_len,
        unroll_steps: knobs.unroll_steps,
        explicit_unroll: knobs.explicit_unroll,
        block_load_bytes,
        output_bytes: spec.output_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv() -> Conv2dSpec {
        Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1)
    }

    fn resolved<'a>(splits: Vec<&'a [u32]>) -> ResolvedKnobs<'a> {
        ResolvedKnobs {
            splits,
            unroll_steps: 512,
            explicit_unroll: true,
        }
    }

    #[test]
    #[allow(clippy::identity_op, reason = "1-factors spell out the tile structure")]
    fn conv_direct_threads_and_blocks_cover_output() {
        let spec = conv();
        let f: &[u32] = &[1, 2, 8, 4];
        let y: &[u32] = &[7, 1, 8, 1];
        let x: &[u32] = &[7, 1, 4, 2];
        let rc: &[u32] = &[16, 4];
        let ry: &[u32] = &[3, 1];
        let rx: &[u32] = &[1, 3];
        let shape = Semantics::ConvDirect(spec).kernel_shape(&resolved(vec![f, y, x, rc, ry, rx]));
        assert_eq!(shape.threads_per_block, 8 * 8 * 4);
        assert_eq!(shape.blocks, 1 * 7 * 7);
        // Output coverage: blocks x block-tile == full output volume.
        let per_block = 2 * 8 * 4 * (1 * 8 * 1) * (1 * 4 * 2);
        assert_eq!(shape.blocks * per_block, 64u64 * 56 * 56);
        assert_eq!(shape.reduce_len, 64 * 9);
        assert_eq!(shape.reduce_tile, 4 * 1 * 3);
        assert!(shape.shared_bytes > 0);
    }

    #[test]
    fn vthread_inflates_registers_not_threads() {
        let spec = conv();
        let small: &[u32] = &[8, 1, 8, 1];
        let big_v: &[u32] = &[8, 8, 1, 1]; // same block tile, vthread-heavy
        let y: &[u32] = &[56, 1, 1, 1];
        let x: &[u32] = &[56, 1, 1, 1];
        let rc: &[u32] = &[64, 1];
        let r1: &[u32] = &[3, 1];
        let sem = Semantics::ConvDirect(spec);
        let a = sem.kernel_shape(&resolved(vec![small, y, x, rc, r1, r1]));
        let b = sem.kernel_shape(&resolved(vec![big_v, y, x, rc, r1, r1]));
        assert!(b.threads_per_block < a.threads_per_block);
        assert!(b.regs_per_thread > a.regs_per_thread);
    }

    #[test]
    fn winograd_grid_includes_alpha_squared() {
        let spec = conv();
        let m = 2;
        let p_tiles = Semantics::winograd_tiles(&spec, m);
        assert_eq!(p_tiles, 28 * 28);
        let p: &[u32] = &[49, 1, 16, 1];
        let f: &[u32] = &[4, 1, 16, 1];
        let rc: &[u32] = &[8, 8];
        let shape = Semantics::ConvWinograd { spec, m }.kernel_shape(&resolved(vec![p, f, rc]));
        // alpha = 4, alpha^2 = 16 independent GEMMs in the grid.
        assert_eq!(shape.blocks, 49 * 4 * 16);
        assert_eq!(shape.threads_per_block, 256);
    }

    #[test]
    fn dense_shape_reflects_reduction_split() {
        let spec = DenseSpec::new(1, 512, 1000);
        let y: &[u32] = &[25, 1, 40, 1];
        let k: &[u32] = &[8, 64];
        let shape = Semantics::Dense(spec).kernel_shape(&resolved(vec![y, k]));
        assert_eq!(shape.threads_per_block, 40);
        assert_eq!(shape.blocks, 25);
        assert_eq!(shape.reduce_tile, 64);
        assert_eq!(shape.reduce_len, 512);
    }

    #[test]
    fn bigger_tiles_mean_more_shared_memory() {
        let spec = conv();
        let y: &[u32] = &[56, 1, 1, 1];
        let x: &[u32] = &[56, 1, 1, 1];
        let r1: &[u32] = &[3, 1];
        let sem = Semantics::ConvDirect(spec);
        let small_rc: &[u32] = &[64, 1];
        let big_rc: &[u32] = &[1, 64];
        let f: &[u32] = &[8, 1, 8, 1];
        let small = sem.kernel_shape(&resolved(vec![f, y, x, small_rc, r1, r1]));
        let big = sem.kernel_shape(&resolved(vec![f, y, x, big_rc, r1, r1]));
        assert!(big.shared_bytes > small.shared_bytes);
    }

    #[test]
    fn total_threads_is_product() {
        let spec = DenseSpec::new(1, 512, 1000);
        let y: &[u32] = &[25, 1, 40, 1];
        let k: &[u32] = &[8, 64];
        let shape = Semantics::Dense(spec).kernel_shape(&resolved(vec![y, k]));
        assert_eq!(shape.total_threads(), 25 * 40);
        assert_eq!(shape.regs_per_block(), shape.regs_per_thread * 40);
    }
}

//! TVM-style configuration search spaces.
//!
//! Neural compilers optimize a configuration `s ∈ S` of a *code template*
//! (§2.1): tiling split factors, virtual-thread bindings, unroll pragmas, and
//! similar schedule knobs. This crate reproduces the structure of TVM's CUDA
//! search spaces for the three templates of Table 1:
//!
//! * [`templates::conv2d_direct_space`] — `tile_f/y/x` 4-way splits,
//!   `tile_rc/ry/rx` 2-way reduction splits, unroll knobs. The first layer of
//!   VGG-16 yields **over 200 million** configurations, matching §2.1.
//! * [`templates::conv2d_winograd_space`] — tile-domain splits.
//! * [`templates::dense_space`] — output/reduction splits.
//!
//! A [`SearchSpace`] owns the knob list and maps a [`Config`] (one choice per
//! knob) to the derived [`KernelShape`] — threads, blocks, shared memory,
//! registers — which the simulator crate prices and validity-checks.
//!
//! # Examples
//!
//! ```
//! use glimpse_space::templates;
//! use glimpse_tensor_prog::Conv2dSpec;
//! use rand::SeedableRng;
//!
//! let op = Conv2dSpec::square(1, 3, 64, 224, 3, 1, 1);
//! let space = templates::conv2d_direct_space(&op);
//! assert!(space.size() > 200_000_000);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = space.sample_uniform(&mut rng);
//! let shape = space.kernel_shape(&config);
//! assert!(shape.threads_per_block >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod factorize;
pub mod kernel;
pub mod knob;
pub mod templates;

pub use config::{Config, SearchSpace};
pub use kernel::KernelShape;
pub use knob::{Knob, KnobValue};

//! GPU data-sheet database and feature extraction.
//!
//! Glimpse (DAC 2022, §3.1) builds its *Blueprint* embedding from the
//! architectural specifications that GPU vendors publish in data sheets:
//! processor/core counts, bus interfaces, cache sizes, clocks, and compute
//! capacity in GFLOPS. This crate is the reproduction's stand-in for those
//! public data sheets: a typed [`GpuSpec`] record, a database of 24 GPUs
//! spanning the Pascal, Turing, and Ampere generations (including the four
//! evaluation GPUs of the paper's Table 1), and the numeric
//! [`FeatureVector`] extraction that the Blueprint PCA consumes.
//!
//! # Examples
//!
//! ```
//! use glimpse_gpu_spec::{database, FeatureVector};
//!
//! let gpu = database::find("RTX 2080 Ti").expect("in database");
//! assert_eq!(gpu.sm_count, 68);
//! let features = FeatureVector::from_spec(gpu);
//! assert_eq!(features.len(), glimpse_gpu_spec::features::FEATURE_COUNT);
//! ```

#![forbid(unsafe_code)]

pub mod database;
pub mod datasheet;
pub mod features;
pub mod generation;
pub mod spec;

pub use features::{FeatureVector, Normalizer};
pub use generation::{Generation, SmArch};
pub use spec::GpuSpec;

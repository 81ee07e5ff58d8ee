//! From-scratch ML primitives for the Glimpse reproduction.
//!
//! The paper's stack needs a small but complete machine-learning toolbox:
//!
//! * [`pca`] — principal component analysis for the *Blueprint* embedding
//!   (§3.1 uses PCA over neural autoencoders for its intuitive
//!   size/information-loss knob, Fig. 8).
//! * [`mlp`] — light-weight, weight-only multi-layer perceptrons for the
//!   prior-distribution generator `H` and the neural acquisition function,
//!   and the [`mlp::Adam`] optimizer that trains them offline on flat
//!   row-major mini-batches through the same layer kernel as
//!   [`Mlp::predict`].
//! * [`gp`] — Gaussian-process regression for the DGP baseline (Sun et al.).
//! * [`gbt`] — gradient-boosted regression trees, the AutoTVM-style
//!   surrogate cost model.
//! * [`kmeans`] — clustering for Chameleon's adaptive sampling.
//! * [`sa`] — batched parallel simulated-annealing chains, the Markov-chain
//!   search engine of AutoTVM/Chameleon (§4.2), behind one cancellable
//!   entry point, [`sa::anneal`]; each chain scores a state once.
//! * [`parallel`] — one deterministic map over scoped worker threads that
//!   claim small blocks of items from a shared counter; the
//!   work-distribution layer under [`sa`], [`gbt`], and [`gp`]'s hot paths
//!   and the offline meta-training (`--threads` / `GLIMPSE_THREADS`
//!   control it).
//! * [`linalg`], [`stats`] — dense matrices, eigen decomposition, and the
//!   summary statistics (geomean, quantiles, softmax) the harness reports.
//!
//! Everything is implemented on `f64` slices with seeded [`rand`] RNGs so
//! that every experiment in the reproduction is deterministic.

#![forbid(unsafe_code)]

pub mod gbt;
pub mod gp;
pub mod kmeans;
pub mod linalg;
pub mod mlp;
pub mod parallel;
pub mod pca;
pub mod rank;
pub mod sa;
pub mod stats;

pub use linalg::Matrix;
pub use mlp::Mlp;
pub use pca::Pca;

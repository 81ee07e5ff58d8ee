//! Experiment harnesses reproducing every table and figure of the paper.
//!
//! Each binary regenerates one artifact (`cargo run -p glimpse-bench
//! --release --bin fig1`), except `--bin e2e`, which renders Figs. 6, 7, 9
//! and Table 2 from the one end-to-end grid; `--bin all` runs the full
//! evaluation and writes machine-readable results under `results/`. The mapping from binaries to
//! the paper's tables/figures lives in `DESIGN.md`; measured-vs-paper
//! numbers are recorded in `EXPERIMENTS.md`.
//!
//! Two more binaries enforce an overhead gate rather than render a paper
//! artifact: `--bin checkpoint` (WAL append under 5 % of a round) and
//! `--bin degradation` (envelope verification under 1 % of a round). Per-layer
//! host timings (SA, surrogate fit and predict, sampler vote, prior sampling,
//! the simulator, journal append/fsync/resume) come from `tunebench`, the
//! standalone benchmark package at the repository root.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod experiment;
pub mod report;
pub mod timing;

pub use experiment::{BudgetMode, ModelGpuResult, TaskRun, TunerKind};

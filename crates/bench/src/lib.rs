//! Experiment harnesses reproducing every table and figure of the paper.
//!
//! Each binary regenerates one artifact (`cargo run -p glimpse-bench
//! --release --bin fig1`), except `--bin e2e`, which renders Figs. 6, 7, 9
//! and Table 2 from the one end-to-end grid; `--bin all` runs the full
//! evaluation and writes machine-readable results under `results/`. The mapping from binaries to
//! the paper's tables/figures lives in `DESIGN.md`; measured-vs-paper
//! numbers are recorded in `EXPERIMENTS.md`.
//!
//! Criterion benches (`cargo bench -p glimpse-bench`) time the component
//! hot paths behind the paper's overhead claims: the O(1) sampler vote, the
//! Blueprint encode, prior sampling, the simulator itself, and the
//! surrogate/SA machinery.

#![forbid(unsafe_code)]

pub mod e2e;
pub mod experiment;
pub mod report;
pub mod timing;

pub use experiment::{BudgetMode, ModelGpuResult, TaskRun, TunerKind};

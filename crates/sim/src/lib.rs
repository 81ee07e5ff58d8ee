//! Analytical GPU performance simulator.
//!
//! The paper measures candidate binaries on real GPUs over RPC; this crate is
//! that oracle's stand-in. It prices a lowered kernel
//! ([`glimpse_space::KernelShape`]) on a GPU data sheet
//! ([`glimpse_gpu_spec::GpuSpec`]) with an occupancy-aware roofline model
//! ([`model::PerfModel`]) whose efficiency terms are all derived from
//! data-sheet quantities — so *different GPUs have different optima over a
//! similar-looking space*, the property Fig. 1 of the paper demonstrates and
//! Glimpse's Blueprint exploits.
//!
//! Hard resource violations (thread/shared-memory/register limits,
//! [`validity`]) make a configuration **invalid**, reproducing the ~10 %
//! invalid-measurement rate §4.3 reports for TVM's spaces. The
//! [`measure::Measurer`] adds seeded log-normal noise and debits a simulated
//! clock per measurement, which is what the paper's "GPU hours" columns count.
//!
//! # Examples
//!
//! ```
//! use glimpse_gpu_spec::database;
//! use glimpse_sim::measure::Measurer;
//! use glimpse_space::templates;
//! use glimpse_tensor_prog::Conv2dSpec;
//! use rand::SeedableRng;
//!
//! let gpu = database::find("Titan Xp").unwrap();
//! let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
//! let mut measurer = Measurer::new(gpu.clone(), 42);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let config = space.sample_uniform(&mut rng);
//! let result = measurer.measure(&space, &config);
//! assert!(measurer.elapsed_gpu_seconds() > 0.0);
//! # let _ = result;
//! ```

#![forbid(unsafe_code)]

pub mod fault;
pub mod measure;
pub mod model;
pub mod pool;
pub mod retry;
pub mod validity;

pub use fault::{ArtifactFaults, FaultPlan, FaultRates, InjectorState, MeasureFault, StorageFaults};
pub use measure::{MeasureResult, Measurer, MeasurerState, Outcome};
pub use model::PerfModel;
pub use pool::{DeviceError, DevicePool, DeviceStatus, PoolSummary};
pub use retry::{measure_with_retry, RetriedMeasure, RetryPolicy};
pub use validity::InvalidReason;

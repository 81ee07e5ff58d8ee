//! A fleet of simulated GPUs driven in parallel, with per-device health.
//!
//! The paper tunes "multiple generations of GPUs connected via RPC"
//! (§4, Table 1). [`DevicePool`] reproduces that setup: one worker thread
//! per GPU, each owning its own [`Measurer`], with results collected in
//! device order. Simulated GPU time stays per-device (the paper's GPU-hour
//! totals are per-target sums), while wall-clock time of the *harness*
//! shrinks with the fleet size.
//!
//! Fleets fail, so the pool also tracks health. A device whose worker
//! panics or whose injector declares it dead is retired at once and refuses
//! every later job. A job whose measurements all faulted leaves a reachable
//! device serving and only records the failure. A degraded fleet keeps
//! running on the survivors; [`DevicePool::summary`] reports who is in what
//! state.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::fault::FaultPlan;
use crate::measure::Measurer;
use glimpse_gpu_spec::GpuSpec;
use parking_lot::Mutex;

/// Lifecycle state of one pooled device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceStatus {
    /// Serving jobs.
    Healthy,
    /// Permanently retired (worker panic or dead injector); refuses every
    /// later job.
    Dead,
}

/// Why a device produced no result for a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is permanently dead.
    Dead,
    /// The worker panicked while running the job; the payload's message.
    Panicked(String),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Dead => write!(f, "device dead"),
            DeviceError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

#[derive(Debug, Clone)]
struct HealthRecord {
    status: DeviceStatus,
    last_error: Option<String>,
}

/// Per-device health and accounting snapshot.
#[derive(Debug, Clone)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// Current lifecycle state.
    pub status: DeviceStatus,
    /// Valid measurements served.
    pub valid: u64,
    /// Invalid (resource-violation) measurements served.
    pub invalid: u64,
    /// Measurements lost to faults.
    pub faults: u64,
    /// Simulated GPU seconds consumed.
    pub gpu_seconds: f64,
    /// Most recent failure description, if any.
    pub last_error: Option<String>,
}

/// Fleet-wide health snapshot from [`DevicePool::summary`].
#[derive(Debug, Clone)]
pub struct PoolSummary {
    /// One report per device, in device order.
    pub devices: Vec<DeviceReport>,
}

impl PoolSummary {
    /// Names of permanently retired devices.
    #[must_use]
    pub fn dead(&self) -> Vec<&str> {
        self.devices
            .iter()
            .filter(|d| d.status == DeviceStatus::Dead)
            .map(|d| d.name.as_str())
            .collect()
    }
}

impl std::fmt::Display for PoolSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.devices {
            writeln!(
                f,
                "{:<16} {:?}: {} valid, {} invalid, {} faults, {:.1} GPU-s{}",
                d.name,
                d.status,
                d.valid,
                d.invalid,
                d.faults,
                d.gpu_seconds,
                d.last_error.as_deref().map(|e| format!(" (last error: {e})")).unwrap_or_default()
            )?;
        }
        Ok(())
    }
}

/// A set of simulated GPUs addressable by index.
#[derive(Debug)]
pub struct DevicePool {
    devices: Vec<Mutex<Measurer>>,
    health: Vec<Mutex<HealthRecord>>,
    names: Vec<String>,
}

impl DevicePool {
    /// Creates a pool with one measurement channel per GPU, injecting
    /// faults per `plan`. Each device's noise stream is derived from `seed`
    /// and its index.
    #[must_use]
    pub fn with_faults(gpus: &[GpuSpec], seed: u64, plan: &FaultPlan) -> Self {
        let devices = gpus
            .iter()
            .enumerate()
            .map(|(i, g)| Mutex::new(Measurer::with_faults(g.clone(), seed.wrapping_add(i as u64 * 0x9E37_79B9), plan)))
            .collect();
        let health = gpus
            .iter()
            .map(|_| {
                Mutex::new(HealthRecord {
                    status: DeviceStatus::Healthy,
                    last_error: None,
                })
            })
            .collect();
        let names = gpus.iter().map(|g| g.name.clone()).collect();
        Self { devices, health, names }
    }

    /// Runs `job` once per device, in parallel, returning per-device
    /// results in device order. `job` gets exclusive access to that
    /// device's [`Measurer`].
    ///
    /// A worker panic is caught and reported as
    /// [`DeviceError::Panicked`] for that device only — the rest of the
    /// fleet completes normally and the panicking device is retired. Dead
    /// devices are skipped outright.
    pub fn run_all<T, F>(&self, job: F) -> Vec<Result<T, DeviceError>>
    where
        T: Send,
        F: Fn(usize, &mut Measurer) -> T + Sync,
    {
        let mut out: Vec<Option<Result<T, DeviceError>>> = (0..self.devices.len()).map(|_| None).collect();
        let result = crossbeam::thread::scope(|scope| {
            for (slot, (index, device)) in out.iter_mut().zip(self.devices.iter().enumerate()) {
                let job = &job;
                let health = &self.health[index];
                scope.spawn(move |_| {
                    *slot = Some(Self::run_one(job, index, device, health));
                });
            }
        });
        debug_assert!(result.is_ok(), "worker panics are caught per device");
        out.into_iter()
            .map(|v| v.unwrap_or(Err(DeviceError::Panicked("worker never reported".to_string()))))
            .collect()
    }

    /// Runs `job` on the single device at `index`, with the same admission
    /// control and health accounting as [`DevicePool::run_all`].
    /// This is the reassignment path: a supervisor moving an orphaned cell
    /// onto a surviving device addresses that device directly.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn run_on<T, F>(&self, index: usize, job: F) -> Result<T, DeviceError>
    where
        F: Fn(usize, &mut Measurer) -> T + Sync,
    {
        Self::run_one(&job, index, &self.devices[index], &self.health[index])
    }

    fn run_one<T, F>(job: &F, index: usize, device: &Mutex<Measurer>, health: &Mutex<HealthRecord>) -> Result<T, DeviceError>
    where
        F: Fn(usize, &mut Measurer) -> T + Sync,
    {
        if health.lock().status == DeviceStatus::Dead {
            return Err(DeviceError::Dead);
        }

        let mut measurer = device.lock();
        let valid_before = measurer.valid_count();
        let faults_before = measurer.fault_count();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(index, &mut measurer)));
        match outcome {
            Ok(value) => {
                let served = measurer.valid_count() > valid_before;
                let faulted = measurer.fault_count() > faults_before;
                let device_dead = measurer.is_device_dead();
                drop(measurer);
                let mut record = health.lock();
                if device_dead {
                    record.status = DeviceStatus::Dead;
                    record.last_error = Some("device reported dead".to_string());
                } else if faulted && !served {
                    record.last_error = Some("all measurements faulted".to_string());
                }
                Ok(value)
            }
            Err(payload) => {
                drop(measurer);
                let msg = panic_message(&payload);
                let mut record = health.lock();
                record.status = DeviceStatus::Dead;
                record.last_error = Some(msg.clone());
                Err(DeviceError::Panicked(msg))
            }
        }
    }

    /// Current health of one device.
    #[must_use]
    pub fn status(&self, index: usize) -> DeviceStatus {
        self.health[index].lock().status
    }

    /// Fleet-wide health and accounting snapshot.
    #[must_use]
    pub fn summary(&self) -> PoolSummary {
        let devices = self
            .names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let measurer = self.devices[i].lock();
                let record = self.health[i].lock();
                DeviceReport {
                    name: name.clone(),
                    status: record.status,
                    valid: measurer.valid_count(),
                    invalid: measurer.invalid_count(),
                    faults: measurer.fault_count(),
                    gpu_seconds: measurer.elapsed_gpu_seconds(),
                    last_error: record.last_error.clone(),
                }
            })
            .collect();
        PoolSummary { devices }
    }
}

fn panic_message(payload: &crossbeam::thread::Payload) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultRates};
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pool() -> DevicePool {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        DevicePool::with_faults(&gpus, 5, &FaultPlan::none())
    }

    fn space() -> glimpse_space::SearchSpace {
        templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1))
    }

    /// A config that actually runs on `gpu` (kernel faults only strike
    /// configurations that pass the resource check).
    fn valid_config_for(gpu: &glimpse_gpu_spec::GpuSpec, space: &glimpse_space::SearchSpace) -> glimpse_space::Config {
        let model = crate::model::PerfModel::new(gpu.clone());
        let mut rng = StdRng::seed_from_u64(13);
        loop {
            let c = space.sample_uniform(&mut rng);
            if model.latency_s(space, &c).is_some() {
                return c;
            }
        }
    }

    #[test]
    fn pool_has_table1_devices() {
        let summary = pool().summary();
        assert_eq!(summary.devices.len(), 4);
        assert_eq!(summary.devices[0].name, "Titan Xp");
        assert!(summary.devices.iter().all(|d| d.status == DeviceStatus::Healthy));
    }

    #[test]
    fn run_all_returns_in_device_order() {
        let p = pool();
        let names: Vec<String> = p.run_all(|_, m| m.gpu().name.clone()).into_iter().map(Result::unwrap).collect();
        let expected: Vec<String> = p.summary().devices.into_iter().map(|d| d.name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn parallel_measurements_accumulate_per_device_time() {
        let p = pool();
        let space = space();
        let counts = p.run_all(|i, m| {
            let mut rng = StdRng::seed_from_u64(i as u64);
            for _ in 0..5 {
                let c = space.sample_uniform(&mut rng);
                m.measure(&space, &c);
            }
            m.valid_count() + m.invalid_count()
        });
        assert!(counts.iter().all(|c| *c.as_ref().unwrap() == 5));
    }

    #[test]
    fn different_devices_rank_configs_differently_sometimes() {
        // Weak sanity check of hardware-dependence through the pool API.
        let p = pool();
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 128, 128, 28, 3, 1, 1));
        let bests: Vec<f64> = p
            .run_all(|i, m| m.oracle_best(&space, 2000, 100 + i as u64).unwrap().1)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        // All four GPUs should find a decent optimum, and they should not
        // all be identical numbers.
        assert!(bests.iter().all(|b| *b > 100.0));
        let first = bests[0];
        assert!(bests.iter().any(|b| (b - first).abs() > 1.0));
    }

    #[test]
    fn worker_panic_degrades_only_that_device() {
        let p = pool();
        let results = p.run_all(|i, m| {
            assert!(i != 2, "injected worker crash");
            m.gpu().name.clone()
        });
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert!(matches!(r, Err(DeviceError::Panicked(_))), "expected panic error, got {r:?}");
            } else {
                assert!(r.is_ok(), "survivor {i} failed: {r:?}");
            }
        }
        assert_eq!(p.status(2), DeviceStatus::Dead);
        // The dead worker stays dead on the next round; survivors serve.
        let again = p.run_all(|_, m| m.gpu().name.clone());
        assert!(matches!(again[2], Err(DeviceError::Dead)));
        assert!(again[0].is_ok() && again[1].is_ok() && again[3].is_ok());
        let summary = p.summary();
        assert_eq!(summary.dead(), vec!["RTX 2080 Ti"]);
        assert_eq!(summary.devices.iter().filter(|d| d.status == DeviceStatus::Healthy).count(), 3);
    }

    #[test]
    fn permanently_dead_device_is_retired_and_fleet_completes() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        let dead_name = gpus[1].name.clone();
        let plan = FaultPlan::none().with_dead_device(&dead_name);
        let p = DevicePool::with_faults(&gpus, 5, &plan);
        let space = space();

        let mut survivor_rounds = 0;
        for round in 0..8 {
            let results = p.run_all(|i, m| {
                let mut rng = StdRng::seed_from_u64(round * 31 + i as u64);
                for _ in 0..4 {
                    let c = space.sample_uniform(&mut rng);
                    m.measure(&space, &c);
                }
                m.valid_count()
            });
            survivor_rounds += results.iter().enumerate().filter(|(i, r)| *i != 1 && r.is_ok()).count();
        }
        // Survivors answered every round.
        assert_eq!(survivor_rounds, 3 * 8);
        let summary = p.summary();
        let report = &summary.devices[1];
        assert_eq!(report.name, dead_name);
        assert_eq!(report.status, DeviceStatus::Dead, "a dead injector retires the device at once");
        assert_eq!(summary.dead(), vec![dead_name.as_str()]);
        assert_eq!(summary.devices.iter().filter(|d| d.status == DeviceStatus::Healthy).count(), 3);
        // Survivors actually measured.
        for (i, d) in summary.devices.iter().enumerate() {
            if i != 1 {
                assert!(d.valid > 0, "{} served nothing", d.name);
            }
        }
    }

    #[test]
    fn an_all_faulted_job_leaves_a_reachable_device_serving() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        // launch_failure=1.0: every measurement faults, but the device
        // itself stays reachable.
        let plan = FaultPlan::none().with_device_rates(
            &gpus[0].name,
            FaultRates {
                launch_failure: 1.0,
                ..FaultRates::none()
            },
        );
        let p = DevicePool::with_faults(&gpus, 5, &plan);
        let space = space();
        let config = valid_config_for(&gpus[0], &space);
        for _ in 0..4 {
            let results = p.run_all(|_, m| {
                m.measure(&space, &config);
            });
            assert!(results.iter().all(Result::is_ok));
            assert_eq!(p.status(0), DeviceStatus::Healthy);
        }
        let report = &p.summary().devices[0];
        assert_eq!(report.valid, 0);
        assert_eq!(report.faults, 4);
        assert_eq!(report.last_error.as_deref(), Some("all measurements faulted"));
        assert!(p.run_on(0, |_, _m| {}).is_ok(), "a reachable device keeps serving");
    }

    #[test]
    fn run_on_serves_one_device_and_refuses_a_retired_one() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        let plan = FaultPlan::none().with_dead_device(&gpus[1].name);
        let p = DevicePool::with_faults(&gpus, 5, &plan);
        let space = space();

        // A healthy device serves the job and keeps its accounting.
        let name = p.run_on(0, |_, m| m.gpu().name.clone()).unwrap();
        assert_eq!(name, gpus[0].name);
        let served = p
            .run_on(0, |_, m| {
                let config = valid_config_for(m.gpu(), &space);
                m.measure(&space, &config);
                m.valid_count() + m.invalid_count()
            })
            .unwrap();
        assert_eq!(served, 1);

        // The job that finds the device dead still returns; the device
        // retires and refuses every later job, through either entry point.
        let first = p.run_on(1, |_, m| {
            let config = valid_config_for(m.gpu(), &space);
            m.measure(&space, &config);
        });
        assert!(first.is_ok(), "the job that meets the death completes");
        assert_eq!(p.status(1), DeviceStatus::Dead);
        assert!(matches!(p.run_on(1, |_, _m| {}), Err(DeviceError::Dead)));
        let results = p.run_all(|_, _m| {});
        assert!(matches!(results[1], Err(DeviceError::Dead)));
        assert!(results[0].is_ok() && results[2].is_ok() && results[3].is_ok());
    }
}

//! A fleet of simulated GPUs driven in parallel, with per-device health.
//!
//! The paper tunes "multiple generations of GPUs connected via RPC"
//! (§4, Table 1). [`DevicePool`] reproduces that setup: one worker thread
//! per GPU, each owning its own [`Measurer`], with results collected in
//! device order. Simulated GPU time stays per-device (the paper's GPU-hour
//! totals are per-target sums), while wall-clock time of the *harness*
//! shrinks with the fleet size.
//!
//! Fleets fail, so the pool also tracks health: a device whose jobs keep
//! coming back all-faulted is **quarantined** after
//! [`PoolPolicy::quarantine_threshold`] consecutive bad rounds, quarantined
//! devices are **probed** before each round and re-admitted when the probe
//! answers, and a device whose worker panics or whose injector declares it
//! dead is retired permanently. A degraded fleet keeps running on the
//! survivors; [`DevicePool::summary`] reports who is in what state. The
//! thresholds are a [`PoolPolicy`] carried on the [`FaultPlan`], so chaos
//! experiments can tighten or loosen them per campaign.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::fault::FaultPlan;
use crate::measure::Measurer;
use glimpse_gpu_spec::GpuSpec;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Health-management knobs of a [`DevicePool`]. Carried on the
/// [`FaultPlan`] (`--pool-policy` on the CLI); [`PoolPolicy::default`]
/// reproduces the historical hard-coded behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolPolicy {
    /// Consecutive all-faulted rounds before a device is quarantined.
    pub quarantine_threshold: u32,
    /// Failed re-admission probes before a quarantined device is retired.
    pub probe_limit: u32,
    /// Simulated seconds one re-admission probe costs.
    pub probe_cost_s: f64,
}

impl Default for PoolPolicy {
    fn default() -> Self {
        Self {
            quarantine_threshold: 3,
            probe_limit: 5,
            probe_cost_s: 0.5,
        }
    }
}

impl PoolPolicy {
    /// Parses a CLI spec like `quarantine=3,probes=5,probe_cost=0.5`.
    /// Omitted keys keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad key, value, or range.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad pool policy `{part}`: expected key=value"))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "quarantine" | "quarantine_threshold" => {
                    policy.quarantine_threshold = value
                        .parse()
                        .map_err(|_| format!("bad value `{value}` for `{key}`: expected a count"))?;
                }
                "probes" | "probe_limit" => {
                    policy.probe_limit = value
                        .parse()
                        .map_err(|_| format!("bad value `{value}` for `{key}`: expected a count"))?;
                }
                "probe_cost" | "probe_cost_s" => {
                    policy.probe_cost_s = value
                        .parse()
                        .map_err(|_| format!("bad value `{value}` for `{key}`: expected seconds"))?;
                }
                other => {
                    return Err(format!(
                        "unknown pool policy key `{other}` (expected quarantine, probes, probe_cost)"
                    ))
                }
            }
        }
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the thresholds are usable: counts at least 1, probe cost a
    /// finite non-negative number of seconds.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.quarantine_threshold == 0 {
            return Err("pool policy `quarantine` must be at least 1".to_string());
        }
        if self.probe_limit == 0 {
            return Err("pool policy `probes` must be at least 1".to_string());
        }
        if !self.probe_cost_s.is_finite() || self.probe_cost_s < 0.0 {
            return Err(format!(
                "pool policy `probe_cost` must be finite and >= 0, got {}",
                self.probe_cost_s
            ));
        }
        Ok(())
    }
}

/// Lifecycle state of one pooled device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceStatus {
    /// Serving jobs.
    Healthy,
    /// Sidelined after consecutive failures; probed before each round.
    Quarantined,
    /// Permanently retired (worker panic, dead injector, or probes
    /// exhausted). Never probed again.
    Dead,
}

/// Why a device produced no result for a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is quarantined and its probe failed again.
    Quarantined,
    /// The device is permanently dead.
    Dead,
    /// The worker panicked while running the job; the payload's message.
    Panicked(String),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::Quarantined => write!(f, "device quarantined"),
            DeviceError::Dead => write!(f, "device dead"),
            DeviceError::Panicked(msg) => write!(f, "worker panicked: {msg}"),
        }
    }
}

#[derive(Debug, Clone)]
struct HealthRecord {
    status: DeviceStatus,
    consecutive_failures: u32,
    failed_probes: u32,
    quarantines: u64,
    last_error: Option<String>,
}

impl HealthRecord {
    fn new() -> Self {
        Self {
            status: DeviceStatus::Healthy,
            consecutive_failures: 0,
            failed_probes: 0,
            quarantines: 0,
            last_error: None,
        }
    }
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
    /// Times this device entered quarantine.
    pub quarantines: u64,
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
    /// Names of devices currently able to serve jobs.
    #[must_use]
    pub fn healthy(&self) -> Vec<&str> {
        self.devices
            .iter()
            .filter(|d| d.status == DeviceStatus::Healthy)
            .map(|d| d.name.as_str())
            .collect()
    }

    /// Names of quarantined devices.
    #[must_use]
    pub fn quarantined(&self) -> Vec<&str> {
        self.devices
            .iter()
            .filter(|d| d.status == DeviceStatus::Quarantined)
            .map(|d| d.name.as_str())
            .collect()
    }

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
    policy: PoolPolicy,
}

impl DevicePool {
    /// Creates a pool with one measurement channel per GPU. Each device's
    /// noise stream is derived from `seed` and its index.
    #[must_use]
    pub fn new(gpus: &[GpuSpec], seed: u64) -> Self {
        Self::with_faults(gpus, seed, &FaultPlan::none())
    }

    /// Creates a pool whose devices inject faults per `plan`.
    #[must_use]
    pub fn with_faults(gpus: &[GpuSpec], seed: u64, plan: &FaultPlan) -> Self {
        let devices = gpus
            .iter()
            .enumerate()
            .map(|(i, g)| Mutex::new(Measurer::with_faults(g.clone(), seed.wrapping_add(i as u64 * 0x9E37_79B9), plan)))
            .collect();
        let health = gpus.iter().map(|_| Mutex::new(HealthRecord::new())).collect();
        let names = gpus.iter().map(|g| g.name.clone()).collect();
        Self {
            devices,
            health,
            names,
            policy: plan.pool_policy(),
        }
    }

    /// Health-management thresholds in effect for this pool.
    #[must_use]
    pub fn policy(&self) -> PoolPolicy {
        self.policy
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device names in index order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Runs `job` once per serviceable device, in parallel, returning
    /// per-device results in device order. `job` gets exclusive access to
    /// that device's [`Measurer`].
    ///
    /// A worker panic is caught and reported as
    /// [`DeviceError::Panicked`] for that device only — the rest of the
    /// fleet completes normally and the panicking device is retired.
    /// Quarantined devices are probed first and re-admitted when the probe
    /// answers; dead devices are skipped outright.
    pub fn run_all<T, F>(&self, job: F) -> Vec<Result<T, DeviceError>>
    where
        T: Send,
        F: Fn(usize, &mut Measurer) -> T + Sync,
    {
        let mut out: Vec<Option<Result<T, DeviceError>>> = (0..self.devices.len()).map(|_| None).collect();
        let policy = self.policy;
        let result = crossbeam::thread::scope(|scope| {
            for (slot, (index, device)) in out.iter_mut().zip(self.devices.iter().enumerate()) {
                let job = &job;
                let health = &self.health[index];
                scope.spawn(move |_| {
                    *slot = Some(Self::run_one(job, index, device, health, policy));
                });
            }
        });
        debug_assert!(result.is_ok(), "worker panics are caught per device");
        out.into_iter()
            .map(|v| v.unwrap_or(Err(DeviceError::Panicked("worker never reported".to_string()))))
            .collect()
    }

    /// Runs `job` on the single device at `index`, with the same admission
    /// control, probing, and health accounting as [`DevicePool::run_all`].
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
        Self::run_one(&job, index, &self.devices[index], &self.health[index], self.policy)
    }

    fn run_one<T, F>(
        job: &F,
        index: usize,
        device: &Mutex<Measurer>,
        health: &Mutex<HealthRecord>,
        policy: PoolPolicy,
    ) -> Result<T, DeviceError>
    where
        F: Fn(usize, &mut Measurer) -> T + Sync,
    {
        // Admission control under the health lock.
        {
            let mut record = health.lock();
            match record.status {
                DeviceStatus::Dead => return Err(DeviceError::Dead),
                DeviceStatus::Quarantined => {
                    let mut measurer = device.lock();
                    if Self::probe(&mut measurer, policy) {
                        record.status = DeviceStatus::Healthy;
                        record.consecutive_failures = 0;
                        record.failed_probes = 0;
                    } else {
                        record.failed_probes += 1;
                        if record.failed_probes >= policy.probe_limit {
                            record.status = DeviceStatus::Dead;
                            record.last_error = Some("probe limit exhausted".to_string());
                            return Err(DeviceError::Dead);
                        }
                        return Err(DeviceError::Quarantined);
                    }
                }
                DeviceStatus::Healthy => {}
            }
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
                    // The injector declared permanent death mid-job;
                    // quarantine rather than retire — the probe path
                    // confirms it (a dead device fails every probe) and
                    // retires the device at the probe limit.
                    record.status = DeviceStatus::Quarantined;
                    record.quarantines += 1;
                    record.consecutive_failures = 0;
                    record.last_error = Some("device reported dead".to_string());
                } else if faulted && !served {
                    record.consecutive_failures += 1;
                    record.last_error = Some("all measurements faulted".to_string());
                    if record.consecutive_failures >= policy.quarantine_threshold {
                        record.status = DeviceStatus::Quarantined;
                        record.quarantines += 1;
                        record.consecutive_failures = 0;
                    }
                } else if served {
                    record.consecutive_failures = 0;
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

    /// One re-admission probe: charges [`PoolPolicy::probe_cost_s`] and
    /// asks the device for a sign of life.
    fn probe(measurer: &mut Measurer, policy: PoolPolicy) -> bool {
        measurer.charge(policy.probe_cost_s);
        !measurer.is_device_dead()
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
                    quarantines: record.quarantines,
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
        DevicePool::new(&gpus, 5)
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
        let p = pool();
        assert_eq!(p.len(), 4);
        assert_eq!(p.names()[0], "Titan Xp");
        assert!(!p.is_empty());
    }

    #[test]
    fn run_all_returns_in_device_order() {
        let p = pool();
        let names: Vec<String> = p.run_all(|_, m| m.gpu().name.clone()).into_iter().map(Result::unwrap).collect();
        assert_eq!(names, p.names());
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
        assert_eq!(summary.healthy().len(), 3);
    }

    #[test]
    fn permanently_dead_device_is_quarantined_and_fleet_completes() {
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
        assert_ne!(report.status, DeviceStatus::Healthy, "dead device must leave the healthy set");
        assert!(report.quarantines >= 1, "death must be visible as a quarantine in the summary");
        assert!(summary.healthy().len() == 3);
        // Survivors actually measured.
        for (i, d) in summary.devices.iter().enumerate() {
            if i != 1 {
                assert!(d.valid > 0, "{} served nothing", d.name);
            }
        }
    }

    #[test]
    fn quarantine_after_consecutive_faulted_rounds_then_probe_readmission() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        let flaky = gpus[0].name.clone();
        // launch_failure=1.0: every measurement faults, but the device
        // itself stays reachable, so the probe re-admits it.
        let plan = FaultPlan::none().with_device_rates(
            &flaky,
            FaultRates {
                launch_failure: 1.0,
                ..FaultRates::none()
            },
        );
        let p = DevicePool::with_faults(&gpus, 5, &plan);
        let space = space();
        let config = valid_config_for(&gpus[0], &space);

        for _ in 0..p.policy().quarantine_threshold {
            let results = p.run_all(|_, m| {
                m.measure(&space, &config);
            });
            assert!(results.iter().all(Result::is_ok));
        }
        assert_eq!(p.status(0), DeviceStatus::Quarantined);
        assert!(p.summary().quarantined().contains(&flaky.as_str()));

        // Next round: the probe answers (device is reachable), so the
        // device is re-admitted and runs the job again.
        let results = p.run_all(|_, m| {
            m.measure(&space, &config);
        });
        assert!(results[0].is_ok(), "probe should re-admit a reachable device");
        assert_eq!(p.status(0), DeviceStatus::Healthy);
    }

    #[test]
    fn probe_charges_simulated_time() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
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
        for _ in 0..p.policy().quarantine_threshold {
            p.run_all(|_, m| {
                m.measure(&space, &config);
            });
        }
        let before = p.summary().devices[0].gpu_seconds;
        p.run_all(|_, _m| {});
        let after = p.summary().devices[0].gpu_seconds;
        assert!(after >= before + p.policy().probe_cost_s - 1e-9, "probe must debit the clock");
    }

    #[test]
    fn policy_parse_accepts_the_documented_grammar() {
        let policy = PoolPolicy::parse("quarantine=2, probes=7,probe_cost=1.25").unwrap();
        assert_eq!(policy.quarantine_threshold, 2);
        assert_eq!(policy.probe_limit, 7);
        assert_eq!(policy.probe_cost_s, 1.25);
        // Omitted keys keep their defaults; an empty spec is the default.
        assert_eq!(PoolPolicy::parse("probes=9").unwrap().quarantine_threshold, 3);
        assert_eq!(PoolPolicy::parse("").unwrap(), PoolPolicy::default());
    }

    #[test]
    fn policy_parse_rejects_bad_specs() {
        assert!(PoolPolicy::parse("quarantine").is_err());
        assert!(PoolPolicy::parse("patience=3").is_err());
        assert!(PoolPolicy::parse("quarantine=0").is_err());
        assert!(PoolPolicy::parse("probes=0").is_err());
        assert!(PoolPolicy::parse("probes=many").is_err());
        assert!(PoolPolicy::parse("probe_cost=-1").is_err());
        assert!(PoolPolicy::parse("probe_cost=inf").is_err());
    }

    #[test]
    fn custom_quarantine_threshold_changes_admission() {
        let gpus: Vec<_> = database::evaluation_gpus().into_iter().cloned().collect();
        let flaky = gpus[0].name.clone();
        let plan = FaultPlan::none()
            .with_device_rates(
                &flaky,
                FaultRates {
                    launch_failure: 1.0,
                    ..FaultRates::none()
                },
            )
            .with_pool_policy(PoolPolicy {
                quarantine_threshold: 1,
                ..PoolPolicy::default()
            });
        let p = DevicePool::with_faults(&gpus, 5, &plan);
        assert_eq!(p.policy().quarantine_threshold, 1);
        let space = space();
        let config = valid_config_for(&gpus[0], &space);
        // One all-faulted round suffices under threshold 1 (default is 3).
        p.run_all(|_, m| {
            m.measure(&space, &config);
        });
        assert_eq!(p.status(0), DeviceStatus::Quarantined);
    }

    #[test]
    fn run_on_serves_one_device_with_admission_control() {
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

        // A retired device refuses jobs through the same admission gate.
        let results = p.run_all(|_, m| {
            let mut rng = StdRng::seed_from_u64(3);
            let c = space.sample_uniform(&mut rng);
            m.measure(&space, &c);
        });
        assert!(results[1].is_ok(), "first round quarantines, not refuses");
        assert_eq!(p.status(1), DeviceStatus::Quarantined);
        // Probes keep failing (dead rate 1.0) until the device retires.
        for _ in 0..p.policy().probe_limit {
            let _ = p.run_on(1, |_, _m| {});
        }
        assert_eq!(p.status(1), DeviceStatus::Dead);
        assert!(matches!(p.run_on(1, |_, _m| {}), Err(DeviceError::Dead)));
    }
}

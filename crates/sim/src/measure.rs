//! The measurement harness: noisy evaluations with simulated-time accounting.
//!
//! Every call to [`Measurer::measure`] stands in for the paper's full
//! compile → upload-over-RPC → run-n-times → average pipeline. It debits a
//! simulated GPU clock: valid configurations pay compilation + transfer +
//! repeated runs, invalid ones pay compilation + the failed launch. The
//! accumulated clock is what Table 2's "ΣGPU Search (GPU Hours)" reports.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::fault::{FaultEvent, FaultInjector, FaultPlan, InjectorState, MeasureFault};
use crate::model::PerfModel;
use crate::validity::{self, InvalidReason};
use glimpse_gpu_spec::GpuSpec;
use glimpse_space::{Config, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Simulated seconds charged per measured configuration on top of the run
/// time (compile, transfer, launch pipeline). Calibrated so AutoTVM-scale
/// budgets land in the paper's "tens of GPU hours" regime.
pub const VALID_OVERHEAD_S: f64 = 3.5;
/// Simulated seconds charged for a configuration that fails at launch.
pub const INVALID_OVERHEAD_S: f64 = 1.2;
/// Number of timed repetitions averaged per valid measurement.
pub const REPEATS: u32 = 3;
/// Relative measurement noise (log-normal σ).
pub const NOISE_SIGMA: f64 = 0.03;

/// Outcome of one hardware measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The kernel ran; noisy averaged latency and derived throughput.
    Valid {
        /// Measured latency in seconds.
        latency_s: f64,
        /// Throughput in GFLOPS (direct-algorithm FLOPs / latency).
        gflops: f64,
    },
    /// The launch failed with a resource violation.
    Invalid(InvalidReason),
    /// The measurement failed for reasons unrelated to the configuration
    /// (hang, flaky launch, unreachable or dead device). Unlike `Invalid`,
    /// this says nothing about the config — it must never train a surrogate.
    Faulted(MeasureFault),
}

impl Outcome {
    /// Throughput if valid.
    #[must_use]
    pub fn gflops(&self) -> Option<f64> {
        match self {
            Outcome::Valid { gflops, .. } => Some(*gflops),
            Outcome::Invalid(_) | Outcome::Faulted(_) => None,
        }
    }

    /// Whether the measurement succeeded.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        matches!(self, Outcome::Valid { .. })
    }

    /// Whether the measurement failed due to an injected/infrastructure
    /// fault rather than the configuration itself.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(self, Outcome::Faulted(_))
    }

    /// The fault, if this outcome is one.
    #[must_use]
    pub fn fault(&self) -> Option<MeasureFault> {
        match self {
            Outcome::Faulted(fault) => Some(*fault),
            _ => None,
        }
    }
}

/// One measurement record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureResult {
    /// The measured configuration.
    pub config: Config,
    /// What happened.
    pub outcome: Outcome,
    /// Simulated GPU seconds this measurement cost.
    pub cost_s: f64,
}

/// Checkpointable snapshot of a [`Measurer`] between measurements. Journals
/// embed one per trial record so a crashed run resumes with the clock,
/// counters, noise stream, and fault stream exactly where they stopped.
/// The perf model and fault rates are *not* in the snapshot — they are
/// rebuilt from `(gpu, fault plan)`, which must match the original run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasurerState {
    /// Simulated GPU seconds consumed so far.
    pub clock_s: f64,
    /// Valid measurements performed.
    pub valid_count: u64,
    /// Invalid measurements performed.
    pub invalid_count: u64,
    /// Measurements lost to injected faults.
    pub fault_count: u64,
    /// Raw state of the measurement-noise RNG.
    pub rng: [u64; 4],
    /// Fault-injector snapshot, when a plan is installed.
    pub injector: Option<InjectorState>,
}

/// A measurement channel to one (simulated) GPU.
#[derive(Debug, Clone)]
pub struct Measurer {
    model: PerfModel,
    rng: StdRng,
    clock_s: f64,
    valid_count: u64,
    invalid_count: u64,
    fault_count: u64,
    injector: Option<FaultInjector>,
}

impl Measurer {
    /// Opens a measurement channel to `gpu` with a deterministic noise seed.
    #[must_use]
    pub fn new(gpu: GpuSpec, seed: u64) -> Self {
        Self {
            model: PerfModel::new(gpu),
            rng: StdRng::seed_from_u64(seed),
            clock_s: 0.0,
            valid_count: 0,
            invalid_count: 0,
            fault_count: 0,
            injector: None,
        }
    }

    /// Opens a channel that injects faults per `plan` (no-op plan → clean
    /// channel identical to [`Measurer::new`]).
    #[must_use]
    pub fn with_faults(gpu: GpuSpec, seed: u64, plan: &FaultPlan) -> Self {
        let mut measurer = Self::new(gpu, seed);
        measurer.set_fault_plan(plan);
        measurer
    }

    /// Installs (or, with an empty plan, removes) fault injection. The
    /// injector stream depends only on `(plan.seed, gpu name)`.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        let name = self.gpu().name.clone();
        self.injector = plan.rates_for(&name).any().then(|| FaultInjector::for_device(plan, &name));
    }

    /// The underlying noise-free model.
    #[must_use]
    pub fn model(&self) -> &PerfModel {
        &self.model
    }

    /// The GPU behind this channel.
    #[must_use]
    pub fn gpu(&self) -> &GpuSpec {
        self.model.gpu()
    }

    /// Total simulated GPU seconds consumed so far.
    #[must_use]
    pub fn elapsed_gpu_seconds(&self) -> f64 {
        self.clock_s
    }

    /// Number of valid measurements performed.
    #[must_use]
    pub fn valid_count(&self) -> u64 {
        self.valid_count
    }

    /// Number of invalid (failed) measurements performed.
    #[must_use]
    pub fn invalid_count(&self) -> u64 {
        self.invalid_count
    }

    /// Number of measurements lost to injected faults.
    #[must_use]
    pub fn fault_count(&self) -> u64 {
        self.fault_count
    }

    /// Whether the simulated device has died permanently.
    #[must_use]
    pub fn is_device_dead(&self) -> bool {
        self.injector.as_ref().is_some_and(FaultInjector::is_dead)
    }

    /// Debits simulated GPU seconds outside a measurement (retry backoff).
    /// Saturates at zero for negative amounts.
    pub fn charge(&mut self, seconds: f64) {
        self.clock_s += seconds.max(0.0);
    }

    /// Snapshots the channel for a checkpoint (see [`MeasurerState`]).
    #[must_use]
    pub fn state(&self) -> MeasurerState {
        MeasurerState {
            clock_s: self.clock_s,
            valid_count: self.valid_count,
            invalid_count: self.invalid_count,
            fault_count: self.fault_count,
            rng: self.rng.state(),
            injector: self.injector.as_ref().map(FaultInjector::state),
        }
    }

    /// Restores a snapshot taken by [`Measurer::state`] onto a channel
    /// built with the same `(gpu, seed, plan)`; measurement and fault
    /// streams then continue bit-identically from the snapshot point.
    pub fn restore_state(&mut self, state: &MeasurerState) {
        self.clock_s = state.clock_s;
        self.valid_count = state.valid_count;
        self.invalid_count = state.invalid_count;
        self.fault_count = state.fault_count;
        self.rng = StdRng::from_state(state.rng);
        if let (Some(injector), Some(snapshot)) = (self.injector.as_mut(), state.injector.as_ref()) {
            injector.restore_state(snapshot);
        }
    }

    /// Measures one configuration, debiting the simulated clock.
    ///
    /// With a fault plan installed, the injector is consulted once per
    /// call: device-level faults (dead/lost) preempt everything, kernel
    /// faults (timeout, spurious launch failure) only strike configurations
    /// that would otherwise run, and a noise spike inflates the latency of
    /// an otherwise-valid sample. A timeout debits the full timeout window.
    pub fn measure(&mut self, space: &SearchSpace, config: &Config) -> MeasureResult {
        let event = self.injector.as_mut().and_then(FaultInjector::next_event);

        // Device-level faults fire before the config is even compiled.
        if let Some(FaultEvent::Fail(fault @ (MeasureFault::DeviceDead | MeasureFault::DeviceLost))) = event {
            return self.faulted(config, fault);
        }

        let shape = space.kernel_shape(config);
        match validity::check(self.gpu(), &shape) {
            Err(reason) => {
                // An invalid config fails at the resource check; a drawn
                // kernel fault has nothing left to strike.
                self.invalid_count += 1;
                self.clock_s += INVALID_OVERHEAD_S;
                MeasureResult {
                    config: config.clone(),
                    outcome: Outcome::Invalid(reason),
                    cost_s: INVALID_OVERHEAD_S,
                }
            }
            Ok(()) => match event {
                Some(FaultEvent::Fail(fault)) => self.faulted(config, fault),
                Some(FaultEvent::Inflate(factor)) => self.run_kernel(space, config, factor),
                None => self.run_kernel(space, config, 1.0),
            },
        }
    }

    /// Records a faulted measurement, charging the fault's cost.
    fn faulted(&mut self, config: &Config, fault: MeasureFault) -> MeasureResult {
        let cost_s = fault.cost_s();
        self.fault_count += 1;
        self.clock_s += cost_s;
        MeasureResult {
            config: config.clone(),
            outcome: Outcome::Faulted(fault),
            cost_s,
        }
    }

    /// The successful-measurement path; `inflation` models a noise spike.
    fn run_kernel(&mut self, space: &SearchSpace, config: &Config, inflation: f64) -> MeasureResult {
        // The validity rules admitted this launch, so the model should score
        // it; if the two ever disagree, record an invalid measurement
        // instead of panicking mid-run.
        let Some(base_latency) = self.model.latency_s(space, config) else {
            self.invalid_count += 1;
            self.clock_s += INVALID_OVERHEAD_S;
            return MeasureResult {
                config: config.clone(),
                outcome: Outcome::Invalid(InvalidReason::ModelRejected),
                cost_s: INVALID_OVERHEAD_S,
            };
        };
        let true_latency = base_latency * inflation;
        // Average of REPEATS noisy runs (log-normal multiplicative noise).
        let mut sum = 0.0;
        for _ in 0..REPEATS {
            let z = standard_normal(&mut self.rng);
            sum += true_latency * (NOISE_SIGMA * z).exp();
        }
        let latency_s = sum / f64::from(REPEATS);
        let gflops = space.op().flops() / latency_s / 1e9;
        let cost_s = VALID_OVERHEAD_S + f64::from(REPEATS) * latency_s;
        self.valid_count += 1;
        self.clock_s += cost_s;
        MeasureResult {
            config: config.clone(),
            outcome: Outcome::Valid { latency_s, gflops },
            cost_s,
        }
    }

    /// Measures a batch in submission order.
    pub fn measure_batch(&mut self, space: &SearchSpace, configs: &[Config]) -> Vec<MeasureResult> {
        configs.iter().map(|c| self.measure(space, c)).collect()
    }

    /// Noise-free oracle: the best configuration among `n` uniform samples,
    /// or `None` when every sample was invalid. Used by the harness as the
    /// "near-exhaustive optimum" for Fig. 1 and as the normalizer for
    /// output-code quality. Costs no simulated time.
    #[must_use]
    pub fn oracle_best(&self, space: &SearchSpace, n: usize, seed: u64) -> Option<(Config, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut best: Option<(Config, f64)> = None;
        for _ in 0..n {
            let c = space.sample_uniform(&mut rng);
            if let Some(g) = self.model.throughput_gflops(space, &c) {
                if best.as_ref().is_none_or(|(_, b)| g > *b) {
                    best = Some((c, g));
                }
            }
        }
        best
    }
}

/// Standard normal via Box–Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::Conv2dSpec;

    fn setup() -> (Measurer, SearchSpace) {
        let gpu = database::find("RTX 2070 Super").unwrap().clone();
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        (Measurer::new(gpu, 7), space)
    }

    #[test]
    fn clock_advances_per_measurement() {
        let (mut m, space) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.elapsed_gpu_seconds(), 0.0);
        for _ in 0..10 {
            let c = space.sample_uniform(&mut rng);
            m.measure(&space, &c);
        }
        assert!(m.elapsed_gpu_seconds() >= 10.0 * INVALID_OVERHEAD_S - 1e-9);
        assert_eq!(m.valid_count() + m.invalid_count(), 10);
    }

    #[test]
    fn invalid_measurements_cost_less() {
        let (mut m, space) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut valid_cost = None;
        let mut invalid_cost = None;
        while valid_cost.is_none() || invalid_cost.is_none() {
            let c = space.sample_uniform(&mut rng);
            let r = m.measure(&space, &c);
            match r.outcome {
                Outcome::Valid { .. } => valid_cost = Some(r.cost_s),
                Outcome::Invalid(_) => invalid_cost = Some(r.cost_s),
                Outcome::Faulted(fault) => panic!("clean channel injected {fault}"),
            }
        }
        assert!(invalid_cost.unwrap() < valid_cost.unwrap());
    }

    #[test]
    fn noise_is_small_and_unbiased() {
        let (mut m, space) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        // Find one valid config, measure it many times.
        let config = loop {
            let c = space.sample_uniform(&mut rng);
            if m.model().latency_s(&space, &c).is_some() {
                break c;
            }
        };
        let truth = m.model().latency_s(&space, &config).unwrap();
        let mut sum = 0.0;
        let n = 200;
        for _ in 0..n {
            if let Outcome::Valid { latency_s, .. } = m.measure(&space, &config).outcome {
                sum += latency_s;
                assert!((latency_s / truth - 1.0).abs() < 0.15, "noise too large");
            } else {
                panic!("config became invalid");
            }
        }
        let mean = sum / f64::from(n);
        assert!((mean / truth - 1.0).abs() < 0.01, "bias {}", mean / truth - 1.0);
    }

    /// The channel contract seen from outside: repeated measurements of one
    /// valid config show the declared log-normal noise, shrunk by the
    /// measurer's repeat-averaging, and each one debits the declared
    /// overhead plus its repeated run time.
    #[test]
    fn repeats_recover_the_declared_noise_and_overhead() {
        let gpu = database::find("RTX 2080 Ti").unwrap().clone();
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let mut m = Measurer::new(gpu, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let config = loop {
            let c = space.sample_uniform(&mut rng);
            if m.model().latency_s(&space, &c).is_some() {
                break c;
            }
        };
        let n = 400;
        let mut logs = Vec::with_capacity(n);
        for _ in 0..n {
            let before = m.elapsed_gpu_seconds();
            let Outcome::Valid { latency_s, .. } = m.measure(&space, &config).outcome else {
                panic!("config became invalid");
            };
            let debit = m.elapsed_gpu_seconds() - before;
            let expected = VALID_OVERHEAD_S + f64::from(REPEATS) * latency_s;
            assert!((debit - expected).abs() < 1e-6, "debited {debit}, expected {expected}");
            logs.push(latency_s.ln());
        }
        let mean = logs.iter().sum::<f64>() / n as f64;
        let sigma = (logs.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt();
        let expected = NOISE_SIGMA / f64::from(REPEATS).sqrt();
        assert!((sigma - expected).abs() < 0.4 * expected, "sigma {sigma} vs expected {expected}");
    }

    #[test]
    fn measurements_are_deterministic_given_seed() {
        let gpu = database::find("Titan Xp").unwrap().clone();
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let mut rng = StdRng::seed_from_u64(4);
        let c = space.sample_uniform(&mut rng);
        let run = || {
            let mut m = Measurer::new(gpu.clone(), 99);
            m.measure(&space, &c).outcome
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn oracle_best_is_at_least_as_good_as_any_sample() {
        let (m, space) = setup();
        let (_, best) = m.oracle_best(&space, 500, 11).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let c = space.sample_uniform(&mut rng);
            if let Some(g) = m.model().throughput_gflops(&space, &c) {
                assert!(g <= best + 1e-9);
            }
        }
    }

    #[test]
    fn state_snapshot_resumes_measurements_bit_identically() {
        use crate::fault::{FaultPlan, FaultRates};
        let gpu = database::find("Titan Xp").unwrap().clone();
        let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
        let plan = FaultPlan::uniform(
            21,
            FaultRates {
                timeout: 0.1,
                noise_spike: 0.2,
                ..FaultRates::none()
            },
        );
        let mut rng = StdRng::seed_from_u64(6);
        let configs: Vec<_> = (0..60).map(|_| space.sample_uniform(&mut rng)).collect();
        let mut live = Measurer::with_faults(gpu.clone(), 99, &plan);
        for c in &configs[..30] {
            live.measure(&space, c);
        }
        let state = live.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: MeasurerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut resumed = Measurer::with_faults(gpu, 99, &plan);
        resumed.restore_state(&back);
        assert_eq!(resumed.elapsed_gpu_seconds(), live.elapsed_gpu_seconds());
        for c in &configs[30..] {
            assert_eq!(resumed.measure(&space, c), live.measure(&space, c));
        }
        assert_eq!(resumed.state(), live.state());
    }

    #[test]
    fn batch_preserves_order_and_counts() {
        let (mut m, space) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let configs: Vec<_> = (0..8).map(|_| space.sample_uniform(&mut rng)).collect();
        let results = m.measure_batch(&space, &configs);
        assert_eq!(results.len(), 8);
        for (r, c) in results.iter().zip(&configs) {
            assert_eq!(&r.config, c);
        }
    }
}

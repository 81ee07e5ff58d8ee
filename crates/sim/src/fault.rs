//! Seeded fault injection for the measurement harness.
//!
//! Real tuning fleets fail in ways the simulator's clean oracle never does:
//! kernels hang until the RPC timeout fires, launches fail spuriously,
//! thermal events inflate latencies, devices drop off the network for a few
//! requests, and occasionally a board dies for good. A [`FaultPlan`]
//! describes per-device rates for each of those events; a [`FaultInjector`]
//! turns the plan into a deterministic per-device event stream, so a tuning
//! run under faults is exactly reproducible from `(seed, plan)`.
//!
//! Fault draws use their own RNG stream, separate from the measurement
//! noise stream — injecting faults perturbs *which* measurements fail, not
//! the noise of the ones that succeed.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
#[allow(
    clippy::disallowed_types,
    reason = "D2 does not apply: the per-device override table takes point lookups by device name only"
)]
use std::collections::HashMap;

/// Simulated seconds a hung kernel burns before the harness kills it: the
/// full RPC timeout window is charged to the GPU clock.
pub const TIMEOUT_WINDOW_S: f64 = 10.0;
/// Simulated seconds lost detecting a spurious launch failure.
pub const LAUNCH_FAILURE_COST_S: f64 = 1.2;
/// Simulated seconds lost on an RPC round trip to a device that is
/// (transiently or permanently) unreachable.
pub const DEVICE_LOSS_COST_S: f64 = 2.0;
/// Latency multiplier applied by a noise spike (thermal event / co-tenant).
pub const NOISE_SPIKE_FACTOR: f64 = 3.0;
/// Consecutive requests a transient device loss swallows.
pub const TRANSIENT_LOSS_SPAN: u32 = 3;

/// The failure a measurement came back with (instead of a latency).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MeasureFault {
    /// The kernel hung; the harness killed it after the timeout window.
    /// The whole window is charged to the simulated clock.
    Timeout {
        /// Simulated seconds burned waiting.
        timeout_s: f64,
    },
    /// The launch failed spuriously (driver hiccup, ECC retry, OOM race).
    LaunchFailure,
    /// The device did not answer the RPC; it may come back.
    DeviceLost,
    /// The device is permanently gone.
    DeviceDead,
}

impl MeasureFault {
    /// Whether retrying the same measurement can possibly succeed.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        !matches!(self, MeasureFault::DeviceDead)
    }

    /// Simulated seconds this fault costs when it fires.
    #[must_use]
    pub fn cost_s(&self) -> f64 {
        match self {
            MeasureFault::Timeout { timeout_s } => *timeout_s,
            MeasureFault::LaunchFailure => LAUNCH_FAILURE_COST_S,
            MeasureFault::DeviceLost | MeasureFault::DeviceDead => DEVICE_LOSS_COST_S,
        }
    }

    /// Stable machine-readable label (journals, CLI summaries).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MeasureFault::Timeout { .. } => "timeout",
            MeasureFault::LaunchFailure => "launch_failure",
            MeasureFault::DeviceLost => "device_lost",
            MeasureFault::DeviceDead => "device_dead",
        }
    }
}

impl std::fmt::Display for MeasureFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureFault::Timeout { timeout_s } => write!(f, "kernel timeout after {timeout_s:.1}s"),
            MeasureFault::LaunchFailure => write!(f, "spurious launch failure"),
            MeasureFault::DeviceLost => write!(f, "device unreachable (transient)"),
            MeasureFault::DeviceDead => write!(f, "device dead"),
        }
    }
}

/// Per-measurement fault probabilities. All rates are independent draws in
/// `[0, 1]`; `device_dead` is a per-measurement hazard, so even small rates
/// kill a device quickly over a long run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultRates {
    /// P(kernel hangs until the timeout window expires).
    pub timeout: f64,
    /// P(spurious launch failure).
    pub launch_failure: f64,
    /// P(latency spikes by [`NOISE_SPIKE_FACTOR`] — still a valid sample).
    pub noise_spike: f64,
    /// P(device drops off for [`TRANSIENT_LOSS_SPAN`] requests).
    pub device_lost: f64,
    /// P(device dies permanently).
    pub device_dead: f64,
}

impl FaultRates {
    /// Rates that never fire.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any fault can fire under these rates.
    #[must_use]
    pub fn any(&self) -> bool {
        self.timeout > 0.0 || self.launch_failure > 0.0 || self.noise_spike > 0.0 || self.device_lost > 0.0 || self.device_dead > 0.0
    }

    /// Checks every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns the offending field name when a rate is outside `[0, 1]`
    /// or not finite.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("timeout", self.timeout),
            ("launch", self.launch_failure),
            ("noise", self.noise_spike),
            ("lost", self.device_lost),
            ("dead", self.device_dead),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("fault rate `{name}` must be in [0, 1], got {value}"));
            }
        }
        Ok(())
    }
}

/// Storage-layer fault injection for the crash-safety chaos tier: crash the
/// process (fail-stop) or tear a write at a chosen journal sequence number.
/// Unlike [`FaultRates`] these are deterministic trigger points, not
/// probabilities — chaos tests sweep the sequence number to kill a run at
/// every trial boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageFaults {
    /// Simulate a process crash immediately *before* appending the journal
    /// record with this sequence number.
    pub crash_at_seq: Option<u64>,
    /// Tear the append of the record with this sequence number (write only
    /// a prefix of the frame), then behave as a crash.
    pub torn_at_seq: Option<u64>,
    /// How many bytes of the torn frame reach the file (clamped to the
    /// frame length).
    pub torn_keep_bytes: Option<u64>,
}

impl StorageFaults {
    /// No storage faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any storage fault is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.crash_at_seq.is_some() || self.torn_at_seq.is_some()
    }
}

/// Artifact-file fault injection for the degraded-mode chaos tier: damage
/// the saved artifact bundle *before* a run loads it, so tests can assert
/// the run completes on a fallback instead of aborting. Like
/// [`StorageFaults`] these are deterministic triggers, not probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ArtifactFaults {
    /// XOR `0xFF` into the byte at this offset (clamped to the last byte),
    /// producing a checksum mismatch on an enveloped artifact.
    pub corrupt_at_byte: Option<u64>,
    /// Keep only this many leading bytes of the file.
    pub truncate_at_byte: Option<u64>,
    /// Rewrite the envelope header's schema version to `v+1`, leaving the
    /// payload and its CRC intact — pure schema drift. A file without a
    /// parseable envelope header is left untouched.
    pub version_bump: bool,
    /// Remove the file entirely.
    pub delete: bool,
}

impl ArtifactFaults {
    /// No artifact faults.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any artifact fault is armed.
    #[must_use]
    pub fn any(&self) -> bool {
        self.corrupt_at_byte.is_some() || self.truncate_at_byte.is_some() || self.version_bump || self.delete
    }

    /// Applies the armed faults to the file at `path` (atomic replace, so
    /// the damaged artifact is itself a well-formed file on disk). A
    /// missing file is a no-op — there is nothing left to damage — and
    /// `delete` wins over the byte-level faults.
    ///
    /// # Errors
    ///
    /// Propagates IO errors from reading or rewriting the file.
    pub fn apply(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.any() {
            return Ok(());
        }
        if self.delete {
            return match std::fs::remove_file(path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            };
        }
        let mut bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        if let Some(keep) = self.truncate_at_byte {
            bytes.truncate(usize::try_from(keep).unwrap_or(usize::MAX).min(bytes.len()));
        }
        if let Some(at) = self.corrupt_at_byte {
            if !bytes.is_empty() {
                let at = usize::try_from(at).unwrap_or(usize::MAX).min(bytes.len() - 1);
                bytes[at] ^= 0xFF;
            }
        }
        if self.version_bump {
            if let Ok(header) = glimpse_durable::envelope::sniff(&bytes) {
                let old = format!("{} {} v{} ", glimpse_durable::envelope::MAGIC, header.kind, header.schema);
                let new = format!("{} {} v{} ", glimpse_durable::envelope::MAGIC, header.kind, header.schema + 1);
                if bytes.starts_with(old.as_bytes()) {
                    let mut bumped = new.into_bytes();
                    bumped.extend_from_slice(&bytes[old.len()..]);
                    bytes = bumped;
                }
            }
        }
        glimpse_durable::atomic_write(path, &bytes)
    }
}

/// A reproducible description of which faults a fleet suffers: one seed,
/// fleet-wide default rates, and optional per-device overrides.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every injector derived from this plan.
    pub seed: u64,
    /// Rates for devices without an override.
    pub default_rates: FaultRates,
    /// Per-device overrides keyed by device name.
    #[allow(clippy::disallowed_types, reason = "D2 does not apply: point lookups by device name only")]
    pub per_device: HashMap<String, FaultRates>,
    /// Storage-layer (journal) fault triggers.
    pub storage: StorageFaults,
    /// Artifact-file fault triggers.
    pub artifact: ArtifactFaults,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Uniform rates across the fleet.
    #[must_use]
    #[allow(clippy::disallowed_types, reason = "D2 does not apply: builds the empty override table")]
    pub fn uniform(seed: u64, rates: FaultRates) -> Self {
        Self {
            seed,
            default_rates: rates,
            per_device: HashMap::new(),
            storage: StorageFaults::none(),
            artifact: ArtifactFaults::none(),
        }
    }

    /// Marks `device` as dead from the first measurement on.
    #[must_use]
    pub fn with_dead_device(mut self, device: &str) -> Self {
        self.per_device.insert(
            device.to_string(),
            FaultRates {
                device_dead: 1.0,
                ..FaultRates::none()
            },
        );
        self
    }

    /// Overrides the rates for one device.
    #[must_use]
    pub fn with_device_rates(mut self, device: &str, rates: FaultRates) -> Self {
        self.per_device.insert(device.to_string(), rates);
        self
    }

    /// Rates in effect for `device`.
    #[must_use]
    pub fn rates_for(&self, device: &str) -> FaultRates {
        self.per_device.get(device).copied().unwrap_or(self.default_rates)
    }

    /// Whether this plan can inject anything anywhere.
    #[must_use]
    pub fn any(&self) -> bool {
        self.default_rates.any() || self.per_device.values().any(FaultRates::any)
    }

    /// Parses a CLI rate spec like `timeout=0.1,launch=0.05,noise=0.1,lost=0.02,dead=0.01`
    /// into a uniform plan with seed 0 (set the seed separately). Storage
    /// triggers use integer sequence numbers: `crash_at=12`, `torn_at=12`,
    /// `torn_keep=7`. Artifact triggers damage a saved artifact before it
    /// is loaded: `artifact_corrupt_at=<byte>`, `artifact_truncate_at=<byte>`,
    /// `artifact_version_bump=1`, `artifact_delete=1`.
    /// A key of the form `kind@device` overrides one rate
    /// for one device — `dead@RTX 2080 Ti=1.0` kills that board while the
    /// rest of the fleet keeps the fleet-wide rates. Per-device overrides
    /// start from the fleet-wide rates regardless of where they appear in
    /// the spec, so `dead@X=1.0,timeout=0.1` and `timeout=0.1,dead@X=1.0`
    /// mean the same plan.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad key, value, or range.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rates = FaultRates::none();
        let mut storage = StorageFaults::none();
        let mut artifact = ArtifactFaults::none();
        // (device, kind, rate), applied after the fleet-wide pass so the
        // override base never depends on key order within the spec.
        let mut overrides: Vec<(String, String, f64)> = Vec::new();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad fault spec `{part}`: expected key=rate"))?;
            let key = key.trim();
            let value = value.trim();
            if let "crash_at" | "torn_at" | "torn_keep" = key {
                let seq: u64 = value
                    .parse()
                    .map_err(|_| format!("bad value `{value}` for `{key}`: expected a sequence number"))?;
                match key {
                    "crash_at" => storage.crash_at_seq = Some(seq),
                    "torn_at" => storage.torn_at_seq = Some(seq),
                    _ => storage.torn_keep_bytes = Some(seq),
                }
                continue;
            }
            if let "artifact_corrupt_at" | "artifact_truncate_at" | "artifact_version_bump" | "artifact_delete" = key {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("bad value `{value}` for `{key}`: expected an integer"))?;
                match key {
                    "artifact_corrupt_at" => artifact.corrupt_at_byte = Some(n),
                    "artifact_truncate_at" => artifact.truncate_at_byte = Some(n),
                    "artifact_version_bump" => artifact.version_bump = n != 0,
                    _ => artifact.delete = n != 0,
                }
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("bad fault rate `{value}` for `{key}`: expected a number"))?;
            if let Some((kind, device)) = key.split_once('@') {
                let device = device.trim();
                if device.is_empty() {
                    return Err(format!("bad fault key `{key}`: expected kind@device"));
                }
                overrides.push((device.to_string(), kind.trim().to_string(), rate));
            } else {
                Self::set_rate(&mut rates, key, rate)?;
            }
        }
        rates.validate()?;
        let mut plan = Self {
            storage,
            artifact,
            ..Self::uniform(0, rates)
        };
        for (device, kind, rate) in overrides {
            let mut device_rates = plan.rates_for(&device);
            Self::set_rate(&mut device_rates, &kind, rate)?;
            device_rates.validate()?;
            plan.per_device.insert(device, device_rates);
        }
        Ok(plan)
    }

    fn set_rate(rates: &mut FaultRates, kind: &str, rate: f64) -> Result<(), String> {
        match kind {
            "timeout" => rates.timeout = rate,
            "launch" | "launch_failure" => rates.launch_failure = rate,
            "noise" | "noise_spike" => rates.noise_spike = rate,
            "lost" | "device_lost" => rates.device_lost = rate,
            "dead" | "device_dead" => rates.device_dead = rate,
            other => {
                let expected = "timeout, launch, noise, lost, dead, crash_at, torn_at, torn_keep, or artifact_*";
                return Err(format!("unknown fault kind `{other}` (expected {expected})"));
            }
        }
        Ok(())
    }
}

/// What the injector decided for one measurement attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Fail the measurement with this fault.
    Fail(MeasureFault),
    /// Let it run, but multiply the true latency by this factor.
    Inflate(f64),
}

/// Checkpointable snapshot of a [`FaultInjector`] mid-stream. The rates are
/// *not* part of the snapshot — they come from the plan the injector is
/// rebuilt from, so a resumed run must use the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectorState {
    /// Raw RNG state of the fault stream.
    pub rng: [u64; 4],
    /// Whether the device had died permanently.
    pub dead: bool,
    /// Requests left in the current transient-loss window.
    pub lost_remaining: u32,
    /// Fault events injected so far.
    pub injected: u64,
}

/// The deterministic per-device fault stream derived from a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seed: u64,
    rates: FaultRates,
    rng: StdRng,
    dead: bool,
    lost_remaining: u32,
    injected: u64,
}

impl FaultInjector {
    /// Builds the injector for `device` under `plan`. The stream depends
    /// only on `(plan.seed, device)`, so fleets replay bit-identically.
    #[must_use]
    pub fn for_device(plan: &FaultPlan, device: &str) -> Self {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for b in device.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Self {
            seed: plan.seed,
            rates: plan.rates_for(device),
            rng: StdRng::seed_from_u64(plan.seed ^ hash),
            dead: false,
            lost_remaining: 0,
            injected: 0,
        }
    }

    /// The plan seed and this device's rates: what the stream is built
    /// from.
    #[must_use]
    pub fn identity(&self) -> (u64, FaultRates) {
        (self.seed, self.rates)
    }

    /// Whether the device has died permanently.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of fault events injected so far (noise spikes included).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Draws the fate of the next measurement attempt. `None` means the
    /// measurement proceeds untouched.
    pub fn next_event(&mut self) -> Option<FaultEvent> {
        if self.dead {
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::DeviceDead));
        }
        if self.lost_remaining > 0 {
            self.lost_remaining -= 1;
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::DeviceLost));
        }
        if !self.rates.any() {
            return None;
        }
        // One draw per hazard keeps each rate independently interpretable
        // and the stream length per attempt fixed (replay stability).
        let dead = self.rates.device_dead > 0.0 && self.rng.gen_bool(self.rates.device_dead);
        let lost = self.rates.device_lost > 0.0 && self.rng.gen_bool(self.rates.device_lost);
        let timeout = self.rates.timeout > 0.0 && self.rng.gen_bool(self.rates.timeout);
        let launch = self.rates.launch_failure > 0.0 && self.rng.gen_bool(self.rates.launch_failure);
        let spike = self.rates.noise_spike > 0.0 && self.rng.gen_bool(self.rates.noise_spike);
        if dead {
            self.dead = true;
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::DeviceDead));
        }
        if lost {
            self.lost_remaining = TRANSIENT_LOSS_SPAN - 1;
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::DeviceLost));
        }
        if timeout {
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::Timeout {
                timeout_s: TIMEOUT_WINDOW_S,
            }));
        }
        if launch {
            self.injected += 1;
            return Some(FaultEvent::Fail(MeasureFault::LaunchFailure));
        }
        if spike {
            self.injected += 1;
            return Some(FaultEvent::Inflate(NOISE_SPIKE_FACTOR));
        }
        None
    }

    /// Snapshots the injector for a checkpoint (see [`InjectorState`]).
    #[must_use]
    pub fn state(&self) -> InjectorState {
        InjectorState {
            rng: self.rng.state(),
            dead: self.dead,
            lost_remaining: self.lost_remaining,
            injected: self.injected,
        }
    }

    /// Restores a snapshot taken by [`FaultInjector::state`], resuming the
    /// fault stream bit-identically. The rates stay as constructed.
    pub fn restore_state(&mut self, state: &InjectorState) {
        self.rng = StdRng::from_state(state.rng);
        self.dead = state.dead;
        self.lost_remaining = state.lost_remaining;
        self.injected = state.injected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultRates {
        FaultRates {
            timeout: 0.1,
            launch_failure: 0.1,
            noise_spike: 0.1,
            device_lost: 0.05,
            device_dead: 0.01,
        }
    }

    #[test]
    fn parse_accepts_the_documented_grammar() {
        let plan = FaultPlan::parse("timeout=0.1, launch=0.05,noise=0.2,lost=0.02,dead=0.01").unwrap();
        assert_eq!(plan.default_rates.timeout, 0.1);
        assert_eq!(plan.default_rates.launch_failure, 0.05);
        assert_eq!(plan.default_rates.noise_spike, 0.2);
        assert_eq!(plan.default_rates.device_lost, 0.02);
        assert_eq!(plan.default_rates.device_dead, 0.01);
        assert!(plan.any());
    }

    #[test]
    fn parse_accepts_artifact_triggers() {
        let plan = FaultPlan::parse("artifact_corrupt_at=40,artifact_truncate_at=9").unwrap();
        let faults = plan.artifact;
        assert_eq!(faults.corrupt_at_byte, Some(40));
        assert_eq!(faults.truncate_at_byte, Some(9));
        assert!(!faults.version_bump && !faults.delete);

        let plan = FaultPlan::parse("artifact_version_bump=1,artifact_delete=1,timeout=0.1").unwrap();
        assert!(plan.artifact.version_bump);
        assert!(plan.artifact.delete);
        assert_eq!(plan.default_rates.timeout, 0.1);

        assert!(!FaultPlan::parse("timeout=0.1").unwrap().artifact.any());
        assert!(FaultPlan::parse("artifact_corrupt_at=soon").is_err());
    }

    #[test]
    fn artifact_faults_damage_files_as_armed() {
        let dir = std::env::temp_dir().join(format!("glimpse-artifact-faults-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        let spec = glimpse_durable::envelope::EnvelopeSpec {
            kind: "artifacts",
            schema: 1,
        };
        let seal = |p: &std::path::Path| glimpse_durable::envelope::write_envelope(p, spec, b"payload-bytes").unwrap();

        seal(&path);
        let clean = std::fs::read(&path).unwrap();
        ArtifactFaults {
            corrupt_at_byte: Some(clean.len() as u64 - 1),
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        let corrupted = std::fs::read(&path).unwrap();
        assert_eq!(corrupted.len(), clean.len());
        assert_ne!(corrupted, clean);

        seal(&path);
        ArtifactFaults {
            truncate_at_byte: Some(10),
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 10);

        seal(&path);
        ArtifactFaults {
            version_bump: true,
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        let bumped = glimpse_durable::envelope::sniff(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(bumped.schema, 2);
        // Payload CRC stays valid: the damage is pure schema drift.
        assert!(matches!(
            glimpse_durable::envelope::verify_file(&path, spec),
            glimpse_durable::envelope::Integrity::SchemaDrift { .. }
        ));

        seal(&path);
        ArtifactFaults {
            delete: true,
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        assert!(!path.exists());
        // Re-applying to the now-missing file is a no-op, not an error.
        ArtifactFaults {
            delete: true,
            corrupt_at_byte: Some(0),
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        ArtifactFaults {
            corrupt_at_byte: Some(0),
            ..ArtifactFaults::none()
        }
        .apply(&path)
        .unwrap();
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("timeout").is_err());
        assert!(FaultPlan::parse("warp=0.1").is_err());
        assert!(FaultPlan::parse("timeout=eleven").is_err());
        assert!(FaultPlan::parse("timeout=1.5").is_err());
        assert!(FaultPlan::parse("timeout=-0.1").is_err());
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut injector = FaultInjector::for_device(&FaultPlan::none(), "Titan Xp");
        for _ in 0..10_000 {
            assert_eq!(injector.next_event(), None);
        }
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn streams_replay_bit_identically() {
        let plan = FaultPlan::uniform(42, chaotic());
        let mut a = FaultInjector::for_device(&plan, "Titan Xp");
        let mut b = FaultInjector::for_device(&plan, "Titan Xp");
        for _ in 0..5_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn streams_differ_across_devices_and_seeds() {
        let plan = FaultPlan::uniform(42, chaotic());
        let other_seed = FaultPlan::uniform(43, chaotic());
        let mut a = FaultInjector::for_device(&plan, "Titan Xp");
        let mut b = FaultInjector::for_device(&plan, "RTX 3090");
        let mut c = FaultInjector::for_device(&other_seed, "Titan Xp");
        let events_a: Vec<_> = (0..500).map(|_| a.next_event()).collect();
        let events_b: Vec<_> = (0..500).map(|_| b.next_event()).collect();
        let events_c: Vec<_> = (0..500).map(|_| c.next_event()).collect();
        assert_ne!(events_a, events_b);
        assert_ne!(events_a, events_c);
    }

    #[test]
    fn dead_stays_dead() {
        let plan = FaultPlan::none().with_dead_device("Titan Xp");
        let mut injector = FaultInjector::for_device(&plan, "Titan Xp");
        for _ in 0..10 {
            assert_eq!(injector.next_event(), Some(FaultEvent::Fail(MeasureFault::DeviceDead)));
        }
        assert!(injector.is_dead());
    }

    #[test]
    fn transient_loss_swallows_a_window_then_recovers() {
        let rates = FaultRates {
            device_lost: 1.0,
            ..FaultRates::none()
        };
        let mut injector = FaultInjector::for_device(&FaultPlan::uniform(7, rates), "GTX 1080");
        for _ in 0..TRANSIENT_LOSS_SPAN {
            assert_eq!(injector.next_event(), Some(FaultEvent::Fail(MeasureFault::DeviceLost)));
        }
        assert!(!injector.is_dead(), "transient loss must not kill the device");
    }

    #[test]
    fn rates_control_frequency_roughly() {
        let rates = FaultRates {
            timeout: 0.2,
            ..FaultRates::none()
        };
        let mut injector = FaultInjector::for_device(&FaultPlan::uniform(3, rates), "RTX 3090");
        let n = 20_000;
        let fired = (0..n).filter(|_| injector.next_event().is_some()).count();
        let rate = fired as f64 / f64::from(n);
        assert!((rate - 0.2).abs() < 0.02, "timeout rate {rate} far from 0.2");
    }

    #[test]
    fn fault_costs_and_retryability() {
        assert!(MeasureFault::Timeout {
            timeout_s: TIMEOUT_WINDOW_S
        }
        .is_retryable());
        assert!(MeasureFault::LaunchFailure.is_retryable());
        assert!(MeasureFault::DeviceLost.is_retryable());
        assert!(!MeasureFault::DeviceDead.is_retryable());
        assert_eq!(MeasureFault::Timeout { timeout_s: 10.0 }.cost_s(), 10.0);
        assert!(MeasureFault::LaunchFailure.cost_s() > 0.0);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = FaultPlan::uniform(9, chaotic()).with_dead_device("GTX 1080");
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        let armed = FaultPlan {
            storage: StorageFaults {
                crash_at_seq: Some(12),
                torn_at_seq: None,
                torn_keep_bytes: Some(7),
            },
            ..plan
        };
        let json = serde_json::to_string(&armed).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, armed);
    }

    #[test]
    fn parse_accepts_per_device_overrides() {
        let plan = FaultPlan::parse("timeout=0.1, dead@RTX 2080 Ti=1.0, noise@Titan Xp=0.3").unwrap();
        // Fleet-wide rates stay on unlisted devices.
        assert_eq!(plan.rates_for("GTX 1080").timeout, 0.1);
        assert_eq!(plan.rates_for("GTX 1080").device_dead, 0.0);
        // Overrides start from the fleet-wide rates, not from zero.
        let dead = plan.rates_for("RTX 2080 Ti");
        assert_eq!(dead.device_dead, 1.0);
        assert_eq!(dead.timeout, 0.1);
        let noisy = plan.rates_for("Titan Xp");
        assert_eq!(noisy.noise_spike, 0.3);
        assert_eq!(noisy.timeout, 0.1);
    }

    #[test]
    fn per_device_overrides_are_order_independent() {
        let a = FaultPlan::parse("dead@RTX 2080 Ti=1.0,timeout=0.1").unwrap();
        let b = FaultPlan::parse("timeout=0.1,dead@RTX 2080 Ti=1.0").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.rates_for("RTX 2080 Ti").timeout, 0.1);
    }

    #[test]
    fn parse_rejects_bad_per_device_overrides() {
        assert!(FaultPlan::parse("warp@Titan Xp=0.1").is_err());
        assert!(FaultPlan::parse("dead@=1.0").is_err());
        assert!(FaultPlan::parse("dead@Titan Xp=1.5").is_err());
    }

    #[test]
    fn parse_accepts_storage_trigger_keys() {
        let plan = FaultPlan::parse("timeout=0.1,crash_at=12").unwrap();
        assert_eq!(plan.storage.crash_at_seq, Some(12));
        assert_eq!(plan.storage.torn_at_seq, None);
        let plan = FaultPlan::parse("torn_at=5,torn_keep=9").unwrap();
        assert_eq!(plan.storage.torn_at_seq, Some(5));
        assert_eq!(plan.storage.torn_keep_bytes, Some(9));
        assert!(FaultPlan::parse("crash_at=soon").is_err());
        assert_eq!(FaultPlan::parse("").unwrap().storage, StorageFaults::none());
    }

    #[test]
    fn injector_state_resumes_the_fault_stream_bit_identically() {
        let plan = FaultPlan::uniform(42, chaotic());
        let mut live = FaultInjector::for_device(&plan, "Titan Xp");
        for _ in 0..137 {
            let _ = live.next_event();
        }
        let state = live.state();
        let json = serde_json::to_string(&state).unwrap();
        let back: InjectorState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);
        let mut resumed = FaultInjector::for_device(&plan, "Titan Xp");
        resumed.restore_state(&back);
        for _ in 0..500 {
            assert_eq!(resumed.next_event(), live.next_event());
        }
        assert_eq!(resumed.injected(), live.injected());
    }
}

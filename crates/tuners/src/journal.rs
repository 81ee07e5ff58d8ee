//! Crash-safe tuning runs: durable trial journal, atomic snapshots, and
//! kill-anywhere resume.
//!
//! A checkpointed run directory holds three files:
//!
//! * `journal.wal` — an append-only write-ahead log (see
//!   [`glimpse_durable::wal`]). Frame 0 is the [`RunHeader`] (run identity
//!   plus the measurer's starting state); every following frame is one
//!   [`TrialRecord`] — the [`Trial`] plus the [`MeasurerState`] *after* it —
//!   appended before the tuner consumes the trial, so a crash never loses a
//!   debited measurement.
//! * `snapshot.json` — a periodic [`Snapshot`] written atomically
//!   (temp file + fsync + rename) every [`CheckpointSpec::snapshot_every`]
//!   trials; each snapshot also fsyncs the WAL, making everything up to it
//!   power-loss durable.
//! * `complete.json` — the final [`TuningOutcome`], written atomically by
//!   [`RunJournal::mark_complete`]. Its presence marks the cell finished;
//!   fleet resume loads it instead of re-running.
//!
//! **Resume is replay, not state surgery.** Tuners are deterministic
//! functions of `(seed, history)` (the replay determinism contract), so
//! [`run_supervised`] does not try to serialize GBT/GP internals.
//! It restores the measurer to the header's starting state and re-drives
//! the tuner; [`TuneContext`] serves the recorded prefix from a replay
//! queue (verifying the tuner requests the same configurations — any
//! divergence poisons the journal and fail-stops) and switches to live
//! measurement exactly where the crash hit, restoring the measurer to the
//! last recorded post-trial state. The resumed journal is byte-identical
//! to an uninterrupted run's.
//!
//! **Recovery rules.** On open, the WAL scan tolerates a truncated tail and
//! a corrupted trailing record (frame-level via CRC/sequence checks,
//! payload-level via JSON decoding): the corrupt tail is truncated away and
//! appending continues at the next sequence number. A journal whose header
//! frame never became durable is restarted from zero (nothing measured was
//! recorded); a header that decodes but does not match the requested run is
//! a hard [`JournalError::HeaderMismatch`] — resuming under different
//! parameters would silently corrupt results.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::budget::Budget;
use crate::context::{RunControl, TuneContext, Tuner, TuningOutcome};
use crate::history::Trial;
use glimpse_sim::{FaultRates, Measurer, MeasurerState, StorageFaults};
use glimpse_space::SearchSpace;
use glimpse_supervise::{CellStatus, Degradation, HealthReport};
use glimpse_tensor_prog::{Task, TemplateKind};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// WAL file name inside a checkpoint cell directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Periodic atomic snapshot file name.
pub const SNAPSHOT_FILE: &str = "snapshot.json";
/// Terminal outcome file name; presence marks the cell complete.
pub const COMPLETE_FILE: &str = "complete.json";
/// Default snapshot cadence (trials per snapshot + WAL fsync).
pub const DEFAULT_SNAPSHOT_EVERY: u64 = 16;
/// Default bytes of a torn frame that reach the file when `torn_at_seq`
/// fires without an explicit `torn_keep_bytes` (cuts mid-header).
pub const DEFAULT_TORN_KEEP: u64 = 7;

/// Why a journal operation failed. Corruption of the *tail* is not an
/// error (lossy-tail recovery handles it); these are the unrecoverable or
/// injected cases.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A frame that passed its CRC holds an undecodable or impossible
    /// payload (format drift, version skew).
    Corrupt {
        /// WAL sequence number of the offending frame.
        seq: u64,
        /// What failed to decode.
        detail: String,
    },
    /// The journal's header does not match the run being resumed.
    HeaderMismatch {
        /// First mismatching field, `name: journal=.. run=..`.
        detail: String,
    },
    /// A journal already exists and `--resume` was not requested.
    AlreadyExists(PathBuf),
    /// Injected fail-stop: the sim fault plan's `crash_at_seq` fired.
    SimulatedCrash {
        /// Sequence number whose append was suppressed.
        seq: u64,
    },
    /// Injected fail-stop: the sim fault plan's `torn_at_seq` fired and a
    /// partial frame was written.
    TornWrite {
        /// Sequence number whose append was torn.
        seq: u64,
    },
    /// During resume, the tuner requested a different configuration than
    /// the journal recorded — the determinism contract is broken.
    ReplayDivergence {
        /// Sequence number of the record that disagreed.
        seq: u64,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(err) => write!(f, "journal IO error: {err}"),
            JournalError::Corrupt { seq, detail } => write!(f, "journal record {seq} is corrupt: {detail}"),
            JournalError::HeaderMismatch { detail } => {
                write!(f, "journal belongs to a different run ({detail}); refuse to resume")
            }
            JournalError::AlreadyExists(path) => {
                write!(f, "journal {} already exists; pass --resume to continue it", path.display())
            }
            JournalError::SimulatedCrash { seq } => write!(f, "injected crash before appending record {seq}"),
            JournalError::TornWrite { seq } => write!(f, "injected torn write while appending record {seq}"),
            JournalError::ReplayDivergence { seq } => {
                write!(
                    f,
                    "resume diverged from the journal at record {seq}: tuner requested a different config"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(err: std::io::Error) -> Self {
        JournalError::Io(err)
    }
}

/// Frame 0 of every journal: the run's identity and starting state, read
/// from the tuner, task, measurer, budget and seed the run is given. A
/// resumed run must present identical parameters — the header is the
/// contract that makes byte-identical resume meaningful.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunHeader {
    /// Tuner name ([`Tuner::name`]).
    pub tuner: String,
    /// GPU marketing name.
    pub gpu: String,
    /// Model the task came from.
    pub model: String,
    /// Task index within the model.
    pub task_index: usize,
    /// Code template tuned.
    pub template: TemplateKind,
    /// Stopping criteria.
    pub budget: Budget,
    /// Tuner seed.
    pub seed: u64,
    /// Fault-plan seed and this device's fault rates
    /// ([`Measurer::faults`]); `None` when the measurer injects nothing.
    pub faults: Option<(u64, FaultRates)>,
    /// Names of the learned components the tuner runs on their fallback
    /// ([`Tuner::health`]); empty when every component is learned or the
    /// tuner has none. A header without the field is refused as
    /// [`JournalError::Corrupt`]. Resuming a run under a *different* set
    /// is a header mismatch, because the tuner is a deterministic function
    /// of (seed, history, fallbacks).
    pub fallbacks: Vec<String>,
    /// Measurer state when the run started.
    pub start: MeasurerState,
}

/// One WAL trial record: the trial plus the measurer state after it, so
/// resume can continue the measurement and fault streams bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The journaled trial.
    pub trial: Trial,
    /// Measurer state immediately after this trial.
    pub post: MeasurerState,
}

/// Periodic atomic checkpoint of run progress (written alongside a WAL
/// fsync, so everything up to `trials` is power-loss durable).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Trials journaled when this snapshot was taken.
    pub trials: u64,
    /// Best valid throughput so far (GFLOPS).
    pub best_gflops: f64,
    /// Measurer state after the last journaled trial.
    pub post: MeasurerState,
}

/// A live journal: the appending end of a checkpointed run.
#[derive(Debug)]
pub struct RunJournal {
    writer: glimpse_durable::WalWriter,
    dir: PathBuf,
    snapshot_every: u64,
    storage: StorageFaults,
    trials: u64,
    best_gflops: f64,
    poison: Option<JournalError>,
}

/// What [`RunJournal::resume`] recovered from an interrupted run.
#[derive(Debug)]
pub struct ResumedRun {
    /// The journal, positioned to append the next trial.
    pub journal: RunJournal,
    /// The run's header (frame 0).
    pub header: RunHeader,
    /// Every intact trial record, in sequence order.
    pub records: Vec<TrialRecord>,
}

impl RunJournal {
    /// Starts a fresh journal in `dir`, writing and fsyncing the header
    /// frame before returning.
    ///
    /// # Errors
    ///
    /// [`JournalError::AlreadyExists`] if `dir` already holds a journal
    /// (use [`RunJournal::resume`]); otherwise IO/encoding errors.
    pub fn create(dir: &Path, header: &RunHeader, storage: StorageFaults, snapshot_every: u64) -> Result<Self, JournalError> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        if path.exists() {
            return Err(JournalError::AlreadyExists(path));
        }
        let mut writer = glimpse_durable::WalWriter::create(&path)?;
        let payload = encode(header, 0)?;
        writer.append(payload.as_bytes())?;
        writer.sync()?;
        Ok(Self {
            writer,
            dir: dir.to_path_buf(),
            snapshot_every,
            storage,
            trials: 0,
            best_gflops: 0.0,
            poison: None,
        })
    }

    /// Recovers the journal in `dir`: scans the WAL, drops a corrupt tail
    /// (truncated frame, bad CRC, bad sequence number, or an undecodable
    /// trailing payload), truncates the file back to the intact prefix,
    /// and returns the header plus every recovered trial record.
    ///
    /// Returns `Ok(None)` when no header frame survived — nothing was
    /// durably recorded, so the caller should start the run from scratch.
    ///
    /// # Errors
    ///
    /// IO errors, or [`JournalError::Corrupt`] when the header frame is
    /// intact at the WAL layer but undecodable (format drift).
    pub fn resume(dir: &Path, storage: StorageFaults, snapshot_every: u64) -> Result<Option<ResumedRun>, JournalError> {
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path)?;
        let recovery = glimpse_durable::scan(&bytes, 0);
        let Some(first) = recovery.frames.first() else {
            return Ok(None);
        };
        let header: RunHeader = decode(&first.payload, 0)?;
        let mut valid_len = frame_len(first) as u64;
        let mut records = Vec::with_capacity(recovery.frames.len().saturating_sub(1));
        let mut best_gflops = 0.0f64;
        for frame in &recovery.frames[1..] {
            // A record that passed its CRC but fails to decode is treated
            // exactly like a torn tail: it and everything after it are
            // discarded. (In practice only the last record can be affected;
            // anything earlier would indicate format drift, caught by the
            // header check above.)
            let Ok(record) = decode::<TrialRecord>(&frame.payload, frame.seq) else {
                break;
            };
            valid_len += frame_len(frame) as u64;
            if let Some(g) = record.trial.gflops {
                best_gflops = best_gflops.max(g);
            }
            records.push(record);
        }
        let next_seq = records.len() as u64 + 1;
        let writer = glimpse_durable::open_for_append_at(&path, valid_len, next_seq)?;
        let trials = records.len() as u64;
        Ok(Some(ResumedRun {
            journal: Self {
                writer,
                dir: dir.to_path_buf(),
                snapshot_every,
                storage,
                trials,
                best_gflops,
                poison: None,
            },
            header,
            records,
        }))
    }

    /// Appends one trial record. Returns `false` — and poisons the journal,
    /// making the owning [`TuneContext`] report exhaustion — when the
    /// append failed or an injected storage fault fired; the trial must
    /// then not be consumed by the tuner (fail-stop semantics).
    pub fn append_trial(&mut self, record: &TrialRecord) -> bool {
        if self.poison.is_some() {
            return false;
        }
        match self.try_append(record) {
            Ok(()) => true,
            Err(err) => {
                self.poison = Some(err);
                false
            }
        }
    }

    fn try_append(&mut self, record: &TrialRecord) -> Result<(), JournalError> {
        let seq = self.writer.next_seq();
        if self.storage.crash_at_seq == Some(seq) {
            return Err(JournalError::SimulatedCrash { seq });
        }
        let payload = encode(record, seq)?;
        if self.storage.torn_at_seq == Some(seq) {
            let keep = self.storage.torn_keep_bytes.unwrap_or(DEFAULT_TORN_KEEP);
            self.writer
                .append_torn(payload.as_bytes(), usize::try_from(keep).unwrap_or(usize::MAX))?;
            return Err(JournalError::TornWrite { seq });
        }
        self.writer.append(payload.as_bytes())?;
        self.trials += 1;
        if let Some(g) = record.trial.gflops {
            self.best_gflops = self.best_gflops.max(g);
        }
        if self.snapshot_every > 0 && self.trials.is_multiple_of(self.snapshot_every) {
            self.write_snapshot(&record.post)?;
        }
        Ok(())
    }

    /// Forces a snapshot + WAL fsync *now* — the graceful-shutdown flush.
    /// Everything journaled so far becomes power-loss durable before the
    /// process exits. The snapshot is advisory (resume replays the WAL, not
    /// the snapshot): if the run was cancelled while still replaying a
    /// recorded prefix, `post` is the measurer's restored starting state,
    /// which is fine because nothing new was measured.
    ///
    /// # Errors
    ///
    /// IO or encoding errors.
    pub fn flush_snapshot(&mut self, post: &MeasurerState) -> Result<(), JournalError> {
        self.write_snapshot(post)
    }

    fn write_snapshot(&mut self, post: &MeasurerState) -> Result<(), JournalError> {
        let snapshot = Snapshot {
            trials: self.trials,
            best_gflops: self.best_gflops,
            post: *post,
        };
        let text = encode(&snapshot, self.trials)?;
        glimpse_durable::atomic_write(&self.dir.join(SNAPSHOT_FILE), text.as_bytes())?;
        // Snapshot cadence doubles as the power-loss durability barrier.
        self.writer.sync()?;
        Ok(())
    }

    /// Finishes the run: fsyncs the WAL and atomically writes
    /// `complete.json` with the outcome, marking the cell done for fleet
    /// resume.
    ///
    /// # Errors
    ///
    /// IO or encoding errors; the journal itself stays valid.
    pub fn mark_complete(&mut self, outcome: &TuningOutcome) -> Result<(), JournalError> {
        self.writer.sync()?;
        let text = encode(outcome, self.trials)?;
        glimpse_durable::atomic_write(&self.dir.join(COMPLETE_FILE), text.as_bytes())?;
        Ok(())
    }

    /// Poisons the journal with a replay divergence (called by the context
    /// when a resumed tuner requests a configuration the journal did not
    /// record).
    pub fn poison_divergence(&mut self, seq: u64) {
        if self.poison.is_none() {
            self.poison = Some(JournalError::ReplayDivergence { seq });
        }
    }

    /// Whether a fatal journal event occurred; the run must fail-stop.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Takes the poisoning error, if any.
    pub fn take_poison(&mut self) -> Option<JournalError> {
        self.poison.take()
    }

    /// Number of trial records appended (replayed prefix included).
    #[must_use]
    pub fn trials(&self) -> u64 {
        self.trials
    }
}

/// Loads a cell's terminal outcome, if the run completed.
///
/// # Errors
///
/// IO errors other than the file being absent, or a corrupt outcome file
/// (which `atomic_write` should make impossible short of media failure).
pub fn load_complete(dir: &Path) -> Result<Option<TuningOutcome>, JournalError> {
    let path = dir.join(COMPLETE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(JournalError::Io(err)),
    };
    serde_json::from_str(&text).map(Some).map_err(|err| JournalError::Corrupt {
        seq: 0,
        detail: format!("{}: {err:?}", path.display()),
    })
}

/// Loads the latest periodic snapshot, if one was written.
///
/// # Errors
///
/// IO errors other than the file being absent, or a corrupt snapshot.
pub fn load_snapshot(dir: &Path) -> Result<Option<Snapshot>, JournalError> {
    let path = dir.join(SNAPSHOT_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(JournalError::Io(err)),
    };
    serde_json::from_str(&text).map(Some).map_err(|err| JournalError::Corrupt {
        seq: 0,
        detail: format!("{}: {err:?}", path.display()),
    })
}

fn encode<T: Serialize>(value: &T, seq: u64) -> Result<String, JournalError> {
    serde_json::to_string(value).map_err(|err| JournalError::Corrupt {
        seq,
        detail: format!("encode: {err:?}"),
    })
}

fn decode<T: serde::Deserialize>(payload: &[u8], seq: u64) -> Result<T, JournalError> {
    let text = std::str::from_utf8(payload).map_err(|err| JournalError::Corrupt {
        seq,
        detail: format!("payload is not UTF-8: {err}"),
    })?;
    serde_json::from_str(text).map_err(|err| JournalError::Corrupt {
        seq,
        detail: format!("decode: {err:?}"),
    })
}

fn frame_len(frame: &glimpse_durable::WalFrame) -> usize {
    glimpse_durable::wal::FRAME_HEADER_LEN + frame.payload.len()
}

/// Where and how a run checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointSpec<'p> {
    /// Cell directory holding `journal.wal` / `snapshot.json` /
    /// `complete.json`.
    pub dir: &'p Path,
    /// Whether an existing journal may be continued (otherwise an existing
    /// journal is an error — no silent clobbering).
    pub resume: bool,
    /// Injected storage faults (chaos tests).
    pub storage: StorageFaults,
    /// Trials per snapshot + WAL fsync.
    pub snapshot_every: u64,
}

impl<'p> CheckpointSpec<'p> {
    /// A spec with defaults: fresh run, no injected faults, default
    /// snapshot cadence.
    #[must_use]
    pub fn new(dir: &'p Path) -> Self {
        Self {
            dir,
            resume: false,
            storage: StorageFaults::none(),
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        }
    }

    /// Allows continuing an existing journal.
    #[must_use]
    pub fn resuming(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Arms injected storage faults.
    #[must_use]
    pub fn with_storage(mut self, storage: StorageFaults) -> Self {
        self.storage = storage;
        self
    }
}

/// A supervised run's result: the outcome plus the terminal
/// [`CellStatus`] the degradation report records.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedOutcome {
    /// The tuning outcome as of when the run ended (full budget for
    /// `Complete`, the journaled prefix otherwise).
    pub outcome: TuningOutcome,
    /// How the cell ended.
    pub status: CellStatus,
    /// Simulated seconds left under the tightest configured deadline when
    /// the run ended (`None` when no deadline was set).
    pub deadline_slack_s: Option<f64>,
}

impl SupervisedOutcome {
    /// Settles a run that has just finished under `control`: the token's
    /// reason, a dead device and component fallbacks decide the status (see
    /// [`CellStatus::settle`]), and the slack is taken under the tightest
    /// of the control's deadlines. The one rule both the
    /// journaled and the unjournaled paths report through.
    #[must_use]
    pub fn settle(outcome: TuningOutcome, control: &RunControl, device_dead: bool) -> Self {
        let component_fallback = outcome.health.as_ref().is_some_and(HealthReport::any_degraded);
        Self {
            status: CellStatus::settle(control.cancel.reason(), device_dead, component_fallback),
            deadline_slack_s: deadline_slack(control, outcome.gpu_seconds),
            outcome,
        }
    }
}

/// Runs `tuner` on one (task, device) cell with crash-safe journaling,
/// under supervision.
///
/// Fresh run: writes the header, journals every trial before the tuner
/// consumes it, snapshots periodically, and writes `complete.json` at the
/// end. Resume (`spec.resume`): the journal's header must decode; a
/// completed cell then returns its stored outcome without touching the
/// measurer, and an interrupted cell whose header matches this run is
/// recovered (lossy-tail truncation), the measurer is restored to the
/// header's starting state, and the tuner is re-driven with the recorded
/// prefix served from a replay queue — continuing live, bit-identically,
/// where the crash hit.
///
/// The run polls `control.cancel` at every trial boundary, enforces the
/// control's simulated-clock deadlines, and settles into a typed
/// [`CellStatus`]; [`RunControl::none`] runs unsupervised.
///
/// Termination paths, in precedence order:
///
/// 1. journal poison (injected crash/torn write, replay divergence) — a
///    hard `Err`;
/// 2. a tripped token — snapshot + WAL fsync are flushed and the cell is
///    `Degraded(reason)`; the journal is a byte-identical prefix of the
///    uninterrupted run's and `--resume` will finish it;
/// 3. a dead device — snapshot flushed, `Abandoned(DeviceDead)`: the
///    partial outcome is returned but `complete.json` is not written, so
///    the fleet supervisor may reassign the cell;
/// 4. otherwise `complete.json` is written and the cell is `Complete`.
///
/// A cell resumed after completion reports `Complete` with its stored
/// outcome, untouched by the current control's deadlines.
///
/// # Errors
///
/// Journal IO/recovery errors, [`JournalError::Corrupt`] for a header
/// this build cannot read, [`JournalError::HeaderMismatch`] when the
/// journal belongs to different run parameters, injected
/// [`JournalError::SimulatedCrash`]/[`JournalError::TornWrite`] events,
/// and [`JournalError::ReplayDivergence`] if determinism is broken.
#[allow(clippy::too_many_arguments, reason = "one cell's full identity plus the supervision control")]
pub fn run_supervised<T: Tuner + ?Sized>(
    tuner: &mut T,
    spec: &CheckpointSpec<'_>,
    task: &Task,
    space: &SearchSpace,
    measurer: &mut Measurer,
    budget: Budget,
    seed: u64,
    control: &RunControl,
) -> Result<SupervisedOutcome, JournalError> {
    let header = RunHeader {
        tuner: tuner.name().to_owned(),
        gpu: measurer.gpu().name.clone(),
        model: task.id.model.clone(),
        task_index: task.id.index,
        template: task.template,
        budget,
        seed,
        faults: measurer.faults(),
        fallbacks: tuner
            .health()
            .map_or_else(Vec::new, |health| health.degraded_names().into_iter().map(str::to_owned).collect()),
        start: measurer.state(),
    };
    let journal_path = spec.dir.join(JOURNAL_FILE);
    let mut resumed = None;
    if journal_path.exists() {
        if !spec.resume {
            return Err(JournalError::AlreadyExists(journal_path));
        }
        // Recovery decodes the header first, so a cell whose header this
        // build cannot read is refused even when it completed.
        match RunJournal::resume(spec.dir, spec.storage, spec.snapshot_every)? {
            Some(run) => {
                if let Some(outcome) = load_complete(spec.dir)? {
                    // A completed cell re-reports through its stored health:
                    // a run that finished on fallbacks stays Degraded.
                    let fallback = outcome.health.as_ref().is_some_and(HealthReport::any_degraded);
                    return Ok(SupervisedOutcome {
                        deadline_slack_s: deadline_slack(control, outcome.gpu_seconds),
                        status: CellStatus::settle(None, false, fallback),
                        outcome,
                    });
                }
                verify_header(&run.header, &header)?;
                measurer.restore_state(&run.header.start);
                resumed = Some((run.journal, run.records));
            }
            // The header frame never became durable: nothing was recorded,
            // so the only honest recovery is a fresh start.
            None => std::fs::remove_file(&journal_path)?,
        }
    }
    let (mut journal, records) = match resumed {
        Some(run) => run,
        None => (
            RunJournal::create(spec.dir, &header, spec.storage, spec.snapshot_every)?,
            Vec::new(),
        ),
    };
    let ctx = TuneContext::new(task, space, measurer, budget, seed)
        .with_control(control.clone())
        .with_journal(&mut journal)
        .with_replay(records);
    let outcome = tuner.tune(ctx);
    if let Some(err) = journal.take_poison() {
        return Err(err);
    }
    let supervised = SupervisedOutcome::settle(outcome, control, measurer.is_device_dead());
    // A full-budget run on component fallbacks is still *finished*:
    // complete.json is written (the cell never re-runs), but the status
    // reports the weakened search strategy. A cut-short or abandoned cell
    // flushes its snapshot and stays resumable.
    if matches!(
        supervised.status,
        CellStatus::Complete | CellStatus::Degraded(Degradation::ComponentFallback)
    ) {
        journal.mark_complete(&supervised.outcome)?;
    } else {
        journal.flush_snapshot(&measurer.state())?;
    }
    Ok(supervised)
}

/// Simulated seconds left under the tightest configured deadline.
fn deadline_slack(control: &RunControl, gpu_seconds: f64) -> Option<f64> {
    [control.deadline_s, control.wall_deadline_s]
        .into_iter()
        .flatten()
        .fold(None, |tightest: Option<f64>, d| Some(tightest.map_or(d, |t| t.min(d))))
        .map(|tightest| tightest - gpu_seconds)
}

/// Checks a recovered header against the run being resumed, field by
/// field (the measurer's starting state is restored from the journal, not
/// compared).
fn verify_header(journal: &RunHeader, run: &RunHeader) -> Result<(), JournalError> {
    let mismatch = |field: &str, journal: String, run: String| {
        Err(JournalError::HeaderMismatch {
            detail: format!("{field}: journal={journal} run={run}"),
        })
    };
    if journal.tuner != run.tuner {
        return mismatch("tuner", journal.tuner.clone(), run.tuner.clone());
    }
    if journal.gpu != run.gpu {
        return mismatch("gpu", journal.gpu.clone(), run.gpu.clone());
    }
    let task = |h: &RunHeader| format!("{}#{} ({})", h.model, h.task_index, h.template);
    if (&journal.model, journal.task_index, journal.template) != (&run.model, run.task_index, run.template) {
        return mismatch("task", task(journal), task(run));
    }
    if journal.budget != run.budget {
        return mismatch("budget", format!("{:?}", journal.budget), format!("{:?}", run.budget));
    }
    if journal.seed != run.seed {
        return mismatch("seed", journal.seed.to_string(), run.seed.to_string());
    }
    if journal.faults != run.faults {
        return mismatch("fault plan", format!("{:?}", journal.faults), format!("{:?}", run.faults));
    }
    if journal.fallbacks != run.fallbacks {
        return mismatch("fallbacks", format!("{:?}", journal.fallbacks), format!("{:?}", run.fallbacks));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autotvm::AutoTvmTuner;
    use crate::random::RandomTuner;
    use glimpse_gpu_spec::database;
    use glimpse_sim::FaultPlan;
    use glimpse_space::templates;
    use glimpse_supervise::{CancelToken, Component, HealthCause, Heartbeat};
    use glimpse_tensor_prog::models;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("glimpse_journal_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture() -> (Task, SearchSpace, FaultPlan) {
        let model = models::alexnet();
        let task = model.tasks()[2].clone();
        let space = templates::space_for_task(&task);
        let plan = FaultPlan::uniform(
            5,
            FaultRates {
                timeout: 0.05,
                noise_spike: 0.1,
                ..FaultRates::none()
            },
        );
        (task, space, plan)
    }

    fn measurer(plan: &FaultPlan) -> Measurer {
        Measurer::with_faults(database::find("Titan Xp").unwrap().clone(), 7, plan)
    }

    #[test]
    fn uninterrupted_checkpointed_run_completes_and_reloads() {
        let dir = temp_dir("clean_run");
        let (task, space, plan) = fixture();
        let spec = CheckpointSpec::new(&dir);
        let budget = Budget::measurements(20);
        let mut m = measurer(&plan);
        let outcome = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none())
            .unwrap()
            .outcome;
        assert_eq!(outcome.measurements, 20);
        let stored = load_complete(&dir).unwrap().expect("complete.json written");
        assert_eq!(stored, outcome);
        // A periodic snapshot landed (cadence 16 <= 20 trials).
        let snapshot = load_snapshot(&dir).unwrap().expect("snapshot written");
        assert_eq!(snapshot.trials, 16);
        // Resuming a completed cell returns the stored outcome untouched.
        let spec = spec.resuming(true);
        let mut m2 = measurer(&plan);
        let again = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m2, budget, 3, &RunControl::none())
            .unwrap()
            .outcome;
        assert_eq!(again, outcome);
        assert_eq!(m2.elapsed_gpu_seconds(), 0.0, "completed cell must not re-measure");
    }

    #[test]
    fn journaled_and_supervised_runs_match_a_bare_run() {
        let (task, space, plan) = fixture();
        let budget = Budget::measurements(24);
        let mut m = measurer(&plan);
        let bare = AutoTvmTuner::new().tune(TuneContext::new(&task, &space, &mut m, budget, 31));

        let dir = temp_dir("bare_vs_journaled");
        let spec = CheckpointSpec::new(&dir);
        let control = RunControl::none();
        let mut m = measurer(&plan);
        let journaled = run_supervised(&mut AutoTvmTuner::new(), &spec, &task, &space, &mut m, budget, 31, &control).unwrap();
        assert_eq!(journaled.outcome, bare, "journaling changed the tuning outcome");

        // Armed but idle supervision: a live interrupt token, deadlines far
        // in the future and a heartbeat, the per-trial checks at their
        // production shape.
        let dir = temp_dir("bare_vs_supervised");
        let spec = CheckpointSpec::new(&dir);
        let control = RunControl::none()
            .interrupted_by(CancelToken::new())
            .heartbeat(Heartbeat::new())
            .deadline_s(Some(1e12))
            .wall_deadline_s(Some(1e12));
        let mut m = measurer(&plan);
        let supervised = run_supervised(&mut AutoTvmTuner::new(), &spec, &task, &space, &mut m, budget, 31, &control).unwrap();
        assert_eq!(supervised.status, CellStatus::Complete, "idle supervision must not trip");
        assert_eq!(supervised.outcome, bare, "supervision changed the tuning outcome");
    }

    #[test]
    fn existing_journal_without_resume_is_refused() {
        let dir = temp_dir("no_clobber");
        let (task, space, plan) = fixture();
        let spec = CheckpointSpec::new(&dir);
        let budget = Budget::measurements(5);
        let mut m = measurer(&plan);
        run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none()).unwrap();
        let mut m2 = measurer(&plan);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m2, budget, 3, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::AlreadyExists(_)), "{err}");
    }

    #[test]
    fn crash_at_every_trial_boundary_resumes_byte_identically() {
        let (task, space, plan) = fixture();
        let budget = Budget::measurements(12);

        let baseline_dir = temp_dir("kill_baseline");
        let spec = CheckpointSpec::new(&baseline_dir);
        let mut m = measurer(&plan);
        let baseline = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none())
            .unwrap()
            .outcome;
        let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).unwrap();

        for kill_seq in 1..=12u64 {
            let dir = temp_dir(&format!("kill_at_{kill_seq}"));
            let crash = StorageFaults {
                crash_at_seq: Some(kill_seq),
                ..StorageFaults::none()
            };
            let spec = CheckpointSpec::new(&dir).with_storage(crash);
            let mut m = measurer(&plan);
            let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none()).unwrap_err();
            assert!(matches!(err, JournalError::SimulatedCrash { seq } if seq == kill_seq), "{err}");

            let spec = CheckpointSpec::new(&dir).resuming(true);
            let mut m = measurer(&plan);
            let resumed = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none())
                .unwrap()
                .outcome;
            assert_eq!(resumed, baseline, "kill at seq {kill_seq}");
            let wal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
            assert_eq!(wal, baseline_wal, "journal bytes differ after kill at seq {kill_seq}");
        }
    }

    #[test]
    fn torn_write_is_truncated_and_resumed_byte_identically() {
        let (task, space, plan) = fixture();
        let budget = Budget::measurements(10);

        let baseline_dir = temp_dir("torn_baseline");
        let spec = CheckpointSpec::new(&baseline_dir);
        let mut m = measurer(&plan);
        run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 9, &RunControl::none()).unwrap();
        let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).unwrap();

        let dir = temp_dir("torn_run");
        let torn = StorageFaults {
            torn_at_seq: Some(4),
            torn_keep_bytes: Some(21),
            ..StorageFaults::none()
        };
        let spec = CheckpointSpec::new(&dir).with_storage(torn);
        let mut m = measurer(&plan);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 9, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::TornWrite { seq: 4 }), "{err}");

        let spec = CheckpointSpec::new(&dir).resuming(true);
        let mut m = measurer(&plan);
        run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 9, &RunControl::none()).unwrap();
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), baseline_wal);
    }

    #[test]
    fn resume_under_different_parameters_is_refused() {
        let dir = temp_dir("mismatch");
        let (task, space, plan) = fixture();
        let crash = StorageFaults {
            crash_at_seq: Some(3),
            ..StorageFaults::none()
        };
        let spec = CheckpointSpec::new(&dir).with_storage(crash);
        let (budget, longer) = (Budget::measurements(10), Budget::measurements(11));
        let mut m = measurer(&plan);
        let _ = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none());
        // Different seed.
        let spec = CheckpointSpec::new(&dir).resuming(true);
        let mut m = measurer(&plan);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 4, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
        // Different budget.
        let mut m = measurer(&plan);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, longer, 3, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
    }

    #[test]
    fn blown_deadline_degrades_the_cell_but_leaves_it_resumable() {
        let dir = temp_dir("deadline");
        let (task, space, plan) = fixture();
        let spec = CheckpointSpec::new(&dir);
        let control = RunControl::none().deadline_s(Some(0.0));
        let mut m = measurer(&plan);
        let supervised = run_supervised(
            &mut RandomTuner::new(),
            &spec,
            &task,
            &space,
            &mut m,
            Budget::measurements(8),
            3,
            &control,
        )
        .unwrap();
        assert_eq!(supervised.status, CellStatus::Degraded(Degradation::DeadlineExceeded));
        assert_eq!(supervised.outcome.measurements, 0, "a zero deadline stops before the first trial");
        assert!(supervised.deadline_slack_s.is_some_and(|s| s <= 0.0));
        assert!(load_complete(&dir).unwrap().is_none(), "degraded cell must not be marked complete");
        assert!(load_snapshot(&dir).unwrap().is_some(), "degraded cell must flush a snapshot");
        // Resuming with a generous deadline finishes the cell.
        let spec = spec.resuming(true);
        let control = RunControl::none().deadline_s(Some(1e9));
        let mut m = measurer(&plan);
        let resumed = run_supervised(
            &mut RandomTuner::new(),
            &spec,
            &task,
            &space,
            &mut m,
            Budget::measurements(8),
            3,
            &control,
        )
        .unwrap();
        assert_eq!(resumed.status, CellStatus::Complete);
        assert_eq!(resumed.outcome.measurements, 8);
        // A completed cell resumed under an already-blown deadline still
        // reports Complete with the stored outcome.
        let mut m = measurer(&plan);
        let again = run_supervised(
            &mut RandomTuner::new(),
            &spec,
            &task,
            &space,
            &mut m,
            Budget::measurements(8),
            3,
            &RunControl::none().deadline_s(Some(0.0)),
        )
        .unwrap();
        assert_eq!(again.status, CellStatus::Complete);
        assert_eq!(again.outcome, resumed.outcome);
    }

    #[test]
    fn cancelled_cell_is_a_byte_prefix_and_resumes_identically() {
        let (task, space, plan) = fixture();
        let budget = Budget::measurements(10);

        let baseline_dir = temp_dir("cancel_baseline");
        let spec = CheckpointSpec::new(&baseline_dir);
        let mut m = measurer(&plan);
        let baseline = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none())
            .unwrap()
            .outcome;
        let baseline_wal = std::fs::read(baseline_dir.join(JOURNAL_FILE)).unwrap();

        let dir = temp_dir("cancel_run");
        let spec = CheckpointSpec::new(&dir);
        let control = RunControl::none().cancel_at_trial(5);
        let mut m = measurer(&plan);
        let supervised = run_supervised(&mut RandomTuner::new(), &spec, &task, &space, &mut m, budget, 3, &control).unwrap();
        assert_eq!(supervised.status, CellStatus::Degraded(Degradation::Interrupted));
        assert_eq!(supervised.outcome.measurements, 4, "cancel fires before trial 5 is journaled");
        let wal = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        assert!(
            wal.len() < baseline_wal.len() && baseline_wal.starts_with(&wal),
            "cancelled journal is not a proper byte prefix of the baseline"
        );

        let spec = spec.resuming(true);
        let mut m = measurer(&plan);
        let resumed = run_supervised(
            &mut RandomTuner::new(),
            &spec,
            &task,
            &space,
            &mut m,
            budget,
            3,
            &RunControl::none(),
        )
        .unwrap();
        assert_eq!(resumed.status, CellStatus::Complete);
        assert_eq!(resumed.outcome, baseline);
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), baseline_wal);
    }

    /// A tuner that delegates to [`RandomTuner`] but reports the given
    /// component health, standing in for a Glimpse run.
    struct DegradedTuner(HealthReport);

    impl DegradedTuner {
        /// The prior on its fallback, every other component learned.
        fn prior_fallback() -> Self {
            let mut health = HealthReport::healthy();
            health.demote(Component::Prior, HealthCause::ChecksumMismatch);
            Self(health)
        }
    }

    impl Tuner for DegradedTuner {
        fn name(&self) -> &str {
            "degraded-test"
        }

        fn tune(&mut self, ctx: TuneContext<'_>) -> TuningOutcome {
            let mut outcome = RandomTuner.tune(ctx);
            outcome.health = Some(self.0.clone());
            outcome
        }

        fn health(&self) -> Option<&HealthReport> {
            Some(&self.0)
        }
    }

    #[test]
    fn resume_under_a_different_rung_set_is_refused() {
        let dir = temp_dir("rung_mismatch");
        let (task, space, plan) = fixture();
        let crash = StorageFaults {
            crash_at_seq: Some(3),
            ..StorageFaults::none()
        };
        let spec = CheckpointSpec::new(&dir).with_storage(crash);
        let budget = Budget::measurements(10);
        let mut m = measurer(&plan);
        let _ = run_supervised(
            &mut DegradedTuner::prior_fallback(),
            &spec,
            &task,
            &space,
            &mut m,
            budget,
            3,
            &RunControl::none(),
        );
        // Resuming with every component learned must refuse: the journaled
        // prefix was produced by a different strategy.
        let spec = CheckpointSpec::new(&dir).resuming(true);
        let mut healthy = DegradedTuner(HealthReport::healthy());
        let mut m = measurer(&plan);
        let err = run_supervised(&mut healthy, &spec, &task, &space, &mut m, budget, 3, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
        // Resuming under the recorded fallbacks continues fine.
        let mut m = measurer(&plan);
        let outcome = run_supervised(
            &mut DegradedTuner::prior_fallback(),
            &spec,
            &task,
            &space,
            &mut m,
            budget,
            3,
            &RunControl::none(),
        )
        .unwrap()
        .outcome;
        assert_eq!(outcome.measurements, 10);
    }

    #[test]
    fn faulted_journal_resumed_on_a_clean_measurer_is_refused() {
        let dir = temp_dir("fault_mismatch");
        let (task, space, plan) = fixture();
        let crash = StorageFaults {
            crash_at_seq: Some(3),
            ..StorageFaults::none()
        };
        let budget = Budget::measurements(10);
        let mut m = measurer(&plan);
        let spec = CheckpointSpec::new(&dir).with_storage(crash);
        let _ = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none());
        // The header took the fault plan from the measurer; a clean channel
        // to the same GPU is a different run.
        let mut clean = Measurer::new(database::find("Titan Xp").unwrap().clone(), 7);
        let spec = CheckpointSpec::new(&dir).resuming(true);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut clean, budget, 3, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::HeaderMismatch { .. }), "{err}");
    }

    #[test]
    fn header_without_fallbacks_is_refused_as_corrupt() {
        let dir = temp_dir("no_fallbacks");
        let (task, space, plan) = fixture();
        let spec = CheckpointSpec::new(&dir);
        let budget = Budget::measurements(5);
        let mut m = measurer(&plan);
        run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none()).unwrap();
        // Rewrite the journal as its header frame with the field dropped,
        // the shape of a header written before the field existed. The
        // cell's complete.json stays: it is not trusted past the header.
        let path = dir.join(JOURNAL_FILE);
        let frames = glimpse_durable::scan(&std::fs::read(&path).unwrap(), 0).frames;
        let header = String::from_utf8(frames[0].payload.clone()).unwrap();
        let stripped = header.replace("\"fallbacks\":[],", "");
        assert_ne!(stripped, header, "fixture header carries an empty fallback list");
        std::fs::remove_file(&path).unwrap();
        let mut writer = glimpse_durable::WalWriter::create(&path).unwrap();
        writer.append(stripped.as_bytes()).unwrap();
        writer.sync().unwrap();
        assert!(load_complete(&dir).unwrap().is_some());

        let spec = spec.resuming(true);
        let mut m = measurer(&plan);
        let err = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none()).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { seq: 0, .. }), "{err}");
    }

    #[test]
    fn full_budget_run_on_fallback_rungs_settles_degraded_but_complete() {
        let dir = temp_dir("fallback_settle");
        let (task, space, plan) = fixture();
        let spec = CheckpointSpec::new(&dir);
        let mut m = measurer(&plan);
        let supervised = run_supervised(
            &mut DegradedTuner::prior_fallback(),
            &spec,
            &task,
            &space,
            &mut m,
            Budget::measurements(6),
            3,
            &RunControl::none(),
        )
        .unwrap();
        assert_eq!(supervised.status, CellStatus::Degraded(Degradation::ComponentFallback));
        assert_eq!(supervised.outcome.measurements, 6, "a fallback still runs the full budget");
        assert!(load_complete(&dir).unwrap().is_some(), "fallback cells are finished, not resumable");
        // Resuming the finished cell re-reports the same status from the
        // stored outcome without re-measuring.
        let spec = spec.resuming(true);
        let mut m2 = measurer(&plan);
        let again = run_supervised(
            &mut DegradedTuner::prior_fallback(),
            &spec,
            &task,
            &space,
            &mut m2,
            Budget::measurements(6),
            3,
            &RunControl::none(),
        )
        .unwrap();
        assert_eq!(again.status, CellStatus::Degraded(Degradation::ComponentFallback));
        assert_eq!(again.outcome, supervised.outcome);
        assert_eq!(m2.elapsed_gpu_seconds(), 0.0);
    }

    #[test]
    #[allow(clippy::disallowed_methods, reason = "IO1: hand-writes a corrupt fixture")]
    fn headerless_journal_restarts_from_zero() {
        let dir = temp_dir("headerless");
        let (task, space, plan) = fixture();
        // Simulate a crash mid-header append: a few junk bytes, no frame.
        std::fs::write(dir.join(JOURNAL_FILE), b"\x05\x00").unwrap();
        let spec = CheckpointSpec::new(&dir).resuming(true);
        let budget = Budget::measurements(5);
        let mut m = measurer(&plan);
        let outcome = run_supervised(&mut RandomTuner, &spec, &task, &space, &mut m, budget, 3, &RunControl::none())
            .unwrap()
            .outcome;
        assert_eq!(outcome.measurements, 5);
    }
}

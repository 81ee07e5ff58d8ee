//! The three workloads, their untimed preparation, and the round loop that
//! times them.
//!
//! A run repeats *rounds* while another one fits in its measuring time
//! (at least [`MIN_ROUNDS`]). Each round performs the workload's set-up and
//! then tunes every cell, so every deterministic unit — one bundle load,
//! one training, one cell's tune — is timed several times in-process and
//! reported as its fastest repeat. Every repeat of a cell must reproduce
//! the first one exactly; a cell that does not, or that ends without a
//! valid best configuration, counts as failed.
//!
//! In a traced run the odd rounds are *traced*: set-up runs step by step
//! through the public functions behind `GlimpseArtifacts::load` and
//! `GlimpseArtifacts::train_with`, with a span around each step, and the
//! first traced round keeps each journal cell's files for the per-layer
//! replay. Even rounds stay untraced, so the run also measures what tracing
//! costs.

use crate::measure::{replayed_gflops, time};
use glimpse_core::acquisition::NeuralAcquisition;
use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions, ARTIFACTS_ENVELOPE};
use glimpse_core::blueprint::BlueprintCodec;
use glimpse_core::corpus::{self, CorpusEntry};
use glimpse_core::health::{cause_of, ResolvedArtifacts};
use glimpse_core::prior::PriorNet;
use glimpse_core::{GlimpseConfig, GlimpseTuner};
use glimpse_durable::envelope;
use glimpse_gpu_spec::{database, GpuSpec};
use glimpse_mlkit::stats::child_rng;
use glimpse_sim::Measurer;
use glimpse_space::{templates, SearchSpace};
use glimpse_supervise::{CellStatus, HealthCause};
use glimpse_tensor_prog::{models, Conv2dSpec, DenseSpec, DnnModel, Task, TemplateKind};
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::{run_supervised, Budget, CheckpointSpec, RunControl, TuneContext, Tuner, TuningOutcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Rounds every run performs, however short its measuring time.
pub const MIN_ROUNDS: usize = 3;

/// The committed full-preset leave-one-out bundle `glimpse-warm` loads.
const WARM_BUNDLE: &str = "results/artifacts-RTX_2080_Ti-42.json";

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Glimpse tunes VGG-16 from the committed bundle: search-heavy, runs
    /// every Glimpse layer.
    GlimpseWarm,
    /// Leave-one-out fast training, then a short AlexNet tune:
    /// set-up-heavy.
    GlimpseCold,
    /// AutoTVM on ResNet-18 under the WAL journal, interrupted at half
    /// budget and resumed: bypasses every Glimpse layer.
    AutotvmJournal,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::GlimpseWarm, Workload::GlimpseCold, Workload::AutotvmJournal];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GlimpseWarm => "glimpse-warm",
            Workload::GlimpseCold => "glimpse-cold",
            Workload::AutotvmJournal => "autotvm-journal",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn gpu(self) -> &'static str {
        match self {
            Workload::GlimpseWarm => "RTX 2080 Ti",
            Workload::GlimpseCold => "RTX 3090",
            Workload::AutotvmJournal => "RTX 2070 Super",
        }
    }

    fn model(self) -> DnnModel {
        match self {
            Workload::GlimpseWarm => models::vgg16(),
            Workload::GlimpseCold => models::alexnet(),
            Workload::AutotvmJournal => models::resnet18(),
        }
    }

    /// Measurements per task.
    fn budget(self) -> usize {
        match self {
            Workload::GlimpseWarm | Workload::GlimpseCold => 256,
            Workload::AutotvmJournal => 512,
        }
    }

    /// Set-ups per round: a short set-up repeats so that a run has enough
    /// of them for a steady fastest. The last one feeds the round's cells.
    fn setup_reps(self) -> usize {
        match self {
            Workload::GlimpseWarm => 4,
            Workload::GlimpseCold => 1,
            Workload::AutotvmJournal => 40,
        }
    }

    /// Tunes of every cell per round: `glimpse-cold` has few rounds, each
    /// dominated by its training.
    fn cell_reps(self) -> usize {
        match self {
            Workload::GlimpseCold => 2,
            _ => 1,
        }
    }

    /// Whether the workload runs the Glimpse tuner.
    #[must_use]
    pub fn is_glimpse(self) -> bool {
        self != Workload::AutotvmJournal
    }
}

/// Everything a run prepares before timing starts.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The run seed; every tuner, measurer and training seed derives from it.
    pub seed: u64,
    /// Target GPU.
    pub gpu: &'static GpuSpec,
    /// The model's tasks, one cell each.
    pub tasks: Vec<Task>,
    /// Scratch directory for bundles and journals, removed on drop.
    pub work: WorkDir,
    /// `glimpse-warm`: the enveloped bundle written during preparation.
    bundle: PathBuf,
    /// `autotvm-journal`: each cell's uninterrupted, unjournaled outcome.
    reference: Vec<TuningOutcome>,
}

impl Inputs {
    /// Prepares a workload's inputs (untimed): for `glimpse-warm`, wraps
    /// the committed bundle once in its envelope; for `autotvm-journal`,
    /// tunes each cell once uninterrupted as the resume reference.
    ///
    /// # Errors
    ///
    /// A missing or undecodable committed bundle, or an unwritable
    /// scratch directory.
    pub fn prepare(workload: Workload, seed: u64, work: WorkDir) -> Result<Self, String> {
        let gpu = database::find(workload.gpu()).ok_or("workload GPU missing from the database")?;
        let mut inputs = Self {
            workload,
            seed,
            gpu,
            tasks: workload.model().tasks().to_vec(),
            work,
            bundle: PathBuf::new(),
            reference: Vec::new(),
        };
        match workload {
            Workload::GlimpseWarm => {
                let text = std::fs::read_to_string(WARM_BUNDLE).map_err(|e| format!("{WARM_BUNDLE}: {e}"))?;
                let artifacts: GlimpseArtifacts = serde_json::from_str(&text).map_err(|e| format!("{WARM_BUNDLE}: {e}"))?;
                inputs.bundle = inputs.work.0.join("artifacts.json");
                artifacts
                    .save(&inputs.bundle)
                    .map_err(|e| format!("{}: {e}", inputs.bundle.display()))?;
            }
            Workload::GlimpseCold => {}
            Workload::AutotvmJournal => {
                let spaces = spaces(&inputs.tasks);
                inputs.reference = (0..inputs.tasks.len())
                    .map(|i| {
                        let mut measurer = inputs.measurer(i);
                        let ctx = TuneContext::new(&inputs.tasks[i], &spaces[i], &mut measurer, inputs.budget(), inputs.cell_seed(i));
                        AutoTvmTuner::new().tune(ctx)
                    })
                    .collect();
            }
        }
        Ok(inputs)
    }

    /// Tuner seed of cell `i` (the per-task offset `run_model` uses).
    #[must_use]
    pub fn cell_seed(&self, i: usize) -> u64 {
        self.seed.wrapping_add(i as u64 * 101)
    }

    /// A fresh measurer for cell `i`, seeded as `experiment::run_task` does.
    #[must_use]
    pub fn measurer(&self, i: usize) -> Measurer {
        Measurer::new(self.gpu.clone(), self.cell_seed(i) ^ 0x5EED)
    }

    /// Per-cell stopping rule.
    #[must_use]
    pub fn budget(&self) -> Budget {
        Budget::measurements(self.workload.budget())
    }

    /// Size in bytes of the enveloped bundle (`glimpse-warm`), else 0.
    #[must_use]
    pub fn bundle_bytes(&self) -> u64 {
        std::fs::metadata(&self.bundle).map_or(0, |m| m.len())
    }

    /// Trains the leave-one-out fast-preset bundle, as `glimpse tune` does
    /// without `--full-training`.
    fn train(&self) -> GlimpseArtifacts {
        let gpus = database::training_gpus(&self.gpu.name);
        GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), self.seed).expect("leave-one-out training")
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates `root/<pid>`.
    ///
    /// # Errors
    ///
    /// Any IO error creating the directory.
    pub fn create(root: &Path) -> Result<Self, String> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Only succeeds once no other run is using the root.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// A journal cell's files kept from the first traced round.
pub struct KeptJournal {
    /// The journal as it stood at the interruption.
    pub half: PathBuf,
    /// The completed cell directory.
    pub full: PathBuf,
}

/// Everything a run measured.
pub struct Record {
    /// Rounds performed.
    pub rounds: usize,
    /// Seconds of every set-up: `[untraced, traced]`.
    pub setup: [Vec<f64>; 2],
    /// Seconds of every repeat of each cell: `[untraced, traced][cell]`.
    pub cells: [Vec<Vec<f64>>; 2],
    /// Seconds of each traced set-up step, by layer.
    pub spans: BTreeMap<&'static str, Vec<f64>>,
    /// Each cell's first outcome (every later repeat must match it).
    pub outcomes: Vec<Option<TuningOutcome>>,
    /// Noise-free replay of each cell's best configuration (GFLOPS).
    pub replayed: Vec<f64>,
    /// Why each failed cell failed.
    pub failures: Vec<Option<String>>,
    /// Glimpse workloads: the bundle the last round resolved.
    pub resolved: Option<ResolvedArtifacts>,
    /// `autotvm-journal`, traced: each cell's journal files.
    pub kept: Vec<Option<KeptJournal>>,
    /// `glimpse-cold`, traced: whether the step-by-step training serialized
    /// identically to `train_with`'s bundle.
    pub training_identical: Option<bool>,
    /// `glimpse-cold`, traced: `train_with`'s bundle, serialized.
    trained: Option<String>,
}

impl Record {
    fn new(cells: usize) -> Self {
        Self {
            rounds: 0,
            setup: [Vec::new(), Vec::new()],
            cells: [vec![Vec::new(); cells], vec![Vec::new(); cells]],
            spans: BTreeMap::new(),
            outcomes: vec![None; cells],
            replayed: vec![0.0; cells],
            failures: vec![None; cells],
            resolved: None,
            kept: (0..cells).map(|_| None).collect(),
            training_identical: None,
            trained: None,
        }
    }

    fn fail(&mut self, cell: usize, why: String) {
        self.failures[cell].get_or_insert(why);
    }

    /// Checks one repeat of a cell: it must end with a best configuration
    /// the simulator accepts, match the cell's first repeat in best config,
    /// measurement count and `gpu_s` bits, and (journal) match the
    /// uninterrupted reference run.
    fn settle(&mut self, cell: usize, outcome: TuningOutcome, space: &SearchSpace, measurer: &Measurer, reference: Option<&TuningOutcome>) {
        let Some(gflops) = replayed_gflops(measurer.model(), space, outcome.best_config.as_ref()) else {
            return self.fail(cell, "no valid best config".into());
        };
        if reference.is_some_and(|r| {
            r.history != outcome.history || r.best_config != outcome.best_config || r.gpu_seconds.to_bits() != outcome.gpu_seconds.to_bits()
        }) {
            self.fail(cell, "resumed outcome differs from the uninterrupted run".into());
        }
        match &self.outcomes[cell] {
            None => {
                self.replayed[cell] = gflops;
                self.outcomes[cell] = Some(outcome);
            }
            Some(first) => {
                if first.best_config != outcome.best_config
                    || first.measurements != outcome.measurements
                    || first.gpu_seconds.to_bits() != outcome.gpu_seconds.to_bits()
                {
                    self.fail(cell, "repeats differ".into());
                }
            }
        }
    }

    fn span(&mut self, name: &'static str, seconds: f64) {
        self.spans.entry(name).or_default().push(seconds);
    }
}

/// Runs rounds while another one fits in `seconds` of measuring (and at
/// least [`MIN_ROUNDS`]); odd rounds are traced when `trace` is set.
#[must_use]
#[allow(clippy::disallowed_methods)] // the run's own deadline; see `measure::time`
pub fn run(inputs: &Inputs, seconds: u64, trace: bool) -> Record {
    let mut rec = Record::new(inputs.tasks.len());
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    // Called only once MIN_ROUNDS (> 0) rounds have run.
    let next_fits = |rounds: u32| start.elapsed() * (rounds + 1) / rounds <= budget;
    while rec.rounds < MIN_ROUNDS || next_fits(rec.rounds as u32) {
        let traced = trace && rec.rounds % 2 == 1;
        if inputs.workload.is_glimpse() {
            glimpse_round(inputs, traced, &mut rec);
        } else {
            journal_round(inputs, traced, &mut rec);
        }
        rec.rounds += 1;
    }
    rec
}

fn spaces(tasks: &[Task]) -> Vec<SearchSpace> {
    tasks.iter().map(templates::space_for_task).collect()
}

fn glimpse_round(inputs: &Inputs, traced: bool, rec: &mut Record) {
    let reps = inputs.workload.setup_reps();
    for rep in 0..reps {
        let (resolve_s, resolved) = if traced {
            resolve_traced(inputs, rec)
        } else {
            time(|| match inputs.workload {
                Workload::GlimpseWarm => ResolvedArtifacts::load(&inputs.bundle),
                _ => ResolvedArtifacts::healthy(inputs.train()),
            })
        };
        let (build_s, (tuner, spaces)) = time(|| {
            (
                GlimpseTuner::from_resolved(&resolved, inputs.gpu, GlimpseConfig::default()),
                spaces(&inputs.tasks),
            )
        });
        rec.setup[usize::from(traced)].push(resolve_s + build_s);
        if traced {
            rec.span("core.tuner.build", build_s);
        }
        if rep + 1 < reps {
            continue;
        }
        if inputs.workload == Workload::GlimpseCold && rec.trained.is_none() && !traced {
            if let Some(artifacts) = &resolved.artifacts {
                rec.trained = serde_json::to_string(artifacts).ok();
            }
        }
        for (i, task) in (0..inputs.workload.cell_reps()).flat_map(|_| inputs.tasks.iter().enumerate()) {
            if resolved.health.any_degraded() {
                // A degraded bundle runs fallback rungs: a different program.
                rec.fail(i, format!("degraded bundle: {}", resolved.health.degraded_names().join(", ")));
            }
            let mut measurer = inputs.measurer(i);
            let mut cell_tuner = tuner.clone();
            let ctx = TuneContext::new(task, &spaces[i], &mut measurer, inputs.budget(), inputs.cell_seed(i));
            let (tune_s, outcome) = time(|| cell_tuner.tune(ctx));
            rec.cells[usize::from(traced)][i].push(tune_s);
            rec.settle(i, outcome, &spaces[i], &measurer, None);
        }
        drop(tuner);
        rec.resolved = Some(resolved);
    }
}

/// One set-up, step by step, with a span around each public call. Returns
/// the summed step time and the resolution `ResolvedArtifacts::load` or
/// `train_with` would have produced.
fn resolve_traced(inputs: &Inputs, rec: &mut Record) -> (f64, ResolvedArtifacts) {
    if inputs.workload == Workload::GlimpseWarm {
        let (verify_s, payload) = time(|| envelope::read_envelope(&inputs.bundle, ARTIFACTS_ENVELOPE));
        rec.span("durable.envelope.verify", verify_s);
        let payload = match payload {
            Ok(payload) => payload,
            Err(verdict) => return (verify_s, ResolvedArtifacts::fallback(cause_of(&verdict))),
        };
        let (decode_s, artifacts) = time(|| {
            std::str::from_utf8(&payload)
                .ok()
                .and_then(|text| serde_json::from_str::<GlimpseArtifacts>(text).ok())
        });
        rec.span("core.artifacts.decode", decode_s);
        let resolved = artifacts.map_or_else(|| ResolvedArtifacts::fallback(HealthCause::Undecodable), ResolvedArtifacts::healthy);
        return (verify_s + decode_s, resolved);
    }

    // `GlimpseArtifacts::train_with`, one public call per step.
    let options = TrainingOptions::fast();
    let dim = options.blueprint_dim;
    let seed = inputs.seed;
    let gpus = database::training_gpus(&inputs.gpu.name);
    let (fit_s, codec) = time(|| BlueprintCodec::fit(&gpus, dim).expect("codec fit"));
    let (corpus_s, entries) = time(|| corpus::generate(&gpus, &corpus::training_tasks(), options.samples_per_pair, seed));
    let refs: Vec<&CorpusEntry> = entries.iter().collect();
    let encode = |name: &str| database::find(name).map(|g| codec.encode(g));
    let layouts = [
        templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1)),
        templates::conv2d_winograd_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1)),
        templates::dense_space(&DenseSpec::new(1, 512, 1000)),
    ];
    let (prior_s, priors) = time(|| {
        let mut rng = child_rng(seed, 0x617);
        TemplateKind::ALL
            .iter()
            .zip(&layouts)
            .map(|(&kind, layout)| {
                let mut net = PriorNet::new(kind, layout, dim, &mut rng);
                net.train(&refs, encode, options.quantile, options.prior_epochs, 3e-3)
                    .expect("prior training");
                net
            })
            .collect::<Vec<_>>()
    });
    let (acquisition_s, acquisitions) = time(|| {
        let mut rng = child_rng(seed, 0xACC);
        TemplateKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let mut net = NeuralAcquisition::new(kind, dim, &mut rng);
                net.train(&refs, encode, options.prefix, options.acquisition_epochs, 3e-3, seed ^ i as u64);
                net
            })
            .collect::<Vec<_>>()
    });
    rec.span("core.blueprint.fit", fit_s);
    rec.span("core.corpus.generate", corpus_s);
    rec.span("core.prior.train", prior_s);
    rec.span("core.acquisition.train", acquisition_s);

    // Reassemble the bundle through its serialized form (its fields are
    // private) and prove the steps did `train_with`'s work exactly.
    let bundle = serde_json::json!({ "codec": codec, "priors": priors, "acquisitions": acquisitions });
    let artifacts: GlimpseArtifacts = serde_json::from_value(&bundle).expect("step-by-step bundle decodes");
    let identical = rec.trained.is_some() && serde_json::to_string(&artifacts).ok() == rec.trained;
    rec.training_identical = Some(rec.training_identical.unwrap_or(true) && identical);
    (fit_s + corpus_s + prior_s + acquisition_s, ResolvedArtifacts::healthy(artifacts))
}

fn journal_round(inputs: &Inputs, traced: bool, rec: &mut Record) {
    let mut ready = None;
    for _ in 0..inputs.workload.setup_reps() {
        let (setup_s, built) = time(|| (AutoTvmTuner::new(), spaces(&inputs.tasks)));
        rec.setup[usize::from(traced)].push(setup_s);
        ready = Some(built);
    }
    let (tuner, spaces) = ready.expect("at least one set-up");
    let half = inputs.workload.budget() as u64 / 2;
    for (i, task) in inputs.tasks.iter().enumerate() {
        let dir = inputs.work.0.join(format!("round{}-cell{i}", rec.rounds));
        let spec = CheckpointSpec::new(&dir);
        let (budget, seed, space) = (inputs.budget(), inputs.cell_seed(i), &spaces[i]);

        let mut measurer = inputs.measurer(i);
        let mut first_tuner = tuner.clone();
        let interrupt = RunControl::none().cancel_at_trial(half + 1);
        let (first_s, first) = time(|| run_supervised(&mut first_tuner, &spec, task, space, &mut measurer, budget, seed, &interrupt));

        let keep = traced && rec.kept[i].is_none();
        let half_dir = dir.with_extension("half");
        if keep {
            copy_journal(&dir, &half_dir);
        }

        let mut measurer = inputs.measurer(i);
        let mut resumed_tuner = tuner.clone();
        let resume = spec.resuming(true);
        let (resume_s, resumed) = time(|| {
            run_supervised(
                &mut resumed_tuner,
                &resume,
                task,
                space,
                &mut measurer,
                budget,
                seed,
                &RunControl::none(),
            )
        });
        rec.cells[usize::from(traced)][i].push(first_s + resume_s);

        match (first, resumed) {
            (Ok(first), Ok(resumed))
                if matches!(first.status, CellStatus::Degraded(_))
                    && first.outcome.measurements as u64 == half
                    && resumed.status == CellStatus::Complete =>
            {
                rec.settle(i, resumed.outcome, space, &measurer, Some(&inputs.reference[i]));
            }
            (first, resumed) => rec.fail(
                i,
                format!(
                    "interrupt/resume did not settle: {:?} / {:?}",
                    first.map(|s| s.status),
                    resumed.map(|s| s.status)
                ),
            ),
        }
        if keep {
            rec.kept[i] = Some(KeptJournal { half: half_dir, full: dir });
        } else {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Copies a cell's WAL aside, so the replay can time recovery of the
/// journal exactly as the interruption left it.
fn copy_journal(dir: &Path, to: &Path) {
    let file = glimpse_tuners::journal::JOURNAL_FILE;
    let copied = std::fs::create_dir_all(to).and_then(|()| std::fs::copy(dir.join(file), to.join(file)));
    copied.expect("copy the interrupted journal");
}

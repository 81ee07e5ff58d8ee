//! Implementations of the `glimpse` subcommands.

use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions, ARTIFACTS_ENVELOPE};
use glimpse_core::blueprint::BlueprintCodec;
use glimpse_core::explain;
use glimpse_core::health::{cause_of, ResolvedArtifacts};
use glimpse_core::tuner::{GlimpseConfig, GlimpseTuner};
use glimpse_durable::atomic_write;
use glimpse_durable::envelope::{self, Integrity};
use glimpse_gpu_spec::{database, datasheet, GpuSpec};
use glimpse_mlkit::parallel;
use glimpse_sim::{DevicePool, DeviceStatus, FaultPlan, Measurer};
use glimpse_space::{templates, SearchSpace};
use glimpse_supervise::{signal, Abandonment, CancelToken, CellReport, CellStatus, DegradationReport, HealthReport, Heartbeat, Watchdog};
use glimpse_tensor_prog::{models, Task, TemplateKind};
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::chameleon::ChameleonTuner;
use glimpse_tuners::dgp::DgpTuner;
use glimpse_tuners::genetic::GeneticTuner;
use glimpse_tuners::random::RandomTuner;
use glimpse_tuners::{run_supervised, Budget, CheckpointSpec, RunControl, SupervisedOutcome, TuneContext, Tuner};
use std::path::{Path, PathBuf};

/// Usage text for `glimpse help`.
pub const USAGE: &str = "\
glimpse — hardware-aware neural compilation (DAC'22 reproduction)

  glimpse gpus                      list the data-sheet database
  glimpse models                    list the model zoo and task counts
  glimpse blueprint <gpu>           embed a GPU and explain the embedding
  glimpse sheet <file>              parse a textual data sheet
  glimpse sweep                     Blueprint size vs information loss (Fig. 8)
  glimpse doctor <dir>              verify every artifact envelope under a
                                    directory and print the component health
                                    table; nonzero exit on any damage
  glimpse tune <model> <gpu> [opts] tune a model (or one task) on a GPU
    --tuner <glimpse|autotvm|chameleon|dgp|random|genetic>   default: glimpse
    --budget <n>                    measurements per task      default: 128
    --task <i>                      tune only task i
    --artifacts <path>              load/store meta-trained artifacts
    --full-training                 full-size offline training (slow)
  glimpse experiment <model> [opts] tune one task across a device fleet,
                                    reassigning cells off dead devices
    --task <i>                      task to tune               default: 0
    --tuner <autotvm|chameleon|dgp|random|genetic>            default: autotvm
    --budget <n>                    measurements per device    default: 64
    --gpus <a,b,c>                  fleet (default: the 4 evaluation GPUs)

  options shared by tune and experiment:
    --fault-plan <spec>             inject measurement faults, e.g.
                                    timeout=0.1,launch=0.05,lost=0.02,dead=0.01;
                                    kind@device=rate overrides one device,
                                    e.g. 'dead@RTX 2080 Ti=1.0'; artifact
                                    faults damage the saved artifact bundle
                                    before loading: artifact_corrupt_at=N,
                                    artifact_truncate_at=N,
                                    artifact_version_bump=1, artifact_delete=1
                                    (the run then completes degraded on the
                                    component fallbacks, never aborts)
    --fault-seed <n>                fault stream seed          default: 0
    --threads <n>                   search worker threads (0 = auto); also
                                    via GLIMPSE_THREADS       default: auto
    --checkpoint-dir <dir>          journal every trial for crash-safe resume
    --resume                        continue an interrupted run from <dir>
                                    (completed cells are not re-measured)
    --deadline-s <s>                per-cell cap on simulated GPU seconds;
                                    over-deadline cells degrade, not fail
    --max-wall-s <s>                campaign-wide simulated-second budget
    --stall-timeout-s <s>           real-wall-clock watchdog: cancel the
                                    campaign when no trial completes for <s>
                                    seconds (0 = off)          default: off
    --report <path>                 where to write degradation.json
                                    default: <checkpoint-dir>/degradation.json

Results are bit-identical for a fixed seed at any --threads value, and a
checkpointed run resumed after a crash replays to the same result. SIGINT or
SIGTERM stops at the next trial boundary, flushes the journal and snapshot,
writes the degradation report, and exits 0 with a resume command; a second
signal hard-exits immediately.
";

/// `glimpse gpus`
pub fn gpus() -> Result<(), String> {
    println!(
        "{:<18} {:<16} {:>5} {:>7} {:>10} {:>9} {:>7}",
        "name", "generation", "SMs", "cores", "GFLOPS", "GB/s", "TDP W"
    );
    for gpu in database::all() {
        println!(
            "{:<18} {:<16} {:>5} {:>7} {:>10.0} {:>9.0} {:>7.0}",
            gpu.name,
            format!("{} ({})", gpu.generation, gpu.sm_arch),
            gpu.sm_count,
            gpu.total_cores(),
            gpu.fp32_gflops,
            gpu.mem_bandwidth_gb_s,
            gpu.tdp_w
        );
    }
    Ok(())
}

/// `glimpse models`
pub fn models() -> Result<(), String> {
    let mut all = models::evaluation_models();
    all.extend(models::extended_models());
    for model in all {
        let conv = model.tasks().iter().filter(|t| t.template == TemplateKind::Conv2dDirect).count();
        let wino = model.tasks().iter().filter(|t| t.template == TemplateKind::Conv2dWinograd).count();
        let dense = model.tasks().iter().filter(|t| t.template == TemplateKind::Dense).count();
        println!(
            "{:<16} {:>2} tasks ({conv} conv2d, {wino} winograd, {dense} dense), {:>6.2} GFLOP/inference",
            model.name(),
            model.tasks().len(),
            model.total_flops() / 1e9
        );
        for task in model.tasks() {
            println!("    L{:<3} [{}] {}", task.id.index, task.template, task.op);
        }
    }
    Ok(())
}

fn find_gpu(name: &str) -> Result<&'static GpuSpec, String> {
    database::find(name).ok_or_else(|| format!("unknown GPU {name:?}; `glimpse gpus` lists the database"))
}

/// `glimpse blueprint <gpu>`
pub fn blueprint(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("usage: glimpse blueprint <gpu>")?;
    let gpu = find_gpu(name)?;
    let population: Vec<&GpuSpec> = database::training_gpus(&gpu.name);
    let k = BlueprintCodec::recommended_components(&population);
    let codec = BlueprintCodec::fit(&population, k).map_err(|e| e.to_string())?;
    let bp = codec.encode(gpu);
    println!("{bp}");
    println!(
        "values: {:?}",
        bp.values.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    let decoded = codec.decode(&bp);
    println!("\ndecoded data sheet (leave-one-out codec, {} components):", k);
    for name in glimpse_gpu_spec::features::FEATURE_NAMES {
        let truth = glimpse_gpu_spec::FeatureVector::from_spec(gpu).get(name).unwrap_or(0.0);
        let dec = decoded.get(name).unwrap_or(0.0);
        println!("  {name:<24} sheet {truth:>12.1}   decoded {dec:>12.1}");
    }
    // Prior sensitivity via a quickly trained artifact set.
    println!("\ntraining fast artifacts for sensitivity analysis ...");
    let artifacts = GlimpseArtifacts::train_with(&population, TrainingOptions::fast(), 42).map_err(|e| e.to_string())?;
    let space = templates::conv2d_direct_space(&glimpse_tensor_prog::Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
    let report = explain::explain(
        &artifacts.codec,
        artifacts.prior(space.template()),
        &space,
        &artifacts.encode(gpu),
        0.5,
    );
    println!("prior sensitivity per embedding dimension (3x3 conv template):");
    for dim in report.ranked() {
        let features: Vec<String> = dim.top_features.iter().map(|(n, _)| n.clone()).collect();
        println!(
            "  dim {:<2} TV {:.4}  loads on: {}",
            dim.dim,
            dim.prior_sensitivity,
            features.join(", ")
        );
    }
    Ok(())
}

/// `glimpse sheet <file>`
pub fn sheet(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: glimpse sheet <file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = datasheet::parse_sheet(&text).map_err(|e| e.to_string())?;
    println!("parsed: {spec}");
    let population: Vec<&GpuSpec> = database::all().iter().collect();
    let k = BlueprintCodec::recommended_components(&population);
    let codec = BlueprintCodec::fit(&population, k).map_err(|e| e.to_string())?;
    let bp = codec.encode(&spec);
    println!(
        "blueprint ({} components): {:?}",
        k,
        bp.values.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    Ok(())
}

/// `glimpse sweep`
pub fn sweep() -> Result<(), String> {
    let population: Vec<&GpuSpec> = database::all().iter().collect();
    println!("{:<12} {:>8} {:>14} {:>15}", "components", "size", "RMSE (z)", "variance lost");
    for point in BlueprintCodec::sweep(&population) {
        println!(
            "{:<12} {:>7.1}% {:>14.4} {:>14.2}%",
            point.components,
            point.size_fraction * 100.0,
            point.rmse,
            (1.0 - point.explained_variance) * 100.0
        );
    }
    println!("recommended: {} components", BlueprintCodec::recommended_components(&population));
    Ok(())
}

#[derive(Debug)]
struct TuneOptions {
    model: String,
    gpu: String,
    tuner: String,
    budget: usize,
    task: Option<usize>,
    artifacts_path: Option<PathBuf>,
    full_training: bool,
    run: RunSettings,
}

/// Parses a `--threads` value (`0` = auto-detect).
fn parse_threads_flag(value: &str) -> Result<usize, String> {
    value.trim().parse().map_err(|_| "--threads must be a non-negative integer".into())
}

/// Parses a seconds-valued flag: a finite, non-negative number.
fn parse_seconds_flag(flag: &str, value: &str) -> Result<f64, String> {
    let seconds: f64 = value.trim().parse().map_err(|_| format!("{flag} must be a number of seconds"))?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err(format!("{flag} must be finite and >= 0, got {seconds}"));
    }
    Ok(seconds)
}

/// The supervision and fault-injection flags `tune` and `experiment` share,
/// collected during parsing. [`SharedRunFlags::finish`] validates the
/// combination — including the "--resume requires --checkpoint-dir" rule —
/// exactly once for both subcommands.
#[derive(Debug, Default)]
struct SharedRunFlags {
    fault_spec: Option<String>,
    fault_seed: Option<String>,
    threads: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    deadline_s: Option<f64>,
    max_wall_s: Option<f64>,
    stall_timeout_s: Option<f64>,
    report: Option<PathBuf>,
}

impl SharedRunFlags {
    /// Consumes `arg` (pulling its value from `it`) when it is one of the
    /// shared flags. `Ok(false)` means the flag belongs to the subcommand.
    fn try_parse(&mut self, arg: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        match arg {
            "--fault-plan" => self.fault_spec = Some(it.next().ok_or("--fault-plan needs a value")?.clone()),
            "--fault-seed" => self.fault_seed = Some(it.next().ok_or("--fault-seed needs a value")?.clone()),
            "--threads" => self.threads = Some(parse_threads_flag(it.next().ok_or("--threads needs a value")?)?),
            "--checkpoint-dir" => {
                self.checkpoint_dir = Some(PathBuf::from(it.next().ok_or("--checkpoint-dir needs a value")?));
            }
            "--resume" => self.resume = true,
            "--deadline-s" => {
                self.deadline_s = Some(parse_seconds_flag("--deadline-s", it.next().ok_or("--deadline-s needs a value")?)?);
            }
            "--max-wall-s" => {
                self.max_wall_s = Some(parse_seconds_flag("--max-wall-s", it.next().ok_or("--max-wall-s needs a value")?)?);
            }
            "--stall-timeout-s" => {
                self.stall_timeout_s = Some(parse_seconds_flag(
                    "--stall-timeout-s",
                    it.next().ok_or("--stall-timeout-s needs a value")?,
                )?);
            }
            "--report" => self.report = Some(PathBuf::from(it.next().ok_or("--report needs a value")?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates the flag combination and parses the fault spec into a
    /// [`FaultPlan`].
    fn finish(self) -> Result<RunSettings, String> {
        if self.resume && self.checkpoint_dir.is_none() {
            return Err("--resume requires --checkpoint-dir".into());
        }
        Ok(RunSettings {
            faults: parse_fault_flags(self.fault_spec.as_deref(), self.fault_seed.as_deref())?,
            threads: self.threads,
            checkpoint_dir: self.checkpoint_dir,
            resume: self.resume,
            deadline_s: self.deadline_s,
            max_wall_s: self.max_wall_s,
            stall_timeout_s: self.stall_timeout_s,
            report: self.report,
        })
    }
}

/// Validated shared settings for one supervised campaign.
#[derive(Debug)]
struct RunSettings {
    faults: FaultPlan,
    threads: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    deadline_s: Option<f64>,
    max_wall_s: Option<f64>,
    stall_timeout_s: Option<f64>,
    report: Option<PathBuf>,
}

/// Campaign-level supervision: the process-wide signal token, the shared
/// heartbeat the cells beat on every consumed trial, and (when
/// `--stall-timeout-s` is set) the real-wall-clock watchdog that trips the
/// token when the heartbeat goes flat.
struct Supervisor {
    interrupt: CancelToken,
    heartbeat: Heartbeat,
    _watchdog: Option<Watchdog>,
}

impl Supervisor {
    /// Installs the signal handlers and arms the watchdog.
    fn start(settings: &RunSettings) -> Self {
        let interrupt = signal::install();
        let heartbeat = Heartbeat::new();
        let watchdog = settings
            .stall_timeout_s
            .filter(|s| *s > 0.0)
            .map(|s| Watchdog::spawn(heartbeat.clone(), interrupt.clone(), std::time::Duration::from_secs_f64(s)));
        Self {
            interrupt,
            heartbeat,
            _watchdog: watchdog,
        }
    }

    /// Builds one cell's [`RunControl`]: fresh per-cell token, campaign
    /// interrupt forwarded in, deadlines from the settings with the wall
    /// budget reduced by what earlier cells already spent.
    fn control(&self, settings: &RunSettings, wall_spent_s: f64) -> RunControl {
        RunControl::none()
            .interrupted_by(self.interrupt.clone())
            .heartbeat(self.heartbeat.clone())
            .deadline_s(settings.deadline_s)
            .wall_deadline_s(settings.max_wall_s.map(|w| (w - wall_spent_s).max(0.0)))
    }
}

/// One degradation-report row for a finished cell.
fn cell_report(cell: String, device: &str, supervised: &SupervisedOutcome) -> CellReport {
    CellReport {
        cell,
        device: device.to_owned(),
        status: supervised.status.clone(),
        measurements: supervised.outcome.measurements,
        faults_absorbed: supervised.outcome.faulted_measurements,
        retries: supervised.outcome.retried_attempts,
        gpu_seconds: supervised.outcome.gpu_seconds,
        best_gflops: supervised.outcome.best_gflops,
        deadline_slack_s: supervised.deadline_slack_s,
        health: supervised.outcome.health.clone(),
    }
}

/// A row for a cell that never ran (shutdown before its turn, or a device
/// that refused every job).
fn empty_cell_report(cell: String, device: &str, status: CellStatus) -> CellReport {
    CellReport {
        cell,
        device: device.to_owned(),
        status,
        measurements: 0,
        faults_absorbed: 0,
        retries: 0,
        gpu_seconds: 0.0,
        best_gflops: 0.0,
        deadline_slack_s: None,
        health: None,
    }
}

/// Short human-readable status label for the result tables.
fn status_label(status: &CellStatus) -> String {
    match status {
        CellStatus::Complete => "complete".into(),
        CellStatus::Degraded(d) => format!("degraded: {d:?}"),
        CellStatus::Abandoned(a) => format!("abandoned: {a:?}"),
        CellStatus::Reassigned { to } => format!("reassigned to {to}"),
        CellStatus::NotStarted => "not started".into(),
    }
}

/// Writes `degradation.json`, prints the campaign verdict, and prints the
/// resume command when a degraded campaign left resumable journals behind.
fn finish_campaign(report: &DegradationReport, settings: &RunSettings, resume_hint: &str) -> Result<(), String> {
    let dest = settings
        .report
        .clone()
        .or_else(|| settings.checkpoint_dir.as_ref().map(|d| d.join("degradation.json")));
    if let Some(path) = &dest {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| format!("creating {}: {e}", parent.display()))?;
            }
        }
        atomic_write(path, report.to_json().as_bytes()).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("degradation report: {}", path.display());
    }
    if !report.all_complete() {
        let incomplete = report.cells.iter().filter(|c| !c.status.is_complete()).count();
        eprintln!("campaign degraded: {incomplete} of {} cells did not complete", report.cells.len());
        if settings.checkpoint_dir.is_some() {
            eprintln!("resume with: {resume_hint}");
        }
    }
    Ok(())
}

/// Installs the worker-count override for the search hot paths. Results are
/// bit-identical at any thread count, so this only changes wall-clock time.
fn apply_threads(threads: Option<usize>) {
    if let Some(n) = threads {
        parallel::set_default_threads(n);
    }
}

/// Parses `--fault-plan`/`--fault-seed` values into a plan (seed applied
/// after the rate spec so flag order doesn't matter).
fn parse_fault_flags(spec: Option<&str>, seed: Option<&str>) -> Result<FaultPlan, String> {
    let mut plan = match spec {
        Some(s) => FaultPlan::parse(s)?,
        None => FaultPlan::none(),
    };
    if let Some(s) = seed {
        plan.seed = s.parse().map_err(|_| "--fault-seed must be an integer")?;
    }
    Ok(plan)
}

fn parse_tune_options(args: &[String]) -> Result<TuneOptions, String> {
    let mut positional = Vec::new();
    let mut shared = SharedRunFlags::default();
    let mut tuner = "glimpse".to_owned();
    let mut budget = 128usize;
    let mut task = None;
    let mut artifacts_path = None;
    let mut full_training = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if shared.try_parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--tuner" => tuner = it.next().ok_or("--tuner needs a value")?.clone(),
            "--budget" => {
                budget = it
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|_| "--budget must be an integer")?;
            }
            "--task" => {
                task = Some(
                    it.next()
                        .ok_or("--task needs a value")?
                        .parse()
                        .map_err(|_| "--task must be an integer")?,
                );
            }
            "--artifacts" => artifacts_path = Some(PathBuf::from(it.next().ok_or("--artifacts needs a value")?)),
            "--full-training" => full_training = true,
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() != 2 {
        return Err("usage: glimpse tune <model> <gpu> [options]".into());
    }
    Ok(TuneOptions {
        model: positional[0].clone(),
        gpu: positional[1].clone(),
        tuner,
        budget,
        task,
        artifacts_path,
        full_training,
        run: shared.finish()?,
    })
}

/// Resolves the Glimpse artifact bundle for a tune run. A damaged, drifted,
/// or missing bundle never aborts the campaign: the load degrades into a
/// fallback [`HealthReport`] and the tuner runs its fallbacks. Armed artifact
/// faults (chaos testing) are applied to the saved bundle before it is read
/// back, and suppress retraining so the injected damage is what gets loaded.
fn obtain_artifacts(gpu: &GpuSpec, options: &TuneOptions) -> Result<ResolvedArtifacts, String> {
    if let Some(path) = &options.artifacts_path {
        let faults = options.run.faults.artifact;
        if faults.any() {
            faults
                .apply(path)
                .map_err(|e| format!("injecting artifact faults into {}: {e}", path.display()))?;
            eprintln!("artifact faults applied to {}", path.display());
        }
        if path.exists() || faults.any() {
            eprintln!("loading artifacts from {}", path.display());
            let resolved = ResolvedArtifacts::load(path);
            if resolved.health.any_degraded() {
                eprintln!(
                    "artifact bundle at {} is unusable; running fallbacks for: {}",
                    path.display(),
                    resolved.health.degraded_names().join(", ")
                );
            }
            return Ok(resolved);
        }
    }
    let training = if options.full_training {
        TrainingOptions::default()
    } else {
        TrainingOptions::fast()
    };
    eprintln!(
        "meta-training artifacts (leave-one-out{}) ...",
        if options.full_training { ", full size" } else { ", fast preset" }
    );
    let population = database::training_gpus(&gpu.name);
    let artifacts = GlimpseArtifacts::train_with(&population, training, 42).map_err(|e| e.to_string())?;
    if let Some(path) = &options.artifacts_path {
        artifacts.save(path).map_err(|e| e.to_string())?;
        eprintln!("saved artifacts to {}", path.display());
    }
    Ok(ResolvedArtifacts::healthy(artifacts))
}

/// `glimpse tune <model> <gpu> [options]`
pub fn tune(args: &[String]) -> Result<(), String> {
    let options = parse_tune_options(args)?;
    apply_threads(options.run.threads);
    let gpu = find_gpu(&options.gpu)?;
    let model = models::find(&options.model).ok_or_else(|| format!("unknown model {:?}; `glimpse models` lists the zoo", options.model))?;
    let needs_artifacts = options.tuner == "glimpse";
    let artifacts = if needs_artifacts {
        Some(obtain_artifacts(gpu, &options)?)
    } else {
        None
    };
    let tasks: Vec<usize> = match options.task {
        Some(i) if i < model.tasks().len() => vec![i],
        Some(i) => return Err(format!("task {i} out of range (model has {} tasks)", model.tasks().len())),
        None => (0..model.tasks().len()).collect(),
    };

    if options.run.faults.any() {
        eprintln!(
            "injecting faults (seed {}): {:?}",
            options.run.faults.seed,
            options.run.faults.rates_for(&gpu.name)
        );
    }
    let supervisor = Supervisor::start(&options.run);
    let mut report = DegradationReport::new(format!("tune {} on {}", options.model, options.gpu));
    println!(
        "{:<5} {:<16} {:>10} {:>8} {:>9} {:>8} {:>11}  status",
        "task", "template", "GFLOPS", "meas.", "invalid", "faulted", "GPU seconds"
    );
    let mut total_s = 0.0;
    for i in tasks {
        let task = &model.tasks()[i];
        let cell_name = format!("task{i}");
        if supervisor.interrupt.is_cancelled() {
            // Shutdown landed before this cell's turn: record it untouched
            // so the resume command knows what is left.
            report.push(empty_cell_report(cell_name, &gpu.name, CellStatus::NotStarted));
            continue;
        }
        let space = templates::space_for_task(task);
        let mut measurer = Measurer::with_faults(gpu.clone(), 7, &options.run.faults);
        let budget = Budget::measurements(options.budget);
        let control = supervisor.control(&options.run, total_s);
        let mut tuner = build_tuner(&options.tuner, artifacts.as_ref(), gpu)?;
        let supervised = run_cell(
            &mut *tuner,
            &options.run,
            &cell_name,
            task,
            &space,
            &mut measurer,
            budget,
            7,
            &control,
        )?;
        total_s += supervised.outcome.gpu_seconds;
        println!(
            "L{:<4} {:<16} {:>10.0} {:>8} {:>9} {:>8} {:>11.1}  {}",
            i,
            task.template.to_string(),
            supervised.outcome.best_gflops,
            supervised.outcome.measurements,
            supervised.outcome.invalid_measurements,
            supervised.outcome.faulted_measurements,
            supervised.outcome.gpu_seconds,
            status_label(&supervised.status)
        );
        if let Some(best) = &supervised.outcome.best_config {
            println!("      {}", space.describe(best));
        }
        if measurer.is_device_dead() {
            eprintln!("device {} died during task {i}; remaining tasks will report no kernels", gpu.name);
        }
        report.push(cell_report(cell_name, &gpu.name, &supervised));
    }
    println!("\ntotal simulated GPU time: {:.1} s ({:.2} h)", total_s, total_s / 3600.0);
    let resume_hint = match &options.run.checkpoint_dir {
        Some(dir) => {
            let mut hint = format!(
                "glimpse tune {} {:?} --tuner {} --budget {} --checkpoint-dir {:?} --resume",
                options.model,
                options.gpu,
                options.tuner,
                options.budget,
                dir.display().to_string()
            );
            if let Some(i) = options.task {
                hint.push_str(&format!(" --task {i}"));
            }
            hint
        }
        None => String::new(),
    };
    finish_campaign(&report, &options.run, &resume_hint)
}

fn build_tuner<'a>(tuner: &str, artifacts: Option<&'a ResolvedArtifacts>, gpu: &'a GpuSpec) -> Result<Box<dyn Tuner + 'a>, String> {
    Ok(match tuner {
        "glimpse" => {
            let resolved = artifacts.ok_or("the glimpse tuner needs resolved artifacts")?;
            Box::new(GlimpseTuner::from_resolved(resolved, gpu, GlimpseConfig::default()))
        }
        "autotvm" => Box::new(AutoTvmTuner::new()),
        "chameleon" => Box::new(ChameleonTuner::new()),
        "dgp" => Box::new(DgpTuner::new()),
        "random" => Box::new(RandomTuner::new()),
        "genetic" => Box::new(GeneticTuner::new()),
        other => return Err(format!("unknown tuner {other:?}")),
    })
}

/// Runs one cell and settles it: journaled under
/// `<checkpoint-dir>/<cell_name>` when the campaign checkpoints, bare
/// otherwise. Both paths settle through [`SupervisedOutcome::settle`]; the
/// journal header takes the run's identity from `tuner` and `measurer`.
#[allow(clippy::too_many_arguments, reason = "one cell's identity plus the campaign settings")]
fn run_cell(
    tuner: &mut dyn Tuner,
    run: &RunSettings,
    cell_name: &str,
    task: &Task,
    space: &SearchSpace,
    measurer: &mut Measurer,
    budget: Budget,
    seed: u64,
    control: &RunControl,
) -> Result<SupervisedOutcome, String> {
    let Some(root) = &run.checkpoint_dir else {
        let outcome = tuner.tune(TuneContext::new(task, space, measurer, budget, seed).with_control(control.clone()));
        return Ok(SupervisedOutcome::settle(outcome, control, measurer.is_device_dead()));
    };
    let cell = root.join(cell_name);
    let spec = CheckpointSpec::new(&cell).resuming(run.resume).with_storage(run.faults.storage);
    run_supervised(tuner, &spec, task, space, measurer, budget, seed, control).map_err(|e| e.to_string())
}

/// Recursively lists every regular file under `dir`.
fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether `bytes` claim to be an artifact envelope: either the header
/// sniffs, or the leading bytes are a prefix of the magic token (a file
/// truncated inside its own header still gets diagnosed, while journals,
/// reports, and other JSON are skipped).
fn looks_enveloped(bytes: &[u8]) -> bool {
    if envelope::sniff(bytes).is_ok() {
        return true;
    }
    let take = bytes.len().min(envelope::MAGIC.len());
    !bytes.is_empty() && bytes[..take] == envelope::MAGIC.as_bytes()[..take]
}

/// Diagnoses one enveloped file: the `kind vN` label from its header (or a
/// placeholder when the header itself is gone) and its integrity verdict.
/// The artifact bundle is the one kind this build writes, so an envelope
/// of any other kind is schema drift.
fn diagnose_envelope(path: &Path, bytes: &[u8]) -> (String, Integrity) {
    match envelope::sniff(bytes) {
        Ok(header) => {
            let label = header.label();
            let verdict = if header.kind == ARTIFACTS_ENVELOPE.kind {
                GlimpseArtifacts::verify(path)
            } else {
                Integrity::SchemaDrift {
                    found: label.clone(),
                    expected: ARTIFACTS_ENVELOPE.label(),
                }
            };
            (label, verdict)
        }
        Err(verdict) => ("unidentified".into(), verdict),
    }
}

/// Prints the component health table a bundle verdict resolves to, one row
/// per learned component with the mode it runs and the cause of a fallback.
fn print_health_table(verdict: &Integrity) {
    let health = if verdict.is_intact() {
        HealthReport::healthy()
    } else {
        HealthReport::all_degraded(&cause_of(verdict))
    };
    println!("\n{:<18} {:<26} cause", "component", "mode");
    for row in &health.components {
        println!(
            "{:<18} {:<26} {}",
            row.component.name(),
            row.mode(),
            row.cause.as_ref().map_or_else(|| "-".into(), ToString::to_string)
        );
    }
}

/// `glimpse doctor <dir>` — walks a directory, verifies every artifact
/// envelope as an artifact bundle, prints the per-component health
/// table the artifact bundle resolves to, and returns an error (nonzero
/// exit, via `main`) when any artifact is not intact.
pub fn doctor(args: &[String]) -> Result<(), String> {
    let root = PathBuf::from(args.first().ok_or("usage: glimpse doctor <dir>")?);
    if !root.is_dir() {
        return Err(format!("{} is not a directory", root.display()));
    }
    let mut files = Vec::new();
    collect_files(&root, &mut files)?;
    files.sort();
    let mut scanned = 0usize;
    let mut damaged = 0usize;
    let mut skipped_json = 0usize;
    let mut bundle_verdict: Option<Integrity> = None;
    println!("{:<44} {:<18} verdict", "artifact", "envelope");
    for path in &files {
        let shown = path.strip_prefix(&root).unwrap_or(path);
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                scanned += 1;
                damaged += 1;
                println!(
                    "{:<44} {:<18} {}",
                    shown.display(),
                    "unreadable",
                    Integrity::Unreadable { detail: e.to_string() }
                );
                continue;
            }
        };
        if !looks_enveloped(&bytes) {
            skipped_json += usize::from(path.extension().is_some_and(|ext| ext == "json"));
            continue;
        }
        let (label, verdict) = diagnose_envelope(path, &bytes);
        scanned += 1;
        if !verdict.is_intact() {
            damaged += 1;
        }
        // The component table reflects the worst artifacts-bundle verdict.
        if label.starts_with(ARTIFACTS_ENVELOPE.kind) && bundle_verdict.as_ref().is_none_or(Integrity::is_intact) {
            bundle_verdict = Some(verdict.clone());
        }
        println!("{:<44} {:<18} {}", shown.display(), label, verdict);
    }
    if let Some(verdict) = &bundle_verdict {
        print_health_table(verdict);
    }
    if damaged > 0 {
        return Err(format!(
            "doctor: {damaged} of {scanned} artifact(s) damaged under {}",
            root.display()
        ));
    }
    if scanned == 0 {
        // Unsealed JSON (a raw bundle, a journal's complete.json) carries no
        // checksum, so there is nothing to verify it against.
        println!(
            "\ndoctor: no artifact envelope under {}; nothing verified ({skipped_json} unsealed .json file(s) skipped)",
            root.display()
        );
    } else {
        println!("\ndoctor: all {scanned} artifact(s) intact under {}", root.display());
    }
    Ok(())
}

#[derive(Debug)]
struct ExperimentOptions {
    model: String,
    tuner: String,
    budget: usize,
    task: usize,
    gpus: Vec<String>,
    run: RunSettings,
}

fn parse_experiment_options(args: &[String]) -> Result<ExperimentOptions, String> {
    let mut positional = Vec::new();
    let mut shared = SharedRunFlags::default();
    let mut tuner = "autotvm".to_owned();
    let mut budget = 64usize;
    let mut task = 0usize;
    let mut gpus: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if shared.try_parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--tuner" => tuner = it.next().ok_or("--tuner needs a value")?.clone(),
            "--budget" => {
                budget = it
                    .next()
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|_| "--budget must be an integer")?;
            }
            "--task" => {
                task = it
                    .next()
                    .ok_or("--task needs a value")?
                    .parse()
                    .map_err(|_| "--task must be an integer")?;
            }
            "--gpus" => {
                gpus = it
                    .next()
                    .ok_or("--gpus needs a value")?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
            }
            other if other.starts_with("--") => return Err(format!("unknown option {other}")),
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() != 1 {
        return Err("usage: glimpse experiment <model> [options]".into());
    }
    if gpus.is_empty() {
        gpus = database::EVALUATION_GPUS.iter().map(|s| (*s).to_owned()).collect();
    }
    Ok(ExperimentOptions {
        model: positional[0].clone(),
        tuner,
        budget,
        task,
        gpus,
        run: shared.finish()?,
    })
}

/// Runs one fleet cell — the pass-1 assignment or a reassigned retry — on
/// the device whose [`Measurer`] is handed in by the pool.
#[allow(clippy::too_many_arguments, reason = "one fleet cell needs the whole campaign context")]
fn run_experiment_cell(
    options: &ExperimentOptions,
    supervisor: &Supervisor,
    task: &Task,
    space: &SearchSpace,
    measurer: &mut Measurer,
    gpu: &GpuSpec,
    cell_name: &str,
    seed: u64,
) -> Result<SupervisedOutcome, String> {
    let budget = Budget::measurements(options.budget);
    let control = supervisor.control(&options.run, 0.0);
    let mut tuner = build_tuner(&options.tuner, None, gpu)?;
    run_cell(&mut *tuner, &options.run, cell_name, task, space, measurer, budget, seed, &control)
}

/// One result-table row for a fleet cell.
fn print_experiment_row(device: &str, supervised: &SupervisedOutcome) {
    println!(
        "{:<18} {:>10.0} {:>8} {:>9} {:>8} {:>11.1}  {}",
        device,
        supervised.outcome.best_gflops,
        supervised.outcome.measurements,
        supervised.outcome.invalid_measurements,
        supervised.outcome.faulted_measurements,
        supervised.outcome.gpu_seconds,
        status_label(&supervised.status)
    );
}

/// `glimpse experiment <model> [options]` — tunes one task on every device
/// of a fleet through a [`DevicePool`], surviving faulted or dead devices.
/// Cells orphaned by a dead device are reassigned to the first healthy
/// survivor; every run settles into a typed status in `degradation.json`.
pub fn experiment(args: &[String]) -> Result<(), String> {
    let options = parse_experiment_options(args)?;
    apply_threads(options.run.threads);
    if options.tuner == "glimpse" {
        return Err("the fleet experiment drives baseline tuners; use `glimpse tune` for the glimpse tuner".into());
    }
    let model = models::find(&options.model).ok_or_else(|| format!("unknown model {:?}; `glimpse models` lists the zoo", options.model))?;
    let task = model
        .tasks()
        .get(options.task)
        .ok_or_else(|| format!("task {} out of range (model has {} tasks)", options.task, model.tasks().len()))?;
    let fleet: Vec<GpuSpec> = options.gpus.iter().map(|name| find_gpu(name).cloned()).collect::<Result<_, _>>()?;
    let space = templates::space_for_task(task);
    if options.run.faults.any() {
        eprintln!("injecting faults (seed {})", options.run.faults.seed);
    }

    let supervisor = Supervisor::start(&options.run);
    let pool = DevicePool::with_faults(&fleet, 7, &options.run.faults);
    let cell_names: Vec<String> = fleet.iter().map(|g| g.name.replace(' ', "_")).collect();
    // Pass 1: every device tunes its own cell, in parallel.
    let results = pool.run_all(|index, measurer| {
        run_experiment_cell(
            &options,
            &supervisor,
            task,
            &space,
            measurer,
            &fleet[index],
            &cell_names[index],
            7 + index as u64,
        )
    });

    // Pass 2: cells orphaned by a dead device move to the first healthy
    // survivor. The reassigned cell keeps its original seed (it is the
    // same work item) and journals under `<cell>__on_<survivor>` so the
    // dead device's journal stays intact for a post-mortem.
    let mut moved: Vec<Option<usize>> = vec![None; fleet.len()];
    let mut reassignments: Vec<(usize, usize, Result<SupervisedOutcome, String>)> = Vec::new();
    for index in 0..fleet.len() {
        if supervisor.interrupt.is_cancelled() {
            break;
        }
        let orphaned =
            results[index].is_err() || matches!(&results[index], Ok(Ok(s)) if s.status == CellStatus::Abandoned(Abandonment::DeviceDead));
        if !orphaned {
            continue;
        }
        let Some(survivor) = (0..fleet.len()).find(|j| *j != index && pool.status(*j) == DeviceStatus::Healthy) else {
            continue;
        };
        let new_cell = format!("{}__on_{}", cell_names[index], cell_names[survivor]);
        eprintln!(
            "reassigning cell {} from dead device {} to {}",
            cell_names[index], fleet[index].name, fleet[survivor].name
        );
        let outcome = pool.run_on(survivor, |_, measurer| {
            run_experiment_cell(
                &options,
                &supervisor,
                task,
                &space,
                measurer,
                &fleet[survivor],
                &new_cell,
                7 + index as u64,
            )
        });
        let flat = match outcome {
            Ok(r) => r,
            Err(e) => Err(e.to_string()),
        };
        moved[index] = Some(survivor);
        reassignments.push((index, survivor, flat));
    }

    println!(
        "task L{} [{}] {} under tuner {:?}",
        task.id.index, task.template, task.op, options.tuner
    );
    println!(
        "{:<18} {:>10} {:>8} {:>9} {:>8} {:>11}  status",
        "device", "GFLOPS", "meas.", "invalid", "faulted", "GPU seconds"
    );
    let mut report = DegradationReport::new(format!("experiment {} task {}", options.model, options.task));
    for (index, result) in results.iter().enumerate() {
        let name = &fleet[index].name;
        let reassigned_status = moved[index].map(|s| CellStatus::Reassigned { to: fleet[s].name.clone() });
        match result {
            Ok(Ok(supervised)) => {
                let mut row = cell_report(cell_names[index].clone(), name, supervised);
                if let Some(status) = reassigned_status {
                    row.status = status;
                }
                print_experiment_row(name, supervised);
                report.push(row);
            }
            Ok(Err(message)) => {
                println!("{name:<18} tuner error: {message}");
                report.push(empty_cell_report(
                    cell_names[index].clone(),
                    name,
                    reassigned_status.unwrap_or(CellStatus::Abandoned(Abandonment::DeviceUnavailable)),
                ));
            }
            Err(error) => {
                println!("{name:<18} {error}");
                report.push(empty_cell_report(
                    cell_names[index].clone(),
                    name,
                    reassigned_status.unwrap_or(CellStatus::Abandoned(Abandonment::DeviceDead)),
                ));
            }
        }
    }
    for (index, survivor, outcome) in &reassignments {
        let new_cell = format!("{}__on_{}", cell_names[*index], cell_names[*survivor]);
        let survivor_name = &fleet[*survivor].name;
        match outcome {
            Ok(supervised) => {
                print_experiment_row(survivor_name, supervised);
                report.push(cell_report(new_cell, survivor_name, supervised));
            }
            Err(message) => {
                println!("{survivor_name:<18} reassigned cell failed: {message}");
                report.push(empty_cell_report(
                    new_cell,
                    survivor_name,
                    CellStatus::Abandoned(Abandonment::DeviceUnavailable),
                ));
            }
        }
    }
    println!("\nfleet health:");
    print!("{}", pool.summary());
    let resume_hint = match &options.run.checkpoint_dir {
        Some(dir) => format!(
            "glimpse experiment {} --tuner {} --budget {} --task {} --checkpoint-dir {:?} --resume",
            options.model,
            options.tuner,
            options.budget,
            options.task,
            dir.display().to_string()
        ),
        None => String::new(),
    };
    finish_campaign(&report, &options.run, &resume_hint)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_options_parse_positionals_and_flags() {
        let args: Vec<String> = ["resnet18", "RTX 3090", "--tuner", "autotvm", "--budget", "64", "--task", "3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = parse_tune_options(&args).unwrap();
        assert_eq!(options.model, "resnet18");
        assert_eq!(options.gpu, "RTX 3090");
        assert_eq!(options.tuner, "autotvm");
        assert_eq!(options.budget, 64);
        assert_eq!(options.task, Some(3));
        assert!(!options.full_training);
    }

    #[test]
    fn tune_options_reject_unknown_flags() {
        let args: Vec<String> = ["m", "g", "--frobnicate"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_tune_options(&args).unwrap_err().contains("--frobnicate"));
    }

    #[test]
    fn tune_options_require_two_positionals() {
        let args: Vec<String> = vec!["onlymodel".into()];
        assert!(parse_tune_options(&args).is_err());
    }

    #[test]
    fn gpu_lookup_reports_unknown_names() {
        assert!(find_gpu("RTX 9999").unwrap_err().contains("RTX 9999"));
        assert!(find_gpu("Titan Xp").is_ok());
    }

    #[test]
    fn usage_mentions_every_subcommand() {
        for cmd in ["gpus", "models", "blueprint", "sheet", "sweep", "doctor", "tune", "experiment"] {
            assert!(USAGE.contains(cmd), "usage missing {cmd}");
        }
    }

    #[test]
    fn tune_options_parse_fault_flags() {
        let args: Vec<String> = ["m", "g", "--fault-plan", "timeout=0.2,dead=0.01", "--fault-seed", "9"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = parse_tune_options(&args).unwrap();
        assert_eq!(options.run.faults.seed, 9);
        assert!((options.run.faults.default_rates.timeout - 0.2).abs() < 1e-12);
        assert!((options.run.faults.default_rates.device_dead - 0.01).abs() < 1e-12);
    }

    #[test]
    fn bad_fault_plan_is_a_one_line_error() {
        let args: Vec<String> = ["m", "g", "--fault-plan", "timeout=2.0"].iter().map(|s| (*s).to_owned()).collect();
        let err = parse_tune_options(&args).unwrap_err();
        assert!(err.contains("[0, 1]"), "got: {err}");
        assert!(!err.contains('\n'));
    }

    #[test]
    fn tune_options_parse_threads_flag() {
        let args: Vec<String> = ["m", "g", "--threads", "4"].iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(parse_tune_options(&args).unwrap().run.threads, Some(4));
        let auto: Vec<String> = ["m", "g", "--threads", "0"].iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(parse_tune_options(&auto).unwrap().run.threads, Some(0));
        let unset: Vec<String> = ["m", "g"].iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(parse_tune_options(&unset).unwrap().run.threads, None);
    }

    #[test]
    fn threads_flag_rejects_junk() {
        let args: Vec<String> = ["m", "g", "--threads", "lots"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_tune_options(&args).unwrap_err().contains("--threads"));
        let exp: Vec<String> = ["m", "--threads", "-2"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_experiment_options(&exp).unwrap_err().contains("--threads"));
    }

    #[test]
    fn experiment_options_parse_threads_flag() {
        let args: Vec<String> = ["m", "--threads", "8"].iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(parse_experiment_options(&args).unwrap().run.threads, Some(8));
    }

    #[test]
    fn usage_documents_the_threads_flag() {
        assert!(USAGE.contains("--threads"));
        assert!(USAGE.contains("GLIMPSE_THREADS"));
    }

    #[test]
    fn experiment_options_default_to_the_evaluation_fleet() {
        let args: Vec<String> = vec!["resnet18".into()];
        let options = parse_experiment_options(&args).unwrap();
        assert_eq!(options.gpus.len(), 4);
        assert_eq!(options.tuner, "autotvm");
        assert!(!options.run.faults.any());
    }

    #[test]
    fn checkpoint_flags_parse_on_both_subcommands() {
        let args: Vec<String> = ["m", "g", "--checkpoint-dir", "/tmp/run1", "--resume"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = parse_tune_options(&args).unwrap();
        assert_eq!(options.run.checkpoint_dir, Some(PathBuf::from("/tmp/run1")));
        assert!(options.run.resume);
        let exp: Vec<String> = ["m", "--checkpoint-dir", "/tmp/run2"].iter().map(|s| (*s).to_owned()).collect();
        let options = parse_experiment_options(&exp).unwrap();
        assert_eq!(options.run.checkpoint_dir, Some(PathBuf::from("/tmp/run2")));
        assert!(!options.run.resume);
    }

    #[test]
    fn resume_without_checkpoint_dir_is_refused() {
        let args: Vec<String> = ["m", "g", "--resume"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_tune_options(&args).unwrap_err().contains("--checkpoint-dir"));
        let exp: Vec<String> = ["m", "--resume"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_experiment_options(&exp).unwrap_err().contains("--checkpoint-dir"));
    }

    #[test]
    fn usage_documents_the_checkpoint_flags() {
        assert!(USAGE.contains("--checkpoint-dir"));
        assert!(USAGE.contains("--resume"));
    }

    #[test]
    fn tune_refuses_to_clobber_then_resumes_a_complete_run() {
        let dir = std::env::temp_dir().join("glimpse-cli-checkpoint-test");
        let _ = std::fs::remove_dir_all(&dir);
        let base = [
            "alexnet",
            "Titan Xp",
            "--tuner",
            "random",
            "--budget",
            "6",
            "--task",
            "2",
            "--checkpoint-dir",
        ];
        let args: Vec<String> = base.iter().map(|s| (*s).to_owned()).chain([dir.display().to_string()]).collect();
        tune(&args).unwrap();
        assert!(dir.join("task2").join("complete.json").exists());
        // A second run without --resume must not clobber the journal.
        let err = tune(&args).unwrap_err();
        assert!(err.contains("journal"), "got: {err}");
        // With --resume the completed cell is served from complete.json.
        let resume_args: Vec<String> = args.iter().cloned().chain(["--resume".to_owned()]).collect();
        tune(&resume_args).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctor_passes_clean_dirs_and_fails_damaged_ones() {
        let dir = std::env::temp_dir().join("glimpse-cli-doctor-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A sealed committed bundle next to a plain JSON report (skipped).
        let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/artifacts-RTX_2070_Super-42.json");
        let payload = std::fs::read(committed).unwrap();
        let bundle = dir.join("artifacts.glimpse");
        envelope::write_envelope(&bundle, ARTIFACTS_ENVELOPE, &payload).unwrap();
        atomic_write(&dir.join("degradation.json"), b"{\"cells\":[]}").unwrap();
        doctor(&[dir.display().to_string()]).unwrap();
        // An envelope of any other kind is drift, not an artifact to trust.
        let foreign = dir.join("corpus.bin");
        let spec = envelope::EnvelopeSpec { kind: "corpus", schema: 1 };
        envelope::write_envelope(&foreign, spec, b"[]").unwrap();
        let err = doctor(&[dir.display().to_string()]).unwrap_err();
        assert!(err.contains("1 of 2 artifact(s) damaged"), "got: {err}");
        std::fs::remove_file(&foreign).unwrap();
        // A flipped payload byte must fail doctor with a damage count.
        let mut bytes = std::fs::read(&bundle).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        atomic_write(&bundle, &bytes).unwrap();
        let err = doctor(&[dir.display().to_string()]).unwrap_err();
        assert!(err.contains("damaged"), "got: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doctor_rejects_missing_directories() {
        assert!(doctor(&["/nonexistent/glimpse-doctor".to_owned()]).is_err());
        assert!(doctor(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn tune_with_a_lost_artifact_bundle_completes_degraded() {
        let dir = std::env::temp_dir().join("glimpse-cli-artifact-chaos-test");
        let _ = std::fs::remove_dir_all(&dir);
        let artifacts = dir.join("artifacts.json");
        // artifact_delete arms the chaos path: the bundle counts as lost
        // (never retrained), every component runs its fallback, and the
        // cell still completes — degraded, with the components named.
        let base = [
            "alexnet",
            "Titan Xp",
            "--tuner",
            "glimpse",
            "--budget",
            "6",
            "--task",
            "2",
            "--fault-plan",
            "artifact_delete=1",
            "--artifacts",
        ];
        let args: Vec<String> = base
            .iter()
            .map(|s| (*s).to_owned())
            .chain([
                artifacts.display().to_string(),
                "--checkpoint-dir".to_owned(),
                dir.display().to_string(),
            ])
            .collect();
        tune(&args).unwrap();
        assert!(dir.join("task2").join("complete.json").exists());
        let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
        assert!(report.contains("ComponentFallback"), "got: {report}");
        assert!(report.contains("ArtifactMissing"), "got: {report}");
        assert!(report.contains("CostModel"), "got: {report}");
        // Resuming under the same fallbacks is accepted and stays complete.
        let resume: Vec<String> = args.iter().cloned().chain(["--resume".to_owned()]).collect();
        tune(&resume).unwrap();
        let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
        assert!(report.contains("ComponentFallback"), "got: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_options_parse_gpu_list() {
        let args: Vec<String> = ["vgg16", "--gpus", "Titan Xp, RTX 3090", "--task", "2", "--fault-seed", "5"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let options = parse_experiment_options(&args).unwrap();
        assert_eq!(options.gpus, vec!["Titan Xp".to_string(), "RTX 3090".to_string()]);
        assert_eq!(options.task, 2);
        assert_eq!(options.run.faults.seed, 5);
    }

    #[test]
    fn supervision_flags_parse_on_both_subcommands() {
        let args: Vec<String> = [
            "m",
            "g",
            "--deadline-s",
            "1.5",
            "--max-wall-s",
            "30",
            "--stall-timeout-s",
            "0",
            "--report",
            "/tmp/deg.json",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let options = parse_tune_options(&args).unwrap();
        assert_eq!(options.run.deadline_s, Some(1.5));
        assert_eq!(options.run.max_wall_s, Some(30.0));
        assert_eq!(options.run.stall_timeout_s, Some(0.0));
        assert_eq!(options.run.report, Some(PathBuf::from("/tmp/deg.json")));
        let exp: Vec<String> = ["m", "--deadline-s", "2"].iter().map(|s| (*s).to_owned()).collect();
        let options = parse_experiment_options(&exp).unwrap();
        assert_eq!(options.run.deadline_s, Some(2.0));
    }

    #[test]
    fn supervision_flags_reject_junk() {
        let bad_deadline: Vec<String> = ["m", "g", "--deadline-s", "soon"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_tune_options(&bad_deadline).unwrap_err().contains("--deadline-s"));
        let negative: Vec<String> = ["m", "g", "--max-wall-s", "-3"].iter().map(|s| (*s).to_owned()).collect();
        assert!(parse_tune_options(&negative).unwrap_err().contains("--max-wall-s"));
    }

    #[test]
    fn fleet_health_thresholds_are_not_an_option() {
        // The pool retires a device on death and has no thresholds to tune.
        let tune: Vec<String> = ["m", "g", "--pool-policy", "quarantine=3"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(parse_tune_options(&tune).unwrap_err(), "unknown option --pool-policy");
        let exp: Vec<String> = ["m", "--pool-policy", "quarantine=3"].iter().map(|s| (*s).to_owned()).collect();
        assert_eq!(parse_experiment_options(&exp).unwrap_err(), "unknown option --pool-policy");
        assert!(!USAGE.contains("--pool-policy"));
    }

    #[test]
    fn usage_documents_the_supervision_flags() {
        for flag in ["--deadline-s", "--max-wall-s", "--stall-timeout-s", "--report"] {
            assert!(USAGE.contains(flag), "usage missing {flag}");
        }
        assert!(USAGE.contains("SIGINT"));
    }

    #[test]
    fn tune_past_deadline_degrades_and_writes_the_report() {
        let dir = std::env::temp_dir().join("glimpse-cli-deadline-test");
        let _ = std::fs::remove_dir_all(&dir);
        let args: Vec<String> = [
            "alexnet",
            "Titan Xp",
            "--tuner",
            "random",
            "--budget",
            "6",
            "--task",
            "2",
            "--deadline-s",
            "0",
            "--checkpoint-dir",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .chain([dir.display().to_string()])
        .collect();
        tune(&args).unwrap();
        // A zero deadline stops the cell before its first trial completes:
        // the journal stays resumable (snapshot, no completion marker)...
        assert!(!dir.join("task2").join("complete.json").exists());
        assert!(dir.join("task2").join("snapshot.json").exists());
        // ...and the degradation report records the typed status.
        let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
        assert!(report.contains("DeadlineExceeded"), "got: {report}");
        // Resuming with a generous deadline finishes the cell.
        let resume: Vec<String> = args
            .iter()
            .map(|a| if a == "0" { "1000000".to_owned() } else { a.clone() })
            .chain(["--resume".to_owned()])
            .collect();
        tune(&resume).unwrap();
        assert!(dir.join("task2").join("complete.json").exists());
        let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
        assert!(report.contains("Complete"), "got: {report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn experiment_reassigns_the_cell_of_a_dead_device() {
        let dir = std::env::temp_dir().join("glimpse-cli-reassign-test");
        let _ = std::fs::remove_dir_all(&dir);
        let args: Vec<String> = [
            "alexnet",
            "--gpus",
            "Titan Xp, RTX 3090",
            "--tuner",
            "random",
            "--budget",
            "4",
            "--task",
            "2",
            "--fault-plan",
            "dead@Titan Xp=1.0",
            "--checkpoint-dir",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .chain([dir.display().to_string()])
        .collect();
        experiment(&args).unwrap();
        let report = std::fs::read_to_string(dir.join("degradation.json")).unwrap();
        assert!(report.contains("Reassigned"), "got: {report}");
        // The orphaned cell reran on the survivor under its own journal dir.
        assert!(dir.join("Titan_Xp__on_RTX_3090").join("complete.json").exists());
        assert!(dir.join("RTX_3090").join("complete.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

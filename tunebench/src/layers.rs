//! Per-layer metrics of a traced run.
//!
//! Set-up layers come straight from the spans the traced rounds recorded
//! around each public call (fastest of the traced rounds). Search layers
//! are estimated after the rounds, outside every timed region: each cell's
//! recorded inputs — its measured configurations, history and journal —
//! are replayed through each layer's public function, timing each call,
//! and the per-call cost is multiplied by the run's own call count taken
//! from the outcome counters (`explorer_steps`, the surrogate lifecycle,
//! measurements). Surrogate fits are replayed in full on the recorded
//! history, so their time is measured rather than estimated.
//!
//! Per-call costs are single-thread costs; the SA chains fan out across
//! workers, so on a multi-core host the estimates can exceed the wall time
//! they explain and `unattributed_ms` can go negative. A layer a workload
//! bypasses reports 0.

use crate::measure::{fastest, sum_of_fastest, time};
use crate::workload::{Inputs, Record};
use crate::Metric;
use glimpse_core::{GlimpseConfig, GlimpseTuner};
use glimpse_mlkit::stats::child_rng;
use glimpse_sim::StorageFaults;
use glimpse_space::{templates, Config, SearchSpace};
use glimpse_tuners::autotvm::AutoTvmConfig;
use glimpse_tuners::cost_model::GbtCostModel;
use glimpse_tuners::journal::{RunJournal, DEFAULT_SNAPSHOT_EVERY, JOURNAL_FILE};
use glimpse_tuners::{TuningHistory, TuningOutcome};
use std::hint::black_box;
use std::path::Path;

/// Passes over a cell's inputs per per-call measurement (fastest kept).
const PASSES: usize = 3;
/// Prior draws and sampler probes per cell.
const PROBES: usize = 256;

/// Fastest-of-[`PASSES`] seconds per call of `f` over `items`.
fn per_call<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            time(|| {
                for item in items {
                    black_box(f(item));
                }
            })
            .0
        })
        .collect();
    fastest(&passes).unwrap_or(0.0) / items.len().max(1) as f64
}

/// One layer's estimated self time and the calls it covers.
#[derive(Default, Clone, Copy)]
struct Cost {
    s: f64,
    calls: f64,
}

impl Cost {
    fn add(&mut self, per_call_s: f64, calls: f64) {
        self.s += per_call_s * calls;
        self.calls += calls;
    }

    fn per_call(self) -> f64 {
        if self.calls > 0.0 {
            self.s / self.calls
        } else {
            0.0
        }
    }
}

/// Run-wide sums over cells.
#[derive(Default)]
struct Totals {
    fit: Cost,
    fits: usize,
    scratch_fits: usize,
    replay_matches: bool,
    predict: Cost,
    cache_hits: u64,
    cache_lookups: u64,
    steps: f64,
    features: Cost,
    neighbor: Cost,
    score: Cost,
    prior: Cost,
    prior_draws: usize,
    prior_valid: usize,
    accept: Cost,
    probes: usize,
    vetoed: usize,
    vetoed_invalid: usize,
    measure: Cost,
    measurements: usize,
    invalid: usize,
    append: Cost,
    snapshot: Cost,
    resume: Cost,
    wal_bytes: u64,
    replayed_trials: usize,
}

impl Totals {
    /// Estimated self time of every replayed search layer (seconds).
    fn layer_s(&self) -> f64 {
        [
            self.fit,
            self.predict,
            self.features,
            self.neighbor,
            self.score,
            self.prior,
            self.accept,
            self.measure,
            self.append,
            self.snapshot,
            self.resume,
        ]
        .iter()
        .map(|c| c.s)
        .sum()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run's per-layer metrics, in `BENCHMARK.json` order, and
/// whether every replayed surrogate reproduced its cell's fit lifecycle.
#[must_use]
pub fn per_layer(inputs: &Inputs, rec: &Record) -> (Vec<Metric>, bool) {
    let glimpse = GlimpseConfig::default();
    let artifacts = rec.resolved.as_ref().and_then(|r| r.artifacts.as_ref());
    let tuner = artifacts.map(|a| GlimpseTuner::new(a, inputs.gpu));
    let mut t = Totals {
        replay_matches: true,
        ..Totals::default()
    };

    for (i, task) in inputs.tasks.iter().enumerate() {
        let Some(outcome) = &rec.outcomes[i] else { continue };
        let space = templates::space_for_task(task);
        let seed = inputs.cell_seed(i);
        let configs: Vec<Config> = outcome.history.trials.iter().map(|t| t.config.clone()).collect();
        let rows: Vec<Vec<f64>> = configs.iter().map(|c| space.features(c)).collect();
        let steps = outcome.explorer_steps as f64;
        let rounds = outcome.surrogate.map_or(0, |s| s.rounds) as f64;
        t.steps += steps;
        t.measurements += outcome.measurements;
        t.invalid += outcome.invalid_measurements;

        // space: one featurization and one neighbor move per SA step.
        t.features.add(per_call(&configs, |c| space.features(c)), steps);
        let mut rng = child_rng(seed, 0x7EB);
        let mut out = configs[0].clone();
        t.neighbor
            .add(per_call(&configs, |c| space.neighbor_into(c, &mut out, &mut rng)), steps);

        // tuners::cost_model: fits replayed, one prediction per SA step.
        let model = replay_cost_model(&space, outcome, seed, inputs.workload.is_glimpse(), &mut t);
        t.predict.add(per_call(&rows, |r| model.predict_features(r)), steps);

        // sim: one measurement per trial.
        let mut measurer = inputs.measurer(i);
        t.measure
            .add(per_call(&configs, |c| measurer.measure(&space, c)), outcome.measurements as f64);
        let perf = measurer.model();

        if let (Some(artifacts), Some(tuner)) = (artifacts, &tuner) {
            let blueprint = tuner.blueprint();
            let template = space.template();
            // core::acquisition: one score per SA step, on the surrogate mean.
            let acquisition = artifacts.acquisition(template);
            let scored: Vec<(&Vec<f64>, f64)> = rows.iter().map(|r| (r, model.predict_features(r))).collect();
            t.score.add(
                per_call(&scored, |(r, mu)| acquisition.score_features(r, *mu, 0.5, blueprint)),
                steps,
            );
            // core::prior: the initial draw (three per initial slot), then
            // the fresh half of every round's chain starts.
            let prior = artifacts.prior(template);
            let mut rng = child_rng(seed, 0x9A1);
            let draws: Vec<(f64, Vec<Config>)> = (0..PASSES)
                .map(|_| time(|| prior.sample_initial(&space, blueprint, PROBES, &mut rng).unwrap_or_default()))
                .collect();
            let draw_s = draws.iter().map(|(s, _)| *s).reduce(f64::min).unwrap_or(0.0);
            t.prior.add(
                draw_s / PROBES as f64,
                (glimpse.n_init * 3) as f64 + rounds * (glimpse.sa_chains / 2) as f64,
            );
            let samples = &draws[0].1;
            t.prior_draws += samples.len();
            t.prior_valid += samples.iter().filter(|c| perf.throughput_gflops(&space, c).is_some()).count();
            // core::sampler: a vote per initial draw and per batch slot,
            // probed on uniform configurations of the space.
            if let Some(sampler) = tuner.sampler() {
                let probes: Vec<Config> = (0..PROBES).map(|_| space.sample_uniform(&mut rng)).collect();
                t.accept.add(
                    per_call(&probes, |c| sampler.accept(&space, c)),
                    (glimpse.n_init * 3) as f64 + rounds * glimpse.batch_size as f64,
                );
                t.probes += probes.len();
                for c in probes.iter().filter(|c| !sampler.accept(&space, c)) {
                    t.vetoed += 1;
                    t.vetoed_invalid += usize::from(perf.throughput_gflops(&space, c).is_none());
                }
            }
        }

        if let Some(kept) = &rec.kept[i] {
            replay_journal(&kept.half, &kept.full, &mut t);
        }
    }

    let span_ms = |name: &str| rec.spans.get(name).and_then(|v| fastest(v)).unwrap_or(0.0) * 1e3;
    let decode_ms = span_ms("core.artifacts.decode");
    let bundle_bytes = if decode_ms > 0.0 { inputs.bundle_bytes() as f64 } else { 0.0 };
    let search_s = sum_of_fastest(&rec.cells[0]);
    let tune_s = |traced: usize| fastest(&rec.setup[traced]).unwrap_or(0.0) + sum_of_fastest(&rec.cells[traced]);
    let count = |n: usize| n as f64;

    let metrics = vec![
        Metric::new("durable.envelope.verify_ms", span_ms("durable.envelope.verify"), "ms"),
        Metric::new("core.artifacts.decode_ms", decode_ms, "ms"),
        Metric::new("core.artifacts.bundle_bytes", bundle_bytes, "bytes"),
        Metric::new("core.artifacts.decode_mb_per_s", ratio(bundle_bytes / 1e3, decode_ms), "MB/s"),
        Metric::new("core.blueprint.fit_ms", span_ms("core.blueprint.fit"), "ms"),
        Metric::new("core.corpus.generate_ms", span_ms("core.corpus.generate"), "ms"),
        Metric::new("core.prior.train_ms", span_ms("core.prior.train"), "ms"),
        Metric::new("core.acquisition.train_ms", span_ms("core.acquisition.train"), "ms"),
        Metric::new("core.tuner.build_ms", span_ms("core.tuner.build"), "ms"),
        Metric::new("tuners.cost_model.fit_ms", t.fit.s * 1e3, "ms"),
        Metric::new("tuners.cost_model.fits", count(t.fits), "count"),
        Metric::new("tuners.cost_model.scratch_fits", count(t.scratch_fits), "count"),
        Metric::new("tuners.cost_model.predict_us", t.predict.per_call() * 1e6, "us"),
        Metric::new(
            "tuners.feature_cache.hit_rate",
            ratio(t.cache_hits as f64, t.cache_lookups as f64),
            "fraction",
        ),
        Metric::new("mlkit.sa.steps", t.steps, "count"),
        Metric::new("mlkit.sa.steps_per_s", ratio(t.steps, search_s), "1/s"),
        Metric::new("space.features_us", t.features.per_call() * 1e6, "us"),
        Metric::new("space.neighbor_us", t.neighbor.per_call() * 1e6, "us"),
        Metric::new("core.acquisition.score_us", t.score.per_call() * 1e6, "us"),
        Metric::new("core.acquisition.calls", t.score.calls, "count"),
        Metric::new("core.prior.sample_us", t.prior.per_call() * 1e6, "us"),
        Metric::new(
            "core.prior.valid_frac",
            ratio(count(t.prior_valid), count(t.prior_draws)),
            "fraction",
        ),
        Metric::new("core.sampler.accept_ns", t.accept.per_call() * 1e9, "ns"),
        Metric::new("core.sampler.veto_frac", ratio(count(t.vetoed), count(t.probes)), "fraction"),
        Metric::new(
            "core.sampler.veto_precision",
            ratio(count(t.vetoed_invalid), count(t.vetoed)),
            "fraction",
        ),
        Metric::new("sim.measure_us", t.measure.per_call() * 1e6, "us"),
        Metric::new("sim.measurements", count(t.measurements), "count"),
        Metric::new("sim.invalid", count(t.invalid), "count"),
        Metric::new("sim.invalid_frac", ratio(count(t.invalid), count(t.measurements)), "fraction"),
        Metric::new("tuners.journal.append_us", t.append.per_call() * 1e6, "us"),
        Metric::new("tuners.journal.snapshot_ms", t.snapshot.per_call() * 1e3, "ms"),
        Metric::new("tuners.journal.wal_bytes", t.wal_bytes as f64, "bytes"),
        Metric::new("tuners.journal.resume_ms", t.resume.s * 1e3, "ms"),
        Metric::new("tuners.journal.replayed_trials", count(t.replayed_trials), "count"),
        Metric::new("unattributed_ms", (search_s - t.layer_s()) * 1e3, "ms"),
        Metric::new("trace.overhead_ms", (tune_s(1) - tune_s(0)) * 1e3, "ms"),
    ];
    (metrics, t.replay_matches)
}

/// Replays a cell's surrogate fits on its recorded history: the tuner fits
/// once per round, each round after the first adding one measured batch.
/// Returns the fitted model.
fn replay_cost_model(space: &SearchSpace, outcome: &TuningOutcome, seed: u64, glimpse: bool, t: &mut Totals) -> GbtCostModel {
    // The seeds `GlimpseTuner` and `AutoTvmTuner` give their surrogates.
    let (model_seed, n_init, batch) = if glimpse {
        let config = GlimpseConfig::default();
        (seed ^ 0x91, config.n_init, config.batch_size)
    } else {
        let config = AutoTvmConfig::default();
        (seed ^ 0x6B7, config.n_init, config.batch_size)
    };
    let mut model = GbtCostModel::new(model_seed);
    let Some(lifecycle) = outcome.surrogate else { return model };
    let history = &outcome.history;
    let mut prefix = TuningHistory {
        trials: Vec::new(),
        ..history.clone()
    };
    let calls = lifecycle.rounds + lifecycle.skipped_fits;
    let mut fit_s = 0.0;
    for round in 0..calls {
        let len = (n_init + batch * round).min(history.trials.len());
        prefix.trials.extend_from_slice(&history.trials[prefix.trials.len()..len]);
        fit_s += time(|| model.fit(space, &prefix)).0;
    }
    let replayed = model.lifecycle();
    t.replay_matches &= replayed.rounds == lifecycle.rounds && replayed.scratch_fits == lifecycle.scratch_fits;
    t.fit.add(fit_s, 1.0);
    t.fits += lifecycle.rounds;
    t.scratch_fits += lifecycle.scratch_fits;
    t.cache_hits += lifecycle.cache.hits;
    t.cache_lookups += lifecycle.cache.lookups();
    model
}

/// Replays one journal cell: recovery of the WAL as the interruption left
/// it, every recorded trial appended to a fresh journal, and snapshots.
fn replay_journal(half: &Path, full: &Path, t: &mut Totals) {
    let none = StorageFaults::none();
    let (resume_s, recovered) = time(|| RunJournal::resume(half, none, DEFAULT_SNAPSHOT_EVERY));
    if let Ok(Some(run)) = recovered {
        t.resume.add(resume_s, 1.0);
        t.replayed_trials += run.records.len();
    }
    t.wal_bytes += std::fs::metadata(full.join(JOURNAL_FILE)).map_or(0, |m| m.len());
    let Ok(Some(run)) = RunJournal::resume(full, none, DEFAULT_SNAPSHOT_EVERY) else {
        return;
    };
    let scratch = full.with_extension("append");
    // Snapshots off, so the appends time the WAL alone.
    if let Ok(mut fresh) = RunJournal::create(&scratch, &run.header, none, 0) {
        // Every trial is appended live once: before the interruption or
        // after the resume (the replayed prefix is served, not appended).
        let records = &run.records;
        let (append_s, ()) = time(|| {
            for record in records {
                black_box(fresh.append_trial(record));
            }
        });
        t.append.add(append_s / records.len().max(1) as f64, records.len() as f64);
        if let Some(last) = records.last() {
            let flushes: Vec<f64> = (0..PASSES).map(|_| time(|| fresh.flush_snapshot(&last.post)).0).collect();
            // One snapshot per cadence step, plus the flush at the interrupt.
            let snapshots = records.len() as u64 / DEFAULT_SNAPSHOT_EVERY + 1;
            t.snapshot.add(fastest(&flushes).unwrap_or(0.0), snapshots as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

//! Component micro-benchmarks backing the paper's overhead claims:
//!
//! * §3.3 — the hardware-aware sampler is "super fast … O(1)" versus
//!   Chameleon's O(n·k·I) clustering: `sampler_vote` vs
//!   `chameleon_clustering`.
//! * §3.1 — the prior generator's cost is "negligible" (one-off per layer):
//!   `prior_initial_batch`.
//! * §3.1 — Blueprint parsing overhead must stay a small fraction of
//!   compilation time: `blueprint_encode`.
//! * The measurement oracle and surrogate machinery every tuner shares:
//!   `simulator_measure`, `space_features`, `surrogate_predict`,
//!   `acquisition_score`.
//! * The parallel search layer's hot paths: `gbt_fit`, `sa_batch`,
//!   `predict_batch` (each pinned to one worker so criterion tracks the
//!   per-core cost; thread scaling is the `search_throughput` harness's
//!   job).
//! * The surrogate on the tuners' real traffic: `gbt_fit_240x28_vgg` and
//!   `gbt_predict_vgg`, next to the continuous synthetic `gbt_fit_600x8`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use glimpse_core::artifacts::{GlimpseArtifacts, TrainingOptions};
use glimpse_core::sampler::{EnsembleSampler, DEFAULT_MEMBERS, DEFAULT_TAU};
use glimpse_gpu_spec::database;
use glimpse_mlkit::kmeans::kmeans;
use glimpse_sim::Measurer;
use glimpse_space::templates;
use glimpse_tensor_prog::{models, Conv2dSpec};
use glimpse_tuners::cost_model::GbtCostModel;
use glimpse_tuners::history::{Trial, TuningHistory};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn artifacts() -> &'static GlimpseArtifacts {
    static CELL: OnceLock<GlimpseArtifacts> = OnceLock::new();
    CELL.get_or_init(|| {
        let gpus = database::training_gpus("RTX 2080 Ti");
        GlimpseArtifacts::train_with(&gpus, TrainingOptions::fast(), 42).unwrap()
    })
}

fn bench_components(c: &mut Criterion) {
    let gpu = database::find("RTX 2080 Ti").unwrap();
    let space = templates::conv2d_direct_space(&Conv2dSpec::square(1, 64, 64, 56, 3, 1, 1));
    let mut rng = StdRng::seed_from_u64(1);
    let configs: Vec<_> = (0..64).map(|_| space.sample_uniform(&mut rng)).collect();
    let blueprint = artifacts().encode(gpu);
    let sampler = EnsembleSampler::from_blueprint(&artifacts().codec, &blueprint, DEFAULT_MEMBERS, DEFAULT_TAU);

    c.bench_function("blueprint_encode", |b| b.iter(|| std::hint::black_box(artifacts().encode(gpu))));

    c.bench_function("sampler_vote_single_config", |b| {
        let shape = space.kernel_shape(&configs[0]);
        b.iter(|| std::hint::black_box(sampler.accept_shape(&shape)))
    });

    c.bench_function("sampler_filter_batch64", |b| {
        b.iter_batched(
            || configs.clone(),
            |batch| std::hint::black_box(sampler.filter(&space, batch)),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("chameleon_clustering_batch64", |b| {
        let features: Vec<Vec<f64>> = configs.iter().map(|cfg| space.features(cfg)).collect();
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| std::hint::black_box(kmeans(&features, 16, 25, &mut rng)))
    });

    c.bench_function("prior_initial_batch16", |b| {
        let prior = artifacts().prior(space.template());
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| std::hint::black_box(prior.sample_initial(&space, &blueprint, 16, &mut rng)))
    });

    c.bench_function("acquisition_score", |b| {
        let acq = artifacts().acquisition(space.template());
        b.iter(|| std::hint::black_box(acq.score(&space, &configs[0], 800.0, 0.5, &blueprint)))
    });

    c.bench_function("simulator_measure", |b| {
        let mut measurer = Measurer::new(gpu.clone(), 7);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % configs.len();
            std::hint::black_box(measurer.measure(&space, &configs[i]))
        })
    });

    c.bench_function("space_kernel_shape_and_features", |b| {
        b.iter(|| std::hint::black_box(space.features(&configs[0])))
    });

    c.bench_function("gbt_fit_600x8", |b| {
        use glimpse_mlkit::gbt::{Gbt, GbtParams};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let xs: Vec<Vec<f64>> = (0..600).map(|_| (0..8).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2)).collect();
        b.iter(|| {
            let mut fit_rng = StdRng::seed_from_u64(1);
            std::hint::black_box(Gbt::fit(&xs, &ys, GbtParams::default(), &mut fit_rng))
        })
    });

    // The tuners' real traffic: 240 uniform configs of a VGG-16 conv task
    // (28 feature columns, most with 2–10 distinct values), targets scaled
    // as the cost model scales them. Unlike the continuous synthetic
    // `gbt_fit_600x8` matrix, most of each sorted column is runs of ties.
    let (vgg_xs, vgg_ys) = {
        let model = models::vgg16();
        let vspace = templates::space_for_task(&model.tasks()[0]);
        let mut measurer = Measurer::new(gpu.clone(), 19);
        let mut rng = StdRng::seed_from_u64(19);
        let rows: Vec<(Vec<f64>, f64)> = (0..240)
            .map(|_| {
                let cfg = vspace.sample_uniform(&mut rng);
                let trial = Trial::from_measure(&measurer.measure(&vspace, &cfg));
                (vspace.features(&cfg), trial.gflops.unwrap_or(0.0) / 1000.0)
            })
            .collect();
        rows.into_iter().unzip::<_, _, Vec<_>, Vec<_>>()
    };

    c.bench_function("gbt_fit_240x28_vgg", |b| {
        use glimpse_mlkit::gbt::{Gbt, GbtParams};
        b.iter(|| {
            let mut fit_rng = StdRng::seed_from_u64(1);
            std::hint::black_box(Gbt::fit(&vgg_xs, &vgg_ys, GbtParams::default(), &mut fit_rng))
        })
    });

    c.bench_function("gbt_predict_vgg", |b| {
        // All 240 rows, one at a time, through the 50-tree forest fitted on
        // them (a single call is too short to time).
        use glimpse_mlkit::gbt::{Gbt, GbtParams};
        let mut fit_rng = StdRng::seed_from_u64(1);
        let forest = Gbt::fit(&vgg_xs, &vgg_ys, GbtParams::default(), &mut fit_rng);
        b.iter(|| vgg_xs.iter().map(|x| forest.predict(std::hint::black_box(x))).sum::<f64>())
    });

    c.bench_function("gbt_fit_incremental_600x8_plus8", |b| {
        // Warm-start continuation: append 8 trees to an existing forest
        // (the per-round cost of the incremental surrogate lifecycle),
        // versus `gbt_fit_600x8` which is the scratch refit it replaces.
        use glimpse_mlkit::gbt::{Gbt, GbtParams};
        use glimpse_mlkit::stats::child_rng;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let xs: Vec<Vec<f64>> = (0..600).map(|_| (0..8).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x[0] + x[1] * x[2] - 2.0 * (x[3] - 0.5).powi(2)).collect();
        let mut fit_rng = StdRng::seed_from_u64(1);
        let forest = Gbt::fit(&xs, &ys, GbtParams::default(), &mut fit_rng);
        b.iter(|| {
            let mut boost_rng = child_rng(1, 2);
            std::hint::black_box(forest.fit_incremental(&xs, &ys, 8, &mut boost_rng))
        })
    });

    c.bench_function("feature_cache_batch64_hit", |b| {
        // Steady-state cost of re-featurizing a warm batch through the
        // campaign cache (one lock pass + 64 pointer clones).
        use glimpse_tuners::FeatureCache;
        let cache = FeatureCache::new();
        let _ = cache.rows_batch(&space, configs.iter());
        b.iter(|| std::hint::black_box(cache.rows_batch(&space, configs.iter())))
    });

    c.bench_function("sa_batch_16x50", |b| {
        use glimpse_mlkit::parallel::Threads;
        use glimpse_mlkit::sa::{anneal, SaParams};
        use glimpse_supervise::CancelToken;
        let mut surrogate = GbtCostModel::new(0);
        let mut measurer = Measurer::new(gpu.clone(), 13);
        let mut history = TuningHistory::new(&gpu.name, "bench", 0, space.template());
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let cfg = space.sample_uniform(&mut rng);
            history.push(Trial::from_measure(&measurer.measure(&space, &cfg)));
        }
        surrogate.fit(&space, &history);
        let starts: Vec<_> = (0..16).map(|_| space.sample_uniform(&mut rng)).collect();
        let params = SaParams {
            chains: 16,
            max_steps: 50,
            t_start: 1.0,
            t_end: 0.05,
            patience: 0,
        };
        b.iter(|| {
            std::hint::black_box(anneal(
                &starts,
                |c| surrogate.predict(&space, c),
                |c, out, r| space.neighbor_into(c, out, r),
                params,
                7,
                Threads::fixed(1),
                &CancelToken::new(),
            ))
        })
    });

    c.bench_function("predict_batch_64", |b| {
        let mut surrogate = GbtCostModel::new(0);
        let mut measurer = Measurer::new(gpu.clone(), 15);
        let mut history = TuningHistory::new(&gpu.name, "bench", 0, space.template());
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..200 {
            let cfg = space.sample_uniform(&mut rng);
            history.push(Trial::from_measure(&measurer.measure(&space, &cfg)));
        }
        surrogate.fit(&space, &history);
        b.iter(|| std::hint::black_box(surrogate.predict_batch(&space, &configs)))
    });

    c.bench_function("surrogate_fit_predict_300", |b| {
        // Fit on 300 measured trials, predict one config (the per-round
        // cost AutoTVM pays).
        let model = models::alexnet();
        let task = &model.tasks()[2];
        let tspace = templates::space_for_task(task);
        let mut measurer = Measurer::new(gpu.clone(), 9);
        let mut history = TuningHistory::new(&gpu.name, &task.id.model, task.id.index, task.template);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let cfg = tspace.sample_uniform(&mut rng);
            history.push(Trial::from_measure(&measurer.measure(&tspace, &cfg)));
        }
        let probe = tspace.sample_uniform(&mut rng);
        b.iter(|| {
            let mut surrogate = GbtCostModel::new(0);
            surrogate.fit(&tspace, &history);
            std::hint::black_box(surrogate.predict(&tspace, &probe))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_components
}
criterion_main!(benches);

//! Checkpointing overhead gate (not a paper artifact): what the per-trial
//! WAL append costs a journaled run, against the host time of a bare
//! AutoTVM round.
//!
//! Emits `BENCH_checkpoint.json`. The gate is per-record append time ×
//! budget under 5% of the bare round; the report carries the figure, the
//! verdict (`"pass"`, which CI checks) and the worker count. Beside it, and
//! ungated because fsync time follows the host's IO load, the report
//! carries the durability barrier's share of the round: one WAL fsync per
//! `DEFAULT_SNAPSHOT_EVERY` appends (`cadence_sync_overhead_pct`). The
//! in-run append, fsync and resume timings come from tunebench
//! (`tuners.journal.*`), and the journal tests check that a journaled or
//! supervised round reaches the same outcome as a bare one.
//!
//! ```text
//! checkpoint [--quick] [--out <path>]
//! ```

use glimpse_bench::timing::time_best_of;
use glimpse_durable::WalWriter;
use glimpse_gpu_spec::database;
use glimpse_mlkit::parallel::available_workers;
use glimpse_sim::Measurer;
use glimpse_space::templates;
use glimpse_tensor_prog::models;
use glimpse_tuners::autotvm::AutoTvmTuner;
use glimpse_tuners::history::Trial;
use glimpse_tuners::journal::DEFAULT_SNAPSHOT_EVERY;
use glimpse_tuners::{Budget, TrialRecord, TuneContext, Tuner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_checkpoint.json".into());
    let reps = if quick { 2 } else { 5 };
    let budget = if quick { 48 } else { 96 };

    // Fixture: a trial record from a real measurement, so the payload size
    // matches what production journaling writes.
    let gpu = database::find("RTX 2080 Ti").unwrap();
    let model = models::alexnet();
    let task = &model.tasks()[2];
    let space = templates::space_for_task(task);
    let mut measurer = Measurer::new(gpu.clone(), 21);
    let config = space.sample_uniform(&mut StdRng::seed_from_u64(21));
    let record = TrialRecord {
        trial: Trial::from_measure(&measurer.measure(&space, &config)),
        post: measurer.state(),
    };
    let payload = serde_json::to_string(&record).expect("serializable record").into_bytes();

    // WAL append: one unbuffered write per record, one fsync at the end.
    let appends = if quick { 512 } else { 4096 };
    let dir = std::env::temp_dir().join(format!("glimpse-bench-checkpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let wal_path = dir.join("bench.wal");
    let (append_s, ()) = time_best_of(reps, || {
        let _ = std::fs::remove_file(&wal_path);
        let mut writer = WalWriter::create(&wal_path).expect("fresh WAL");
        for _ in 0..appends {
            writer.append(&payload).expect("append");
        }
        writer.sync().expect("sync");
    });
    let append_us = append_s / appends as f64 * 1e6;

    // The durability barrier of one journaled round: `budget` appends with
    // a WAL fsync after every `DEFAULT_SNAPSHOT_EVERY`; only the fsyncs are
    // timed, and the fastest round's total is kept.
    let cadence = usize::try_from(DEFAULT_SNAPSHOT_EVERY).expect("cadence fits usize");
    let syncs = budget / cadence;
    let sync_s = (0..reps)
        .map(|_| {
            let _ = std::fs::remove_file(&wal_path);
            let mut writer = WalWriter::create(&wal_path).expect("fresh WAL");
            let mut total = 0.0;
            for i in 1..=budget {
                writer.append(&payload).expect("append");
                if i % cadence == 0 {
                    total += time_best_of(1, || writer.sync().expect("sync")).0;
                }
            }
            total
        })
        .fold(f64::INFINITY, f64::min);
    let _ = std::fs::remove_dir_all(&dir);

    // The denominator: host time of the same round without a journal.
    let (bare_s, _) = time_best_of(reps.min(3), || {
        let mut m = Measurer::new(gpu.clone(), 31);
        AutoTvmTuner::new().tune(TuneContext::new(task, &space, &mut m, Budget::measurements(budget), 31))
    });
    let wal_append_overhead_pct = append_us * 1e-6 * budget as f64 / bare_s * 100.0;
    let cadence_sync_overhead_pct = sync_s / bare_s * 100.0;

    let report = json!({
        "quick": quick,
        "available_workers": available_workers(),
        "wal_append": {
            "records": appends,
            "payload_bytes": payload.len(),
            "total_s": append_s,
            "per_record_us": append_us,
        },
        "cadence_sync": {
            "every": cadence,
            "syncs": syncs,
            "total_s": sync_s,
            "per_sync_ms": sync_s / syncs.max(1) as f64 * 1e3,
        },
        "round": {
            "tuner": "autotvm",
            "budget": budget,
            "bare_ms": bare_s * 1e3,
            "wal_append_overhead_pct": wal_append_overhead_pct,
            "gate": "wal_append_overhead_pct < 5",
            "pass": wal_append_overhead_pct < 5.0,
            "cadence_sync_overhead_pct": cadence_sync_overhead_pct,
        },
    });
    let text = serde_json::to_string_pretty(&report).expect("serializable report");
    glimpse_durable::atomic_write(out_path.as_ref(), format!("{text}\n").as_bytes()).expect("writable output path");
    println!("{text}");
    eprintln!("wrote {out_path}");
}

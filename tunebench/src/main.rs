//! The repository's tuning benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path tunebench/Cargo.toml -- \
//!     --workload <glimpse-warm|glimpse-cold|autotvm-journal> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one JSON line describing the run
//! (environment, per-cell failures) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Every printed
//! metric must be declared in `BENCHMARK.json` and every declared one
//! printed, or the run fails. See README.md for the workloads.

mod layers;
mod measure;
mod workload;

use measure::{fastest, peak_rss_mb, sum_of_fastest};
use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;
use workload::{Inputs, WorkDir, Workload};

/// Scratch root, relative to the repository root.
const WORK_ROOT: &str = ".tunebench-work";

/// One printed metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
            args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
        };
        let names = Workload::ALL.map(Workload::name).join(", ");
        let workload = value("--workload")?;
        Ok(Self {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?} (one of {names})"))?,
            seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds: value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
            },
        })
    }
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let entries = spec
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    entries
        .iter()
        .map(
            |m| match (m.get("name").and_then(Value::as_str), m.get("unit").and_then(Value::as_str)) {
                (Some(name), Some(unit)) => Ok((name.to_owned(), unit.to_owned())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
            },
        )
        .collect()
}

/// Fails unless the printed metrics are exactly the declared ones, units
/// included.
fn cross_check(metrics: &[Metric], declared: &[(String, String)]) -> Result<(), String> {
    let mut printed: Vec<(String, String)> = metrics.iter().map(|m| (m.name.to_owned(), m.unit.to_owned())).collect();
    let mut declared = declared.to_vec();
    printed.sort();
    declared.sort();
    let missing: Vec<&(String, String)> = declared.iter().filter(|d| !printed.contains(d)).collect();
    let undeclared: Vec<&(String, String)> = printed.iter().filter(|p| !declared.contains(p)).collect();
    if missing.is_empty() && undeclared.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metrics disagree with BENCHMARK.json: declared but not printed {missing:?}; printed but not declared {undeclared:?}"
        ))
    }
}

/// The git commit of the working tree, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference)).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_owned)
        }),
        None => Some(head.to_owned()),
    };
    commit
        .map(|c| c.trim().to_owned())
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn end_to_end(inputs: &Inputs, rec: &workload::Record) -> Vec<Metric> {
    let setup_s = fastest(&rec.setup[0]).unwrap_or(0.0);
    let search_s = sum_of_fastest(&rec.cells[0]);
    let outcomes = || rec.outcomes.iter().flatten();
    let bests: Vec<_> = inputs.tasks.iter().cloned().zip(rec.replayed.iter().copied()).collect();
    vec![
        Metric::new("tune_s", setup_s + search_s, "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("search_s", search_s, "s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB"),
        Metric::new("model_latency_ms", measure::model_latency_ms(&bests), "ms"),
        Metric::new("gpu_s", outcomes().map(|o| o.gpu_seconds).sum(), "s"),
    ]
}

fn run() -> Result<(), String> {
    let args = Args::parse(&std::env::args().skip(1).collect::<Vec<_>>())?;
    let declared = declared(args.trace)?;
    let inputs = Inputs::prepare(args.workload, args.seed, WorkDir::create(Path::new(WORK_ROOT))?)?;
    let rec = workload::run(&inputs, args.seconds, args.trace);
    let (metrics, replay_matches) = if args.trace {
        layers::per_layer(&inputs, &rec)
    } else {
        (end_to_end(&inputs, &rec), true)
    };
    cross_check(&metrics, &declared)?;

    let failures: Vec<Value> = rec
        .failures
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.as_ref().map(|why| serde_json::json!({ "cell": i, "why": why })))
        .collect();
    let failed = failures.len();
    let details = serde_json::json!({
        "env": {
            "nproc": std::thread::available_parallelism().map_or(0, usize::from),
            "workers": glimpse_mlkit::parallel::Threads::AUTO.resolve(),
            "seed": args.seed,
            "commit": git_commit(),
        },
        "workload": args.workload.name(),
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rec.rounds,
        "setups": rec.setup[0].len(),
        "failures": failures,
        "training_identical": rec.training_identical,
        "surrogate_replay_matches": replay_matches,
    });
    let correct = failed == 0 && rec.training_identical != Some(false);
    let metrics: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), serde_json::json!({ "value": m.value, "unit": m.unit })))
        .collect();
    let result = serde_json::json!({
        "correct": correct,
        "attempted": inputs.tasks.len(),
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&details).map_err(|e| e.to_string())?);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tunebench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_check_rejects_undeclared_unprinted_and_unit_mismatches() {
        let declared = vec![("a".to_owned(), "s".to_owned()), ("b".to_owned(), "ms".to_owned())];
        let printed = |metrics: &[(&'static str, &'static str)]| metrics.iter().map(|&(n, u)| Metric::new(n, 1.0, u)).collect::<Vec<_>>();
        assert!(cross_check(&printed(&[("b", "ms"), ("a", "s")]), &declared).is_ok());
        assert!(cross_check(&printed(&[("a", "s")]), &declared).is_err());
        assert!(cross_check(&printed(&[("a", "s"), ("b", "ms"), ("c", "s")]), &declared).is_err());
        assert!(cross_check(&printed(&[("a", "s"), ("b", "s")]), &declared).is_err());
    }

    #[test]
    fn args_need_every_flag_and_a_known_workload() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let ok = Args::parse(&args("--workload glimpse-cold --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ok.workload, ok.seed, ok.seconds, ok.trace), (Workload::GlimpseCold, 7, 3, true));
        assert!(Args::parse(&args("--workload nope --seed 7 --seconds 3 --trace 0")).is_err());
        assert!(Args::parse(&args("--workload glimpse-cold --seed 7 --trace 0")).is_err());
        assert!(Args::parse(&args("--workload glimpse-cold --seed 7 --seconds 3 --trace 2")).is_err());
    }
}

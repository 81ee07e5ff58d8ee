//! Pure measurement helpers: the wall timer, the fastest-of reducer, the
//! model-latency rebuild and the process high-water memory reader.

use glimpse_sim::PerfModel;
use glimpse_space::{Config, SearchSpace};
use glimpse_tensor_prog::Task;
use std::time::Instant;

/// Wall-clock seconds of one call of `f`, with its result.
// A benchmark exists to read the wall clock, so the D1 ban on
// `Instant::now` (deterministic search code) does not apply here.
#[allow(clippy::disallowed_methods)]
pub fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed().as_secs_f64(), r)
}

/// The fastest of a unit's repeats: the harness's `time_best_of`
/// convention. Scheduler noise on a shared host only ever adds time, so the
/// minimum of several in-process repeats is the steadiest estimate of a
/// deterministic unit's cost. `None` when the unit never ran.
#[must_use]
pub fn fastest(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().reduce(f64::min)
}

/// Sum over units of each unit's fastest repeat (units that never ran count
/// as zero).
#[must_use]
pub fn sum_of_fastest(units: &[Vec<f64>]) -> f64 {
    units.iter().filter_map(|u| fastest(u)).sum()
}

/// Noise-free throughput of a cell's best configuration, the
/// re-evaluation step before a schedule ships. `None` when the cell found
/// no configuration the simulator accepts.
#[must_use]
pub fn replayed_gflops(model: &PerfModel, space: &SearchSpace, best: Option<&Config>) -> Option<f64> {
    best.and_then(|c| model.throughput_gflops(space, c))
}

/// End-to-end model latency (ms) rebuilt from each task's replayed best
/// throughput, with the Winograd/direct pick and reference-kernel fallback
/// of `glimpse_bench::experiment::end_to_end_latency_ms`.
#[must_use]
pub fn model_latency_ms(bests: &[(Task, f64)]) -> f64 {
    glimpse_bench::experiment::end_to_end_latency_ms(bests)
}

/// Peak resident set size in MB (`VmHWM`) parsed from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glimpse_gpu_spec::database;
    use glimpse_space::templates;
    use glimpse_tensor_prog::{models, TemplateKind};

    #[test]
    fn fastest_is_the_minimum_and_none_when_empty() {
        assert_eq!(fastest(&[0.3, 0.1, 0.2]), Some(0.1));
        assert_eq!(fastest(&[]), None);
        assert!((sum_of_fastest(&[vec![2.0, 1.0], vec![], vec![0.5]]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rss_reader_parses_vmhwm_in_kilobytes() {
        let status = "Name:\ttunebench\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 1 kB\n"), None);
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn latency_rebuild_replays_best_configs_and_keeps_the_faster_template() {
        let gpu = database::find("RTX 2080 Ti").unwrap();
        let model = models::vgg16();
        let perf = PerfModel::new(gpu.clone());
        // Each task's first valid configuration, replayed noise-free.
        let bests: Vec<(Task, f64)> = model
            .tasks()
            .iter()
            .map(|t| {
                let space = templates::space_for_task(t);
                let valid = space.iter().find(|c| perf.throughput_gflops(&space, c).is_some());
                (t.clone(), replayed_gflops(&perf, &space, valid.as_ref()).unwrap())
            })
            .collect();
        let latency = model_latency_ms(&bests);
        assert!(latency.is_finite() && latency > 0.0);
        // Zeroing every Winograd task can only slow the rebuilt model.
        let direct_only: Vec<(Task, f64)> = bests
            .iter()
            .map(|(t, g)| (t.clone(), if t.template == TemplateKind::Conv2dWinograd { 0.0 } else { *g }))
            .collect();
        assert!(model_latency_ms(&direct_only) >= latency);
        assert_eq!(replayed_gflops(&perf, &templates::space_for_task(&bests[0].0), None), None);
    }
}
